"""Patch merging, its full-rate convolution form, and polyphase selection.

Strided patch merging concatenates every group of P consecutive tokens
(rank 2: P x P tiles) and projects the result.  The same map equals a
stride-P subsample of a full-rate circular convolution, which is what the
full-rate form computes: project the group anchored at every grid position.
Polyphase selection then keeps whichever of the P (or P x P) downsampling
phases carries the most energy, so a rotation of the token grid changes
which phase wins instead of changing the values.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

import numpy as np

from .errors import ParameterError, ShapeError, TraceError
from .numerics import (
    Offset,
    best_phase,
    blocks,
    freeze,
    lp_norm,
    project_rows,
    require_finite,
)
from .tokenizer import TokenMatrix
from .trace import MERGE, WSA, SelectionTrace


@dataclass(frozen=True)
class MergeConfig:
    """Merge stride P, the (P**rank * D) x D~ projection, and the norm order."""

    factor: int
    embed: np.ndarray
    energy_p: float = 2.0

    def __post_init__(self):
        if self.factor < 1:
            raise ParameterError(f"factor must be >= 1, got {self.factor}")
        if self.energy_p < 1:
            raise ParameterError(f"energy_p must be >= 1, got {self.energy_p}")
        arr = np.asarray(self.embed, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError("embed must be a matrix")
        require_finite(arr, "embed")
        object.__setattr__(self, "embed", freeze(arr))

    @property
    def dim_out(self) -> int:
        return self.embed.shape[1]


def _check_merge(tokens: TokenMatrix, cfg: MergeConfig) -> None:
    for g in tokens.grid_shape:
        if g % cfg.factor:
            raise ShapeError(f"grid axis {g} is not divisible by factor {cfg.factor}")
    expect = cfg.factor**tokens.rank * tokens.dim
    if cfg.embed.shape[0] != expect:
        raise ShapeError(
            f"merge embed expects rows of width {cfg.embed.shape[0]}, "
            f"token groups have {expect} entries"
        )


def pmerge(tokens: TokenMatrix, cfg: MergeConfig) -> TokenMatrix:
    """Strided patch merging: project each non-overlapping P-group, flattened
    row-major over (position, channel)."""
    _check_merge(tokens, cfg)
    grid = tuple(g // cfg.factor for g in tokens.grid_shape)
    rows = blocks(tokens.grid(), cfg.factor).reshape(prod(grid), -1)
    return TokenMatrix._fresh(project_rows(rows, cfg.embed), grid)


def pmerge_conv_fullrate(tokens: TokenMatrix, cfg: MergeConfig) -> TokenMatrix:
    """Circular-convolution form of pmerge at full rate.

    Output row n projects the P-group anchored at grid position n, i.e. each
    embed column acts as a stride-1 circular filter over the tokens.  A
    stride-P, phase-0 subsample of the result reproduces pmerge.
    """
    _check_merge(tokens, cfg)
    d = tokens.dim
    out = np.zeros((tokens.count, cfg.dim_out))
    # One tap per in-group position, row-major; each tap contributes the
    # matching row block of the merge projection.  Fixed order keeps the
    # accumulation exact under grid rotation.
    for i, delta in enumerate(product(range(cfg.factor), repeat=tokens.rank)):
        block = cfg.embed[i * d : (i + 1) * d, :]
        out += project_rows(tokens.shift(delta).data, block)
    return TokenMatrix._fresh(out, tokens.grid_shape)


def aps(
    tokens: TokenMatrix, factor: int, energy_p: float = 2.0
) -> tuple[TokenMatrix, Offset, bool]:
    """Keep the stride-`factor` polyphase component with the largest norm.

    Components are the strided subgrids at each of the factor (rank 2:
    factor x factor) phases; each is scored by the lp norm pooled over all
    its entries and channels.  Exact ties resolve to the lowest row-major
    phase and are flagged.
    """
    if factor < 1:
        raise ParameterError(f"factor must be >= 1, got {factor}")
    for g in tokens.grid_shape:
        if g % factor:
            raise ShapeError(f"grid axis {g} is not divisible by factor {factor}")
    phase, comp, tied = best_phase(
        tokens.grid(), factor, tokens.rank, lambda c: lp_norm(c, energy_p)
    )
    out_grid = tuple(g // factor for g in tokens.grid_shape)
    return TokenMatrix._fresh(comp.reshape(prod(out_grid), tokens.dim), out_grid), phase, tied


def a_pmerge(tokens: TokenMatrix, cfg: MergeConfig) -> tuple[TokenMatrix, SelectionTrace]:
    """Patch merging with energy-selected downsampling phase.

    Runs the full-rate convolution form and keeps the polyphase component
    with the largest pooled norm, recording the phase.
    """
    full = pmerge_conv_fullrate(tokens, cfg)
    comp, phase, tied = aps(full, cfg.factor, cfg.energy_p)
    return comp, SelectionTrace.single(MERGE, phase, tied)


def unpool(
    tokens: TokenMatrix, trace: SelectionTrace, factor: int, target_grid
) -> TokenMatrix:
    """Invert one merge stage: scatter tokens back to their recorded phase.

    The output grid is zero-filled except at positions phase + factor * i,
    which receive the rows of `tokens`.  Any window offsets recorded in the
    same trace are then un-applied in reverse order, so the result is
    aligned with the grid the stage originally consumed.  Re-anchoring the
    token grid to the input resolution is the pipeline's job.
    """
    if isinstance(target_grid, (int, np.integer)):
        target_grid = (int(target_grid),)
    target_grid = tuple(int(g) for g in target_grid)
    if len(target_grid) != tokens.rank:
        raise TraceError(f"target grid {target_grid} has wrong rank for the tokens")
    merges = trace.of_kind(MERGE)
    if len(merges) != 1:
        raise TraceError(f"expected exactly one merge entry, found {len(merges)}")
    phase = merges[0].offset
    if len(phase) != tokens.rank or any(not 0 <= k < factor for k in phase):
        raise TraceError(f"phase {phase} does not fit factor {factor}")
    if tuple(g // factor for g in target_grid) != tokens.grid_shape or any(
        g % factor for g in target_grid
    ):
        raise TraceError(
            f"target grid {target_grid} with factor {factor} "
            f"does not refine token grid {tokens.grid_shape}"
        )
    out = np.zeros((*target_grid, tokens.dim))
    out[tuple(slice(k, None, factor) for k in phase)] = tokens.grid()
    result = TokenMatrix._fresh(out.reshape(prod(target_grid), tokens.dim), target_grid)
    for entry in reversed(trace.of_kind(WSA)):
        result = result.shift(tuple(-o for o in entry.offset))
    return result
