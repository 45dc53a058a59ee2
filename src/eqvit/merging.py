"""Patch merging, its full-rate convolution form, and polyphase selection.

Strided patch merging concatenates every group of P consecutive tokens
(rank 2: P x P tiles) and projects the result.  The same map equals a
stride-P subsample of a full-rate circular convolution, which is what the
full-rate form computes: project the group anchored at every grid position.
Polyphase selection then keeps whichever of the P (or P x P) downsampling
phases carries the most energy, so a rotation of the token grid changes
which phase wins instead of changing the values.  Every op runs on the
(B, M, D) stack a `TokenMatrix` holds, one signal being the stack of one.
`aps` and `a_pmerge` return (tokens, SelectionTrace) with one phase per
sample, and `unpool` reads that trace back.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import ParameterError, ShapeError, TraceError
from .numerics import NORM_ORDER, POSITIVE, check_value
from .numerics import (
    best_phase,
    coarse_grid,
    grid_index,
    lp_norm,
    project_rows,
    scatter_index,
    scatter_rows,
    weight_array,
)
from .tokenizer import TokenMatrix
from .trace import MERGE, WSA, SelectionTrace


@dataclass(frozen=True)
class MergeConfig:
    """Merge stride P, the (P**rank * D) x D~ projection, and the norm order.

    `embed` may also be a (B, P**rank * D, D~) stack, one projection per
    sample of B token matrices.
    """

    factor: int
    embed: np.ndarray
    energy_p: float = 2.0

    def __post_init__(self):
        check_value("factor", self.factor, POSITIVE)
        check_value("energy_p", self.energy_p, NORM_ORDER)
        object.__setattr__(self, "embed", weight_array(self.embed, "embed", (2, 3)))

    @property
    def dim_out(self) -> int:
        return self.embed.shape[-1]


def _check_merge(data: np.ndarray, grid: tuple[int, ...], cfg: MergeConfig) -> tuple[int, ...]:
    """Check that `cfg` merges tokens `data` on `grid`; the merged grid."""
    coarse, embed = coarse_grid(grid, cfg.factor, "factor"), cfg.embed
    expect = cfg.factor ** len(grid) * data.shape[-1]
    if embed.shape[-2] != expect:
        raise ShapeError(
            f"merge embed expects rows of width {embed.shape[-2]}, "
            f"token groups have {expect} entries"
        )
    if embed.ndim == 3 and len(embed) != len(data):
        raise ShapeError(f"{len(embed)} merge embeds for tokens of shape {data.shape}")
    return coarse


def pmerge(tokens: TokenMatrix, cfg: MergeConfig) -> TokenMatrix:
    """Strided patch merging: project each non-overlapping P-group, flattened
    row-major over (position, channel)."""
    data, grid = tokens.data, tokens.grid_shape
    coarse = _check_merge(data, grid, cfg)
    index = grid_index(grid, cfg.factor, cfg.factor, (0,) * len(grid))
    rows = data.take(index, axis=1).reshape(len(data), len(index), -1)
    return TokenMatrix._fresh(project_rows(rows, cfg.embed), coarse)


def pmerge_conv_fullrate(tokens: TokenMatrix, cfg: MergeConfig) -> TokenMatrix:
    """Circular-convolution form of pmerge at full rate.

    Output row n projects the P-group anchored at grid position n, i.e. each
    embed column acts as a stride-1 circular filter over the tokens.  A
    stride-P, phase-0 subsample of the result reproduces pmerge.
    """
    data, grid, embed = tokens.data, tokens.grid_shape, cfg.embed
    _check_merge(data, grid, cfg)
    d = data.shape[-1]
    # One gather lays out every tap: in-group positions row-major, each a
    # rotation of the grid, (B, taps, M, D).  Each tap is
    # projected by its own row block of the merge projection and accumulated
    # in a fixed order, which keeps the result exact under grid rotation.
    index = grid_index(grid, cfg.factor, 1, (0,) * len(grid), taps_first=True)
    taps = data.take(index, axis=1)
    out = np.zeros((*data.shape[:-1], embed.shape[-1]))
    for i in range(len(index)):
        out += project_rows(taps[:, i], embed[..., i * d : (i + 1) * d, :])
    return TokenMatrix._fresh(out, grid)


def aps(
    tokens: TokenMatrix, factor: int, energy_p: float = 2.0
) -> tuple[TokenMatrix, SelectionTrace]:
    """Keep the stride-`factor` polyphase component with the largest norm.

    Components are the strided subgrids at each of the factor (rank 2:
    factor x factor) phases; each is scored by the lp norm pooled over all
    its entries and channels.  Exact ties resolve to the lowest row-major
    phase and are flagged.  Each sample selects its own; the trace holds
    one phase per sample.
    """
    if factor < 1:
        raise ParameterError(f"factor must be >= 1, got {factor}")
    data, grid = tokens.data, tokens.grid_shape
    coarse = coarse_grid(grid, factor, "factor")
    phases, comp, tied = best_phase(
        data.reshape(len(data), *grid, data.shape[-1]),
        factor,
        lambda comps: lp_norm(comps.reshape(len(comps), -1), energy_p, axis=-1),
    )
    return TokenMatrix._fresh(comp, coarse), SelectionTrace.single(MERGE, phases, tied)


def a_pmerge(tokens: TokenMatrix, cfg: MergeConfig) -> tuple[TokenMatrix, SelectionTrace]:
    """Patch merging with energy-selected downsampling phase.

    Runs the full-rate convolution form and keeps the polyphase component
    with the largest pooled norm, recording each sample's phase.
    """
    return aps(pmerge_conv_fullrate(tokens, cfg), cfg.factor, cfg.energy_p)


def unpool(tokens: TokenMatrix, trace: SelectionTrace, factor: int, target_grid) -> TokenMatrix:
    """Invert one merge stage: scatter tokens back to their recorded phase.

    The output grid is zero-filled except at positions phase + factor * i,
    which receive the rows of `tokens`.  Any window offsets recorded in the
    same trace are then un-applied in reverse order, so the result is
    aligned with the grid the stage originally consumed.  Re-anchoring the
    token grid to the input resolution is the pipeline's job.  Each sample
    un-applies its own choices.
    """
    if isinstance(target_grid, (int, np.integer)):
        target_grid = (int(target_grid),)
    target_grid = tuple(int(g) for g in target_grid)
    if len(target_grid) != tokens.rank:
        raise TraceError(f"target grid {target_grid} has wrong rank for the tokens")
    merges = trace.of_kind(MERGE)
    if len(merges) != 1:
        raise TraceError(f"expected exactly one merge entry, found {len(merges)}")
    phases, stack = merges[0].offsets, tokens.data
    if phases.shape != (len(stack), tokens.rank) or not all(0 <= k < factor for k in phases.flat):
        raise TraceError(f"phases {phases.tolist()} do not fit factor {factor}")
    if tuple(g // factor for g in target_grid) != tokens.grid_shape or any(
        g % factor for g in target_grid
    ):
        raise TraceError(
            f"target grid {target_grid} with factor {factor} "
            f"does not refine token grid {tokens.grid_shape}"
        )
    # Un-rotating by each window offset moves every scattered row by that
    # offset; rotations commute, so one scatter lands them in place.
    for entry in trace.of_kind(WSA):
        phases = phases + entry.offsets
    out = scatter_rows(stack, prod(target_grid), scatter_index(target_grid, factor, phases))
    return TokenMatrix._fresh(out, target_grid)
