"""Patch merging, its full-rate convolution form, and polyphase selection.

Strided patch merging concatenates every group of P consecutive tokens
(rank 2: P x P tiles) and projects the result.  The same map equals a
stride-P subsample of a full-rate circular convolution, which is what the
full-rate form computes: project the group anchored at every grid position.
It projects each token once by every tap's share of the projection and
then gathers, for each position, the projections its group's taps read.
Polyphase selection then keeps whichever of the P (or P x P) downsampling
phases carries the most energy, so a rotation of the token grid changes
which phase wins instead of changing the values.  Every op runs on the
(B, M, D) stack a `TokenMatrix` holds, one signal being the stack of one.
`aps` and `a_pmerge` return (tokens, SelectionTrace) with one phase per
sample, and `unpool` reads that trace back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, TraceError
from .numerics import NORM_ORDER, POSITIVE, Layout, best_phase, check_value, checked_array
from .numerics import layout, lp_norm, place_rows, project_rows
from .tokenizer import TokenMatrix
from .trace import MERGE, WSA, SelectionTrace


@dataclass(frozen=True)
class MergeConfig:
    """Merge stride P, the (P**rank * D) x D~ projection, and the norm order.

    `embed` may also be a (B, P**rank * D, D~) stack, one projection per
    sample of B token matrices.  The merges check a config against a token
    stack once per (grid, stack shape) and keep what the check fixed, so
    later calls only compute; a failed check keeps nothing and raises again.
    """

    factor: int
    embed: np.ndarray
    energy_p: float = 2.0
    # Kept by `_check_merge`: per (token grid, token stack shape), the merge
    # `Layout`; per tap count T, `embed` as `pmerge_conv_fullrate` reads it,
    # read-only, (..., D, T * D~), tap t's row block in columns t * D~ onward.
    layouts: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    tap_blocks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        check_value("factor", self.factor, POSITIVE)
        check_value("energy_p", self.energy_p, NORM_ORDER)
        object.__setattr__(self, "embed", checked_array(self.embed, "embed", (2, 3)))


def _check_merge(data: np.ndarray, grid: tuple[int, ...], cfg: MergeConfig) -> Layout:
    """Check that `cfg` merges tokens `data` on `grid`; the grid's merge
    `Layout`, kept in `cfg.layouts` once the check has passed, beside the
    embed's tap blocks.  A failed check keeps nothing."""
    lay, embed = layout(grid, cfg.factor, "factor"), cfg.embed
    taps, d, out = len(lay.phases), data.shape[-1], embed.shape[-1]
    if embed.shape[-2] != taps * d:
        raise ShapeError(
            f"merge embed expects rows of width {embed.shape[-2]}, "
            f"token groups have {taps * d} entries"
        )
    if embed.ndim == 3 and len(embed) != len(data):
        raise ShapeError(f"{len(embed)} merge embeds for tokens of shape {data.shape}")
    if taps not in cfg.tap_blocks:
        lead = embed.shape[:-2]
        blocks = embed.reshape(*lead, taps, d, out).swapaxes(-3, -2).reshape(*lead, d, taps * out)
        blocks.setflags(write=False)
        cfg.tap_blocks[taps] = blocks
    cfg.layouts[grid, data.shape] = lay
    return lay


def pmerge(tokens: TokenMatrix, cfg: MergeConfig) -> TokenMatrix:
    """Strided patch merging: project each non-overlapping P-group, flattened
    row-major over (position, channel)."""
    data, grid = tokens.data, tokens.grid_shape
    lay = cfg.layouts.get((grid, data.shape)) or _check_merge(data, grid, cfg)
    rows = data.take(lay.tiles, axis=1).reshape(len(data), len(lay.tiles), -1)
    return TokenMatrix._fresh(project_rows(rows, cfg.embed), lay.coarse)


def pmerge_conv_fullrate(tokens: TokenMatrix, cfg: MergeConfig) -> TokenMatrix:
    """Circular-convolution form of pmerge at full rate.

    Output row n projects the P-group anchored at grid position n, i.e. each
    embed column acts as a stride-1 circular filter over the tokens.  A
    stride-P, phase-0 subsample of the result reproduces pmerge.

    Each token is projected once by every tap's row block of the merge
    projection, the blocks side by side; one gather then moves each tap's
    projections to the positions whose group reads that token at that tap,
    (B, taps, M, D~), and the taps are summed in row-major order.  Moving
    projected rows gives the bits of projecting moved rows (`project_rows`),
    so the result stays exact under grid rotation.
    """
    data, grid = tokens.data, tokens.grid_shape
    index = (cfg.layouts.get((grid, data.shape)) or _check_merge(data, grid, cfg)).tap_rows
    projected = project_rows(data, cfg.tap_blocks[len(index)])
    # Row n * taps + t of each sample: token n projected by tap t's block.
    moved = projected.reshape(len(data), -1, cfg.embed.shape[-1]).take(index, axis=1)
    # An outer-axis reduce adds whole tap planes in order onto +0.0.
    return TokenMatrix._fresh(np.add.reduce(moved, axis=1, initial=0.0), grid)


def aps(
    tokens: TokenMatrix, factor: int, energy_p: float = 2.0
) -> tuple[TokenMatrix, SelectionTrace]:
    """Keep the stride-`factor` polyphase component with the largest norm.

    Components are the strided subgrids at each of the factor (rank 2:
    factor x factor) phases; each is scored by the lp norm pooled over all
    its entries and channels.  Exact ties resolve to the lowest row-major
    phase and are flagged.  Each sample selects its own; the trace holds
    one phase per sample.  `layout` checks `factor` and `lp_norm` checks
    `energy_p`, by the `POSITIVE` and `NORM_ORDER` rules (ParameterError).
    """
    data = tokens.data
    try:
        lay = layout(tokens.grid_shape, factor, "factor")
    except TypeError:  # unhashable: the cache refused it before its check ran
        check_value("factor", factor, POSITIVE)
        raise
    comps = data.take(lay.components, axis=1)  # (B, phases, positions, D)
    scores = lp_norm(comps.reshape(len(data), len(lay.phases), -1), energy_p)
    comp, trace = best_phase(comps, scores, lay, MERGE)
    return TokenMatrix._fresh(comp, lay.coarse), trace


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
    return TokenMatrix._fresh(place_rows(stack, target_grid, factor, phases), target_grid)
