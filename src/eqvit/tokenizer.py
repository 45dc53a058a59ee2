"""Patch tokenization, fixed-grid and energy-aligned.

A signal of length N is cut into non-overlapping patches of length L
(rank 2: L x L tiles) and each patch is projected to a D-dimensional token.
The fixed grid anchored at 0 is not shift-equivariant; the adaptive variant
re-anchors the grid at whichever of the L (or L x L) circular offsets
maximizes a shift-invariant energy functional, which restores equivariance
up to a token-grid rotation.  A caller's `TokenMatrix` is validated; the ops'
own results skip that (`TokenMatrix._fresh`) and the encoder checks its output.

Every op takes one `GridSignal` or a `SignalBatch` of B signals, and every
`TokenMatrix` holds a (B, M, D) stack: one signal is the batch of one.  Each
sample gets its own selection, bit-identical to its call alone, and the
`SelectionTrace` of `a_token` holds one offset and tie flag per sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import ParameterError, ShapeError
from .numerics import GRID_SHAPE, POSITIVE, check_value, one_of
from .numerics import (
    GridSignal,
    SignalBatch,
    as_offsets,
    best_phase,
    freeze,
    layout,
    offset_index,
    project_columns,
    project_rows,
    real_array,
    require_finite,
    sorted_sum,
    weight_array,
)
from .trace import TOKEN, SelectionTrace


def _token_energy(tokens: np.ndarray, name: str) -> np.ndarray:
    """One score per (M, D) matrix of a C-contiguous stack: the sum
    ("sum_l2") or the maximum ("max_l2") of its rows' l2 norms, or the sum of
    their l1 norms ("sum_l1").  Each is exactly invariant to any permutation
    of the rows; the sums go through `sorted_sum` on the norms, a temporary
    of its own."""
    if name == "sum_l1":
        norms = np.add.reduce(np.abs(tokens), axis=-1)
    else:
        norms = np.sqrt(np.einsum("...md,...md->...m", tokens, tokens))
    return np.maximum.reduce(norms, axis=-1) if name == "max_l2" else sorted_sum(norms)


# Token energies of a (B, M, D) stack, one score per sample.
INVARIANT_FNS = {
    name: lambda t, name=name: _token_energy(np.ascontiguousarray(t), name)
    for name in ("sum_l2", "max_l2", "sum_l1")
}


@dataclass(frozen=True)
class TokenMatrix:
    """B samples of M tokens of dimension D, laid out row-major over one
    circular grid: `data` is a (B, M, D) stack.

    grid_shape is (M,) for rank-1 models or (Gh, Gw) for rank-2 ones;
    its product always equals the number of rows.  The constructor also
    takes one (M, D) matrix, which it stores as the batch of one.
    """

    data: np.ndarray
    grid_shape: tuple[int, ...]

    def __post_init__(self):
        arr = real_array(self.data, "token matrix")
        if arr.ndim not in (2, 3):
            raise ShapeError(f"token matrix must be (M, D) or (B, M, D), got ndim={arr.ndim}")
        require_finite(arr, "token matrix")
        grid = tuple(self.grid_shape) if isinstance(self.grid_shape, list) else self.grid_shape
        check_value("token grid shape", grid, GRID_SHAPE, ShapeError)
        grid = tuple(map(int, grid))
        if prod(grid) != arr.shape[-2]:
            raise ShapeError(f"grid {grid} does not hold {arr.shape[-2]} tokens")
        object.__setattr__(self, "data", freeze(arr[np.newaxis] if arr.ndim == 2 else arr))
        object.__setattr__(self, "grid_shape", grid)

    @classmethod
    def _fresh(cls, data: np.ndarray, grid_shape: tuple[int, ...]) -> TokenMatrix:
        """Wrap a C-contiguous (B, M, D) float64 stack an op just computed:
        frozen in place, unchecked."""
        data.setflags(write=False)
        tokens = object.__new__(cls)
        vars(tokens).update(data=data, grid_shape=grid_shape)
        return tokens

    @property
    def dim(self) -> int:
        return self.data.shape[-1]

    @property
    def rank(self) -> int:
        return len(self.grid_shape)

    def grid(self) -> np.ndarray:
        """View of the tokens shaped (B, *grid_shape, D)."""
        return self.data.reshape(len(self.data), *self.grid_shape, self.dim)


@dataclass(frozen=True)
class PatchEmbedConfig:
    """Patch length, embedding matrix, and the energy used for alignment.

    embed has one row per patch entry (patch_len ** rank * channels) and one
    column per token dimension.
    """

    patch_len: int
    embed: np.ndarray
    invariant_fn: str = "sum_l2"

    def __post_init__(self):
        check_value("patch_len", self.patch_len, POSITIVE)
        object.__setattr__(self, "embed", weight_array(self.embed, "embed"))
        check_value("invariant_fn", self.invariant_fn, one_of(*INVARIANT_FNS))

    @property
    def dim(self) -> int:
        return self.embed.shape[1]


def _signal_stack(x, cfg: PatchEmbedConfig) -> np.ndarray:
    """(B, *grid, C) stack of a `SignalBatch`, or of one `GridSignal` as the
    batch of one; checks that the embed fits the patches."""
    if isinstance(x, GridSignal):
        stack = x.data[np.newaxis]
    elif isinstance(x, SignalBatch):
        stack = x.data
    else:
        raise ShapeError(f"expected a GridSignal or a SignalBatch, got {type(x).__name__}")
    expect = cfg.patch_len ** (stack.ndim - 2) * stack.shape[-1]
    if cfg.embed.shape[0] != expect:
        raise ShapeError(
            f"embed expects rows of width {cfg.embed.shape[0]}, "
            f"patches have {expect} entries"
        )
    return stack


def token(x, cfg: PatchEmbedConfig) -> TokenMatrix:
    """Fixed-grid tokenization: patches anchored at offset 0, projected."""
    stack = _signal_stack(x, cfg)
    b, *shape, c = stack.shape
    lay = layout(tuple(shape), cfg.patch_len, "patch_len", c)
    rows = stack.reshape(b, -1, c).take(lay.tiles, axis=1).reshape(b, len(lay.tiles), -1)
    return TokenMatrix._fresh(project_rows(rows, cfg.embed), lay.coarse)


def _full_rate_embed(stack: np.ndarray, taps: np.ndarray, embed: np.ndarray) -> np.ndarray:
    """Project the patch anchored at every grid position of a (B, *grid, C)
    stack, shape (B, positions, D), positions in the column order of `taps`:
    the patch layout's tap index (grid order) or its `phase_taps` (polyphase
    order, which `a_token` takes).

    All candidate offsets are strided slices of this one product, so the
    candidates seen for an input and for its shift are gathers of bitwise
    identical values.  One gather lays the patches out as (K, positions, B)
    columns, entry k = tap * C + channel of a position's patch, taps in
    row-major order, and `project_columns` contracts them: the bits of
    `project_rows` on the (positions, K) patch rows of each sample, with the
    inner loop along positions and samples instead of along D.
    """
    # Samples last: one gather serves the batch, and each k is one contiguous row.
    signal = np.ascontiguousarray(stack.reshape(len(stack), -1).T)
    return project_columns(signal.take(taps, axis=0), embed)


def a_token(x, cfg: PatchEmbedConfig) -> tuple[TokenMatrix, SelectionTrace]:
    """Energy-aligned tokenization.

    Scores every circular patch offset with the configured invariant
    functional and tokenizes at the best one; exact score ties resolve to
    the lowest row-major offset and are flagged in the trace, which holds
    one offset per sample.
    """
    stack = _signal_stack(x, cfg)
    _, *shape, c = stack.shape
    lay = layout(tuple(shape), cfg.patch_len, "patch_len", c)
    # Embedded in polyphase order, so (B, phases, positions, D) by a reshape:
    # each sample's polyphase components.
    embedded = _full_rate_embed(stack, lay.phase_taps, cfg.embed)
    comps = embedded.reshape(len(stack), *lay.components.shape, -1)
    sub, trace = best_phase(comps, _token_energy(comps, cfg.invariant_fn), lay.phases, TOKEN)
    return TokenMatrix._fresh(sub, lay.coarse), trace


def lemma1_sides(x, cfg: PatchEmbedConfig, off, axis: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the unit-shift/tokenization interchange.

    Left: the once-shifted signal tokenized at patch offset `off`.  Right:
    the original tokenized at the cyclically advanced offset, with the token
    grid rotated by the carry along `axis`.  `off` holds one offset per
    sample of `x`, and each side is a (B, M, D) stack.
    """
    stack = _signal_stack(x, cfg)
    b, *shape, c = stack.shape
    shape, l = tuple(shape), cfg.patch_len
    grid = layout(shape, l, "patch_len", c).coarse
    if not 0 <= axis < len(shape):
        raise ParameterError(f"axis {axis} out of range for rank {len(shape)}")
    offs = as_offsets(off, len(shape))
    if len(offs) != b:
        raise ShapeError(f"{len(offs)} offsets for {b} signals")
    if ((offs < 0) | (offs >= l)).any():
        raise ParameterError(f"offsets {offs.tolist()} outside [0, {l})")
    moved = offs + np.eye(len(shape), dtype=np.int64)[axis]
    # Each side's (B, M, L**rank) positions of its patch rows in the stacked signals.
    left = offset_index(shape, l, l, moved, stacked=True)
    rotation = offset_index(grid, 1, 1, moved // l)[..., 0]
    right = offset_index(shape, l, l, moved % l, stacked=True)
    right = right[np.arange(b)[:, np.newaxis], rotation]
    sides = stack.reshape(-1, c).take(np.stack([left, right]), axis=0)
    return tuple(project_rows(side.reshape(b, prod(grid), -1), cfg.embed) for side in sides)
