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

from dataclasses import dataclass, field
from math import prod

import numpy as np

from .errors import ParameterError, ShapeError
from .numerics import GRID_SHAPE, POSITIVE, GridSignal, Layout, SignalBatch, as_offsets
from .numerics import best_phase, check_value, checked_array, layout, offset_index, one_of
from .numerics import project_rows, sorted_sum
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


# The names `_token_energy` takes.
INVARIANT_FNS = ("sum_l2", "max_l2", "sum_l1")


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
        arr = checked_array(self.data, "token matrix", (2, 3))
        grid = tuple(self.grid_shape) if isinstance(self.grid_shape, list) else self.grid_shape
        check_value("token grid shape", grid, GRID_SHAPE, ShapeError)
        grid = tuple(map(int, grid))
        if prod(grid) != arr.shape[-2]:
            raise ShapeError(f"grid {grid} does not hold {arr.shape[-2]} tokens")
        object.__setattr__(self, "data", arr[np.newaxis] if arr.ndim == 2 else arr)
        object.__setattr__(self, "grid_shape", grid)

    @classmethod
    def _fresh(cls, data: np.ndarray, grid_shape: tuple[int, ...]) -> TokenMatrix:
        """Wrap a C-contiguous (B, M, D) float64 stack an op just computed:
        frozen in place, unchecked."""
        data.setflags(False)  # write=False: the keyword form parses at twice the cost
        tokens = object.__new__(cls)
        fields = tokens.__dict__
        fields["data"], fields["grid_shape"] = data, grid_shape
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
    # Per signal (*grid, channels), the patch `Layout`, kept by `_signal_stack`.
    layouts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        check_value("patch_len", self.patch_len, POSITIVE)
        object.__setattr__(self, "embed", checked_array(self.embed, "embed"))
        check_value("invariant_fn", self.invariant_fn, one_of(*INVARIANT_FNS))


def _signal_stack(x, cfg: PatchEmbedConfig) -> tuple[np.ndarray, Layout]:
    """(B, *grid, C) stack of a `SignalBatch`, or of one `GridSignal` as the
    batch of one, and its patch `Layout`.  The first call per (*grid, C)
    checks that the embed fits the patches and that `layout` takes the grid,
    then keeps the layout in `cfg.layouts`; a failed check keeps nothing."""
    if isinstance(x, GridSignal):
        stack = x.data[np.newaxis]
    elif isinstance(x, SignalBatch):
        stack = x.data
    else:
        raise ShapeError(f"expected a GridSignal or a SignalBatch, got {type(x).__name__}")
    lay = cfg.layouts.get(stack.shape[1:])
    if lay is None:
        expect = cfg.patch_len ** (stack.ndim - 2) * stack.shape[-1]
        if cfg.embed.shape[0] != expect:
            raise ShapeError(
                f"embed expects rows of width {cfg.embed.shape[0]}, "
                f"patches have {expect} entries"
            )
        *grid, c = stack.shape[1:]
        lay = cfg.layouts[stack.shape[1:]] = layout(tuple(grid), cfg.patch_len, "patch_len", c)
    return stack, lay


def token(x, cfg: PatchEmbedConfig) -> TokenMatrix:
    """Fixed-grid tokenization: patches anchored at offset 0, projected."""
    stack, lay = _signal_stack(x, cfg)
    b, c = len(stack), stack.shape[-1]
    rows = stack.reshape(b, -1, c).take(lay.tiles, axis=1).reshape(b, len(lay.tiles), -1)
    return TokenMatrix._fresh(project_rows(rows, cfg.embed), lay.coarse)


def a_token(x, cfg: PatchEmbedConfig) -> tuple[TokenMatrix, SelectionTrace]:
    """Energy-aligned tokenization.

    Scores every circular patch offset with the configured invariant
    functional and tokenizes at the best one; exact score ties resolve to
    the lowest row-major offset and are flagged in the trace, which holds
    one offset per sample.

    The patch anchored at every grid position is projected once, so all
    candidate offsets are strided slices of one product, and the candidates
    seen for an input and for its shift are gathers of bitwise identical
    values.  One gather through `Layout.phase_taps` lays the patches out as
    (K, positions, B) columns, entry k = tap * C + channel of a position's
    patch, positions in polyphase order.  The einsum reduces over k in the
    order `project_rows` does, from 0.0, one product added at a time, so
    every entry gets the bits of `project_rows` on that sample's patch rows;
    only its inner loop runs along the M * B columns, the long axis, instead
    of along D.  Every column is one lane of that loop, tail included, so
    where a patch sits (its position, its sample, the batch size) does not
    change its bits.  The (D, phases, positions, B) product is copied to
    each sample's (phases, positions, D) components.
    """
    stack, lay = _signal_stack(x, cfg)
    b = len(stack)
    # Samples last: one gather serves the batch, and each k is one contiguous row.
    cols = np.ascontiguousarray(stack.reshape(b, -1).T).take(lay.phase_taps, axis=0)
    embedded = np.einsum("kd,kx->dx", cfg.embed, cols.reshape(len(cols), -1))
    comps = embedded.reshape(-1, *lay.components.shape, b).transpose(3, 1, 2, 0)
    comps = np.ascontiguousarray(comps)
    sub, trace = best_phase(comps, _token_energy(comps, cfg.invariant_fn), lay, TOKEN)
    return TokenMatrix._fresh(sub, lay.coarse), trace


def lemma1_sides(x, cfg: PatchEmbedConfig, off, axis: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the unit-shift/tokenization interchange.

    Left: the once-shifted signal tokenized at patch offset `off`.  Right:
    the original tokenized at the cyclically advanced offset, with the token
    grid rotated by the carry along `axis`.  `off` holds one offset per
    sample of `x`, and each side is a (B, M, D) stack.
    """
    stack, lay = _signal_stack(x, cfg)
    b, *shape, c = stack.shape
    shape, l, grid = tuple(shape), cfg.patch_len, lay.coarse
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
