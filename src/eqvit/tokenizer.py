"""Patch tokenization, fixed-grid and energy-aligned.

A signal of length N is cut into non-overlapping patches of length L
(rank 2: L x L tiles) and each patch is projected to a D-dimensional token.
The fixed grid anchored at 0 is not shift-equivariant; the adaptive variant
re-anchors the grid at whichever of the L (or L x L) circular offsets
maximizes a shift-invariant energy functional, which restores equivariance
up to a token-grid rotation.  A caller's `TokenMatrix` is validated; the ops'
own results skip that (`TokenMatrix._fresh`) and the encoder checks its output.

Every op also takes a batch: a sequence of signals, or a `TokenMatrix` whose
data is a (B, M, D) stack.  One sample is the B=1 call of the same kernel,
and each sample of a batch gets its own selection, bit-identical to its
call alone.  `a_token` returns (tokens, SelectionTrace) for one signal and
for a batch alike; the trace holds one offset and tie flag per sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import prod

import numpy as np

from .errors import ParameterError, ShapeError
from .numerics import (
    GridSignal,
    Offset,
    as_offset,
    best_phase,
    freeze,
    grid_index,
    project_rows,
    require_finite,
    stable_sum,
    stack_signals,
    weight_array,
)
from .trace import TOKEN, SelectionTrace


def _row_l2(tokens: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("...md,...md->...m", tokens, tokens))


# Token energies of a (B, M, D) stack, one score per sample.
INVARIANT_FNS = {
    "sum_l2": lambda t: stable_sum(_row_l2(t), axis=-1),
    "max_l2": lambda t: np.max(_row_l2(t), axis=-1),
    "sum_l1": lambda t: stable_sum(np.abs(t).sum(axis=-1), axis=-1),
}


@dataclass(frozen=True)
class TokenMatrix:
    """M tokens of dimension D laid out row-major over a circular grid.

    grid_shape is (M,) for rank-1 models or (Gh, Gw) for rank-2 ones;
    its product always equals the number of rows.  A batch of B token
    matrices on one grid holds a (B, M, D) stack.
    """

    data: np.ndarray
    grid_shape: tuple[int, ...]

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim not in (2, 3):
            raise ShapeError(f"token matrix must be (M, D) or (B, M, D), got ndim={arr.ndim}")
        require_finite(arr, "token matrix")
        grid = tuple(int(g) for g in self.grid_shape)
        if len(grid) not in (1, 2) or min(grid) < 1:
            raise ShapeError(f"bad token grid shape {grid}")
        if prod(grid) != arr.shape[-2]:
            raise ShapeError(f"grid {grid} does not hold {arr.shape[-2]} tokens")
        object.__setattr__(self, "data", freeze(arr))
        object.__setattr__(self, "grid_shape", grid)

    @classmethod
    def _fresh(cls, data: np.ndarray, grid_shape: tuple[int, ...]) -> TokenMatrix:
        """Wrap a float64 matrix an op just computed: frozen in place, unchecked."""
        data = np.ascontiguousarray(data)
        data.setflags(write=False)
        tokens = object.__new__(cls)
        vars(tokens).update(data=data, grid_shape=grid_shape)
        return tokens

    @property
    def count(self) -> int:
        return self.data.shape[-2]

    @property
    def dim(self) -> int:
        return self.data.shape[-1]

    @property
    def rank(self) -> int:
        return len(self.grid_shape)

    @property
    def batched(self) -> bool:
        return self.data.ndim == 3

    def grid(self) -> np.ndarray:
        """View of the tokens shaped (*grid_shape, D), or (B, *grid_shape, D)."""
        return self.data.reshape(*self.data.shape[:-2], *self.grid_shape, self.dim)

    def stack(self) -> np.ndarray:
        """The tokens as a (B, M, D) stack; one matrix is a stack of one."""
        return self.data if self.batched else self.data[np.newaxis]

    def shift(self, off) -> TokenMatrix:
        """Circularly rotate the token grid: out[k] = self[(k + off) mod G],
        the same offset for every sample of a batch."""
        index = grid_index(self.grid_shape, 1, 1, as_offset(off, self.rank))
        return TokenMatrix._fresh(self.data.take(index[:, 0], axis=-2), self.grid_shape)

    def like(self, stack: np.ndarray, grid_shape: tuple[int, ...]) -> TokenMatrix:
        """A (B, M', D') stack an op computed from these tokens, batched as they are."""
        return TokenMatrix._fresh(stack if self.batched else stack[0], grid_shape)


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
        if self.patch_len < 1:
            raise ParameterError(f"patch_len must be >= 1, got {self.patch_len}")
        object.__setattr__(self, "embed", weight_array(self.embed, "embed"))
        if self.invariant_fn not in INVARIANT_FNS:
            raise ParameterError(
                f"unknown invariant_fn {self.invariant_fn!r}, "
                f"choose from {sorted(INVARIANT_FNS)}"
            )

    @property
    def dim(self) -> int:
        return self.embed.shape[1]


def _token_grid(shape: tuple[int, ...], patch_len: int) -> tuple[int, ...]:
    for n in shape:
        if n % patch_len:
            raise ShapeError(f"axis length {n} is not divisible by patch_len {patch_len}")
    return tuple(n // patch_len for n in shape)


def _signal_stack(x, cfg: PatchEmbedConfig) -> tuple[np.ndarray, bool]:
    """(B, *grid, C) stack of one signal or a sequence of them, whether it was
    a batch; checks that the embed fits the patches."""
    batched = not isinstance(x, GridSignal)
    stack = stack_signals(x) if batched else x.data[np.newaxis]
    expect = cfg.patch_len ** (stack.ndim - 2) * stack.shape[-1]
    if cfg.embed.shape[0] != expect:
        raise ShapeError(
            f"embed expects rows of width {cfg.embed.shape[0]}, "
            f"patches have {expect} entries"
        )
    return stack, batched


def reshape_patches(x: GridSignal, patch_len: int, off=None) -> np.ndarray:
    """Patch matrix of the signal shifted by `off`, one patch per row.

    Each row flattens a patch row-major over (position, channel).  Rows
    enumerate patches row-major over the token grid.
    """
    grid = _token_grid(x.shape, patch_len)
    offs = (0,) * x.rank if off is None else as_offset(off, x.rank)
    if any(not 0 <= o < patch_len for o in offs):
        raise ParameterError(f"offset {offs} outside [0, {patch_len})")
    index = grid_index(x.shape, patch_len, patch_len, offs)
    return x.data.reshape(-1, x.channels).take(index, axis=0).reshape(prod(grid), -1)


def token(x, cfg: PatchEmbedConfig) -> TokenMatrix:
    """Fixed-grid tokenization: patches anchored at offset 0, projected.
    `x` is one signal or a sequence of them (a batch)."""
    stack, batched = _signal_stack(x, cfg)
    b, *shape, c = stack.shape
    grid = _token_grid(tuple(shape), cfg.patch_len)
    index = grid_index(tuple(shape), cfg.patch_len, cfg.patch_len, (0,) * len(shape))
    rows = stack.reshape(b, -1, c).take(index, axis=1).reshape(b, prod(grid), -1)
    tokens = project_rows(rows, cfg.embed)
    return TokenMatrix._fresh(tokens if batched else tokens[0], grid)


def _full_rate_embed(x, cfg: PatchEmbedConfig) -> np.ndarray:
    """Project the patch anchored at every grid position, shape (*grid, D),
    or (B, *grid, D) for a sequence of signals.

    All candidate offsets are strided slices of this one product, so the
    candidates seen for an input and for its shift are gathers of bitwise
    identical values.  One gather builds the patches, taps in row-major order.
    """
    stack, batched = _signal_stack(x, cfg)
    b, *shape, c = stack.shape
    index = grid_index(tuple(shape), cfg.patch_len, 1, (0,) * len(shape))
    patches = stack.reshape(b, -1, c).take(index, axis=1)
    full = project_rows(patches.reshape(b, len(index), -1), cfg.embed).reshape(b, *shape, cfg.dim)
    return full if batched else full[0]


def a_token(x, cfg: PatchEmbedConfig) -> tuple[TokenMatrix, SelectionTrace]:
    """Energy-aligned tokenization.

    Scores every circular patch offset with the configured invariant
    functional and tokenizes at the best one; exact score ties resolve to
    the lowest row-major offset and are flagged in the trace.  `x` is one
    signal, or a sequence of B signals for a (B, M, D) batch; the trace
    holds one offset per sample either way.
    """
    batched = not isinstance(x, GridSignal)
    full = _full_rate_embed(x, cfg)
    stack = full if batched else full[np.newaxis]
    grid = _token_grid(stack.shape[1:-1], cfg.patch_len)
    energy = INVARIANT_FNS[cfg.invariant_fn]
    offsets, sub, tied = best_phase(stack, cfg.patch_len, energy)
    tokens = TokenMatrix._fresh(sub if batched else sub[0], grid)
    return tokens, SelectionTrace.single(TOKEN, offsets, tied)


def lemma1_sides(x, cfg: PatchEmbedConfig, off, axis: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the unit-shift/tokenization interchange.

    Left: the once-shifted signal tokenized at patch offset `off`.  Right:
    the original tokenized at the cyclically advanced offset, with the token
    grid rotated by the carry along `axis`.  `x` is one signal and `off` its
    offset, giving two (M, D) sides, or a sequence of B signals and (B, rank)
    offsets, giving two (B, M, D) stacks.
    """
    stack, batched = _signal_stack(x, cfg)
    b, *shape, c = stack.shape
    shape = tuple(shape)
    _token_grid(shape, cfg.patch_len)
    if not 0 <= axis < len(shape):
        raise ParameterError(f"axis {axis} out of range for rank {len(shape)}")
    offs = [as_offset(o, len(shape)) for o in off] if batched else [as_offset(off, len(shape))]
    if len(offs) != b:
        raise ShapeError(f"{len(offs)} offsets for {b} signals")
    if any(not 0 <= o < cfg.patch_len for o in chain.from_iterable(offs)):
        raise ParameterError(f"offsets {offs} outside [0, {cfg.patch_len})")
    index = np.stack([_lemma1_index(shape, cfg.patch_len, o, axis) for o in offs], axis=1)
    index = index + prod(shape) * np.arange(b)[:, np.newaxis, np.newaxis]
    sides = stack.reshape(-1, c).take(index, axis=0).reshape(2, b, index.shape[2], -1)
    left, right = (project_rows(side, cfg.embed) for side in sides)
    return (left, right) if batched else (left[0], right[0])


@lru_cache(maxsize=1024)
def _lemma1_index(shape: tuple[int, ...], patch_len: int, off: Offset, axis: int) -> np.ndarray:
    """(2, M, L**rank) flat signal positions of the patch rows of both sides."""
    unit = tuple(1 if a == axis else 0 for a in range(len(shape)))
    left = grid_index(shape, patch_len, patch_len, tuple(o + u for o, u in zip(off, unit)))
    advanced = tuple((o + u) % patch_len for o, u in zip(off, unit))
    carry = tuple((o + u) // patch_len for o, u in zip(off, unit))
    rotation = grid_index(_token_grid(shape, patch_len), 1, 1, carry)
    right = grid_index(shape, patch_len, patch_len, advanced).take(rotation[:, 0], axis=0)
    index = np.stack([left, right])
    index.setflags(write=False)
    return index


def lemma1_oracle(x: GridSignal, cfg: PatchEmbedConfig, off, axis: int = 0) -> bool:
    """Exact interchange of a unit signal shift with offset tokenization:
    True when both `lemma1_sides` are bitwise equal."""
    left, right = lemma1_sides(x, cfg, off, axis)
    return bool(np.array_equal(left, right))
