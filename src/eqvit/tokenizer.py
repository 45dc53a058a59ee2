"""Patch tokenization, fixed-grid and energy-aligned.

A signal of length N is cut into non-overlapping patches of length L
(rank 2: L x L tiles) and each patch is projected to a D-dimensional token.
The fixed grid anchored at 0 is not shift-equivariant; the adaptive variant
re-anchors the grid at whichever of the L (or L x L) circular offsets
maximizes a shift-invariant energy functional, which restores equivariance
up to a token-grid rotation.  A caller's `TokenMatrix` is validated; the ops'
own results skip that (`TokenMatrix._fresh`) and the encoder checks its output.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

import numpy as np

from .errors import ParameterError, ShapeError
from .numerics import (
    GridSignal,
    Offset,
    as_offset,
    best_phase,
    blocks,
    circular_shift,
    freeze,
    project_rows,
    require_finite,
    rotation_index,
    stable_sum,
)
from .trace import TOKEN, SelectionTrace


def _row_l2(tokens: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("md,md->m", tokens, tokens))


INVARIANT_FNS = {
    "sum_l2": lambda t: stable_sum(_row_l2(t)),
    "max_l2": lambda t: float(np.max(_row_l2(t))),
    "sum_l1": lambda t: stable_sum(np.abs(t).sum(axis=1)),
}


@dataclass(frozen=True)
class TokenMatrix:
    """M tokens of dimension D laid out row-major over a circular grid.

    grid_shape is (M,) for rank-1 models or (Gh, Gw) for rank-2 ones;
    its product always equals the number of rows.
    """

    data: np.ndarray
    grid_shape: tuple[int, ...]

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"token matrix must be rank 2, got ndim={arr.ndim}")
        require_finite(arr, "token matrix")
        grid = tuple(int(g) for g in self.grid_shape)
        if len(grid) not in (1, 2) or min(grid) < 1:
            raise ShapeError(f"bad token grid shape {grid}")
        if prod(grid) != arr.shape[0]:
            raise ShapeError(f"grid {grid} does not hold {arr.shape[0]} tokens")
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
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    @property
    def rank(self) -> int:
        return len(self.grid_shape)

    def grid(self) -> np.ndarray:
        """View of the tokens shaped (*grid_shape, D)."""
        return self.data.reshape(*self.grid_shape, self.dim)

    def shift(self, off) -> TokenMatrix:
        """Circularly rotate the token grid: out[k] = self[(k + off) mod G]."""
        index = rotation_index(self.grid_shape, as_offset(off, self.rank))
        return TokenMatrix._fresh(self.data.take(index, axis=0), self.grid_shape)


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
        arr = np.asarray(self.embed, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError("embed must be a matrix")
        require_finite(arr, "embed")
        if self.invariant_fn not in INVARIANT_FNS:
            raise ParameterError(
                f"unknown invariant_fn {self.invariant_fn!r}, "
                f"choose from {sorted(INVARIANT_FNS)}"
            )
        object.__setattr__(self, "embed", freeze(arr))

    @property
    def dim(self) -> int:
        return self.embed.shape[1]


def token_grid_shape(x: GridSignal, patch_len: int) -> tuple[int, ...]:
    for n in x.shape:
        if n % patch_len:
            raise ShapeError(f"axis length {n} is not divisible by patch_len {patch_len}")
    return tuple(n // patch_len for n in x.shape)


def _check_embed(x: GridSignal, cfg: PatchEmbedConfig) -> None:
    expect = cfg.patch_len**x.rank * x.channels
    if cfg.embed.shape[0] != expect:
        raise ShapeError(
            f"embed expects rows of width {cfg.embed.shape[0]}, "
            f"patches have {expect} entries"
        )


def reshape_patches(x: GridSignal, patch_len: int, off=None) -> np.ndarray:
    """Patch matrix of the signal shifted by `off`, one patch per row.

    Each row flattens a patch row-major over (position, channel).  Rows
    enumerate patches row-major over the token grid.
    """
    grid = token_grid_shape(x, patch_len)
    offs = (0,) * x.rank if off is None else as_offset(off, x.rank)
    if any(not 0 <= o < patch_len for o in offs):
        raise ParameterError(f"offset {offs} outside [0, {patch_len})")
    return blocks(circular_shift(x, offs).data, patch_len).reshape(prod(grid), -1)


def token(x: GridSignal, cfg: PatchEmbedConfig) -> TokenMatrix:
    """Fixed-grid tokenization: patches anchored at offset 0, projected."""
    _check_embed(x, cfg)
    rows = reshape_patches(x, cfg.patch_len)
    return TokenMatrix._fresh(project_rows(rows, cfg.embed), token_grid_shape(x, cfg.patch_len))


def _full_rate_embed(x: GridSignal, cfg: PatchEmbedConfig) -> np.ndarray:
    """Project the patch anchored at every grid position, shape (*grid, D).

    All candidate offsets are strided slices of this one product, so the
    candidates seen for an input and for its shift are gathers of bitwise
    identical values.  One gather builds the patches, taps in row-major order.
    """
    taps = product(range(cfg.patch_len), repeat=x.rank)
    index = np.stack([rotation_index(x.shape, delta) for delta in taps], axis=1)
    patches = x.data.reshape(-1, x.channels).take(index, axis=0)
    return project_rows(patches.reshape(len(index), -1), cfg.embed).reshape(*x.shape, cfg.dim)


def a_token(x: GridSignal, cfg: PatchEmbedConfig) -> tuple[TokenMatrix, SelectionTrace]:
    """Energy-aligned tokenization.

    Scores every circular patch offset with the configured invariant
    functional and tokenizes at the best one; exact score ties resolve to
    the lowest row-major offset and are flagged in the trace.
    """
    _check_embed(x, cfg)
    grid = token_grid_shape(x, cfg.patch_len)
    energy = INVARIANT_FNS[cfg.invariant_fn]
    offset, sub, tied = best_phase(
        _full_rate_embed(x, cfg), cfg.patch_len, x.rank, lambda s: energy(s.reshape(-1, cfg.dim))
    )
    tokens = TokenMatrix._fresh(sub.reshape(-1, cfg.dim), grid)
    return tokens, SelectionTrace.single(TOKEN, offset, tied)


def lemma1_sides(
    x: GridSignal, cfg: PatchEmbedConfig, off, axis: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the unit-shift/tokenization interchange.

    Left: the once-shifted signal tokenized at patch offset `off`.  Right:
    the original tokenized at the cyclically advanced offset, with the token
    grid rotated by the carry along `axis`.
    """
    _check_embed(x, cfg)
    if not 0 <= axis < x.rank:
        raise ParameterError(f"axis {axis} out of range for rank {x.rank}")
    offs = as_offset(off, x.rank)
    unit = tuple(1 if a == axis else 0 for a in range(x.rank))
    shifted = circular_shift(x, unit)
    left = project_rows(reshape_patches(shifted, cfg.patch_len, offs), cfg.embed)

    advanced = tuple(
        (o + 1) % cfg.patch_len if a == axis else o for a, o in enumerate(offs)
    )
    carry: Offset = tuple(
        (offs[a] + 1) // cfg.patch_len if a == axis else 0 for a in range(x.rank)
    )
    right = project_rows(reshape_patches(x, cfg.patch_len, advanced), cfg.embed)
    grid = token_grid_shape(x, cfg.patch_len)
    return left, TokenMatrix(right, grid).shift(carry).data


def lemma1_oracle(x: GridSignal, cfg: PatchEmbedConfig, off, axis: int = 0) -> bool:
    """Exact interchange of a unit signal shift with offset tokenization:
    True when both `lemma1_sides` are bitwise equal."""
    left, right = lemma1_sides(x, cfg, off, axis)
    return bool(np.array_equal(left, right))
