"""Double-precision kernel for signals on circular grids.

Everything downstream reduces to a handful of operations defined here:
circular shifts, block tiling, polyphase selection, row-wise softmax,
order-stable sums and lp norms, and a deterministic argmax.  Each grid
operation is written once for any grid rank.  All functions are pure; arrays
held by the wrapper types are frozen so results can be shared without
defensive copies.  Finite values are checked once, at the boundary
(`GridSignal`, the weight classes).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import ParameterError, ShapeError

# Per-axis integer offsets for circular shifts.
Offset = tuple[int, ...]


def freeze(values, dtype=np.float64) -> np.ndarray:
    """Copy `values` into a read-only float64 array."""
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def require_finite(arr: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{name} must contain only finite entries")


def as_offset(off, rank: int) -> Offset:
    """Normalize an offset into a tuple with one integer per grid axis.

    A bare int is accepted for rank-1 grids only; higher ranks must spell
    out every axis.
    """
    if isinstance(off, (int, np.integer)):
        if rank != 1:
            raise ShapeError(f"scalar offset given for a rank-{rank} grid")
        return (int(off),)
    offs = tuple(int(o) for o in off)
    if len(offs) != rank:
        raise ShapeError(f"offset has {len(offs)} axes, grid has {rank}")
    return offs


@dataclass(frozen=True)
class GridSignal:
    """A rank-1 or rank-2 multi-channel signal with circular indexing.

    `data` has shape (*grid, channels) in row-major order.  Rank-1 signals
    of length N with C channels are (N, C); rank-2 are (H, W, C).
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim not in (2, 3):
            raise ShapeError(
                f"expected (*grid, channels) with grid rank 1 or 2, got ndim={arr.ndim}"
            )
        if min(arr.shape) < 1:
            raise ShapeError("every axis must have length >= 1")
        require_finite(arr, "signal")
        object.__setattr__(self, "data", freeze(arr))

    @classmethod
    def from_values(cls, values) -> GridSignal:
        """Wrap a plain rank-1 or rank-2 array as a single-channel signal."""
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim not in (1, 2):
            raise ShapeError(f"expected a rank-1 or rank-2 array, got ndim={arr.ndim}")
        return cls(arr[..., np.newaxis])

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape[:-1]

    @property
    def rank(self) -> int:
        return self.data.ndim - 1

    @property
    def channels(self) -> int:
        return self.data.shape[-1]


def circular_shift(signal: GridSignal, off) -> GridSignal:
    """Rotate grid indices: out[n] = signal[(n + off) mod shape], per axis."""
    index = rotation_index(signal.shape, as_offset(off, signal.rank))
    rows = signal.data.reshape(-1, signal.channels).take(index, axis=0)
    return GridSignal(rows.reshape(signal.data.shape))


@lru_cache(maxsize=1024)
def rotation_index(grid: tuple[int, ...], offset: Offset) -> np.ndarray:
    """Row-major index k -> (k + offset) mod grid; gathering by it rolls by -offset."""
    axes = [(np.arange(g) + o) % g for g, o in zip(grid, offset)]
    index = np.ravel_multi_index(np.ix_(*axes), grid).ravel()
    index.setflags(write=False)
    return index


def blocks(arr: np.ndarray, b: int) -> np.ndarray:
    """Tile (*grid, C) into (blocks, b**rank, C): non-overlapping b-blocks
    row-major over the grid, positions row-major within each block.

    A pure reshape and transpose; every grid axis must be divisible by `b`.
    """
    split, order, _ = _tiling(arr.shape[:-1], b)
    c = arr.shape[-1]
    return arr.reshape(*split, c).transpose(order).reshape(-1, b ** (len(split) // 2), c)


def unblocks(stack: np.ndarray, grid: tuple[int, ...], b: int) -> np.ndarray:
    """Inverse of `blocks`: (blocks, b**rank, C) back to (*grid, C)."""
    split, _, inverse = _tiling(tuple(grid), b)
    c = stack.shape[-1]
    return stack.reshape(*split[::2], *split[1::2], c).transpose(inverse).reshape(*grid, c)


@lru_cache(maxsize=256)
def _tiling(grid: tuple[int, ...], b: int) -> tuple[tuple[int, ...], ...]:
    """Each grid axis split into (blocks, b), the transpose that moves every
    block axis before every in-block axis (channels last), and its inverse.
    Cached: building these tuples costs more than the reshapes they drive."""
    rank = len(grid)
    split = tuple(n for g in grid for n in (g // b, b))
    order = (*range(0, 2 * rank, 2), *range(1, 2 * rank, 2), 2 * rank)
    inverse = (*(a for axis in range(rank) for a in (axis, rank + axis)), 2 * rank)
    return split, order, inverse


def best_phase(grid: np.ndarray, b: int, rank: int, score) -> tuple[Offset, np.ndarray, bool]:
    """Polyphase selection: the stride-`b` component with the highest score.

    Components are the strided subgrids of the leading `rank` axes at each
    phase in row-major order, scored by `score`; returns (phase, component,
    tied).  Exact ties resolve to the lowest phase and are flagged.
    """
    phases = list(product(range(b), repeat=rank))
    comps = [grid[tuple(slice(k, None, b) for k in phase)] for phase in phases]
    idx, tied = argmax_with_tie([score(comp) for comp in comps])
    return phases[idx], comps[idx], tied


def softmax_rows(matrix: np.ndarray) -> np.ndarray:
    """Softmax over the last axis (ndim >= 2) with max subtraction for overflow safety."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim < 2:
        raise ShapeError(f"softmax_rows expects ndim >= 2, got ndim={m.ndim}")
    shifted = m - m.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def stable_sum(values) -> float:
    """Sum of all entries, accumulated in sorted order.

    Sorting first makes the sum bit-identical for any permutation of the
    values; grid rotations permute candidates, so selection scores must
    agree exactly across an input shift.
    """
    return float(np.sum(np.sort(values, axis=None)))


def lp_norm(values, p: float) -> float:
    """lp norm (sum_i |v_i|^p)^(1/p) over all entries of `values`.

    The powers are summed by `stable_sum`, so the result is bit-identical
    for any permutation of the input.  Adaptive selections compare these
    norms across rotated views and rely on that exactness.
    """
    if p < 1:
        raise ParameterError(f"lp_norm requires p >= 1, got {p}")
    mags = np.abs(np.asarray(values, dtype=np.float64))
    if mags.size == 0:
        raise ShapeError("lp_norm of an empty array")
    return stable_sum(mags**p) ** (1.0 / p)


def project_rows(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Row-wise projection rows @ matrix with a fixed contraction order.

    Plain einsum reduces every output element over k in the same order no
    matter where the row sits, so permuting rows of the input permutes rows
    of the output bit-for-bit.  BLAS matmul does not guarantee that (edge
    rows can take a different microkernel), and the adaptive ops compare
    projected rows across rotated views exactly.
    """
    r = np.asarray(rows, dtype=np.float64)
    m = np.asarray(matrix, dtype=np.float64)
    if r.ndim != 2 or m.ndim != 2:
        raise ShapeError("project_rows expects two matrices")
    if r.shape[1] != m.shape[0]:
        raise ShapeError(f"cannot project rows of width {r.shape[1]} with a {m.shape} matrix")
    return np.einsum("mk,kd->md", r, m)


def argmax_tiebreak(scores) -> int:
    """Index of the maximum entry; exact ties resolve to the lowest index."""
    arr = np.asarray(scores, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ParameterError("argmax of an empty score list")
    return int(np.argmax(arr))


def argmax_with_tie(scores) -> tuple[int, bool]:
    """argmax_tiebreak plus a flag for exact ties among distinct entries."""
    arr = np.asarray(scores, dtype=np.float64).ravel()
    idx = argmax_tiebreak(arr)
    tied = int(np.count_nonzero(arr == arr[idx])) > 1
    return idx, tied
