"""Double-precision kernel for signals on circular grids.

Everything downstream reduces to a handful of operations defined here:
circular shifts, block tiling, polyphase selection, row-wise softmax,
order-stable sums and lp norms, and a deterministic argmax.  Each grid
operation is written once for any grid rank, and the selecting ones once for
a stack of samples (a leading batch axis, one selection per sample).  All
functions are pure; arrays held by the wrapper types are frozen so results
can be shared without defensive copies.  Finite values are checked once, at
the boundary (`GridSignal`, the weight classes).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import prod

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
    def _fresh(cls, data: np.ndarray) -> GridSignal:
        """Wrap a float64 array an op just computed from checked signals:
        frozen in place, unchecked."""
        data.setflags(write=False)
        signal = object.__new__(cls)
        vars(signal)["data"] = data
        return signal

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
    return GridSignal._fresh(rows.reshape(signal.data.shape))


def stack_signals(signals) -> np.ndarray:
    """(B, *grid, C) stack of one or more signals sharing grid and channels."""
    signals = list(signals)
    if not signals or len({x.data.shape for x in signals}) != 1:
        raise ShapeError("a batch needs one or more signals of one shape")
    return np.stack([x.data for x in signals])


@lru_cache(maxsize=1024)
def rotation_index(grid: tuple[int, ...], offset: Offset) -> np.ndarray:
    """Row-major index k -> (k + offset) mod grid; gathering by it rolls by -offset."""
    axes = [(np.arange(g) + o) % g for g, o in zip(grid, offset)]
    index = np.ravel_multi_index(np.ix_(*axes), grid).ravel()
    index.setflags(write=False)
    return index


def rotate_rows(stack: np.ndarray, grid: tuple[int, ...], offsets: np.ndarray) -> np.ndarray:
    """Per-sample rotation of a (B, prod(grid), C) stack: sample i gets
    out[k] = stack[i, (k + offsets[i]) mod grid], offsets of shape (B, rank)."""
    b, m, c = stack.shape
    index = [rotation_index(grid, tuple(o)) + i * m for i, o in enumerate(offsets.tolist())]
    return stack.reshape(b * m, c).take(np.concatenate(index), axis=0).reshape(b, m, c)


def scatter_phases(
    stack: np.ndarray, grid: tuple[int, ...], b: int, offsets: np.ndarray
) -> np.ndarray:
    """Inverse of a per-sample polyphase selection followed by a rotation:
    (B, prod(grid) // b**rank, C) rows land at (offsets[i] + b * position)
    mod grid on a zero-filled (B, *grid, C) stack.  An offset below b is the
    phase the rows were selected at."""
    n = len(stack)
    index = np.array([_scatter_index(grid, b, tuple(o)) for o in offsets.tolist()])
    out = np.zeros((n, prod(grid), stack.shape[-1]))
    out[np.arange(n)[:, np.newaxis], index] = stack
    return out.reshape(n, *grid, -1)


@lru_cache(maxsize=1024)
def _scatter_index(grid: tuple[int, ...], b: int, offset: Offset) -> np.ndarray:
    """Flat index of the positions (offset + b * i) mod grid, i row-major over
    the coarse grid."""
    coarse = np.indices(tuple(g // b for g in grid)).reshape(len(grid), -1)
    index = rotation_index(grid, offset)[np.ravel_multi_index(tuple(b * coarse), grid)]
    index.setflags(write=False)
    return index


def blocks(arr: np.ndarray, b: int, lead: int = 0) -> np.ndarray:
    """Tile (*lead, *grid, C) into (*lead, blocks, b**rank, C): non-overlapping
    b-blocks row-major over the grid, positions row-major within each block.

    A pure reshape and transpose; every grid axis must be divisible by `b`.
    The first `lead` axes (a batch) pass through.
    """
    outer, c = arr.shape[:lead], arr.shape[-1]
    split, order, _ = _tiling(arr.shape[lead:-1], b, lead)
    tiled = arr.reshape(*outer, *split, c).transpose(order)
    return tiled.reshape(*outer, -1, b ** (len(split) // 2), c)


def unblocks(stack: np.ndarray, grid: tuple[int, ...], b: int) -> np.ndarray:
    """Inverse of `blocks`: (*lead, blocks, b**rank, C) back to (*lead, *grid, C)."""
    outer, c = stack.shape[:-3], stack.shape[-1]
    split, _, inverse = _tiling(tuple(grid), b, len(outer))
    tiled = stack.reshape(*outer, *split[::2], *split[1::2], c).transpose(inverse)
    return tiled.reshape(*outer, *grid, c)


@lru_cache(maxsize=256)
def _tiling(grid: tuple[int, ...], b: int, lead: int) -> tuple[tuple[int, ...], ...]:
    """Each grid axis split into (blocks, b), the transpose that moves every
    block axis before every in-block axis (`lead` batch axes first, channels
    last), and its inverse.  Cached: building these tuples costs more than the
    reshapes they drive."""
    rank = len(grid)
    split = tuple(n for g in grid for n in (g // b, b))
    axes = (*range(0, 2 * rank, 2), *range(1, 2 * rank, 2))
    inverse = (*(a for axis in range(rank) for a in (axis, rank + axis)),)
    return (
        split,
        (*range(lead), *(lead + a for a in axes), lead + 2 * rank),
        (*range(lead), *(lead + a for a in inverse), lead + 2 * rank),
    )


@lru_cache(maxsize=64)
def _phases(b: int, rank: int) -> np.ndarray:
    table = np.array(list(product(range(b), repeat=rank)), dtype=np.int64).reshape(-1, rank)
    table.setflags(write=False)
    return table


def best_phase(
    stack: np.ndarray, b: int, rank: int, score
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Polyphase selection, one per sample of a (B, *grid, C) stack.

    The stride-`b` components of the `rank` grid axes, phases in row-major
    order, are laid out as one (B * phases, positions, C) stack; `score` maps
    it to one score per component.  Returns (phases (B, rank), components
    (B, positions, C), tied (B,)): exact ties resolve to the lowest phase and
    are flagged.
    """
    n, c = len(stack), stack.shape[-1]
    comps = blocks(stack, b, lead=1).swapaxes(1, 2)
    phases = comps.shape[1]
    comps = comps.reshape(n * phases, -1, c)
    idx, tied = argmax_rows(score(comps).reshape(n, phases))
    return _phases(b, rank)[idx], comps.take(idx + phases * np.arange(n), axis=0), tied


def softmax_rows(matrix: np.ndarray) -> np.ndarray:
    """Softmax over the last axis (ndim >= 2) with max subtraction for overflow safety."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim < 2:
        raise ShapeError(f"softmax_rows expects ndim >= 2, got ndim={m.ndim}")
    shifted = m - m.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def stable_sum(values, axis: int | None = None):
    """Sum of all entries (a float), or per row along the last axis (axis=-1),
    accumulated in sorted order.

    Sorting first makes the sum bit-identical for any permutation of the
    values; grid rotations permute candidates, so selection scores must
    agree exactly across an input shift.  Each row of a stack gets the bits
    of that row summed alone: rows are made contiguous first, since NumPy
    sums pairwise only along a contiguous axis.
    """
    if axis is None:
        return float(np.sum(np.sort(values, axis=None)))
    if axis != -1:
        raise ParameterError(f"stable_sum reduces all entries or the last axis, not {axis}")
    return np.sum(np.sort(np.ascontiguousarray(values), axis=-1), axis=-1)


def lp_norm(values, p: float, axis: int | None = None):
    """lp norm (sum_i |v_i|^p)^(1/p) over all entries of `values` (a float),
    or along `axis`.

    The powers are summed by `stable_sum`, so the result is bit-identical
    for any permutation of the input.  Adaptive selections compare these
    norms across rotated views and rely on that exactness.
    """
    if p < 1:
        raise ParameterError(f"lp_norm requires p >= 1, got {p}")
    mags = np.abs(np.asarray(values, dtype=np.float64))
    if mags.size == 0:
        raise ShapeError("lp_norm of an empty array")
    total = stable_sum(mags**p, axis)
    if axis is None:
        return total ** (1.0 / p)
    # Each root is a Python float power, as for one norm: the array power has
    # fast paths of its own (sqrt for 1/2) that may round differently.
    return np.array([t ** (1.0 / p) for t in total.ravel().tolist()]).reshape(total.shape)


def max_abs_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per sample of two (B, ...) stacks, the largest absolute difference."""
    return np.max(np.abs(a - b).reshape(len(a), -1), axis=-1)


def project_rows(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Row-wise projection rows @ matrix with a fixed contraction order.

    Plain einsum reduces every output element over k in the same order no
    matter where the row sits, so permuting rows of the input permutes rows
    of the output bit-for-bit.  BLAS matmul does not guarantee that (edge
    rows can take a different microkernel), and the adaptive ops compare
    projected rows across rotated views exactly.

    A (B, M, K) stack of rows takes one (K, D) matrix for every sample, or a
    (B, K, D) stack with one matrix per sample; each sample gets the bits of
    its own (M, K) call.
    """
    r = np.asarray(rows, dtype=np.float64)
    m = np.asarray(matrix, dtype=np.float64)
    if r.ndim == m.ndim == 2 and r.shape[1] == m.shape[0]:
        return np.einsum("mk,kd->md", r, m)
    stacked = m.ndim == 3 and len(m) == len(r)
    if r.ndim != 3 or not (m.ndim == 2 or stacked) or r.shape[2] != m.shape[-2]:
        raise ShapeError(f"cannot project rows of shape {r.shape} with a {m.shape} matrix")
    if stacked:
        return np.einsum("bmk,bkd->bmd", r, m)
    return np.einsum("mk,kd->md", r.reshape(-1, r.shape[2]), m).reshape(*r.shape[:2], -1)


def argmax_tiebreak(scores) -> int:
    """Index of the maximum entry; exact ties resolve to the lowest index."""
    arr = np.asarray(scores, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ParameterError("argmax of an empty score list")
    return int(np.argmax(arr))


def argmax_with_tie(scores) -> tuple[int, bool]:
    """argmax_tiebreak plus a flag for exact ties among distinct entries."""
    arr = np.asarray(scores, dtype=np.float64).ravel()
    argmax_tiebreak(arr)  # rejects an empty list
    idx, tied = argmax_rows(arr[np.newaxis])
    return int(idx[0]), bool(tied[0])


def argmax_rows(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of (B, n) scores: the argmax (lowest index on exact ties) and
    whether another entry ties it exactly."""
    # The maximum equals the entry at the argmax, or both are NaN and nothing ties.
    ties = np.add.reduce(scores == np.maximum.reduce(scores, axis=-1, keepdims=True), axis=-1)
    return scores.argmax(axis=-1), ties > 1
