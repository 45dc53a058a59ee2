"""Double-precision kernel for signals on circular grids.

Everything downstream reduces to a handful of operations defined here:
one cached grid index behind every rotation, tiling, filter-tap and
polyphase layout, polyphase selection, row-wise softmax, order-stable sums
and lp norms, and a deterministic argmax.  Each grid operation is written
once for any grid rank, and the selecting ones once for a stack of samples
(a leading batch axis, one selection per sample).  All functions are pure;
arrays held by the wrapper types are frozen so results can be shared
without defensive copies.  Finite values are checked once, at the boundary
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


def weight_array(values, name: str, ndims: tuple[int, ...] = (2,)) -> np.ndarray:
    """`values` as a frozen float64 weight array: a matrix (or any rank in
    `ndims`), no axis of length 0, every entry finite."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim not in ndims or 0 in arr.shape:
        ranks = " or ".join(map(str, ndims))
        raise ShapeError(f"{name} must be a non-empty array of rank {ranks}, got shape {arr.shape}")
    require_finite(arr, name)
    return freeze(arr)


def require_norm_order(p, name: str = "energy_p") -> None:
    """An lp norm order is a finite number >= 1; NaN and inf are not."""
    if not 1 <= p < np.inf:
        raise ParameterError(f"{name} must be a finite number >= 1, got {p}")


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
    index = grid_index(signal.shape, 1, 1, as_offset(off, signal.rank))
    rows = signal.data.reshape(-1, signal.channels).take(index, axis=0)
    return GridSignal._fresh(rows.reshape(signal.data.shape))


def stack_signals(signals) -> np.ndarray:
    """(B, *grid, C) stack of one or more signals sharing grid and channels."""
    signals = list(signals)
    if not signals or len({x.data.shape for x in signals}) != 1:
        raise ShapeError("a batch needs one or more signals of one shape")
    return np.stack([x.data for x in signals])


@lru_cache(maxsize=1024)
def grid_index(
    grid: tuple[int, ...], width: int, stride: int, offset: Offset, taps_first: bool = False
) -> np.ndarray:
    """Read-only (prod(grid) // stride**rank, width**rank) index of row-major
    grid positions: entry (j, t) is (offset + stride * j + t) mod grid per
    axis, j row-major over the coarse grid and t over range(width)**rank.

    Every layout the package moves values through is one gather by it:
    width 1 and stride 1 rotate (gathering rolls by -offset); width b and
    stride b tile into patches, merge groups or windows; width b and stride 1
    lay out the taps of a b-wide circular filter at every position; stride b
    and width 1 or b give stride-b polyphase components, or where a scatter
    puts them.  `taps_first` gives the (taps, positions) transpose,
    contiguous, for gathers that reduce or loop over the taps.
    """
    rank, index = len(grid), 0
    for a, (g, o) in enumerate(zip(grid, offset)):
        # Position j lies on axis a, tap t on axis rank + a; values are row-major.
        shape = [1] * (2 * rank)
        shape[a], shape[rank + a] = g // stride, width
        coords = (o + stride * np.arange(g // stride)[:, np.newaxis] + np.arange(width)) % g
        index = index * g + coords.reshape(shape)
    index = index.reshape(-1, width**rank)
    index = np.ascontiguousarray(index.T if taps_first else index)
    index.setflags(write=False)
    return index


def rotate_rows(stack: np.ndarray, grid: tuple[int, ...], offsets: np.ndarray) -> np.ndarray:
    """Per-sample rotation of a (B, prod(grid), C) stack: sample i gets
    out[k] = stack[i, (k + offsets[i]) mod grid], offsets of shape (B, rank)."""
    b, m, c = stack.shape
    index = [grid_index(grid, 1, 1, tuple(o)) + i * m for i, o in enumerate(offsets.tolist())]
    return stack.reshape(b * m, c).take(np.concatenate(index), axis=0).reshape(b, m, c)


def scatter_index(grid: tuple[int, ...], b: int, offsets: np.ndarray) -> np.ndarray:
    """(B, prod(grid) // b**rank) flat positions (offsets[i] + b * position)
    mod grid, positions row-major over the coarse grid: where the inverse of
    sample i's polyphase selection followed by a rotation puts each row.  An
    offset below b is the phase the rows were selected at."""
    return np.concatenate([grid_index(grid, 1, b, tuple(o)).T for o in offsets.tolist()])


def scatter_rows(stack: np.ndarray, rows: int, index: np.ndarray) -> np.ndarray:
    """Zero-filled (B, rows, C) stack with the rows of sample i of the
    (B, M, C) `stack` at positions index[i]."""
    n = len(stack)
    out = np.zeros((n, rows, stack.shape[-1]))
    out[np.arange(n)[:, np.newaxis], index] = stack
    return out


@lru_cache(maxsize=64)
def _phases(b: int, rank: int) -> np.ndarray:
    table = np.array(list(product(range(b), repeat=rank)), dtype=np.int64).reshape(-1, rank)
    table.setflags(write=False)
    return table


def best_phase(stack: np.ndarray, b: int, score) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Polyphase selection, one per sample of a (B, *grid, C) stack.

    The stride-`b` components of every grid axis, phases in row-major
    order, are gathered into one (B * phases, positions, C) stack; `score`
    maps it to one score per component.  Returns (phases (B, rank),
    components (B, positions, C), tied (B,)): exact ties resolve to the
    lowest phase and are flagged.
    """
    n, grid, c = len(stack), stack.shape[1:-1], stack.shape[-1]
    index = grid_index(grid, b, b, (0,) * len(grid), taps_first=True)
    phases = len(index)
    comps = stack.reshape(n, -1, c).take(index, axis=1).reshape(n * phases, -1, c)
    idx, tied = argmax_rows(score(comps).reshape(n, phases))
    return _phases(b, len(grid))[idx], comps.take(idx + phases * np.arange(n), axis=0), tied


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
    require_norm_order(p, "lp_norm order p")
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


def argmax_rows(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of (B, n) scores: the argmax (lowest index on exact ties) and
    whether another entry ties it exactly."""
    # The maximum equals the entry at the argmax, or both are NaN and nothing ties.
    ties = np.add.reduce(scores == np.maximum.reduce(scores, axis=-1, keepdims=True), axis=-1)
    return scores.argmax(axis=-1), ties > 1
