"""Double-precision kernel for signals on circular grids.

Everything downstream reduces to a handful of operations defined here:
one cached grid index behind every rotation, tiling, filter-tap and
polyphase layout, polyphase selection, row-wise softmax, order-stable sums
and lp norms, and a deterministic argmax.  Each grid operation is written
once for any grid rank, and the selecting ones once for a stack of samples
(a leading sample axis, one selection per sample): one signal is the stack
of one.  All functions are pure; arrays held by the wrapper types are frozen
so results can be shared without defensive copies.  Values are converted
and checked once, at the boundary (`GridSignal`, `SignalBatch`, the weight
classes), by `real_array` and `require_finite`; offsets by `as_offsets`; and
the scalar fields of every config class by one vocabulary of rules, each
(check, the words of what it requires), applied by `check_value`.
"""

from __future__ import annotations

import math
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


# The rule vocabulary of every class that takes outside scalars.  A check is a
# predicate; a rule is (check, the words of what it requires), for `check_value`.
def is_int(value) -> bool:
    """A Python or NumPy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """An int or a float, not a bool, and finite; an int too large for a float is not."""
    try:
        return (is_int(value) or isinstance(value, float)) and math.isfinite(value)
    except OverflowError:
        return False


def int_in(low: int, high: float = math.inf):
    return lambda v: is_int(v) and low <= v <= high


def ints_in(low: int):
    """A tuple of integers >= low."""
    return lambda v: isinstance(v, tuple) and all(map(int_in(low), v))


positive_ints = ints_in(1)


def one_of(*names: str):
    return lambda v: isinstance(v, str) and v in names, f"one of {names}"


def names_from(*names: str):
    """A tuple of names, each one of `names`."""
    return lambda v: isinstance(v, tuple) and all(map(one_of(*names)[0], v)), f"names from {names}"


POSITIVE = (int_in(1), "an integer >= 1")
NORM_ORDER = (lambda v: is_finite_number(v) and v >= 1, "a finite number >= 1")
FINITE = (is_finite_number, "finite")
GRID_SHAPE = (lambda v: positive_ints(v) and len(v) in (1, 2), "1 or 2 integers >= 1")


def check_value(name: str, value, rule, error=ParameterError) -> None:
    """Raise `error` unless `value` meets `rule`, a (check, what it requires) pair."""
    ok, want = rule
    if not ok(value):
        raise error(f"{name} must be {want}, got {value!r}")


def real_array(values, name: str) -> np.ndarray:
    """`values` as a float64 array.  Ragged nesting, and values that are not
    real numbers (booleans, strings, complex numbers, objects), raise ShapeError."""
    try:
        arr = np.asarray(values)
    except (ValueError, TypeError) as err:
        raise ShapeError(f"{name} must be numbers of one shape: {err}") from err
    if arr.dtype.kind not in "iuf":
        raise ShapeError(f"{name} must hold real numbers, got dtype {arr.dtype}")
    return arr.astype(np.float64, copy=False)


def require_finite(arr: np.ndarray, name: str) -> None:
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise ParameterError(f"{name} must contain only finite entries")


def weight_array(values, name: str, ndims: tuple[int, ...] = (2,)) -> np.ndarray:
    """`values` as a frozen float64 weight array: a matrix (or any rank in
    `ndims`), no axis of length 0, every entry finite."""
    arr = real_array(values, name)
    if arr.ndim not in ndims or 0 in arr.shape:
        ranks = " or ".join(map(str, ndims))
        raise ShapeError(f"{name} must be a non-empty array of rank {ranks}, got shape {arr.shape}")
    require_finite(arr, name)
    return freeze(arr)


def require_norm_order(p, name: str = "energy_p") -> None:
    """An lp norm order is a finite number >= 1; NaN and inf are not."""
    if not 1 <= p < np.inf:
        raise ParameterError(f"{name} must be a finite number >= 1, got {p}")


def coarse_grid(grid, stride: int, name: str) -> tuple[int, ...]:
    """The grid a stride-`stride` subsample of `grid` leaves; `name` names the stride."""
    coarse = []
    for g in grid:
        if g % stride:
            raise ShapeError(f"grid axis {g} is not divisible by {name} {stride}")
        coarse.append(g // stride)
    return tuple(coarse)


def as_offsets(offs, rank: int) -> np.ndarray:
    """(B, rank) int64 array of a sequence of B offsets, each a bare int
    (rank-1 grids only) or one integer per grid axis.  Only an integer dtype
    that fits int64 is taken: floats, booleans and larger integers are not."""
    try:
        arr = np.asarray(offs)
    except (ValueError, TypeError, OverflowError) as err:
        raise ShapeError(f"offsets must be integers of one depth: {err}") from err
    if arr.dtype.kind not in "iu" or not np.can_cast(arr.dtype, np.int64):
        raise ShapeError(f"offsets must be integers of one depth, got dtype {arr.dtype}")
    arr = arr.astype(np.int64, copy=False)
    if arr.ndim == 1 and rank != 1:
        raise ShapeError(f"scalar offset given for a rank-{rank} grid")
    arr = arr[:, np.newaxis] if arr.ndim == 1 else arr
    if arr.ndim != 2 or arr.shape[1] != rank:
        raise ShapeError(f"offsets of shape {arr.shape} for a rank-{rank} grid")
    return arr


@dataclass(frozen=True)
class GridSignal:
    """A rank-1 or rank-2 multi-channel signal with circular indexing.

    `data` has shape (*grid, channels) in row-major order.  Rank-1 signals
    of length N with C channels are (N, C); rank-2 are (H, W, C).
    """

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _signal_data(self.data, 0))

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
        arr = real_array(values, "signal")
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


def _signal_data(values, lead: int) -> np.ndarray:
    """`values` as frozen float64 signal data, (*grid, channels) with grid
    rank 1 or 2 after `lead` leading axes, every axis non-empty, every entry finite."""
    arr = real_array(values, "signal")
    if arr.ndim - lead not in (2, 3):
        lead_axes = "B, " * lead
        raise ShapeError(
            f"expected ({lead_axes}*grid, channels) with grid rank 1 or 2, got ndim={arr.ndim}"
        )
    if min(arr.shape) < 1:
        raise ShapeError("every axis must have length >= 1")
    require_finite(arr, "signal")
    return freeze(arr)


@dataclass(frozen=True)
class SignalBatch:
    """B signals of one shape as a (B, *grid, channels) stack, checked once
    as a whole.  Every op that takes a `GridSignal` (a batch of one) takes
    it too, and returns one result per sample."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _signal_data(self.data, 1))

    @classmethod
    def _fresh(cls, data: np.ndarray) -> SignalBatch:
        """Wrap a float64 stack computed from checked signals: frozen in place, unchecked."""
        data.setflags(write=False)
        batch = object.__new__(cls)
        vars(batch)["data"] = data
        return batch


def circular_shift(signal: GridSignal, off) -> GridSignal:
    """Rotate grid indices: out[n] = signal[(n + off) mod shape], per axis."""
    index = grid_index(signal.shape, 1, 1, tuple(as_offsets([off], signal.rank)[0].tolist()))
    rows = signal.data.reshape(-1, signal.channels).take(index, axis=0)
    return GridSignal._fresh(rows.reshape(signal.data.shape))


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
    index = _offset_grid(grid, width, stride, np.array([offset], dtype=np.int64), False)[0]
    index = np.ascontiguousarray(index.T if taps_first else index)
    index.setflags(write=False)
    return index


def _offset_grid(grid: tuple[int, ...], width: int, stride: int, offsets: np.ndarray, stacked):
    """(B, positions, width**rank): `grid_index`'s entries for each of B offsets, plus
    i * prod(grid) for sample i if `stacked`; a wrapping gather per axis, summed."""
    rank, n = len(grid), len(offsets)
    lead = (n, *(1,) * (2 * rank))
    index = prod(grid) * np.arange(n).reshape(lead) if stacked else 0
    for a, (g, o) in enumerate(zip(grid, offsets.T)):
        # Reduced first: `take` wraps an index by adding or subtracting g in a loop.
        steps, values = _axis_table(grid, a, width, stride)
        index = index + values.take(o.reshape(lead) % g + steps, mode="wrap")
    return index.reshape(n, -1, width**rank)


@lru_cache(maxsize=256)
def _axis_table(grid: tuple[int, ...], a: int, width: int, stride: int):
    """Axis a's share of `_offset_grid`: steps stride * j + t from the offset
    (position j on axis a, tap t on axis rank + a) and each position's row-major weight."""
    rank, g = len(grid), grid[a]
    steps = stride * np.arange(g // stride)[:, np.newaxis] + np.arange(width)
    steps = np.expand_dims(steps, [i for i in range(2 * rank) if i not in (a, rank + a)])
    return freeze(steps, np.int64), freeze(prod(grid[a + 1 :]) * np.arange(g), np.int64)


def offset_index(
    grid: tuple[int, ...], width: int, stride: int, offsets: np.ndarray, stacked: bool = False
) -> np.ndarray:
    """(B, positions, width**rank) stack whose sample i is
    `grid_index(grid, width, stride, offsets[i])`, for (B, rank) offsets;
    `stacked` adds i * prod(grid), indexing the rows of all B samples at once.
    One sample reads the cached index; more are built as `grid_index` builds
    one, with the sample axis in front of every per-axis table."""
    if len(offsets) == 1:
        return grid_index(grid, width, stride, tuple(offsets[0].tolist()))[np.newaxis]
    return _offset_grid(grid, width, stride, offsets, stacked)


def rotate_rows(stack: np.ndarray, grid: tuple[int, ...], offsets: np.ndarray) -> np.ndarray:
    """Per-sample rotation of a (B, prod(grid), C) stack: sample i gets
    out[k] = stack[i, (k + offsets[i]) mod grid], offsets of shape (B, rank)."""
    b, m, c = stack.shape
    index = offset_index(grid, 1, 1, offsets, stacked=True).reshape(b, m)
    return stack.reshape(b * m, c).take(index, axis=0)


def scatter_index(grid: tuple[int, ...], b: int, offsets: np.ndarray) -> np.ndarray:
    """(B, prod(grid) // b**rank) flat positions (offsets[i] + b * position)
    mod grid, positions row-major over the coarse grid: where the inverse of
    sample i's polyphase selection followed by a rotation puts each row.  An
    offset below b is the phase the rows were selected at."""
    return offset_index(grid, 1, b, offsets).reshape(len(offsets), -1)


def predicted_rotation(base, shifted, shifts, b: int, in_grid, out_grid):
    """(congruent (B,), rotation (B, rank)) of a shift-equivariant selection
    at stride `b`: per sample, offset base[i] on an input and shifted[i] on
    it rotated by shifts[i].  The selection moved with the shift when
    d = shifted + shift - base is a multiple of `b` on every axis; the shifted
    output is then the base output rotated (as `rotate_rows` does) by d // k,
    k = in_grid / out_grid the op's downsampling.  Shifts count mod in_grid, a
    multiple of b and k, so any int64 shift gives the rotation its residue does."""
    in_grid, out_grid = np.asarray(in_grid), np.asarray(out_grid)
    d = np.asarray(shifted) + shifts % in_grid - np.asarray(base)
    return (d % b == 0).all(axis=-1), d // (in_grid // out_grid) % out_grid


def scatter_rows(stack: np.ndarray, rows: int, index: np.ndarray) -> np.ndarray:
    """Zero-filled (B, rows, C) stack with the rows of sample i of the
    (B, M, C) `stack` at positions index[i]."""
    n = len(stack)
    out = np.zeros((n, rows, stack.shape[-1]))
    out[np.arange(n)[:, np.newaxis], index] = stack
    return out


@lru_cache(maxsize=64)
def phase_table(b: int, rank: int) -> np.ndarray:
    """Read-only (b**rank, rank) table of polyphase offsets, row-major."""
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
    n, grid, c, rank = len(stack), stack.shape[1:-1], stack.shape[-1], stack.ndim - 2
    index = grid_index(grid, b, b, (0,) * rank, taps_first=True)
    phases = len(index)
    comps = stack.reshape(n, -1, c).take(index, axis=1).reshape(n * phases, -1, c)
    idx, tied = argmax_rows(score(comps).reshape(n, phases))
    return phase_table(b, rank)[idx], comps.take(idx + phases * np.arange(n), axis=0), tied


def softmax_rows(matrix: np.ndarray) -> np.ndarray:
    """Softmax over the last axis (ndim >= 2) with max subtraction for overflow safety."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim < 2:
        raise ShapeError(f"softmax_rows expects ndim >= 2, got ndim={m.ndim}")
    e = np.exp(m - np.maximum.reduce(m, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


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
        return float(np.add.reduce(np.sort(values, axis=None)))
    if axis != -1:
        raise ParameterError(f"stable_sum reduces all entries or the last axis, not {axis}")
    ordered = np.array(values, order="C")
    ordered.sort(axis=-1)
    return np.add.reduce(ordered, axis=-1)


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
    return np.maximum.reduce(np.abs(a - b).reshape(len(a), -1), axis=-1)


def project_rows(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Row-wise projection rows @ matrix with a fixed contraction order.

    Plain einsum reduces every output element over k in the same order no
    matter where the row sits, so permuting rows of the input permutes rows
    of the output bit-for-bit.  BLAS matmul does not guarantee that (edge
    rows can take a different microkernel), and the adaptive ops compare
    projected rows across rotated views exactly.

    A (B, M, K) stack of rows takes one (K, D) matrix for every sample, or a
    (B, K, D) stack with one matrix per sample; each sample gets the bits of
    its own (M, K) call.  Its inner loop runs along D, so with few token
    dimensions and many rows `project_columns` on the transposed layout gives
    the same bits faster.
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


def project_columns(cols: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Projection of (K, M, B) columns, sample axis last, by a (K, D) matrix:
    the (B, M, D) stack `project_rows` gives for each sample's (M, K) rows,
    bit for bit.

    The einsum below reduces over k in the same order as the row form, from
    0.0, one product added at a time, so every output entry gets the same
    bits; only its inner loop runs along the M * B columns, the long axis,
    instead of along D.  Every column is one lane of that loop, tail
    included, so where a row sits (its position, its sample, the batch
    size) does not change its bits (tests/test_gather.py checks this against
    a sequential loop over k).  The result is copied back to (B, M, D).
    """
    k, m, b = cols.shape
    out = np.einsum("kd,kx->dx", matrix, cols.reshape(k, m * b))
    return np.ascontiguousarray(out.reshape(-1, m, b).transpose(2, 1, 0))


def argmax_rows(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of (B, n) scores: the argmax (lowest index on exact ties) and
    whether another entry ties it exactly."""
    # The maximum equals the entry at the argmax, or both are NaN and nothing ties.
    ties = np.add.reduce(scores == np.maximum.reduce(scores, axis=-1, keepdims=True), axis=-1)
    return scores.argmax(axis=-1), ties > 1
