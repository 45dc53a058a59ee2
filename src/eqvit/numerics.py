"""Double-precision kernel for signals on circular grids.

Everything downstream reduces to a handful of operations defined here:
one grid index behind every rotation, tiling, filter-tap and polyphase
layout, each adaptive op's `Layout` of those indices cached per grid and
size, row-wise softmax, order-stable sums and lp norms, and `best_phase`:
each adaptive op's one selection and trace entry.  Each grid operation is written
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
from functools import cached_property, lru_cache
from itertools import product
from math import prod

import numpy as np

from .errors import ParameterError, ShapeError
from .trace import SelectionTrace

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
def grid_index(grid: tuple[int, ...], width: int, stride: int, offset: Offset) -> np.ndarray:
    """Read-only (prod(grid) // stride**rank, width**rank) index of row-major
    grid positions: entry (j, t) is (offset + stride * j + t) mod grid per
    axis, j row-major over the coarse grid and t over range(width)**rank.

    Every layout the package moves values through is one gather by it:
    width 1 and stride 1 rotate (gathering rolls by -offset); width b and
    stride b tile into patches, merge groups or windows; width b and stride 1
    lay out the taps of a b-wide circular filter at every position; stride b
    and width 1 or b give stride-b polyphase components, or where a scatter
    puts them.
    """
    index = _grid_index(grid, width, stride, offset)
    index.setflags(write=False)
    return index


def _grid_index(grid, width, stride, offset) -> np.ndarray:
    """`grid_index`, built anew and writeable."""
    return _offset_grid(grid, width, stride, np.array([offset], dtype=np.int64), False)[0]


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


class Layout:
    """The indices an op of `size` moves values through on one grid, each
    built on first use and kept for as long as `layout` caches the layout.

    `coarse` is the grid a stride-`size` subsample leaves and `phases` the
    read-only (size**rank, rank) table of polyphase offsets, row-major.  The
    index arrays are writeable because NumPy's `take` copies a read-only
    index on every call; they stay private, as the ops gather through them
    and return fresh arrays only, and nothing writes to them.
    """

    def __init__(self, grid: tuple[int, ...], size: int, channels: int):
        self.grid, self.size, self.channels = grid, size, channels
        self.coarse = tuple(g // size for g in grid)
        self.phases = freeze(list(product(range(size), repeat=len(grid))), np.int64)

    def _taps(self, anchors=slice(None)) -> np.ndarray:
        """`taps` built anew, its columns the filters anchored at `anchors`."""
        taps = _grid_index(self.grid, self.size, 1, (0,) * len(self.grid))[anchors]
        taps = np.ascontiguousarray(taps.T)
        c = self.channels
        if c == 1:
            return taps
        index = np.empty((len(taps), c, taps.shape[1]), dtype=np.int64)
        for k in range(c):  # in place, so the build holds no second copy
            np.multiply(taps, c, out=index[:, k])
            index[:, k] += k
        return index.reshape(-1, taps.shape[1])

    @cached_property
    def taps(self) -> np.ndarray:
        """(size**rank * channels, positions) index into the flat rows of a
        row-major (*grid, channels) array: entry (tap * channels + c, n) is
        channel c at tap `tap` (row-major) of the size-wide circular filter
        anchored at position n.  With one channel, row t is the rotation of
        the grid by the t-th tap offset."""
        return self._taps()

    @cached_property
    def phase_taps(self) -> np.ndarray:
        """`taps` with its columns in polyphase order: column p * coarse
        positions + j is the filter anchored at components[p, j], so what is
        gathered through it splits into (phases, coarse positions) by a reshape."""
        return self._taps(self.components.ravel())

    @cached_property
    def tap_rows(self) -> np.ndarray:
        """(size**rank, positions) index into the (positions * size**rank)
        rows of a stack of every position projected by every tap's weights,
        position-major: entry (t, n) is row k * size**rank + t, tap t's
        weights applied to the position k that tap t of the filter anchored
        at n reads (on one channel, k = taps[t, n])."""
        rows, count = _grid_index(self.grid, self.size, 1, (0,) * len(self.grid)), len(self.phases)
        rows *= count
        rows += np.arange(count)
        return np.ascontiguousarray(rows.T)

    @cached_property
    def tiles(self) -> np.ndarray:
        """(coarse positions, size**rank): row j holds the grid positions of
        the size-wide block anchored at coarse position j, row-major."""
        return _grid_index(self.grid, self.size, self.size, (0,) * len(self.grid))

    @cached_property
    def components(self) -> np.ndarray:
        """(phases, coarse positions), the tiling's transpose: row p holds the
        grid positions of the stride-`size` polyphase component at phases[p]."""
        return np.ascontiguousarray(self.tiles.T)

    @cached_property
    def untile(self) -> np.ndarray:
        """Inverse of the tiling: grid position k sits at row untile[k] of the
        blocks laid out one after another."""
        return np.argsort(self.tiles.ravel())


@lru_cache(maxsize=64, typed=True)
def layout(grid: tuple[int, ...], size: int, name: str, channels: int = 1) -> Layout:
    """The cached `Layout` of an op of `size` (named `name` in errors) on
    `grid`, for arrays of `channels` entries per position.  A `size` that is
    not an integer >= 1 raises ParameterError, and one that does not divide
    the grid ShapeError, on every call: errors are not cached, and the cache
    is typed, so 2.0 or True never reads the layout of 2 or 1.  An unhashable
    `size` fails in the cache with TypeError, before the check."""
    check_value(name, size, POSITIVE)
    for g in grid:
        if g % size:
            raise ShapeError(f"grid axis {g} is not divisible by {name} {size}")
    return Layout(grid, int(size), channels)


def rotate_rows(stack: np.ndarray, grid: tuple[int, ...], offsets: np.ndarray) -> np.ndarray:
    """Per-sample rotation of a (B, prod(grid), C) stack: sample i gets
    out[k] = stack[i, (k + offsets[i]) mod grid], offsets of shape (B, rank)."""
    b, m, c = stack.shape
    index = offset_index(grid, 1, 1, offsets, stacked=True).reshape(b, m)
    return stack.reshape(b * m, c).take(index, axis=0)


def place_rows(stack: np.ndarray, grid: tuple[int, ...], stride: int, offsets) -> np.ndarray:
    """Zero-filled (B, prod(grid), C) stack with row j of sample i of the
    (B, M, C) `stack` at flat position (offsets[i] + stride * j) mod grid, j
    row-major over the coarse grid: where the inverse of sample i's stride
    polyphase selection followed by a rotation puts each row.  An offset
    below the stride is the phase the rows were selected at."""
    n = len(stack)
    out = np.zeros((n, prod(grid), stack.shape[-1]))
    out[np.arange(n)[:, np.newaxis], offset_index(grid, 1, stride, offsets).reshape(n, -1)] = stack
    return out


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


def best_phase(comps: np.ndarray, scores: np.ndarray, phases: np.ndarray, kind: str):
    """The polyphase selection of every adaptive op, one per sample: from the
    (B, P, ...) stack of each sample's P components and their (B, P) scores,
    (winning components (B, ...), the op's trace of `kind` holding each
    winner's offset from the (P, rank) `phases` table).  An exact tie, two
    equal largest scores, resolves to the lowest phase and is flagged; a NaN
    score sorts last, is the argmax and ties nothing; with P = 1 nothing ties."""
    idx, ranked = scores.argmax(axis=-1), scores.copy()
    ranked.sort(axis=-1)
    tied = ranked[:, -1] == ranked[:, -2] if len(phases) > 1 else np.zeros(len(idx), bool)
    return comps[np.arange(len(idx)), idx], SelectionTrace.single(kind, phases[idx], tied)


def softmax_in_place(m: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of a float64 array the caller owns, computed
    in its place, with max subtraction for overflow safety."""
    m -= np.maximum.reduce(m, axis=-1, keepdims=True)
    np.exp(m, out=m)
    m /= np.add.reduce(m, axis=-1, keepdims=True)
    return m


def sorted_sum(values: np.ndarray) -> np.ndarray:
    """Per row along the last axis, the sum accumulated in sorted order;
    sorts `values`, a C-contiguous float array the caller owns, in place.

    Sorting first makes each sum bit-identical for any permutation of its
    row; grid rotations permute candidates, so selection scores must agree
    exactly across an input shift.  Each row of a stack gets the bits of
    that row summed alone, as NumPy sums pairwise along a contiguous axis.
    """
    values.sort(axis=-1)
    return np.add.reduce(values, axis=-1)


@lru_cache(maxsize=16, typed=True)
def _norm_root(p) -> float:
    """1 / p for an lp norm order p, which must meet `NORM_ORDER`: as in
    `layout`, a bad order raises on every call and a good one is checked once."""
    check_value("lp_norm order p", p, NORM_ORDER)
    return 1.0 / p


def lp_norm(values, p: float) -> np.ndarray:
    """lp norms (sum_i |v_i|^p)^(1/p) along the last axis of `values`.

    The powers are summed by `sorted_sum`, so each norm is bit-identical
    for any permutation of its row.  Adaptive selections compare these
    norms across rotated views and rely on that exactness.
    """
    try:
        root = _norm_root(p)
    except TypeError:  # unhashable: the cache refused it before its check ran
        check_value("lp_norm order p", p, NORM_ORDER)
        raise
    powers = np.abs(np.asarray(values, dtype=np.float64), order="C")
    if powers.size == 0:
        raise ShapeError("lp_norm of an empty array")
    powers **= p
    total = sorted_sum(powers)
    # Each root is a Python float power: the array power has fast paths of
    # its own (sqrt for 1/2) that may round differently.
    return np.array([t**root for t in total.ravel().tolist()]).reshape(total.shape)


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
    its call as a stack of one.  Its inner loop runs along D, so with few token
    dimensions and many rows `project_columns` on the transposed layout gives
    the same bits faster.
    """
    r = np.asarray(rows, dtype=np.float64)
    m = np.asarray(matrix, dtype=np.float64)
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
