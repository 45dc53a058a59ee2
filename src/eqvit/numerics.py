"""Double-precision kernel for signals on circular grids.

Everything downstream reduces to a handful of operations defined here:
one index builder, `offset_index`, behind every rotation, tiling,
filter-tap and polyphase layout, each adaptive op's `Layout` of those
indices cached per grid and size, order-stable sums and lp norms, and
`best_phase`: each adaptive op's one selection and trace entry.  Each
grid operation is written once for any grid rank, and the selecting ones
once for a stack of samples (a leading sample axis, one selection per
sample): one signal is the stack of one.  All functions are pure.  Cached
indices are private and writeable; arrays handed to callers (wrapped
values, the phase table, one-sample trace entries) are frozen, so results
can be shared without defensive copies.  An op checks what its frozen
config and the token grid fix once per (config, grid, token dim), keeps the
result (a config's `layouts`, or a cache keyed by the checked shapes and
sizes, as `layout` and `_projection` are), and after that only computes; a
failed check keeps nothing, so a bad call raises alike on every call.  No
key is a value a caller can change: configs are frozen, their arrays
read-only.  Outside values are converted and
checked once, at the boundary: every array (signals, batches, token
matrices, bias tables, weights) by one rule, `checked_array`; offsets by
`as_offsets`; and the scalar fields of every config class by one
vocabulary of rules, each (check, the words of what it requires), applied
by `check_value`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product, repeat
from math import prod

import numpy as np

from .errors import ParameterError, ShapeError
from .trace import TraceEntry

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


# The largest lp norm order.  Up to it, |v|**p stays a finite, normal float64
# for every |v| in [2**-15, 2**16); near 2**63 every power overflows to inf or
# underflows to 0, and every score ties.
MAX_NORM_ORDER = 64

POSITIVE = (int_in(1), "an integer >= 1")
NORM_ORDER = (
    lambda v: is_finite_number(v) and 1 <= v <= MAX_NORM_ORDER,
    f"a finite number >= 1 and <= {MAX_NORM_ORDER}",
)
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


def checked_array(values, name: str, ndims: tuple[int, ...] = (2,)) -> np.ndarray:
    """`values` as a frozen float64 array of a rank in `ndims`, no axis of
    length 0, every entry finite: the one check of every outside array.  A
    wrong form raises ShapeError, a non-finite entry ParameterError."""
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
        object.__setattr__(self, "data", checked_array(self.data, "signal", (2, 3)))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape[:-1]

    @property
    def rank(self) -> int:
        return self.data.ndim - 1

    @property
    def channels(self) -> int:
        return self.data.shape[-1]


@dataclass(frozen=True)
class SignalBatch:
    """B signals of one shape as a (B, *grid, channels) stack, checked once
    as a whole.  Every op that takes a `GridSignal` (a batch of one) takes
    it too, and returns one result per sample."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", checked_array(self.data, "signal batch", (3, 4)))

    @classmethod
    def _fresh(cls, data: np.ndarray) -> SignalBatch:
        """Wrap a float64 stack computed from checked signals: frozen in place, unchecked."""
        data.setflags(False)
        batch = object.__new__(cls)
        vars(batch)["data"] = data
        return batch


def _offset_grid(grid: tuple[int, ...], width: int, stride: int, offsets: np.ndarray):
    """`offset_index`, built anew: a wrapping gather per axis, summed."""
    rank, n = len(grid), len(offsets)
    if offsets.shape[1:] != (rank,):  # zip below would drop or miss an axis
        raise ShapeError(f"offsets of shape {offsets.shape} for a rank-{rank} grid")
    lead = (n, *(1,) * (2 * rank))
    index = prod(grid) * np.arange(n).reshape(lead)
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


def offset_index(grid: tuple[int, ...], width: int, stride: int, offsets: np.ndarray) -> np.ndarray:
    """(B, positions, width**rank) index of the rows of B stacked row-major
    grids for (B, rank) offsets: entry (i, j, t) is i * prod(grid) plus
    (offsets[i] + stride * j + t) mod grid per axis, j row-major over the
    coarse grid and t over range(width)**rank.

    Every layout the package moves values through is one gather by it:
    width 1 and stride 1 rotate (gathering rolls by -offset); width b and
    stride b tile into patches, merge groups or windows; width b and stride 1
    lay out the taps of a b-wide circular filter at every position; stride b
    and width 1 or b give stride-b polyphase components, or where a scatter
    puts them.  One sample's index is cached, writeable so that `take` does
    not copy it, and private: callers read it and never write to it.  More
    samples are built anew, the sample axis in front of every per-axis table."""
    if len(offsets) == 1:
        return _sample_index(grid, width, stride, tuple(offsets[0].tolist()))
    return _offset_grid(grid, width, stride, offsets)


@lru_cache(maxsize=1024)
def _sample_index(grid: tuple[int, ...], width: int, stride: int, offset: tuple) -> np.ndarray:
    """`offset_index` of one sample at `offset`, a tuple of ints, cached."""
    return _offset_grid(grid, width, stride, np.array([offset], dtype=np.int64))


class Layout:
    """The indices an op of `size` moves values through on one grid, each
    built on first use by `_offset_grid` at offset 0 (the first row of
    `phases`) and kept for as long as `layout`, or a config's `layouts`,
    holds the layout.

    `coarse` is the grid a stride-`size` subsample leaves and `phases` the
    read-only (size**rank, rank) table of polyphase offsets, row-major.  The
    index arrays are built anew, not taken from `offset_index`'s cache, as
    `tap_rows` writes into its build; then they stay writeable, as `take`
    copies a read-only index, and private.  `in_order` says whether the
    tiling already lists the grid in order, so that `untile` is the
    identity: every rank-1 layout, and any whose size spans its grid.
    `entries` caches the one-sample trace entries `best_phase` hands out,
    by (kind, phase, tied).
    """

    def __init__(self, grid: tuple[int, ...], size: int, channels: int):
        self.grid, self.size, self.channels = grid, size, channels
        self.coarse = tuple(g // size for g in grid)
        self.phases = freeze(list(product(range(size), repeat=len(grid))), np.int64)
        self.entries: dict[tuple[str, int, bool], TraceEntry] = {}

    def _grid(self, stride: int) -> np.ndarray:
        """`offset_index` of width `size` at offset 0, built anew."""
        return _offset_grid(self.grid, self.size, stride, self.phases[:1])[0]

    def _taps(self, anchors=slice(None)) -> np.ndarray:
        """`taps` built anew, its columns the filters anchored at `anchors`."""
        taps = self._grid(1)[anchors]
        taps, c = np.ascontiguousarray(taps.T), self.channels
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
        rows, count = self._grid(1), len(self.phases)
        rows *= count
        rows += np.arange(count)
        return np.ascontiguousarray(rows.T)

    @cached_property
    def tiles(self) -> np.ndarray:
        """(coarse positions, size**rank): row j holds the grid positions of
        the size-wide block anchored at coarse position j, row-major."""
        return self._grid(self.size)

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

    @cached_property
    def in_order(self) -> bool:
        return np.array_equal(self.untile, np.arange(len(self.untile)))


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
    index = offset_index(grid, 1, 1, offsets).reshape(b, m)
    return stack.reshape(b * m, c).take(index, axis=0)


def place_rows(stack: np.ndarray, grid: tuple[int, ...], stride: int, offsets) -> np.ndarray:
    """Zero-filled (B, prod(grid), C) stack with row j of sample i of the
    (B, M, C) `stack` at flat position (offsets[i] + stride * j) mod grid, j
    row-major over the coarse grid: where the inverse of sample i's stride
    polyphase selection followed by a rotation puts each row.  An offset
    below the stride is the phase the rows were selected at."""
    n, c = len(stack), stack.shape[-1]
    out = np.zeros((n, prod(grid), c))
    out.reshape(-1, c)[offset_index(grid, 1, stride, offsets)[..., 0]] = stack
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


# One sample's tie flag, untied and tied, shared read-only by its traces.
_FLAGS = (freeze([False], bool), freeze([True], bool))


def best_phase(comps: np.ndarray | None, scores: np.ndarray, lay: Layout, kind: str):
    """The polyphase selection of every adaptive op, one per sample: from the
    (B, P, ...) stack of each sample's P components and their (B, P) scores,
    (winning components (B, ...), the op's `TraceEntry` of `kind` holding
    each winner's offset from the (P, rank) table `lay.phases`, on `lay.grid`
    at stride `lay.size`), the winners a C-contiguous copy, so `comps` may
    be a view that no output keeps alive.  An exact tie, two equal largest
    scores, resolves to the lowest phase and is flagged; a NaN score sorts
    last, is the argmax and ties nothing; with P = 1 nothing ties.  A caller
    that needs only the offsets passes `comps` None and gets None.

    One sample (B = 1) copies its winner from a slice and takes its entry
    from `lay.entries`, built on first use from a read-only row of the phase
    table and one of two shared read-only tie flags."""
    if len(scores) == 1:
        i, row = int(scores.argmax()), scores[0].tolist()
        # `count` matches the winner itself by identity, so a NaN winner
        # counts once: it ties nothing, as in the sort below.
        tied = row.count(row[i]) > 1
        entry = lay.entries.get((kind, i, tied))
        if entry is None:
            entry = TraceEntry(kind, lay.phases[i : i + 1], _FLAGS[tied], lay.grid, lay.size)
            lay.entries[kind, i, tied] = entry
        return (None if comps is None else comps[:, i].copy()), entry
    idx, ranked = scores.argmax(axis=-1), scores.copy()
    ranked.sort(axis=-1)
    tied = ranked[:, -1] == ranked[:, -2] if len(lay.phases) > 1 else np.zeros(len(idx), bool)
    won = None if comps is None else np.ascontiguousarray(comps[np.arange(len(idx)), idx])
    return won, TraceEntry(kind, lay.phases[idx], tied, lay.grid, lay.size)


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
    # Each root is Python's float power (`pow`): the array power has fast
    # paths of its own (sqrt for 1/2) that may round differently.
    return np.array(list(map(pow, total.ravel().tolist(), repeat(root)))).reshape(total.shape)


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
    dimensions and many rows the transposed layout `a_token` embeds in gives
    the same bits faster.
    """
    r = np.asarray(rows, dtype=np.float64)
    m = np.asarray(matrix, dtype=np.float64)
    spec, shape, out = _projection(r.shape, m.shape)
    return np.einsum(spec, r.reshape(shape), m).reshape(out)


@lru_cache(maxsize=64)
def _projection(rows: tuple[int, ...], matrix: tuple[int, ...]) -> tuple[str, tuple, tuple]:
    """(einsum, the rows' shape it takes, the result's shape) of `project_rows`
    on arrays of these shapes, checked once; a mismatch raises on every call."""
    stacked = len(matrix) == 3 and matrix[:1] == rows[:1]
    if len(rows) != 3 or not (len(matrix) == 2 or stacked) or rows[2] != matrix[-2]:
        raise ShapeError(f"cannot project rows of shape {rows} with a {matrix} matrix")
    out = (*rows[:2], matrix[-1])
    return ("bmk,bkd->bmd", rows, out) if stacked else ("mk,kd->md", (-1, rows[2]), out)

