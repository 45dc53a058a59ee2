"""Kernel checks: modular-index oracles first, then exactness properties.

The oracles here are deliberately naive (python loops over mod indices) and
independent of the vectorized implementations they pin down.
"""

import json
import math
import re
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eqvit import GridSignal, lp_norm
from eqvit.attention import RpeTable
from eqvit.attention import AttentionParams, WindowConfig
from eqvit.errors import ConfigError, ParameterError, ShapeError
from eqvit.harness import SuiteConfig
from eqvit.merging import MergeConfig, aps
from eqvit.metrics import ShiftSampler, shift_stack
from eqvit.numerics import SignalBatch, as_offsets, best_phase, freeze, layout
from eqvit.numerics import offset_index, predicted_rotation, project_rows, rotate_rows
from eqvit.numerics import checked_array, place_rows
from eqvit.pipeline import ModelConfig
from eqvit.tokenizer import PatchEmbedConfig, TokenMatrix
from eqvit.trace import MERGE, WSA
from reference import index_at, reshape_patches, softmax_rows


def shift_oracle(data: np.ndarray, offs) -> np.ndarray:
    """out[n] = data[(n + off) mod N] per grid axis, channels untouched."""
    rank = data.ndim - 1
    out = np.empty_like(data)
    for idx in np.ndindex(*data.shape[:rank]):
        src = tuple((i + o) % n for i, o, n in zip(idx, offs, data.shape))
        out[idx] = data[src]
    return out


def sig1(values) -> GridSignal:
    return GridSignal(np.asarray(values, dtype=float)[..., np.newaxis])


# ------------------------------------------------------------- rotate_rows --
# The circular shift of a stack of signals: rotate_rows on flat rows, and
# shift_stack on (B, *grid, C) stacks, which rotates their rows.


def rows1(values) -> np.ndarray:
    """A (1, N, 1) stack of one one-channel signal."""
    return np.asarray(values, dtype=float).reshape(1, -1, 1)


def test_shift_unit_example():
    out = rotate_rows(rows1([1, 2, 3, 4]), (4,), np.array([[1]]))
    assert np.array_equal(out[0, :, 0], [2, 3, 4, 1])


def test_shift_zero_is_identity():
    x = rows1([1, 2, 3, 4])
    assert np.array_equal(rotate_rows(x, (4,), np.array([[0]])), x)


def test_shift_wraps_modulo_length():
    x = np.repeat(rows1([1, 2, 3, 4]), 3, axis=0)
    out = rotate_rows(x, (4,), np.array([[5], [-3], [1]]))
    assert np.array_equal(out[0], out[2]) and np.array_equal(out[1], out[2])


def test_shift_matches_oracle_rank2():
    # Every sample at its own offset, as a stack of signals and as flat rows.
    rng = np.random.default_rng(3)
    offsets = np.array([(0, 0), (1, 0), (3, 5), (-2, 7)])
    xs = rng.uniform(-1, 1, (len(offsets), 4, 6, 2))
    out, rows = shift_stack(xs, offsets), xs.reshape(len(xs), -1, 2)
    assert np.array_equal(out.reshape(rows.shape), rotate_rows(rows, (4, 6), offsets))
    for x, offs, got in zip(xs, offsets.tolist(), out):
        assert np.array_equal(got, shift_oracle(x, offs))


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=12),
    st.integers(-20, 20),
    st.integers(-20, 20),
)
def test_shift_composes_additively(values, o1, o2):
    x, grid = rows1(values), (len(values),)
    twice = rotate_rows(rotate_rows(x, grid, np.array([[o1]])), grid, np.array([[o2]]))
    assert np.array_equal(twice, rotate_rows(x, grid, np.array([[o1 + o2]])))


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=12))
def test_shift_by_length_is_identity(values):
    x = rows1(values)
    assert np.array_equal(rotate_rows(x, (len(values),), np.array([[len(values)]])), x)


@pytest.mark.parametrize("grid", [(7,), (3, 5)])
def test_rotation_gather_equals_roll_at_every_offset(grid):
    rng = np.random.default_rng(3)
    rows = rng.uniform(-1, 1, (int(np.prod(grid)), 4))
    axes = tuple(range(len(grid)))
    for off in np.ndindex(*(2 * g + 1 for g in grid)):
        off = tuple(o - g for o, g in zip(off, grid))  # -g .. g on each axis
        rolled = np.roll(rows.reshape(*grid, 4), [-o for o in off], axis=axes)
        index = index_at(grid, 1, 1, off)
        assert index.shape == (len(rows), 1)
        assert np.array_equal(rows[index[:, 0]], rolled.reshape(rows.shape))


def roll_oracle(grid, width, stride, off) -> np.ndarray:
    """Row j: the positions grid rolled by -(off + stride * j), its first
    width**rank corner, row-major.  np.roll only, no modular arithmetic."""
    positions = np.arange(math.prod(grid)).reshape(grid)
    rows = []
    for j in np.ndindex(*(g // stride for g in grid)):
        shift = [-(o + stride * i) for o, i in zip(off, j)]
        rolled = np.roll(positions, shift, axis=tuple(range(len(grid))))
        rows.append(rolled[(slice(width),) * len(grid)].ravel())
    return np.array(rows)


def tile_oracle(grid, b) -> np.ndarray:
    """(tiles, b**rank) positions of the b-tiles by reshape and transpose:
    tiles row-major over the grid, positions row-major within each tile."""
    rank = len(grid)
    split = [n for g in grid for n in (g // b, b)]
    order = [*range(0, 2 * rank, 2), *range(1, 2 * rank, 2)]
    return np.arange(math.prod(grid)).reshape(split).transpose(order).reshape(-1, b**rank)


@pytest.mark.parametrize("grid", [(12,), (4, 8), (8, 4), (6, 6)])
def test_grid_index_equals_roll_oracle(grid):
    rank = len(grid)
    # Negative offsets (rotating back) and offsets past the stride (the
    # decoder adds window offsets to merge phases) wrap like any other.
    offsets = [(0,) * rank, (1,) * rank, (-1,) * rank, (5, -7)[:rank], (-13, 9)[:rank]]
    strides = [s for s in (1, 2, 3, 4) if all(g % s == 0 for g in grid)]
    for stride, width, off in product(strides, (1, 2, 3, 4), offsets):
        expect = roll_oracle(grid, width, stride, off)
        index = index_at(grid, width, stride, off)
        assert index.shape == expect.shape and np.array_equal(index, expect)


@pytest.mark.parametrize("grid", [(12,), (4, 8), (8, 4), (6, 6)])
def test_grid_index_tiles_and_phases_equal_reshape_transpose(grid):
    for b in (b for b in (1, 2, 3, 4) if all(g % b == 0 for g in grid)):
        zero = (0,) * len(grid)
        assert np.array_equal(index_at(grid, b, b, zero), tile_oracle(grid, b))
        # Transposed, row t is the stride-b component at the t-th phase.
        phases = index_at(grid, b, b, zero).T
        positions = np.arange(math.prod(grid)).reshape(grid)
        for row, phase in zip(phases, product(range(b), repeat=len(grid))):
            component = positions[tuple(slice(p, None, b) for p in phase)]
            assert np.array_equal(row, component.ravel())


def test_predicted_rotation_example():
    # Patch length 4 on 16 positions: phase 1, then phase 3 after a shift by 6,
    # moves the selection by 8 positions, two tokens; phase 0 would be off it.
    congruent, rotation = predicted_rotation([[1]], [[3]], [[6]], 4, (16,), (4,))
    assert congruent.tolist() == [True] and rotation.tolist() == [[2]]
    assert predicted_rotation([[1]], [[0]], [[6]], 4, (16,), (4,))[0].tolist() == [False]


@pytest.mark.parametrize(
    "grid, b, k", [((12,), 3, 3), ((12,), 4, 1), ((8, 4), 2, 2), ((8, 4), 4, 1), ((6, 6), 3, 3)]
)
def test_predicted_rotation_names_planted_rotation(grid, b, k):
    # A stride-b selection at phase p keeps positions p + k * j: the polyphase
    # component for k = b (a_token, a_pmerge), the grid rotated to the anchor
    # for k = 1 (a_wsa).  On an input rotated by s, a selection that moves with
    # the shift picks (p - s) mod b, and its output is the base output rotated
    # by the predicted amount; one step off the stride lattice is not congruent.
    rank, axes = len(grid), tuple(range(len(grid)))
    data = np.random.default_rng(0).uniform(-1, 1, (*grid, 2))
    coarse = tuple(g // k for g in grid)

    def select(arr, phase):
        return np.roll(arr, [-p for p in phase], axes)[(slice(None, None, k),) * rank]

    shifts = list(product(*(range(g) for g in grid)))
    for base in product(range(b), repeat=rank):
        moved = [tuple((p - o) % b for p, o in zip(base, s)) for s in shifts]
        congruent, rotation = predicted_rotation([base] * len(shifts), moved, shifts, b, grid, coarse)
        assert congruent.all() and rotation.shape == (len(shifts), rank)
        for s, phase, r in zip(shifts, moved, rotation.tolist()):
            assert all(0 <= v < c for v, c in zip(r, coarse))
            shifted = select(np.roll(data, [-o for o in s], axes), phase)
            assert np.array_equal(shifted, np.roll(select(data, base), [-v for v in r], axes))
        off = [(*phase[:-1], (phase[-1] + 1) % b) for phase in moved]
        assert not predicted_rotation([base] * len(shifts), off, shifts, b, grid, coarse)[0].any()


@pytest.mark.parametrize("grid, b, k", [((96,), 4, 4), ((12, 96), 3, 1), ((96,), 2, 2)])
def test_predicted_rotation_counts_shifts_mod_the_grid(grid, b, k):
    # Shifts near the int64 ends predict what their residues mod the grid do:
    # 96 does not divide 2**64, so summing offsets and such a shift in int64
    # wrapped and predicted another rotation.
    rng = np.random.default_rng(3)
    base, moved = rng.integers(0, b, (2, 64, len(grid)))
    coarse = tuple(g // k for g in grid)
    top = np.iinfo(np.int64).max
    for shifts in (rng.integers(top - 2 * b, top, (64, len(grid)), endpoint=True),
                   rng.integers(-top - 1, -top + 2 * b, (64, len(grid)))):
        residues = shifts % np.array(grid)
        got = predicted_rotation(base, moved, shifts, b, grid, coarse)
        want = predicted_rotation(base, moved, residues, b, grid, coarse)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_as_offsets_takes_ints_or_one_int_per_axis():
    assert as_offsets([3, -1], 1).tolist() == [[3], [-1]]
    assert as_offsets([[3], [4]], 1).tolist() == [[3], [4]]
    assert as_offsets([(1, 2), [3, 4]], 2).tolist() == [[1, 2], [3, 4]]
    assert as_offsets(np.array([[1, 2]]), 2).dtype == np.int64
    # A shift's rank is checked where it comes in: an int per axis of a
    # rank-2 grid, and no more ints than a rank-1 grid has axes.
    for offs, rank in [([3], 2), ([(1, 2, 3)], 2), ([(1, 2)], 1), ([3, [4]], 1), ([[[0]]], 1),
                       (["a"], 1)]:
        with pytest.raises(ShapeError):
            as_offsets(offs, rank)


@pytest.mark.parametrize(
    "grid, width, stride", [((12,), 1, 1), ((12,), 4, 4), ((12,), 1, 3), ((4, 8), 2, 2),
                            ((6, 4), 1, 1), ((8, 4), 4, 1), ((6, 6), 1, 3)],
)
@pytest.mark.parametrize("n", [1, 2, 5])
def test_offset_index_stacks_grid_index(grid, width, stride, n):
    # Offsets past the grid and negative ones wrap as one offset's index wraps
    # them, and sample i indexes the rows of the i-th of the stacked grids.
    rng = np.random.default_rng(n)
    offsets = rng.integers(-2 * max(grid), 2 * max(grid), (n, len(grid)))
    index = offset_index(grid, width, stride, offsets)
    expect = np.stack([
        index_at(grid, width, stride, tuple(o)) + i * math.prod(grid)
        for i, o in enumerate(offsets.tolist())
    ])
    assert index.dtype == expect.dtype and np.array_equal(index, expect)


@pytest.mark.parametrize("grid, width, stride", [((96,), 1, 1), ((12,), 4, 4), ((6, 10), 2, 2)])
def test_offset_index_takes_offsets_at_the_int64_ends(grid, width, stride):
    # Each offset acts as itself mod the grid, one sample or many, and the
    # index comes back at once: nothing wraps it one grid length at a time.
    info = np.iinfo(np.int64)
    offsets = np.array([[info.max] * len(grid), [info.min] * len(grid), [2**62 + 5, -7][: len(grid)]])
    reduced = [tuple(o % g for o, g in zip(off, grid)) for off in offsets.tolist()]
    expect = np.stack([index_at(grid, width, stride, r) for r in reduced])
    rows = math.prod(grid) * np.arange(len(offsets)).reshape(-1, 1, 1)
    assert np.array_equal(offset_index(grid, width, stride, offsets), expect + rows)
    for off, want in zip(offsets.tolist(), expect):
        assert np.array_equal(index_at(grid, width, stride, tuple(off)), want)


@pytest.mark.parametrize("grid", [(7,), (3, 5)])
def test_rotate_rows_and_place_rows_per_sample(grid):
    rng = np.random.default_rng(4)
    stack = rng.uniform(-1, 1, (5, math.prod(grid), 3))
    offsets = rng.integers(-9, 9, (5, len(grid)))
    rows = rotate_rows(stack, grid, offsets)
    # Placing at stride 1 undoes the rotation.
    assert np.array_equal(place_rows(rows, grid, 1, offsets), stack)
    for i in range(5):
        index = index_at(grid, 1, 1, tuple(offsets[i]))[:, 0]
        assert np.array_equal(rows[i], stack[i].take(index, axis=0))
        assert np.array_equal(rotate_rows(stack[i : i + 1], grid, offsets[i : i + 1])[0], rows[i])
        one = place_rows(rows[i : i + 1], grid, 1, offsets[i : i + 1])
        assert np.array_equal(place_rows(rows, grid, 1, offsets)[i], one[0])


@pytest.mark.parametrize("grid, width", [((4,), 2), ((4,), 3), ((4, 4), 1), ((4, 4), 3)])
@pytest.mark.parametrize("samples", [1, 2])
def test_offsets_of_another_rank_than_the_grid_are_refused(grid, width, samples):
    # One sample goes through the cached index and more are built anew; at
    # either, an offset of `width` entries on a grid of another rank neither
    # drops an entry nor reaches NumPy's reshape.
    offsets = np.ones((samples, width), dtype=np.int64)
    stack = np.zeros((samples, math.prod(grid), 1))
    for call in (
        lambda: offset_index(grid, 2, 2, offsets),
        lambda: rotate_rows(stack, grid, offsets),
        lambda: place_rows(stack[:, : math.prod(grid) // 2 ** len(grid)], grid, 2, offsets),
    ):
        with pytest.raises(ShapeError, match=f"offsets of shape \\({samples}, {width}\\)"):
            call()


def test_signal_batch_checks_the_stack_once():
    batch = SignalBatch(np.zeros((3, 4, 2)))
    assert batch.data.shape == (3, 4, 2) and not batch.data.flags.writeable
    assert SignalBatch(np.zeros((2, 4, 4, 1))).data.ndim == 4
    for bad in (np.zeros((4, 2)), np.zeros((1, 2, 2, 2, 2)), np.zeros((0, 4, 2)), []):
        with pytest.raises(ShapeError):
            SignalBatch(bad)
    with pytest.raises(ShapeError):
        SignalBatch([np.zeros((16, 2)), np.zeros((32, 2))])
    data = np.zeros((3, 4, 2))
    data[1, 2, 0] = np.nan
    with pytest.raises(ParameterError):
        SignalBatch(data)


# ---------------------------------------------------------------- softmax --
# The attention softmax, computed inline by `_attend`, on its own: the
# reference that tests/test_attention.py holds `sa` and `wsa` to bit for bit.


def test_softmax_symmetric_row():
    assert np.array_equal(softmax_rows(np.array([[0.0, 0.0]])), [[0.5, 0.5]])


def test_softmax_survives_large_entries():
    out = softmax_rows(np.array([[1000.0, 1000.0]]))
    assert np.all(np.isfinite(out))
    assert np.array_equal(out, [[0.5, 0.5]])


def test_softmax_log3_example():
    out = softmax_rows(np.array([[0.0, math.log(3.0)]]))
    assert np.allclose(out, [[0.25, 0.75]], atol=1e-12, rtol=0)


@given(
    st.lists(
        st.lists(st.floats(-500, 500), min_size=1, max_size=6),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_softmax_rows_sum_to_one(rows):
    out = softmax_rows(np.array(rows))
    assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-12


@given(
    st.lists(st.floats(-500, 500), min_size=1, max_size=6),
    st.floats(-100, 100),
)
def test_softmax_invariant_to_row_constant(row, c):
    base = softmax_rows(np.array([row]))
    shifted = softmax_rows(np.array([row]) + c)
    assert np.max(np.abs(base - shifted)) <= 1e-12


def test_softmax_stack_matches_each_matrix_bit_for_bit():
    stack = np.random.default_rng(4).uniform(-30, 30, (5, 4, 7))
    out = softmax_rows(stack)
    assert all(np.array_equal(out[i], softmax_rows(stack[i])) for i in range(5))


# ----------------------------------------------------------------- lp_norm --


def test_lp_norm_examples():
    assert lp_norm([3, 4], 2) == 5.0
    assert lp_norm([0, 0, 0], 3) == 0.0
    assert lp_norm([1, 1, 1, 1], 1) == 4.0
    # Along the last axis: one norm per row.
    assert lp_norm([[[3, 4], [0, 0]], [[1, 1], [6, 8]]], 2).tolist() == [[5.0, 0.0], [2**0.5, 10.0]]


def test_lp_norm_validates():
    for p in (0.5, math.nan, math.inf, True):
        with pytest.raises(ParameterError):
            lp_norm([1, 2], p)
    with pytest.raises(ShapeError):
        lp_norm([], 2)


@given(
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=10),
    st.randoms(use_true_random=False),
    st.sampled_from([1.0, 1.5, 2.0, 3.0]),
)
def test_lp_norm_is_permutation_exact(values, rnd, p):
    # Sorted accumulation: any reordering of the inputs gives the same bits.
    shuffled = list(values)
    rnd.shuffle(shuffled)
    assert lp_norm(values, p) == lp_norm(shuffled, p)


# ------------------------------------------------------------ project_rows --


@given(st.integers(1, 8), st.integers(1, 6), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_project_rows_commutes_with_row_permutation(m, k, d, seed):
    # The exactness contract every adaptive selection depends on: permuting
    # input rows permutes output rows bit-for-bit.
    rng = np.random.default_rng(seed)
    rows = rng.uniform(-1, 1, (1, m, k))
    mat = rng.uniform(-1, 1, (k, d))
    perm = rng.permutation(m)
    assert np.array_equal(project_rows(rows[:, perm], mat), project_rows(rows, mat)[:, perm])


@pytest.mark.parametrize("m, k", [(17, 17), (5, 16), (6, 16), (9, 16), (7, 32), (5, 8)])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_project_rows_keeps_row_bits_where_narrow_blas_products_do_not(m, k, d):
    # With OpenBLAS 0.3.31, an (M, K) @ (K, D) matmul with D <= 3, K >= 16
    # (D = 1: K >= 8) and M not a multiple of 4 gave permuted input rows
    # other bits, in most of 20 draws per shape.  The einsum projections must
    # keep them at these shapes, for a shared matrix and one per sample.
    rng = np.random.default_rng([m, k, d])
    for _ in range(20):
        rows, mats = rng.uniform(-1, 1, (2, m, k)), rng.uniform(-0.5, 0.5, (2, k, d))
        perm = rng.permutation(m)
        for mat in (mats[0], mats):
            out = project_rows(rows, mat)
            assert project_rows(rows[:, perm], mat).tobytes() == out[:, perm].tobytes()


def test_project_rows_checks_shapes():
    with pytest.raises(ShapeError):
        project_rows(np.zeros(3), np.zeros((3, 2)))
    with pytest.raises(ShapeError):
        project_rows(np.zeros((1, 2, 3)), np.zeros((4, 2)))
    with pytest.raises(ShapeError):  # one (M, K) matrix of rows is a stack of one
        project_rows(np.zeros((2, 3)), np.zeros((3, 2)))


def test_project_rows_stacks_take_one_or_b_matrices():
    rng = np.random.default_rng(4)
    rows, mats = rng.uniform(-1, 1, (3, 5, 4)), rng.uniform(-1, 1, (3, 4, 2))
    shared = project_rows(rows, mats[0])
    per_sample = project_rows(rows, mats)
    for i in range(3):
        assert project_rows(rows[i : i + 1], mats[0]).tobytes() == shared[i].tobytes()
        assert project_rows(rows[i : i + 1], mats[i]).tobytes() == per_sample[i].tobytes()
    with pytest.raises(ShapeError):
        project_rows(rows, mats[:2])  # one matrix per sample
    with pytest.raises(ShapeError):
        project_rows(rows[0], mats)  # a stack of matrices needs a stack of rows
    with pytest.raises(ShapeError):
        project_rows(rows, rng.uniform(-1, 1, (3, 3, 2)))


# -------------------------------------------------------------- best_phase --


def select(scores, lay=None, kind=MERGE):
    """`best_phase` on (B, P) scores whose components are their phase
    numbers, on the phase table of `lay` (by default the P phases of a
    1-D grid of P): (each sample's winning component, the trace entry)."""
    scores = np.asarray(scores, dtype=np.float64)
    b, p = scores.shape
    lay = layout((p,), p, "size") if lay is None else lay
    won, entry = best_phase(np.tile(np.arange(p), (b, 1)), scores, lay, kind)
    assert len(entry.offsets) == b and entry.kind == kind
    assert (entry.grid, entry.stride) == (lay.grid, lay.size)
    return won, entry


def test_best_phase_examples():
    won, entry = select([[1.0, 3, 2], [5, 5, 1], [-2, -1, -1]])
    assert won.tolist() == [1, 0, 1] and entry.offsets.tolist() == [[1], [0], [1]]
    # Offsets are the winners' rows of the phase table, at rank 2 too.
    won, entry = select([[0.0, 1, 3, 2], [4, 0, 0, 0]], layout((4, 4), 2, "size"), WSA)
    assert won.tolist() == [2, 0] and entry.offsets.tolist() == [[1, 0], [0, 0]]


def test_best_phase_tie_flag():
    # A sample ties when its two largest scores are equal, and keeps the lowest phase.
    won, entry = select([[1.0, 3, 2], [5, 5, 1], [1, 2, 2], [2, 2, 2]])
    assert won.tolist() == [1, 0, 1, 0] and entry.tied.tolist() == [False, True, True, True]
    won, entry = select([[2.0], [2.0]])  # one phase ties nothing
    assert won.tolist() == [0, 0] and entry.tied.tolist() == [False, False]


def test_best_phase_nan_scores_win_and_never_tie():
    # A NaN is the argmax, sorts last and equals nothing, two NaNs included.
    won, entry = select([[1.0, np.nan, 2], [np.nan, np.nan, 0], [3, 3, np.nan]])
    assert won.tolist() == [1, 0, 2] and entry.tied.tolist() == [False, False, False]


def score_rows(p: int) -> np.ndarray:
    """(B, p) scores: random, then exact ties at the top and below it, NaN
    alone, twice and beside a tie, and 0.0 tied with -0.0."""
    rng = np.random.default_rng(18)
    rows = [rng.uniform(-1, 1, p), np.full(p, 0.5), np.full(p, np.nan), np.full(p, -0.0)]
    if p > 1:
        for k in range(p):
            tie = rng.uniform(-1, 0, p)
            tie[[k, (k + 1) % p]] = 0.25  # a tie at the top, ending on every phase
            rows.append(tie)
            below = np.linspace(1.0, 2.0, p)
            below[k] = below[(k + 1) % p] = -1.0  # a tie that is not the top
            rows.append(below)
            nan = rng.uniform(-1, 1, p)
            nan[k] = np.nan
            rows.append(nan)
        rows += [np.r_[np.nan, np.nan, np.zeros(p - 2)], np.r_[np.zeros(p - 1), np.nan]]
        rows.append(np.r_[0.0, -0.0, np.full(p - 2, -1.0)])
    return np.stack(rows)


@pytest.mark.parametrize("grid, size", [((8,), 1), ((8,), 2), ((8,), 4), ((4, 4), 2)])
def test_best_phase_on_one_sample_is_its_row_of_a_batch(grid, size):
    lay = layout(grid, size, "size")
    phases = lay.phases
    scores = score_rows(len(phases))
    comps = np.random.default_rng(19).uniform(-1, 1, (len(scores), len(phases), 3, 2))
    comps[:, :, 0, 0] = -0.0
    # Two kinds on one layout, each twice: a sample's entry is built on first
    # use and read from `lay.entries` after, one per phase, kind and tie flag.
    for kind in (MERGE, WSA, MERGE, WSA):
        won, entry = best_phase(comps, scores, lay, kind)
        assert entry.tied.any() or len(phases) == 1
        assert (entry.grid, entry.stride) == (grid, size)
        for i in range(len(scores)):
            one, got = best_phase(comps[i : i + 1], scores[i : i + 1], lay, kind)
            assert got.kind == kind and (got.grid, got.stride) == (grid, size)
            assert one.tobytes() == won[i : i + 1].tobytes() and one.shape == won[i : i + 1].shape
            assert np.array_equal(got.offsets, entry.offsets[i : i + 1])
            assert got.offsets.dtype == np.int64 and got.tied.dtype == bool
            assert got.tied.tolist() == entry.tied[i : i + 1].tolist()
            # The winner is a C-contiguous copy of its own, so an op's output
            # never keeps the components alive; the offsets are a view of the
            # read-only phase table.
            assert one.flags.c_contiguous and one.base is None
            assert not np.shares_memory(one, comps) and np.shares_memory(got.offsets, phases)
            for flags in (got.offsets, got.tied):
                with pytest.raises(ValueError):
                    flags[0] = 1
            # Without components only the entry comes back, the same one.
            none, offsets_only = best_phase(None, scores[i : i + 1], lay, kind)
            assert none is None and offsets_only is got
        none, offsets_only = best_phase(None, scores, lay, kind)
        assert none is None and offsets_only == entry


def test_best_phase_rejects_an_unknown_kind():
    # Every call, one sample or more: a failed entry is never cached.
    lay = layout((8,), 2, "size")
    for scores in ([[1.0, 2.0]], [[1.0, 2.0]], [[1.0, 2.0], [2.0, 1.0]]):
        with pytest.raises(ValueError, match="unknown trace kind"):
            best_phase(None, np.array(scores), lay, "pool")


# ------------------------------------------------------- wrappers / freeze --


@pytest.mark.parametrize("shape, off", [((7, 2), (3,)), ((4, 6, 3), (1, -2))])
def test_shift_stack_result_equals_roll_and_is_fresh(shape, off):
    x = np.random.default_rng(8).uniform(-1, 1, (1, *shape))
    out = shift_stack(x, np.array([off]))
    rolled = np.roll(x, [-o for o in off], axis=tuple(range(1, len(off) + 1)))
    assert np.array_equal(out, rolled)
    assert not np.shares_memory(out, x)


def test_gridsignal_shapes_and_properties():
    x = GridSignal(np.zeros((6, 2)))
    assert x.shape == (6,) and x.rank == 1 and x.channels == 2
    y = GridSignal(np.zeros((4, 5, 3)))
    assert y.shape == (4, 5) and y.rank == 2 and y.channels == 3


def test_gridsignal_rejects_bad_ranks():
    with pytest.raises(ShapeError):
        GridSignal(np.zeros(4))
    with pytest.raises(ShapeError):
        GridSignal(np.zeros((2, 2, 2, 2)))
    with pytest.raises(ShapeError):
        GridSignal(np.zeros((0, 3)))


# Every class or function that takes outside values as float64 arrays.
BOUNDARIES = {
    "AttentionParams": lambda values: AttentionParams(values, values, values),
    "GridSignal": GridSignal,
    "MergeConfig": lambda values: MergeConfig(2, values),
    "PatchEmbedConfig": lambda values: PatchEmbedConfig(2, values),
    "SignalBatch": SignalBatch,
    "TokenMatrix": lambda values: TokenMatrix(values, (4,)),
    "RpeTable": lambda values: RpeTable("adaptive", values),
    "checked_array": lambda values: checked_array(values, "weights", (1, 2, 3)),
}
# The shape a boundary takes where (4, 2) is not one.
ACCEPTED_SHAPES = {"SignalBatch": (1, 4, 2)}
NOT_REAL_ARRAYS = {
    "ragged": [np.zeros((4, 2)), np.zeros((8, 2))],
    "string": "abc",
    "strings": [["1.0", "2.0"], ["3.0", "4.0"]],
    "complex": np.full((4, 2), 1.0 + 0.5j),
    "complex with zero imaginary part": np.zeros((4, 2), dtype=complex),
    "objects": [[object(), object()]] * 4,
    "booleans": np.ones((4, 2), bool),
}


@pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
@pytest.mark.parametrize("values", sorted(NOT_REAL_ARRAYS))
def test_boundaries_reject_values_that_are_not_real_arrays(boundary, values):
    # A ShapeError, not a bare ValueError or TypeError, and no ComplexWarning
    # for a complex array silently cut to its real part.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ShapeError):
            BOUNDARIES[boundary](NOT_REAL_ARRAYS[values])


@pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
def test_boundaries_reject_non_finite_entries_and_empty_axes(boundary):
    # One rule at every boundary: the form is a ShapeError, and an array of
    # an accepted form that holds a non-finite entry a ParameterError.
    make, shape = BOUNDARIES[boundary], ACCEPTED_SHAPES.get(boundary, (4, 2))
    make(np.ones(shape))
    for bad in (np.nan, np.inf, -np.inf):
        values = np.ones(shape)
        values.flat[3] = bad
        with pytest.raises(ParameterError, match="finite"):
            make(values)
    for axis in range(len(shape)):
        with pytest.raises(ShapeError):
            make(np.ones(shape[:axis] + (0,) + shape[axis + 1 :]))


# Every integer field of a class that takes outside values, as a call with
# that field set, and the error class the class raises for a bad value.
INTEGER_FIELDS = {
    "PatchEmbedConfig.patch_len": (lambda v: PatchEmbedConfig(v, np.ones((8, 4))), ParameterError),
    "WindowConfig.window": (WindowConfig, ParameterError),
    "MergeConfig.factor": (lambda v: MergeConfig(v, np.ones((8, 8))), ParameterError),
    "TokenMatrix.grid_shape": (lambda v: TokenMatrix(np.zeros((4, 2)), (v,)), ShapeError),
    "ShiftSampler.max_offset": (ShiftSampler, ParameterError),
    "ShiftSampler.max_offset axis": (lambda v: ShiftSampler((3, v)), ParameterError),
    "ShiftSampler.pairs_per_input": (lambda v: ShiftSampler((3,), v), ParameterError),
    "SuiteConfig.trials": (lambda v: SuiteConfig(trials=v), ConfigError),
    "SuiteConfig.seed": (lambda v: SuiteConfig(seed=v), ConfigError),
    "SuiteConfig.lemma_n": (lambda v: SuiteConfig(lemma_n=(v,)), ConfigError),
    "SuiteConfig.lemma_l": (lambda v: SuiteConfig(lemma_l=(v,)), ConfigError),
    "ModelConfig.channels": (lambda v: ModelConfig(channels=v), ConfigError),
    "ModelConfig.seed": (lambda v: ModelConfig(seed=v), ConfigError),
    "as_offsets offset": (lambda v: as_offsets([v], 1), ShapeError),
}
# Each would pass as 4 where a plain int() conversion stood.
NOT_INTEGERS = {"float": 2.5, "bool": True, "string": "4", "integral float": 4.0}


@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
@pytest.mark.parametrize("value", sorted(NOT_INTEGERS))
def test_integer_fields_reject_values_that_are_not_integers(field, value):
    make, error = INTEGER_FIELDS[field]
    make(4)
    with pytest.raises(error):
        make(NOT_INTEGERS[value])


@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
def test_integer_fields_take_numpy_integers(field):
    # A NumPy integer is an integer; a config keeps it as a plain int, so the
    # dict a report is written from stays JSON.
    made = INTEGER_FIELDS[field][0](np.int64(4))
    if hasattr(made, "to_dict"):
        assert json.loads(json.dumps(made.to_dict())) == made.to_dict()


# Every name field: a call with it set, the names it takes, its error class.
NAME_FIELDS = {
    "PatchEmbedConfig.invariant_fn": (
        lambda v: PatchEmbedConfig(4, np.ones((8, 4)), v), "sum_l2", ParameterError
    ),
    "WindowConfig.energy_fn": (lambda v: WindowConfig(4, 2.0, v), "max", ParameterError),
    "RpeTable.kind": (lambda v: RpeTable(v, np.zeros(4)), "adaptive", ParameterError),
    "SuiteConfig.suites": (lambda v: SuiteConfig(suites=(v,)), "claim1", ConfigError),
    "SuiteConfig.disable": (lambda v: SuiteConfig(disable=(v,)), "a_wsa", ConfigError),
    "ModelConfig.disable": (lambda v: ModelConfig().disable(v), "a_wsa", ConfigError),
}


@pytest.mark.parametrize("field", sorted(NAME_FIELDS))
@pytest.mark.parametrize("value", ["unknown", 4, None, ["max"], True])
def test_name_fields_reject_values_that_are_not_their_names(field, value):
    make, name, error = NAME_FIELDS[field]
    make(name)
    with pytest.raises(error):
        make(value)


@pytest.mark.parametrize(
    "make", [lambda p: WindowConfig(4, p), lambda p: MergeConfig(2, np.ones((8, 8)), p)],
    ids=["WindowConfig", "MergeConfig"],
)
def test_norm_orders_take_numbers_but_not_bools(make):
    # The rule ModelConfig.energy_p has: an int or a float >= 1, never a bool.
    assert make(1.5).energy_p == 1.5 and make(2).energy_p == 2
    with pytest.raises(ParameterError):
        make(True)


# Every op that takes a size or a norm order bare, not from a config class, as
# a call on a rank-1 or rank-2 grid with that argument set, and the words of
# its rule; the tests' patch reference checks its patch_len by the package's
# rule too.  The ops cache by these arguments, and a cache refuses an
# unhashable one with a TypeError before any rule is checked.
BARE_ARGUMENTS = {
    "aps factor": (
        lambda grid, v: aps(TokenMatrix(np.ones((np.prod(grid), 2)), grid), v),
        "factor must be an integer >= 1",
    ),
    "aps energy_p": (
        lambda grid, v: aps(TokenMatrix(np.ones((np.prod(grid), 2)), grid), 2, v),
        "lp_norm order p must be a finite number >= 1",
    ),
    "lp_norm p": (
        lambda grid, v: lp_norm(np.ones((*grid, 2)), v),
        "lp_norm order p must be a finite number >= 1",
    ),
    "reshape_patches patch_len": (
        lambda grid, v: reshape_patches(GridSignal(np.ones((*grid, 2))), v),
        "patch_len must be an integer >= 1",
    ),
}
UNHASHABLE = {"list": [2], "list of floats": [2.0], "array": np.array([2])}


@pytest.mark.parametrize("argument", sorted(BARE_ARGUMENTS))
@pytest.mark.parametrize("value", sorted(UNHASHABLE))
@pytest.mark.parametrize("grid", [(8,), (4, 4)])
def test_bare_arguments_refuse_unhashable_values_by_their_rules(argument, value, grid):
    make, words = BARE_ARGUMENTS[argument]
    make(grid, 2)
    with pytest.raises(ParameterError, match=re.escape(words)):
        make(grid, UNHASHABLE[value])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gridsignal_rejects_non_finite_data(bad):
    data = np.zeros((4, 2))
    data[2, 1] = bad
    with pytest.raises(ParameterError):
        GridSignal(data)
    with pytest.raises(ParameterError):
        GridSignal(data[:, 1].reshape(2, 2, 1))


def test_frozen_arrays_are_read_only():
    arr = freeze([1.0, 2.0])
    with pytest.raises(ValueError):
        arr[0] = 9.0
    x = GridSignal(np.ones((3, 1)))
    with pytest.raises(ValueError):
        x.data[0, 0] = 2.0


def test_blocks_layout_and_inverse():
    # Blocks row-major over the grid, positions row-major within each block;
    # `wsa` gathers them back through the inverse permutation.
    rng = np.random.default_rng(31)
    for grid, b in (((6,), 3), ((4, 8), 2), ((8, 4), 4), ((2, 6), 2), ((6, 6), 3)):
        arr = rng.uniform(-1, 1, (*grid, 3))
        rows = arr.reshape(-1, 3)
        stack = rows.take(index_at(grid, b, b, (0,) * len(grid)), axis=0)
        anchors = product(*(range(0, g, b) for g in grid))
        for k, anchor in enumerate(anchors):
            for i, delta in enumerate(product(range(b), repeat=len(grid))):
                cell = tuple(a + d for a, d in zip(anchor, delta))
                assert np.array_equal(stack[k, i], arr[cell])
        inverse = layout(grid, b, "window").untile
        assert inverse is layout(grid, b, "window").untile
        assert np.array_equal(stack.reshape(rows.shape).take(inverse, axis=0), rows)
