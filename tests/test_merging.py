"""Merging: grouped-projection oracle, the dual convolution route, polyphase
selection, and the scatter inverse.

fullrate_oracle_1d expands the convolution form as explicit mod-index sums,
independent of the tap-loop implementation it certifies.
"""

import numpy as np
import pytest

from eqvit.errors import ParameterError, ShapeError, TraceError
from eqvit.merging import MergeConfig, a_pmerge, aps, pmerge, pmerge_conv_fullrate, unpool
from eqvit.tokenizer import TokenMatrix
from eqvit.trace import MERGE, WSA, SelectionTrace, TraceEntry
from reference import rotated


def pmerge_oracle_1d(t: np.ndarray, p: int, e: np.ndarray) -> np.ndarray:
    rows = [t[p * k : p * (k + 1)].reshape(-1) for k in range(t.shape[0] // p)]
    return np.array(rows) @ e


def fullrate_oracle_1d(t: np.ndarray, p: int, e: np.ndarray) -> np.ndarray:
    # Column k of the projection acts as a circular filter: the tap for
    # in-group position l and token channel j sits at row l*D + j.
    m, d = t.shape
    out = np.zeros((m, e.shape[1]))
    for n in range(m):
        for k in range(e.shape[1]):
            out[n, k] = sum(
                t[(n + l) % m, j] * e[l * d + j, k] for l in range(p) for j in range(d)
            )
    return out


def col(values) -> TokenMatrix:
    arr = np.asarray(values, dtype=float)[:, np.newaxis]
    return TokenMatrix(arr, (len(values),))


# ------------------------------------------------------------------ pmerge --


def test_pmerge_pairs_example():
    a, b = 0.6, -1.1
    t = col([1, 2, 3, 4])
    out = pmerge(t, MergeConfig(2, np.array([[a], [b]])))
    assert np.allclose(out.data[0, :, 0], [a + 2 * b, 3 * a + 4 * b], atol=1e-15, rtol=0)
    assert out.grid_shape == (2,)


def test_pmerge_factor_one_identity():
    rng = np.random.default_rng(1)
    t = TokenMatrix(rng.uniform(-1, 1, (4, 3)), (4,))
    out = pmerge(t, MergeConfig(1, np.eye(3)))
    assert np.array_equal(out.data, t.data)


def test_pmerge_zero_tokens():
    out = pmerge(col([0, 0, 0, 0]), MergeConfig(2, np.ones((2, 3))))
    assert np.array_equal(out.data[0], np.zeros((2, 3)))


def test_pmerge_matches_oracle():
    rng = np.random.default_rng(2)
    t = rng.uniform(-1, 1, (8, 3))
    e = rng.uniform(-1, 1, (6, 4))
    out = pmerge(TokenMatrix(t, (8,)), MergeConfig(2, e))
    assert np.allclose(out.data, pmerge_oracle_1d(t, 2, e), atol=1e-12, rtol=0)


def test_pmerge_rank2_grouping_order():
    # 2x2 tile flattened row-major over (position, channel) before projecting.
    t = TokenMatrix(np.arange(8.0).reshape(4, 2), (2, 2))
    out = pmerge(t, MergeConfig(2, np.eye(8)))
    assert np.array_equal(out.data[0], [[0, 1, 2, 3, 4, 5, 6, 7]])
    # Two tiles side by side on a 2x4 grid: rows (0, 1, 4, 5), then (2, 3, 6, 7).
    t = TokenMatrix(np.arange(16.0).reshape(8, 2), (2, 4))
    out = pmerge(t, MergeConfig(2, np.eye(8)))
    assert out.grid_shape == (1, 2)
    assert np.array_equal(out.data[0], [[0, 1, 2, 3, 8, 9, 10, 11], [4, 5, 6, 7, 12, 13, 14, 15]])


def test_pmerge_is_not_shift_equivariant():
    rng = np.random.default_rng(3)
    t = TokenMatrix(rng.uniform(-1, 1, (8, 2)), (8,))
    cfg = MergeConfig(2, rng.uniform(-1, 1, (4, 3)))
    base = pmerge(t, cfg)
    shifted = pmerge(rotated(t, 1), cfg)
    worst = min(
        np.max(np.abs(shifted.data - rotated(base, r).data)) for r in range(base.data.shape[-2])
    )
    assert worst > 1e-6


def test_pmerge_validation():
    rng = np.random.default_rng(4)
    t = TokenMatrix(rng.uniform(-1, 1, (6, 2)), (6,))
    with pytest.raises(ShapeError):
        pmerge(t, MergeConfig(4, np.ones((8, 2))))
    with pytest.raises(ShapeError):
        pmerge(t, MergeConfig(2, np.ones((5, 2))))
    with pytest.raises(ParameterError):
        MergeConfig(0, np.ones((2, 2)))
    for p in (0.0, np.nan, np.inf):
        with pytest.raises(ParameterError):
            MergeConfig(2, np.ones((2, 2)), energy_p=p)
    for empty in (np.zeros((4, 0)), np.zeros((3, 4, 0)), np.zeros((0, 2))):
        with pytest.raises(ShapeError):
            MergeConfig(2, empty)


# ---------------------------------------------------------- fullrate route --


def test_fullrate_impulse_example():
    a, b = 0.9, -0.4
    out = pmerge_conv_fullrate(col([1, 0, 0, 0]), MergeConfig(2, np.array([[a], [b]])))
    assert np.allclose(out.data[0, :, 0], [a, 0, 0, b], atol=1e-15, rtol=0)


def test_fullrate_factor_one_is_projection():
    rng = np.random.default_rng(5)
    t = rng.uniform(-1, 1, (5, 3))
    e = rng.uniform(-1, 1, (3, 2))
    out = pmerge_conv_fullrate(TokenMatrix(t, (5,)), MergeConfig(1, e))
    assert np.allclose(out.data, t @ e, atol=1e-12, rtol=0)


def test_fullrate_matches_oracle():
    rng = np.random.default_rng(6)
    t = rng.uniform(-1, 1, (8, 3))
    e = rng.uniform(-1, 1, (6, 4))
    out = pmerge_conv_fullrate(TokenMatrix(t, (8,)), MergeConfig(2, e))
    assert np.allclose(out.data, fullrate_oracle_1d(t, 2, e), atol=1e-12, rtol=0)


@pytest.mark.parametrize("grid,factor", [((8,), 2), ((12,), 4), ((4, 4), 2), ((6, 6), 2)])
def test_phase_zero_subsample_reproduces_pmerge(grid, factor):
    rng = np.random.default_rng(7)
    d = 3
    t = TokenMatrix(rng.uniform(-1, 1, (int(np.prod(grid)), d)), grid)
    cfg = MergeConfig(factor, rng.uniform(-1, 1, (factor ** len(grid) * d, 2 * d)))
    merged = pmerge(t, cfg)
    full = pmerge_conv_fullrate(t, cfg)
    sub = full.grid()[0][tuple(slice(0, None, factor) for _ in grid)]
    assert np.max(np.abs(merged.grid()[0] - sub)) <= 1e-12


def test_fullrate_rotates_bit_exactly():
    # The fixed tap order plus per-row projection make the full-rate output
    # commute with grid rotation exactly; phase selection relies on this.
    rng = np.random.default_rng(8)
    t = TokenMatrix(rng.uniform(-1, 1, (8, 2)), (8,))
    cfg = MergeConfig(2, rng.uniform(-1, 1, (4, 3)))
    base = pmerge_conv_fullrate(t, cfg)
    for r in range(8):
        out = pmerge_conv_fullrate(rotated(t, r), cfg)
        assert np.array_equal(out.data, rotated(base, r).data)


def test_fullrate_lays_out_its_projection_once_per_tap_count():
    # One 8-row projection merges D = 4 tokens on a line (2 taps) and D = 2
    # tokens on a plane (4 taps): each layout is built once, read-only, and
    # every call gives what a fresh config gives.
    rng = np.random.default_rng(9)
    cfg = MergeConfig(2, rng.uniform(-1, 1, (8, 3)))
    line = TokenMatrix(rng.uniform(-1, 1, (8, 4)), (8,))
    plane = TokenMatrix(rng.uniform(-1, 1, (16, 2)), (4, 4))
    for t in (line, plane, line, plane):
        fresh = pmerge_conv_fullrate(t, MergeConfig(2, cfg.embed))
        assert pmerge_conv_fullrate(t, cfg).data.tobytes() == fresh.data.tobytes()
    assert sorted(cfg.tap_blocks) == [2, 4]
    assert cfg.tap_blocks[2].shape == (4, 6) and cfg.tap_blocks[4].shape == (2, 12)
    assert not any(blocks.flags.writeable for blocks in cfg.tap_blocks.values())
    blocks = cfg.tap_blocks[2]
    pmerge_conv_fullrate(line, cfg)
    assert cfg.tap_blocks[2] is blocks


# --------------------------------------------------------------------- aps --


def test_aps_selects_larger_component():
    out, trace = aps(col([4, 1, 2, 3]), 2)
    assert trace.entries[0].offsets.tolist() == [[0]] and not trace.any_tied
    assert np.array_equal(out.data[0, :, 0], [4, 2])


def test_aps_constant_ties_to_phase_zero():
    out, trace = aps(col([2, 2, 2, 2]), 2)
    assert trace.entries[0].offsets.tolist() == [[0]] and trace.any_tied
    assert np.array_equal(out.data[0, :, 0], [2, 2])


def test_aps_selection_follows_shift():
    base, _ = aps(col([4, 1, 2, 3]), 2)
    out, trace = aps(rotated(col([4, 1, 2, 3]), 1), 2)
    assert trace.entries[0].offsets.tolist() == [[1]]
    assert sorted(out.data[0, :, 0]) == sorted(base.data[0, :, 0])
    assert np.array_equal(out.data, rotated(base, 1).data)


def test_aps_rank2_phases():
    rng = np.random.default_rng(9)
    t = TokenMatrix(rng.uniform(-1, 1, (16, 2)), (4, 4))
    out, trace = aps(t, 2)
    (phase,) = trace.entries[0].offsets.tolist()
    assert out.grid_shape == (2, 2)
    assert tuple(phase) in {(h, w) for h in range(2) for w in range(2)}
    comp = t.grid()[0][phase[0] :: 2, phase[1] :: 2]
    assert np.array_equal(out.grid()[0], comp)


def test_aps_validation():
    with pytest.raises(ParameterError):
        aps(col([1, 2]), 0)
    with pytest.raises(ShapeError):
        aps(col([1, 2, 3]), 2)


RANK_TOKENS = {1: col(np.arange(8.0)), 2: TokenMatrix(np.arange(32.0).reshape(16, 2), (4, 4))}


@pytest.mark.parametrize("rank", sorted(RANK_TOKENS))
def test_aps_checks_factor_and_norm_order_by_the_config_rules(rank):
    # A float, a bool or a NumPy integer factor is what it is, not the int it
    # equals, whichever layout was cached first.
    t = RANK_TOKENS[rank]
    out, _ = aps(t, 2)
    for factor in (2.0, True, 1.0, -1, "2"):
        with pytest.raises(ParameterError, match="factor must be an integer >= 1"):
            aps(t, factor)
    for p in (True, 0.5, float("nan"), float("inf"), "2"):
        with pytest.raises(ParameterError, match="order p must be a finite number >= 1"):
            aps(t, 2, p)
    wide, _ = aps(t, np.int64(2))
    assert wide.grid_shape == out.grid_shape and all(type(g) is int for g in wide.grid_shape)
    assert np.array_equal(wide.data, out.data)


# ---------------------------------------------------------------- a_pmerge --


def test_a_pmerge_factor_one_is_projection():
    rng = np.random.default_rng(10)
    t = rng.uniform(-1, 1, (4, 2))
    e = rng.uniform(-1, 1, (2, 3))
    out, trace = a_pmerge(TokenMatrix(t, (4,)), MergeConfig(1, e))
    assert trace.entries[0].kind == MERGE
    assert trace.entries[0].offsets.tolist() == [[0]]
    assert np.allclose(out.data, t @ e, atol=1e-12, rtol=0)


def test_a_pmerge_same_phase_same_selection():
    # Concentrating the energy two strides later keeps the winning phase.
    rng = np.random.default_rng(11)
    cfg = MergeConfig(2, rng.uniform(-1, 1, (4, 3)))
    base_rows = rng.uniform(-0.1, 0.1, (8, 2))
    a = base_rows.copy()
    a[3] = [50.0, -40.0]
    b = np.roll(a, -2, axis=0)
    _, tr_a = a_pmerge(TokenMatrix(a, (8,)), cfg)
    _, tr_b = a_pmerge(TokenMatrix(b, (8,)), cfg)
    assert tr_a.entries[0] == tr_b.entries[0]


def test_a_pmerge_unit_shift_contract():
    # A unit input rotation leaves the output equal or rotates it by one.
    rng = np.random.default_rng(12)
    cfg = MergeConfig(2, rng.uniform(-1, 1, (4, 3)))
    for _ in range(25):
        t = TokenMatrix(rng.uniform(-1, 1, (8, 2)), (8,))
        base, tb = a_pmerge(t, cfg)
        out, ts = a_pmerge(rotated(t, 1), cfg)
        if tb.any_tied or ts.any_tied:
            continue
        assert np.array_equal(out.data, base.data) or np.array_equal(
            out.data, rotated(base, 1).data
        )


def test_a_pmerge_aligns_exactly_rank2():
    rng = np.random.default_rng(13)
    cfg = MergeConfig(2, rng.uniform(-1, 1, (8, 4)))
    for _ in range(10):
        t = TokenMatrix(rng.uniform(-1, 1, (36, 2)), (6, 6))
        shift = tuple(int(s) for s in rng.integers(0, 6, size=2))
        base, tb = a_pmerge(t, cfg)
        out, ts = a_pmerge(rotated(t, shift), cfg)
        if tb.any_tied or ts.any_tied:
            continue
        assert any(
            np.array_equal(out.data, rotated(base, (rh, rw)).data)
            for rh in range(3)
            for rw in range(3)
        )


# ------------------------------------------------------------------ unpool --


def merge_trace(phase, wsa_offsets=()) -> SelectionTrace:
    entries = [TraceEntry(WSA, [o], [False]) for o in wsa_offsets]
    entries.append(TraceEntry(MERGE, [phase], [False]))
    return SelectionTrace(1, entries)


def test_unpool_scatter_examples():
    out = unpool(col([4, 2]), merge_trace((0,)), 2, 4)
    assert np.array_equal(out.data[0, :, 0], [4, 0, 2, 0])
    out = unpool(col([2, 4]), merge_trace((1,)), 2, 4)
    assert np.array_equal(out.data[0, :, 0], [0, 2, 0, 4])


def test_unpool_inverts_aps():
    rng = np.random.default_rng(14)
    y = TokenMatrix(rng.uniform(-1, 1, (8, 3)), (8,))
    comp, trace = aps(y, 2)
    phase = trace.entries[0].offsets[0]
    restored = unpool(comp, trace, 2, (8,))
    assert np.array_equal(restored.grid()[0][phase[0] :: 2], comp.grid()[0])
    mask = np.ones(8, dtype=bool)
    mask[phase[0] :: 2] = False
    assert np.all(restored.data[0, mask] == 0.0)


def test_unpool_unwinds_window_offsets_in_reverse():
    z = col([4, 2])
    out = unpool(z, merge_trace((0,), wsa_offsets=[(1,), (2,)]), 2, 4)
    scatter = np.zeros((4, 1))
    scatter[0::2] = z.data
    expected = rotated(rotated(TokenMatrix(scatter, (4,)), (-2,)), (-1,))
    assert np.array_equal(out.data, expected.data)


def test_unpool_rank2_scatter():
    rng = np.random.default_rng(15)
    z = TokenMatrix(rng.uniform(-1, 1, (4, 2)), (2, 2))
    out = unpool(z, merge_trace((1, 0)), 2, (4, 4))
    grid = out.grid()[0]
    assert np.array_equal(grid[1::2, 0::2], z.grid()[0])
    assert np.count_nonzero(grid) == np.count_nonzero(z.grid())


def test_unpool_trace_errors():
    z = col([1, 2])
    with pytest.raises(TraceError):
        unpool(z, SelectionTrace(), 2, 4)
    two = SelectionTrace(1, [TraceEntry(MERGE, [(p,)], [False]) for p in (0, 1)])
    with pytest.raises(TraceError):
        unpool(z, two, 2, 4)
    with pytest.raises(TraceError):
        unpool(z, merge_trace((2,)), 2, 4)  # phase outside [0, factor)
    with pytest.raises(TraceError):
        unpool(z, merge_trace((0, 0)), 2, 4)  # rank mismatch
    with pytest.raises(TraceError):
        unpool(z, merge_trace((0,)), 2, 6)  # 6/2 != 2 tokens


def test_merge_outputs_are_read_only():
    rng = np.random.default_rng(16)
    t = TokenMatrix(rng.uniform(-1, 1, (8, 3)), (8,))
    merged, trace = a_pmerge(t, MergeConfig(2, rng.uniform(-0.5, 0.5, (6, 6))))
    for out in (merged, unpool(merged, trace, 2, (8,))):
        with pytest.raises(ValueError):
            out.data[0, 0] = 1.0
