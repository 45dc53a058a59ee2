"""Consistency metrics: samplers, zero-pad shifts, scores on real models."""

import statistics

import numpy as np
import pytest

from eqvit import GridSignal, circular_shift
from eqvit.errors import ParameterError, ShapeError
from eqvit.metrics import (
    ConsistencyReport,
    ShiftSampler,
    c_cons,
    compare_shift_pairs,
    mascc,
    pass_pairs,
    s_cons_zeropad,
    shift_stack,
    synthetic_inputs,
)
from eqvit.pipeline import SWITCHES, ModelConfig, build_model, classify, encode_decode
from reference import zero_pad_shift


def sig(values) -> GridSignal:
    return GridSignal(np.asarray(values, dtype=float)[..., None])


def noise_inputs(count: int, seed: int) -> list[GridSignal]:
    # Uniform noise only: no impulses, so adaptive selections stay tie-free.
    rng = np.random.default_rng(seed)
    return [GridSignal(rng.uniform(-1, 1, (64, 2))) for _ in range(count)]


# ------------------------------------------------------------ ShiftSampler --


def test_sampler_for_shape_uses_half_range():
    assert ShiftSampler.for_shape((64,)).max_offset == (31,)
    assert ShiftSampler.for_shape((8, 12)).max_offset == (3, 5)
    assert ShiftSampler.for_shape((2,)).max_offset == (0,)


def test_sampler_normalizes_scalar_max():
    assert ShiftSampler(max_offset=7).max_offset == (7,)


def test_sample_pairs_shape_and_bounds():
    sampler = ShiftSampler(max_offset=(3, 5), pairs_per_input=4, seed=2)
    pairs = sampler.sample_pairs(6)
    assert pairs.shape == (6, 4, 2, 2)
    assert pairs.min() >= 0
    assert pairs[..., 0].max() <= 3 and pairs[..., 1].max() <= 5


def test_sample_pairs_deterministic_per_seed():
    a = ShiftSampler(max_offset=(31,), seed=5).sample_pairs(10)
    b = ShiftSampler(max_offset=(31,), seed=5).sample_pairs(10)
    c = ShiftSampler(max_offset=(31,), seed=6).sample_pairs(10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sampler_check_shape():
    sampler = ShiftSampler(max_offset=(31,))
    sampler.check_shape((64,))
    with pytest.raises(ShapeError):
        sampler.check_shape((8, 8))
    with pytest.raises(ShapeError):
        sampler.check_shape((16,))


def test_sampler_validation():
    with pytest.raises(ParameterError):
        ShiftSampler(max_offset=(4,), pairs_per_input=0)
    with pytest.raises(ParameterError):
        ShiftSampler(max_offset=(-1,))


# ------------------------------------------------------ zero-padded shifts --


def test_zeropad_drops_wrapped_entries():
    out = zero_pad_shift(sig([1, 2, 3, 4]), 1)
    assert np.array_equal(out.data[:, 0], [2, 3, 4, 0])


def test_zeropad_zero_offset_is_identity():
    x = sig([1, 2, 3, 4])
    assert np.array_equal(zero_pad_shift(x, 0).data, x.data)


def test_zeropad_full_shift_clears_signal():
    assert np.all(zero_pad_shift(sig([1, 2, 3]), 3).data == 0)


def test_zeropad_rank2():
    x = GridSignal(np.arange(9, dtype=float).reshape(3, 3, 1))
    out = zero_pad_shift(x, (1, 2))
    expected = np.zeros((3, 3))
    expected[0, 0] = 5
    expected[1, 0] = 8
    assert np.array_equal(out.data[..., 0], expected)


def test_zeropad_rejects_negative_offsets():
    with pytest.raises(ParameterError):
        shift_stack(sig([1, 2]).data[np.newaxis], np.array([[-1]]), zero_pad=True)


@pytest.mark.parametrize("shape", [(7,), (4, 5)])
def test_zeropad_stack_pads_with_positive_zeros(shape):
    # Negative values and negative zeros: a pad that multiplied by a mask
    # would leave -0.0 where the shift runs past the end.
    rng = np.random.default_rng(0)
    stack = -rng.uniform(0.5, 1.0, size=(6, *shape, 2))
    stack[:, ::2] = -0.0
    offsets = rng.integers(0, max(shape) + 1, size=(6, len(shape)))
    out = shift_stack(stack, offsets, zero_pad=True)
    for x, off, got in zip(stack, offsets, out):
        # Position n holds x[n + off] where that lies inside the grid on every axis.
        inside = np.ones(shape, dtype=bool)
        for a, (g, o) in enumerate(zip(shape, off)):
            axis = np.arange(g) + o < g
            inside &= axis.reshape([g if b == a else 1 for b in range(len(shape))])
        assert np.array_equal(got, zero_pad_shift(GridSignal(x), tuple(off)).data)
        assert not np.signbit(got[~inside]).any() and np.all(got[~inside] == 0.0)
        rolled = np.roll(x, tuple(-o for o in off), axis=tuple(range(len(shape))))
        assert np.array_equal(np.signbit(got[inside]), np.signbit(rolled[inside]))
        assert np.array_equal(got[inside], rolled[inside])


def test_zeropad_stack_rejects_negative_offsets():
    stack = np.ones((2, 4, 4, 1))
    with pytest.raises(ParameterError):
        shift_stack(stack, np.array([[0, 1], [2, -1]]), zero_pad=True)
    model = build_model(ModelConfig())
    inputs = np.ones((1, 64, 2))
    with pytest.raises(ParameterError):
        compare_shift_pairs(model, inputs, np.array([[[[-1], [0]]]]), zero_pad=True)
    # A circular shift takes any offset, mod the grid.
    assert np.array_equal(shift_stack(stack, np.array([[0, 1], [2, -1]])), stack)


# ------------------------------------------------------ ConsistencyReport --


def test_report_requires_records():
    with pytest.raises(ParameterError):
        ConsistencyReport("c_cons", np.zeros(0), np.zeros(0), np.zeros(0, bool))
    with pytest.raises(ParameterError):
        c_cons(build_model(ModelConfig()), [], ShiftSampler(max_offset=(31,)))


def test_report_aggregates():
    # Three pairs: agreement, divergence and tie columns.
    agreement, divergence = np.array([1.0, 0.0, 1.0]), np.array([0.5, 2.0, 0.0])
    rep = ConsistencyReport("c_cons", agreement, divergence, np.array([False, True, False]))
    assert rep.trials == 3
    assert rep.aggregate == pytest.approx(2.0 / 3.0)
    assert rep.max_divergence == 2.0
    assert rep.tie_count == 1
    assert set(rep.summary()) == {
        "metric", "trials", "aggregate", "max_divergence", "tie_count",
    }


def test_report_aggregate_is_the_float_mean_of_its_agreement():
    # The bits `statistics.fmean` gives, which the report bytes were written with.
    rng = np.random.default_rng(41)
    for n in (1, 2, 3, 7, 200, 1000):
        for agreement in (rng.integers(0, 2, n).astype(float), rng.uniform(0, 1, n)):
            rep = ConsistencyReport("mascc", agreement, np.zeros(n), np.zeros(n, bool))
            assert rep.aggregate == statistics.fmean(agreement.tolist())


# ------------------------------------------------- models that must score 1 --


def test_constant_inputs_score_one():
    # Every shift of a constant input is the input itself, and with every
    # switch off no selection can tie, so labels and logits agree bit for bit.
    model = build_model(ModelConfig().disable(*SWITCHES))
    inputs = [GridSignal(np.full((64, 2), v)) for v in (0.3, -1.2, 2.0)]
    sampler = ShiftSampler(max_offset=(31,), seed=0)
    rep = c_cons(model, inputs, sampler)
    assert rep.metric == "c_cons"
    assert rep.trials == 15
    assert rep.aggregate == 1.0
    assert rep.max_divergence == 0.0
    assert rep.tie_count == 0


def test_pointwise_decoder_scores_one():
    # One-position patches and no stages: each position's map row is its own
    # projection, so rolling the decoded map back undoes the input shift bit
    # for bit, with or without the switches.
    cfg = ModelConfig(patch_len=1, depth=0, windows=(), merge_factors=())
    sampler = ShiftSampler(max_offset=(31,), seed=1)
    for model in (build_model(cfg), build_model(cfg.disable(*SWITCHES))):
        rep = mascc(model, noise_inputs(3, 1), sampler)
        assert rep.tie_count == 0
        assert rep.aggregate == 1.0
        assert rep.max_divergence == 0.0


# ------------------------------------------------------------- real models --


def test_adaptive_model_label_consistency_is_exact():
    model = build_model(ModelConfig())
    sampler = ShiftSampler.for_shape((64,), seed=12)
    rep = c_cons(model, noise_inputs(8, 21), sampler)
    assert rep.tie_count == 0
    assert rep.aggregate == 1.0
    assert rep.max_divergence <= 1e-9


def test_adaptive_model_map_consistency_is_exact():
    model = build_model(ModelConfig())
    sampler = ShiftSampler.for_shape((64,), seed=12)
    rep = mascc(model, noise_inputs(8, 21), sampler)
    assert rep.tie_count == 0
    assert rep.aggregate == 1.0
    assert rep.max_divergence <= 1e-9


def test_baseline_model_label_consistency_drops():
    cfg = ModelConfig()
    model = build_model(cfg.disable(*SWITCHES))
    inputs = synthetic_inputs(cfg.input_shape, cfg.channels, 8, seed=11)
    sampler = ShiftSampler.for_shape(cfg.input_shape, seed=12)
    rep = c_cons(model, inputs, sampler)
    assert rep.aggregate < 1.0
    assert rep.aggregate == pytest.approx(0.475)


def test_zeropad_consistency_drops_below_one():
    # Adaptive routing only defends circular shifts; zero-filled content
    # changes window energies, so some labels legitimately flip.
    cfg = ModelConfig()
    model = build_model(cfg)
    inputs = synthetic_inputs(cfg.input_shape, cfg.channels, 8, seed=11)
    sampler = ShiftSampler.for_shape(cfg.input_shape, seed=12)
    rep = s_cons_zeropad(model, inputs, sampler)
    assert rep.aggregate < 1.0
    assert rep.aggregate == pytest.approx(0.875)


def test_zeropad_consistency_trivial_cases_score_one():
    model = build_model(ModelConfig())
    zero_shift = ShiftSampler(max_offset=(0,), seed=3)
    rep = s_cons_zeropad(model, noise_inputs(2, 4), zero_shift)
    assert rep.aggregate == 1.0 and rep.max_divergence == 0.0

    zeros = [GridSignal(np.zeros((64, 2)))]
    rep = s_cons_zeropad(model, zeros, ShiftSampler(max_offset=(31,), seed=3))
    assert rep.aggregate == 1.0


def test_metric_runs_are_reproducible():
    model = build_model(ModelConfig(seed=8))
    sampler = ShiftSampler.for_shape((64,), seed=9)
    a = c_cons(model, noise_inputs(4, 10), sampler)
    b = c_cons(model, noise_inputs(4, 10), sampler)
    for column in ("agreement", "divergence", "tied"):
        assert np.array_equal(getattr(a, column), getattr(b, column))


def test_metrics_validate_input_shape():
    model = build_model(ModelConfig())
    sampler = ShiftSampler(max_offset=(40,), seed=0)
    with pytest.raises(ShapeError):
        c_cons(model, [GridSignal(np.zeros((32, 2)))], sampler)


# -------------------------------------------------------- synthetic_inputs --


def test_synthetic_inputs_cycle_and_shapes():
    batch = synthetic_inputs((16,), 2, 8, seed=0)
    assert len(batch) == 8
    assert all(x.data.shape == (16, 2) for x in batch)
    for i in (2, 6):  # spike slots: one nonzero sample
        assert np.count_nonzero(batch[i].data) == 1
    for i in (3, 7):  # ramp slots: monotone along the axis
        assert np.all(np.diff(batch[i].data[:, 0]) > 0)


def test_synthetic_inputs_deterministic():
    a = synthetic_inputs((16,), 2, 6, seed=5)
    b = synthetic_inputs((16,), 2, 6, seed=5)
    assert all(np.array_equal(x.data, y.data) for x, y in zip(a, b))


# ----------------------------------------------------- compare_shift_pairs --


def pair_reference(model, x, off_a, off_b, zero_pad):
    """One pair, each shift alone through the one-sample heads, maps rolled back."""
    shift = zero_pad_shift if zero_pad else circular_shift
    axes = tuple(range(x.rank))
    (logits_a, label_a, trace_a), (logits_b, label_b, trace_b) = (
        classify(model, shift(x, off)) for off in (off_a, off_b)
    )
    back_a, back_b = (
        np.roll(encode_decode(model, shift(x, off))[0], off, axis=axes) for off in (off_a, off_b)
    )
    return (
        label_a == label_b,
        float(np.mean(np.argmax(back_a, -1) == np.argmax(back_b, -1))),
        float(np.max(np.abs(logits_a - logits_b))),
        float(np.max(np.abs(back_a - back_b))),
        trace_a.any_tied or trace_b.any_tied,
    )


@pytest.mark.parametrize(
    "cfg", [ModelConfig(), ModelConfig(input_shape=(8, 8), patch_len=2, windows=(2, 2))]
)
@pytest.mark.parametrize("zero_pad", [False, True])
def test_compare_shift_pairs_equals_per_pair_reference(cfg, zero_pad):
    # 37 pairs: more than one pass, and not a multiple of a pass or a decoded slice.
    model, pairs = build_model(cfg), 37
    assert pairs > pass_pairs(cfg) and pairs % pass_pairs(cfg) and pairs % 8
    inputs = synthetic_inputs(cfg.input_shape, cfg.channels, pairs, seed=2)
    rng = np.random.default_rng(3)
    offs = rng.integers(0, max(cfg.input_shape), size=(2, pairs, 1, cfg.rank))
    stack, pair_offs = np.stack([x.data for x in inputs]), np.moveaxis(offs, 0, 2)
    dense = compare_shift_pairs(model, stack, pair_offs, zero_pad=zero_pad)
    labels_only = compare_shift_pairs(model, stack, pair_offs, zero_pad=zero_pad, dense=False)
    expected = [
        pair_reference(model, x, tuple(a[0]), tuple(b[0]), zero_pad)
        for x, a, b in zip(inputs, *offs.tolist())
    ]
    assert [tuple(c) for c in zip(*(c.tolist() for c in dense))] == expected
    same_label, agreement, logit_div, map_div, tied = labels_only
    assert agreement is None and map_div is None
    assert same_label.tolist() == [e[0] for e in expected]
    assert logit_div.tolist() == [e[2] for e in expected]
    assert tied.tolist() == [e[4] for e in expected]
    assert any(e[4] for e in expected) and not all(e[4] for e in expected)


def test_compare_shift_pairs_takes_offsets_as_the_sampler_draws_them():
    model, inputs = build_model(ModelConfig()), np.ones((2, 64, 2))
    for shape in ((2, 3, 1), (2, 0, 2, 1), (1, 3, 2, 1), (2, 3, 2, 2), (2, 3, 3, 1)):
        with pytest.raises(ShapeError, match="offsets of shape"):
            compare_shift_pairs(model, inputs, np.zeros(shape, dtype=np.int64))


def test_offsets_near_the_int64_ends_act_mod_the_grid():
    # Circular shifts take any offset mod the grid, and a zero-padded shift past
    # the end clears the signal, with no overflow and no wrap loop on the way.
    cfg = ModelConfig()
    model, g = build_model(cfg), cfg.input_shape[0]
    stack = np.stack([x.data for x in synthetic_inputs(cfg.input_shape, cfg.channels, 4, seed=5)])
    small = np.random.default_rng(6).integers(0, g, size=(2, 4, 1, 1))
    top = np.iinfo(np.int64).max // g * g
    far = (small[0] + top - g, small[1] - top)
    for dense in (True, False):
        got = compare_shift_pairs(model, stack, np.stack(far, axis=2), dense=dense)
        want = compare_shift_pairs(model, stack, np.moveaxis(small, 0, 2), dense=dense)
        assert [None if c is None else c.tolist() for c in got] == [
            None if c is None else c.tolist() for c in want
        ]
    cleared = shift_stack(stack, np.full((4, 1), np.iinfo(np.int64).max), zero_pad=True)
    assert np.all(cleared == 0.0) and not np.signbit(cleared).any()
