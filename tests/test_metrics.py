"""Consistency metrics: samplers, zero-pad shifts, scores on real models."""

import numpy as np
import pytest

from eqvit import GridSignal
from eqvit.errors import ParameterError, ShapeError
from eqvit.metrics import (
    ConsistencyReport,
    ShiftSampler,
    TrialRecord,
    c_cons,
    mascc,
    s_cons_zeropad,
    shift_zeropad,
    synthetic_inputs,
)
from eqvit.pipeline import SWITCHES, ModelConfig, build_model


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


# ----------------------------------------------------------- shift_zeropad --


def test_zeropad_drops_wrapped_entries():
    out = shift_zeropad(sig([1, 2, 3, 4]), 1)
    assert np.array_equal(out.data[:, 0], [2, 3, 4, 0])


def test_zeropad_zero_offset_is_identity():
    x = sig([1, 2, 3, 4])
    assert np.array_equal(shift_zeropad(x, 0).data, x.data)


def test_zeropad_full_shift_clears_signal():
    assert np.all(shift_zeropad(sig([1, 2, 3]), 3).data == 0)


def test_zeropad_rank2():
    x = GridSignal(np.arange(9, dtype=float).reshape(3, 3, 1))
    out = shift_zeropad(x, (1, 2))
    expected = np.zeros((3, 3))
    expected[0, 0] = 5
    expected[1, 0] = 8
    assert np.array_equal(out.data[..., 0], expected)


def test_zeropad_rejects_negative_offsets():
    with pytest.raises(ParameterError):
        shift_zeropad(sig([1, 2]), -1)


# ------------------------------------------------------ ConsistencyReport --


def test_report_requires_records():
    with pytest.raises(ParameterError):
        ConsistencyReport.from_records("c_cons", [])
    with pytest.raises(ParameterError):
        c_cons(build_model(ModelConfig()), [], ShiftSampler(max_offset=(31,)))


def test_report_aggregates():
    recs = [
        TrialRecord(0, (0,), (1,), 1.0, 0.5, False),
        TrialRecord(0, (2,), (3,), 0.0, 2.0, True),
        TrialRecord(1, (0,), (0,), 1.0, 0.0, False),
    ]
    rep = ConsistencyReport.from_records("c_cons", recs)
    assert rep.trials == 3
    assert rep.aggregate == pytest.approx(2.0 / 3.0)
    assert rep.max_divergence == 2.0
    assert rep.tie_count == 1
    assert set(rep.summary()) == {
        "metric", "trials", "aggregate", "max_divergence", "tie_count",
    }


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
    assert a.records == b.records


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
