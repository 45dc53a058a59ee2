"""Batched kernels against their one-sample calls, and suites against
per-trial reference loops over the public one-sample API."""

import dataclasses
import hashlib
from itertools import product

import numpy as np
import pytest

from eqvit import GridSignal, circular_shift, harness
from eqvit.attention import WINDOW_FNS, AttentionParams, RpeTable, WindowConfig, a_wsa, sa
from eqvit.attention import window_energy, wsa
from eqvit.harness import (
    ABLATION_SEARCH_MODEL,
    PROPERTIES,
    BATCH_ENTRIES,
    TOL_END2END,
    Property,
    SuiteConfig,
    _counterexample,
    run_ablation,
    run_apmerge,
    run_claim1,
    run_claim2,
    run_claim3,
    run_end2end,
    run_lemma1,
    run_metrics,
)
from eqvit.errors import ParameterError, ShapeError
from eqvit.merging import MergeConfig, a_pmerge, aps, pmerge, pmerge_conv_fullrate, unpool
from eqvit.metrics import (
    ConsistencyReport,
    ShiftSampler,
    c_cons,
    mascc,
    s_cons_zeropad,
    synthetic_inputs,
)
from eqvit.numerics import SignalBatch, layout, lp_norm, project_rows
from eqvit.pipeline import SWITCHES, ModelConfig, build_model, classify, encode_decode, forward
from eqvit.tokenizer import (
    INVARIANT_FNS,
    PatchEmbedConfig,
    TokenMatrix,
    _token_energy,
    a_token,
    lemma1_sides,
    token,
)
from eqvit.trace import WSA, SelectionTrace, TraceEntry
from reference import full_rate_embed, reshape_patches, rotated, window_score, zero_pad_shift
from trials import batches_of, trial_payloads


def same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def samples(rng, shape, count, dim):
    """Noise, plus a zero and a constant sample whose selections all tie."""
    out = [rng.uniform(-1, 1, (*shape, dim)) for _ in range(count - 2)]
    return [np.zeros((*shape, dim)), *out, np.full((*shape, dim), 0.5)]


def batch_of(mats, grid) -> TokenMatrix:
    return TokenMatrix(np.concatenate([m.data for m in mats]), grid)


def signal_batch(xs) -> SignalBatch:
    return SignalBatch([x.data for x in xs])


def assert_batch_equals_singles(batched, singles):
    """A batched (tokens, trace) result against the one-sample results."""
    tokens, trace = batched
    assert len(tokens.data) == len(singles) and len(singles[0][0].data) == 1
    for i, (one, one_trace) in enumerate(singles):
        assert same(tokens.data[i], one.data[0])
        assert trace.rows(i, i + 1) == one_trace


TOKEN_GRIDS = [(16,), (4, 4), (4, 8), (32, 32)]


@pytest.mark.parametrize("grid", TOKEN_GRIDS)
def test_token_ops_batch_equals_singles(grid):
    rng = np.random.default_rng(1)
    d, m = 4, int(np.prod(grid))
    mats = [TokenMatrix(a.reshape(m, d), grid) for a in samples(rng, grid, 5, d)]
    batch = batch_of(mats, grid)
    params = AttentionParams(*(rng.uniform(-0.5, 0.5, (d, d)) for _ in range(3)))
    for w, energy_fn in product((2, 4), WINDOW_FNS):
        cfg = WindowConfig(w, 2.0, energy_fn)
        bias = [
            RpeTable("none"),
            RpeTable("original", rng.uniform(-0.5, 0.5, (2 * w - 1,) * len(grid))),
            RpeTable("adaptive", rng.uniform(-0.5, 0.5, (w,) * len(grid))),
        ]
        energies = window_energy(batch, cfg)
        for i, t in enumerate(mats):
            assert same(energies[i], window_energy(t, cfg)[0])
        for rpe in bias:
            singles = [a_wsa(t, cfg, params, rpe) for t in mats]
            assert_batch_equals_singles(a_wsa(batch, cfg, params, rpe), singles)
            out = wsa(batch, cfg, params, rpe)
            for i, t in enumerate(mats):
                assert same(out.data[i], wsa(t, cfg, params, rpe).data[0])
    full_grid_bias = RpeTable("adaptive", rng.uniform(-0.5, 0.5, grid))
    out = sa(batch, params, full_grid_bias)
    assert all(same(out.data[i], sa(t, params, full_grid_bias).data[0]) for i, t in enumerate(mats))
    for p, energy_p in product((2, 4), (1.0, 2.0, 3.0)):
        merge = MergeConfig(p, rng.uniform(-0.5, 0.5, (p ** len(grid) * d, 2 * d)), energy_p)
        for op in (pmerge, pmerge_conv_fullrate):
            out = op(batch, merge)
            assert all(same(out.data[i], op(t, merge).data[0]) for i, t in enumerate(mats))
        merged, trace = a_pmerge(batch, merge)
        singles = [a_pmerge(t, merge) for t in mats]
        assert_batch_equals_singles((merged, trace), singles)
        assert_batch_equals_singles(aps(batch, p, energy_p), [aps(t, p, energy_p) for t in mats])
        restored = unpool(merged, trace, p, grid)
        for i, (one, one_trace) in enumerate(singles):
            assert same(restored.data[i], unpool(one, one_trace, p, grid).data[0])


@pytest.mark.parametrize("shape, patch", [((16,), 4), ((8, 8), 2), ((16, 32), 4), ((32, 32), 4)])
@pytest.mark.parametrize("energy", ["sum_l2", "max_l2", "sum_l1"])
def test_tokenizer_batch_equals_singles(shape, patch, energy):
    rng = np.random.default_rng(2)
    xs = [GridSignal(a) for a in samples(rng, shape, 5, 2)]
    cfg = PatchEmbedConfig(patch, rng.uniform(-0.5, 0.5, (patch ** len(shape) * 2, 8)), energy)
    assert_batch_equals_singles(a_token(signal_batch(xs), cfg), [a_token(x, cfg) for x in xs])
    taps = layout(shape, patch, "patch_len", 2).taps
    tokens = token(signal_batch(xs), cfg)
    full = full_rate_embed(signal_batch(xs).data, taps, cfg.embed)
    for i, x in enumerate(xs):
        assert same(tokens.data[i], token(x, cfg).data[0])
        assert same(full[i], full_rate_embed(x.data[np.newaxis], taps, cfg.embed)[0])


@pytest.mark.parametrize(
    "shape, patch, axis",
    [((12,), 3, 0), ((8,), 1, 0), ((8, 8), 2, 0), ((8, 8), 2, 1), ((4, 8), 4, 1)],
)
def test_lemma1_sides_batch_equals_singles(shape, patch, axis):
    rng = np.random.default_rng(6)
    xs = [GridSignal(a) for a in samples(rng, shape, 6, 2)]
    cfg = PatchEmbedConfig(patch, rng.uniform(-0.5, 0.5, (patch ** len(shape) * 2, 5)))
    offs = [tuple(rng.integers(0, patch, len(shape)).tolist()) for _ in xs]
    left, right = lemma1_sides(signal_batch(xs), cfg, offs, axis)
    unit = tuple(int(a == axis) for a in range(len(shape)))
    grid = tuple(n // patch for n in shape)
    for i, (x, off) in enumerate(zip(xs, offs)):
        one_left, one_right = (side[0] for side in lemma1_sides(x, cfg, [off], axis))
        assert same(left[i], one_left) and same(right[i], one_right)
        # Each side as its definition composes it from the public ops.
        advanced = tuple((o + u) % patch for o, u in zip(off, unit))
        carry = tuple((o + u) // patch for o, u in zip(off, unit))
        shifted = reshape_patches(circular_shift(x, unit), patch, off)
        assert same(one_left, project_rows(shifted[np.newaxis], cfg.embed)[0])
        rows = project_rows(reshape_patches(x, patch, advanced)[np.newaxis], cfg.embed)
        assert same(one_right, rotated(TokenMatrix(rows, grid), carry).data[0])
        assert same(one_left, one_right)


def test_lemma1_sides_checks_offsets():
    xs = SignalBatch(np.zeros((2, 8, 2)))
    cfg = PatchEmbedConfig(2, np.ones((4, 3)))
    with pytest.raises(ShapeError):
        lemma1_sides(xs, cfg, [0])
    with pytest.raises(ParameterError):
        lemma1_sides(xs, cfg, [0, 2])
    with pytest.raises(ParameterError):
        lemma1_sides(GridSignal(np.zeros((8, 2))), cfg, [-1])
    with pytest.raises(ParameterError):
        lemma1_sides(xs, cfg, [0, 1], axis=1)


@pytest.mark.parametrize("grid", [(8,), (12,), (4, 4), (8, 8)])
@pytest.mark.parametrize("energy_p", [1.0, 2.0, 3.0])
def test_per_sample_merge_embeds_equal_single_calls(grid, energy_p):
    rng = np.random.default_rng(7)
    d, p, m = 3, 2, int(np.prod(grid))
    mats = [TokenMatrix(a.reshape(m, d), grid) for a in samples(rng, grid, 6, d)]
    embeds = [rng.uniform(-0.5, 0.5, (p ** len(grid) * d, 2 * d)) for _ in mats]
    singles = [MergeConfig(p, e, energy_p) for e in embeds]
    batch, stacked = batch_of(mats, grid), MergeConfig(p, np.stack(embeds), energy_p)
    for op in (pmerge, pmerge_conv_fullrate):
        out = op(batch, stacked)
        assert all(
            same(out.data[i], op(t, c).data[0]) for i, (t, c) in enumerate(zip(mats, singles))
        )
    pairs = zip(mats, singles)
    assert_batch_equals_singles(a_pmerge(batch, stacked), [a_pmerge(t, c) for t, c in pairs])
    # A stack of embeds needs a batch with one sample per embed.
    with pytest.raises(ShapeError):
        pmerge(mats[0], stacked)
    with pytest.raises(ShapeError):
        pmerge_conv_fullrate(batch_of(mats[:2], grid), stacked)


def test_scorers_reduce_rows_like_single_calls():
    rng = np.random.default_rng(3)
    for n in (1, 3, 8, 9, 17, 130):
        rows = rng.uniform(0, 3, (6, n)) * 10.0 ** rng.uniform(-3, 3, (6, 1))
        # A strided stack must reduce each row as that row alone; the window
        # score sorts a C-contiguous copy, as `a_wsa` sorts its own gather.
        for stack in (rows, np.asfortranarray(rows)):
            scores = window_score(stack, "l2")
            assert all(same(scores[i], window_score(r, "l2")) for i, r in enumerate(rows))
            for p in (1.0, 2.0, 3.0):
                norms = lp_norm(stack, p)
                assert all(same(norms[i], lp_norm(r, p)) for i, r in enumerate(rows))
        # The token energies score each (M, D) matrix of a strided stack as it alone.
        mats = rng.uniform(-3, 3, (4, n, 5)) * 10.0 ** rng.uniform(-3, 3, (4, 1, 1))
        for stack in (mats, np.asfortranarray(mats), mats.transpose(0, 2, 1).swapaxes(1, 2)):
            for name in INVARIANT_FNS:
                scores = _token_energy(stack.copy(), name)
                singles = [_token_energy(m.copy(), name) for m in mats]
                assert all(same(scores[i], s) for i, s in enumerate(singles))


MODELS = [
    ModelConfig(),
    ModelConfig(input_shape=(16, 32), windows=(2, 2)),
    ModelConfig(input_shape=(32, 32), channels=2),
]


@pytest.mark.parametrize("cfg", MODELS, ids=["1d", "2d-16x32", "2d-32x32"])
@pytest.mark.parametrize("off", [None, *SWITCHES])
def test_forward_batch_equals_single_heads(cfg, off):
    model = build_model(cfg.disable(off) if off else cfg)
    rng = np.random.default_rng(4)
    xs = [GridSignal(a) for a in samples(rng, cfg.input_shape, 4, cfg.channels)]
    logits, labels, maps, trace = forward(model, signal_batch(xs))
    assert trace.size == len(xs)
    for i, x in enumerate(xs):
        c_logits, c_label, c_trace = classify(model, x)
        d_map, d_trace = encode_decode(model, x)
        assert same(logits[i], c_logits) and int(labels[i]) == c_label
        assert same(maps[i], d_map)
        assert trace.rows(i, i + 1) == c_trace == d_trace
    assert trace.tied[[0, -1]].all()


@pytest.mark.parametrize("rpe", ["none", "original"])
def test_forward_batch_equals_single_heads_per_rpe(rpe):
    model = build_model(ModelConfig(rpe_kind=rpe))
    xs = [GridSignal(a) for a in samples(np.random.default_rng(5), (64,), 4, 2)]
    logits, labels, maps, _ = forward(model, signal_batch(xs))
    for i, x in enumerate(xs):
        c_logits, c_label, _ = classify(model, x)
        assert same(logits[i], c_logits) and same(maps[i], encode_decode(model, x)[0])


@pytest.mark.parametrize("shape", [(64,), (32, 32)])
def test_batch_outputs_do_not_depend_on_batch_order_or_company(shape):
    model = build_model(ModelConfig(input_shape=shape))
    rng = np.random.default_rng(6)
    count = 64 if shape == (64,) else 16
    xs = [GridSignal(a) for a in samples(rng, shape, count, 2)]
    logits, labels, maps, trace = forward(model, signal_batch(xs))
    r_logits, r_labels, r_maps, r_trace = forward(model, signal_batch(xs[::-1]))
    assert same(r_logits, logits[::-1]) and same(r_labels, labels[::-1])
    assert same(r_maps, maps[::-1])
    reversed_traces = [r_trace.rows(i, i + 1) for i in range(count)]
    assert reversed_traces == [trace.rows(i, i + 1) for i in range(count)][::-1]
    k = count // 2
    alone = forward(model, signal_batch([xs[k]]))
    assert same(alone[0][0], logits[k]) and same(alone[2][0], maps[k])
    assert alone[3].rows(0, 1) == trace.rows(k, k + 1)


def test_batch_of_token_matrices_validates():
    TokenMatrix(np.zeros((3, 4, 2)), (4,))
    with pytest.raises(ShapeError):
        TokenMatrix(np.zeros((3, 5, 2)), (4,))
    with pytest.raises(ShapeError):
        TokenMatrix(np.zeros((1, 3, 4, 2)), (4,))


@pytest.mark.parametrize("shape", [(16,), (8, 8)])
def test_one_sample_is_a_stack_of_one(shape):
    # Below the heads there is one data shape: every op given one signal, or
    # one (M, D) matrix, returns a (1, M, D) stack.
    rng = np.random.default_rng(8)
    rank, d = len(shape), 4
    x = GridSignal(rng.uniform(-1, 1, (*shape, 2)))
    cfg = PatchEmbedConfig(2, rng.uniform(-0.5, 0.5, (2**rank * 2, d)))
    grid = tuple(n // 2 for n in shape)
    t = TokenMatrix(rng.uniform(-1, 1, (int(np.prod(grid)), d)), grid)
    params = AttentionParams(*(rng.uniform(-0.5, 0.5, (d, d)) for _ in range(3)))
    merge = MergeConfig(2, rng.uniform(-0.5, 0.5, (2**rank * d, d)))
    merged, trace = a_pmerge(t, merge)
    outputs = {
        "TokenMatrix": t,
        "token": token(x, cfg),
        "a_token": a_token(x, cfg)[0],
        "sa": sa(t, params),
        "wsa": wsa(t, WindowConfig(2), params),
        "a_wsa": a_wsa(t, WindowConfig(2), params)[0],
        "pmerge": pmerge(t, merge),
        "pmerge_conv_fullrate": pmerge_conv_fullrate(t, merge),
        "aps": aps(t, 2)[0],
        "a_pmerge": merged,
        "unpool": unpool(merged, trace, 2, grid),
    }
    for name, out in outputs.items():
        assert out.data.ndim == 3 and len(out.data) == 1, name
    assert window_energy(t, WindowConfig(2)).shape == (1, *grid)
    sides = lemma1_sides(x, cfg, [(0,) * rank])
    assert all(side.shape == (1, *t.data.shape[1:]) for side in sides)


def test_signal_batches_need_one_shape():
    # The ops take one GridSignal or one SignalBatch.  Any other input form,
    # or a batch whose shape the model does not fit, is a ShapeError, never
    # an AttributeError or a TypeError.
    model = build_model(ModelConfig())
    cfg = model.weights.patch
    xs = [GridSignal(np.full((64, 2), v)) for v in (0.5, -1.0)]
    inputs = {
        "list": lambda: list(xs),
        "generator": lambda: (x for x in xs),
        "empty list": lambda: [],
        "batch with 3 channels": lambda: SignalBatch(np.zeros((2, 64, 3))),
        "batch of length 30": lambda: SignalBatch(np.zeros((2, 30, 2))),
    }
    ops = {
        "forward": lambda x: forward(model, x),
        "a_token": lambda x: a_token(x, cfg),
        "token": lambda x: token(x, cfg),
    }
    for make in inputs.values():
        for op in ops.values():
            with pytest.raises(ShapeError):
                op(make())


# ------------------------------------------------- suites vs reference loops --


def max_abs(a, b) -> float:
    return float(np.max(np.abs(a - b)))


def reference_row(name, results, tolerance):
    """The suite row and first counterexample from per-trial (payload, div, agree, tied)."""
    trials = passes = ties = 0
    max_div, worst = 0.0, None
    for payload, div, agree, tied in results:
        trials += 1
        if tied:
            ties += 1
            continue
        max_div = max(max_div, div)
        if agree and div <= tolerance:
            passes += 1
        elif worst is None:
            worst = _counterexample(name, tolerance, div, payload)
    row = {"name": name, "trials": trials, "passes": passes, "failures": trials - ties - passes,
           "max_divergence": max_div, "tie_count": ties}
    if worst is not None:
        row["counterexample"] = True
    return row, worst


def best_alignment(shifted: TokenMatrix, base: TokenMatrix, step: int = 1) -> float:
    candidates = product(*(range(0, g, step) for g in base.grid_shape))
    return min(max_abs(shifted.data, rotated(base, r).data) for r in candidates)


def claim1_reference(sc):
    for payload, cfg in trial_payloads("claim1", sc):
        x = GridSignal(payload["x"])
        base, tb = a_token(x, cfg)
        out, ts = a_token(circular_shift(x, payload["shift"]), cfg)
        yield payload, best_alignment(out, base), True, tb.any_tied or ts.any_tied


def claim2_reference(sc):
    for payload, (wcfg, params, rpe) in trial_payloads("claim2", sc):
        t = TokenMatrix(payload["t"], tuple(payload["grid"]))
        base, tb = a_wsa(t, wcfg, params, rpe)
        out, ts = a_wsa(rotated(t, tuple(payload["shift"])), wcfg, params, rpe)
        yield payload, best_alignment(out, base, wcfg.window), True, tb.any_tied or ts.any_tied


def lemma1_reference(sc):
    for payload, cfg in trial_payloads("lemma1", sc):
        left, right = lemma1_sides(GridSignal(payload["x"]), cfg, [payload["m"]])
        yield payload, max_abs(left, right), True, False


def claim3_reference(sc):
    for payload, _ in trial_payloads("claim3", sc):
        t = TokenMatrix(payload["t"], tuple(payload["grid"]))
        cfg = MergeConfig(payload["factor"], payload["embed"])
        full = pmerge_conv_fullrate(t, cfg).grid()[0]
        phase_zero = full[tuple(slice(0, None, cfg.factor) for _ in t.grid_shape)]
        yield payload, max_abs(pmerge(t, cfg).grid()[0], phase_zero), True, False


def apmerge_reference(sc):
    for payload, _ in trial_payloads("apmerge", sc):
        t = TokenMatrix(payload["t"], tuple(payload["grid"]))
        cfg = MergeConfig(payload["factor"], payload["embed"], payload["energy_p"])
        base, tb = a_pmerge(t, cfg)
        out, ts = a_pmerge(rotated(t, tuple(payload["shift"])), cfg)
        yield payload, best_alignment(out, base), True, tb.any_tied or ts.any_tied


def end2end_reference(payload, model):
    """One trial through the one-sample heads, as the suite read before batching."""
    x = GridSignal(payload["input"])
    off_a, off_b = tuple(payload["shift_a"]), tuple(payload["shift_b"])
    logits_a, label_a, trace_a = classify(model, circular_shift(x, off_a))
    logits_b, label_b, trace_b = classify(model, circular_shift(x, off_b))
    div, agree = max_abs(logits_a, logits_b), label_a == label_b
    if payload["check"] == "both":
        axes = tuple(range(x.rank))
        back_a = np.roll(encode_decode(model, circular_shift(x, off_a))[0], off_a, axis=axes)
        back_b = np.roll(encode_decode(model, circular_shift(x, off_b))[0], off_b, axis=axes)
        div = max(div, max_abs(back_a, back_b))
        agree = agree and bool(np.all(np.argmax(back_a, -1) == np.argmax(back_b, -1)))
    return div, agree, trace_a.any_tied or trace_b.any_tied


@pytest.mark.parametrize(
    "run, reference, tolerance",
    [
        (run_claim1, claim1_reference, 0.0),
        (run_claim2, claim2_reference, 1e-12),
        (run_lemma1, lemma1_reference, 0.0),
        (run_claim3, claim3_reference, 1e-12),
        (run_apmerge, apmerge_reference, 0.0),
    ],
)
def test_claim_suites_equal_per_trial_reference(run, reference, tolerance):
    sc = SuiteConfig(trials=25)
    result = run(sc)
    row, worst = reference_row(result.name, reference(sc), tolerance)
    assert result.row() == row and result.counterexample == worst


def test_runner_reports_first_failing_trial_in_trial_order(monkeypatch):
    # Keyed batches come out of trial order: the size rule lets `full` trials
    # of a key share a batch, and key "a" (trials 0, full + 1, full + 2) goes
    # out before key "b" (trials 1 to full).  Trial full + 1 fails in the
    # first batch; trials 1 to full fail later, and trial 1 is the first.
    full = 8
    keys = [("a",), *[("b",)] * full, ("a",), ("a",)]
    divs = [0.0, *[5.0] * full, 3.0, 9.0]
    tied = [False] * (full + 2) + [True]

    def batches(sc):
        for (key,), rows in harness._keyed_batches(keys, lambda key: BATCH_ENTRIES // full):
            yield rows, {"i": rows, "key": key}, None

    calls = []

    def check(columns, shared=None):
        idx = columns["i"]
        calls.append(idx)
        agree = np.ones(len(idx), bool)
        return np.array([divs[i] for i in idx]), agree, np.array([tied[i] for i in idx])

    monkeypatch.setitem(PROPERTIES, "lemma1", Property(batches, check, 1.0, ("i",)))
    result = run_lemma1(SuiteConfig(suites=("lemma1",)))
    assert calls == [[0, full + 1, full + 2], list(range(1, full + 1))]
    assert result.row() == {
        "name": "lemma1", "trials": full + 3, "passes": 1, "failures": full + 1,
        "max_divergence": 5.0, "tie_count": 1, "counterexample": True,
    }
    assert result.counterexample == _counterexample("lemma1", 1.0, 5.0, {"i": 1, "key": "b"})


SUITE_RUNS = {
    "lemma1": run_lemma1, "claim1": run_claim1, "claim2": run_claim2,
    "claim3": run_claim3, "apmerge": run_apmerge, "end2end": run_end2end,
    "metrics": run_metrics,
}


def _marked(payload: dict) -> bool:
    """A fixed pseudo-random quarter of payloads, read from their contents."""
    digest = hashlib.sha256(repr(sorted((k, str(v)) for k, v in payload.items())).encode())
    return digest.digest()[0] % 4 == 0


def _one_pass_of(pairs: int):
    """An end2end batch size: `pass_pairs` giving `pairs` for every model."""
    return lambda cfg: pairs


@pytest.mark.parametrize("name", sorted(SUITE_RUNS))
@pytest.mark.parametrize("failing", ["none", "marked", "all"])
def test_batching_never_changes_a_report_row(monkeypatch, name, failing):
    # One trial per batch, the memory rule, and one batch per key give the same
    # rows and counterexample.  Failing trials are planted as a quarter of
    # the payloads scattered over the keys, or every asserted trial (a negative
    # tolerance), so the first failing trial must come out the same under each.
    # An end2end batch is one encoder pass, so there `pass_pairs` is varied.
    # The metrics suite runs end2end's property on its own stream; it is
    # planted through end2end's comparison, whose columns its scores summarise.
    checked = "end2end" if name == "metrics" else name
    prop = PROPERTIES[checked]
    if failing == "all":
        monkeypatch.setitem(PROPERTIES, checked, dataclasses.replace(prop, tolerance=-1.0))
    elif failing == "marked" and name == "metrics":
        shift_pairs = harness._shift_pairs

        def marked_pairs(columns, model=None, zero_pad=False):
            same_label, *rest = shift_pairs(columns, model, zero_pad)
            marked = [_marked(prop.payload(columns, k)) for k in range(len(same_label))]
            return same_label & ~np.array(marked), *rest

        monkeypatch.setattr(harness, "_shift_pairs", marked_pairs)
    elif failing == "marked":

        def check(columns, shared=None):
            div, agree, tied = prop.check(columns, shared)
            marked = [_marked(prop.payload(columns, k)) for k in range(len(div))]
            return div, agree & ~np.array(marked), tied

        monkeypatch.setitem(PROPERTIES, name, dataclasses.replace(prop, check=check))
    sc = SuiteConfig(trials=30, lemma_n=(4, 6, 8), lemma_l=(1, 2, 3))
    runs = []
    passes = [_one_pass_of(1), harness.pass_pairs, _one_pass_of(2**62)]
    bounds = [0, harness.BATCH_ENTRIES, 2**62]
    for batch, pairs in zip(bounds, passes):
        monkeypatch.setattr(harness, "BATCH_ENTRIES", batch)
        monkeypatch.setattr(harness, "pass_pairs", pairs)
        calls = [len(indices) for indices, _, _ in batches_of(name, sc)]
        result = SUITE_RUNS[name](sc)
        runs.append((calls, result.row(), result.counterexample))
    (one, *_), (rule, *_), (whole, *_) = runs
    assert set(one) == {1} and max(whole) > max(one)
    assert runs[0][1:] == runs[1][1:] == runs[2][1:]
    assert (runs[0][2] is not None) == (failing != "none")


@pytest.mark.parametrize(
    "model_cfg, disable",
    [
        (ModelConfig(), ()),
        (ModelConfig(), ("a_pmerge",)),
        (ModelConfig(input_shape=(32, 32)), ("a_wsa",)),
    ],
)
def test_end2end_suite_equals_per_trial_reference(model_cfg, disable):
    # The metrics suite asserts end2end's property on its own stream.
    sc = SuiteConfig(model=model_cfg, trials=25, disable=disable)
    for name, run in (("end2end", run_end2end), ("metrics", run_metrics)):
        result = run(sc)
        trials = ((p, *end2end_reference(p, model)) for p, model in trial_payloads(name, sc))
        row, worst = reference_row(name, trials, TOL_END2END)
        assert {k: v for k, v in result.row().items() if k != "extra"} == row
        assert result.counterexample == worst
        if disable == ("a_wsa",):
            assert worst is not None  # the 2-D counterexample is the first failing trial


def label_reference(model, inputs, sampler, shifter):
    records = []
    for i, x in enumerate(inputs):
        for pair in sampler.sample_pairs(len(inputs))[i]:
            off_a, off_b = (tuple(int(o) for o in p) for p in pair)
            logits_a, label_a, trace_a = classify(model, shifter(x, off_a))
            logits_b, label_b, trace_b = classify(model, shifter(x, off_b))
            agree = 1.0 if label_a == label_b else 0.0
            records.append((agree, max_abs(logits_a, logits_b), trace_a.any_tied or trace_b.any_tied))
    return records


def mascc_reference(model, inputs, sampler):
    records = []
    for i, x in enumerate(inputs):
        axes = tuple(range(x.rank))
        for pair in sampler.sample_pairs(len(inputs))[i]:
            off_a, off_b = (tuple(int(o) for o in p) for p in pair)
            map_a, trace_a = encode_decode(model, circular_shift(x, off_a))
            map_b, trace_b = encode_decode(model, circular_shift(x, off_b))
            back_a, back_b = np.roll(map_a, off_a, axis=axes), np.roll(map_b, off_b, axis=axes)
            agree = float(np.mean(np.argmax(back_a, -1) == np.argmax(back_b, -1)))
            records.append((agree, max_abs(back_a, back_b), trace_a.any_tied or trace_b.any_tied))
    return records


def metric_references(model, inputs, sampler):
    """Per-trial (agreement, divergence, tied) of each metric, one sample at a time."""
    return {
        "c_cons": label_reference(model, inputs, sampler, circular_shift),
        "s_cons_zeropad": label_reference(model, inputs, sampler, zero_pad_shift),
        "mascc": mascc_reference(model, inputs, sampler),
    }


@pytest.mark.parametrize("shape", [(64,), (16, 32)])
def test_metrics_equal_per_sample_reference(shape):
    cfg = ModelConfig(input_shape=shape, windows=(4, 4) if shape == (64,) else (2, 2))
    model = build_model(cfg)
    inputs = synthetic_inputs(shape, cfg.channels, 6, seed=3)
    sampler = ShiftSampler.for_shape(shape, 5, seed=4)
    expected = metric_references(model, inputs, sampler)
    # Alone, label metrics skip the maps.
    for rep in (metric(model, inputs, sampler) for metric in (c_cons, s_cons_zeropad, mascc)):
        got = list(zip(rep.agreement.tolist(), rep.divergence.tolist(), rep.tied.tolist()))
        assert got == expected[rep.metric]


def test_metrics_suite_equals_per_sample_metrics():
    sc = SuiteConfig(trials=25)
    cfg = sc.resolved_model()
    model = build_model(cfg)
    inputs = synthetic_inputs(cfg.input_shape, cfg.channels, 5, sc.derived_seed("metrics", 1))
    sampler = ShiftSampler.for_shape(cfg.input_shape, 5, sc.derived_seed("metrics", 2))
    extra = run_metrics(sc).extra
    for name, records in metric_references(model, inputs, sampler).items():
        rep = ConsistencyReport(name, *(np.array(column) for column in zip(*records)))
        summary = rep.summary()
        assert {k: extra[name][k] for k in summary} == summary


def test_metrics_suite_scores_exactly_its_trials():
    # 7 trials draw 2 inputs of 5 pairs each, as end2end does; every score,
    # the zero-padded one too, covers the first 7 pairs.
    sc = SuiteConfig(trials=7)
    cfg = sc.resolved_model()
    model = build_model(cfg)
    inputs = synthetic_inputs(cfg.input_shape, cfg.channels, 2, sc.derived_seed("metrics", 1))
    sampler = ShiftSampler.for_shape(cfg.input_shape, 5, sc.derived_seed("metrics", 2))
    extra = run_metrics(sc).extra
    for name, records in metric_references(model, inputs, sampler).items():
        rep = ConsistencyReport(name, *(np.array(column) for column in zip(*records[:7])))
        summary = rep.summary()
        assert {k: extra[name][k] for k in summary} == summary


def test_metrics_suite_encodes_each_shift_once(monkeypatch):
    from eqvit import pipeline

    calls, decoded = [], []
    encode, decode = pipeline._encode, pipeline._decode

    def counted(model, x):
        calls.append(len(x.data))
        return encode(model, x)

    def counted_decode(cfg, tokens, *args):
        decoded.append(len(tokens.data))
        return decode(cfg, tokens, *args)

    monkeypatch.setattr(pipeline, "_encode", counted)
    monkeypatch.setattr(pipeline, "_decode", counted_decode)
    run_metrics(SuiteConfig(trials=25))
    # 5 inputs x 5 pairs x 2 shifts, once for c_cons and mascc and once zero-padded.
    # A pass holds at most k * MAX_BATCH samples, k = L // (2 E) with L the
    # largest array of a MAX_BATCH forward and E the largest but the decoded
    # map, and its maps are decoded at most MAX_BATCH samples at a time.
    sizes = ModelConfig().activation_sizes()
    largest = max(size for _, size in sizes)
    k = largest // (2 * max(size for name, size in sizes if name != "decoded map"))
    assert k == 2
    assert sum(calls) == 2 * 50 and max(calls) <= k * pipeline.MAX_BATCH
    assert sum(decoded) == 50 and max(decoded) <= pipeline.MAX_BATCH


def test_metrics_suite_draws_its_stream_once(monkeypatch):
    # The zero-padded scores come from the suite's own batches: one draw of
    # inputs, one model, and exactly the 37 trials' pairs, where a second draw
    # of 8 inputs x 5 pairs would encode 80 shifts.
    from eqvit import metrics

    counts = {"synthetic_inputs": 0, "build_model": 0}
    padded = []

    def counted(name):
        original = getattr(harness, name)

        def call(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return call

    shift_stack = metrics.shift_stack

    def recorded_stack(stack, offsets, zero_pad=False):
        if zero_pad:
            padded.append(len(stack))
        return shift_stack(stack, offsets, zero_pad)

    for name in counts:
        monkeypatch.setattr(harness, name, counted(name))
    monkeypatch.setattr(metrics, "shift_stack", recorded_stack)
    run_metrics(SuiteConfig(suites=("metrics",), trials=37))
    assert counts == {"synthetic_inputs": 1, "build_model": 1}
    assert sum(padded) == 2 * 37


def ablation_reference(sc, switch, budget):
    cfg = dataclasses.replace(ABLATION_SEARCH_MODEL, seed=sc.seed).disable(switch)
    model = build_model(cfg)
    rng = np.random.default_rng([sc.seed, 8, SWITCHES.index(switch)])
    ties = 0
    for used in range(1, budget + 1):
        payload = {
            "model_config": cfg.to_dict(),
            "check": "classify",
            "input": rng.uniform(-1.0, 1.0, size=(*cfg.input_shape, cfg.channels)),
            "shift_a": [int(rng.integers(0, n // 2)) for n in cfg.input_shape],
            "shift_b": [int(rng.integers(0, n // 2)) for n in cfg.input_shape],
        }
        div, agree, tied = end2end_reference(payload, model)
        if tied:
            ties += 1
        elif div > TOL_END2END or not agree:
            return used, ties, _counterexample("ablation", TOL_END2END, div, payload)
    return budget, ties, None


@pytest.mark.parametrize("seed, budget", [(0, 25), (5, 25), (11, 25), (11, 3)])
def test_ablation_equals_trial_by_trial_search(seed, budget):
    # Searches stop in growing chunks of trials: at seed 5 adaptive_rpe first
    # fails at trial 3 and at seed 11 a_wsa at trial 5, inside later chunks;
    # a budget of 3 leaves that a_wsa search without a counterexample.
    sc = SuiteConfig(seed=seed, trials=budget)
    result = run_ablation(sc)
    examples = []
    for summary, switch in zip(result.extra["switches"], SWITCHES):
        used, ties, found = ablation_reference(sc, switch, budget)
        assert (summary["trials"], summary["ties"]) == (used, ties)
        assert summary["found"] == (found is not None)
        if found is not None:
            examples.append(found)
            assert summary["divergence"] == found["divergence"]
    assert result.counterexample == (examples[0] if examples else None)
    assert result.failures == sum(not s["found"] for s in result.extra["switches"])


def test_trace_of_one_sample_round_trips():
    trace = SelectionTrace(1, [TraceEntry(WSA, [(2, 1)], [True])])
    assert trace.size == 1 and trace.rows(0, 1) == trace
