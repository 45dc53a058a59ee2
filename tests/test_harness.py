"""Suite runners: determinism, counterexample payloads, replay semantics."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqvit import harness, pipeline
from eqvit.errors import ConfigError
from eqvit.harness import (
    ABLATION_SEARCH_MODEL,
    Property,
    DEFAULT_TRIALS,
    PROOF_SUITES,
    PROPERTIES,
    SUITES,
    SuiteConfig,
    _batches,
    _counterexample,
    _passes,
    replay,
    run_ablation,
    run_apmerge,
    run_claim1,
    run_claim2,
    run_claim3,
    run_end2end,
    run_lemma1,
    run_metrics,
    run_suites,
    sentinel,
)
from eqvit.numerics import rotate_rows
from eqvit.pipeline import ModelConfig
from eqvit.tokenizer import TokenMatrix

SMALL = SuiteConfig(trials=20, lemma_n=(4, 8), lemma_l=(1, 2))


def end2end_payload(model_cfg: ModelConfig, seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "model_config": model_cfg.to_dict(),
        "input": rng.uniform(-1, 1, (64, 2)).tolist(),
        "shift_a": [0],
        "shift_b": [1],
        "check": "classify",
    }


# ------------------------------------------------------------- SuiteConfig --


def test_suite_config_validation():
    with pytest.raises(ConfigError):
        SuiteConfig(suites=("claim9",))
    with pytest.raises(ConfigError):
        SuiteConfig(disable=("a_bias",))
    with pytest.raises(ConfigError):
        SuiteConfig(trials=0)
    with pytest.raises(ConfigError):
        SuiteConfig(seed=-1)
    with pytest.raises(ConfigError):
        SuiteConfig(seed=1.5)


@pytest.mark.parametrize(
    "sizes",
    [{"lemma_l": (0,)}, {"lemma_n": (0, 4)}, {"lemma_n": (-4,)}, {"lemma_l": (2, -1)},
     {"lemma_n": (5,), "lemma_l": (2,)}, {"lemma_n": ()},
     {"lemma_n": (4, pipeline.MAX_ELEMENTS // 2 + 1)}],
)
def test_suite_config_rejects_bad_lemma1_sizes(sizes):
    with pytest.raises(ConfigError):
        SuiteConfig(suites=("lemma1",), **sizes)


def test_lemma1_input_bound_is_inclusive():
    # At l = 2 the gathered (2, MAX_BATCH // 2, n / 2, 2 * 2) sides are the
    # largest array the bound counts; here they hold exactly MAX_ELEMENTS entries.
    n = pipeline.MAX_ELEMENTS // (2 * (pipeline.MAX_BATCH // 2) * 2)
    sc = SuiteConfig(suites=("lemma1",), lemma_n=(n,), lemma_l=(2,))
    assert max(size for _, size in sc.lemma1_sizes()) == pipeline.MAX_ELEMENTS
    with pytest.raises(ConfigError, match="gathered sides"):
        SuiteConfig(suites=("lemma1",), lemma_n=(n + 2,), lemma_l=(2,))


def test_lemma1_bound_counts_the_batch_not_the_input():
    # An (n, 2) input of exactly MAX_ELEMENTS entries passed the old bound;
    # its batch's projected sides hold 20 times that.
    n = pipeline.MAX_ELEMENTS // 2
    with pytest.raises(ConfigError, match="projected side at n 2097152, l 1"):
        SuiteConfig(suites=("lemma1",), lemma_n=(n,), lemma_l=(1,))
    # Pairs whose l does not divide n run nothing and are not sized.
    assert SuiteConfig(suites=("lemma1",), lemma_n=(4, n + 1), lemma_l=(2,)).lemma_n == (4, n + 1)


def old_lemma1_rule(n: int, l: int) -> bool:
    """Whether a lemma1 pair was accepted before batches were sized by memory:
    eight (n, 2) inputs, their gathered sides and their projections fit."""
    return n % l or max(2 * 8 * n * 2, 8 * (n // l) * 5) <= pipeline.MAX_ELEMENTS


@pytest.mark.parametrize("l", [1, 2, 3, 4, 7])
def test_lemma1_bound_accepts_what_it_accepted(l):
    edge = pipeline.MAX_ELEMENTS // 32
    for n in [1, 4, 12, edge - 1, edge, edge + 1, edge + l, 2 * edge, 2097152, 10**9]:
        accepted = old_lemma1_rule(n, l) and n % l == 0
        if accepted:
            SuiteConfig(suites=("lemma1",), lemma_n=(n,), lemma_l=(l,))
        else:
            with pytest.raises(ConfigError):
                SuiteConfig(suites=("lemma1",), lemma_n=(n,), lemma_l=(l,))


def test_batch_bounds_come_from_the_default_forward():
    largest = max(size for _, size in ModelConfig().activation_sizes())
    assert harness.HELD_ENTRIES == largest == 32768
    assert harness.BATCH_ENTRIES == largest // 2
    # The element bound and the oversized configs CI runs under `ulimit -v`
    # are rejected as before; the batch bounds change no accepted model.
    assert pipeline.MAX_ELEMENTS == 2**22
    for cfg in ({"input_shape": [2048, 2048], "channels": 1}, {"embed_dim": 1000000}):
        with pytest.raises(ConfigError):
            ModelConfig.from_dict(cfg)
    for n, l in [(1000000000, 1), (2097152, 1)]:
        with pytest.raises(ConfigError):
            SuiteConfig(suites=("lemma1",), lemma_n=(n,), lemma_l=(l,))


def _payload_entries(payload: dict) -> int:
    return sum(v.size for v in payload.values() if isinstance(v, np.ndarray))


@pytest.mark.parametrize("name", list(PROPERTIES))
def test_batches_stay_within_the_memory_bounds(name):
    # Every batch's check has its largest array within BATCH_ENTRIES by the
    # property's size rule, or is one trial; the payloads held back never
    # pass HELD_ENTRIES; every trial comes out once, in trial order per batch.
    prop = PROPERTIES[name]
    sc = SuiteConfig(trials=None if name != "end2end" else 40)
    drawn = []
    sample = prop.sample

    def counted(sc):
        for payload, shared in sample(sc):
            drawn.append(payload)
            yield payload, shared

    seen = []
    counting = dataclasses.replace(prop, sample=counted)
    for indices, payloads, shared in harness._batches(counting, sc):
        size = prop.size(payloads[0])
        assert {prop.key(p) for p in payloads} == {prop.key(payloads[0])}
        assert len(payloads) * size <= harness.BATCH_ENTRIES or len(payloads) == 1
        assert indices == sorted(indices) and all(drawn[i] is p for i, p in zip(indices, payloads))
        seen += indices
        # Before the last drawn trial joined its batch, the rest were held back.
        held = set(range(len(drawn) - 1)) - set(seen)
        assert sum(_payload_entries(drawn[i]) for i in held) <= harness.HELD_ENTRIES
    assert sorted(seen) == list(range(len(drawn)))


def test_a_trial_larger_than_the_bound_runs_alone():
    def sample(sc):
        for i in range(5):
            yield {"i": i}, None

    def batches(size):
        prop = Property(sample, None, 0.0, lambda p: size)
        return [indices for indices, _, _ in harness._batches(prop, SuiteConfig())]

    assert batches(harness.BATCH_ENTRIES + 1) == [[i] for i in range(5)]
    assert batches(harness.BATCH_ENTRIES // 2) == [[0, 1], [2, 3], [4]]


def test_lemma1_pairs_matter_only_to_a_lemma1_run():
    assert SuiteConfig(suites=("claim1",), lemma_n=(5,), lemma_l=(2,)).lemma_n == (5,)
    with pytest.raises(ConfigError):
        SuiteConfig(suites=("claim1",), lemma_l=(0,))


@pytest.mark.parametrize(
    "key, value",
    [("tolerance", float("nan")), ("divergence", float("inf")), ("tolerance", -float("inf"))],
)
def test_replay_rejects_non_finite_document_numbers(key, value):
    payload, _ = next(PROPERTIES["claim1"].sample(SuiteConfig(trials=1)))
    doc = {**_counterexample("claim1", 0.0, 1.0, payload), key: value}
    with pytest.raises(ConfigError, match="must be finite"):
        replay(doc)


@pytest.mark.parametrize("suite, key", [("apmerge", "energy_p"), ("claim2", "energy_p")])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_replay_rejects_non_finite_payload_numbers(suite, key, value):
    payload, _ = next(PROPERTIES[suite].sample(SuiteConfig(trials=1)))
    doc = _counterexample(suite, 0.0, 1.0, {**payload, key: value})
    with pytest.raises(ConfigError, match="must be finite"):
        replay(doc)


def test_suite_config_dedups_preserving_order():
    sc = SuiteConfig(suites=("claim2", "claim1", "claim2"), disable=("a_wsa", "a_wsa"))
    assert sc.suites == ("claim2", "claim1")
    assert sc.disable == ("a_wsa",)


def test_resolved_model_applies_seed_and_switches():
    sc = SuiteConfig(seed=7, disable=("a_token", "adaptive_rpe"))
    cfg = sc.resolved_model()
    assert cfg.seed == 7
    assert not cfg.a_token and not cfg.adaptive_rpe
    assert cfg.a_wsa and cfg.a_pmerge


def test_suite_trials_defaults_and_override():
    assert SuiteConfig().suite_trials("claim1") == DEFAULT_TRIALS["claim1"]
    assert SuiteConfig(trials=7).suite_trials("claim1") == 7


def test_derived_seed_is_stable_and_distinct():
    sc = SuiteConfig(seed=3)
    assert sc.derived_seed("end2end", 1) == sc.derived_seed("end2end", 1)
    assert sc.derived_seed("end2end", 1) != sc.derived_seed("end2end", 2)
    assert sc.derived_seed("end2end", 1) != sc.derived_seed("metrics", 1)
    assert sc.derived_seed("end2end", 1) != SuiteConfig(seed=4).derived_seed("end2end", 1)


def test_suite_rng_streams_are_independent():
    sc = SuiteConfig(seed=0)
    a = sc.rng("claim1").uniform(size=4)
    b = sc.rng("claim1").uniform(size=4)
    c = sc.rng("claim2").uniform(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------- helpers --


def test_sentinel_lists_suites():
    doc = sentinel(SuiteConfig(suites=("claim1", "lemma1")))
    assert doc == {"kind": "sentinel", "status": "pass", "suites": ["claim1", "lemma1"]}


# ------------------------------------------------------------ proof suites --


def test_lemma1_suite_is_exhaustive_and_green():
    res = run_lemma1(SMALL)
    # 20 inputs per valid (N, L) pair, L checks each: (4,1)+(4,2)+(8,1)+(8,2).
    assert res.trials == 20 * (1 + 2 + 1 + 2)
    assert res.failures == 0
    assert res.max_divergence == 0.0
    assert res.counterexample is None


def test_claim1_suite_green_and_deterministic():
    a = run_claim1(SMALL)
    b = run_claim1(SMALL)
    assert a.failures == 0
    assert a.max_divergence == 0.0
    assert a.row() == b.row()


def test_claim2_suite_green():
    res = run_claim2(SMALL)
    assert res.failures == 0
    assert res.max_divergence <= 1e-12


def test_claim3_suite_green():
    res = run_claim3(SMALL)
    assert res.trials == 20
    assert res.failures == 0
    assert res.max_divergence <= 1e-12


def test_apmerge_suite_green():
    res = run_apmerge(SMALL)
    assert res.failures == 0
    assert res.max_divergence == 0.0


@pytest.fixture
def rolled_ops(monkeypatch):
    """The harness's a_token, a_wsa and a_pmerge, each rolling every output
    sample by its own random amount (window multiples for a_wsa) and leaving
    the trace as it was: a fault no selection shows.  Returns the list the
    (B, rank) rolls of each call are appended to."""
    rng = np.random.default_rng(13)
    rolls = []

    def wrap(op, step):
        def rolled(*args):
            out, trace = op(*args)
            grid, stack, w = out.grid_shape, out.data, step(args)
            r = w * rng.integers(0, np.array(grid) // w, (len(stack), len(grid)))
            rolls.append(r)
            return TokenMatrix._fresh(rotate_rows(stack, grid, r), grid), trace

        return rolled

    monkeypatch.setattr(harness, "a_token", wrap(harness.a_token, lambda args: 1))
    monkeypatch.setattr(harness, "a_wsa", wrap(harness.a_wsa, lambda args: args[1].window))
    monkeypatch.setattr(harness, "a_pmerge", wrap(harness.a_pmerge, lambda args: 1))
    return rolls


def _rank(payload) -> int:
    return len(payload["grid"]) if "grid" in payload else np.ndim(payload["x"]) - 1


def _rank2_payloads(suite: str) -> list[dict]:
    """A batch of 8x8 claim1 signals or claim2 token grids on the sampler's weights."""
    rng = np.random.default_rng(5)
    first, _ = next(PROPERTIES[suite].sample(SuiteConfig(trials=1)))
    if suite == "claim1":
        # Patch length 2 on two channels keeps the sampler's 8-row embed.
        fixed, key, shape = {**first, "l": 2}, "x", (8, 8, 2)
    else:
        table = rng.uniform(-0.5, 0.5, (4, 4))
        fixed, key, shape = {**first, "grid": [8, 8], "rpe_table": table}, "t", (64, 8)
    return [
        {**fixed, key: rng.uniform(-1, 1, shape), "shift": rng.integers(0, 8, 2).tolist()}
        for _ in range(8)
    ]


@pytest.mark.parametrize("suite", ["claim1", "claim2", "apmerge"])
@pytest.mark.parametrize("rank", [1, 2])
def test_checks_fail_outputs_off_the_predicted_rotation(rolled_ops, suite, rank):
    # Each check passes only the rotation its traces predict, so every untied
    # trial whose base and shifted outputs were rolled apart fails, at both
    # ranks, and one whose rolls match still passes.
    prop = PROPERTIES[suite]
    if rank == 2 and suite != "apmerge":
        batches = [(_rank2_payloads(suite), None)]
    else:
        batches = [
            (payloads, shared)
            for _, payloads, shared in _batches(prop, SuiteConfig(trials=48))
            if _rank(payloads[0]) == rank
        ]
    failed = passed = 0
    for payloads, shared in batches:
        rolled_ops.clear()
        divs, agrees, tieds = prop.check(payloads, shared)
        rolls, n = np.concatenate(rolled_ops), len(payloads)
        moved = (rolls[:n] != rolls[n:]).any(axis=-1)
        for div, agree, tied, apart in zip(divs.tolist(), agrees, tieds, moved):
            if tied:
                continue
            ok = _passes(div, agree, prop.tolerance)
            assert ok != apart
            failed, passed = failed + apart, passed + (not apart)
    assert failed >= 5 and passed >= 1


# ---------------------------------------------------------------- end2end --


def test_end2end_suite_green_on_adaptive_model():
    res = run_end2end(SuiteConfig(trials=10))
    assert res.trials == 10
    assert res.failures == 0
    assert res.max_divergence <= 1e-9


def test_end2end_suite_catches_disabled_tokenizer():
    res = run_end2end(SuiteConfig(trials=20, disable=("a_token",)))
    assert res.failures == 11
    assert res.counterexample is not None
    code, line = replay(res.counterexample)
    assert code == 1
    assert "reproduced" in line


def test_end2end_encodes_each_shift_once(monkeypatch):
    calls = []
    encode = pipeline._encode

    def counted(model, signals):
        calls.append(len(signals.data))
        return encode(model, signals)

    monkeypatch.setattr(pipeline, "_encode", counted)
    res = run_end2end(SuiteConfig(trials=5))
    assert res.trials == 5
    # Both shifts of all five trials go through the encoder once, as one batch.
    assert calls == [10]


# ---------------------------------------------------------------- metrics --


def test_metrics_suite_asserts_only_when_fully_adaptive():
    res = run_metrics(SuiteConfig(trials=50))
    assert res.failures == 0
    assert res.extra["asserted"] is True
    assert res.extra["c_cons"]["untied_agreement"] == 1.0
    assert res.extra["mascc"]["untied_agreement"] == 1.0
    assert "s_cons_zeropad" in res.extra

    broken = run_metrics(SuiteConfig(trials=50, disable=("a_wsa",)))
    assert broken.extra["asserted"] is False
    assert broken.failures == 0  # reported, not asserted
    assert broken.extra["c_cons"]["untied_agreement"] < 1.0


# --------------------------------------------------------------- ablation --


def test_ablation_finds_counterexample_per_switch():
    res = run_ablation(SuiteConfig(trials=60))
    assert res.failures == 0
    assert res.extra["search_model"] == ABLATION_SEARCH_MODEL.to_dict()
    rows = res.extra["switches"]
    assert [r["switch"] for r in rows] == list(
        ("a_token", "a_wsa", "a_pmerge", "adaptive_rpe")
    )
    for row in rows:
        assert row["found"] is True
        assert row["divergence"] > 1e-9
        assert 0.0 <= row["c_cons"] <= 1.0
    # Logit drift does not always flip a label, but it does for most switches.
    assert sum(1 for r in rows if r["c_cons"] < 1.0) >= 2
    assert res.counterexample is not None


def test_ablation_respects_disable_filter():
    res = run_ablation(SuiteConfig(trials=60, disable=("a_pmerge",)))
    rows = res.extra["switches"]
    assert [r["switch"] for r in rows] == ["a_pmerge"]
    assert res.failures == 0


# -------------------------------------------------------------- run_suites --


def test_run_suites_canonical_order_and_report_shape():
    sc = SuiteConfig(
        suites=("claim3", "lemma1", "claim1"), trials=5, lemma_n=(4,), lemma_l=(1, 2)
    )
    report, results = run_suites(sc)
    assert [r.name for r in results] == ["lemma1", "claim1", "claim3"]
    assert set(report) == {"suite_config", "model_config", "suites", "metrics"}
    assert report["suite_config"]["suites"] == ["claim3", "lemma1", "claim1"]
    assert report["model_config"] == sc.resolved_model().to_dict()
    assert [row["name"] for row in report["suites"]] == ["lemma1", "claim1", "claim3"]
    assert report["metrics"] == {}


def test_run_suites_surfaces_metric_summaries():
    report, _ = run_suites(SuiteConfig(suites=("metrics",), trials=25))
    assert set(report["metrics"]) == {"c_cons", "mascc", "s_cons_zeropad"}


def test_proof_suites_subset():
    assert PROOF_SUITES == ("lemma1", "claim1", "claim2", "claim3")
    assert all(s in SUITES for s in PROOF_SUITES)


# ------------------------------------------------------------------ replay --


def test_replay_sentinel_passes():
    code, line = replay(sentinel(SuiteConfig()))
    assert code == 0
    assert "nothing to reproduce" in line


def test_rank2_claim1_counterexample_replays():
    # A claim1 payload on an 8x8 signal takes a per-axis shift; a rank-1 one
    # still takes a bare int, and an offset nested deeper is still refused.
    rank2 = _rank2_payloads("claim1")[0]
    rank1, _ = next(PROPERTIES["claim1"].sample(SuiteConfig(trials=1)))
    for payload in (rank2, rank1, {**rank1, "shift": [rank1["shift"]]}):
        doc = json.loads(json.dumps(_counterexample("claim1", 0.0, 1.0, payload)))
        code, line = replay(doc)
        assert code in (0, 1) and "claim1" in line
    assert isinstance(rank1["shift"], int) and len(rank2["shift"]) == 2
    for shift in ([[0, 1]], 3):
        doc = json.loads(json.dumps(_counterexample("claim1", 0.0, 1.0, {**rank2, "shift": shift})))
        with pytest.raises(ConfigError):
            replay(doc)


def test_replay_rejects_malformed_documents():
    with pytest.raises(ConfigError):
        replay({"kind": "note"})
    with pytest.raises(ConfigError):
        replay({"kind": "counterexample", "suite": "claim9"})


@pytest.mark.parametrize("name", list(PROPERTIES))
def test_first_payload_replays_with_zero_drift(name):
    prop = PROPERTIES[name]
    payload, shared = next(prop.sample(SuiteConfig(trials=1)))
    divs, _, _ = prop.check([payload], shared)
    div = float(divs[0])
    # A tolerance below the divergence makes replay reproduce and report drift.
    doc = json.loads(json.dumps(_counterexample(name, div - 1.0, div, payload)))
    code, line = replay(doc)
    assert code == 1
    assert "drift 0.000e+00" in line


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {"kind": "counterexample", "suite": "claim1", "tolerance": 0.0, "divergence": 1.0},
        {"kind": "counterexample", "suite": "claim1", "tolerance": "0", "divergence": 1.0,
         "payload": {}},
        {"kind": "counterexample", "suite": "claim1", "tolerance": 0.0, "divergence": 1.0,
         "payload": {"l": 4}},
        {"kind": "counterexample", "suite": "ablation", "tolerance": 0.0, "divergence": 1.0,
         "payload": {**end2end_payload(ModelConfig()), "check": "decode"}},
        {"kind": "counterexample", "suite": "end2end", "tolerance": 0.0, "divergence": 1.0,
         "payload": {**end2end_payload(ModelConfig()), "shift_a": [1, 2]}},
        {"kind": "counterexample", "suite": "end2end", "tolerance": 0.0, "divergence": 1.0,
         "payload": {**end2end_payload(ModelConfig()), "input": [[float("nan"), 0.0]] * 64}},
        {"kind": "counterexample", "suite": "claim2", "tolerance": 0.0, "divergence": 1.0,
         "payload": {**next(PROPERTIES["claim2"].sample(SuiteConfig()))[0], "window": 2.5}},
        {"kind": "counterexample", "suite": "end2end", "tolerance": 0.0, "divergence": 1.0,
         "payload": {**end2end_payload(ModelConfig()), "shift_a": [[0]]}},
        {"kind": "counterexample", "suite": "apmerge", "tolerance": 0.0, "divergence": 1.0,
         "payload": {**next(PROPERTIES["apmerge"].sample(SuiteConfig()))[0], "grid": [[16]]}},
    ],
)
def test_replay_rejects_malformed_counterexamples(doc):
    with pytest.raises(ConfigError):
        replay(doc)


def test_replay_reproduces_crafted_failure_with_zero_drift():
    payload = end2end_payload(ModelConfig().disable("a_token"))
    from eqvit.harness import _end2end_divergence

    divs, _, _ = _end2end_divergence([payload])
    div = float(divs[0])
    assert div > 1e-9
    doc = {
        "kind": "counterexample",
        "suite": "end2end",
        "tolerance": 1e-9,
        "divergence": div,
        "payload": payload,
    }
    code, line = replay(doc)
    assert code == 1
    assert "drift 0.000e+00" in line


@pytest.mark.parametrize(
    "div, agree, tied, outcome",
    [
        (np.nan, True, True, ConfigError),  # the ops produced NaN
        (np.inf, True, True, 0),  # overflowed, but tied trials are not asserted
        (np.inf, True, False, ConfigError),
        (0.0, False, False, 1),  # selections or labels disagree: the suites' failure
        (0.5, True, False, 1),
        (0.0, True, False, 0),
    ],
)
def test_replay_verdict_order(monkeypatch, div, agree, tied, outcome):
    prop = PROPERTIES["claim1"]
    payload, _ = next(prop.sample(SuiteConfig(trials=1)))

    def check(payloads, shared=None):
        return np.array([div]), np.array([agree]), np.array([tied])

    monkeypatch.setitem(PROPERTIES, "claim1", dataclasses.replace(prop, check=check))
    doc = _counterexample("claim1", 0.0, 1.0, payload)
    if outcome is ConfigError:
        with pytest.raises(ConfigError):
            replay(doc)
    else:
        assert replay(doc)[0] == outcome


def test_replay_passes_once_config_is_fixed():
    payload = end2end_payload(ModelConfig())
    doc = {
        "kind": "counterexample",
        "suite": "end2end",
        "tolerance": 1e-9,
        "divergence": 0.05,
        "payload": payload,
    }
    code, line = replay(doc)
    assert code == 0
    assert "no longer exceeds" in line


# Each suite's first sampled payload as written to a replay file, then damaged
# one way: a value replaced by arbitrary JSON, one (nested) list entry set to
# an edge number, or a (nested) list truncated.
_WRITTEN = {
    name: json.dumps(_counterexample(name, 0.0, 1.0, next(prop.sample(SuiteConfig(trials=1)))[0]))
    for name, prop in PROPERTIES.items()
}
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_EDGES = [0, -1, 2**63, 1e308, float("nan")]


def _damage(data, value):
    """The list `value` with one entry, at a depth `data` draws, set to an edge
    number or truncated."""
    node = value
    while node:
        i = data.draw(st.integers(0, len(node) - 1))
        if isinstance(node[i], list) and data.draw(st.booleans()):
            node = node[i]
        elif data.draw(st.booleans()):
            node[i] = data.draw(st.sampled_from(_EDGES))
            return value
        else:
            break
    del node[data.draw(st.integers(0, len(node))):]
    return value


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_damaged_replay_exits_zero_or_one_or_raises_config_error(data):
    doc = json.loads(_WRITTEN[data.draw(st.sampled_from(sorted(_WRITTEN)))])
    payload = doc["payload"]
    key = data.draw(st.sampled_from(sorted(payload)))
    if isinstance(payload[key], list) and data.draw(st.booleans()):
        payload[key] = _damage(data, payload[key])
    else:
        payload[key] = data.draw(_JSON)
    try:
        code, _ = replay(doc)
    except ConfigError:
        return
    assert code in (0, 1)
