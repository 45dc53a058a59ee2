"""Suite runners: determinism, counterexample payloads, replay semantics."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqvit import pipeline
from eqvit.errors import ConfigError
from eqvit.harness import (
    ABLATION_SEARCH_MODEL,
    DEFAULT_TRIALS,
    PROOF_SUITES,
    PROPERTIES,
    SUITES,
    SuiteConfig,
    _best_alignment,
    _counterexample,
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
    n = pipeline.MAX_ELEMENTS // 2  # an (n, 2) input of exactly MAX_ELEMENTS entries
    assert SuiteConfig(suites=("lemma1",), lemma_n=(n,), lemma_l=(1,)).lemma_n == (n,)


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


def test_best_alignment_recovers_planted_rotation():
    rng = np.random.default_rng(0)
    base = TokenMatrix(rng.uniform(-1, 1, (12, 3)), (12,))
    assert _best_alignment(base.shift(5), base) == 0.0
    assert _best_alignment(base.shift(4), base, step=4) == 0.0
    # Off the step lattice the best candidate is a genuine mismatch.
    assert _best_alignment(base.shift(5), base, step=4) > 1e-6


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
        calls.append(len(signals))
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
