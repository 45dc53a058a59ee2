"""Suite runners: determinism, counterexample payloads, replay semantics."""

import dataclasses
import json
import tracemalloc
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqvit import harness, pipeline
from eqvit.errors import ConfigError
from eqvit.harness import (
    ABLATION_SEARCH_MODEL,
    DEFAULT_TRIALS,
    PROOF_SUITES,
    PROPERTIES,
    SUITES,
    SuiteConfig,
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
from eqvit.metrics import pass_pairs
from eqvit.numerics import rotate_rows
from eqvit.pipeline import ModelConfig
from eqvit.tokenizer import TokenMatrix
from trials import batch_of, first_payload, trial_payloads

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
    assert harness.BATCH_ENTRIES == largest // 2 == 16384
    # The element bound and the oversized configs CI runs under `ulimit -v`
    # are rejected as before; the batch bounds change no accepted model.
    assert pipeline.MAX_ELEMENTS == 2**22
    for cfg in ({"input_shape": [2048, 2048], "channels": 1}, {"embed_dim": 1000000}):
        with pytest.raises(ConfigError):
            ModelConfig.from_dict(cfg)
    for n, l in [(1000000000, 1), (2097152, 1)]:
        with pytest.raises(ConfigError):
            SuiteConfig(suites=("lemma1",), lemma_n=(n,), lemma_l=(l,))


def trial_size(name: str, p: dict) -> int:
    """The entries one trial adds to its check's largest array, from its
    payload's shapes: the size rule each suite's batches follow."""
    if name == "lemma1":
        (n, channels), dim = np.shape(p["x"]), np.shape(p["embed"])[1]
        return max(2 * n * channels, n // p["l"] * dim)
    if name == "claim1":  # an input and its shift: full-rate patch columns and embedding
        *grid, channels = np.shape(p["x"])
        return 2 * prod(grid) * max(p["l"] ** len(grid) * channels, np.shape(p["embed"])[1])
    if name == "claim2":  # a token matrix and its shift: window logits and energy taps, tokens
        (m, d), rank = np.shape(p["t"]), len(p["grid"])
        return 2 * m * max(d, p["window"] ** rank, np.shape(p["e_q"])[1])
    # Merge taps, full-rate output and merge embed; apmerge also holds the shift.
    (m, d), (k, d_out) = np.shape(p["t"]), np.shape(p["embed"])
    size = max(p["factor"] ** len(p["grid"]) * m * d, m * d_out, k * d_out)
    return size if name == "claim3" else 2 * size


_KEYED = ("claim3", "apmerge")


def batch_key(name: str, p: dict):
    """The values one batch's trials share: everything but the row values,
    and the shape of each array row."""
    rows = PROPERTIES[name].rows
    shared = [(k, v) for k, v in p.items() if k not in rows and not isinstance(v, np.ndarray)]
    return repr(shared), tuple(np.shape(p[k]) for k in rows)


@pytest.mark.parametrize("name", list(PROPERTIES))
def test_batches_stay_within_the_memory_bounds(name):
    # Every batch holds trials of one key, and its check has its largest
    # array within BATCH_ENTRIES by the suite's size rule, or is one trial
    # (end2end: one encoder pass); its rows hold at most 2 * BATCH_ENTRIES
    # entries, the largest array of a MAX_BATCH forward; every trial comes
    # out once, in trial order within its batch.
    # claim3 and apmerge, which mix keys, spread them over several batches.
    prop = PROPERTIES[name]
    sc = SuiteConfig(trials=None if name != "end2end" else 40)
    seen, keys = [], set()
    for indices, columns, shared in prop.batches(sc):
        indices, rows = list(indices), [prop.payload(columns, k) for k in range(len(indices))]
        assert all(len(columns[key]) == len(indices) for key in prop.rows)
        assert len({batch_key(name, row) for row in rows}) == 1
        keys.add(batch_key(name, rows[0]))
        if name == "end2end":
            assert len(indices) <= pass_pairs(shared.config)
        else:
            size = trial_size(name, rows[0])
            assert len(indices) * size <= harness.BATCH_ENTRIES or len(indices) == 1
        assert sum(np.size(columns[key]) for key in prop.rows) <= 2 * harness.BATCH_ENTRIES
        assert indices == sorted(indices)
        seen += indices
    assert sorted(seen) == list(range(len(seen)))
    assert len(seen) == sc.suite_trials(name) or name == "lemma1"  # lemma1: per (n, l) pair
    assert len(keys) > 1 or name not in _KEYED


@settings(max_examples=60, deadline=None)
@given(
    keys=st.lists(st.sampled_from("abc"), max_size=40),
    sizes=st.fixed_dictionaries({k: st.integers(1, 2 * harness.BATCH_ENTRIES) for k in "abc"}),
)
def test_keyed_batches_hold_one_key_within_the_bound(keys, sizes):
    batches = list(harness._keyed_batches([(k,) for k in keys], sizes.get))
    for (key,), positions in batches:
        assert {keys[i] for i in positions} == {key}
        assert positions == sorted(positions)
        assert len(positions) * sizes[key] <= harness.BATCH_ENTRIES or len(positions) == 1
    # Every trial once; a key's batches are full but for its last.
    assert sorted(i for _, positions in batches for i in positions) == list(range(len(keys)))
    for key in set(keys):
        lengths = [len(p) for (k,), p in batches if k == key]
        assert lengths[:-1] == [max(1, harness.BATCH_ENTRIES // sizes[key])] * (len(lengths) - 1)


def test_a_trial_larger_than_the_bound_runs_alone():
    def batches(size):
        return [positions for _, positions in harness._keyed_batches([()] * 5, lambda: size)]

    assert batches(harness.BATCH_ENTRIES + 1) == [[i] for i in range(5)]
    assert batches(harness.BATCH_ENTRIES // 2) == [[0, 1], [2, 3], [4]]
    # A suite that fills its batches directly: an n = 16384 lemma1 input's
    # gathered sides alone pass BATCH_ENTRIES, so each of its trials runs alone.
    sc = SuiteConfig(suites=("lemma1",), trials=3, lemma_n=(16384,), lemma_l=(1,))
    assert [list(i) for i, _, _ in PROPERTIES["lemma1"].batches(sc)] == [[0], [1], [2]]


class _CountingGenerator:
    """A NumPy generator that records the name of every draw made from it."""

    def __init__(self, generator: np.random.Generator, calls: list[str]):
        self._generator, self._calls = generator, calls

    def __getattr__(self, name):
        method = getattr(self._generator, name)

        def draw(*args, **kwargs):
            self._calls.append(name)
            return method(*args, **kwargs)

        return draw


@pytest.mark.parametrize("name", ["lemma1", "claim1", "claim2", "claim3", "apmerge"])
@pytest.mark.parametrize("trials", [37, None, 2500])
def test_samplers_draw_a_column_at_a_time(monkeypatch, name, trials):
    # One call per array column per batch and per integer column per block
    # of trials, plus the draws of the shared weights: a ceiling that grows
    # with batches and blocks.  A sampler drawing trial by trial makes at
    # least two calls per trial, more than the ceiling allows.
    calls, default_rng = [], np.random.default_rng
    monkeypatch.setattr(
        np.random, "default_rng", lambda *seed: _CountingGenerator(default_rng(*seed), calls)
    )
    sc = SuiteConfig(trials=trials, lemma_n=(8,), lemma_l=(2,))
    batches = sum(1 for _ in PROPERTIES[name].batches(sc))
    blocks = -(-sc.suite_trials(name) // harness.DRAW_BLOCK)
    assert len(calls) <= 5 + 2 * batches + 3 * blocks < 2 * sc.suite_trials(name)


@pytest.mark.parametrize("name", ["lemma1", "claim1", "claim2", "claim3", "apmerge"])
def test_a_huge_trial_count_draws_only_the_first_block(name):
    # The first batch comes out without any column drawn for every trial.
    tracemalloc.start()
    try:
        indices, _, _ = next(PROPERTIES[name].batches(SuiteConfig((name,), trials=10**9)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20 and len(indices) <= harness.DRAW_BLOCK


@pytest.mark.parametrize("suite", ["end2end", "metrics"])
def test_trial_counts_past_the_input_bound_are_bad_configuration(suite):
    # Both suites draw all their inputs up front, one per 5 trials rounded up,
    # of 128 entries each on the default model: a stack of MAX_ELEMENTS // 128
    # of them is the most.
    edge = pipeline.MAX_ELEMENTS // 128 * harness.SHIFT_PAIRS
    assert SuiteConfig((suite,), trials=edge).suite_inputs(suite) == pipeline.MAX_ELEMENTS // 128
    for trials in (edge + 1, 10**9):
        with pytest.raises(ConfigError, match=f"{suite} inputs for {trials} trials"):
            SuiteConfig((suite,), trials=trials)
    # The claim suites draw per block, and are not bounded by trials.
    assert SuiteConfig(("claim1",), trials=10**9).trials == 10**9


def test_lemma1_pairs_matter_only_to_a_lemma1_run():
    assert SuiteConfig(suites=("claim1",), lemma_n=(5,), lemma_l=(2,)).lemma_n == (5,)
    with pytest.raises(ConfigError):
        SuiteConfig(suites=("claim1",), lemma_l=(0,))


@pytest.mark.parametrize(
    "key, value",
    [("tolerance", float("nan")), ("divergence", float("inf")), ("tolerance", -float("inf"))],
)
def test_replay_rejects_non_finite_document_numbers(key, value):
    doc = {**_counterexample("claim1", 0.0, 1.0, first_payload("claim1")), key: value}
    with pytest.raises(ConfigError, match="must be finite"):
        replay(doc)


@pytest.mark.parametrize("suite, key", [("apmerge", "energy_p"), ("claim2", "energy_p")])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_replay_rejects_non_finite_payload_numbers(suite, key, value):
    doc = _counterexample(suite, 0.0, 1.0, {**first_payload(suite), key: value})
    with pytest.raises(ConfigError, match="must be a finite number"):
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
    doc = sentinel(SuiteConfig(suites=("claim1", "ablation")), ["ablation"])
    assert doc == {"kind": "sentinel", "status": "fail", "suites": ["ablation"]}


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
    first = first_payload(suite)
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
        batches = [(batch_of(suite, _rank2_payloads(suite)), None)]
    else:
        batches = [
            (columns, shared)
            for _, columns, shared in prop.batches(SuiteConfig(trials=48))
            if _rank(prop.payload(columns, 0)) == rank
        ]
    failed = passed = 0
    for columns, shared in batches:
        rolled_ops.clear()
        divs, agrees, tieds = prop.check(columns, shared)
        rolls, n = np.concatenate(rolled_ops), len(divs)
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


def test_metrics_suite_asserts_each_pair_under_any_switches():
    res = run_metrics(SuiteConfig(trials=50))
    assert res.failures == 0 and res.passes == 50 - res.tie_count
    assert set(res.extra) == {"c_cons", "mascc", "s_cons_zeropad"}
    assert res.extra["c_cons"]["untied_agreement"] == 1.0
    assert res.extra["mascc"]["untied_agreement"] == 1.0

    # With a switch off, as end2end does, each failing pair is counted and the
    # first is a counterexample that replays through end2end's check.
    broken = run_metrics(SuiteConfig(trials=50, disable=("a_wsa",)))
    assert broken.failures > 0 and broken.counterexample["suite"] == "metrics"
    assert broken.extra["c_cons"]["untied_agreement"] < 1.0
    assert replay(json.loads(json.dumps(broken.counterexample)))[0] == 1


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
    code, line = replay(sentinel(SuiteConfig(), ["ablation"]))
    assert code == 1
    assert "failed (['ablation']); nothing to re-execute" in line


def test_replay_counts_a_huge_shift_mod_the_grid():
    # A claim1 payload on a (96, 2) signal replays at shift 2**63 - 1 as at its
    # residue 31: the predicted rotation is taken mod the grid, not from an
    # int64 sum that wrapped.
    rng = np.random.default_rng(7)
    for _ in range(4):
        x = rng.uniform(-1, 1, (96, 2))
        lines = []
        for shift in (2**63 - 1, 31):
            payload = {**first_payload("claim1"), "x": x, "shift": shift}
            lines.append(replay(json.loads(json.dumps(_counterexample("claim1", 0.0, 1.0, payload)))))
        assert lines[0] == lines[1] and lines[0][0] == 0


def test_rank2_claim1_counterexample_replays():
    # A claim1 payload on an 8x8 signal takes a per-axis shift; a rank-1 one
    # still takes a bare int, and an offset nested deeper is still refused.
    rank2 = _rank2_payloads("claim1")[0]
    rank1 = first_payload("claim1")
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
    with pytest.raises(ConfigError):
        replay({"kind": "counterexample", "suite": ["claim1"]})


@pytest.mark.parametrize("name", list(PROPERTIES))
def test_first_payload_replays_with_zero_drift(name):
    prop = PROPERTIES[name]
    payload, shared = trial_payloads(name, SuiteConfig(trials=1))[0]
    divs, _, _ = prop.check(prop.columns(payload), shared)
    div = float(divs[0])
    # A tolerance below the divergence makes replay reproduce and report drift.
    doc = json.loads(json.dumps(_counterexample(name, div - 1.0, div, payload)))
    code, line = replay(doc)
    assert code == 1
    assert "drift 0.000e+00" in line


@pytest.mark.parametrize("name", list(PROPERTIES))
def test_rows_replay_through_payload_and_columns_bit_for_bit(name):
    # Each row of a sampled batch, sent alone through `payload`, a JSON round
    # trip, `columns` and the check, with nothing shared, holds the batch's
    # values for that row and gets the (divergence, agree, tied) the batch gave
    # it, bit for bit.
    prop = PROPERTIES[name]
    shapes = set()
    for indices, columns, shared in prop.batches(SuiteConfig(trials=3 if name == "lemma1" else 12)):
        div, agree, tied = prop.check(columns, shared)
        for k in range(len(indices)):
            row = prop.payload(columns, k)
            payload = json.loads(json.dumps(_counterexample(name, 0.0, 0.0, row)))["payload"]
            if "shift" in payload:
                shapes.add((type(payload["shift"]).__name__, np.ndim(payload["shift"]), _rank(payload)))
            assert all(np.array_equal(payload[key], columns[key][k]) for key in prop.rows)
            alone = prop.check(prop.columns(payload))
            assert alone[0].tobytes() == div[k : k + 1].tobytes()
            assert alone[1].tolist() == [agree[k]] and alone[2].tolist() == [tied[k]]
    # claim1's bare-int shift, claim2's list-valued one, and rank-2 apmerge rows.
    want = {"claim1": {("int", 0, 1)}, "claim2": {("list", 1, 1)},
            "apmerge": {("list", 1, 1), ("list", 1, 2)}}
    assert shapes == want.get(name, set())


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
         "payload": {**first_payload("claim2"), "window": 2.5}},
        {"kind": "counterexample", "suite": "end2end", "tolerance": 0.0, "divergence": 1.0,
         "payload": {**end2end_payload(ModelConfig()), "shift_a": [[0]]}},
        {"kind": "counterexample", "suite": "apmerge", "tolerance": 0.0, "divergence": 1.0,
         "payload": {**first_payload("apmerge"), "grid": [[16]]}},
    ],
)
def test_replay_rejects_malformed_counterexamples(doc):
    with pytest.raises(ConfigError):
        replay(doc)


# Each wrong kind of JSON value a replay payload key may be given; "all true"
# is a boolean array of the written value's shape (a bare true for a scalar).
WRONG_KINDS = {
    "float": lambda v: 2.5,
    "bool": lambda v: True,
    "string": lambda v: "4",
    "[1]": lambda v: [1],
    "[[1]]": lambda v: [[1]],
    "null": lambda v: None,
    "{}": lambda v: {},
    "all true": lambda v: np.ones(np.shape(v), bool).tolist(),
}
_OFFSETS = ("m", "shift", "shift_a", "shift_b")


def _taken_in_place_of(key, written, value) -> bool:
    """Whether a check legitimately takes `value` where the sampler wrote
    `written`: a number for a float scalar, an object for an object, and for an
    offset a bare int or one int per axis."""
    if isinstance(written, float):
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(written, dict):
        return isinstance(value, dict)
    return key in _OFFSETS and value == [1]


@pytest.mark.parametrize("kind", list(WRONG_KINDS))
@pytest.mark.parametrize("suite", list(PROPERTIES))
def test_replay_rejects_each_wrong_kind_of_payload_value(suite, kind):
    # Each key of the suite's first payload, alone replaced by a value of the
    # wrong kind, is bad configuration, wherever the value is checked.
    written = json.loads(json.dumps(_counterexample(suite, 0.0, 1.0, first_payload(suite))))
    for key, value in written["payload"].items():
        wrong = WRONG_KINDS[kind](value)
        if _taken_in_place_of(key, value, wrong):
            continue
        doc = {**written, "payload": {**written["payload"], key: wrong}}
        with pytest.raises(ConfigError):
            replay(doc)


@pytest.mark.parametrize("suite", list(PROPERTIES))
def test_replay_names_a_missing_payload_key(suite):
    written = first_payload(suite)
    for key in written:
        payload = {k: v for k, v in written.items() if k != key}
        with pytest.raises(ConfigError, match=f"lacks key.*{key!r}"):
            replay(_counterexample(suite, 0.0, 1.0, payload))


def test_replay_reproduces_crafted_failure_with_zero_drift():
    payload = end2end_payload(ModelConfig().disable("a_token"))
    from eqvit.harness import _end2end_divergence

    divs, _, _ = _end2end_divergence(PROPERTIES["end2end"].columns(payload))
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
    payload = first_payload("claim1")

    def check(columns, shared=None):
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
    name: json.dumps(_counterexample(name, 0.0, 1.0, first_payload(name))) for name in PROPERTIES
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
