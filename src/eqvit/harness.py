"""Randomized and exhaustive verification suites behind the CLI.

Suites:

  lemma1    exhaustive unit-shift/tokenization interchange at small sizes
  claim1    adaptive tokenization aligns bit-exactly under input shifts
  claim2    adaptive window attention aligns to a window multiple at 1e-12
  claim3    merge and full-rate convolution routes agree at 1e-12
  apmerge   adaptive merge output is exactly a rotation of the base output
  end2end   classifier invariance and decoder equivariance at 1e-9
  metrics   consistency scores of the configured model
  ablation  per-switch counterexample search on the search config

Every suite draws from a PCG64 stream derived from (seed, suite index), so
a run is a pure function of its SuiteConfig and reports are byte-stable.

The six trial-based suites (lemma1 through end2end) are rows of one
property table, run by one loop: a payload sampler, one check (payload ->
divergence, agree, tied) and a tolerance.  `replay` and the ablation search
call the same checks, so a replayed counterexample cannot drift from the
suite that found it.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import partial
from itertools import product
from math import prod

import numpy as np

from .attention import ADAPTIVE, AttentionParams, RpeTable, WindowConfig, a_wsa
from .errors import ConfigError, ParameterError, ShapeError, TraceError
from .merging import MergeConfig, a_pmerge, pmerge, pmerge_conv_fullrate
from .metrics import ShiftSampler, c_cons, mascc, s_cons_zeropad, synthetic_inputs
from .numerics import GridSignal, circular_shift, require_finite
from .pipeline import SWITCHES, Model, ModelConfig, build_model, check_seed, forward
from .tokenizer import PatchEmbedConfig, TokenMatrix, a_token, lemma1_sides

SUITES = ("lemma1", "claim1", "claim2", "claim3", "apmerge", "end2end", "metrics", "ablation")
PROOF_SUITES = SUITES[:4]

# Tolerances asserted by the suites.  Alignment suites for tokenization and
# merge selection are exact; attention and the merge/conv route comparison
# allow float reassociation; end-to-end allows it across the whole stack.
TOL_EXACT = 0.0
TOL_ROUTE = 1e-12
TOL_END2END = 1e-9

DEFAULT_TRIALS = {
    "lemma1": 100,  # inputs per (N, L) pair
    "claim1": 1000,
    "claim2": 1000,
    "claim3": 500,
    "apmerge": 500,
    "end2end": 200,
    "metrics": 200,
    "ablation": 1000,  # search budget per switch
}

_SEED_INDEX = {name: i + 1 for i, name in enumerate(SUITES)}

# Search model for the ablation suite.  The window must not be a multiple of
# the merge stride: aligned window attention rotates token grids by window
# multiples, and if the stride divided those the fixed-phase merge would stay
# invariant by accident and no counterexample could exist.
ABLATION_SEARCH_MODEL = ModelConfig(
    input_shape=(96,),
    channels=2,
    patch_len=4,
    depth=2,
    windows=(3, 3),
    merge_factors=(2, 2),
    embed_dim=8,
)


@dataclass(frozen=True)
class SuiteConfig:
    """Everything a run depends on; equal configs give byte-equal reports."""

    suites: tuple[str, ...] = SUITES
    model: ModelConfig = field(default_factory=ModelConfig)
    seed: int = 0
    trials: int | None = None
    disable: tuple[str, ...] = ()
    lemma_n: tuple[int, ...] = (4, 6, 8, 12)
    lemma_l: tuple[int, ...] = (1, 2, 3, 4)

    def __post_init__(self):
        check_seed(self.seed)
        for s in self.suites:
            if s not in SUITES:
                raise ConfigError(f"unknown suite {s!r}, choose from {SUITES}")
        for s in self.disable:
            if s not in SWITCHES:
                raise ConfigError(f"unknown switch {s!r}, choose from {SWITCHES}")
        if self.trials is not None and self.trials < 1:
            raise ConfigError("trials must be >= 1")
        object.__setattr__(self, "suites", tuple(dict.fromkeys(self.suites)))
        object.__setattr__(self, "disable", tuple(dict.fromkeys(self.disable)))
        object.__setattr__(self, "lemma_n", tuple(int(n) for n in self.lemma_n))
        object.__setattr__(self, "lemma_l", tuple(int(l) for l in self.lemma_l))

    def resolved_model(self) -> ModelConfig:
        cfg = dataclasses.replace(self.model, seed=self.seed)
        if self.disable:
            cfg = cfg.disable(*self.disable)
        return cfg

    def suite_trials(self, name: str) -> int:
        return self.trials if self.trials is not None else DEFAULT_TRIALS[name]

    def rng(self, name: str) -> np.random.Generator:
        return np.random.default_rng([self.seed, _SEED_INDEX[name]])

    def derived_seed(self, name: str, salt: int) -> int:
        seq = np.random.SeedSequence([self.seed, _SEED_INDEX[name], salt])
        return int(seq.generate_state(1)[0])

    def to_dict(self) -> dict:
        return {
            "suites": list(self.suites),
            "seed": self.seed,
            "trials": self.trials,
            "disable": list(self.disable),
            "lemma_n": list(self.lemma_n),
            "lemma_l": list(self.lemma_l),
        }


@dataclass
class SuiteResult:
    name: str
    trials: int
    passes: int
    failures: int
    max_divergence: float
    tie_count: int
    extra: dict = field(default_factory=dict)
    counterexample: dict | None = None

    def row(self) -> dict:
        row = {
            "name": self.name,
            "trials": self.trials,
            "passes": self.passes,
            "failures": self.failures,
            "max_divergence": self.max_divergence,
            "tie_count": self.tie_count,
        }
        if self.extra:
            row["extra"] = self.extra
        if self.counterexample is not None:
            row["counterexample"] = True
        return row


def _max_abs(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


def _best_alignment(shifted: TokenMatrix, base: TokenMatrix, step: int = 1) -> float:
    """Smallest max-abs difference over grid rotations of `base` by `step`."""
    candidates = product(*(range(0, g, step) for g in base.grid_shape))
    return min(_max_abs(shifted.data, base.shift(r).data) for r in candidates)


def _json_kind(value) -> tuple[str, bool]:
    """(NumPy dtype kind, is a list) of a payload value; a ragged list has no kind."""
    try:
        return np.asarray(value).dtype.kind, np.ndim(value) > 0
    except ValueError:
        return "ragged", True


def _counterexample(suite: str, tolerance: float, divergence: float, payload: dict) -> dict:
    return {
        "kind": "counterexample",
        "suite": suite,
        "tolerance": tolerance,
        "divergence": divergence,
        "payload": {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in payload.items()},
    }


def sentinel(config: SuiteConfig) -> dict:
    return {"kind": "sentinel", "status": "pass", "suites": list(config.suites)}


# ------------------------------------------------------------- properties --


@dataclass(frozen=True)
class Property:
    """One trial-based suite: its trials, their check, and its bound.

    `sample(sc)` yields (payload, shared) per trial: the payload holds every
    input the check reads, `shared` the objects built once per suite from its
    fixed fields, or None.  `check(payload, shared=None)` builds what it is
    not given, as replay does, and returns (divergence, agree, tied); `agree`
    is False when labels differ.  A trial passes when it agrees within
    `tolerance`; tied trials are counted, not asserted.
    """

    sample: Callable[[SuiteConfig], Iterator[tuple[dict, object]]]
    check: Callable[..., tuple[float, bool, bool]]
    tolerance: float


def _lemma1_trials(sc: SuiteConfig):
    rng = sc.rng("lemma1")
    for n in sc.lemma_n:
        for l in sc.lemma_l:
            if n % l:
                continue
            embed = rng.uniform(-0.5, 0.5, size=(l * 2, 5))
            cfg = PatchEmbedConfig(l, embed)
            for _ in range(sc.suite_trials("lemma1")):
                x = rng.uniform(-1.0, 1.0, size=(n, 2))
                for m in range(l):
                    yield {"n": n, "l": l, "m": m, "x": x, "embed": embed}, cfg


def _lemma1_check(payload: dict, cfg: PatchEmbedConfig | None = None):
    cfg = cfg or PatchEmbedConfig(payload["l"], np.asarray(payload["embed"]))
    left, right = lemma1_sides(GridSignal(np.asarray(payload["x"])), cfg, payload["m"])
    return _max_abs(left, right), True, False


def _claim1_trials(sc: SuiteConfig):
    rng = sc.rng("claim1")
    n, l = 64, 4  # signal length, patch length
    embed = rng.uniform(-0.5, 0.5, size=(l * 2, 8))
    cfg = PatchEmbedConfig(l, embed)
    fixed = {"l": l, "invariant_fn": cfg.invariant_fn, "embed": embed}
    for _ in range(sc.suite_trials("claim1")):
        x = rng.uniform(-1.0, 1.0, size=(n, 2))
        yield {**fixed, "x": x, "shift": int(rng.integers(0, n))}, cfg


def _claim1_check(payload: dict, cfg: PatchEmbedConfig | None = None):
    cfg = cfg or PatchEmbedConfig(
        payload["l"], np.asarray(payload["embed"]), payload["invariant_fn"]
    )
    x = GridSignal(np.asarray(payload["x"]))
    base, tb = a_token(x, cfg)
    out, ts = a_token(circular_shift(x, int(payload["shift"])), cfg)
    return _best_alignment(out, base), True, tb.any_tied or ts.any_tied


def _window_attention(payload: dict) -> tuple[WindowConfig, AttentionParams, RpeTable]:
    wcfg = WindowConfig(payload["window"], payload["energy_p"], payload["energy_fn"])
    params = AttentionParams(*(np.asarray(payload[k]) for k in ("e_q", "e_k", "e_v")))
    table = payload["rpe_table"]
    rpe = RpeTable.none() if table is None else RpeTable(payload["rpe_kind"], np.asarray(table))
    return wcfg, params, rpe


def _claim2_trials(sc: SuiteConfig):
    rng = sc.rng("claim2")
    m, w, d = 16, 4, 8  # tokens, window, token dimension
    fixed = {
        "grid": [m],
        "window": w,
        "energy_p": 2.0,
        "energy_fn": "max",
        "e_q": rng.uniform(-0.5, 0.5, (d, d)),
        "e_k": rng.uniform(-0.5, 0.5, (d, d)),
        "e_v": rng.uniform(-0.5, 0.5, (d, d)),
        "rpe_kind": ADAPTIVE,
        "rpe_table": rng.uniform(-0.5, 0.5, w),
    }
    parts = _window_attention(fixed)
    for _ in range(sc.suite_trials("claim2")):
        t = rng.uniform(-1.0, 1.0, (m, d))
        yield {**fixed, "t": t, "shift": [int(rng.integers(0, m))]}, parts


def _claim2_check(payload: dict, parts=None):
    wcfg, params, rpe = parts or _window_attention(payload)
    t = TokenMatrix(np.asarray(payload["t"]), tuple(payload["grid"]))
    base, tb = a_wsa(t, wcfg, params, rpe)
    out, ts = a_wsa(t.shift(tuple(payload["shift"])), wcfg, params, rpe)
    return _best_alignment(out, base, step=wcfg.window), True, tb.any_tied or ts.any_tied


def _claim3_trials(sc: SuiteConfig):
    rng = sc.rng("claim3")
    for i in range(sc.suite_trials("claim3")):
        if i % 2:
            grid = (4, 4) if i % 4 == 1 else (6, 6)
            p = 2
        else:
            grid = (int(rng.choice([8, 12, 16])),)
            p = int(rng.choice([2, 4]))
        d = int(rng.integers(2, 7))
        t = rng.uniform(-1.0, 1.0, (prod(grid), d))
        embed = rng.uniform(-0.5, 0.5, (p ** len(grid) * d, 2 * d))
        yield {"grid": list(grid), "t": t, "factor": p, "embed": embed}, None


def _claim3_check(payload: dict, _shared=None):
    t = TokenMatrix(np.asarray(payload["t"]), tuple(payload["grid"]))
    cfg = MergeConfig(payload["factor"], np.asarray(payload["embed"]))
    full = pmerge_conv_fullrate(t, cfg)
    phase_zero = full.grid()[tuple(slice(0, None, cfg.factor) for _ in t.grid_shape)]
    return _max_abs(pmerge(t, cfg).grid(), phase_zero), True, False


def _apmerge_trials(sc: SuiteConfig):
    rng = sc.rng("apmerge")
    for i in range(sc.suite_trials("apmerge")):
        rank = 2 if i % 3 == 2 else 1
        grid = (8, 8) if rank == 2 else (int(rng.choice([8, 12, 16])),)
        d = int(rng.integers(2, 7))
        t = rng.uniform(-1.0, 1.0, (prod(grid), d))
        embed = rng.uniform(-0.5, 0.5, (2**rank * d, 2 * d))
        payload = {"grid": list(grid), "t": t, "factor": 2, "embed": embed, "energy_p": 2.0}
        payload["shift"] = [int(rng.integers(0, g)) for g in grid]
        yield payload, None


def _apmerge_check(payload: dict, _shared=None):
    t = TokenMatrix(np.asarray(payload["t"]), tuple(payload["grid"]))
    cfg = MergeConfig(payload["factor"], np.asarray(payload["embed"]), payload["energy_p"])
    base, tb = a_pmerge(t, cfg)
    out, ts = a_pmerge(t.shift(tuple(payload["shift"])), cfg)
    return _best_alignment(out, base), True, tb.any_tied or ts.any_tied


def _end2end_trials(sc: SuiteConfig):
    cfg = sc.resolved_model()
    model = build_model(cfg)
    trials = sc.suite_trials("end2end")
    pairs = 5
    inputs = synthetic_inputs(
        cfg.input_shape, cfg.channels, -(-trials // pairs), sc.derived_seed("end2end", 1)
    )
    sampler = ShiftSampler.for_shape(cfg.input_shape, pairs, sc.derived_seed("end2end", 2))
    offsets = sampler.sample_pairs(len(inputs)).tolist()
    fixed = {"model_config": cfg.to_dict(), "check": "both"}
    for k in range(trials):
        i, j = divmod(k, pairs)
        off_a, off_b = offsets[i][j]
        yield {**fixed, "input": inputs[i].data, "shift_a": off_a, "shift_b": off_b}, model


def _end2end_divergence(payload: dict, model: Model | None = None):
    """end2end and ablation check: one input at two shifts through both heads.

    Logits and labels must agree.  Check "both" also compares the decoded
    maps, each rotated back by its shift, and their per-position argmax.
    """
    if payload["check"] not in ("classify", "both"):
        raise ConfigError(f"end2end check must be 'classify' or 'both', not {payload['check']!r}")
    model = model or build_model(ModelConfig.from_dict(payload["model_config"]))
    x = GridSignal(np.asarray(payload["input"]))
    off_a, off_b = tuple(payload["shift_a"]), tuple(payload["shift_b"])
    logits_a, label_a, map_a, trace_a = forward(model, circular_shift(x, off_a))
    logits_b, label_b, map_b, trace_b = forward(model, circular_shift(x, off_b))
    div = _max_abs(logits_a, logits_b)
    agree = label_a == label_b
    if payload["check"] == "both":
        axes = tuple(range(x.rank))
        back_a, back_b = np.roll(map_a, off_a, axis=axes), np.roll(map_b, off_b, axis=axes)
        div = max(div, _max_abs(back_a, back_b))
        agree = agree and bool(np.all(np.argmax(back_a, -1) == np.argmax(back_b, -1)))
    return div, agree, trace_a.any_tied or trace_b.any_tied


PROPERTIES = {
    "lemma1": Property(_lemma1_trials, _lemma1_check, TOL_EXACT),
    "claim1": Property(_claim1_trials, _claim1_check, TOL_EXACT),
    "claim2": Property(_claim2_trials, _claim2_check, TOL_ROUTE),
    "claim3": Property(_claim3_trials, _claim3_check, TOL_ROUTE),
    "apmerge": Property(_apmerge_trials, _apmerge_check, TOL_EXACT),
    "end2end": Property(_end2end_trials, _end2end_divergence, TOL_END2END),
}


def _run_property(name: str, sc: SuiteConfig) -> SuiteResult:
    """Run every trial of a property suite; keep the first failure as counterexample."""
    prop = PROPERTIES[name]
    trials = passes = ties = 0
    max_div = 0.0
    worst = None
    for payload, shared in prop.sample(sc):
        trials += 1
        div, agree, tied = prop.check(payload, shared)
        if tied:
            ties += 1
            continue
        max_div = max(max_div, div)
        if agree and div <= prop.tolerance:
            passes += 1
        elif worst is None:
            worst = _counterexample(name, prop.tolerance, div, payload)
    failures = trials - ties - passes
    return SuiteResult(name, trials, passes, failures, max_div, ties, counterexample=worst)


run_lemma1 = partial(_run_property, "lemma1")
run_claim1 = partial(_run_property, "claim1")
run_claim2 = partial(_run_property, "claim2")
run_claim3 = partial(_run_property, "claim3")
run_apmerge = partial(_run_property, "apmerge")
run_end2end = partial(_run_property, "end2end")


# --------------------------------------------------------------- metrics --


def _untied_stats(rep) -> tuple[float, float, int]:
    """(agreement, max divergence, count) over the tie-free records."""
    recs = [r for r in rep.records if not r.tied]
    if not recs:
        return 1.0, 0.0, 0
    agg = sum(r.agreement for r in recs) / len(recs)
    return agg, max(r.divergence for r in recs), len(recs)


def run_metrics(sc: SuiteConfig) -> SuiteResult:
    cfg = sc.resolved_model()
    model = build_model(cfg)
    pairs = 5
    count = max(1, sc.suite_trials("metrics") // pairs)
    inputs = synthetic_inputs(
        cfg.input_shape, cfg.channels, count, sc.derived_seed("metrics", 1)
    )
    sampler = ShiftSampler.for_shape(cfg.input_shape, pairs, sc.derived_seed("metrics", 2))
    rep_c = c_cons(model, inputs, sampler)
    rep_m = mascc(model, inputs, sampler)
    rep_s = s_cons_zeropad(model, inputs, sampler)
    fully_adaptive = cfg.a_token and cfg.a_wsa and cfg.a_pmerge and cfg.adaptive_rpe
    trials = rep_c.trials + rep_m.trials + rep_s.trials
    # Exact-tie trials (the impulse inputs construct them on purpose) fall
    # outside the guarantees and are reported, not asserted.
    agg_c, div_c, untied_c = _untied_stats(rep_c)
    agg_m, div_m, untied_m = _untied_stats(rep_m)
    failures = 0
    if fully_adaptive:
        # Tie-free circular-shift scores of the adaptive model must be
        # perfect; the zero-pad score is reported without an assertion since
        # content actually changes at the boundary.
        if agg_c != 1.0 or div_c > TOL_END2END:
            failures += 1
        if agg_m != 1.0 or div_m > TOL_END2END:
            failures += 1
    div = max(div_c, div_m)
    extra = {
        "c_cons": {**rep_c.summary(), "untied_trials": untied_c, "untied_agreement": agg_c},
        "mascc": {**rep_m.summary(), "untied_trials": untied_m, "untied_agreement": agg_m},
        "s_cons_zeropad": rep_s.summary(),
        "asserted": fully_adaptive,
    }
    return SuiteResult(
        name="metrics",
        trials=trials,
        passes=trials - failures,
        failures=failures,
        max_divergence=div,
        tie_count=rep_c.tie_count + rep_m.tie_count + rep_s.tie_count,
        extra=extra,
    )


# -------------------------------------------------------------- ablation --


def _ablation_search(
    sc: SuiteConfig, switch: str, budget: int
) -> tuple[dict, dict | None]:
    cfg = dataclasses.replace(ABLATION_SEARCH_MODEL, seed=sc.seed).disable(switch)
    model = build_model(cfg)
    rng = np.random.default_rng([sc.seed, _SEED_INDEX["ablation"], SWITCHES.index(switch)])
    shape, channels = cfg.input_shape, cfg.channels
    fixed = {"model_config": cfg.to_dict(), "check": "classify"}
    found = None
    used = ties = 0
    for used in range(1, budget + 1):
        payload = {
            **fixed,
            "input": rng.uniform(-1.0, 1.0, size=(*shape, channels)),
            "shift_a": [int(rng.integers(0, n // 2)) for n in shape],
            "shift_b": [int(rng.integers(0, n // 2)) for n in shape],
        }
        div, agree, tied = _end2end_divergence(payload, model)
        if tied:
            ties += 1
            continue
        if div > TOL_END2END or not agree:
            found = _counterexample("ablation", TOL_END2END, div, payload)
            break
    summary = {"switch": switch, "found": found is not None, "trials": used, "ties": ties}
    if found is not None:
        summary["divergence"] = found["divergence"]
        inputs = synthetic_inputs(shape, channels, 8, sc.derived_seed("ablation", 64))
        sampler = ShiftSampler.for_shape(shape, 5, sc.derived_seed("ablation", 65))
        summary["c_cons"] = c_cons(model, inputs, sampler).aggregate
    return summary, found


def run_ablation(sc: SuiteConfig) -> SuiteResult:
    budget = sc.suite_trials("ablation")
    switches = sc.disable if sc.disable else SWITCHES
    summaries = []
    examples = []
    trials = ties = 0
    max_div = 0.0
    for switch in switches:
        summary, found = _ablation_search(sc, switch, budget)
        summaries.append(summary)
        trials += summary["trials"]
        ties += summary["ties"]
        if found is not None:
            examples.append(found)
            max_div = max(max_div, found["divergence"])
    failures = sum(1 for s in summaries if not s["found"])
    return SuiteResult(
        name="ablation",
        trials=trials,
        passes=len(summaries) - failures,
        failures=failures,
        max_divergence=max_div,
        tie_count=ties,
        extra={"search_model": ABLATION_SEARCH_MODEL.to_dict(), "switches": summaries},
        counterexample=examples[0] if examples else None,
    )


# ------------------------------------------------------------ run/replay --

_RUNNERS = {
    "lemma1": run_lemma1,
    "claim1": run_claim1,
    "claim2": run_claim2,
    "claim3": run_claim3,
    "apmerge": run_apmerge,
    "end2end": run_end2end,
    "metrics": run_metrics,
    "ablation": run_ablation,
}


def run_suites(sc: SuiteConfig) -> tuple[dict, list[SuiteResult]]:
    """Execute the selected suites in canonical order; return (report, results)."""
    results = [_RUNNERS[name](sc) for name in SUITES if name in sc.suites]
    metrics_extra = {}
    for r in results:
        if r.name == "metrics":
            metrics_extra = {
                k: v for k, v in r.extra.items() if k in ("c_cons", "mascc", "s_cons_zeropad")
            }
    report = {
        "suite_config": sc.to_dict(),
        "model_config": sc.resolved_model().to_dict(),
        "suites": [r.row() for r in results],
        "metrics": metrics_extra,
    }
    return report, results


def replay(document: dict) -> tuple[int, str]:
    """Re-execute a replay file; (exit code, human-readable line).

    Sentinels from passing runs exit 0.  Counterexamples recompute their
    divergence from the serialized payload with the suite's own check
    (ablation ones with the end2end check): still past tolerance exits 1,
    no longer failing exits 0, and so does a recomputed trial that ties, which
    the suites count and never assert.  A malformed document raises ConfigError
    before any check runs, and so does a payload its check rejects or overflows on.
    """
    if not isinstance(document, dict):
        raise ConfigError(f"replay file must hold a JSON object, not {type(document).__name__}")
    kind = document.get("kind")
    if kind == "sentinel":
        return 0, "sentinel from a passing run; nothing to reproduce"
    if kind != "counterexample":
        raise ConfigError(f"replay file has unknown kind {kind!r}")
    suite = document.get("suite")
    if suite not in PROPERTIES and suite != "ablation":
        raise ConfigError(f"replay file names unknown suite {suite!r}")
    prop = PROPERTIES["end2end" if suite == "ablation" else suite]
    for key in ("tolerance", "divergence"):
        if _json_kind(document.get(key)) not in (("f", False), ("i", False)):
            raise ConfigError(f"replay file needs a numeric {key!r}")
    payload = document.get("payload")
    if not isinstance(payload, dict):
        raise ConfigError("replay file needs a payload object")
    # Each value has the JSON kind the sampler writes (ints may stand for floats);
    # a wrong shape surfaces as ShapeError from the check.
    written, _ = next(prop.sample(SuiteConfig(trials=1)))
    missing = sorted(set(written) - set(payload))
    if missing:
        raise ConfigError(f"{suite} payload lacks keys {missing}")
    for key, value in written.items():
        want, got = _json_kind(value), _json_kind(payload[key])
        if got != want and (want[0], got) != ("f", ("i", want[1])):
            raise ConfigError(f"{suite} payload {key!r} has (kind, is list) {got}, not {want}")
    recorded = float(document["divergence"])
    tolerance = float(document["tolerance"])
    try:
        div, _, tied = prop.check(payload)
        require_finite(np.asarray(div), "its divergence")
    except (ShapeError, ParameterError, TraceError) as err:
        raise ConfigError(f"{suite} payload cannot be checked: {err}") from err
    if tied:
        return 0, f"{suite}: trial is tied (divergence {div:.6e}); tied trials are not asserted"
    drift = abs(div - recorded)
    if div > tolerance:
        return 1, (
            f"{suite}: reproduced divergence {div:.6e} "
            f"(recorded {recorded:.6e}, drift {drift:.3e}, tolerance {tolerance:.1e})"
        )
    return 0, (
        f"{suite}: divergence {div:.6e} no longer exceeds tolerance {tolerance:.1e}"
    )
