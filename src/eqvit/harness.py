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
property table, run by one loop: a payload sampler, a batch key, one check
(payloads -> divergence, agree, tied per payload) and a tolerance.  The loop
groups a suite's trials by shared object and key, hands the check each group
in trial-ordered batches of at most `TRIAL_BATCH`, and every check runs its
batch through the batched ops; the first failing trial in trial order is
the counterexample.  `replay` and the ablation search call the same checks,
so a replayed counterexample cannot drift from the suite that found it.
The end2end check, the ablation search and the metrics suite compare shift
pairs through one function, `metrics.compare_shift_pairs`.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import partial
from itertools import count, islice, product
from math import prod

import numpy as np

from .attention import ADAPTIVE, AttentionParams, RpeTable, WindowConfig, a_wsa
from .errors import ConfigError, ParameterError, ShapeError, TraceError
from .merging import MergeConfig, a_pmerge, pmerge, pmerge_conv_fullrate
from .metrics import ShiftSampler, c_cons, compare_shift_pairs, consistency, s_cons_zeropad
from .metrics import synthetic_inputs
from .numerics import GridSignal, as_offset, circular_shift, max_abs_rows, require_finite
from .numerics import grid_index, rotate_rows
from .pipeline import MAX_BATCH, SWITCHES, Model, ModelConfig, build_model, check_seed
from .pipeline import MAX_ELEMENTS, is_finite_number
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

# Trials per check call; a batched check runs at most two model inputs per
# trial, so no batch exceeds `MAX_BATCH`.
TRIAL_BATCH = MAX_BATCH // 2

# Channels of a lemma1 input and dimension of its tokens.
LEMMA1_CHANNELS, LEMMA1_DIM = 2, 5

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
        if min(self.lemma_n + self.lemma_l, default=1) < 1:
            raise ConfigError("lemma1 sizes n and l must be >= 1")
        name, size = max(self.lemma1_sizes(), key=lambda item: item[1], default=("", 0))
        if size > MAX_ELEMENTS:
            raise ConfigError(f"lemma1 {name} would hold {size} entries, more than {MAX_ELEMENTS}")
        pairs = product(self.lemma_n, self.lemma_l)
        if "lemma1" in self.suites and all(n % l for n, l in pairs):
            raise ConfigError(
                f"lemma1 needs a patch length l that divides a signal length n, "
                f"got n {list(self.lemma_n)} and l {list(self.lemma_l)}"
            )

    def lemma1_sizes(self) -> list[tuple[str, int]]:
        """(name, entries) of the largest arrays of a lemma1 batch of up to
        `TRIAL_BATCH` (n, C) inputs, per (n, l) pair it runs: the gathered
        (2, B, n / l, l * C) sides, twice the inputs, and each side's
        (B, n / l, D) projection.  Integer arithmetic, as in
        `ModelConfig.activation_sizes`."""
        b = TRIAL_BATCH
        sizes = []
        for n, l in product(self.lemma_n, self.lemma_l):
            if n % l == 0:
                sizes.append((f"gathered sides at n {n}, l {l}", 2 * b * n * LEMMA1_CHANNELS))
                sizes.append((f"projected side at n {n}, l {l}", b * n // l * LEMMA1_DIM))
        return sizes

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


def _best_alignment(shifted: TokenMatrix, base: TokenMatrix, step: int = 1):
    """Smallest max-abs difference over grid rotations of `base` by `step`,
    per sample of a batch (a float for one token matrix)."""
    rotations = list(product(*(range(0, g, step) for g in base.grid_shape)))
    a, b = shifted.stack(), base.stack()
    divs = np.empty((len(a), len(rotations)))
    for j, r in enumerate(rotations):
        rotated = b.take(grid_index(base.grid_shape, 1, 1, r)[:, 0], axis=1)
        divs[:, j] = np.abs(a - rotated).reshape(len(a), -1).max(axis=-1)
    # As Python's `min`: a NaN candidate (an overflowed payload) is skipped
    # unless it comes first.
    best = np.where(np.isnan(divs[:, 0]), divs[:, 0], np.fmin.reduce(divs, axis=1))
    return best if base.batched else float(best[0])


def _json_kind(value) -> tuple[str, int]:
    """(NumPy dtype kind, list depth) of a payload value; a ragged list has no kind."""
    try:
        return np.asarray(value).dtype.kind, np.ndim(value)
    except ValueError:
        return "ragged", 1


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
    fixed fields, or None.  `key(payload)` holds the payload fields that fix
    shapes and scalars.  `check(payloads, shared=None)` takes a list of
    payloads with one shared object and one key, builds what it is not given,
    as replay does, and returns (divergence, agree, tied) arrays with one
    entry per payload; `agree` is False when labels differ.  A trial passes
    when it agrees within `tolerance`; tied trials are counted, not asserted.
    """

    sample: Callable[[SuiteConfig], Iterator[tuple[dict, object]]]
    check: Callable[..., tuple[np.ndarray, np.ndarray, np.ndarray]]
    tolerance: float
    key: Callable[[dict], tuple] = lambda payload: ()


def _lemma1_trials(sc: SuiteConfig):
    rng = sc.rng("lemma1")
    for n in sc.lemma_n:
        for l in sc.lemma_l:
            if n % l:
                continue
            embed = rng.uniform(-0.5, 0.5, size=(l * LEMMA1_CHANNELS, LEMMA1_DIM))
            cfg = PatchEmbedConfig(l, embed)
            for _ in range(sc.suite_trials("lemma1")):
                x = rng.uniform(-1.0, 1.0, size=(n, LEMMA1_CHANNELS))
                for m in range(l):
                    yield {"n": n, "l": l, "m": m, "x": x, "embed": embed}, cfg


def _lemma1_check(payloads: list[dict], cfg: PatchEmbedConfig | None = None):
    """Both sides of the interchange for every input as one `lemma1_sides` batch."""
    first = payloads[0]
    cfg = cfg or PatchEmbedConfig(first["l"], np.asarray(first["embed"]))
    # The sampler hands one input to each of its l offsets: validate it once.
    signals = {id(p["x"]): p["x"] for p in payloads}
    signals = {k: GridSignal(np.asarray(x)) for k, x in signals.items()}
    xs = [signals[id(p["x"])] for p in payloads]
    left, right = lemma1_sides(xs, cfg, [p["m"] for p in payloads])
    n = len(payloads)
    return max_abs_rows(left, right), np.ones(n, bool), np.zeros(n, bool)


def _claim1_trials(sc: SuiteConfig):
    rng = sc.rng("claim1")
    n, l = 64, 4  # signal length, patch length
    embed = rng.uniform(-0.5, 0.5, size=(l * 2, 8))
    cfg = PatchEmbedConfig(l, embed)
    fixed = {"l": l, "invariant_fn": cfg.invariant_fn, "embed": embed}
    for _ in range(sc.suite_trials("claim1")):
        x = rng.uniform(-1.0, 1.0, size=(n, 2))
        yield {**fixed, "x": x, "shift": int(rng.integers(0, n))}, cfg


def _claim1_check(payloads: list[dict], cfg: PatchEmbedConfig | None = None):
    """Each input and its shift as two `a_token` batches."""
    first = payloads[0]
    cfg = cfg or PatchEmbedConfig(first["l"], np.asarray(first["embed"]), first["invariant_fn"])
    xs = [GridSignal(np.asarray(p["x"])) for p in payloads]
    base, tb = a_token(xs, cfg)
    out, ts = a_token([circular_shift(x, int(p["shift"])) for x, p in zip(xs, payloads)], cfg)
    n = len(payloads)
    return _best_alignment(out, base), np.ones(n, bool), tb.tied | ts.tied


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


def _claim2_check(payloads: list[dict], parts=None):
    """The token matrices and their shifts as two `a_wsa` batches."""
    wcfg, params, rpe = parts or _window_attention(payloads[0])
    grid = tuple(payloads[0]["grid"])
    mats = [TokenMatrix(np.asarray(p["t"]), grid).data for p in payloads]
    shifts = np.array([as_offset(tuple(p["shift"]), len(grid)) for p in payloads])
    t = TokenMatrix._fresh(np.stack(mats), grid)
    base, tb = a_wsa(t, wcfg, params, rpe)
    out, ts = a_wsa(TokenMatrix._fresh(rotate_rows(t.data, grid, shifts), grid), wcfg, params, rpe)
    n = len(payloads)
    div = _best_alignment(out, base, step=wcfg.window)
    return div, np.ones(n, bool), tb.tied | ts.tied


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


def _merge_inputs(payloads: list[dict]) -> tuple[TokenMatrix, np.ndarray]:
    """The payloads' token matrices as one batch, and their (B, K, D') merge embeds."""
    t, embeds = (
        np.stack([np.asarray(p[key], dtype=np.float64) for p in payloads]) for key in ("t", "embed")
    )
    if t.ndim != 3 or embeds.ndim != 3:
        raise ShapeError("payload 't' and 'embed' must be matrices")
    return TokenMatrix(t, tuple(payloads[0]["grid"])), embeds


def _claim3_check(payloads: list[dict], _shared=None):
    """Both merge routes over the token matrices as one batch, one embed per sample."""
    t, embeds = _merge_inputs(payloads)
    cfg = MergeConfig(payloads[0]["factor"], embeds)
    full = pmerge_conv_fullrate(t, cfg).grid()
    phase_zero = full[(slice(None), *(slice(0, None, cfg.factor) for _ in t.grid_shape))]
    n = len(payloads)
    return max_abs_rows(pmerge(t, cfg).grid(), phase_zero), np.ones(n, bool), np.zeros(n, bool)


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


def _apmerge_check(payloads: list[dict], _shared=None):
    """The token matrices and their shifts as one `a_pmerge` batch."""
    t, embeds = _merge_inputs(payloads)
    first, grid, n = payloads[0], t.grid_shape, len(payloads)
    shifts = np.array([as_offset(p["shift"], len(grid)) for p in payloads])
    both = TokenMatrix._fresh(np.concatenate([t.data, rotate_rows(t.data, grid, shifts)]), grid)
    cfg = MergeConfig(first["factor"], np.concatenate([embeds, embeds]), first["energy_p"])
    out, trace = a_pmerge(both, cfg)
    base, shifted = (out.like(half, out.grid_shape) for half in (out.data[:n], out.data[n:]))
    tied = trace.tied
    return _best_alignment(shifted, base), np.ones(n, bool), tied[:n] | tied[n:]


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


def _end2end_divergence(payloads: list[dict], model: Model | None = None):
    """end2end and ablation check: each input at two shifts, compared by
    `compare_shift_pairs`.  Logits and labels must agree; check "both" also
    needs the decoded maps, each rotated back by its shift, to agree."""
    check = payloads[0]["check"]
    if check not in ("classify", "both"):
        raise ConfigError(f"end2end check must be 'classify' or 'both', not {check!r}")
    model = model or build_model(ModelConfig.from_dict(payloads[0]["model_config"]))
    rank = model.config.rank
    xs = [GridSignal(np.asarray(p["input"])) for p in payloads]
    offs = ([as_offset(p[k], rank) for p in payloads] for k in ("shift_a", "shift_b"))
    same_label, agreement, logit_div, map_div, tied = compare_shift_pairs(
        model, list(zip(xs, *offs)), dense=check == "both"
    )
    if check == "classify":
        return logit_div, same_label, tied
    return np.maximum(logit_div, map_div), same_label & (agreement == 1.0), tied


PROPERTIES = {
    "lemma1": Property(
        _lemma1_trials, _lemma1_check, TOL_EXACT, lambda p: (p["l"], np.shape(p["x"]))
    ),
    "claim1": Property(_claim1_trials, _claim1_check, TOL_EXACT),
    "claim2": Property(_claim2_trials, _claim2_check, TOL_ROUTE),
    "claim3": Property(
        _claim3_trials,
        _claim3_check,
        TOL_ROUTE,
        lambda p: (tuple(p["grid"]), np.shape(p["t"]), p["factor"]),
    ),
    "apmerge": Property(
        _apmerge_trials,
        _apmerge_check,
        TOL_EXACT,
        lambda p: (tuple(p["grid"]), np.shape(p["t"]), p["factor"], p["energy_p"]),
    ),
    "end2end": Property(_end2end_trials, _end2end_divergence, TOL_END2END),
}


def _chunks(items: Iterator, sizes) -> Iterator[list]:
    """Consecutive chunks of `items` in order, the k-th of at most the k-th of `sizes`."""
    items = iter(items)
    for size in sizes:
        chunk = list(islice(items, size))
        if not chunk:
            return
        yield chunk


def _batches(prop: Property, sc: SuiteConfig) -> Iterator[tuple[list[int], list[dict], object]]:
    """(trial indices, payloads, shared) batches of at most `TRIAL_BATCH` trials
    with one shared object and one key, each in trial order.  A batch is handed
    out once full and the partial ones after the last trial, so trials of one
    key batch together however the suite interleaves its keys."""
    pending: dict[tuple, tuple[list[int], list[dict], object]] = {}
    for i, (payload, shared) in enumerate(prop.sample(sc)):
        # A pending batch holds its shared object, so no other one takes its id.
        key = (id(shared), prop.key(payload))
        indices, payloads, _ = pending.setdefault(key, ([], [], shared))
        indices.append(i)
        payloads.append(payload)
        if len(indices) == TRIAL_BATCH:
            yield pending.pop(key)
    yield from pending.values()


def _run_property(name: str, sc: SuiteConfig) -> SuiteResult:
    """Run every trial of a property suite in batches; keep the failing trial
    that comes first in trial order as counterexample."""
    prop = PROPERTIES[name]
    trials = passes = ties = 0
    max_div = 0.0
    first = None  # (trial index, divergence, payload)
    # Counts and the maximum do not depend on the order batches run in:
    # divergences are never -0.0, and a NaN one never raises the maximum.
    for indices, payloads, shared in _batches(prop, sc):
        columns = (a.tolist() for a in prop.check(payloads, shared))
        for i, payload, div, agree, tied in zip(indices, payloads, *columns):
            trials += 1
            if tied:
                ties += 1
                continue
            max_div = max(max_div, div)
            if agree and div <= prop.tolerance:
                passes += 1
            elif first is None or i < first[0]:
                first = (i, div, payload)
    failures = trials - ties - passes
    worst = None if first is None else _counterexample(name, prop.tolerance, *first[1:])
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
    rep_c, rep_m = consistency(model, inputs, sampler)
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

    def trials():
        for _ in range(budget):
            yield {
                **fixed,
                "input": rng.uniform(-1.0, 1.0, size=(*shape, channels)),
                "shift_a": [int(rng.integers(0, n // 2)) for n in shape],
                "shift_b": [int(rng.integers(0, n // 2)) for n in shape],
            }

    # Chunks double from one trial, so a counterexample found early costs
    # little more than trial-by-trial search; the draws stay in trial order.
    sizes = (min(2**k, TRIAL_BATCH) for k in count())
    found = None
    used = ties = 0
    for payloads in _chunks(trials(), sizes):
        divs, agrees, tieds = (a.tolist() for a in _end2end_divergence(payloads, model))
        for payload, div, agree, tied in zip(payloads, divs, agrees, tieds):
            used += 1
            if tied:
                ties += 1
            elif div > TOL_END2END or not agree:
                found = _counterexample("ablation", TOL_END2END, div, payload)
                break
        if found is not None:
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
    extra = next((r.extra for r in results if r.name == "metrics"), {})
    report = {
        "suite_config": sc.to_dict(),
        "model_config": sc.resolved_model().to_dict(),
        "suites": [r.row() for r in results],
        "metrics": {k: v for k, v in extra.items() if k in ("c_cons", "mascc", "s_cons_zeropad")},
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
        if _json_kind(document.get(key)) not in (("f", 0), ("i", 0)):
            raise ConfigError(f"replay file needs a numeric {key!r}")
        if not is_finite_number(document[key]):
            raise ConfigError(f"replay file {key!r} must be finite, not {document[key]!r}")
    payload = document.get("payload")
    if not isinstance(payload, dict):
        raise ConfigError("replay file needs a payload object")
    # Each value has the JSON kind the sampler writes (ints may stand for floats).
    # Integer offsets and grids keep its list depth too; float arrays may be of
    # another rank (a 2-D model's inputs), and a wrong shape surfaces as
    # ShapeError from the check.
    written, _ = next(prop.sample(SuiteConfig(trials=1)))
    missing = sorted(set(written) - set(payload))
    if missing:
        raise ConfigError(f"{suite} payload lacks keys {missing}")
    for key, value in written.items():
        want, got = _json_kind(value), _json_kind(payload[key])
        kind_ok = got[0] == want[0] or (want[0], got[0]) == ("f", "i")
        depth_ok = got[1] == want[1] if want[0] == "i" else (got[1] > 0) == (want[1] > 0)
        if not (kind_ok and depth_ok):
            raise ConfigError(f"{suite} payload {key!r} has (kind, depth) {got}, not {want}")
        if got in (("f", 0), ("i", 0)) and not is_finite_number(payload[key]):
            raise ConfigError(f"{suite} payload {key!r} must be finite, not {payload[key]!r}")
    recorded = float(document["divergence"])
    tolerance = float(document["tolerance"])
    try:
        # Payloads scaled toward the float range overflow inside the ops; the
        # outcome below says what that means, so NumPy's warnings are noise.
        with np.errstate(over="ignore", invalid="ignore"):
            divs, _, tieds = prop.check([payload])
        div, tied = float(divs[0]), bool(tieds[0])
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
