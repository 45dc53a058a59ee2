"""Randomized and exhaustive verification suites behind the CLI.

Suites:

  lemma1    exhaustive unit-shift/tokenization interchange at small sizes
  claim1    adaptive tokenization output is bit-exactly the predicted rotation
  claim2    adaptive window attention output is the predicted rotation at 1e-12
  claim3    merge and full-rate convolution routes agree at 1e-12
  apmerge   adaptive merge output is bit-exactly the predicted rotation
  end2end   classifier invariance and decoder equivariance at 1e-9
  metrics   consistency scores of the configured model
  ablation  per-switch counterexample search on the search config

Every suite draws from a PCG64 stream derived from (seed, suite index), so
a run is a pure function of its SuiteConfig and reports are byte-stable.

The six trial-based suites (lemma1 through end2end) are rows of one
property table, run by one loop.  A batch of trials is one dict of columns:
each value its trials share, once, and one row per trial of each row key.
lemma1, claim1, claim2 and end2end fill a batch's columns directly, as many
trials as keep its check's largest array within `BATCH_ENTRIES`; claim3 and
apmerge, whose trials interleave shapes, go through one grouper that stacks
each shape's rows when its batch goes out and holds back at most
`HELD_ENTRIES` entries.  Both bounds come from the
arrays of a forward of the default model.  Each check validates its batch
once and runs it through the ops as one stack; the first failing trial in
trial order is the counterexample, and only its payload dict is built.
`replay` runs a payload through the same check as a batch of one, as the
ablation search runs its chunks, so a replayed counterexample cannot drift
from the suite that found it.
claim1, claim2 and apmerge run inputs and their shifts as one op call
(`_shift_pair`): a shift's selection must move with it, and its output must
equal the base output at the rotation the two selections predict
(`numerics.predicted_rotation`).  The end2end check, the ablation search and
the metrics suite compare shift pairs through `metrics.compare_shift_pairs`;
an end2end batch is one of its encoder passes (`metrics.pass_pairs` pairs).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import partial
from itertools import product
from math import prod

import numpy as np

from .attention import ADAPTIVE, AttentionParams, RpeTable, WindowConfig, a_wsa
from .errors import ConfigError, ParameterError, ShapeError, TraceError
from .merging import MergeConfig, a_pmerge, pmerge, pmerge_conv_fullrate
from .metrics import ShiftSampler, c_cons, compare_shift_pairs, consistency, pass_pairs
from .metrics import s_cons_zeropad, synthetic_inputs
from .numerics import SignalBatch, as_offsets, max_abs_rows, predicted_rotation
from .numerics import real_array, rotate_rows
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

# Batches are sized by memory.  A batch takes trials of one key while its
# check's largest array stays within `BATCH_ENTRIES` by the suite's size rule:
# the largest array of a forward of `MAX_BATCH // 2` inputs of the default
# model (its decoded maps, 16,384 entries).  A check holds about twice the
# arrays of that size a forward holds (an input and its shift, gathered
# windows or taps, queries and keys), so at this bound no suite's traced peak
# passes the metrics suite's.  A trial larger on its own runs alone.  The
# trials the grouper holds back in pending batches hold at most `HELD_ENTRIES`
# array entries, the largest array of a `MAX_BATCH` forward.
HELD_ENTRIES = max(size for _, size in ModelConfig().activation_sizes())
BATCH_ENTRIES = HELD_ENTRIES // 2

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
        """(name, entries) of the largest arrays `MAX_BATCH // 2` (n, C) lemma1
        inputs would need, per (n, l) pair it runs: see `_lemma1_entries`.
        Batches of inputs this large hold fewer (`BATCH_ENTRIES`); bounding
        eight of them keeps the sizes a run accepts where they were."""
        return [
            (f"{name} at n {n}, l {l}", MAX_BATCH // 2 * size)
            for n, l in product(self.lemma_n, self.lemma_l)
            if n % l == 0
            for name, size in _lemma1_entries(n, l, LEMMA1_CHANNELS, LEMMA1_DIM)
        ]

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
        row = {k: v for k, v in vars(self).items() if k not in ("extra", "counterexample")}
        if self.extra:
            row["extra"] = self.extra
        if self.counterexample is not None:
            row["counterexample"] = True
        return row


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
    """One trial-based suite: its batches of trials, their check, and its bound.

    `batches(sc)` yields (trial indices, columns, shared), each batch in trial
    order.  `columns` holds each value its trials share once, and for each key
    in `rows` one row per trial: a (B, ...) stack, or a list of ints or offsets.
    `shared` holds the objects built once per suite from the shared values, or
    None.  `check(columns, shared=None)` builds what it is not given, as replay
    does, and returns (divergence, agree, tied) arrays, one entry per row;
    `agree` is False when labels or selections disagree.  `_passes` gives the
    verdict; tied trials are counted, not asserted.  `payload(columns, k)` is
    trial k alone, as a replay file holds it; `columns(payload)` its batch of one.
    """

    batches: Callable[[SuiteConfig], Iterator[tuple[Sequence[int], dict, object]]]
    check: Callable[..., tuple[np.ndarray, np.ndarray, np.ndarray]]
    tolerance: float
    rows: tuple[str, ...]

    def payload(self, columns: dict, k: int) -> dict:
        return {key: value[k] if key in self.rows else value for key, value in columns.items()}

    def columns(self, payload: dict) -> dict:
        return {key: [value] if key in self.rows else value for key, value in payload.items()}


def _passes(div: float, agree: bool, tolerance: float) -> bool:
    """Verdict on an untied trial in the suites, the ablation search and replay:
    it agrees and its divergence is within tolerance (a NaN one is not)."""
    return bool(agree) and div <= tolerance


def _stacked(columns: dict, key: str, ndim: int) -> np.ndarray:
    """The `key` column as a float64 stack of rank `ndim`, one row per trial."""
    stack = real_array(columns[key], f"payload {key!r}")
    if stack.ndim != ndim:
        raise ShapeError(f"payload {key!r} must be an array of rank {ndim - 1}")
    return stack


def _signals_and_shifts(rng, count: int, shape: tuple, n: int) -> tuple[np.ndarray, list[int]]:
    """(count, *shape) uniform(-1, 1) stack and `count` shifts in [0, n), drawn trial by trial."""
    stack, shifts = np.empty((count, *shape)), []
    for row in stack:
        row[...] = rng.uniform(-1.0, 1.0, shape)
        shifts.append(int(rng.integers(0, n)))
    return stack, shifts


def _lemma1_batches(sc: SuiteConfig):
    """Per (n, l) pair, its trials (each input at each offset m) in batches of
    rows of `m` and `x`; a batch draws its new inputs in one call."""
    rng, trials, start = sc.rng("lemma1"), sc.suite_trials("lemma1"), 0
    for n in sc.lemma_n:
        for l in sc.lemma_l:
            if n % l:
                continue
            embed = rng.uniform(-0.5, 0.5, size=(l * LEMMA1_CHANNELS, LEMMA1_DIM))
            cfg = PatchEmbedConfig(l, embed)
            entries = _lemma1_entries(n, l, LEMMA1_CHANNELS, LEMMA1_DIM)
            step = max(1, BATCH_ENTRIES // max(size for _, size in entries))
            inputs = np.empty((0, n, LEMMA1_CHANNELS))
            for lo in range(0, trials * l, step):
                k = np.arange(lo, min(lo + step, trials * l))
                # Inputs lo // l to k[-1] // l; the first one's offsets may run on.
                inputs = inputs[-1:] if lo % l else inputs[:0]
                fresh = (k[-1] // l + 1 - lo // l - len(inputs), n, LEMMA1_CHANNELS)
                inputs = np.concatenate([inputs, rng.uniform(-1.0, 1.0, fresh)])
                columns = {"n": n, "l": l, "m": (k % l).tolist(), "x": inputs[k // l - lo // l]}
                yield range(start + lo, start + lo + len(k)), {**columns, "embed": embed}, cfg
            start += trials * l


def _lemma1_entries(n: int, l: int, channels: int, dim: int) -> list[tuple[str, int]]:
    """(name, entries) of the largest arrays one (n, channels) lemma1 input
    adds to a batch at patch length l: its gathered sides (both sides' patch
    rows, twice the input) and one side's (n / l, dim) projection."""
    return [("gathered sides", 2 * n * channels), ("projected side", n // l * dim)]


def _lemma1_check(columns: dict, cfg: PatchEmbedConfig | None = None):
    """Both sides of the interchange for every input as one `lemma1_sides` batch."""
    cfg = cfg or PatchEmbedConfig(columns["l"], columns["embed"])
    left, right = lemma1_sides(SignalBatch(columns["x"]), cfg, columns["m"])
    n = len(left)
    return max_abs_rows(left, right), np.ones(n, bool), np.zeros(n, bool)


def _shift_pair(rows: np.ndarray, grid: tuple, shift, stride: int, op, *args):
    """claim1, claim2 and apmerge check: (B, prod(grid), C) inputs and their
    rotations by the `shift` column as one token matrix through one
    `op(tokens, *args)` call.  Per input: the divergence from the base output
    at the rotation the trace predicts (`predicted_rotation`), congruent, tied."""
    n, shifts = len(rows), as_offsets(shift, len(grid))
    both = np.concatenate([rows, rotate_rows(rows, grid, shifts)])
    out, trace = op(TokenMatrix._fresh(both, grid), *args)
    phi, tied, stack, coarse = trace.entries[0].offsets, trace.tied, out.data, out.grid_shape
    congruent, rotation = predicted_rotation(phi[:n], phi[n:], shifts, stride, grid, coarse)
    div = max_abs_rows(stack[n:], rotate_rows(stack[:n], coarse, rotation))
    return div, congruent, tied[:n] | tied[n:]


def _token_rows(t: TokenMatrix, cfg: PatchEmbedConfig):
    """`a_token` over the signals whose rows a (B, M, C) token matrix holds."""
    return a_token(SignalBatch._fresh(t.grid()), cfg)


def _claim1_batches(sc: SuiteConfig):
    rng, trials = sc.rng("claim1"), sc.suite_trials("claim1")
    n, l, c, d = 64, 4, 2, 8  # signal length, patch length, channels, token dimension
    embed = rng.uniform(-0.5, 0.5, size=(l * c, d))
    cfg = PatchEmbedConfig(l, embed)
    fixed = {"l": l, "invariant_fn": cfg.invariant_fn, "embed": embed}
    # An input and its shift: full-rate patch columns and embedding per position.
    step = max(1, BATCH_ENTRIES // (2 * n * max(l * c, d)))
    for lo in range(0, trials, step):
        xs, shifts = _signals_and_shifts(rng, min(step, trials - lo), (n, c), n)
        yield range(lo, lo + len(xs)), {**fixed, "x": xs, "shift": shifts}, cfg


def _claim1_check(columns: dict, cfg: PatchEmbedConfig | None = None):
    """Each input and its shift as one `a_token` batch."""
    cfg = cfg or PatchEmbedConfig(columns["l"], columns["embed"], columns["invariant_fn"])
    xs = SignalBatch(columns["x"]).data
    rows = xs.reshape(len(xs), -1, xs.shape[-1])
    return _shift_pair(rows, xs.shape[1:-1], columns["shift"], cfg.patch_len, _token_rows, cfg)


def _window_attention(columns: dict) -> tuple[WindowConfig, AttentionParams, RpeTable]:
    wcfg = WindowConfig(columns["window"], columns["energy_p"], columns["energy_fn"])
    params = AttentionParams(*(columns[k] for k in ("e_q", "e_k", "e_v")))
    table = columns["rpe_table"]
    rpe = RpeTable.none() if table is None else RpeTable(columns["rpe_kind"], table)
    return wcfg, params, rpe


def _claim2_batches(sc: SuiteConfig):
    rng, trials = sc.rng("claim2"), sc.suite_trials("claim2")
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
    # A token matrix and its shift: window logits and energy taps, and tokens.
    step = max(1, BATCH_ENTRIES // (2 * m * max(d, w)))
    for lo in range(0, trials, step):
        ts, shifts = _signals_and_shifts(rng, min(step, trials - lo), (m, d), m)
        yield range(lo, lo + len(ts)), {**fixed, "t": ts, "shift": [[s] for s in shifts]}, parts


def _claim2_check(columns: dict, parts=None):
    """The token matrices and their shifts as one `a_wsa` batch."""
    wcfg, params, rpe = parts or _window_attention(columns)
    t, shift = _token_batch(columns), columns["shift"]
    return _shift_pair(t.data, t.grid_shape, shift, wcfg.window, a_wsa, wcfg, params, rpe)


def _grouped(trials: Callable[[SuiteConfig], Iterator], rows: tuple[str, ...], sc: SuiteConfig):
    """Batches of the (key, size, trial) items `trials(sc)` yields, for suites
    whose trials interleave keys: each batch holds trials of one key, in trial
    order, with their `rows` values stacked.  A batch goes out once another
    trial would take its check's largest array past `BATCH_ENTRIES` by `size`,
    the entries one trial of that key adds.  Before a trial whose arrays would
    take the trials held back past `HELD_ENTRIES` entries, the largest pending
    batches go out; the rest go out after the last trial."""
    pending: dict[tuple, tuple[list[int], list[dict]]] = {}
    sizes: dict[tuple, tuple[int, int]] = {}  # per key: (size, trial entries)
    held = 0

    def flush(key):
        indices, group = pending.pop(key)
        values = {k: [trial[k] for trial in group] for k in rows}
        stacks = {k: np.stack(v) if isinstance(v[0], np.ndarray) else v for k, v in values.items()}
        return indices, {k: stacks.get(k, v) for k, v in group[0].items()}, None

    for i, (key, size, trial) in enumerate(trials(sc)):
        if key not in sizes:
            sizes[key] = size, sum(v.size for v in trial.values() if isinstance(v, np.ndarray))
        size, entries = sizes[key]
        while pending and held + entries > HELD_ENTRIES:
            largest = max(pending, key=lambda k: len(pending[k][0]) * sizes[k][1])
            held -= len(pending[largest][0]) * sizes[largest][1]
            yield flush(largest)
        indices, group = pending.setdefault(key, ([], []))
        indices.append(i)
        group.append(trial)
        held += entries
        if (len(indices) + 1) * size > BATCH_ENTRIES:
            held -= len(indices) * entries
            yield flush(key)
    while pending:
        yield flush(next(iter(pending)))


def _merge_size(grid: tuple, d: int, p: int) -> int:
    """Merge taps, full-rate output and merge embed of one (prod(grid), d) token
    matrix merged at stride p to width 2d."""
    m, taps = prod(grid), p ** len(grid)
    return max(taps * m * d, m * 2 * d, taps * d * 2 * d)


def _claim3_trials(sc: SuiteConfig):
    rng = sc.rng("claim3")
    for i in range(sc.suite_trials("claim3")):
        if i % 2:
            grid = (4, 4) if i % 4 == 1 else (6, 6)
            p = 2
        else:
            grid = ((8, 12, 16)[rng.integers(0, 3)],)
            p = (2, 4)[rng.integers(0, 2)]
        d = int(rng.integers(2, 7))
        t = rng.uniform(-1.0, 1.0, (prod(grid), d))
        embed = rng.uniform(-0.5, 0.5, (p ** len(grid) * d, 2 * d))
        trial = {"grid": list(grid), "t": t, "factor": p, "embed": embed}
        yield (grid, d, p), _merge_size(grid, d, p), trial


def _token_batch(columns: dict) -> TokenMatrix:
    """The columns' (B, M, D) token stack on their grid, checked once."""
    return TokenMatrix(_stacked(columns, "t", 3), tuple(columns["grid"]))


def _claim3_check(columns: dict, _shared=None):
    """Both merge routes over the token matrices as one batch, one embed per sample."""
    t = _token_batch(columns)
    cfg = MergeConfig(columns["factor"], _stacked(columns, "embed", 3))
    full = pmerge_conv_fullrate(t, cfg).grid()
    phase_zero = full[(slice(None), *(slice(0, None, cfg.factor) for _ in t.grid_shape))]
    n = len(full)
    return max_abs_rows(pmerge(t, cfg).grid(), phase_zero), np.ones(n, bool), np.zeros(n, bool)


def _apmerge_trials(sc: SuiteConfig):
    rng = sc.rng("apmerge")
    for i in range(sc.suite_trials("apmerge")):
        rank = 2 if i % 3 == 2 else 1
        grid = (8, 8) if rank == 2 else ((8, 12, 16)[rng.integers(0, 3)],)
        d = int(rng.integers(2, 7))
        t = rng.uniform(-1.0, 1.0, (prod(grid), d))
        embed = rng.uniform(-0.5, 0.5, (2**rank * d, 2 * d))
        trial = {"grid": list(grid), "t": t, "factor": 2, "embed": embed, "energy_p": 2.0}
        trial["shift"] = [int(rng.integers(0, g)) for g in grid]
        yield (grid, d), 2 * _merge_size(grid, d, 2), trial  # an input and its shift


def _apmerge_check(columns: dict, _shared=None):
    """The token matrices and their shifts as one `a_pmerge` batch."""
    t, embeds = _token_batch(columns), _stacked(columns, "embed", 3)
    cfg = MergeConfig(columns["factor"], np.concatenate([embeds, embeds]), columns["energy_p"])
    return _shift_pair(t.data, t.grid_shape, columns["shift"], cfg.factor, a_pmerge, cfg)


def _end2end_batches(sc: SuiteConfig):
    cfg = sc.resolved_model()
    model = build_model(cfg)
    trials, pairs = sc.suite_trials("end2end"), 5
    inputs = synthetic_inputs(
        cfg.input_shape, cfg.channels, -(-trials // pairs), sc.derived_seed("end2end", 1)
    )
    sampler = ShiftSampler.for_shape(cfg.input_shape, pairs, sc.derived_seed("end2end", 2))
    offsets = sampler.sample_pairs(len(inputs)).reshape(-1, 2, cfg.rank).tolist()
    fixed = {"model_config": cfg.to_dict(), "check": "both"}
    # A batch is one encoder pass of `compare_shift_pairs`, whose arrays
    # `ModelConfig`'s activation bound covers.
    step = pass_pairs(cfg)
    for lo in range(0, trials, step):
        k = range(lo, min(lo + step, trials))
        xs = np.stack([inputs[i // pairs].data for i in k])
        shift_a, shift_b = zip(*(offsets[i] for i in k))
        yield k, {**fixed, "input": xs, "shift_a": list(shift_a), "shift_b": list(shift_b)}, model


def _end2end_divergence(columns: dict, model: Model | None = None):
    """end2end and ablation check: each input at two shifts, compared by
    `compare_shift_pairs`.  Logits and labels must agree; check "both" also
    needs the decoded maps, each rotated back by its shift, to agree."""
    check = columns["check"]
    if check not in ("classify", "both"):
        raise ConfigError(f"end2end check must be 'classify' or 'both', not {check!r}")
    model = model or build_model(ModelConfig.from_dict(columns["model_config"]))
    xs = SignalBatch(columns["input"]).data
    offs = (as_offsets(columns[k], model.config.rank) for k in ("shift_a", "shift_b"))
    same_label, agreement, logit_div, map_div, tied = compare_shift_pairs(
        model, xs, *(o[:, np.newaxis] for o in offs), dense=check == "both"
    )
    if check == "classify":
        return logit_div, same_label, tied
    return np.maximum(logit_div, map_div), same_label & (agreement == 1.0), tied


_CLAIM3_ROWS, _APMERGE_ROWS = ("t", "embed"), ("t", "embed", "shift")
PROPERTIES = {
    "lemma1": Property(_lemma1_batches, _lemma1_check, TOL_EXACT, ("m", "x")),
    "claim1": Property(_claim1_batches, _claim1_check, TOL_EXACT, ("x", "shift")),
    "claim2": Property(_claim2_batches, _claim2_check, TOL_ROUTE, ("t", "shift")),
    "claim3": Property(
        partial(_grouped, _claim3_trials, _CLAIM3_ROWS), _claim3_check, TOL_ROUTE, _CLAIM3_ROWS
    ),
    "apmerge": Property(
        partial(_grouped, _apmerge_trials, _APMERGE_ROWS), _apmerge_check, TOL_EXACT, _APMERGE_ROWS
    ),
    "end2end": Property(
        _end2end_batches, _end2end_divergence, TOL_END2END, ("input", "shift_a", "shift_b")
    ),
}


def _run_property(name: str, sc: SuiteConfig) -> SuiteResult:
    """Run every trial of a property suite in batches; keep the failing trial
    that comes first in trial order as counterexample."""
    prop = PROPERTIES[name]
    trials = passes = ties = 0
    max_div = 0.0
    first = None  # (trial index, divergence, payload)
    # Counts and the maximum do not depend on the order batches run in:
    # divergences are never -0.0, and a NaN one never raises the maximum.
    for indices, columns, shared in prop.batches(sc):
        results = (a.tolist() for a in prop.check(columns, shared))
        for k, (i, div, agree, tied) in enumerate(zip(indices, *results)):
            trials += 1
            if tied:
                ties += 1
                continue
            max_div = max(max_div, div)
            if _passes(div, agree, prop.tolerance):
                passes += 1
            elif first is None or i < first[0]:
                first = (i, div, prop.payload(columns, k))
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
    """(agreement, max divergence, count) over the tie-free trials."""
    untied = ~rep.tied
    if not untied.any():
        return 1.0, 0.0, 0
    agreement, divergence = rep.agreement[untied].tolist(), rep.divergence[untied].tolist()
    return sum(agreement) / len(agreement), max(divergence), len(agreement)


def run_metrics(sc: SuiteConfig) -> SuiteResult:
    cfg = sc.resolved_model()
    model = build_model(cfg)
    pairs = 5
    count = max(1, sc.suite_trials("metrics") // pairs)
    inputs = synthetic_inputs(cfg.input_shape, cfg.channels, count, sc.derived_seed("metrics", 1))
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


def _ablation_search(sc: SuiteConfig, switch: str, budget: int) -> tuple[dict, dict | None]:
    cfg = dataclasses.replace(ABLATION_SEARCH_MODEL, seed=sc.seed).disable(switch)
    model = build_model(cfg)
    rng = np.random.default_rng([sc.seed, _SEED_INDEX["ablation"], SWITCHES.index(switch)])
    shape, channels = cfg.input_shape, cfg.channels
    fixed = {"model_config": cfg.to_dict(), "check": "classify"}
    # Chunks double from one trial, so a counterexample found early costs
    # little more than trial-by-trial search; the draws stay in trial order.
    found, chunk = None, 1
    used = ties = 0
    while found is None and used < budget:
        xs, shifts = np.empty((min(chunk, budget - used), *shape, channels)), ([], [])
        for x in xs:
            x[...] = rng.uniform(-1.0, 1.0, size=(*shape, channels))
            for column in shifts:
                column.append([int(rng.integers(0, n // 2)) for n in shape])
        columns = {**fixed, "input": xs, "shift_a": shifts[0], "shift_b": shifts[1]}
        results = (a.tolist() for a in _end2end_divergence(columns, model))
        for k, (div, agree, tied) in enumerate(zip(*results)):
            used += 1
            if tied:
                ties += 1
            elif not _passes(div, agree, TOL_END2END):
                payload = PROPERTIES["end2end"].payload(columns, k)
                found = _counterexample("ablation", TOL_END2END, div, payload)
                break
        chunk = min(2 * chunk, pass_pairs(cfg))
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

_RUNNERS = {name: globals()[f"run_{name}"] for name in SUITES}
_OFFSET_KEYS = ("shift", "shift_a", "shift_b")


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

    Sentinels exit 0.  A counterexample's payload reruns through its suite's
    check (ablation: the end2end check).  In order: a NaN divergence raises
    ConfigError, a tied trial (never asserted) exits 0, an infinite divergence
    raises ConfigError, and otherwise `_passes` decides: 0 passes, 1 fails.
    A malformed document or a payload the check rejects raises ConfigError.
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
    # Integer grids and scalars keep its list depth too, and an offset is a
    # bare int or one int per axis, as `as_offset` takes it; float arrays may
    # be of another rank (a 2-D model's inputs), and a wrong shape surfaces as
    # ShapeError from the check.
    written = prop.payload(next(prop.batches(SuiteConfig(trials=1)))[1], 0)
    missing = sorted(set(written) - set(payload))
    if missing:
        raise ConfigError(f"{suite} payload lacks keys {missing}")
    for key, value in written.items():
        want, got = _json_kind(value), _json_kind(payload[key])
        kind_ok = got[0] == want[0] or (want[0], got[0]) == ("f", "i")
        depths = (0, 1) if key in _OFFSET_KEYS else (want[1],)
        depth_ok = got[1] in depths if want[0] == "i" else (got[1] > 0) == (want[1] > 0)
        if not (kind_ok and depth_ok):
            raise ConfigError(f"{suite} payload {key!r} has (kind, depth) {got}, not {want}")
        if got in (("f", 0), ("i", 0)) and not is_finite_number(payload[key]):
            raise ConfigError(f"{suite} payload {key!r} must be finite, not {payload[key]!r}")
    recorded, tolerance = float(document["divergence"]), float(document["tolerance"])
    try:
        # Payloads scaled toward the float range overflow inside the ops; the
        # outcome below says what that means, so NumPy's warnings are noise.
        with np.errstate(over="ignore", invalid="ignore"):
            divs, agrees, tieds = prop.check(prop.columns(payload))
    except (ShapeError, ParameterError, TraceError) as err:
        raise ConfigError(f"{suite} payload cannot be checked: {err}") from err
    div, agree, tied = float(divs[0]), bool(agrees[0]), bool(tieds[0])
    # NaN: the ops produced NaN.  inf: they overflowed on a trial the suites assert.
    if np.isnan(div) or (np.isinf(div) and not tied):
        raise ConfigError(f"{suite} payload cannot be checked: its divergence is {div}")
    if tied:
        return 0, f"{suite}: trial is tied (divergence {div:.6e}); tied trials are not asserted"
    if _passes(div, agree, tolerance):
        return 0, f"{suite}: divergence {div:.6e} no longer exceeds tolerance {tolerance:.1e}"
    return 1, (
        f"{suite}: reproduced divergence {div:.6e} "
        f"(recorded {recorded:.6e}, drift {abs(div - recorded):.3e}, tolerance {tolerance:.1e}"
        f"{'' if agree else ', labels or selections disagree'})"
    )
