"""Randomized and exhaustive verification suites behind the CLI.

Suites:

  lemma1    exhaustive unit-shift/tokenization interchange at small sizes
  claim1    adaptive tokenization output is bit-exactly the predicted rotation
  claim2    adaptive window attention output is the predicted rotation at 1e-12
  claim3    merge and full-rate convolution routes agree at 1e-12
  apmerge   adaptive merge output is bit-exactly the predicted rotation
  end2end   classifier invariance and decoder equivariance at 1e-9
  metrics   end2end's property on a stream of its own; consistency scores
  ablation  per-switch counterexample search on the search config

Every suite draws from PCG64 streams derived from (seed, suite index), so
a run is a pure function of its SuiteConfig and reports are byte-stable.

The six trial-based suites (lemma1 through end2end) are rows of one property
table, run by one loop, and the metrics suite runs end2end's row on a stream
of its own.  A batch of trials is one dict of columns: each value its trials
share, once, and one row per trial of each row key.  A batch holds trials of
one key (shapes and scalars), as many as keep its check's largest array
within `BATCH_ENTRIES`.  The claim suites draw each
row column from a stream of its own, `DRAW_BLOCK` trials at a time: a
block's integers in one call per column, then a batch's arrays in one call
per column; claim3 and apmerge group a block's trials by key first, so their
batches come out of trial order.  Each check validates its batch once and
runs it as one stack; the failing trial with the lowest index is the
counterexample, and only its payload dict is built.  `replay` runs a payload
through the same check as a batch of one, as the ablation search runs its
chunks, so a replayed counterexample cannot drift from the suite that found it.
claim1, claim2 and apmerge run inputs and their shifts as one op call
(`_shift_pair`): a shift's selection must move with it, and its output must
equal the base output at the rotation the two selections predict
(`numerics.predicted_rotation`).  The end2end check and the ablation search
compare shift pairs through `metrics.compare_shift_pairs`, one encoder pass
per end2end batch of `metrics.pass_pairs` inputs, each with its (shift_a,
shift_b) pair; the metrics suite's scores summarise its columns, and
s_cons_zeropad a zero-padded pass of each batch.
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
from .metrics import ShiftSampler, c_cons, compare_shift_pairs, pair_report, pass_pairs
from .metrics import synthetic_inputs
from .numerics import FINITE, SignalBatch, as_offsets, check_value, is_int, max_abs_rows
from .numerics import names_from, one_of, positive_ints, predicted_rotation, real_array
from .numerics import rotate_rows
from .pipeline import FIELD_RULES, MAX_BATCH, MAX_ELEMENTS, SWITCH_NAMES, SWITCHES, Model
from .pipeline import ModelConfig, build_model
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

SHIFT_PAIRS = 5  # per end2end or metrics input; a trial of either is one pair

_SEED_INDEX = {name: i + 1 for i, name in enumerate(SUITES)}

# Batches are sized by memory.  A batch takes trials of one key while its
# check's largest array stays within `BATCH_ENTRIES` by the suite's size rule:
# the largest array of a forward of `MAX_BATCH // 2` inputs of the default
# model (its decoded maps, 16,384 entries).  A check holds about twice the
# arrays of that size a forward holds (an input and its shift, gathered
# windows or taps, queries and keys), so at this bound no suite's traced peak
# passes the metrics suite's.  A trial larger on its own runs alone.
BATCH_ENTRIES = max(size for _, size in ModelConfig().activation_sizes()) // 2

# Trials per block of the samplers' integer columns, fixed apart from the batch
# bounds: a block's integers depend on its length, not on how it is batched.
DRAW_BLOCK = 1024

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


# Suite names, at least one: what a run selects, and what its sentinel lists.
SOME_SUITES = (
    lambda v: names_from(*SUITES)[0](v) and len(v) > 0,
    f"a non-empty list of names from {SUITES}",
)

# One rule per `SuiteConfig` field but `model`; `__post_init__` takes a list as a tuple.
SUITE_RULES = {
    "suites": SOME_SUITES,
    "seed": FIELD_RULES["seed"],
    "trials": (lambda v: v is None or is_int(v) and v >= 1, "an integer >= 1 or None"),
    "disable": SWITCH_NAMES,
    "lemma_n": (positive_ints, "a list of integers >= 1"),
    "lemma_l": (positive_ints, "a list of integers >= 1"),
}


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
        for name, rule in SUITE_RULES.items():
            value = getattr(self, name)
            value = tuple(value) if isinstance(value, list) else value
            check_value(name.replace("lemma_", "lemma1 "), value, rule, ConfigError)
            if isinstance(value, tuple):  # sizes as plain ints; suites and switches once each
                value = tuple(map(int, value) if name.startswith("lemma") else dict.fromkeys(value))
            object.__setattr__(self, name, int(value) if is_int(value) else value)
        # end2end and metrics draw all their inputs up front.
        per_input = prod(self.model.input_shape) * self.model.channels
        sizes = self.lemma1_sizes() + [
            (f"{s} inputs for {self.suite_trials(s)} trials", self.suite_inputs(s) * per_input)
            for s in ("end2end", "metrics")
            if s in self.suites
        ]
        name, size = max(sizes, key=lambda item: item[1], default=("", 0))
        if size > MAX_ELEMENTS:
            raise ConfigError(f"{name} would hold {size} entries, more than {MAX_ELEMENTS}")
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
            (f"lemma1 {name} at n {n}, l {l}", MAX_BATCH // 2 * size)
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

    def suite_inputs(self, name: str) -> int:
        """Inputs the end2end or the metrics suite draws for its trials."""
        return -(-self.suite_trials(name) // SHIFT_PAIRS)

    def rng(self, name: str, *salt: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, _SEED_INDEX[name], *salt])

    def derived_seed(self, name: str, salt: int) -> int:
        seq = np.random.SeedSequence([self.seed, _SEED_INDEX[name], salt])
        return int(seq.generate_state(1)[0])

    def streams(self, name: str, count: int) -> list[np.random.Generator]:
        """One generator per row column, spawned from suite `name`'s seed sequence."""
        seq = np.random.SeedSequence([self.seed, _SEED_INDEX[name]])
        return [np.random.default_rng(child) for child in seq.spawn(count)]

    def to_dict(self) -> dict:
        values = {name: getattr(self, name) for name in SUITE_RULES}
        return {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}


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


def _counterexample(suite: str, tolerance: float, divergence: float, payload: dict) -> dict:
    return {
        "kind": "counterexample",
        "suite": suite,
        "tolerance": tolerance,
        "divergence": divergence,
        "payload": {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in payload.items()},
    }


def sentinel(config: SuiteConfig, failing: Sequence[str] = ()) -> dict:
    """A run's replay file when it found no counterexample, passing or not."""
    status, suites = ("fail", failing) if failing else ("pass", config.suites)
    return {"kind": "sentinel", "status": status, "suites": list(suites)}


# ------------------------------------------------------------- properties --


@dataclass(frozen=True)
class Property:
    """One trial-based suite: its batches of trials, their check, and its bound.

    `batches(sc)` yields (trial indices, columns, shared), indices sorted per
    batch.  `columns` holds each value its trials share once, and for each key
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


def _blocks(trials: int) -> Iterator[tuple[int, int]]:
    """(first trial, length) of each block of `DRAW_BLOCK` trials."""
    for lo in range(0, trials, DRAW_BLOCK):
        yield lo, min(DRAW_BLOCK, trials - lo)


def _signal_batches(sc: SuiteConfig, name: str, shape: tuple, step: int):
    """(trial indices, (B, *shape) uniform(-1, 1) stack, B shifts along its
    first axis) per batch of `step` trials: shifts drawn per block, stacks per batch."""
    signals, shifts = sc.streams(name, 2)
    for lo, count in _blocks(sc.suite_trials(name)):
        shift = shifts.integers(0, shape[0], count).tolist()
        for b in range(0, count, step):
            rows = signals.uniform(-1.0, 1.0, (min(step, count - b), *shape))
            yield range(lo + b, lo + b + len(rows)), rows, shift[b : b + step]


def _keyed_batches(keys: list[tuple], size: Callable[..., int]):
    """(key, positions) batches of a block's trials of `keys`, keys in the order
    of their first trial: as many trials of one key as keep its check's largest
    array within `BATCH_ENTRIES` by `size(*key)`, the entries one trial adds."""
    groups: dict[tuple, list[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    for key, positions in groups.items():
        step = max(1, BATCH_ENTRIES // size(*key))
        for b in range(0, len(positions), step):
            yield key, positions[b : b + step]


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
                columns = {"l": l, "m": (k % l).tolist(), "x": inputs[k // l - lo // l]}
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
    rng = sc.rng("claim1")
    n, l, c, d = 64, 4, 2, 8  # signal length, patch length, channels, token dimension
    embed = rng.uniform(-0.5, 0.5, size=(l * c, d))
    cfg = PatchEmbedConfig(l, embed)
    fixed = {"l": l, "invariant_fn": cfg.invariant_fn, "embed": embed}
    # An input and its shift: full-rate patch columns and embedding per position.
    step = max(1, BATCH_ENTRIES // (2 * n * max(l * c, d)))
    for k, xs, shifts in _signal_batches(sc, "claim1", (n, c), step):
        yield k, {**fixed, "x": xs, "shift": shifts}, cfg


def _claim1_check(columns: dict, cfg: PatchEmbedConfig | None = None):
    """Each input and its shift as one `a_token` batch."""
    cfg = cfg or PatchEmbedConfig(columns["l"], columns["embed"], columns["invariant_fn"])
    xs = SignalBatch(columns["x"]).data
    rows = xs.reshape(len(xs), -1, xs.shape[-1])
    return _shift_pair(rows, xs.shape[1:-1], columns["shift"], cfg.patch_len, _token_rows, cfg)


def _window_attention(columns: dict) -> tuple[WindowConfig, AttentionParams, RpeTable]:
    wcfg = WindowConfig(columns["window"], columns["energy_p"], columns["energy_fn"])
    params = AttentionParams(*(columns[k] for k in ("e_q", "e_k", "e_v")))
    return wcfg, params, RpeTable(columns["rpe_kind"], columns["rpe_table"])


def _claim2_batches(sc: SuiteConfig):
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
    # A token matrix and its shift: window logits and energy taps, and tokens.
    step = max(1, BATCH_ENTRIES // (2 * m * max(d, w)))
    for k, ts, shifts in _signal_batches(sc, "claim2", (m, d), step):
        yield k, {**fixed, "t": ts, "shift": [[s] for s in shifts]}, parts


def _claim2_check(columns: dict, parts=None):
    """The token matrices and their shifts as one `a_wsa` batch."""
    wcfg, params, rpe = parts or _window_attention(columns)
    t, shift = _token_batch(columns), columns["shift"]
    return _shift_pair(t.data, t.grid_shape, shift, wcfg.window, a_wsa, wcfg, params, rpe)


def _merge_size(grid: tuple, d: int, p: int) -> int:
    """Projected merge taps (at least the full-rate output) and merge embed of
    one (prod(grid), d) token matrix merged at stride p to width 2d."""
    return p ** len(grid) * 2 * d * max(prod(grid), d)


def _claim3_batches(sc: SuiteConfig):
    """Odd trials merge a 4x4 or 6x6 grid at stride 2, even ones a 1-D grid of
    8, 12 or 16 at stride 2 or 4; token widths run from 2 to 6."""
    lengths, factors, widths, ts, embeds = sc.streams("claim3", 5)
    for lo, count in _blocks(sc.suite_trials("claim3")):
        length = lengths.integers(0, 3, count).tolist()
        factor = factors.integers(0, 2, count).tolist()
        width = widths.integers(2, 7, count).tolist()
        keys = [
            ((4, 4) if i % 4 == 1 else (6, 6), d, 2) if i % 2 else (((8, 12, 16)[g],), d, (2, 4)[p])
            for i, (g, p, d) in enumerate(zip(length, factor, width), lo)
        ]
        for (grid, d, p), rows in _keyed_batches(keys, _merge_size):
            t = ts.uniform(-1.0, 1.0, (len(rows), prod(grid), d))
            embed = embeds.uniform(-0.5, 0.5, (len(rows), p ** len(grid) * d, 2 * d))
            columns = {"grid": list(grid), "t": t, "factor": p, "embed": embed}
            yield [lo + r for r in rows], columns, None


def _token_batch(columns: dict) -> TokenMatrix:
    """The columns' (B, M, D) token stack on their grid, checked once."""
    return TokenMatrix(_stacked(columns, "t", 3), columns["grid"])


def _claim3_check(columns: dict, _shared=None):
    """Both merge routes over the token matrices as one batch, one embed per sample."""
    t = _token_batch(columns)
    cfg = MergeConfig(columns["factor"], _stacked(columns, "embed", 3))
    full = pmerge_conv_fullrate(t, cfg).grid()
    phase_zero = full[(slice(None), *(slice(0, None, cfg.factor) for _ in t.grid_shape))]
    n = len(full)
    return max_abs_rows(pmerge(t, cfg).grid(), phase_zero), np.ones(n, bool), np.zeros(n, bool)


def _apmerge_batches(sc: SuiteConfig):
    """Every third trial merges an 8x8 grid, the others a 1-D grid of 8, 12 or
    16, at stride 2; token widths run from 2 to 6.  Shifts are drawn per axis."""
    lengths, widths, offsets, ts, embeds = sc.streams("apmerge", 5)
    for lo, count in _blocks(sc.suite_trials("apmerge")):
        length = lengths.integers(0, 3, count).tolist()
        width = widths.integers(2, 7, count).tolist()
        grids = [(8, 8) if i % 3 == 2 else ((8, 12, 16)[g],) for i, g in enumerate(length, lo)]
        # Shifts on two axes in one call, the second in [0, 1) on a 1-D grid.
        shifts = offsets.integers(0, [(*grid, 1)[:2] for grid in grids]).tolist()
        keys = [(grid, d, 2) for grid, d in zip(grids, width)]
        # An input and its shift.
        for (grid, d, p), rows in _keyed_batches(keys, lambda *key: 2 * _merge_size(*key)):
            t = ts.uniform(-1.0, 1.0, (len(rows), prod(grid), d))
            embed = embeds.uniform(-0.5, 0.5, (len(rows), p ** len(grid) * d, 2 * d))
            shift = [shifts[r][: len(grid)] for r in rows]
            columns = {"grid": list(grid), "t": t, "factor": p, "embed": embed, "energy_p": 2.0}
            yield [lo + r for r in rows], {**columns, "shift": shift}, None


def _apmerge_check(columns: dict, _shared=None):
    """The token matrices and their shifts as one `a_pmerge` batch."""
    t, embeds = _token_batch(columns), _stacked(columns, "embed", 3)
    cfg = MergeConfig(columns["factor"], np.concatenate([embeds, embeds]), columns["energy_p"])
    return _shift_pair(t.data, t.grid_shape, columns["shift"], cfg.factor, a_pmerge, cfg)


def _end2end_batches(sc: SuiteConfig, name: str = "end2end"):
    """Suite `name`'s trials of end2end's property: trial i is pair i of its stream."""
    cfg, count = sc.resolved_model(), sc.suite_inputs(name)
    inputs = synthetic_inputs(cfg.input_shape, cfg.channels, count, sc.derived_seed(name, 1))
    sampler = ShiftSampler.for_shape(cfg.input_shape, SHIFT_PAIRS, sc.derived_seed(name, 2))
    offsets = sampler.sample_pairs(count).reshape(-1, 2, cfg.rank).tolist()
    model, fixed = build_model(cfg), {"model_config": cfg.to_dict(), "check": "both"}
    # A batch is one encoder pass of `compare_shift_pairs`, whose arrays
    # `ModelConfig`'s activation bound covers.
    trials, step = sc.suite_trials(name), pass_pairs(cfg)
    for lo in range(0, trials, step):
        k = range(lo, min(lo + step, trials))
        shift_a, shift_b = zip(*(offsets[i] for i in k))
        xs = np.stack([inputs[i // SHIFT_PAIRS].data for i in k])
        yield k, {**fixed, "input": xs, "shift_a": list(shift_a), "shift_b": list(shift_b)}, model


def _shift_pairs(columns: dict, model: Model | None = None, zero_pad: bool = False):
    """`compare_shift_pairs` on each input of an end2end batch at its two shifts;
    `zero_pad` shifts with zero fill and compares labels only."""
    check = columns["check"]
    check_value("end2end check", check, one_of("classify", "both"), ConfigError)
    model = model or build_model(ModelConfig.from_dict(columns["model_config"]))
    xs = SignalBatch(columns["input"]).data
    offs = np.stack([as_offsets(columns[k], model.config.rank) for k in ("shift_a", "shift_b")], 1)
    dense = check == "both" and not zero_pad
    return compare_shift_pairs(model, xs, offs[:, np.newaxis], zero_pad, dense)


def _end2end_verdict(check: str, same_label, agreement, logit_div, map_div, tied):
    """(divergence, agree, tied) per pair of `_shift_pairs`: logits and labels must
    agree; check "both" also needs the maps, each rotated back by its shift, to."""
    if check == "classify":
        return logit_div, same_label, tied
    return np.maximum(logit_div, map_div), same_label & (agreement == 1.0), tied


def _end2end_divergence(columns: dict, model: Model | None = None):
    """end2end, metrics and ablation check."""
    return _end2end_verdict(columns["check"], *_shift_pairs(columns, model))


PROPERTIES = {
    "lemma1": Property(_lemma1_batches, _lemma1_check, TOL_EXACT, ("m", "x")),
    "claim1": Property(_claim1_batches, _claim1_check, TOL_EXACT, ("x", "shift")),
    "claim2": Property(_claim2_batches, _claim2_check, TOL_ROUTE, ("t", "shift")),
    "claim3": Property(_claim3_batches, _claim3_check, TOL_ROUTE, ("t", "embed")),
    "apmerge": Property(_apmerge_batches, _apmerge_check, TOL_EXACT, ("t", "embed", "shift")),
    "end2end": Property(
        _end2end_batches, _end2end_divergence, TOL_END2END, ("input", "shift_a", "shift_b")
    ),
}


def _run_property(name: str, sc: SuiteConfig, prop: Property | None = None) -> SuiteResult:
    """Run every trial of a property suite (`prop`, or its own) in batches;
    keep the failing trial that comes first in trial order as counterexample."""
    prop = prop or PROPERTIES[name]
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


def run_metrics(sc: SuiteConfig) -> SuiteResult:
    """end2end's property on the suite's own stream, summarised as c_cons and mascc;
    s_cons_zeropad takes its pairs zero-padded, unasserted: content changes at the edge."""
    compared, padded = [], []  # each batch's `_shift_pairs` columns, circular and zero-padded

    def check(columns: dict, model: Model | None = None):
        compared.append(_shift_pairs(columns, model))
        padded.append(_shift_pairs(columns, model, zero_pad=True))
        return _end2end_verdict(columns["check"], *compared[-1])

    def joined(batches):  # each column in trial order; a label-only pass has no maps
        return [None if c[0] is None else np.concatenate(c) for c in zip(*batches)]

    stream = partial(_end2end_batches, name="metrics")
    prop = dataclasses.replace(PROPERTIES["end2end"], batches=stream, check=check)
    result = _run_property("metrics", sc, prop)
    columns = joined(compared)
    for m in ("c_cons", "mascc"):  # each with its agreement over the untied pairs
        rep = pair_report(m, *columns)
        untied = rep.agreement[~rep.tied].tolist()
        mean = sum(untied) / len(untied) if untied else 1.0
        result.extra[m] = {**rep.summary(), "untied_trials": len(untied), "untied_agreement": mean}
    result.extra["s_cons_zeropad"] = pair_report("s_cons_zeropad", *joined(padded)).summary()
    return result


# -------------------------------------------------------------- ablation --


def _ablation_search(sc: SuiteConfig, switch: str, budget: int) -> tuple[dict, dict | None]:
    cfg = dataclasses.replace(ABLATION_SEARCH_MODEL, seed=sc.seed).disable(switch)
    model = build_model(cfg)
    rng = sc.rng("ablation", SWITCHES.index(switch))
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


def run_suites(sc: SuiteConfig) -> tuple[dict, list[SuiteResult]]:
    """Execute the selected suites in canonical order; return (report, results)."""
    results = [_RUNNERS[name](sc) for name in SUITES if name in sc.suites]
    report = {
        "suite_config": sc.to_dict(),
        "model_config": sc.resolved_model().to_dict(),
        "suites": [r.row() for r in results],
        "metrics": next((r.extra for r in results if r.name == "metrics"), {}),
    }
    return report, results


def replay(document: dict) -> tuple[int, str]:
    """Re-execute a replay file; (exit code, human-readable line).

    A sentinel exits 0 if its run passed and 1 if it failed; any other
    status, or suites that are not a non-empty list of suite names, raises
    ConfigError.  A counterexample's payload reruns through its suite's
    check (ablation and metrics: the end2end check), held to that suite's
    own tolerance: a file recording another raises ConfigError first.  In
    order: a NaN divergence raises ConfigError, a tied trial (never
    asserted) exits 0, an infinite divergence raises ConfigError, and
    otherwise `_passes` decides: 0 passes, 1 fails.  A malformed document,
    a payload without a key the check reads, or a payload value the check
    rejects raises ConfigError: each value is checked where the check
    takes it in, by the class or conversion that takes it.
    """
    if not isinstance(document, dict):
        raise ConfigError(f"replay file must hold a JSON object, not {type(document).__name__}")
    kind = document.get("kind")
    if kind == "sentinel":
        check_value("sentinel status", document.get("status"), one_of("pass", "fail"), ConfigError)
        suites = document.get("suites")
        suites = tuple(suites) if isinstance(suites, list) else suites
        check_value("sentinel suites", suites, SOME_SUITES, ConfigError)
        if document["status"] == "fail":
            return 1, f"the recorded run failed ({document.get('suites')}); nothing to re-execute"
        return 0, "sentinel from a passing run; nothing to reproduce"
    if kind != "counterexample":
        raise ConfigError(f"replay file has unknown kind {kind!r}")
    suite = document.get("suite")
    prop = PROPERTIES.get("end2end" if suite in ("ablation", "metrics") else str(suite))
    if prop is None:
        raise ConfigError(f"replay file names unknown suite {suite!r}")
    own = (lambda v: FINITE[0](v) and v == prop.tolerance,
           f"finite and {suite}'s {prop.tolerance!r}")
    for key, rule in (("tolerance", own), ("divergence", FINITE)):
        check_value(f"replay file {key!r}", document.get(key), rule, ConfigError)
    payload = document.get("payload")
    if not isinstance(payload, dict):
        raise ConfigError("replay file needs a payload object")
    recorded = float(document["divergence"])
    try:
        # Payloads scaled toward the float range overflow inside the ops; the
        # outcome below says what that means, so NumPy's warnings are noise.
        with np.errstate(over="ignore", invalid="ignore"):
            divs, agrees, tieds = prop.check(prop.columns(payload))
    except KeyError as err:
        raise ConfigError(f"{suite} payload lacks key {err}") from err
    except (ShapeError, ParameterError, TraceError) as err:
        raise ConfigError(f"{suite} payload cannot be checked: {err}") from err
    div, agree, tied = float(divs[0]), bool(agrees[0]), bool(tieds[0])
    # NaN: the ops produced NaN.  inf: they overflowed on a trial the suites assert.
    if np.isnan(div) or (np.isinf(div) and not tied):
        raise ConfigError(f"{suite} payload cannot be checked: its divergence is {div}")
    if tied:
        return 0, f"{suite}: trial is tied (divergence {div:.6e}); tied trials are not asserted"
    if _passes(div, agree, prop.tolerance):
        return 0, f"{suite}: divergence {div:.6e} no longer exceeds tolerance {prop.tolerance:.1e}"
    return 1, (
        f"{suite}: reproduced divergence {div:.6e} "
        f"(recorded {recorded:.6e}, drift {abs(div - recorded):.3e}, tolerance {prop.tolerance:.1e}"
        f"{'' if agree else ', labels or selections disagree'})"
    )
