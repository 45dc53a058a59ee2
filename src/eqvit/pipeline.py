"""Desk-scale models built from the adaptive blocks.

Two heads over one encoder:

  classify      tokenize -> [window attention -> patch merge] x depth
                -> full self-attention with position bias -> mean pool
                -> linear head
  encode_decode same encoder, then a decoder that scatters features back
                through the recorded merge phases and window offsets to a
                zero-filled map at the input resolution.
  forward       both heads from one encoder pass, for one input or a batch.

The encoder runs on one input or on a batch of them, with one selection per
sample; each sample's outputs are bit-identical to its run alone.  Its
`SelectionTrace` is one format for both: every adaptive op appends one entry
of per-sample offsets and tie flags, and the decoder reads it as it is.

Every adaptive block can be swapped for its fixed baseline through a config
switch, which is how the ablation suites demonstrate that each one is
needed for shift invariance.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .attention import (
    ADAPTIVE,
    NONE,
    ORIGINAL,
    AttentionParams,
    RpeTable,
    WINDOW_FNS,
    WindowConfig,
    a_wsa,
    sa,
    wsa,
)
from .errors import ConfigError, ShapeError
from .merging import MergeConfig, a_pmerge, pmerge
from .numerics import GridSignal, require_finite, scatter_index, scatter_rows, weight_array
from .tokenizer import (
    INVARIANT_FNS,
    PatchEmbedConfig,
    TokenMatrix,
    a_token,
    token,
)
from .trace import SelectionTrace

SWITCHES = ("a_token", "a_wsa", "a_pmerge", "adaptive_rpe")

# Most inputs the harness and the metrics put through one batched `forward`.
# It bounds the memory a batch holds (on the default 1-D model a decoded map
# is 16 KB per input), so it is fixed here rather than a user option.  On the
# default verification 16 holds about 1.2 MB more peak memory than running
# trial by trial; 32 is about 8% faster and holds 2.5 MB more.
MAX_BATCH = 16

# Token dimensions double at every stage, so no deeper model could be built.
MAX_DEPTH = 32

# Most entries (32 MiB of float64) that the input, any one weight array, or
# any one array of a `MAX_BATCH` forward may hold.  A larger config is bad
# configuration, rejected before anything is allocated; the default 1-D
# model's largest array, a batch of decoded maps, holds 32,768.
MAX_ELEMENTS = 2**22


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


# JSON value checks per annotated field type.  windows and merge_factors also
# take a bare int, which is broadcast over the stages.
_FIELD_CHECKS = {
    "int": _is_int,
    "float": lambda v: _is_int(v) or isinstance(v, float),
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "tuple[int, ...]": lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v)),
}


def is_finite_number(value) -> bool:
    """Whether a number is a finite float; an int too large for a float is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def check_seed(seed) -> None:
    """Weight and suite streams take non-negative integer seeds only."""
    if not _is_int(seed) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")


def _per_stage(value, depth: int, name: str) -> tuple[int, ...]:
    if isinstance(value, (int, np.integer)):
        return (int(value),) * depth
    vals = tuple(int(v) for v in value)
    if len(vals) != depth:
        raise ConfigError(f"{name} has {len(vals)} entries for depth {depth}")
    return vals


@dataclass(frozen=True)
class ModelConfig:
    """Architecture, energy choices, adaptive switches, and the weight seed.

    `windows` and `merge_factors` take one entry per stage (a bare int is
    broadcast).  `rpe_kind` picks the position-bias family; the
    `adaptive_rpe` switch downgrades kind "adaptive" to "original", which is
    the ablation baseline.  Dimensions double at each merge.
    """

    input_shape: tuple[int, ...] = (64,)
    channels: int = 2
    patch_len: int = 4
    depth: int = 2
    windows: tuple[int, ...] = (4, 4)
    merge_factors: tuple[int, ...] = (2, 2)
    embed_dim: int = 8
    num_classes: int = 4
    rpe_kind: str = "adaptive"
    token_energy: str = "sum_l2"
    window_energy_fn: str = "max"
    energy_p: float = 2.0
    a_token: bool = True
    a_wsa: bool = True
    a_pmerge: bool = True
    adaptive_rpe: bool = True
    seed: int = 0

    def __post_init__(self):
        check_seed(self.seed)
        shape = tuple(int(n) for n in self.input_shape)
        object.__setattr__(self, "input_shape", shape)
        if len(shape) not in (1, 2) or min(shape) < 1:
            raise ConfigError(f"input_shape {shape} must be rank 1 or 2, all axes >= 1")
        for name in ("channels", "patch_len", "embed_dim", "num_classes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not 0 <= self.depth <= MAX_DEPTH:
            raise ConfigError(f"depth must be in [0, {MAX_DEPTH}]")
        object.__setattr__(self, "windows", _per_stage(self.windows, self.depth, "windows"))
        object.__setattr__(
            self, "merge_factors", _per_stage(self.merge_factors, self.depth, "merge_factors")
        )
        if self.rpe_kind not in (NONE, ORIGINAL, ADAPTIVE):
            raise ConfigError(f"unknown rpe_kind {self.rpe_kind!r}")
        if self.token_energy not in INVARIANT_FNS:
            raise ConfigError(f"unknown token_energy {self.token_energy!r}")
        if self.window_energy_fn not in WINDOW_FNS:
            raise ConfigError(f"unknown window_energy_fn {self.window_energy_fn!r}")
        if not is_finite_number(self.energy_p) or self.energy_p < 1:
            raise ConfigError(f"energy_p must be a finite number >= 1, got {self.energy_p!r}")
        for n in shape:
            if n % self.patch_len:
                raise ConfigError(f"axis {n} is not divisible by patch_len {self.patch_len}")
        grids = [tuple(n // self.patch_len for n in shape)]
        for s, (w, p) in enumerate(zip(self.windows, self.merge_factors)):
            grid = grids[-1]
            if w < 1 or p < 1:
                raise ConfigError(f"stage {s}: window and merge factor must be >= 1")
            for g in grid:
                if g % w:
                    raise ConfigError(f"stage {s}: grid {grid} not divisible by window {w}")
                if g % p:
                    raise ConfigError(f"stage {s}: grid {grid} not divisible by factor {p}")
            grids.append(tuple(g // p for g in grid))
        # Not a field: fixed by the fields above, and read on every decode.
        object.__setattr__(self, "_grids", tuple(grids))
        name, size = max(self.array_sizes() + self.activation_sizes(), key=lambda item: item[1])
        if size > MAX_ELEMENTS:
            raise ConfigError(f"the {name} would hold {size} entries, more than {MAX_ELEMENTS}")

    def array_sizes(self) -> list[tuple[str, int]]:
        """(name, entries) of the input and of every weight array `build_model`
        draws; plain integer arithmetic, nothing is allocated."""
        rank, dims = self.rank, self.stage_dims()
        sizes = [
            ("input", math.prod(self.input_shape) * self.channels),
            ("patch embed", self.patch_len**rank * self.channels * self.embed_dim),
            ("head", dims[-1] * self.num_classes),
        ]
        tables = [(w,) * rank for w in self.windows]
        for d, p in zip(dims, self.merge_factors):
            sizes += [("attention projection", d * d), ("merge projection", p**rank * d * 2 * d)]
        if self.depth:
            sizes.append(("attention projection", dims[-1] ** 2))
            tables.append(self.stage_grids()[-1])
        if self.effective_rpe_kind != NONE:
            original = self.effective_rpe_kind == ORIGINAL
            for t in tables:
                entries = math.prod(2 * g - 1 if original else g for g in t)
                sizes.append(("position bias table", entries))
        return sizes

    def activation_sizes(self) -> list[tuple[str, int]]:
        """(name, entries) of the largest arrays a forward of `MAX_BATCH` inputs
        builds, whatever the switches; integer arithmetic as in `array_sizes`."""
        rank, dims, n = self.rank, self.stage_dims(), MAX_BATCH
        positions, taps = math.prod(self.input_shape), self.patch_len**rank
        sizes = [
            ("full-rate patch index", taps * self.channels * positions),
            ("full-rate patches", n * positions * taps * self.channels),
            ("full-rate embedding", n * positions * self.embed_dim),
            ("decoded map", n * positions * dims[-1]),
        ]
        for grid, d, w, p in zip(self.stage_grids(), dims, self.windows, self.merge_factors):
            m = math.prod(grid)
            sizes.append(("window attention logits", n * m * w**rank))
            sizes.append(("merge taps", n * p**rank * m * d))
        if self.depth:
            sizes.append(("global attention matrix", n * math.prod(self.stage_grids()[-1]) ** 2))
        return sizes

    @property
    def rank(self) -> int:
        return len(self.input_shape)

    @property
    def token_grid(self) -> tuple[int, ...]:
        return self._grids[0]

    def stage_grids(self) -> list[tuple[int, ...]]:
        """Token grid entering each stage; one extra entry for the final grid."""
        return list(self._grids)

    def stage_dims(self) -> list[int]:
        """Token dimension entering each stage, ending with the final dim."""
        return [self.embed_dim * 2**s for s in range(self.depth + 1)]

    @property
    def effective_rpe_kind(self) -> str:
        if self.rpe_kind == ADAPTIVE and not self.adaptive_rpe:
            return ORIGINAL
        return self.rpe_kind

    def disable(self, *switches: str) -> ModelConfig:
        """Copy of the config with the named adaptive switches turned off."""
        for s in switches:
            if s not in SWITCHES:
                raise ConfigError(f"unknown switch {s!r}, choose from {SWITCHES}")
        return dataclasses.replace(self, **{s: False for s in switches})

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["input_shape"] = list(self.input_shape)
        d["windows"] = list(self.windows)
        d["merge_factors"] = list(self.merge_factors)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> ModelConfig:
        """Config from a JSON object; unknown keys and mistyped values raise ConfigError."""
        if not isinstance(d, dict):
            raise ConfigError(f"model config must be a JSON object, got {type(d).__name__}")
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = set(d) - set(types)
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        for key, value in d.items():
            per_stage_int = key in ("windows", "merge_factors") and _is_int(value)
            if not (_FIELD_CHECKS[types[key]](value) or per_stage_int):
                raise ConfigError(f"config key {key!r} has a value of the wrong type: {value!r}")
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in d.items()})


@dataclass(frozen=True)
class StageWeights:
    attn: AttentionParams
    rpe: RpeTable
    merge: MergeConfig
    window: WindowConfig


@dataclass(frozen=True)
class ModelWeights:
    patch: PatchEmbedConfig
    stages: tuple[StageWeights, ...]
    global_attn: AttentionParams | None
    global_rpe: RpeTable | None
    head: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "head", weight_array(self.head, "head"))
        object.__setattr__(self, "stages", tuple(self.stages))


@dataclass(frozen=True)
class Model:
    config: ModelConfig
    weights: ModelWeights

    def classify(self, x: GridSignal):
        return classify(self, x)

    def encode_decode(self, x: GridSignal):
        return encode_decode(self, x)


def _rpe_for_grid(rng, kind: str, grid: tuple[int, ...]) -> RpeTable:
    if kind == NONE:
        return RpeTable.none()
    if kind == ADAPTIVE:
        return RpeTable.adaptive(rng.uniform(-0.5, 0.5, size=grid))
    return RpeTable.original(rng.uniform(-0.5, 0.5, size=tuple(2 * g - 1 for g in grid)))


def build_model(cfg: ModelConfig) -> Model:
    """Draw all weights i.i.d. uniform on [-0.5, 0.5] from a PCG64 stream.

    Draw order is fixed: patch embed, then per stage the q/k/v projections,
    window bias table, and merge projection, then the full-attention
    projections, its bias table, and the head.  Rebuilding from an equal
    config yields identical weights.
    """
    rng = np.random.default_rng(cfg.seed)
    rank = cfg.rank
    kind = cfg.effective_rpe_kind

    patch = PatchEmbedConfig(
        patch_len=cfg.patch_len,
        embed=rng.uniform(-0.5, 0.5, size=(cfg.patch_len**rank * cfg.channels, cfg.embed_dim)),
        invariant_fn=cfg.token_energy,
    )
    dims = cfg.stage_dims()
    stages = []
    for s in range(cfg.depth):
        d = dims[s]
        attn = AttentionParams(
            e_q=rng.uniform(-0.5, 0.5, size=(d, d)),
            e_k=rng.uniform(-0.5, 0.5, size=(d, d)),
            e_v=rng.uniform(-0.5, 0.5, size=(d, d)),
        )
        w = cfg.windows[s]
        rpe = _rpe_for_grid(rng, kind, (w,) * rank)
        p = cfg.merge_factors[s]
        merge = MergeConfig(
            factor=p,
            embed=rng.uniform(-0.5, 0.5, size=(p**rank * d, 2 * d)),
            energy_p=cfg.energy_p,
        )
        window = WindowConfig(w, cfg.energy_p, cfg.window_energy_fn)
        stages.append(StageWeights(attn=attn, rpe=rpe, merge=merge, window=window))

    d_final = dims[-1]
    if cfg.depth > 0:
        global_attn = AttentionParams(
            e_q=rng.uniform(-0.5, 0.5, size=(d_final, d_final)),
            e_k=rng.uniform(-0.5, 0.5, size=(d_final, d_final)),
            e_v=rng.uniform(-0.5, 0.5, size=(d_final, d_final)),
        )
        global_rpe = _rpe_for_grid(rng, kind, cfg.stage_grids()[-1])
    else:
        global_attn = None
        global_rpe = None
    head = rng.uniform(-0.5, 0.5, size=(d_final, cfg.num_classes))
    weights = ModelWeights(
        patch=patch,
        stages=tuple(stages),
        global_attn=global_attn,
        global_rpe=global_rpe,
        head=head,
    )
    return Model(config=cfg, weights=weights)


def _encode(model: Model, x) -> tuple[TokenMatrix, SelectionTrace]:
    """Encoder over one signal, or over a sequence of them as one batch."""
    cfg, weights = model.config, model.weights
    batched = not isinstance(x, GridSignal)
    if batched:
        x = list(x)
    for signal in x if batched else [x]:
        if signal.data.shape != (*cfg.input_shape, cfg.channels):
            raise ShapeError(
                f"input {signal.shape} x{signal.channels}ch does not match "
                f"config {cfg.input_shape} x{cfg.channels}ch"
            )
    entries = []
    if cfg.a_token:
        tokens, tr = a_token(x, weights.patch)
        entries += tr.entries
    else:
        tokens = token(x, weights.patch)

    for sw in weights.stages:
        if cfg.a_wsa:
            tokens, tr = a_wsa(tokens, sw.window, sw.attn, sw.rpe)
            entries += tr.entries
        else:
            tokens = wsa(tokens, sw.window, sw.attn, sw.rpe)
        if cfg.a_pmerge:
            tokens, tr = a_pmerge(tokens, sw.merge)
            entries += tr.entries
        else:
            tokens = pmerge(tokens, sw.merge)

    if cfg.depth > 0:
        tokens = sa(tokens, weights.global_attn, weights.global_rpe)
    require_finite(tokens.data, "encoder output")
    return tokens, SelectionTrace(len(x) if batched else 1, entries)


def _head(model: Model, tokens: TokenMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(B, classes) logits and (B,) labels.  Each sample's pooled row is its own
    (1, D) @ head product, bit-identical to that sample alone."""
    # The bits of `mean(axis=-2)`: the same sum, divided by the count.
    pooled = (np.add.reduce(tokens.stack(), axis=-2) / tokens.data.shape[-2])[:, np.newaxis]
    logits = (pooled @ model.weights.head)[:, 0]
    return logits, logits.argmax(axis=-1)


def _decode(cfg: ModelConfig, tokens: TokenMatrix, trace: SelectionTrace) -> np.ndarray:
    """Scatter tokens back to the input resolution along the encoder's trace,
    (B, *input_shape, D).

    The switches say what the trace holds: a token offset if a_token, then
    per stage a window offset if a_wsa and a merge phase if a_pmerge (a fixed
    merge keeps phase 0).  Each stage's `unpool` scatters through an index
    and fills every other row with zeros, so the chain of scatters is one
    scatter through the composed index: final token j lands at
    token_index[stage_0[stage_1[... j]]].
    """
    entries = list(trace)
    batch = trace.size
    zero = np.zeros((batch, cfg.rank), dtype=np.int64)
    token_offsets = entries.pop(0).offsets if cfg.a_token else zero
    index = scatter_index(cfg.input_shape, cfg.patch_len, token_offsets)
    per_stage = int(cfg.a_wsa) + int(cfg.a_pmerge)
    rows = np.arange(batch)[:, np.newaxis]
    for s, grid in enumerate(cfg._grids[:-1]):
        # A stage's window offset and merge phase add up, as in `unpool`.
        offsets = sum([e.offsets for e in entries[s * per_stage : (s + 1) * per_stage]], zero)
        index = index[rows, scatter_index(grid, cfg.merge_factors[s], offsets)]
    out = scatter_rows(tokens.stack(), math.prod(cfg.input_shape), index)
    return out.reshape(batch, *cfg.input_shape, -1)


def classify(model: Model, x: GridSignal) -> tuple[np.ndarray, int, SelectionTrace]:
    """Mean-pooled logits, the argmax label, and the selection trace."""
    tokens, trace = _encode(model, x)
    logits, labels = _head(model, tokens)
    return logits[0], int(labels[0]), trace


def encode_decode(model: Model, x: GridSignal) -> tuple[np.ndarray, SelectionTrace]:
    """Per-position feature map at input resolution, plus the trace.

    The decoder walks the stages in reverse: each merge is undone by
    scattering into the recorded phase (phase 0 for the baseline), each
    window alignment by rotating the grid back.  Finally each token's
    features land at its patch anchor; all other positions stay zero.
    """
    tokens, trace = _encode(model, x)
    return _decode(model.config, tokens, trace)[0], trace


def forward(model: Model, x):
    """classify and encode_decode from one encoder pass: logits, label, map, trace.

    `x` is one signal, or a sequence of B signals of the model's input shape,
    which gives (B, classes) logits, (B,) labels, (B, *shape, D) maps and a
    trace of size B; each sample's outputs are bit-identical to its call alone.
    """
    tokens, trace = _encode(model, x)
    logits, labels = _head(model, tokens)
    maps = _decode(model.config, tokens, trace)
    if tokens.batched:
        return logits, labels, maps, trace
    return logits[0], int(labels[0]), maps[0], trace
