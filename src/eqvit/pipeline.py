"""Desk-scale models built from the adaptive blocks.

Two heads over one encoder:

  classify      tokenize -> [window attention -> patch merge] x depth
                -> full self-attention with position bias -> mean pool
                -> linear head
  encode_decode same encoder, then a decoder that puts each final token
                where its recorded token offset, window offsets and merge
                phases compose to, in a zero-filled map at the input
                resolution.
  forward       both heads from one encoder pass, for one input or a batch.

The encoder runs on a `SignalBatch` of B inputs, one `GridSignal` being the
batch of one, with one selection per sample; each sample's outputs are
bit-identical to its run alone.  Every adaptive op appends one entry of
per-sample offsets and tie flags to its `SelectionTrace`, and the decoder
sums those offsets into one placement offset per sample: one scatter per
decode.  The heads (`classify`, `encode_decode` and `forward`) return one
sample's results unstacked for a `GridSignal`, and stacked per sample for a
`SignalBatch`.

Every adaptive block can be swapped for its fixed baseline through a config
switch, which is how the ablation suites demonstrate that each one is
needed for shift invariance.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from itertools import accumulate
from operator import mul

import numpy as np

from .attention import ADAPTIVE, NONE, ORIGINAL, WINDOW_FNS, AttentionParams, RpeTable
from .attention import WindowConfig, a_wsa, sa, wsa
from .errors import ConfigError, ShapeError
from .merging import MergeConfig, a_pmerge, pmerge
from .numerics import GRID_SHAPE, NORM_ORDER, POSITIVE, GridSignal, SignalBatch, check_value
from .numerics import int_in, is_int, names_from, one_of, positive_ints, require_finite
from .numerics import checked_array, freeze, place_rows
from .tokenizer import INVARIANT_FNS, PatchEmbedConfig, TokenMatrix, a_token, token
from .trace import SelectionTrace

SWITCHES = ("a_token", "a_wsa", "a_pmerge", "adaptive_rpe")

# The batch `ModelConfig` sizes a forward's arrays by, and the most samples
# the harness and the metrics decode at once: on the default 1-D model a
# decoded map is 16 KB per sample, 4x the encoder's largest array.  So encoder
# passes without that map take more samples (`metrics.pass_pairs`).
MAX_BATCH = 16

# Token dimensions double at every stage, so no deeper model could be built.
MAX_DEPTH = 32

# Most entries (32 MiB of float64) that the input, any one weight array, or
# any one array of a `MAX_BATCH` forward may hold.  A larger config is bad
# configuration, rejected before anything is allocated; the default 1-D
# model's largest array, a batch of decoded maps, holds 32,768.
MAX_ELEMENTS = 2**22


_PER_STAGE = (positive_ints, "an integer >= 1 or a list of them, one per stage")
_SWITCH = (lambda v: isinstance(v, bool), "true or false")
# The switch names `ModelConfig.disable` and `SuiteConfig.disable` take.
SWITCH_NAMES = names_from(*SWITCHES)

# One rule per `ModelConfig` field, (check, what it requires), for every
# caller: `__post_init__` first takes a list as a tuple, and broadcasts a
# bare int for windows or merge_factors over the stages.
FIELD_RULES = {
    "input_shape": GRID_SHAPE,
    "channels": POSITIVE,
    "patch_len": POSITIVE,
    "depth": (int_in(0, MAX_DEPTH), f"an integer in [0, {MAX_DEPTH}]"),
    "windows": _PER_STAGE,
    "merge_factors": _PER_STAGE,
    "embed_dim": POSITIVE,
    "num_classes": POSITIVE,
    "rpe_kind": one_of(NONE, ORIGINAL, ADAPTIVE),
    "token_energy": one_of(*INVARIANT_FNS),
    "window_energy_fn": one_of(*WINDOW_FNS),
    "energy_p": NORM_ORDER,
    "a_token": _SWITCH,
    "a_wsa": _SWITCH,
    "a_pmerge": _SWITCH,
    "adaptive_rpe": _SWITCH,
    "seed": (int_in(0), "a non-negative integer"),
}


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
        for name in FIELD_RULES:
            value = getattr(self, name)
            value = tuple(value) if isinstance(value, list) else value
            if name in ("windows", "merge_factors") and is_int(value):
                value = (value,) * self.depth
            check_value(name, value, FIELD_RULES[name], ConfigError)
            if isinstance(value, tuple):  # NumPy integers become plain ints
                value = tuple(map(int, value))
            object.__setattr__(self, name, int(value) if is_int(value) else value)
        if not len(self.windows) == len(self.merge_factors) == self.depth:
            raise ConfigError(f"windows and merge_factors need {self.depth} entries, one per stage")
        for n in self.input_shape:
            if n % self.patch_len:
                raise ConfigError(f"axis {n} is not divisible by patch_len {self.patch_len}")
        grids = [tuple(n // self.patch_len for n in self.input_shape)]
        for s, (w, p) in enumerate(zip(self.windows, self.merge_factors)):
            grid = grids[-1]
            for g in grid:
                if g % w:
                    raise ConfigError(f"stage {s}: grid {grid} not divisible by window {w}")
                if g % p:
                    raise ConfigError(f"stage {s}: grid {grid} not divisible by factor {p}")
            grids.append(tuple(g // p for g in grid))
        # Not fields: fixed by the fields above.  `stage_grids` returns the grids;
        # `_decode` weighs the base and the token offset by 1, a stage's entries by its stride.
        object.__setattr__(self, "_grids", tuple(grids))
        strides = list(accumulate(self.merge_factors, mul, initial=self.patch_len))
        units = [1] * (1 + self.a_token)
        units += [s for s in strides[:-1] for _ in range(self.a_wsa + self.a_pmerge)]
        object.__setattr__(self, "_units", (freeze(units, np.int64), strides[-1]))
        name, size = max(self.array_sizes() + self.activation_sizes(), key=lambda item: item[1])
        if size > MAX_ELEMENTS:
            raise ConfigError(f"the {name} would hold {size} entries, more than {MAX_ELEMENTS}")

    def weight_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        """(name, shape) of every weight array `build_model` draws, in draw order."""
        rank, dims, kind = self.rank, self.stage_dims(), self.effective_rpe_kind

        def attention(at: str, d: int, grid: tuple[int, ...]) -> list:
            shapes = [(f"{at} {e}", (d, d)) for e in ("e_q", "e_k", "e_v")]
            if kind != NONE:
                table = tuple(2 * g - 1 for g in grid) if kind == ORIGINAL else grid
                shapes.append((f"{at} position bias table", table))
            return shapes

        shapes = [("patch embed", (self.patch_len**rank * self.channels, self.embed_dim))]
        for s, (d, w, p) in enumerate(zip(dims, self.windows, self.merge_factors)):
            shapes += attention(f"stage {s}", d, (w,) * rank)
            shapes.append((f"stage {s} merge projection", (p**rank * d, 2 * d)))
        if self.depth:
            shapes += attention("global", dims[-1], self._grids[-1])
        shapes.append(("head", (dims[-1], self.num_classes)))
        return shapes

    def array_sizes(self) -> list[tuple[str, int]]:
        """(name, entries) of the input and of every weight array `build_model`
        draws; plain integer arithmetic, nothing is allocated."""
        sizes = [("input", math.prod(self.input_shape) * self.channels)]
        return sizes + [(name, math.prod(shape)) for name, shape in self.weight_shapes()]

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
            sizes.append(("projected merge taps", n * p**rank * m * 2 * d))
        if self.depth:
            sizes.append(("global attention matrix", n * math.prod(self.stage_grids()[-1]) ** 2))
        return sizes

    @property
    def rank(self) -> int:
        return len(self.input_shape)

    def stage_grids(self) -> list[tuple[int, ...]]:
        """Token grid entering each stage; one extra entry for the final grid."""
        return list(self._grids)

    def stage_dims(self) -> list[int]:
        """Token dimension entering each stage, ending with the final dim."""
        return [self.embed_dim * 2**s for s in range(self.depth + 1)]

    @property
    def effective_rpe_kind(self) -> str:
        return ORIGINAL if self.rpe_kind == ADAPTIVE and not self.adaptive_rpe else self.rpe_kind

    def disable(self, *switches: str) -> ModelConfig:
        """Copy of the config with the named adaptive switches turned off."""
        check_value("switches", switches, SWITCH_NAMES, ConfigError)
        return dataclasses.replace(self, **{s: False for s in switches})

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        return {k: list(v) if isinstance(v, tuple) else v for k, v in d.items()}

    @classmethod
    def from_dict(cls, d: dict) -> ModelConfig:
        """Config from a JSON object, under the rules every caller gets."""
        if not isinstance(d, dict):
            raise ConfigError(f"model config must be a JSON object, got {type(d).__name__}")
        unknown = set(d) - set(FIELD_RULES)
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        return cls(**d)


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
        object.__setattr__(self, "head", checked_array(self.head, "head"))
        object.__setattr__(self, "stages", tuple(self.stages))


@dataclass(frozen=True)
class Model:
    config: ModelConfig
    weights: ModelWeights

    def classify(self, x):
        return classify(self, x)

    def encode_decode(self, x):
        return encode_decode(self, x)


def build_model(cfg: ModelConfig) -> Model:
    """Draw all weights i.i.d. uniform on [-0.5, 0.5] from a PCG64 stream, in
    the order of `cfg.weight_shapes()`; an equal config yields identical weights."""
    rng = np.random.default_rng(cfg.seed)
    w = {name: rng.uniform(-0.5, 0.5, size=shape) for name, shape in cfg.weight_shapes()}
    kind = cfg.effective_rpe_kind

    def attention(at: str) -> tuple[AttentionParams, RpeTable]:
        params = AttentionParams(w[f"{at} e_q"], w[f"{at} e_k"], w[f"{at} e_v"])
        return params, RpeTable(kind, w.get(f"{at} position bias table"))

    stages = []
    for s, (win, p) in enumerate(zip(cfg.windows, cfg.merge_factors)):
        merge = MergeConfig(p, w[f"stage {s} merge projection"], cfg.energy_p)
        window = WindowConfig(win, cfg.energy_p, cfg.window_energy_fn)
        stages.append(StageWeights(*attention(f"stage {s}"), merge, window))
    patch = PatchEmbedConfig(cfg.patch_len, w["patch embed"], cfg.token_energy)
    global_attn = attention("global") if cfg.depth else (None, None)
    return Model(cfg, ModelWeights(patch, stages, *global_attn, w["head"]))


def _encode(model: Model, x) -> tuple[TokenMatrix, SelectionTrace]:
    """Encoder over a `SignalBatch`, or over one `GridSignal` as the batch of one."""
    cfg, weights = model.config, model.weights
    if isinstance(x, GridSignal):
        shape = x.data.shape
    elif isinstance(x, SignalBatch):
        shape = x.data.shape[1:]
    else:
        raise ShapeError(f"expected a GridSignal or a SignalBatch, got {type(x).__name__}")
    if shape != (*cfg.input_shape, cfg.channels):
        raise ShapeError(
            f"input of shape {shape} does not match config {cfg.input_shape} x{cfg.channels}ch"
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
    return tokens, SelectionTrace(len(tokens.data), entries)


def _head(model: Model, tokens: TokenMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(B, classes) logits and (B,) labels.  Each sample's pooled row is its own
    (1, D) @ head product, bit-identical to that sample alone."""
    # The bits of `mean(axis=-2)`: the same sum, divided by the count.
    data = tokens.data
    pooled = (np.add.reduce(data, axis=1) / data.shape[1])[:, np.newaxis]
    logits = (pooled @ model.weights.head)[:, 0]
    return logits, logits.argmax(axis=-1)


def _decode(cfg: ModelConfig, tokens: TokenMatrix, trace: SelectionTrace, shifts=None):
    """Scatter tokens back to the input resolution along the encoder's trace,
    (B, *input_shape, D); with (B, rank) `shifts`, sample i's map lands
    rotated back by shifts[i], as `rotate_rows` by -shifts[i] would give it.

    Each inverse is a polyphase placement, as in `unpool`, so their chain is
    one: final token j lands at (O + S j) mod input_shape, S = patch_len *
    prod(merge_factors), and O the token offset plus each stage's window
    offset and merge phase times patch_len * (the factors before it).  The
    trace is the encoder's under `cfg`: a token offset if a_token is on, and
    per stage a window offset if a_wsa is on and a merge phase if a_pmerge is
    on, so `cfg` fixes each entry's unit once; a fixed op's offset is 0.
    """
    units, stride = cfg._units
    if shifts is None:
        base = np.zeros((trace.size, len(cfg.input_shape)), dtype=np.int64)
    else:  # taken mod the grid first, so any int64 shift adds without overflow
        base = shifts % cfg.input_shape
    terms = [base]
    for entry in trace.entries:
        terms.append(entry.offsets)
    # Each term a (B * rank) row, weighted by its unit and summed in one dot.
    offsets = np.dot(units, np.concatenate(terms).reshape(len(units), -1)).reshape(base.shape)
    out = place_rows(tokens.data, cfg.input_shape, stride, offsets)
    return out.reshape(trace.size, *cfg.input_shape, -1)


def classify(model: Model, x) -> tuple[np.ndarray, int | np.ndarray, SelectionTrace]:
    """Mean-pooled logits, the argmax label, and the selection trace; stacked
    per sample for a `SignalBatch`, as `forward` gives them."""
    tokens, trace = _encode(model, x)
    logits, labels = _head(model, tokens)
    if isinstance(x, SignalBatch):
        return logits, labels, trace
    return logits[0], int(labels[0]), trace


def encode_decode(model: Model, x) -> tuple[np.ndarray, SelectionTrace]:
    """Per-position feature map at input resolution, plus the trace.

    The decoder undoes every merge (at the recorded phase, 0 for the
    baseline), window alignment and patch anchor at once: each final token's
    features land where those offsets compose to, and all other positions
    stay zero.  A `SignalBatch` gets the (B, *shape, D) stack of maps, as
    from `forward`.
    """
    tokens, trace = _encode(model, x)
    maps = _decode(model.config, tokens, trace)
    return (maps if isinstance(x, SignalBatch) else maps[0]), trace


def forward(model: Model, x):
    """classify and encode_decode from one encoder pass: logits, label, map, trace.

    `x` is one signal, or a `SignalBatch` of B signals of the model's input
    shape, which gives (B, classes) logits, (B,) labels, (B, *shape, D) maps
    and a trace of size B; each sample's outputs are bit-identical to its
    call alone.
    """
    tokens, trace = _encode(model, x)
    logits, labels = _head(model, tokens)
    maps = _decode(model.config, tokens, trace)
    if isinstance(x, GridSignal):
        return logits[0], int(labels[0]), maps[0], trace
    return logits, labels, maps, trace
