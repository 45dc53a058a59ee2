"""Shift-consistency metrics over sampled offset pairs.

c_cons checks that two random circular shifts of one input get the same
label.  mascc does the per-position analogue for dense maps: decode both
shifted inputs, rotate the maps back, and compare argmax labels everywhere.
s_cons_zeropad repeats the label check with standard zero-filling shifts,
where circular reasoning no longer applies and scores drop below 1.
Every score reads `compare_shift_pairs`, which runs both shifts of each pair
side by side through a built `Model`, one gather shifting a pass of pairs, each
map decoded already rotated back (its shift added to the decoder's one
placement offset); the harness's end2end check, its ablation search and
`replay` read the same comparison; its metrics suite summarises end2end's
columns and a zero-padded comparison of the same batches (`pair_report`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import pipeline
from .errors import ParameterError, ShapeError
from .numerics import POSITIVE, GridSignal, SignalBatch, check_value, ints_in, is_int
from .numerics import max_abs_rows, real_array, rotate_rows
from .pipeline import MAX_BATCH, Model, ModelConfig
from .tokenizer import TokenMatrix


@dataclass(frozen=True)
class ShiftSampler:
    """Uniform integer offsets in [0, max_offset] per axis, PCG64 stream."""

    max_offset: tuple[int, ...]
    pairs_per_input: int = 5
    seed: int = 0

    def __post_init__(self):
        offs = (self.max_offset,) if is_int(self.max_offset) else self.max_offset
        offs = tuple(offs) if isinstance(offs, list) else offs
        check_value("max_offset", offs, (ints_in(0), "an integer >= 0 or one per axis"))
        check_value("pairs_per_input", self.pairs_per_input, POSITIVE)
        object.__setattr__(self, "max_offset", tuple(map(int, offs)))

    @classmethod
    def for_shape(cls, shape: tuple[int, ...], pairs_per_input: int = 5, seed: int = 0):
        """Offsets drawn from [0, axis/2) on every axis."""
        return cls(
            max_offset=tuple(max(n // 2 - 1, 0) for n in shape),
            pairs_per_input=pairs_per_input,
            seed=seed,
        )

    @property
    def rank(self) -> int:
        return len(self.max_offset)

    def sample_pairs(self, count: int) -> np.ndarray:
        """Offset pairs, shape (count, pairs_per_input, 2, rank)."""
        rng = np.random.default_rng(self.seed)
        high = np.asarray(self.max_offset) + 1
        return rng.integers(0, high, size=(count, self.pairs_per_input, 2, self.rank))

    def check_shape(self, shape: tuple[int, ...]) -> None:
        if len(shape) != self.rank:
            raise ShapeError(f"sampler rank {self.rank} vs input rank {len(shape)}")
        if any(o >= n for o, n in zip(self.max_offset, shape)):
            raise ShapeError(f"max_offset {self.max_offset} not below shape {shape}")


@dataclass(frozen=True, eq=False)
class ConsistencyReport:
    """One metric over N shift pairs, as the (N,) columns `compare_shift_pairs`
    gives, in pair order: each pair's agreement (1.0 or 0.0 for a label
    metric, the fraction of agreeing positions for mascc), its divergence
    (logits, or rotated-back maps for mascc), and whether either shift tied."""

    metric: str
    agreement: np.ndarray
    divergence: np.ndarray
    tied: np.ndarray

    def __post_init__(self):
        if not len(self.agreement):
            raise ParameterError("a consistency report needs at least one trial")

    @property
    def trials(self) -> int:
        return len(self.agreement)

    @property
    def aggregate(self) -> float:
        # The bits of `statistics.fmean`, which is fsum / n for a list,
        # without importing `statistics` (and `fractions` and `decimal`).
        values = self.agreement.tolist()
        return math.fsum(values) / len(values)

    @property
    def max_divergence(self) -> float:
        return max(self.divergence.tolist())

    @property
    def tie_count(self) -> int:
        return int(np.count_nonzero(self.tied))

    def summary(self) -> dict:
        return {
            "metric": self.metric,
            "trials": self.trials,
            "aggregate": self.aggregate,
            "max_divergence": self.max_divergence,
            "tie_count": self.tie_count,
        }


def shift_stack(stack: np.ndarray, offsets: np.ndarray, zero_pad: bool = False) -> np.ndarray:
    """Sample i of a (B, *grid, C) stack shifted by offsets[i], (B, rank), in one
    gather: out[n] = x[(n + off) mod grid], or with `zero_pad` the standard
    shift, +0.0 where n + off passes the end."""
    b, *grid, c = stack.shape
    if zero_pad and (offsets < 0).any():
        raise ParameterError(f"zero-pad shift offsets must be non-negative, got {offsets.tolist()}")
    out = rotate_rows(stack.reshape(b, -1, c), tuple(grid), offsets).reshape(stack.shape)
    if zero_pad:  # +0.0 where n + off passes the end of an axis, where the gather wrapped
        ones = (1,) * len(grid)
        past = np.indices(grid) >= np.reshape(grid, (-1, *ones)) - offsets.reshape(b, -1, *ones)
        out[past.any(axis=1)] = 0.0
    return out


def pass_pairs(cfg: ModelConfig) -> int:
    """Shift pairs per encoder pass of `compare_shift_pairs`: k * MAX_BATCH // 2, k =
    max(1, L // (2 E)), L the largest array of a `MAX_BATCH` forward and E the largest
    but its decoded map, which is decoded `MAX_BATCH` samples at a time."""
    sizes = cfg.activation_sizes()
    encoder = max(size for name, size in sizes if name != "decoded map")
    return max(1, max(size for _, size in sizes) // (2 * encoder)) * MAX_BATCH // 2


def compare_shift_pairs(model: Model, inputs, offsets, zero_pad=False, dense=True):
    """Pair (i, j) is input i of an (N, *shape, C) stack of checked signals shifted
    (`shift_stack`) by offsets[i, j, 0] and by offsets[i, j, 1], from (N, K, 2, rank)
    `offsets` as `ShiftSampler.sample_pairs` draws them.  Sample 2p is pair p's
    first shift and sample 2p + 1 its second, so every even slice of samples holds
    whole pairs: an encoder pass takes `pass_pairs` pairs, and maps are decoded
    `MAX_BATCH` samples at a time, each rotated back by its shift.  Per pair, in
    pair order: whether the labels agree, the fraction of positions whose argmax
    agrees, the logit and map divergences, and whether either shift tied.  Without
    `dense` nothing is decoded (encoder and head only), and the fraction and map
    divergence are None.
    """
    cfg = model.config
    if not len(inputs):
        raise ParameterError("no shift pairs to compare")
    if inputs.shape[1:] != (*cfg.input_shape, cfg.channels):
        raise ShapeError(f"inputs of shape {inputs.shape[1:]} do not match the model's")
    shape = np.shape(offsets)
    if 0 in shape or shape[:1] + shape[2:] != (len(inputs), 2, cfg.rank):
        raise ShapeError(f"offsets of shape {shape} are not ({len(inputs)}, K >= 1, 2, {cfg.rank})")
    per_input, offsets = 2 * shape[1], np.reshape(offsets, (-1, cfg.rank))
    heads, agreement, map_div, step = [], [], [], 2 * pass_pairs(cfg)
    for start in range(0, len(offsets), step):
        shifts = offsets[start : start + step]
        xs = inputs[np.arange(start, start + len(shifts)) // per_input]
        tokens, trace = pipeline._encode(model, SignalBatch._fresh(shift_stack(xs, shifts, zero_pad)))
        heads.append((*pipeline._head(model, tokens), trace.tied))
        for lo in range(0, len(shifts) if dense else 0, MAX_BATCH):
            hi = min(lo + MAX_BATCH, len(shifts))
            part = TokenMatrix._fresh(tokens.data[lo:hi], tokens.grid_shape)
            maps = pipeline._decode(cfg, part, trace.rows(lo, hi), shifts[lo:hi])
            maps = maps.reshape(hi - lo, -1, maps.shape[-1])
            a, b = maps[0::2], maps[1::2]
            agreement.append(np.mean(np.argmax(a, -1) == np.argmax(b, -1), axis=-1))
            map_div.append(max_abs_rows(a, b))
    logits, labels, tied = (np.concatenate(c) for c in zip(*heads))
    agreement, map_div = (np.concatenate(c) if dense else None for c in (agreement, map_div))
    same_label, logit_div = labels[0::2] == labels[1::2], max_abs_rows(logits[0::2], logits[1::2])
    return same_label, agreement, logit_div, map_div, tied[0::2] | tied[1::2]


def pair_report(metric: str, same_label, agreement, logit_div, map_div, tied):
    """`metric`'s report from the columns of `compare_shift_pairs`: label metrics
    (c_cons, s_cons_zeropad) read labels and logits, mascc the rotated-back maps."""
    if metric == "mascc":
        return ConsistencyReport(metric, agreement, map_div, tied)
    return ConsistencyReport(metric, np.where(same_label, 1.0, 0.0), logit_div, tied)


def _report(model: Model, inputs, sampler: ShiftSampler, zero_pad: bool, metric: str):
    """`metric` over `inputs`' sampled shift pairs; only mascc decodes maps."""
    sampler.check_shape(model.config.input_shape)  # `compare_shift_pairs` checks the inputs'
    offsets, dense = sampler.sample_pairs(len(inputs)), metric == "mascc"
    stack = real_array([x.data for x in inputs], "inputs")
    return pair_report(metric, *compare_shift_pairs(model, stack, offsets, zero_pad, dense))


def c_cons(model: Model, inputs, sampler: ShiftSampler) -> ConsistencyReport:
    """Label agreement between two random circular shifts of each input."""
    return _report(model, inputs, sampler, False, "c_cons")


def s_cons_zeropad(model: Model, inputs, sampler: ShiftSampler) -> ConsistencyReport:
    """Label agreement under standard zero-filling shifts."""
    return _report(model, inputs, sampler, True, "s_cons_zeropad")


def mascc(model: Model, inputs, sampler: ShiftSampler) -> ConsistencyReport:
    """Mean per-position argmax agreement of shifted-back decoded maps.

    Each decoded map is rotated back by its own input shift before
    comparison, so a perfectly equivariant model scores exactly 1.0.
    """
    return _report(model, inputs, sampler, False, "mascc")


def synthetic_inputs(
    shape: tuple[int, ...], channels: int, count: int, seed: int = 0
) -> list[GridSignal]:
    """Deterministic test inputs: uniform noise, ramps, single impulses."""
    rng = np.random.default_rng(seed)
    shape = tuple(int(n) for n in shape)
    out = []
    for i in range(count):
        kind = i % 4
        if kind == 3:
            # Ramp along the first axis, per-channel slope.
            ramp = np.linspace(0.0, 1.0, shape[0]).reshape(shape[0], *(1,) * len(shape))
            slopes = rng.uniform(0.5, 2.0, size=channels)
            data = np.broadcast_to(ramp, (*shape, channels)) * slopes
        elif kind == 2:
            # Single spike on a zero background.
            data = np.zeros((*shape, channels))
            pos = tuple(int(rng.integers(0, n)) for n in shape)
            data[(*pos, int(rng.integers(0, channels)))] = float(rng.uniform(2.0, 4.0))
        else:
            data = rng.uniform(-1.0, 1.0, size=(*shape, channels))
        out.append(GridSignal(data))
    return out
