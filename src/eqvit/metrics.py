"""Shift-consistency metrics over sampled offset pairs.

c_cons checks that two random circular shifts of one input get the same
label.  mascc does the per-position analogue for dense maps: decode both
shifted inputs, rotate the maps back, and compare argmax labels everywhere.
s_cons_zeropad repeats the label check with standard zero-filling shifts,
where circular reasoning no longer applies and scores drop below 1.
`consistency` gives c_cons and mascc from one pass over the shifted inputs.
Every score reads `compare_shift_pairs`, which runs both shifts of each pair
through a built `Model`; the harness's end2end check, its ablation search
and `replay` read the same comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import fmean

import numpy as np

from .errors import ParameterError, ShapeError
from .numerics import GridSignal, Offset, as_offset, circular_shift, max_abs_rows, rotate_rows
from .pipeline import MAX_BATCH, Model, forward


@dataclass(frozen=True)
class ShiftSampler:
    """Uniform integer offsets in [0, max_offset] per axis, PCG64 stream."""

    max_offset: tuple[int, ...]
    pairs_per_input: int = 5
    seed: int = 0

    def __post_init__(self):
        offs = self.max_offset
        if isinstance(offs, (int, np.integer)):
            offs = (int(offs),)
        offs = tuple(int(o) for o in offs)
        if any(o < 0 for o in offs):
            raise ParameterError(f"max_offset {offs} must be non-negative")
        if self.pairs_per_input < 1:
            raise ParameterError("pairs_per_input must be >= 1")
        object.__setattr__(self, "max_offset", offs)

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


@dataclass(frozen=True)
class TrialRecord:
    input_id: int
    shift_a: Offset
    shift_b: Offset
    agreement: float
    divergence: float
    tied: bool


@dataclass(frozen=True)
class ConsistencyReport:
    metric: str
    records: tuple[TrialRecord, ...]
    aggregate: float
    max_divergence: float
    tie_count: int

    @classmethod
    def from_records(cls, metric: str, records) -> ConsistencyReport:
        records = tuple(records)
        if not records:
            raise ParameterError("a consistency report needs at least one trial")
        return cls(
            metric=metric,
            records=records,
            aggregate=fmean(r.agreement for r in records),
            max_divergence=max(r.divergence for r in records),
            tie_count=sum(1 for r in records if r.tied),
        )

    @property
    def trials(self) -> int:
        return len(self.records)

    def summary(self) -> dict:
        return {
            "metric": self.metric,
            "trials": self.trials,
            "aggregate": self.aggregate,
            "max_divergence": self.max_divergence,
            "tie_count": self.tie_count,
        }


def shift_zeropad(x: GridSignal, off) -> GridSignal:
    """Standard (non-circular) shift: out[n] = x[n + off], zeros past the end."""
    offs = as_offset(off, x.rank)
    if any(o < 0 for o in offs):
        raise ParameterError(f"zero-pad shift offsets must be non-negative, got {offs}")
    out = np.zeros_like(x.data)
    src = x.data[tuple(slice(o, None) for o in offs)]
    out[tuple(slice(0, s) for s in src.shape[: x.rank])] = src
    return GridSignal._fresh(out)


def compare_shift_pairs(model: Model, pairs, shifter=circular_shift, dense: bool = True):
    """Run both shifts of each (signal, offset a, offset b) pair through the
    model, up to `MAX_BATCH // 2` pairs per `forward`, and compare them.

    Returns (pairs,) arrays: whether the labels agree, the fraction of
    positions whose argmax agrees once each map is rotated back by its own
    shift, the logit divergence, the rotated maps' divergence, and whether
    either shift tied.  Without `dense` the maps are not compared, and the
    fraction and the map divergence are None.
    """
    columns = []
    for start in range(0, len(pairs), MAX_BATCH // 2):
        chunk = pairs[start : start + MAX_BATCH // 2]
        n = len(chunk)
        offs = [a for _, a, _ in chunk] + [b for _, _, b in chunk]
        shifted = [shifter(x, off) for x, off in zip([x for x, _, _ in chunk] * 2, offs)]
        logits, labels, maps, trace = forward(model, shifted)
        agreement = map_div = None
        if dense:
            rows = maps.reshape(2 * n, -1, maps.shape[-1])
            back = rotate_rows(rows, maps.shape[1:-1], -np.array(offs))
            same = np.argmax(back[:n], -1) == np.argmax(back[n:], -1)
            agreement, map_div = np.mean(same, axis=-1), max_abs_rows(back[:n], back[n:])
        same_label = labels[:n] == labels[n:]
        logit_div = max_abs_rows(logits[:n], logits[n:])
        tied = trace.tied
        columns.append((same_label, agreement, logit_div, map_div, tied[:n] | tied[n:]))
    if not columns:
        raise ParameterError("no shift pairs to compare")
    return tuple(None if c[0] is None else np.concatenate(c) for c in zip(*columns))


def _reports(model: Model, inputs, sampler: ShiftSampler, shifter, metrics):
    """One report per named metric over the same sampled shift pairs, from one
    `compare_shift_pairs` pass: label metrics (c_cons, s_cons_zeropad) read
    labels and logits, mascc the rotated-back maps, which are compared only
    when mascc is asked for."""
    for x in inputs:
        sampler.check_shape(x.shape)
    offsets = sampler.sample_pairs(len(inputs)).tolist()
    trials = [(i, tuple(a), tuple(b)) for i in range(len(inputs)) for a, b in offsets[i]]
    pairs = [(inputs[i], a, b) for i, a, b in trials]
    same_label, agreement, logit_div, map_div, tied = compare_shift_pairs(
        model, pairs, shifter, dense="mascc" in metrics
    )
    reports = []
    for m in metrics:
        if m == "mascc":
            scores, divs = agreement, map_div
        else:
            scores, divs = np.where(same_label, 1.0, 0.0), logit_div
        records = [
            TrialRecord(*trial, a, d, t)
            for trial, a, d, t in zip(trials, scores.tolist(), divs.tolist(), tied.tolist())
        ]
        reports.append(ConsistencyReport.from_records(m, records))
    return reports


def c_cons(model: Model, inputs, sampler: ShiftSampler) -> ConsistencyReport:
    """Label agreement between two random circular shifts of each input."""
    return _reports(model, inputs, sampler, circular_shift, ("c_cons",))[0]


def s_cons_zeropad(model: Model, inputs, sampler: ShiftSampler) -> ConsistencyReport:
    """Label agreement under standard zero-filling shifts."""
    return _reports(model, inputs, sampler, shift_zeropad, ("s_cons_zeropad",))[0]


def mascc(model: Model, inputs, sampler: ShiftSampler) -> ConsistencyReport:
    """Mean per-position argmax agreement of shifted-back decoded maps.

    Each decoded map is rotated back by its own input shift before
    comparison, so a perfectly equivariant model scores exactly 1.0.
    """
    return _reports(model, inputs, sampler, circular_shift, ("mascc",))[0]


def consistency(
    model: Model, inputs, sampler: ShiftSampler
) -> tuple[ConsistencyReport, ConsistencyReport]:
    """c_cons and mascc from one encoder pass per shifted input: the two
    metrics sample the same pairs, so each shift is encoded once for both."""
    return tuple(_reports(model, inputs, sampler, circular_shift, ("c_cons", "mascc")))


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
