"""Selection traces: the offset decisions made by adaptive ops.

Each adaptive op appends exactly one entry when it runs.  The decoder side
of the pipeline replays entries in reverse to put features back on the
input grid, and the metrics report tie flags from them.  A batch of inputs
gets one `BatchTrace`: per op, every sample's offset and tie flag as arrays;
`sample(i)` is the trace sample i gets when run alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

TOKEN = "token"
WSA = "wsa"
MERGE = "merge"

_KINDS = (TOKEN, WSA, MERGE)


@dataclass(frozen=True)
class TraceEntry:
    kind: str
    offset: tuple[int, ...]
    tied: bool = False

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown trace kind {self.kind!r}")
        object.__setattr__(self, "offset", tuple(int(o) for o in self.offset))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "offset": list(self.offset), "tied": self.tied}

    @classmethod
    def from_dict(cls, d: dict) -> TraceEntry:
        return cls(kind=d["kind"], offset=tuple(d["offset"]), tied=bool(d["tied"]))


@dataclass
class SelectionTrace:
    entries: list[TraceEntry] = field(default_factory=list)

    @classmethod
    def single(cls, kind: str, offset, tied: bool) -> SelectionTrace:
        return cls([TraceEntry(kind, tuple(offset), tied)])

    def extend(self, other: SelectionTrace) -> None:
        self.entries.extend(other.entries)

    def of_kind(self, kind: str) -> list[TraceEntry]:
        return [e for e in self.entries if e.kind == kind]

    @property
    def tie_count(self) -> int:
        return sum(1 for e in self.entries if e.tied)

    @property
    def any_tied(self) -> bool:
        return any(e.tied for e in self.entries)

    def to_dicts(self) -> list[dict]:
        return [e.to_dict() for e in self.entries]

    @classmethod
    def from_dicts(cls, items) -> SelectionTrace:
        return cls([TraceEntry.from_dict(d) for d in items])

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


class BatchEntry(NamedTuple):
    """One adaptive op over a batch: (B, rank) offsets and B tie flags."""

    kind: str
    offsets: np.ndarray
    tied: np.ndarray | tuple[bool, ...]


@dataclass
class BatchTrace:
    entries: list[BatchEntry] = field(default_factory=list)

    @classmethod
    def single(cls, kind: str, offsets, tied) -> BatchTrace:
        return cls([BatchEntry(kind, np.asarray(offsets), np.asarray(tied))])

    @classmethod
    def of(cls, trace: SelectionTrace) -> BatchTrace:
        """A one-sample trace as a batch of one."""
        return cls([BatchEntry(e.kind, np.array([e.offset]), (e.tied,)) for e in trace])

    def extend(self, other: BatchTrace) -> None:
        self.entries.extend(other.entries)

    def of_kind(self, kind: str) -> list[BatchEntry]:
        return [e for e in self.entries if e.kind == kind]

    def __iter__(self):
        return iter(self.entries)

    def any_tied(self, size: int) -> np.ndarray:
        """Per sample of a batch of `size`, whether any selection tied."""
        if not self.entries:
            return np.zeros(size, dtype=bool)
        return np.any([e.tied for e in self.entries], axis=0)

    def sample(self, i: int) -> SelectionTrace:
        return SelectionTrace(
            [TraceEntry(e.kind, e.offsets[i].tolist(), bool(e.tied[i])) for e in self.entries]
        )


def selections(kind: str, offsets, tied, batched: bool) -> SelectionTrace | BatchTrace:
    """An op's (B, rank) offsets and (B,) tie flags: a `BatchTrace` for a batch,
    else the trace of its one sample."""
    if batched:
        return BatchTrace.single(kind, offsets, tied)
    return SelectionTrace.single(kind, offsets[0].tolist(), bool(tied[0]))
