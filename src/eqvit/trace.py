"""Selection traces: the offset decisions made by adaptive ops.

Each adaptive op appends exactly one entry when it runs: per sample of its
input, the chosen (rank,) offset and whether that choice was an exact tie.
One input is the size-1 case of a batch, so there is one format for both.
The decoder side of the pipeline replays entries in reverse to put features
back on the input grid, and the suites read the per-sample tie flags;
`rows(i, i + 1)` is the trace sample i gets when run alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TOKEN = "token"
WSA = "wsa"
MERGE = "merge"

_KINDS = (TOKEN, WSA, MERGE)


@dataclass(frozen=True, eq=False)
class TraceEntry:
    """One adaptive op over B samples: (B, rank) int64 offsets, (B,) tie flags."""

    kind: str
    offsets: np.ndarray
    tied: np.ndarray

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown trace kind {self.kind!r}")
        object.__setattr__(self, "offsets", np.asarray(self.offsets, dtype=np.int64))
        object.__setattr__(self, "tied", np.asarray(self.tied, dtype=bool))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TraceEntry):
            return NotImplemented
        return (
            self.kind == other.kind
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.tied, other.tied)
        )


@dataclass
class SelectionTrace:
    """The entries of one encoder run over `size` samples, in op order."""

    size: int = 1
    entries: list[TraceEntry] = field(default_factory=list)

    def of_kind(self, kind: str) -> list[TraceEntry]:
        return [e for e in self.entries if e.kind == kind]

    @property
    def tied(self) -> np.ndarray:
        """Per sample, whether any of its selections tied."""
        if not self.entries:
            return np.zeros(self.size, dtype=bool)
        return np.logical_or.reduce([e.tied for e in self.entries])

    @property
    def any_tied(self) -> bool:
        return bool(self.tied.any())

    def rows(self, start: int, stop: int) -> SelectionTrace:
        """The trace samples start to stop (at most `size`) get when run alone."""
        cut = [TraceEntry(e.kind, e.offsets[start:stop], e.tied[start:stop]) for e in self.entries]
        return SelectionTrace(stop - start, cut)

    def __iter__(self):
        return iter(self.entries)
