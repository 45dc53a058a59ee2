"""Selection-trace bookkeeping: entry validation, queries, per-sample views."""

import numpy as np
import pytest

from eqvit.trace import MERGE, TOKEN, WSA, SelectionTrace, TraceEntry


def test_entry_normalizes_offsets():
    e = TraceEntry(TOKEN, [[1, 2]], [1], [np.int64(8), 8], 4)
    assert e.offsets.dtype == np.int64 and e.offsets.tolist() == [[1, 2]]
    assert e.tied.dtype == bool and e.tied.tolist() == [True]
    assert e.grid == (8, 8) and all(type(g) is int for g in e.grid)


def test_entry_rejects_unknown_kind():
    # `best_phase` builds every entry through this check (tests/test_numerics.py).
    with pytest.raises(ValueError):
        TraceEntry("pool", [(0,)], [False], (8,), 2)


def test_entries_differ_by_grid_and_stride():
    e = TraceEntry(WSA, [(1,)], [False], (8,), 4)
    assert e == TraceEntry(WSA, [(1,)], [False], [8], 4)
    assert e != TraceEntry(WSA, [(1,)], [False], (16,), 4)
    assert e != TraceEntry(WSA, [(1,)], [False], (8,), 2)


def test_trace_queries():
    t = SelectionTrace(
        1,
        [
            TraceEntry(TOKEN, [(1,)], [False], (64,), 4),
            TraceEntry(WSA, [(2,)], [True], (16,), 4),
            TraceEntry(MERGE, [(0,)], [False], (16,), 2),
        ],
    )
    assert len(t.entries) == 3
    assert [e.kind for e in t] == [TOKEN, WSA, MERGE]
    assert t.of_kind(WSA) == [TraceEntry(WSA, [(2,)], [True], (16,), 4)]
    assert t.tied.tolist() == [True]
    assert t.any_tied is True
    one = SelectionTrace(1, [TraceEntry(WSA, [(2,)], [True], (16,), 4)])
    assert one == SelectionTrace(1, t.of_kind(WSA))


def test_trace_samples_and_tie_flags():
    t = SelectionTrace(
        3,
        [
            TraceEntry(TOKEN, [(0, 1), (1, 0), (1, 1)], [False, True, False], (8, 8), 2),
            TraceEntry(MERGE, [(1, 1), (0, 1), (0, 0)], [False, False, True], (4, 4), 2),
        ],
    )
    assert t.tied.tolist() == [False, True, True]
    one = SelectionTrace(
        1,
        [
            TraceEntry(TOKEN, [(1, 0)], [True], (8, 8), 2),
            TraceEntry(MERGE, [(0, 1)], [False], (4, 4), 2),
        ],
    )
    assert t.rows(1, 2) == one
    assert t.rows(0, 1) != one


def test_empty_trace():
    t = SelectionTrace(4)
    assert len(t.entries) == 0
    assert t.tied.tolist() == [False] * 4
    assert not t.any_tied
    assert SelectionTrace().size == 1
