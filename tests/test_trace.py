"""Selection-trace bookkeeping: entry validation, queries, per-sample views."""

import numpy as np
import pytest

from eqvit.trace import MERGE, TOKEN, WSA, SelectionTrace, TraceEntry


def test_entry_normalizes_offsets():
    e = TraceEntry(TOKEN, [[1, 2]], [1])
    assert e.offsets.dtype == np.int64 and e.offsets.tolist() == [[1, 2]]
    assert e.tied.dtype == bool and e.tied.tolist() == [True]


def test_entry_rejects_unknown_kind():
    with pytest.raises(ValueError):
        TraceEntry("pool", [(0,)], [False])


def test_trace_queries():
    t = SelectionTrace.single(TOKEN, [(1,)], [False])
    t.extend(SelectionTrace.single(WSA, [(2,)], [True]))
    t.extend(SelectionTrace.single(MERGE, [(0,)], [False]))
    assert len(t) == 3
    assert [e.kind for e in t] == [TOKEN, WSA, MERGE]
    assert t.of_kind(WSA) == [TraceEntry(WSA, [(2,)], [True])]
    assert t.tied.tolist() == [True]
    assert t.any_tied is True


def test_trace_samples_and_tie_flags():
    t = SelectionTrace.single(TOKEN, [(0, 1), (1, 0), (1, 1)], [False, True, False])
    t.extend(SelectionTrace.single(MERGE, [(1, 1), (0, 1), (0, 0)], [False, False, True]))
    assert t.size == 3
    assert t.tied.tolist() == [False, True, True]
    one = SelectionTrace.single(TOKEN, [(1, 0)], [True])
    one.extend(SelectionTrace.single(MERGE, [(0, 1)], [False]))
    assert t.sample(1) == one
    assert t.sample(0) != one


def test_empty_trace():
    t = SelectionTrace(4)
    assert len(t) == 0
    assert t.tied.tolist() == [False] * 4
    assert not t.any_tied
    assert SelectionTrace().size == 1
