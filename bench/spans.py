"""Span tracing around the package's public functions, and the per-layer figures.

The tracer wraps each traced function and rebinds every reference to it
held in an `eqvit` module (module globals and module-level dicts such as the
harness's suite table), so calls between the package's own modules are seen
too.  Each call records one span: name, start, end, parent span and op id.
Spans stay in memory, in flat integer arrays, and are written out once at
the end of the run.  `TokenMatrix` constructions are traced as spans of
their own so that they can be counted where they happen.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# Traced functions per module of src/eqvit.  `trace` and `errors` do no
# measurable work and are not traced.
TARGETS = {
    "numerics": ("project_rows",),
    "tokenizer": ("a_token",),
    "attention": ("a_wsa", "wsa", "window_energy", "sa", "position_bias"),
    "merging": ("a_pmerge", "pmerge_conv_fullrate", "aps", "unpool"),
    "pipeline": ("classify", "encode_decode"),
    "metrics": ("c_cons", "mascc", "s_cons_zeropad"),
    "harness": tuple(
        f"run_{s}"
        for s in ("lemma1", "claim1", "claim2", "claim3", "apmerge", "end2end", "metrics", "ablation")
    ),
    "cli": ("main",),
}
TOKEN_MATRIX = "tokenizer.TokenMatrix"
FORWARDS = ("pipeline.classify", "pipeline.encode_decode")

# Per-layer metrics reported by a traced run, in BENCHMARK.json order.
# Model-layer times are microseconds per forward call (classify or
# encode_decode), counting only the time spent inside forward calls.
TIME_PER_FORWARD = (
    "tokenizer.a_token",
    "attention.a_wsa",
    "attention.window_energy",
    "attention.wsa",
    "attention.sa",
    "attention.position_bias",
    "merging.a_pmerge",
    "merging.pmerge_conv_fullrate",
    "merging.aps",
    "merging.unpool",
    "numerics.project_rows",
)
COUNT_PER_FORWARD = {
    "tokenizer.TokenMatrix.per_forward": TOKEN_MATRIX,
    "attention.sa.calls_per_forward": "attention.sa",
    "numerics.project_rows.calls_per_forward": "numerics.project_rows",
}
PER_LAYER = (
    *(f"{name}.us" for name in TIME_PER_FORWARD),
    *COUNT_PER_FORWARD,
    "pipeline.classify.us",
    "pipeline.encode_decode.us",
    "pipeline.classify.self_us",
    "pipeline.encode_decode.self_us",
    "harness.end2end.forwards_per_trial",
    "harness.metrics.forwards_per_trial",
    "harness.forwards_per_verify",
)
PER_LAYER_UNITS = {name: "us" if name.endswith("us") else "count" for name in PER_LAYER}


class Tracer:
    """Records spans for the functions it wraps while `enabled` is set."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ix = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = 0
        self.enabled = False
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        k = len(self.names)
        self.names.append(name)
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            i = len(self.start)
            self.name_ix.append(k)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.start.append(0)
            self.end.append(0)
            stack.append(i)
            self.start[i] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every target, rebinding each reference inside the package."""
        modules = [m for n, m in sys.modules.items() if n == "eqvit" or n.startswith("eqvit.")]
        for mod_name, fn_names in TARGETS.items():
            module = sys.modules[f"eqvit.{mod_name}"]
            for fn_name in fn_names:
                original = getattr(module, fn_name)
                wrapped = self._wrap(f"{mod_name}.{fn_name}", original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._rebind(m, key, wrapped)
                        elif isinstance(value, dict):
                            for dkey, dvalue in list(value.items()):
                                if dvalue is original:
                                    self._rebind(value, dkey, wrapped)
        token_matrix = sys.modules["eqvit.tokenizer"].TokenMatrix
        self._rebind(
            token_matrix, "__post_init__", self._wrap(TOKEN_MATRIX, token_matrix.__post_init__)
        )

    def _rebind(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._restore.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._restore.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_ix, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
        }

    def write(self, path: Path) -> None:
        """Write every span and the name table to one .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _nearest(names: np.ndarray, parent: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Per span, the index of the nearest ancestor-or-self with a wanted name."""
    out = np.full(len(names), -1, dtype=np.int64)
    # Parents are recorded before their children, so one pass in order works.
    for i in range(len(names)):
        if wanted[names[i]]:
            out[i] = i
        elif parent[i] >= 0:
            out[i] = out[parent[i]]
    return out


def layer_figures(
    tracer: Tracer, verifies: int, suite_trials: dict[str, int]
) -> tuple[dict, dict]:
    """(per-layer metrics, verify-only figures) from the recorded spans.

    `verifies` is the number of traced verifications (0 on the forward
    workloads) and `suite_trials` maps each harness suite to the trial count
    its report gives.
    """
    a = tracer.arrays()
    index = {n: i for i, n in enumerate(tracer.names)}
    names, parent = a["name"], a["parent"]
    dur = (a["end"] - a["start"]).astype(np.float64)
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])

    is_forward = np.zeros(len(tracer.names), dtype=bool)
    is_forward[[index[f] for f in FORWARDS]] = True
    in_forward = _nearest(names, parent, is_forward) >= 0
    forwards = is_forward[names]
    n_forwards = int(forwards.sum())

    def per_forward(total: float) -> float:
        return total / n_forwards if n_forwards else 0.0

    metrics = {}
    for name in TIME_PER_FORWARD:
        sel = (names == index[name]) & in_forward
        metrics[f"{name}.us"] = per_forward(float(dur[sel].sum())) / 1e3
    for metric, name in COUNT_PER_FORWARD.items():
        metrics[metric] = per_forward(float(np.count_nonzero((names == index[name]) & in_forward)))
    for name in FORWARDS:
        sel = names == index[name]
        calls = int(sel.sum())
        metrics[f"{name}.us"] = float(dur[sel].sum()) / calls / 1e3 if calls else 0.0
        self_ns = dur[sel] - child[sel]
        metrics[f"{name}.self_us"] = float(self_ns.sum()) / calls / 1e3 if calls else 0.0

    is_suite = np.zeros(len(tracer.names), dtype=bool)
    suite_names = [n for n in tracer.names if n.startswith("harness.run_")]
    is_suite[[index[n] for n in suite_names]] = True
    suite_of = _nearest(names, parent, is_suite)
    for suite in ("end2end", "metrics"):
        spans = np.flatnonzero(names == index[f"harness.run_{suite}"])
        n_fwd = np.count_nonzero(forwards & np.isin(suite_of, spans))
        trials = suite_trials.get(suite, 0) * len(spans)
        metrics[f"harness.{suite}.forwards_per_trial"] = n_fwd / trials if trials else 0.0
    metrics["harness.forwards_per_verify"] = n_forwards / verifies if verifies else 0.0

    verify_only = {}
    if verifies:
        for name in suite_names:
            sel = names == index[name]
            verify_only[f"harness.{name[len('harness.run_'):]}.s"] = float(dur[sel].sum()) / verifies / 1e9
        for fn in TARGETS["metrics"]:
            sel = names == index[f"metrics.{fn}"]
            verify_only[f"metrics.{fn}.s"] = float(dur[sel].sum()) / verifies / 1e9
        sel = names == index["cli.main"]
        verify_only["cli.main.self_s"] = float((dur[sel] - child[sel]).sum()) / verifies / 1e9
    return metrics, verify_only
