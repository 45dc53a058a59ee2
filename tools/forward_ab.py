"""Same-process A/B of one-sample forwards in two checkouts: bits, then time.

    python3 tools/forward_ab.py PARENT_DIR [CHANGE_DIR] [--rounds 40] [--calls 200] [--ops]

PARENT_DIR and CHANGE_DIR are checkouts of this repository; CHANGE_DIR
defaults to the one holding this file.  Each one's `src/eqvit` is imported
under a module name of its own (`eqvit_parent`, `eqvit_change`), so both
run in one warm interpreter and host load falls on both alike.

First it checks that both give the same logits, labels, decoded maps, trace
offsets and tie flags, bit for bit: it prints each one's digest of the
forward grid of `tools/forward_digest.py` (`digest`), and differing
digests exit 1.

Then, per model, it times alternating rounds: a round runs `--calls`
shifted inputs, each through `classify` and then `encode_decode` (one
shift, as the benchmark's forward workloads make it), on one side and then
on the other, the side that goes first alternating per round.  It prints,
per side, the minimum and the 10th percentile over rounds of the mean time
of one shift, and the number of rounds in which the change was faster.
Beside the times it prints each side's Python frames in its own package
files per warm one-sample `classify` and `encode_decode`, the count
tests/test_pipeline.py's FRAME_BUDGET bounds.  A missing package exits 2.

With `--ops`, per model it then runs as many rounds again, alternating the
same way, with each model-layer op the benchmark traces wrapped in a timer
the way the benchmark's tracer wraps it (every reference to it in the
package's modules), and prints per op and side the minimum over rounds of
its microseconds per one-sample forward (`classify` or `encode_decode`),
nested ops counted inside their callers too, and the number of rounds in
which the change was faster.  The wrappers cost time of their own, so they
are installed for these rounds only and never enter the per-shift figures.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before NumPy loads, as the benchmark does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib.util
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from forward_digest import digest

HERE = Path(__file__).resolve().parent.parent
SHAPES = ((64,), (32, 32))
SIDES = ("parent", "change")
# The model-layer ops the benchmark traces (bench/spans.py), as module.function;
# merging.unpool is left out, as no forward calls it.
OPS = (
    "tokenizer.a_token",
    "attention.a_wsa",
    "attention.window_energy",
    "attention.wsa",
    "attention.sa",
    "attention.position_bias",
    "merging.a_pmerge",
    "merging.pmerge_conv_fullrate",
    "merging.aps",
    "numerics.project_rows",
)


def load(checkout: Path, name: str):
    """`checkout`'s src/eqvit, imported as package `name`."""
    package = checkout / "src" / "eqvit"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def signals(shape: tuple[int, ...], channels: int, count: int) -> list[np.ndarray]:
    """A random input, `count` - 1 circular shifts of it, all fixed by the shape."""
    rng = np.random.default_rng(sum(shape))
    base = rng.uniform(-1, 1, (*shape, channels))
    axes = tuple(range(len(shape)))
    shifts = [tuple(int(rng.integers(0, n)) for n in shape) for _ in range(count - 1)]
    return [base] + [np.roll(base, [-s for s in shift], axis=axes) for shift in shifts]


def frames(package, fn, *args) -> int:
    """Python frames `fn(*args)` runs in `package`'s own source files."""
    root = str(Path(package.__file__).parent) + os.sep
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename.startswith(root):
            count += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return count


def timed(fn, op: str, totals: Counter):
    """`fn`, adding the nanoseconds of each call to totals[op]."""

    def wrapper(*args, **kwargs):
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[op] += time.perf_counter_ns() - start

    return wrapper


def wrap_ops(package, totals: Counter) -> list:
    """Time every op of OPS in `package`: each reference to it in the
    package's modules is rebound to its `timed` wrapper.  Returns what
    `unwrap` puts back."""
    prefix = package.__name__ + "."
    modules = [m for name, m in sys.modules.items() if name.startswith(prefix)]
    undo = []
    for op in OPS:
        module_name, name = op.split(".")
        original = getattr(sys.modules[prefix + module_name], name)
        wrapper = timed(original, op, totals)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    undo.append((m, key, value))
                    setattr(m, key, wrapper)
    return undo


def unwrap(undo: list) -> None:
    for m, key, value in reversed(undo):
        setattr(m, key, value)


def one_round(pipeline, model, xs) -> float:
    """Mean seconds of one shift, classify then encode_decode, over `xs`."""
    start = time.perf_counter()
    for x in xs:
        pipeline.classify(model, x)
        pipeline.encode_decode(model, x)
    return (time.perf_counter() - start) / len(xs)


def time_rounds(packages: dict, models: dict, shape, rounds: int, calls: int, ops: bool):
    """(us per shift per round, (classify, encode_decode) frames, and with
    `ops` each op's us per forward per round, else None), per side."""
    arrays = signals(shape, models["parent", shape].config.channels, 16)
    pipelines = {s: packages[s].pipeline for s in SIDES}
    xs = {s: [pipelines[s].GridSignal(arrays[k % 16]) for k in range(calls)] for s in SIDES}
    for s in SIDES:  # warm: layouts, bias tables, caches
        one_round(pipelines[s], models[s, shape], xs[s][:16])
    counts = {}
    for s in SIDES:
        heads = (pipelines[s].classify, pipelines[s].encode_decode)
        counts[s] = tuple(frames(packages[s], f, models[s, shape], xs[s][0]) for f in heads)
    per_shift = {s: [] for s in SIDES}
    for r in range(rounds):
        for s in SIDES if r % 2 == 0 else SIDES[::-1]:
            per_shift[s].append(one_round(pipelines[s], models[s, shape], xs[s]))
    per_shift = {s: np.asarray(v) * 1e6 for s, v in per_shift.items()}
    if not ops:
        return per_shift, counts, None
    totals = {s: Counter() for s in SIDES}
    per_op = {s: {op: [] for op in OPS} for s in SIDES}
    undo = [u for s in SIDES for u in wrap_ops(packages[s], totals[s])]
    try:
        for r in range(rounds):
            for s in SIDES if r % 2 == 0 else SIDES[::-1]:
                totals[s].clear()
                one_round(pipelines[s], models[s, shape], xs[s])
                for op in OPS:  # two forwards per shift
                    per_op[s][op].append(totals[s][op] / (2 * calls) / 1e3)
    finally:
        unwrap(undo)
    return per_shift, counts, {s: {op: np.asarray(v) for op, v in per_op[s].items()} for s in SIDES}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path, nargs="?", default=HERE)
    ap.add_argument("--rounds", type=int, default=40)
    ap.add_argument("--calls", type=int, default=200)
    ap.add_argument("--ops", action="store_true", help="also time each traced op")
    args = ap.parse_args(argv)
    if args.rounds < 1 or args.calls < 1:
        ap.error("--rounds and --calls must be at least 1")
    paths = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for path in paths.values():
        if not (path / "src" / "eqvit" / "__init__.py").is_file():
            ap.error(f"no eqvit package at {path / 'src' / 'eqvit'}")
    packages = {s: load(paths[s], f"eqvit_{s}") for s in SIDES}
    models = {
        (s, shape): p.build_model(p.ModelConfig(input_shape=shape))
        for s, p in packages.items()
        for shape in SHAPES
    }
    digests = {s: digest(packages[s]) for s in SIDES}
    for s, (sha, calls) in digests.items():
        print(f"{s}: {paths[s]}\n  {sha}  {calls} forward calls")
    if digests["parent"] != digests["change"]:
        print("DIFFERENT outputs: the digests differ")
        return 1
    print(
        f"us per shift (classify + encode_decode), {args.rounds} rounds of {args.calls}; "
        "package frames per one-sample (classify, encode_decode)"
    )
    for shape in SHAPES:
        t, counts, per_op = time_rounds(packages, models, shape, args.rounds, args.calls, args.ops)
        wins = int((t["change"] < t["parent"]).sum())
        low = {s: (t[s].min(), np.percentile(t[s], 10)) for s in SIDES}
        ratio = low["change"][0] / low["parent"][0] - 1
        print(
            f"{shape}: min {low['parent'][0]:.1f} -> {low['change'][0]:.1f} ({ratio:+.1%}), "
            f"p10 {low['parent'][1]:.1f} -> {low['change'][1]:.1f}, "
            f"change faster in {wins} of {args.rounds} rounds; "
            f"frames {counts['parent']} -> {counts['change']}"
        )
        for op in OPS if per_op else ():
            parent, change = per_op["parent"][op], per_op["change"][op]
            ratio = change.min() / parent.min() - 1 if parent.min() else 0.0
            print(
                f"  {op:30} {parent.min():7.2f} -> {change.min():7.2f} us per forward "
                f"({ratio:+.1%}), change faster in {int((change < parent).sum())} of {args.rounds}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
