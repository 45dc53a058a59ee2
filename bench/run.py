"""Benchmark of the eqvit package: verification wall time and forward latency.

    python3 bench/run.py --workload forward-1d --seed 1 --seconds 30 --trace 0

Run it from anywhere; it imports the package from `src/` next to the
`bench/` directory that holds this file, and from nowhere else.  Each run is
one process with a single caller in a closed loop: the next op starts when
the previous one returned.  Workloads:

  verify      one op is one default `eqvit run` (all 8 suites, default
              trials, default 1-D model, harness seed --seed), done
              in-process through the CLI, one suite per call, with reports
              written to a temp dir
  forward-1d  one op is a group of 4 circular shifts of one input, each
              shift run through `classify` and then `encode_decode`, on the
              default 1-D model
  forward-2d  the same stream on the default model at input_shape (32, 32)

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 a separate traced run gives the per-layer metrics.  The line
before it is a JSON object of run metadata and unbounded figures.  See
README.md for what each figure means and why times are scaled by a
calibration kernel.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before NumPy loads: the bundled OpenBLAS would
# otherwise start one thread per core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from checks import ShiftResult, check_group, check_report
from spans import PER_LAYER_UNITS, Tracer, layer_figures

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("verify", "forward-1d", "forward-2d")
FORWARD_SHAPES = {"forward-1d": (64,), "forward-2d": (32, 32)}
SHIFTS_PER_GROUP = 4
POOL_GROUPS = 48
SETUP_REPEATS = 15
END_TO_END_UNITS = {"setup_s": "s", "latency_ms": "ms", "peak_rss_mb": "MB"}


def import_package():
    """Import eqvit from this checkout's src/, refusing any other copy."""
    package = SRC / "eqvit"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no eqvit package at {package}")
    sys.path.insert(0, str(SRC))
    import eqvit
    import eqvit.cli

    if Path(eqvit.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported eqvit from {eqvit.__file__}, not {package}")
    return eqvit


# ------------------------------------------------------------------ inputs --


def _base_input(rng: np.random.Generator, kind: int, shape, channels: int) -> np.ndarray:
    """Noise, a ramp with per-axis and per-channel slopes, or one impulse."""
    if kind == 0:
        return rng.uniform(-1.0, 1.0, size=(*shape, channels))
    if kind == 1:
        ramp = np.zeros((*shape, channels))
        for axis, n in enumerate(shape):
            along = np.linspace(0.0, 1.0, n).reshape([-1 if a == axis else 1 for a in range(len(shape))])
            ramp += along[..., None] * rng.uniform(0.5, 2.0, size=channels)
        return ramp
    data = np.zeros((*shape, channels))
    pos = tuple(int(rng.integers(0, n)) for n in shape)
    data[(*pos, int(rng.integers(0, channels)))] = rng.uniform(2.0, 4.0)
    return data


def make_pool(eqvit, seed: int, shape, channels: int):
    """POOL_GROUPS groups of SHIFTS_PER_GROUP (shift, signal) pairs.

    Impulses (every third group) score all alignments equally, which keeps
    the exact-tie path of every selection live.
    """
    rng = np.random.default_rng(seed)
    axes = tuple(range(len(shape)))
    pool = []
    for g in range(POOL_GROUPS):
        base = _base_input(rng, g % 3, shape, channels)
        group = []
        for _ in range(SHIFTS_PER_GROUP):
            shift = tuple(int(rng.integers(0, n)) for n in shape)
            shifted = np.roll(base, [-s for s in shift], axis=axes)  # out[n] = base[n + s]
            group.append((shift, eqvit.GridSignal(shifted)))
        pool.append(group)
    return pool


# -------------------------------------------------------------- statistics --


def low_tail(durations) -> float:
    """1st percentile: the cost of the code when the machine is least
    disturbed.  With under 100 samples it lies between the two fastest."""
    return float(np.percentile(np.asarray(durations, dtype=np.float64), 1))


class Calibration:
    """A fixed NumPy kernel timed between ops to gauge the machine's speed.

    The kernel mixes what the package spends its time on (small-array
    rolls, einsum contractions, sorts and norms, and the Python calls around
    them) and never changes, so an op's time divided by the kernel's, taken
    at the same moments, is the op's cost in units that do not depend on
    how busy the host is.  REFERENCE_NS, the kernel's low tail on the
    machine the benchmark was written on, turns that ratio back into time.
    """

    REFERENCE_NS = 60_000.0

    def __init__(self):
        rng = np.random.default_rng(0)
        self.rows = rng.uniform(-1.0, 1.0, size=(16, 8))
        self.proj = rng.uniform(-0.5, 0.5, size=(8, 8))
        self.ns: list[float] = []

    def _kernel(self) -> None:
        rows = self.rows
        for _ in range(4):
            rows = np.roll(rows, 1, axis=0)
            out = np.einsum("mk,kd->md", rows, self.proj)
            np.sort(np.sqrt(np.einsum("md,md->m", out, out)))

    def sample(self, n: int, reps: int = 1) -> list[float]:
        """Time n blocks of `reps` kernels; return ns per kernel per block."""
        clock = time.perf_counter_ns
        out = []
        for _ in range(n):
            t0 = clock()
            for _ in range(reps):
                self._kernel()
            out.append((clock() - t0) / reps)
        self.ns.extend(out)
        return out

    def scale(self) -> float:
        """Factor from this run's quiet machine speed to the reference."""
        return self.REFERENCE_NS / low_tail(self.ns)


# --------------------------------------------------------------- workloads --


class ForwardStream:
    """Closed-loop stream of shift groups through both model heads."""

    def __init__(self, eqvit, workload: str, seed: int, cal: Calibration | None = None):
        self.cal = cal
        cfg = eqvit.ModelConfig(input_shape=FORWARD_SHAPES[workload])
        self.model = eqvit.build_model(cfg)
        self.pool = make_pool(eqvit, seed, cfg.input_shape, cfg.channels)
        self.digests: list[bytes | None] = [None] * len(self.pool)
        self.next_group = 0
        self.attempted = self.failed = self.tied = 0
        self.classify_ns: list[int] = []
        self.decode_ns: list[int] = []
        for _, x in self.pool[0][:2]:
            self.model.classify(x)
            self.model.encode_decode(x)

    def step(self) -> bool:
        """Run and check the next group; True, as every group is a whole op."""
        clock = time.perf_counter_ns
        slot = self.next_group % len(self.pool)
        self.next_group += 1
        results = []
        digest = hashlib.blake2b()
        for shift, x in self.pool[slot]:
            t0 = clock()
            logits, label, trace = self.model.classify(x)
            t1 = clock()
            decoded, dtrace = self.model.encode_decode(x)
            t2 = clock()
            self.classify_ns.append(t1 - t0)
            self.decode_ns.append(t2 - t1)
            results.append(ShiftResult(shift, logits, label, decoded, trace.any_tied or dtrace.any_tied))
            digest.update(np.ascontiguousarray(logits).tobytes())
            digest.update(np.ascontiguousarray(decoded).tobytes())
        self.attempted += 1
        status = check_group(results)
        self.tied += status == "tied"
        # Every pass over the pool must reproduce the first pass bit for bit.
        first = self.digests[slot]
        if first is None:
            self.digests[slot] = digest.digest()
        if status == "fail" or (first is not None and first != digest.digest()):
            self.failed += 1
        if self.cal is not None:
            self.cal.sample(8)
        return True

    def op_ns(self) -> np.ndarray:
        """Per shift: classify plus encode_decode."""
        return np.asarray(self.classify_ns) + np.asarray(self.decode_ns)

    def latency_ns(self) -> float:
        """Low tail of one shift, at the reference speed.

        A shift takes about as long as 30 kernels, short enough that
        thousands of samples hold quiet moments for both, so their low tails
        compare like with like.
        """
        return low_tail(self.op_ns()) * self.cal.scale()

    def info(self, seconds: float) -> dict:
        c = np.asarray(self.classify_ns) / 1e3
        e = np.asarray(self.decode_ns) / 1e3
        return {
            "classify_us_p50": float(np.percentile(c, 50)),
            "classify_us_p99": float(np.percentile(c, 99)),
            "encode_decode_us_p50": float(np.percentile(e, 50)),
            "encode_decode_us_p99": float(np.percentile(e, 99)),
            "calls_per_head": len(c),
            "shift_ms_p1_unscaled": low_tail(self.op_ns()) / 1e6,
            "forwards_per_s": 2 * len(c) / seconds,
            "tied_groups": self.tied,
        }


class Verification:
    """The default `eqvit run`, in-process, one suite per call.

    `eqvit run --suite S` for every default suite S does the same work as
    one default run, because each suite's rows depend only on the seed and
    the suite.  Timing the suites apart lets each be scaled by the machine's
    speed at its own moment.
    """

    def __init__(self, eqvit, seed: int, workdir: Path, cal: Calibration | None = None):
        self.cal = cal
        self.cli = eqvit.cli
        self.suites = eqvit.harness.SUITES
        self.argv = {
            s: ["run", "--suite", s, "--seed", str(seed), "--out", str(workdir / f"{s}.json")]
            for s in self.suites
        }
        self.first_report: dict[str, bytes] = {}
        self.reports: dict[str, bytes] = {}
        self.last_reports: dict[str, bytes] = {}
        self.round_ok = True
        self.attempted = self.failed = 0
        self.suite_ns: dict[str, list[int]] = {s: [] for s in self.suites}
        self.suite_cal_ns: dict[str, list[float]] = {s: [] for s in self.suites}
        model = eqvit.build_model(eqvit.ModelConfig())
        rng = np.random.default_rng(seed)
        x = eqvit.GridSignal(rng.uniform(-1.0, 1.0, size=(*model.config.input_shape, model.config.channels)))
        model.classify(x)
        model.encode_decode(x)

    def step(self) -> bool:
        """Run the next suite; True when that completed a verification."""
        s = self.suites[len(self.reports)]
        t0 = time.perf_counter_ns()
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main(self.argv[s])
        t1 = time.perf_counter_ns()
        self.suite_ns[s].append(t1 - t0)
        if self.cal is not None:
            self.suite_cal_ns[s].append(float(np.median(self.cal.sample(30, reps=16))))
        self.reports[s] = Path(self.argv[s][-1]).read_bytes()
        self.round_ok &= check_report(code, self.reports[s], self.first_report.get(s))
        self.first_report.setdefault(s, self.reports[s])
        if len(self.reports) < len(self.suites):
            return False
        self.attempted += 1
        self.failed += not self.round_ok
        self.last_reports, self.reports, self.round_ok = self.reports, {}, True
        return True

    def run_round(self) -> dict[str, bytes]:
        """Run one whole verification; return each suite's report bytes."""
        while not self.step():
            pass
        return self.last_reports

    def round_ns(self) -> np.ndarray:
        return np.sum([self.suite_ns[s] for s in self.suites], axis=0)

    def latency_ns(self) -> float:
        """Sum over suites of each suite's median time at the reference speed.

        A suite runs for 0.1-2 s, too long to find a quiet stretch when the
        host is busy, so each suite time is scaled by the calibration kernel
        as timed (median of 30 one-millisecond blocks) right after it.
        """
        ref = Calibration.REFERENCE_NS
        return sum(
            float(np.median(np.asarray(self.suite_ns[s]) * ref / np.asarray(self.suite_cal_ns[s])))
            for s in self.suites
        )


def time_setups(workload: str, seed: int) -> list[float]:
    """Seconds from process start to ready-for-the-first-op, per child.

    Like a suite, a set-up is too long to find a quiet stretch on a busy
    host, so each is scaled to the reference speed by the calibration
    kernel as timed right after it.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    cal = Calibration()
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            t1 = time.perf_counter()
            child.stdout.read()
            code = child.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            raise SystemExit(f"error: set-up child exited {code} after {line!r}")
        cal.sample(4, reps=16)  # refill the caches the child process evicted
        local = float(np.median(cal.sample(30, reps=16)))
        samples.append((t1 - t0) * Calibration.REFERENCE_NS / local)
    return samples


# ---------------------------------------------------------------- metadata --


def _blas_threads() -> int | None:
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            return int(fn())
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "eqvit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def metadata(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


# -------------------------------------------------------------------- main --


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _workload(args, eqvit, workdir: Path, cal: Calibration | None = None):
    if args.workload == "verify":
        return Verification(eqvit, args.seed, workdir, cal)
    return ForwardStream(eqvit, args.workload, args.seed, cal)


def _timed(args, eqvit, workdir: Path) -> tuple[dict, dict, int, int]:
    """End-to-end run: (metrics, info, attempted, failed)."""
    setups = time_setups(args.workload, args.seed)
    cal = Calibration()
    w = _workload(args, eqvit, workdir, cal)
    t0 = time.perf_counter()
    deadline = t0 + args.seconds
    done = False
    while not done or time.perf_counter() < deadline:
        done = w.step()
    seconds = time.perf_counter() - t0
    scale = cal.scale()
    if isinstance(w, ForwardStream):
        info = w.info(seconds)
    else:
        info = {"verify_s_each": [float(d) / 1e9 for d in w.round_ns()]}
    info.update(
        setup_s_each_scaled=setups,
        calibration_us=low_tail(cal.ns) / 1e3,
        calibration_scale=scale,
    )
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_ms": w.latency_ns() / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, info, w.attempted, w.failed


def _traced(args, eqvit, workdir: Path) -> tuple[dict, dict, int, int]:
    """Traced run: ops alternate untraced and traced, and must agree.

    Alternating keeps both sides in the same stretch of machine time, so
    their difference is the tracing overhead rather than the host's load.
    """
    tracer = Tracer()
    tracer.install()
    try:
        if args.workload == "verify":
            untraced = Verification(eqvit, args.seed, workdir)
            traced = Verification(eqvit, args.seed, workdir)
            tracer.op_id = 1
            for _ in untraced.suites:
                untraced.step()
                tracer.enabled = True
                traced.step()
                tracer.enabled = False
            trials = {s: json.loads(r)["suites"][0]["trials"] for s, r in untraced.last_reports.items()}
            verifies = 1
            same = traced.last_reports == untraced.last_reports
            overhead_ms = (traced.round_ns()[0] - untraced.round_ns()[0]) / 1e6
            attempted = untraced.attempted + traced.attempted
            failed = untraced.failed + traced.failed
        else:
            w = ForwardStream(eqvit, args.workload, args.seed)
            for _ in w.pool:  # the untraced first pass sets every group's digest
                w.step()
            failed_before = w.failed
            ops_ns = {False: [], True: []}
            deadline = time.perf_counter() + args.seconds
            while w.next_group < 3 * len(w.pool) or time.perf_counter() < deadline:
                on = w.next_group % 2 == 0
                tracer.op_id = w.next_group
                tracer.enabled = on
                n = len(w.classify_ns)
                w.step()
                tracer.enabled = False
                ops_ns[on] += [c + d for c, d in zip(w.classify_ns[n:], w.decode_ns[n:])]
            trials, verifies = {}, 0
            # Each group is checked against the digest of its untraced first
            # pass, so any traced/untraced difference counts as failed.
            same = w.failed == failed_before
            overhead_ms = (np.median(ops_ns[True]) - np.median(ops_ns[False])) / 1e6
            attempted, failed = w.attempted, w.failed
    finally:
        tracer.uninstall()
    per_layer, verify_only = layer_figures(tracer, verifies, trials)
    tracer.write(OUT_DIR / f"spans-{args.workload}.npz")
    info = {
        "traced_equals_untraced": same,
        "tracing_overhead_ms_per_op": float(overhead_ms),
        "spans": len(tracer.start),
        **verify_only,
    }
    return per_layer, info, attempted, failed + (not same)


def main(argv=None) -> int:
    args = _parse(argv)
    eqvit = import_package()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-") as tmp:
        if args.setup_only:
            _workload(args, eqvit, Path(tmp))
            print("ready", flush=True)
            return 0
        run = _traced if args.trace else _timed
        values, info, attempted, failed = run(args, eqvit, Path(tmp))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    meta = metadata(args)
    meta.update(info, attempted=attempted, failed=failed, failed_ratio=failed / attempted)
    print(json.dumps(meta, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
