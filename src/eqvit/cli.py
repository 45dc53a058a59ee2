"""Command line entry points: run, prove, replay.

  eqvit run    --suite claim1 --suite end2end --seed 7 --out report.json
  eqvit prove  --suite lemma1 --n 8 --l 2
  eqvit replay report.replay.json

`run` executes the selected verification suites against the configured
model and writes a JSON report plus a replay file (the first counterexample,
or a sentinel that says whether the run passed).  `prove` is `run` restricted
to the exhaustive/oracle suites with size knobs.  `replay` re-executes a
recorded counterexample.  Exit codes: 0 all assertions passed, 1 a property failed
(or a replayed counterexample still reproduces), 2 bad configuration, 3
standard output closed before every line was printed (as by `| head -1`).

The model seed may also come from the environment variable EQVIT_SEED; an
explicit --seed wins over it.  No other setting has an environment override.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from pathlib import Path

from .errors import ConfigError
from .harness import (
    PROOF_SUITES,
    SUITES,
    SuiteConfig,
    replay as replay_document,
    run_suites,
    sentinel,
)
from .pipeline import SWITCHES, ModelConfig

ENV_SEED = "EQVIT_SEED"

# The exit code of a command whose standard output closed early; the files a
# run writes are written all the same.
STDOUT_CLOSED = 3


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _load_model_config(path: str | None) -> ModelConfig:
    if path is None:
        return ModelConfig()
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read model config {path}: {err}") from err
    return ModelConfig.from_dict(raw)


def _resolve_seed(flag_seed: int | None, model: ModelConfig) -> int:
    if flag_seed is not None:
        return flag_seed
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError as err:
            raise ConfigError(f"{ENV_SEED}={env!r} is not an integer") from err
    return model.seed


def _replay_path(out: Path, kind: str = "replay") -> Path:
    return out.with_name(f"{out.stem}.{kind}.json")


def _check_writable(out: Path) -> None:
    """Reject a report path whose files cannot be written, before any suite runs."""
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create the directory of {out}: {err}") from err
    for path in (out, _replay_path(out), _replay_path(out, "ablation.replay")):
        if path.is_dir() or not os.access(path if path.exists() else path.parent, os.W_OK):
            raise ConfigError(f"cannot write {path}: it is a directory or is not writable")


def _emit(lines: list[str], code: int) -> int:
    """Print `lines` and return `code`, or `STDOUT_CLOSED` if standard output
    was closed before they were all written."""
    try:
        print(*lines, sep="\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # Later writes, and the flush at exit, go nowhere instead of raising again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return STDOUT_CLOSED
    return code


def _execute(sc: SuiteConfig, out: Path) -> int:
    _check_writable(out)
    report, results = run_suites(sc)
    lines = [
        f"suite {r.name}: {r.trials} trials, {r.passes} passed, "
        f"{r.failures} failed, max_divergence={r.max_divergence:.3e}, "
        f"ties={r.tie_count}"
        for r in results
    ]
    out.write_text(_dump(report))
    lines.append(f"report written to {out}")

    failing = [r for r in results if r.failures]
    first_cx = next((r.counterexample for r in failing if r.counterexample), None)
    replay_doc = first_cx if first_cx is not None else sentinel(sc, [r.name for r in failing])
    replay_file = _replay_path(out)
    replay_file.write_text(_dump(replay_doc))
    lines.append(f"replay file written to {replay_file}")

    # Found ablation counterexamples are successes, but keep them replayable.
    for r in results:
        if r.name == "ablation" and r.counterexample is not None and not r.failures:
            path = _replay_path(out, "ablation.replay")
            path.write_text(_dump(r.counterexample))
            lines.append(f"ablation counterexample written to {path}")
    # Every file is written before the one output boundary.
    return _emit(lines, 1 if failing else 0)


def _cmd_run(args) -> int:
    """`run` and `prove`; each parser sets what differs (suites, sizes, switches) as defaults."""
    model = _load_model_config(args.config)
    sizes = {key: tuple(v) for key, v in (("lemma_n", args.n), ("lemma_l", args.l)) if v}
    sc = SuiteConfig(
        suites=tuple(args.suite) if args.suite else args.default_suites,
        model=model,
        seed=_resolve_seed(args.seed, model),
        trials=args.trials,
        disable=tuple(args.disable),
        **sizes,
    )
    return _execute(sc, Path(args.out))


def _cmd_replay(args) -> int:
    try:
        doc = json.loads(Path(args.file).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read replay file {args.file}: {err}") from err
    code, line = replay_document(doc)
    return _emit([line], code)


@cache
def _parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once: each `parse_args` starts from fresh defaults."""
    parser = argparse.ArgumentParser(
        prog="eqvit", description="shift-equivariance verification harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run verification suites and write a report")
    prove = sub.add_parser("prove", help="run the exhaustive oracle suites")
    for p, suites, kind in ((run, SUITES, "suite"), (prove, PROOF_SUITES, "oracle suite")):
        p.add_argument("--config", help="model config JSON path", default=None)
        p.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
        p.add_argument("--trials", type=int, default=None, help="trial count per suite")
        p.add_argument("--out", default="report.json", help="report path")
        p.add_argument(
            "--suite",
            action="append",
            choices=suites,
            default=None,
            help=f"{kind} to run (repeatable)",
        )
        p.set_defaults(default_suites=suites)
    run.add_argument(
        "--disable",
        action="append",
        choices=SWITCHES,
        default=[],
        help="adaptive switch to turn off (repeatable)",
    )
    prove.add_argument("--n", action="append", type=int, help="signal length for lemma1")
    prove.add_argument("--l", action="append", type=int, help="patch length for lemma1")
    run.set_defaults(n=None, l=None)
    prove.set_defaults(disable=())

    rep = sub.add_parser("replay", help="re-execute a recorded counterexample")
    rep.add_argument("file", help="replay JSON written by run/prove")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {"run": _cmd_run, "prove": _cmd_run, "replay": _cmd_replay}
    try:
        return handlers[args.command](args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
