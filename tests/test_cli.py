"""CLI behavior: exit codes, report/replay files, seed resolution."""

import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eqvit
from eqvit import cli
from eqvit.cli import ENV_SEED, main
from eqvit.harness import PROOF_SUITES, PROPERTIES, SUITES, SuiteConfig, _counterexample, sentinel
from eqvit.numerics import MAX_NORM_ORDER
from eqvit.pipeline import ModelConfig
from trials import counterexample_of, first_payload


def run_cli(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main(["run", "--out", str(out), *argv])
    return code, out


def test_small_run_exits_zero_and_writes_report(tmp_path, capsys):
    code, out = run_cli(tmp_path, "--suite", "claim1", "--trials", "5")
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("suite claim1: 5 trials, 5 passed, 0 failed")
    assert f"report written to {out}" in lines
    report = json.loads(out.read_text())
    assert report["suite_config"]["trials"] == 5
    assert report["suites"][0]["failures"] == 0

    replay_file = tmp_path / "report.replay.json"
    assert json.loads(replay_file.read_text())["kind"] == "sentinel"


def test_reports_are_byte_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["--suite", "claim2", "--suite", "end2end", "--trials", "10", "--seed", "3"]
    assert main(["run", "--out", str(a), *args]) == 0
    assert main(["run", "--out", str(b), *args]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_a_reused_parser_keeps_no_flags_between_calls(tmp_path, monkeypatch):
    configs = []
    monkeypatch.setattr(cli, "_execute", lambda sc, out: configs.append(sc) or 0)
    for argv in (
        ["--disable", "a_token", "--suite", "claim1", "--suite", "end2end"],
        [],
        ["--disable", "a_wsa"],
        ["--suite", "claim2"],
    ):
        assert main(["run", "--out", str(tmp_path / "r.json"), *argv]) == 0
    assert main(["prove", "--suite", "lemma1", "--n", "8", "--out", str(tmp_path / "p.json")]) == 0
    assert main(["prove", "--out", str(tmp_path / "p.json")]) == 0
    assert [(sc.disable, sc.suites, sc.lemma_n) for sc in configs] == [
        (("a_token",), ("claim1", "end2end"), (4, 6, 8, 12)),
        ((), SUITES, (4, 6, 8, 12)),
        (("a_wsa",), SUITES, (4, 6, 8, 12)),
        ((), ("claim2",), (4, 6, 8, 12)),
        ((), ("lemma1",), (8,)),
        ((), PROOF_SUITES, (4, 6, 8, 12)),
    ]
    assert cli._parser() is cli._parser()


def test_failing_run_exits_one_and_replays(tmp_path, capsys):
    code, out = run_cli(
        tmp_path, "--suite", "end2end", "--disable", "a_token", "--trials", "20"
    )
    assert code == 1
    assert "11 failed" in capsys.readouterr().out

    replay_file = tmp_path / "report.replay.json"
    doc = json.loads(replay_file.read_text())
    assert doc["kind"] == "counterexample" and doc["suite"] == "end2end"

    assert main(["replay", str(replay_file)]) == 1
    line = capsys.readouterr().out
    assert "reproduced divergence" in line
    drift = float(re.search(r"drift (\S+),", line).group(1))
    assert drift == 0.0


def test_failing_metrics_run_writes_a_counterexample_that_replays(tmp_path, capsys):
    # The metrics suite asserts each untied pair, as end2end does, with a switch off too.
    code, out = run_cli(tmp_path, "--suite", "metrics", "--disable", "a_token", "--seed", "3")
    assert code == 1
    assert "111 failed" in capsys.readouterr().out
    replay_file = tmp_path / "report.replay.json"
    doc = json.loads(replay_file.read_text())
    assert doc["kind"] == "counterexample" and doc["suite"] == "metrics"
    assert main(["replay", str(replay_file)]) == 1
    line = capsys.readouterr().out
    assert "metrics: reproduced divergence" in line
    assert float(re.search(r"drift (\S+),", line).group(1)) == 0.0


def test_a_run_failing_without_a_counterexample_never_replays_as_a_pass(tmp_path, capsys):
    # One ablation trial finds no counterexample with a_token off: the run
    # fails, and its sentinel says so.
    code, out = run_cli(
        tmp_path, "--suite", "ablation", "--disable", "a_token", "--trials", "1", "--seed", "1"
    )
    assert code == 1
    replay_file = tmp_path / "report.replay.json"
    doc = json.loads(replay_file.read_text())
    assert doc == {"kind": "sentinel", "status": "fail", "suites": ["ablation"]}
    capsys.readouterr()
    assert main(["replay", str(replay_file)]) == 1
    assert "nothing to re-execute" in capsys.readouterr().out


def test_replay_sentinel_exits_zero(tmp_path, capsys):
    run_cli(tmp_path, "--suite", "claim3", "--trials", "3")
    capsys.readouterr()
    assert main(["replay", str(tmp_path / "report.replay.json")]) == 0
    assert "nothing to reproduce" in capsys.readouterr().out


@pytest.mark.parametrize(
    "doc",
    [{"kind": "sentinel", "status": "fail"}, {"kind": "sentinel", "status": "pass", "suites": 7}],
)
def test_replay_of_a_sentinel_without_its_suites_is_bad_configuration(tmp_path, capsys, doc):
    path = tmp_path / "damaged.replay.json"
    path.write_text(json.dumps(doc))
    assert main(["replay", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: sentinel suites must be")


def test_ablation_counterexample_file_replays(tmp_path, capsys):
    code, out = run_cli(tmp_path, "--suite", "ablation", "--trials", "40")
    assert code == 0
    cx = tmp_path / "report.ablation.replay.json"
    assert cx.exists()
    assert main(["replay", str(cx)]) == 1
    line = capsys.readouterr().out.splitlines()[-1]
    drift = float(re.search(r"drift (\S+),", line).group(1))
    assert drift <= 1e-12


def test_env_seed_and_flag_precedence(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_SEED, "41")
    _, out = run_cli(tmp_path, "--suite", "claim1", "--trials", "2")
    assert json.loads(out.read_text())["suite_config"]["seed"] == 41

    _, out = run_cli(tmp_path, "--suite", "claim1", "--trials", "2", "--seed", "5")
    assert json.loads(out.read_text())["suite_config"]["seed"] == 5


def test_custom_model_config_file(tmp_path):
    cfg = {
        "input_shape": [32],
        "channels": 1,
        "patch_len": 4,
        "depth": 1,
        "windows": [4],
        "merge_factors": [2],
        "embed_dim": 8,
        "num_classes": 4,
        "seed": 2,
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cli(
        tmp_path, "--config", str(path), "--suite", "end2end", "--trials", "10"
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["model_config"]["input_shape"] == [32]
    assert report["model_config"]["seed"] == 2  # config seed, no flag/env


def test_prove_with_size_knobs(tmp_path, capsys):
    out = tmp_path / "proof.json"
    code = main(
        ["prove", "--suite", "lemma1", "--n", "4", "--n", "8", "--l", "2",
         "--trials", "10", "--out", str(out)]
    )
    assert code == 0
    assert "suite lemma1" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["suite_config"]["lemma_n"] == [4, 8]
    assert report["suite_config"]["lemma_l"] == [2]


def test_prove_defaults_to_oracle_suites(tmp_path):
    out = tmp_path / "proof.json"
    assert main(["prove", "--trials", "5", "--out", str(out)]) == 0
    names = [r["name"] for r in json.loads(out.read_text())["suites"]]
    assert names == ["lemma1", "claim1", "claim2", "claim3"]


# -------------------------------------------------------------- exit code 2 --


@pytest.mark.parametrize(
    "sizes",
    [
        ["--n", "8", "--l", "0"],  # a zero patch length divides nothing
        ["--n", "0"],
        ["--n", "-4", "--l", "2"],
        ["--n", "8", "--l", "-2"],
        ["--n", "5", "--l", "2"],  # no pair to run: 0 trials would pass
        ["--n", "1000000000", "--l", "1"],  # a (1e9, 2) input would be 14.9 GiB
    ],
)
def test_prove_rejects_bad_lemma1_sizes(tmp_path, capsys, sizes):
    out = tmp_path / "proof.json"
    assert main(["prove", "--suite", "lemma1", *sizes, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: lemma1") and "Traceback" not in err
    assert not out.exists()


def test_prove_rejects_a_lemma1_batch_past_the_bound(tmp_path, capsys):
    # The (n, 2) input holds exactly MAX_ELEMENTS entries and passes on its
    # own; the batch of it that lemma1 projects would not fit.
    out = tmp_path / "proof.json"
    args = ["prove", "--suite", "lemma1", "--n", "2097152", "--l", "1", "--out", str(out)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: lemma1 projected side") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_energy_p_is_a_config_error(tmp_path, capsys, value):
    # Python's json reads all four; NaN failed every end2end trial and Infinity
    # tied every one, so neither may reach a run.
    bad = tmp_path / "bad.json"
    bad.write_text('{"energy_p": %s}' % value)
    code, out = run_cli(tmp_path, "--config", str(bad), "--suite", "end2end", "--trials", "5")
    assert code == 2
    assert capsys.readouterr().err.startswith("error: energy_p must be a finite number")
    assert not out.exists()


def test_norm_order_past_its_bound_is_a_config_error(tmp_path, capsys):
    # Every |v|**p at p = 2**63 overflows or underflows, so every trial tied
    # and the run passed having asserted nothing.
    big = 2**63
    bad = tmp_path / "bad.json"
    bad.write_text('{"energy_p": %d}' % big)
    code, out = run_cli(tmp_path, "--config", str(bad), "--suite", "end2end", "--trials", "5")
    assert code == 2 and not out.exists()
    words = f"energy_p must be a finite number >= 1 and <= {MAX_NORM_ORDER}, got {big}"
    assert capsys.readouterr().err == f"error: {words}\n"
    e2e = first_payload("end2end")
    payloads = {
        "end2end": {**e2e, "model_config": {**e2e["model_config"], "energy_p": big}},
        "claim2": {**first_payload("claim2"), "energy_p": big},
        "apmerge": {**first_payload("apmerge"), "energy_p": big},
    }
    for suite, payload in payloads.items():
        path = tmp_path / f"{suite}.replay.json"
        path.write_text(json.dumps(counterexample_of(suite, payload)))
        assert main(["replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and words in err and "Traceback" not in err
    # The bound itself is a norm order the suites run with.
    ok = tmp_path / "ok.json"
    ok.write_text('{"energy_p": %d}' % MAX_NORM_ORDER)
    assert run_cli(tmp_path, "--config", str(ok), "--suite", "end2end", "--trials", "5")[0] == 0


def test_sum_window_functional_is_a_config_error(tmp_path, capsys):
    # A partition's window energies sum to one total at every anchor, so a
    # "sum" score tied most selections and left their end2end pairs unasserted.
    bad = tmp_path / "bad.json"
    bad.write_text('{"window_energy_fn": "sum"}')
    code, out = run_cli(tmp_path, "--config", str(bad), "--suite", "end2end", "--trials", "5")
    assert code == 2 and not out.exists()
    words = "window_energy_fn must be one of ('max', 'l2'), got 'sum'"
    assert capsys.readouterr().err == f"error: {words}\n"


@pytest.mark.parametrize(
    "key, value", [("tolerance", "NaN"), ("tolerance", "Infinity"), ("divergence", "-Infinity")]
)
def test_replay_rejects_non_finite_numbers(tmp_path, capsys, key, value):
    payload = first_payload("claim1")
    doc = _counterexample("claim1", 0.0, 1.0, payload)
    doc[key] = float(value.lower().replace("infinity", "inf"))
    path = tmp_path / "bad.replay.json"
    path.write_text(json.dumps(doc))
    assert value in path.read_text()
    assert main(["replay", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: replay file {key!r} must be finite")


@pytest.mark.parametrize("tolerance", [-1.0, 1e300])
def test_replay_requires_its_suites_own_tolerance(tmp_path, capsys, monkeypatch, tolerance):
    # Read from the file, -1.0 would make a passing claim1 trial a reproduced
    # failure and 1e300 any failure a pass; either is bad configuration, found
    # before the suite's check runs.
    checks, prop = [], PROPERTIES["claim1"]
    counted = dataclasses.replace(prop, check=lambda *a: checks.append(a) or prop.check(*a))
    monkeypatch.setitem(PROPERTIES, "claim1", counted)
    path = tmp_path / "moved.replay.json"
    path.write_text(json.dumps(_counterexample("claim1", tolerance, 0.0, first_payload("claim1"))))
    assert main(["replay", str(path)]) == 2 and not checks
    want = f"error: replay file 'tolerance' must be finite and claim1's 0.0, got {tolerance!r}\n"
    assert capsys.readouterr().err == want
    # At the suite's own tolerance the same trial reaches the check and passes.
    path.write_text(json.dumps(counterexample_of("claim1", first_payload("claim1"))))
    assert main(["replay", str(path)]) == 0 and len(checks) == 1


@pytest.mark.parametrize(
    "doc",
    [{"embed_dim": 1_000_000}, {"input_shape": [10**12]}, {"channels": 10**12},
     {"num_classes": 10**13}],
)
def test_oversized_config_is_a_config_error(tmp_path, capsys, doc):
    # Each used to die allocating weights in build_model, a traceback and exit 1.
    bad = tmp_path / "big.json"
    bad.write_text(json.dumps(doc))
    code, out = run_cli(tmp_path, "--config", str(bad), "--suite", "end2end", "--trials", "2")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the ") and "more than 4194304" in err
    assert "Traceback" not in err and not out.exists()


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "--config", str(tmp_path / "nope.json"))
    assert code == 2
    assert capsys.readouterr().err.startswith("error: cannot read model config")


def test_invalid_config_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_cli(tmp_path, "--config", str(bad))
    assert code == 2


def test_unknown_config_key(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"input_shape": [64], "heads": 4}))
    code, _ = run_cli(tmp_path, "--config", str(bad))
    assert code == 2
    assert "heads" in capsys.readouterr().err


def test_bad_env_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(ENV_SEED, "not-a-number")
    code, _ = run_cli(tmp_path, "--suite", "claim1", "--trials", "2")
    assert code == 2
    assert ENV_SEED in capsys.readouterr().err


def test_negative_seed_flag(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "--suite", "claim1", "--trials", "2", "--seed", "-1")
    assert code == 2
    assert capsys.readouterr().err.startswith("error: seed must be a non-negative integer")


def test_negative_env_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(ENV_SEED, "-3")
    code, _ = run_cli(tmp_path, "--suite", "claim1", "--trials", "2")
    assert code == 2
    assert capsys.readouterr().err.startswith("error: seed must be a non-negative integer")


@pytest.mark.parametrize("doc", [{"seed": -1}, {"patch_len": "4"}, {"channels": 2.5}, []])
def test_bad_config_document(tmp_path, capsys, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _ = run_cli(tmp_path, "--config", str(bad), "--suite", "claim1", "--trials", "2")
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {"kind": "counterexample", "suite": "claim1", "tolerance": 0.0, "divergence": 1.0},
        {"kind": "counterexample", "suite": "claim1", "tolerance": 0.0, "divergence": 1.0,
         "payload": {"l": 4}},
    ],
)
def test_malformed_replay_document(tmp_path, capsys, doc):
    path = tmp_path / "bad.replay.json"
    path.write_text(json.dumps(doc))
    assert main(["replay", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("x", ['"abc"', "NaN", "[[NaN, 0.5]]", "[[1.0, 2.0], [3.0]]"])
def test_replay_rejects_bad_payload_values(tmp_path, capsys, x):
    # A claim1 counterexample file whose input is replaced by a bad value.
    payload = first_payload("claim1")
    text = json.dumps(_counterexample("claim1", 0.0, 1.0, payload))
    x_field = '"x": ' + json.dumps(payload["x"].tolist())
    assert x_field in text
    path = tmp_path / "bad.replay.json"
    path.write_text(text.replace(x_field, '"x": ' + x))
    assert main(["replay", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: claim1 payload") and "Traceback" not in err


def test_replay_of_rank2_claim1_counterexample_runs(tmp_path, capsys):
    # An 8x8 claim1 signal with a per-axis shift (patch length 2 keeps the
    # sampler's embed) is checked, not refused as bad configuration.
    payload = first_payload("claim1")
    x = np.random.default_rng(3).uniform(-1, 1, (8, 8, 2))
    payload = {**payload, "l": 2, "x": x, "shift": [3, 5]}
    path = tmp_path / "rank2.replay.json"
    path.write_text(json.dumps(_counterexample("claim1", 0.0, 1.0, payload)))
    assert main(["replay", str(path)]) in (0, 1)
    assert capsys.readouterr().out.startswith("claim1: ")


@pytest.mark.parametrize("m", ["l", -1])
def test_replay_of_a_lemma1_offset_outside_the_patch_exits_two(tmp_path, capsys, m):
    # The check refuses m outside [0, l) with ParameterError: bad configuration.
    payload = first_payload("lemma1")
    payload["m"] = payload["l"] if m == "l" else m
    path = tmp_path / "m.replay.json"
    path.write_text(json.dumps(counterexample_of("lemma1", payload)))
    assert main(["replay", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: lemma1 payload") and "outside" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "suite, keys",
    [("lemma1", ["embed"]), ("claim1", ["embed"]), ("claim2", ["e_q", "e_k", "e_v"]),
     ("claim3", ["embed"])],
)
def test_replay_rejects_empty_weight_matrices(tmp_path, capsys, suite, keys):
    # Weights with zero columns are bad configuration, not a reproduced failure.
    payload = first_payload(suite)
    for key in keys:
        payload[key] = [[]] * len(payload[key])
    path = tmp_path / "empty.replay.json"
    path.write_text(json.dumps(counterexample_of(suite, payload)))
    assert main(["replay", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {suite} payload") and "Traceback" not in err


def test_replay_rejects_overflowing_payload(tmp_path, capsys):
    # Finite but huge tokens overflow the attention scores to NaN: an error, not a
    # failure that no longer reproduces.
    payload = first_payload("claim2")
    payload["t"] = payload["t"] * 1e200
    path = tmp_path / "big.replay.json"
    path.write_text(json.dumps(counterexample_of("claim2", payload)))
    assert main(["replay", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: claim2 payload") and "Traceback" not in err


def test_replay_of_tied_trial_exits_zero(tmp_path, capsys):
    # Scaled by 1e308 every patch energy overflows to inf, so all offsets tie and
    # the recomputed trial is not asserted, as in the suite itself.
    payload = first_payload("claim1")
    payload["x"] = payload["x"] * 1e308
    path = tmp_path / "tied.replay.json"
    path.write_text(json.dumps(_counterexample("claim1", 0.0, 1.0, payload)))
    assert main(["replay", str(path)]) == 0
    assert "tied" in capsys.readouterr().out


@pytest.mark.parametrize(
    "suite, key, scale, code", [("claim1", "x", 1e308, 0), ("claim2", "t", 1e200, 2)]
)
def test_overflowing_replays_emit_no_warnings(tmp_path, capsys, suite, key, scale, code):
    # The verdicts above, with NumPy's overflow warnings turned into errors.
    payload = first_payload(suite)
    payload[key] = payload[key] * scale
    path = tmp_path / "big.replay.json"
    path.write_text(json.dumps(counterexample_of(suite, payload)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["replay", str(path)]) == code
    assert "Warning" not in capsys.readouterr().err


def test_2d_counterexample_replays(tmp_path, capsys):
    config = tmp_path / "2d.json"
    config.write_text(json.dumps({"input_shape": [32, 32]}))
    code, _ = run_cli(
        tmp_path, "--config", str(config), "--suite", "end2end", "--disable", "a_wsa",
        "--trials", "2",
    )
    assert code == 1
    replay_file = tmp_path / "report.replay.json"
    assert len(json.loads(replay_file.read_text())["payload"]["shift_a"]) == 2
    assert main(["replay", str(replay_file)]) == 1
    assert "reproduced divergence" in capsys.readouterr().out


def test_replay_missing_file(tmp_path, capsys):
    assert main(["replay", str(tmp_path / "gone.json")]) == 2
    assert "cannot read replay file" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "prove"])
@pytest.mark.parametrize(
    "out, reason",
    [
        ("afile/report.json", "cannot create the directory"),  # a file where a directory goes
        ("adir", "is a directory"),
        ("report.json", "is a directory"),  # its replay file's name is taken by a directory
    ],
)
def test_unwritable_out_is_a_config_error_before_any_suite(tmp_path, capsys, command, out, reason):
    (tmp_path / "afile").write_text("")
    (tmp_path / "adir").mkdir()
    (tmp_path / "report.replay.json").mkdir()
    code = main([command, "--suite", "claim1", "--trials", "2", "--out", str(tmp_path / out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot") and reason in captured.err
    assert captured.out == ""  # no suite ran
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "afile", "report.replay.json"]


def test_unknown_suite_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--suite", "claim9"])
    assert exc.value.code == 2


def test_module_entry_point(tmp_path):
    out = tmp_path / "report.json"
    # The child imports the same eqvit as this process, installed or not.
    src = str(Path(eqvit.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "eqvit", "run", "--suite", "claim3",
         "--trials", "3", "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert "suite claim3" in proc.stdout
    assert out.exists()


def test_closed_stdout_exits_three_and_still_writes_the_files(tmp_path):
    # Exit 1 means a property failed; a reader that stops early is not that.
    src = str(Path(eqvit.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = tmp_path / "report.json"
    commands = [
        ["run", "--suite", "claim1", "--suite", "apmerge", "--trials", "3", "--out", str(out)],
        ["replay", str(tmp_path / "report.replay.json")],
    ]
    for argv in commands:
        with subprocess.Popen(
            [sys.executable, "-m", "eqvit", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        ) as proc:  # leaving closes both pipes and waits for the child
            proc.stdout.close()  # before the child can print anything
            err = proc.stderr.read().decode()
        assert proc.returncode == cli.STDOUT_CLOSED != 1, err
        assert "Traceback" not in err and "Exception" not in err
    assert json.loads(out.read_text())["suites"]
    assert json.loads((tmp_path / "report.replay.json").read_text())["kind"] == "sentinel"


# ---------------------------------------------------------- boundary fuzz --
# Documents as a run writes them, damaged, through `main` in process: every
# outcome is an exit code of 0, 1 or 2, never an exception.

_CONFIGS = [
    ModelConfig().to_dict(),
    ModelConfig(input_shape=(32, 32)).to_dict(),
    ModelConfig(input_shape=(96,), windows=2, merge_factors=(3, 2)).to_dict(),
]
# Values of another JSON type than a field's own, non-finite and too-large
# numbers, and nested lists.
_SWAPS = [
    None, True, 2, 2.5, "4", {"a": 1}, [], [[4]], [[64], 2],
    float("nan"), float("inf"), float("-inf"), 2**63, -(2**63),
]
_REPLAYS = [
    *(cli._dump(counterexample_of(name, first_payload(name))) for name in PROPERTIES),
    cli._dump(sentinel(SuiteConfig())),
    cli._dump(sentinel(SuiteConfig(), ["end2end"])),
]
_FUZZ = settings(max_examples=100, derandomize=True, database=None, deadline=None)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def quiet_main(argv) -> int:
    """`main` with its printed lines discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def damage(doc: dict, data) -> None:
    """Delete one or two of `doc`'s keys, or swap in values from `_SWAPS`."""
    keys = st.lists(st.sampled_from(sorted(doc)), min_size=1, max_size=2, unique=True)
    for key in data.draw(keys):
        if data.draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = data.draw(st.sampled_from(_SWAPS))


@_FUZZ
@given(data=st.data())
def test_damaged_model_config_exits_zero_one_or_two(fuzz_dir, data):
    doc = dict(data.draw(st.sampled_from(_CONFIGS)))
    damage(doc, data)
    path = fuzz_dir / "model.json"
    path.write_text(json.dumps(doc))
    argv = ["run", "--config", str(path), "--suite", "end2end", "--trials", "1"]
    assert quiet_main([*argv, "--out", str(fuzz_dir / "report.json")]) in (0, 1, 2)


@_FUZZ
@given(data=st.data())
def test_truncated_replay_file_exits_zero_one_or_two(fuzz_dir, data):
    text = data.draw(st.sampled_from(_REPLAYS))
    path = fuzz_dir / "damaged.replay.json"
    path.write_text(text[: data.draw(st.integers(0, len(text)))])
    code = quiet_main(["replay", str(path)])
    assert code in (0, 1, 2)
    if code == 1:  # only a whole counterexample or "fail" sentinel reproduces
        assert json.loads(path.read_text()) == json.loads(text)


def nudge(doc: dict, data) -> None:
    """Damage that keeps a counterexample valid up to its suite's check: a
    finite `divergence` swapped for another finite number, a payload array
    replaced by another finite array of its shape and dtype kind, or a shift
    or `m` moved within its range; or a `tolerance` swapped for another finite
    number, which replay refuses before the check unless it is the suite's own."""
    payload = doc["payload"]
    floats = [k for k, v in payload.items() if isinstance(v, list) and np.asarray(v).dtype.kind == "f"]
    shifts = [k for k in ("shift", "shift_a", "shift_b", "m") if k in payload]
    key = data.draw(st.sampled_from(["divergence", "tolerance", *floats, *shifts]))
    if key in ("divergence", "tolerance"):
        doc[key] = data.draw(st.floats(allow_nan=False, allow_infinity=False))
    elif key in floats:
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        payload[key] = rng.uniform(-1, 1, np.shape(payload[key])).tolist()
    else:  # m counts patch offsets below l; a shift any rotation of its grid
        high = payload["l"] - 1 if key == "m" else 63
        moved = st.integers(0, high)
        value = payload[key]
        payload[key] = [data.draw(moved) for _ in value] if isinstance(value, list) else data.draw(moved)


# The least share of the derandomized examples below whose replay reaches
# its suite's check (40 of 100; 42 before a recorded tolerance had to be the
# suite's own); invalid damage stops before it.
REACHES_CHECK = 0.3


def test_damaged_replay_file_exits_zero_one_or_two(fuzz_dir, monkeypatch):
    checks = []
    for name, prop in PROPERTIES.items():

        def counted(*args, check=prop.check, **kwargs):
            checks.append(check)
            return check(*args, **kwargs)

        monkeypatch.setitem(PROPERTIES, name, dataclasses.replace(prop, check=counted))
    reached = []

    @_FUZZ
    @given(data=st.data())
    def replay_damaged(data):
        doc = json.loads(data.draw(st.sampled_from(_REPLAYS)))
        if "payload" in doc and data.draw(st.booleans()):
            nudge(doc, data)
        else:
            where = st.sampled_from(["top", "payload", "both"]) if "payload" in doc else st.just("top")
            where = data.draw(where)
            if where != "top":  # first, as damage at the top level may drop the payload
                damage(doc["payload"], data)
            if where != "payload":
                damage(doc, data)
        path = fuzz_dir / "damaged.replay.json"
        path.write_text(json.dumps(doc))
        before = len(checks)
        code = quiet_main(["replay", str(path)])
        reached.append(len(checks) > before)
        assert code in (0, 1, 2)
        if code == 1:  # only a counterexample or a "fail" sentinel reproduces
            assert doc.get("kind") == "counterexample" or doc.get("status") == "fail"

    replay_damaged()
    assert sum(reached) >= REACHES_CHECK * len(reached), (sum(reached), len(reached))