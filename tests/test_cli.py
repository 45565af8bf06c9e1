"""CLI subcommands: outputs parse back, exit codes follow the contract."""

import json
import subprocess
import sys

import pytest

from twisted_bruhat import cli
from twisted_bruhat.poset import parse_jsonl
from conftest import src_env

ALCOVE = "twist:e psi:e d1:{} d2:{}"


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_interval_jsonl_roundtrip(capsys):
    code, out, _ = run(
        capsys,
        ["interval", "--type", "A2", "--biclosed", ALCOVE, "--x", "e", "--y", "3"],
    )
    assert code == 0
    nodes, edges = parse_jsonl(out)
    assert {n["label"] for n in nodes} >= {"e", "3"}
    for e in edges:
        assert e["kind"] in ("weak", "strong")


def test_interval_dot(capsys):
    code, out, _ = run(
        capsys,
        ["interval", "--type", "A2", "--biclosed", ALCOVE, "--x", "e",
         "--y", "3", "--format", "dot"],
    )
    assert code == 0
    assert out.startswith("digraph")


def test_covers_of_identity(capsys):
    code, out, _ = run(
        capsys, ["covers", "--type", "A2", "--biclosed", ALCOVE, "--elem", "e"]
    )
    assert code == 0
    recs = [json.loads(line) for line in out.strip().splitlines()]
    lowers = {r["element"] for r in recs if r.get("direction") == "lower"}
    uppers = {r["element"] for r in recs if r.get("direction") == "upper"}
    assert lowers == {"1", "2"}
    assert uppers == {"3", "1.3.1", "2.3.2"}
    assert any("certificate" in r for r in recs)


def test_levels(capsys):
    code, out, _ = run(
        capsys,
        ["levels", "--type", "A2", "--biclosed", ALCOVE, "--level", "0",
         "--radius", "6"],
    )
    assert code == 0
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert {r["element"] for r in recs} >= {"e"}
    assert all(r["length"] <= 6 for r in recs)


def test_poincare(capsys):
    code, out, _ = run(capsys, ["poincare", "--parity", "even", "--dmax", "8"])
    assert code == 0
    assert json.loads(out) == [1, 2, 4, 5, 7, 8, 10, 11, 13]


def test_hasse_dot(capsys):
    code, out, _ = run(capsys, ["hasse", "--bound", "4"])
    assert code == 0
    assert out.startswith("digraph")
    assert "rank=same" in out


def test_topes_jsonl(capsys):
    code, out, _ = run(capsys, ["topes"])
    assert code == 0
    lines = out.strip().splitlines()
    labels = {
        json.loads(l)["label"] for l in lines if "label" in json.loads(l)
    }
    assert {"H1", "T64", "U6", "-H1"} <= labels


def test_sect4_small_budgets(capsys):
    code, out, _ = run(capsys, ["sect4", "--budgets", "2,3"])
    assert code == 0
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["budget"] for r in recs] == [2, 3]
    assert all(r["count"] >= 0 for r in recs)


def test_config_file_and_out_file(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    outfile = tmp_path / "series.json"
    cfg.write_text(f"parity=odd\ndmax=6\nout={outfile}\n# comment\n")
    code, out, _ = run(capsys, ["poincare", "--config", str(cfg)])
    assert code == 0
    assert json.loads(outfile.read_text()) == [1, 3, 4, 6, 7, 9, 10]


def test_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("parity=odd\ndmax=4\n")
    code, out, _ = run(
        capsys, ["poincare", "--config", str(cfg), "--parity", "even"]
    )
    assert code == 0
    assert json.loads(out) == [1, 2, 4, 5, 7]


def test_usage_errors(capsys, tmp_path):
    # missing --biclosed
    code, _, err = run(capsys, ["covers", "--type", "A2", "--elem", "e"])
    assert code == 2
    # bad biclosed text
    code, _, err = run(
        capsys, ["covers", "--type", "A2", "--biclosed", "garbage"]
    )
    assert code == 2
    # malformed config file
    cfg = tmp_path / "cfg"
    cfg.write_text("no equals sign here\n")
    code, _, _ = run(capsys, ["poincare", "--config", str(cfg)])
    assert code == 2
    # missing or unreadable config file
    for path in (tmp_path / "absent", tmp_path):
        code, out, err = run(capsys, ["poincare", "--config", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read config") and err.count("\n") == 1
    # unwritable --out, by flag and by config
    unwritable = str(tmp_path / "absent" / "series.json")
    cfg.write_text(f"out={unwritable}\n")
    for argv in (["--out", unwritable], ["--config", str(cfg)]):
        code, out, err = run(capsys, ["poincare"] + argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: cannot write") and err.count("\n") == 1
    # unknown subcommand
    code, _, _ = run(capsys, ["frobnicate"])
    assert code == 2
    # bad word letter
    code, _, _ = run(
        capsys, ["covers", "--type", "A2", "--biclosed", ALCOVE, "--elem", "9"]
    )
    assert code == 2
    # unknown output format, negative bound or budget: by flag or by config
    interval_a2 = ["interval", "--type", "A2", "--biclosed", ALCOVE, "--y", "3"]
    for base, key, value in (
        (["topes"], "format", "xml"),
        (interval_a2, "format", "xml"),
        (["hasse"], "bound", "-1"),
        (["sect4"], "budgets", "2,-3"),
        (["sect4"], "budgets", "2,13"),
        (["sect4"], "budgets", "100"),
    ):
        cfg.write_text(f"{key}={value}\n")
        for argv in (base + [f"--{key}", value], base + ["--config", str(cfg)]):
            code, out, err = run(capsys, argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith(f"error: --{key} must be"), argv


def test_consecutive_calls_match_separate_runs(capsys):
    """The parser is built once per process; calls must not leak state."""
    calls = [
        ["covers", "--type", "B2", "--biclosed", "twist:3 psi:1 d1:{2} d2:{}",
         "--elem", "1.3"],
        ["poincare", "--parity", "odd"],
        ["interval", "--type", "A2", "--biclosed", ALCOVE, "--y", "3",
         "--format", "dot"],
    ]
    together = [run(capsys, argv) for argv in calls]
    for argv, (code, out, err) in zip(calls, together):
        alone = subprocess.run(
            [sys.executable, "-m", "twisted_bruhat.cli", *argv],
            capture_output=True, text=True, env=src_env(), timeout=120,
        )
        assert (code, out, err) == (alone.returncode, alone.stdout, alone.stderr)


def test_verify_exit_codes(capsys, monkeypatch):
    from twisted_bruhat import verify as vmod

    monkeypatch.setattr(
        vmod, "run_all", lambda: [("stub", True, "ok"), ("stub2", True, "ok")]
    )
    code, out, _ = run(capsys, ["verify"])
    assert code == 0
    assert out.count("PASS") == 2

    monkeypatch.setattr(
        vmod, "run_all", lambda: [("stub", True, "ok"), ("bad", False, "no")]
    )
    code, out, _ = run(capsys, ["verify"])
    assert code == 1
    assert "FAIL" in out


def test_certification_failure_exit_code(capsys, monkeypatch):
    from twisted_bruhat.orders import CertificationFailed

    def fail(w, B):
        raise CertificationFailed("ray a did not stabilize")

    monkeypatch.setattr(cli, "covers", fail)
    code, out, err = run(
        capsys, ["covers", "--type", "A2", "--biclosed", ALCOVE, "--elem", "e"]
    )
    assert code == 3
    assert out == ""
    assert err.startswith("certification failure: ray a did not stabilize")
    assert "Traceback" not in err


def test_sect4_unstraight_target_exit_code(capsys, monkeypatch):
    from twisted_bruhat import generic

    monkeypatch.setattr(generic, "is_straight_word", lambda w: False)
    code, out, err = run(capsys, ["sect4", "--budgets", "2"])
    assert code == 3
    assert out == ""
    assert err.startswith("certification failure: target is not straight")


def test_sect4_budget_exceeded_exit_code(capsys, monkeypatch):
    """A bounded search that gives up is a certification failure (exit 3),
    not a traceback with the verification-failure code 1."""
    from twisted_bruhat import generic

    def give_up(w, gamma, scan_budget=64):
        raise generic.BudgetExceeded("A-membership scan did not stabilize")

    monkeypatch.setattr(generic, "in_A", give_up)
    code, out, err = run(capsys, ["sect4", "--budgets", "2"])
    assert code == 3
    assert out == ""
    assert err.startswith(
        "certification failure: A-membership scan did not stabilize"
    )
    assert "Traceback" not in err


def test_verify_budget_exceeded_exit_code(capsys, monkeypatch):
    from twisted_bruhat import generic, verify as vmod

    def give_up(w, gamma, scan_budget=64):
        raise generic.BudgetExceeded("A-membership scan did not stabilize")

    monkeypatch.setattr(generic, "in_A", give_up)
    monkeypatch.setattr(vmod, "ALL_CHECKS", [vmod.check_interval_growth])
    code, out, err = run(capsys, ["verify"])
    assert code == 3
    assert err.startswith("certification failure: A-membership")


def test_sect4_budget_limit_is_accepted(capsys, monkeypatch):
    """Budget 12 is the documented limit; it takes seconds, so stub the run."""
    from twisted_bruhat import generic

    seen = []
    monkeypatch.setattr(
        generic, "interval_growth", lambda cm, budgets: seen.append(budgets) or []
    )
    code, _, _ = run(capsys, ["sect4", "--budgets", "0,12"])
    assert (code, seen) == (0, [(0, 12)])


def test_figure_check_failure_exit_code(capsys, monkeypatch):
    """A broken tope-figure certificate exits 3, not with an AssertionError."""
    from twisted_bruhat import topes

    real = topes.symdiff_positive
    monkeypatch.setattr(
        topes, "symdiff_positive", lambda F, G: real(F, G) | {((1, 1), 7)}
    )
    code, _, err = run(capsys, ["topes"])
    assert code == 3
    assert err.startswith("certification failure: figure edge")
    assert "Traceback" not in err
