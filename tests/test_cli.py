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
    # d1 and d2 not orthogonal
    code, out, err = run(capsys, [
        "covers", "--type", "A2", "--biclosed", "twist:e psi:e d1:{1} d2:{2}"
    ])
    assert (code, out, err) == (
        2, "", "error: orthogonality violated: (a, b) != 0\n"
    )
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
    # a flag of another subcommand, or a config key outside the
    # subcommand's own flags (a misspelling included)
    for argv in (
        ["poincare", "--radius", "999", "--biclosed", "junk"],
        ["verify", "--type", "A2"],
        ["topes", "--bound", "3"],
        ["covers", "--type", "A2", "--biclosed", ALCOVE, "--format", "dot"],
        ["sect4", "--dmax", "3"],
    ):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert "unrecognized arguments" in err, argv
    for base, key in (
        (["levels", "--type", "A2", "--biclosed", ALCOVE], "raduis"),
        (["poincare"], "radius"),
        (["hasse"], "config"),
        (["verify"], "type"),
    ):
        cfg.write_text(f"{key}=5\n")
        code, out, err = run(capsys, base + ["--config", str(cfg)])
        assert (code, out) == (2, ""), key
        assert err == f"error: {cfg}:1: unknown key {key!r}\n"
    # bad word letter
    code, _, _ = run(
        capsys, ["covers", "--type", "A2", "--biclosed", ALCOVE, "--elem", "9"]
    )
    assert code == 2
    # unknown output format, a numeric flag below 0 or above its limit: by
    # flag or by config
    interval_a2 = ["interval", "--type", "A2", "--biclosed", ALCOVE, "--y", "3"]
    levels_a3 = ["levels", "--type", "A3", "--biclosed", ALCOVE]
    for base, key, value in (
        (["topes"], "format", "xml"),
        (interval_a2, "format", "xml"),
        (["hasse"], "bound", "-1"),
        (["hasse"], "bound", "21"),
        (levels_a3, "radius", "-1"),
        (levels_a3, "radius", "21"),
        (["poincare"], "dmax", "-1"),
        (["poincare"], "dmax", "1001"),
        (["poincare"], "dmax", "100000"),
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

    def give_up(w, gamma):
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

    def give_up(w, gamma):
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


def test_numeric_limits_are_accepted(capsys, monkeypatch):
    """Each documented limit itself is accepted; the A2 ball and the series
    are cheap there, and the Hasse fragment is stubbed."""
    from twisted_bruhat import a2

    code, out, _ = run(capsys, ["poincare", "--dmax", str(cli.MAX_DMAX)])
    assert code == 0 and len(json.loads(out)) == cli.MAX_DMAX + 1
    code, _, _ = run(capsys, ["levels", "--type", "A2", "--biclosed", ALCOVE,
                              "--radius", str(cli.MAX_RADIUS)])
    assert code == 0
    seen = []
    real = a2.figure_hasse
    monkeypatch.setattr(
        a2, "figure_hasse", lambda bound: seen.append(bound) or real(0)
    )
    code, _, _ = run(capsys, ["hasse", "--bound", str(cli.MAX_BOUND)])
    assert (code, seen) == (0, [cli.MAX_BOUND])


def test_figure_check_failure_exit_code(capsys, monkeypatch):
    """A broken tope-figure certificate exits 3, not with an AssertionError:
    symmetric differences cut to one root make covers that skip grades."""
    from twisted_bruhat import topes

    real = topes.symdiff_positive
    monkeypatch.setattr(
        topes, "symdiff_positive", lambda F, G: frozenset(sorted(real(F, G))[:1])
    )
    code, _, err = run(capsys, ["topes"])
    assert code == 3
    assert err == "certification failure: tope figure grading is broken\n"



def _word(n):
    """An A2 word of n letters."""
    return ".".join(("1", "2", "3")[i % 3] for i in range(n))


def _argv(via, cfg, opts):
    """opts as flags, or as a config file."""
    if via == "flag":
        return [a for key, value in opts.items() for a in (f"--{key}", value)]
    cfg.write_text("".join(f"{k}={v}\n" for k, v in opts.items()))
    return ["--config", str(cfg)]


@pytest.mark.parametrize("via", ("flag", "config"))
@pytest.mark.parametrize("name", ("x", "y", "elem", "twist"))
def test_word_limit(capsys, monkeypatch, tmp_path, via, name):
    """A word of MAX_WORD letters is accepted; one more letter exits 2
    where the text is parsed, before any product."""
    words, specs = [], []
    real_word, real_biclosed = cli.from_word, cli.parse_biclosed
    monkeypatch.setattr(
        cli, "from_word", lambda d, w: words.append(w) or real_word(d, w)
    )
    monkeypatch.setattr(
        cli, "parse_biclosed",
        lambda d, spec: specs.append(spec) or real_biclosed(d, spec),
    )
    command = "covers" if name == "elem" else "interval"
    for n in (cli.MAX_WORD, cli.MAX_WORD + 1):
        opts = {"type": "A2", "biclosed": ALCOVE}
        if name == "twist":
            opts["biclosed"] = f"twist:{_word(n)} psi:e d1:{{}} d2:{{}}"
        else:
            opts[name] = _word(n)
        if name in ("x", "y"):  # x = y at the limit: a one-node interval
            other = "y" if name == "x" else "x"
            opts[other] = opts[name] if n == cli.MAX_WORD else "e"
        del words[:], specs[:]
        code, out, err = run(
            capsys, [command] + _argv(via, tmp_path / "c.cfg", opts)
        )
        if n == cli.MAX_WORD:
            assert (code, err) == (0, ""), err
            continue
        label = "biclosed twist" if name == "twist" else name
        assert (code, out) == (2, "")
        assert err == (
            f"error: --{label} must have at most {cli.MAX_WORD} letters, "
            f"got {n}\n"
        )
        assert all(len(w) <= cli.MAX_WORD for w in words)
        assert specs == ([] if name == "twist" else [ALCOVE])


@pytest.mark.parametrize("via", ("flag", "config"))
def test_gap_limit(capsys, monkeypatch, tmp_path, via):
    """`interval` accepts a grade gap of MAX_GAP and refuses MAX_GAP + 1
    with exit 2, before the cover search."""
    from twisted_bruhat.poset import GradedPoset

    searched = []
    monkeypatch.setattr(
        cli, "interval", lambda x, y, B: searched.append(y) or GradedPoset()
    )
    # l_B = 8 and 9 in the alcove order
    for y, gap in (("1.2.1.3.1.2.1.3", cli.MAX_GAP), (_word(9), cli.MAX_GAP + 1)):
        opts = {"type": "A2", "biclosed": ALCOVE, "x": "e", "y": y}
        del searched[:]
        code, out, err = run(
            capsys, ["interval"] + _argv(via, tmp_path / "c.cfg", opts)
        )
        if gap == cli.MAX_GAP:
            assert (code, err, len(searched)) == (0, "", 1), err
        else:
            assert (code, out, searched) == (2, "", [])
            assert err == (
                f"error: l_B(y) - l_B(x) must be at most {cli.MAX_GAP}, "
                f"got {gap}\n"
            )
