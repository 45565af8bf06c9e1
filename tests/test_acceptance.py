"""Acceptance gate: runs every verification check, one pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as they
complete; the same checks back the `twisted-bruhat verify` subcommand,
whose stdout is recorded byte for byte in tests/golden/verify.out, one
line per check.  Re-record only when an output is meant to change:

    PYTHONPATH=src python -m twisted_bruhat.cli verify > tests/golden/verify.out
"""

from pathlib import Path

import pytest

from twisted_bruhat import verify

GOLDEN = Path(__file__).resolve().parent / "golden" / "verify.out"


@pytest.mark.parametrize(
    "check", verify.ALL_CHECKS, ids=[fn.__name__ for fn in verify.ALL_CHECKS]
)
def test_acceptance(check):
    name, ok, detail = check()
    line = f"{'PASS' if ok else 'FAIL'}  {name}: {detail}"
    print(line)
    assert ok, f"{name}: {detail}"
    recorded = GOLDEN.read_bytes().decode("utf-8").split("\n")
    assert len(recorded) == len(verify.ALL_CHECKS) + 1 and recorded[-1] == ""
    assert line == recorded[verify.ALL_CHECKS.index(check)]


def test_check_antichain_reports_only_a_short_search(monkeypatch):
    """A search that falls short is a FAIL line; any other error propagates,
    so a certification failure or a bug is not reported as a plain FAIL."""
    from twisted_bruhat.orders import CertificationFailed, TargetNotReached

    def short(B, k, size_target, radius):
        raise TargetNotReached([])

    monkeypatch.setattr(verify, "antichain_at_level", short)
    name, ok, detail = verify.check_antichain()
    assert (name, ok) == ("infinite antichain", False)
    assert "only 0 elements found" in detail

    for exc in (CertificationFailed("ray a"), KeyError("bug")):

        def broken(B, k, size_target, radius, exc=exc):
            raise exc

        monkeypatch.setattr(verify, "antichain_at_level", broken)
        with pytest.raises(type(exc)):
            verify.check_antichain()


def test_a_zero_outer_slope_fails_both_finiteness_lines(monkeypatch):
    """A row of the slope table with a zero slope makes both finiteness
    lines FAIL, naming the row's type, triple and gamma; the rows before it
    are read, the rows after it are not."""
    rows = list(verify._outer_slopes())
    assert len(rows) == 3302
    assert all(0 not in slopes for *_, slopes in rows)
    at = next(i for i, row in enumerate(rows) if row[1].classify() == "Mixed")
    label, Q, gamma, (lo, _) = rows[at]
    read = []

    def with_zero():
        for i, row in enumerate(rows):
            read.append(i)
            yield row if i != at else (label, Q, gamma, (lo, 0))

    monkeypatch.setattr(verify, "_outer_slopes", with_zero)
    want = f"{label} {Q!r} gamma {Q.datum.root_name(gamma)}: slopes ({lo}, 0)"
    assert label == "A3" and repr(Q).startswith("twist:e psi:")
    for check, name in ((verify.check_local_finiteness, "local finiteness"),
                        (verify.check_corank_finiteness, "corank finiteness")):
        del read[:]
        assert check() == (name, False, want)
        assert read == list(range(at + 1))
