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


def test_check_corank_finiteness_names_an_element_off_its_layer(monkeypatch):
    """A layer element whose twisted length is not l_B(x) - n is a FAIL
    naming the backend, the element, x and both lengths."""
    real = verify.downset_corank

    def with_x(x, B, n):
        return real(x, B, n) | {x}

    monkeypatch.setattr(verify, "downset_corank", with_x)
    name, ok, detail = verify.check_corank_finiteness()
    assert (name, ok) == ("corank finiteness", False)
    assert detail.startswith("A2 alcove: ")
    word, _, rest = detail[len("A2 alcove: "):].partition(" in the corank-")
    assert f"layer below {word} has l_B " in rest
