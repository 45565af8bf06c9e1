"""Acceptance gate: runs every verification check, one pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as they
complete; the same checks back the `twisted-bruhat verify` subcommand.
"""

import pytest

from twisted_bruhat import verify


@pytest.mark.parametrize(
    "check", verify.ALL_CHECKS, ids=[fn.__name__ for fn in verify.ALL_CHECKS]
)
def test_acceptance(check):
    name, ok, detail = check()
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


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
