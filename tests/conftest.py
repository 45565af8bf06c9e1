"""Shared helpers: deterministic random words and biclosed sets, and a
counter of affine group products."""

import os
import random
from pathlib import Path

import pytest

from twisted_bruhat import build_system, from_word
from twisted_bruhat.verify import random_biclosed, random_word  # noqa: F401


def src_env():
    """The environment for a child interpreter that imports this checkout."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def random_element(datum, rng, max_len):
    return from_word(datum, random_word(datum, rng, max_len))


@pytest.fixture
def products(monkeypatch):
    """A list that grows by one entry per AffineWeylElement product."""
    from twisted_bruhat.affine_group import AffineWeylElement

    calls = []
    mul = AffineWeylElement.__mul__

    def counted(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(AffineWeylElement, "__mul__", counted)
    return calls


@pytest.fixture
def rng():
    return random.Random(20260823)


@pytest.fixture(scope="session")
def a2_datum():
    return build_system("A2")


@pytest.fixture(scope="session")
def a3_datum():
    return build_system("A3")
