"""Command-line entry point.

Subcommands: interval, covers, levels, poincare, hasse, topes, sect4,
verify.  Exit codes: 0 success, 1 verification failure, 2 usage error,
3 certification failure.  Each subcommand takes only its own flags (FLAGS)
plus --config and --out.  Options may come from a flat ``key=value``
config file (--config) whose keys are the subcommand's own flag names or
``out``; explicit flags override file values.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .affine_group import format_word, from_word, parse_word
from .biclosed import _BIC_RE, parse_biclosed
from .finite import build_system
from .orders import CertificationFailed, covers, interval, level_set_sample
from .orders import twisted_length_left

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_CERT_FAIL = 3

# Upper limits that keep each run within a few seconds (2-vCPU machine):
# sect4 cost grows 1.5-1.9x per budget unit and takes about 3 s at 12; an
# A3 `levels` ball grows with the cube of the radius (about 2 s at 20);
# `hasse` at bound 20 takes about 1 s; `poincare` output grows with dmax.
# Element words (--x, --y, --elem and the twist of --biclosed) are checked
# as parsed, before any product: 100,000 letters took 7.5 s.  An A3
# `interval` with d1:{1,2,3} at grade gap 8 takes 0.8-1.3 s for words of
# at most 32 letters; the cover search grows with the gap.
MAX_BUDGET = 12
MAX_RADIUS = 20
MAX_BOUND = 20
MAX_DMAX = 1000
MAX_WORD = 32
MAX_GAP = 8


class UsageError(Exception):
    pass


def _read_config(path, allowed):
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc.strerror}") from exc
    out = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in allowed:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = value.strip()
    return out


def _opt(args, config, name, default=None, cast=str):
    val = getattr(args, name, None)
    if val is None:
        val = config.get(name)
    if val is None:
        return default
    return cast(val) if isinstance(val, str) else val


def _check_range(name, value, limit):
    if not 0 <= value <= limit:
        raise UsageError(f"--{name} must be in 0..{limit}, got {value}")
    return value


def _bounded(args, config, name, default, limit):
    return _check_range(name, _opt(args, config, name, default, int), limit)


def _format(args, config, default):
    fmt = _opt(args, config, "format", default)
    if fmt not in ("jsonl", "dot"):
        raise UsageError(f"--format must be 'jsonl' or 'dot', got {fmt!r}")
    return fmt


def _emit(args, config, text):
    path = _opt(args, config, "out")
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {path}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _short_word(datum, name, text):
    letters = parse_word(datum, text)
    if len(letters) > MAX_WORD:
        raise UsageError(f"--{name} must have at most {MAX_WORD} letters, got {len(letters)}")
    return letters


def _load_backend(args, config):
    type_label = _opt(args, config, "type", "A2")
    datum = build_system(type_label)
    spec = _opt(args, config, "biclosed")
    if spec is None:
        raise UsageError("missing --biclosed")
    m = _BIC_RE.match(spec)
    if m is not None:
        _short_word(datum, "biclosed twist", m.group("twist"))
    return datum, parse_biclosed(datum, spec)


def _load_elem(args, config, datum, name):
    return from_word(datum, _short_word(datum, name, _opt(args, config, name, "e")))


def cmd_interval(args, config):
    datum, B = _load_backend(args, config)
    x = _load_elem(args, config, datum, "x")
    y = _load_elem(args, config, datum, "y")
    fmt = _format(args, config, "jsonl")
    gap = twisted_length_left(y, B) - twisted_length_left(x, B)  # memoized
    if gap > MAX_GAP:
        raise UsageError(f"l_B(y) - l_B(x) must be at most {MAX_GAP}, got {gap}")
    poset = interval(x, y, B)
    _emit(args, config, poset.to_dot() if fmt == "dot" else poset.to_jsonl())
    return EXIT_OK


def cmd_covers(args, config):
    datum, B = _load_backend(args, config)
    w = _load_elem(args, config, datum, "elem")
    lower, upper, certs = covers(w, B)
    lines = []
    for direction, pairs in (("lower", lower), ("upper", upper)):
        for refl, elem in pairs:
            lines.append(
                json.dumps(
                    {
                        "direction": direction,
                        "reflection": {
                            "base": datum.root_name(refl[0]),
                            "level": refl[1],
                        },
                        "element": format_word(elem.word()),
                    },
                    sort_keys=True,
                )
            )
    for cert in certs:
        lines.append(
            json.dumps(
                {
                    "certificate": {
                        "base": datum.root_name(cert.base_root),
                        "window": list(cert.window),
                        "drift": list(cert.drift),
                    }
                },
                sort_keys=True,
            )
        )
    _emit(args, config, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_levels(args, config):
    datum, B = _load_backend(args, config)
    k = _opt(args, config, "level", 0, int)
    radius = _bounded(args, config, "radius", 6, MAX_RADIUS)
    sample = level_set_sample(B, k, radius)
    lines = [
        json.dumps({"element": format_word(w.word()), "length": w.length()})
        for w in sample
    ]
    _emit(args, config, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_poincare(args, config):
    from . import a2

    parity = _opt(args, config, "parity", "even")
    d_max = _bounded(args, config, "dmax", 8, MAX_DMAX)
    coeffs = a2.poincare_series(parity, d_max)
    _emit(args, config, json.dumps(coeffs) + "\n")
    return EXIT_OK


def cmd_hasse(args, config):
    from . import a2

    bound = _bounded(args, config, "bound", 6, MAX_BOUND)
    fmt = _format(args, config, "dot")
    poset = a2.figure_hasse(bound)
    _emit(args, config, poset.to_dot("hasse") if fmt == "dot" else poset.to_jsonl())
    return EXIT_OK


def cmd_topes(args, config):
    from . import topes

    fmt = _format(args, config, "jsonl")
    records, poset = topes.figure_topes()
    if fmt == "dot":
        _emit(args, config, poset.to_dot("topes"))
    else:
        lines = [json.dumps(r, sort_keys=True) for r in records]
        lines += poset.to_jsonl().splitlines()
        _emit(args, config, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_sect4(args, config):
    from . import generic

    budgets = _opt(args, config, "budgets", "6,8,9,10")
    budgets = tuple(int(b) for b in str(budgets).split(","))
    for b in budgets:
        _check_range("budgets", b, MAX_BUDGET)
    table = generic.interval_growth(generic.coxeter_2_3_inf(), budgets)
    lines = [json.dumps(rec, sort_keys=True) for rec in table]
    _emit(args, config, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify(args, config):
    from . import verify

    results = verify.run_all()
    lines = []
    ok_all = True
    for name, ok, detail in results:
        ok_all &= ok
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    _emit(args, config, "\n".join(lines) + "\n")
    return EXIT_OK if ok_all else EXIT_VERIFY_FAIL


COMMANDS = {
    "interval": cmd_interval,
    "covers": cmd_covers,
    "levels": cmd_levels,
    "poincare": cmd_poincare,
    "hasse": cmd_hasse,
    "topes": cmd_topes,
    "sect4": cmd_sect4,
    "verify": cmd_verify,
}

# Each subcommand's own flags; every subcommand also takes --config and --out.
FLAGS = {
    "interval": ("type", "biclosed", "x", "y", "format"),
    "covers": ("type", "biclosed", "elem"),
    "levels": ("type", "biclosed", "level", "radius"),
    "poincare": ("parity", "dmax"),
    "hasse": ("bound", "format"),
    "topes": ("format",),
    "sect4": ("budgets",),
    "verify": (),
}
_INT_FLAGS = ("level", "radius", "dmax", "bound")


@lru_cache(maxsize=None)
def _build_parser():
    p = argparse.ArgumentParser(prog="twisted-bruhat")
    sub = p.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config")
        for flag in FLAGS[name] + ("out",):
            sp.add_argument(f"--{flag}", type=int if flag in _INT_FLAGS else None)
    return p


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    config = {}
    try:
        if args.config:
            config = _read_config(args.config, FLAGS[args.command] + ("out",))
        return COMMANDS[args.command](args, config)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CertificationFailed as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERT_FAIL


if __name__ == "__main__":
    sys.exit(main())
