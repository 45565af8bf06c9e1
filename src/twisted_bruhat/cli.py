"""Command-line entry point.

Subcommands: interval, covers, levels, poincare, hasse, topes, sect4,
verify.  Exit codes: 0 success, 1 verification failure, 2 usage error,
3 certification failure.  Options may come from a flat ``key=value``
config file (--config); explicit flags override file values.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from . import a2, generic, topes, verify
from .affine_group import format_word, from_word, parse_word
from .biclosed import parse_biclosed
from .finite import build_system
from .orders import CertificationFailed, covers, interval, level_set_sample

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_CERT_FAIL = 3

# sect4 cost roughly doubles per budget unit; 12 takes seconds.
MAX_BUDGET = 12


class UsageError(Exception):
    pass


def _read_config(path):
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
        out[key.strip()] = value.strip()
    return out


def _opt(args, config, name, default=None, cast=str):
    val = getattr(args, name, None)
    if val is None:
        val = config.get(name)
    if val is None:
        return default
    return cast(val) if isinstance(val, str) else val


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


def _load_backend(args, config):
    type_label = _opt(args, config, "type", "A2")
    datum = build_system(type_label)
    spec = _opt(args, config, "biclosed")
    if spec is None:
        raise UsageError("missing --biclosed")
    return datum, parse_biclosed(datum, spec)


def _load_elem(datum, text):
    return from_word(datum, parse_word(datum, text))


def cmd_interval(args, config):
    datum, B = _load_backend(args, config)
    x = _load_elem(datum, _opt(args, config, "x", "e"))
    y = _load_elem(datum, _opt(args, config, "y", "e"))
    fmt = _format(args, config, "jsonl")
    poset = interval(x, y, B)
    _emit(args, config, poset.to_dot() if fmt == "dot" else poset.to_jsonl())
    return EXIT_OK


def cmd_covers(args, config):
    datum, B = _load_backend(args, config)
    w = _load_elem(datum, _opt(args, config, "elem", "e"))
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
    radius = _opt(args, config, "radius", 6, int)
    sample = level_set_sample(B, k, radius)
    lines = [
        json.dumps({"element": format_word(w.word()), "length": w.length()})
        for w in sample
    ]
    _emit(args, config, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_poincare(args, config):
    parity = _opt(args, config, "parity", "even")
    d_max = _opt(args, config, "dmax", 8, int)
    coeffs = a2.poincare_series(parity, d_max)
    _emit(args, config, json.dumps(coeffs) + "\n")
    return EXIT_OK


def cmd_hasse(args, config):
    bound = _opt(args, config, "bound", 6, int)
    if bound < 0:
        raise UsageError(f"--bound must be >= 0, got {bound}")
    fmt = _format(args, config, "dot")
    poset = a2.figure_hasse(bound)
    _emit(args, config, poset.to_dot("hasse") if fmt == "dot" else poset.to_jsonl())
    return EXIT_OK


def cmd_topes(args, config):
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
    budgets = _opt(args, config, "budgets", "6,8,9,10")
    budgets = tuple(int(b) for b in str(budgets).split(","))
    if min(budgets) < 0:
        raise UsageError(f"--budgets must be >= 0, got {min(budgets)}")
    if max(budgets) > MAX_BUDGET:
        raise UsageError(f"--budgets must be <= {MAX_BUDGET}, got {max(budgets)}")
    table = generic.interval_growth(generic.coxeter_2_3_inf(), budgets)
    lines = [json.dumps(rec, sort_keys=True) for rec in table]
    _emit(args, config, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify(args, config):
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


@lru_cache(maxsize=None)
def _build_parser():
    p = argparse.ArgumentParser(prog="twisted-bruhat")
    sub = p.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config")
        sp.add_argument("--type")
        sp.add_argument("--biclosed")
        sp.add_argument("--elem")
        sp.add_argument("--x")
        sp.add_argument("--y")
        sp.add_argument("--level", type=int)
        sp.add_argument("--radius", type=int)
        sp.add_argument("--parity")
        sp.add_argument("--dmax", type=int)
        sp.add_argument("--bound", type=int)
        sp.add_argument("--budgets")
        sp.add_argument("--format")
        sp.add_argument("--out")
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
            config = _read_config(args.config)
        return COMMANDS[args.command](args, config)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CertificationFailed as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERT_FAIL


if __name__ == "__main__":
    sys.exit(main())
