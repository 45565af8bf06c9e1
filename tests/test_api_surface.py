"""The package surface stays live: exports resolve, a cold import loads
only the modules it uses, the benchmark tracer's targets exist, certificate
and integrality checks are explicit code rather than `assert` (which
`python -O` strips), arithmetic stays exact, only a fenced set of modules
imports `fractions` and none imports `dataclasses`, only a fenced set of
modules reads a biclosed set's chains or an element's chain tops and none
a hemispace sign, only `finite` derives k0, root pairings and reflections
or tests a root's sign (the rest read them off `WeylTable`), only
`affine_group` reads an element's pairings, finite root arithmetic and the
finite Weyl group's operations stay integer, every definition in src/ is
used by the library, its demos or its benchmark, not only by tests, and
every Python file parses as Python 3.10."""

import ast
import importlib
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import twisted_bruhat
from conftest import src_env

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "twisted_bruhat"
SCANNED = ("src", "demos", "bench")
MODULES = sorted(path.name for path in SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_all_exports_resolve():
    """Each name in __all__ is its home module's object, and the lookup
    keeps it in the package namespace."""
    for name in twisted_bruhat.__all__:
        home = importlib.import_module(
            f"twisted_bruhat.{twisted_bruhat._HOME[name]}"
        )
        assert getattr(twisted_bruhat, name) is getattr(home, name), name
        assert vars(twisted_bruhat)[name] is getattr(home, name), name
    with pytest.raises(AttributeError):
        twisted_bruhat.no_such_name
    with pytest.raises(AttributeError):
        twisted_bruhat._private


def test_submodules_resolve_as_attributes():
    for name in ("finite", "affine_group", "biclosed", "orders", "poset",
                 "linprog", "a2", "generic", "topes", "verify", "cli"):
        assert getattr(twisted_bruhat, name) is importlib.import_module(
            f"twisted_bruhat.{name}"
        )


@pytest.mark.parametrize(
    "module, absent",
    [
        ("twisted_bruhat", ("twisted_bruhat.finite", "twisted_bruhat.orders")),
        ("twisted_bruhat.generic", ("dataclasses", "twisted_bruhat.orders")),
        ("twisted_bruhat.cli",
         ("dataclasses", "twisted_bruhat.a2", "twisted_bruhat.generic",
          "twisted_bruhat.topes", "twisted_bruhat.verify")),
    ],
)
def test_cold_import_stays_narrow(module, absent):
    """A fresh interpreter that imports `module` loads none of `absent`:
    the package loads submodules on first use, the CLI imports a
    subcommand's modules in its handler, and `dataclasses` (with its
    `inspect` and `ast`) stays out of src/."""
    code = (
        f"import sys; before = set(sys.modules); import {module}; "
        f"print(sorted(set({absent!r}) & (set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=src_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_records_compare_by_value():
    from twisted_bruhat.generic import INF, CoxeterMatrix, coxeter_2_3_inf

    cm = coxeter_2_3_inf()
    same = CoxeterMatrix(3, ((1, 3, 2), (3, 1, INF), (2, INF, 1)))
    other = CoxeterMatrix(3, ((1, 3, 2), (3, 1, 3), (2, 3, 1)))
    assert cm == same and hash(cm) == hash(same) and cm != other
    assert len({cm, same, other}) == 2
    assert cm != (3, cm.bonds)

    node = twisted_bruhat.PosetNode(key="e", grade=0, label="e")
    edge = twisted_bruhat.PosetEdge("e", "1", "a")
    assert repr(node) == "PosetNode(key='e', grade=0, label='e')"
    assert edge.kind == "strong"
    poset = twisted_bruhat.GradedPoset([node], [edge])
    assert poset == twisted_bruhat.GradedPoset([node], [edge])
    assert poset != twisted_bruhat.GradedPoset([node], [])
    assert twisted_bruhat.GradedPoset() == twisted_bruhat.GradedPoset([], [])


def test_tracer_targets_resolve():
    # read the table without importing the benchmark
    tracer = _tree(ROOT / "bench" / "tracer.py")
    (targets,) = [
        node.value
        for node in tracer.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
    ]
    missing = []
    for modname, clsname, attrs, _layer in ast.literal_eval(targets):
        owner = importlib.import_module(f"twisted_bruhat.{modname}")
        if clsname is not None:
            owner = getattr(owner, clsname)
        missing += [
            (modname, clsname, a) for a in attrs if not hasattr(owner, a)
        ]
    assert not missing


def test_tracer_hook_names_resolve():
    """The tracer's hooks read attributes of live objects: the chain cache
    of an element, a biclosed set's twisted-length caches, and the two
    level bounds that start the cover window.  A rename would break only a
    traced benchmark run."""
    tracer = {
        node.attr if isinstance(node, ast.Attribute) else node.value
        for node in ast.walk(_tree(ROOT / "bench" / "tracer.py"))
        if isinstance(node, ast.Attribute)
        or (isinstance(node, ast.Constant) and isinstance(node.value, str))
    }
    datum = twisted_bruhat.build_system("A2")
    w = twisted_bruhat.identity(datum)
    B = twisted_bruhat.full_positive_biclosed(datum)
    read = [
        (w, "_chains"), (w, "max_inversion_level"),
        (B, "_lB"), (B, "_lBp"), (B, "level_star"),
    ]
    assert {attr for _, attr in read} <= tracer
    assert [attr for obj, attr in read if not hasattr(obj, attr)] == []


@pytest.mark.parametrize("filename", MODULES)
def test_no_assert_in_certificate_checks(filename):
    lines = [
        node.lineno
        for node in ast.walk(_tree(SRC / filename))
        if isinstance(node, ast.Assert)
    ]
    assert not lines, f"{filename} asserts on lines {lines}"


@pytest.mark.parametrize("filename", MODULES)
def test_no_floats(filename):
    """Exact arithmetic only: no float literal or float() call anywhere in
    src/, and no true division in linprog, whose integer tableau relies on
    every `//` being exact."""
    found = []
    for node in ast.walk(_tree(SRC / filename)):
        if isinstance(node, ast.Constant) and isinstance(
            node.value, (float, complex)
        ):
            found.append((node.lineno, "float literal"))
        elif isinstance(node, ast.Call) and getattr(
            node.func, "id", None
        ) == "float":
            found.append((node.lineno, "float()"))
        elif (
            filename == "linprog.py"
            and isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, ast.Div)
        ):
            found.append((node.lineno, "true division"))
    assert not found, f"{filename}: {found}"


def _importers(module):
    """The src/ files that import `module`."""
    return {
        filename
        for filename in MODULES
        for node in ast.walk(_tree(SRC / filename))
        if (isinstance(node, ast.ImportFrom) and node.module == module)
        or (isinstance(node, ast.Import)
            and any(a.name == module for a in node.names))
    }


def test_fraction_imports_are_fenced():
    """Only these modules may import `fractions`: the cone certificates
    (`linprog`), and `finite` for `CartanDatum.coroot` alone, a coroot over
    the simple roots that the benchmark tracer still names; the library
    reads coroots over the simple coroots, in ints."""
    allowed = {"finite.py", "linprog.py"}
    importers = _importers("fractions")
    assert importers <= allowed, sorted(importers - allowed)


def test_chain_format_is_fenced():
    """No module reads a `.sign` attribute: a negated hemispace is the
    hemispace of the complement, not a flag.  Only `biclosed`, `orders` and
    `topes` call `.chains()`, so the pair format (tail, e) stays out of
    `verify`, `a2`, `cli` and `affine_group`."""
    signs, callers = [], set()
    for filename in MODULES:
        for node in ast.walk(_tree(SRC / filename)):
            if isinstance(node, ast.Attribute) and node.attr == "sign":
                signs.append((filename, node.lineno))
            elif isinstance(node, ast.Call) and getattr(
                node.func, "attr", None
            ) == "chains":
                callers.add(filename)
    assert signs == []
    allowed = {"biclosed.py", "orders.py", "topes.py"}
    assert callers <= allowed, sorted(callers - allowed)


def test_chain_tops_are_fenced():
    """Only `affine_group`, `biclosed` and `orders` call `.chain_tops()`:
    affine families are evaluated once (`affine_group.affine_tops`) and
    read as twisted lengths once (`orders.affine_length`), so `verify`
    states claims and keeps no evaluator of its own."""
    callers = {
        filename
        for filename in MODULES
        for node in ast.walk(_tree(SRC / filename))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "chain_tops"
    }
    allowed = {"affine_group.py", "biclosed.py", "orders.py"}
    assert callers <= allowed, sorted(callers - allowed)


def test_finite_root_facts_are_fenced():
    """Only `finite` derives the finite root facts that the other modules
    read off `WeylTable`: no other module spells the lowest level k0 as
    `0 if <sign test>(mu) else 1`, nor calls `.pairing(...)` or
    `.reflect(...)` (the function `biclosed.reflect` is imported by name)."""
    found = []
    for filename in MODULES:
        if filename == "finite.py":
            continue
        for node in ast.walk(_tree(SRC / filename)):
            if (
                isinstance(node, ast.IfExp)
                and isinstance(node.test, ast.Call)
                and getattr(node.body, "value", None) == 0
                and getattr(node.orelse, "value", None) == 1
            ):
                found.append((filename, node.lineno, "k0"))
            elif isinstance(node, ast.Call) and getattr(
                node.func, "attr", None
            ) in ("pairing", "reflect"):
                found.append((filename, node.lineno, node.func.attr))
    assert found == []


def _reads_outside(attr, owner):
    """(module, line) of every read of `.attr` in src/ outside `owner`."""
    return [
        (filename, node.lineno)
        for filename in MODULES
        if filename != owner
        for node in ast.walk(_tree(SRC / filename))
        if isinstance(node, ast.Attribute) and node.attr == attr
    ]


def test_pairings_are_fenced():
    """Only `affine_group` calls an element's private `_pairings()`: the
    other modules read chain tops (`AffineWeylElement.chain_tops`)."""
    assert _reads_outside("_pairings", "affine_group.py") == []


def test_root_sign_is_fenced():
    """Only `finite` reads `.is_positive`: the other modules test a root's
    sign as its lowest level `WeylTable.k0` (0 iff the root is positive)."""
    assert _reads_outside("is_positive", "finite.py") == []


def test_no_dataclasses_in_src():
    """`import dataclasses` pulls in `inspect`, `ast` and `dis` on every
    cold start; records are NamedTuples or plain classes."""
    assert _importers("dataclasses") == set()


def _methods(filename, clsname):
    (cls,) = [
        node
        for node in _tree(SRC / filename).body
        if isinstance(node, ast.ClassDef) and node.name == clsname
    ]
    return {
        item.name: item for item in cls.body if isinstance(item, ast.FunctionDef)
    }


def _names_used(methods, names, banned):
    """(method, line) of every use of a banned name or attribute."""
    return [
        (name, node.lineno)
        for name in names
        for node in ast.walk(methods[name])
        if (isinstance(node, ast.Name) and node.id in banned)
        or (isinstance(node, ast.Attribute) and node.attr in banned)
    ]


def test_root_arithmetic_is_integer():
    """CartanDatum.inner, norm_sq, pairing, reflect and _generate_roots work
    in ints: <v, r^vee> is a Cartan integer for v in the root lattice, so
    none of them touches Fraction or _fr.  Only `coroot` is rational."""
    found = _names_used(
        _methods("finite.py", "CartanDatum"),
        ("inner", "norm_sq", "pairing", "reflect", "_generate_roots"),
        ("Fraction", "_fr"),
    )
    assert not found, found


def test_weyl_group_ops_are_integer():
    """WeylElement.__mul__, inverse and length read the integer tables:
    none of them touches Fraction or _fr, nor sums root images by apply."""
    found = _names_used(
        _methods("finite.py", "WeylElement"),
        ("__mul__", "inverse", "length"),
        ("Fraction", "_fr", "apply"),
    )
    assert not found, found


def test_affine_group_ops_are_integer():
    """AffineWeylElement.__mul__, inverse and _pairings work on the integer
    coroot coordinates through the integer tables: none of them touches
    Fraction, the rational `coroot` or `apply`."""
    found = _names_used(
        _methods("affine_group.py", "AffineWeylElement"),
        ("__mul__", "inverse", "_pairings"),
        ("Fraction", "coroot", "apply"),
    )
    assert not found, found


def _definitions():
    """(module, name, node) of every module-level def/class and public
    method.

    Module-level dunder hooks (a PEP 562 `__getattr__`) are skipped like
    `_`-prefixed methods: the import system calls them, not the code.
    """
    for path in sorted(SRC.glob("*.py")):
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not (
                node.name.startswith("__") and node.name.endswith("__")
            ):
                yield path.stem, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(
                        item, ast.FunctionDef
                    ) and not item.name.startswith("_"):
                        yield path.stem, item.name, item


def _identifiers(tree):
    """Every identifier used (not defined) in an AST.

    String constants count too: the benchmark tracer looks attributes up by
    name.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _references():
    """How often each identifier is used in the scanned trees."""
    return Counter(
        name
        for top in SCANNED
        for path in (ROOT / top).rglob("*.py")
        for name in _identifiers(_tree(path))
    )


#: The only definitions that nothing but tests may call, and why.
TEST_ONLY = {
    "finite.parse_root_name": "inverse of the formatter CartanDatum.root_name",
    "poset.parse_jsonl": "inverse of the formatter GradedPoset.to_jsonl",
    "a2.root_translation": "the paper's (k1, k2) parameterisation of t_v",
    "a2.translation_inversion": "N(t_v) in the paper's (k1, k2) parameters",
}


def test_every_definition_is_used():
    """References from tests/ do not count: an oracle that only a test
    calls lives in that test.  Nor do references inside the definition's
    own body, such as a recursive call.  The allow-list stays exact."""
    refs = _references()
    dead = {
        f"{mod}.{name}"
        for mod, name, node in _definitions()
        if refs[name] == sum(ref == name for ref in _identifiers(node))
    }
    assert sorted(dead - TEST_ONLY.keys()) == [], "used only by tests"
    assert sorted(TEST_ONLY.keys() - dead) == [], "stale allow-list entry"


@pytest.mark.parametrize("top", ("src", "tests", "bench", "demos"))
def test_parses_as_python_3_10(top):
    """pyproject.toml requires Python >= 3.10, so no file may use newer
    syntax, such as `except*`: each parses with the 3.10 grammar."""
    paths = sorted((ROOT / top).rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(
            path.read_text(encoding="utf-8"),
            filename=str(path),
            feature_version=(3, 10),
        )
