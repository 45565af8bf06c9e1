"""Exact-arithmetic twisted strong and weak Bruhat orders on affine Weyl
groups, with the rank-2 alcove order worked in closed form, a (2,3,inf)
Coxeter backend, and the tope poset of the affine oriented matroid.

Submodules load on first use: ``import twisted_bruhat`` imports none of
them.  The first lookup of a name in ``__all__`` imports its home module
and keeps the value here, so later lookups are plain attribute reads; a
submodule name (``twisted_bruhat.orders``) imports that submodule.  In
the same way each ``twisted-bruhat`` subcommand imports only the modules it
uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: Each public name and the submodule that defines it.
_HOME = {
    "CartanDatum": "finite",
    "WeylElement": "finite",
    "build_system": "finite",
    "AffineWeylElement": "affine_group",
    "from_word": "affine_group",
    "identity": "affine_group",
    "inversion_set": "affine_group",
    "reflection": "affine_group",
    "simple_reflections": "affine_group",
    "translation": "affine_group",
    "BiclosedSet": "biclosed",
    "dot_action": "biclosed",
    "empty_biclosed": "biclosed",
    "format_biclosed": "biclosed",
    "from_inversion_set": "biclosed",
    "full_positive_biclosed": "biclosed",
    "parse_biclosed": "biclosed",
    "covers": "orders",
    "downset_corank": "orders",
    "interval": "orders",
    "lower_covers": "orders",
    "strong_leq": "orders",
    "twisted_length_left": "orders",
    "twisted_length_right": "orders",
    "upper_covers": "orders",
    "weak_chain": "orders",
    "weak_leq": "orders",
    "GradedPoset": "poset",
    "PosetEdge": "poset",
    "PosetNode": "poset",
}

__all__ = sorted(_HOME)


def __getattr__(name):
    home = _HOME.get(name)
    if home is not None:
        value = getattr(_import_module(f"{__name__}.{home}"), name)
        globals()[name] = value
        return value
    if not name.startswith("_"):
        try:
            return _import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
