"""Exact computation and verification engine for graded chain complexes
with circle actions: S_U / E_Y functors, Koszul duality checks, balanced
flavor assembly with mapping cones, filtered Laurent complexes, and
connected-sum product complexes — all in exact arithmetic.

The public surface is ``_EXPORTS`` (module -> public names) and the
command line, ``python -m artifact.cli``.  Every other function, method
and class is here because a command or an exported name runs it, the
benchmark reads it, or the benchmark's tracer (``perfbench/tracing.py``)
wraps it by attribute; an ``ast`` guard in ``tests/test_records.py``
keeps it so, and code that only tests use lives in ``tests/helpers.py``.

Importing the package loads none of its modules.  Each public name, and
each engine module named as an attribute, is loaded on first access
(PEP 562) and kept, so a CLI job pays only for the modules its command
runs."""

from importlib import import_module

_EXPORTS = {
    "exactlin": ("AbelianGroup", "IntMatrix", "snf", "solve"),
    "chain": ("ChainComplex", "Check", "CheckReport", "GradedMap",
              "GradedModule", "HomologyTable", "PMorphism", "cone",
              "homology", "induced_on_homology", "tensor", "validate",
              "verify_exact_at"),
    "circle": ("ALL_FLAVORS", "Flavor", "HAT", "INFINITY", "MINUS", "PLUS",
               "ShiftReport", "Window", "e1_page", "e_y", "e_y_map",
               "fundamental_sequences", "koszul_a", "koszul_b", "s_u",
               "s_u_map", "safe_degrees"),
    "flavors": ("AssemblyInconsistent", "BalancedComponents", "FlavorBundle",
                "FourFlavors", "LadderReport", "TowerParams", "assemble",
                "cone_identities", "cone_total", "four_flavors",
                "ladder_check", "point_tower", "tower_model"),
    "connsum": ("ConnSumMaps", "FilteredComplex", "PositivityViolated",
                "SumInput", "case1_check", "case2_check", "check_positivity",
                "cm_flavors", "product_complex", "verify_sum_maps"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__),
                                      name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
