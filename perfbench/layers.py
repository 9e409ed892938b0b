"""The layers the traced run times, and what each layer should move.

A layer is one module of ``src/hadlab``.  Every entry below names a public
callable of that module; the traced run wraps it and reports
``<module>.<function>.calls``, ``.busy_s`` and ``.self_s`` per pass, plus
the counts listed for it.  ``moves`` is the end-to-end metric and workload
a faster version of the layer should change, and ``steady`` the pairings
that should stay put.  Performance changes cite these names.
"""

from __future__ import annotations

from hadlab.errors import InvalidInputError, SearchBudgetExceeded

# module -> (callables, moves, steady)
LAYERS = {
    "defect": (
        ("tangent_system", "numerical_rank", "defect", "defect_via_extension",
         "defect_split_truncated_fourier", "defect_master",
         "isolation_certificate"),
        "wall_s and op_ms.p90 on certify",
        "wall_s on structure"),
    "cyclotomic": (
        ("exact_defect_butson", "exact_vanishing"),
        "wall_s on certify; op_ms.p90 on cli through isolated",
        "wall_s on structure"),
    "regularity": (
        ("cycle_decompose", "cycle_decompose_integer",
         "cycle_structure_profile"),
        "wall_s and decided_ratio on structure",
        "wall_s on certify"),
    "semigroup": (
        ("ProjectionGrid", "classicality_test", "pre_latin_square",
         "semigroup_closure", "moment_matrix", "moment"),
        "wall_s and peak_rss_mb on structure",
        "wall_s on certify"),
    "matrix": (
        ("verify_partial_hadamard", "detect_butson", "PHMatrix.to_array"),
        "op_ms.p50 on cli; setup_s everywhere", ""),
    "io": (
        ("dumps_phm", "loads_phm"),
        "op_ms.p50 on cli; setup_s everywhere", ""),
    "catalog": (
        ("append_record",),
        "op_ms.p50 on cli; setup_s everywhere", ""),
    "constructors": (
        ("fourier_cyclic", "fourier_group", "truncated_fourier",
         "dita_deformation", "f22q", "petrescu", "master_matrix"),
        "op_ms.p50 on cli; setup_s everywhere", ""),
    "mcnulty_weigert": (
        ("mw_construct", "arithmetic_isolation_probe"),
        "op_ms.p50 on cli; setup_s everywhere", ""),
    "cli": (
        ("run_command",),
        "op_ms.p50 on cli; setup_s everywhere", ""),
}

# Extra per-call counts: (module, callable) -> {count name: hook}.  A hook
# gets (args, kwargs, result, error) and returns the amount to add.


def _svd_cells(args, kwargs, result, error):
    return int(args[0].size)


def _svd_bytes(args, kwargs, result, error):
    return int(args[0].nbytes)


def _exact_certificate(args, kwargs, result, error):
    return int(result is not None and result.exact)


def _refused(args, kwargs, result, error):
    return int(isinstance(error, InvalidInputError))


def _budget_exhausted(args, kwargs, result, error):
    return int(isinstance(error, SearchBudgetExceeded))


def _pairs(args, kwargs, result, error):
    return len(result) if result is not None else 0


def _elements(args, kwargs, result, error):
    return result.size if result is not None else 0


def _entries(args, kwargs, result, error):
    return int(result.matrix.size) if result is not None else 0


def _text_out(args, kwargs, result, error):
    return len(result.encode("utf-8")) if result is not None else 0


def _text_in(args, kwargs, result, error):
    return len(args[0].encode("utf-8"))


COUNTS = {
    ("defect", "numerical_rank"): {"cells": _svd_cells, "bytes": _svd_bytes},
    ("defect", "isolation_certificate"): {"exact": _exact_certificate},
    ("cyclotomic", "exact_defect_butson"): {"refused": _refused},
    ("regularity", "cycle_decompose"): {"budget_exhausted": _budget_exhausted},
    ("regularity", "cycle_structure_profile"): {"pairs": _pairs},
    ("semigroup", "semigroup_closure"): {"elements": _elements},
    ("semigroup", "moment_matrix"): {"entries": _entries},
    ("io", "dumps_phm"): {"bytes": _text_out},
    ("io", "loads_phm"): {"bytes": _text_in},
}

def metric_units() -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for module, (callables, _, _) in LAYERS.items():
        for name in callables:
            base = f"{module}.{name}"
            units[base + ".calls"] = "count"
            units[base + ".busy_s"] = "s"
            units[base + ".self_s"] = "s"
            for count in COUNTS.get((module, name), {}):
                if count == "exact":
                    units[base + ".exact_ratio"] = "ratio"
                else:
                    units[f"{base}.{count}"] = "B" if count == "bytes" else "count"
    units["cli.startup_ms"] = "ms"
    units["trace.overhead_ratio"] = "ratio"
    return units
