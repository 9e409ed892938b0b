"""Partial complex Hadamard matrices: construction and analysis.

Constructors for Fourier-type, deformed, and Gauss-sum matrices; defect
computation by several independent routes with isolation certificates;
root-of-unity regularity of row-pair vanishing sums; and the partial
permutation semigroups generated by rank-one projection grids.

The public names below are bound on first use (PEP 562): reading any of
them imports every module and binds every name at once.  Reading
``__version__`` or a submodule (``import hadlab.cli``) loads nothing
else, so a command line process imports only the modules it runs.
"""

import sys
import types

# set before any submodule is imported: catalog reads it
__version__ = "0.1.0"

# module -> the public names the package binds from it
_PUBLIC = {
    "errors": ("ConsistencyError", "InvalidInputError", "MatrixFormatError",
               "SearchBudgetExceeded"),
    "phases": ("PhaseEntry", "parse_phase"),
    "matrix": ("PHMatrix", "VerificationReport", "apply_equivalence",
               "dephase", "dephase_at", "detect_butson", "ensure_verified",
               "row_quotient", "tensor_product", "verify_partial_hadamard"),
    "constructors": ("DitaParams", "MasterSpec", "dita_deformation", "f22q",
                     "f22q_master_spec", "fourier_cyclic", "fourier_group",
                     "group_elements", "group_index", "master_dita",
                     "master_matrix", "normalize_row_subset", "petrescu",
                     "truncated_fourier"),
    "defect": ("DefectReport", "IsolationCertificate", "defect",
               "defect_exact", "defect_master",
               "defect_split_truncated_fourier", "defect_via_extension",
               "fourier_defect_formula", "cyclic_defect_closed_form",
               "count_one_entries", "isolation_certificate",
               "numerical_rank", "real_truncation_defect_formula",
               "truncation_probe", "unitary_completion"),
    "regularity": ("CycleDecomposition", "EquivalenceProfile",
                   "IntegerCycleDecomposition", "cycle_decompose",
                   "cycle_decompose_integer", "cycle_structure_profile",
                   "equivalence_profile", "is_regular",
                   "lam_leung_length_admissible", "term_multiset",
                   "weak_isolation_probe"),
    "mcnulty_weigert": ("CirculantVector", "MWSpec",
                        "arithmetic_isolation_probe", "gauss_vector",
                        "gauss_vector_closed", "gauss_vector_direct",
                        "is_odd_prime", "legendre_symbol", "mub_family",
                        "mub_unitary", "mw_construct",
                        "quadratic_diagonal_exponents"),
    "semigroup": ("MomentMatrix", "MomentReport", "PartialPermutation",
                  "PreLatinSquare", "SemigroupClosure", "classicality_test",
                  "compose", "cyclic_moment_oracle", "extract_semigroup",
                  "interval_shift_maps", "moment", "moment_matrix",
                  "pre_latin_square", "predicted_truncated_semigroup",
                  "semigroup_closure", "sigma_from_square", "square_closure",
                  "verify_submagic"),
    "io": ("dumps_phm", "from_document", "load_phm", "loads_phm", "save_phm",
           "to_document"),
    "catalog": ("CatalogRecord", "append_record", "catalog_path",
                "content_hash", "read_records"),
    "schemas": ("CATALOG_RECORD_SCHEMA", "PHM_V1_SCHEMA", "RESULT_SCHEMA"),
}
# read by ``from hadlab import *``, which then binds each name through
# __getattr__
__all__ = [n for names in _PUBLIC.values() for n in names]
_NAMES = frozenset(__all__)
_MODULES = frozenset(_PUBLIC) | {"cyclotomic", "cli"}


def _submodule(name: str):
    """hadlab.<name>, imported by the import statement's machinery, so that
    ``python -X importtime`` lists it (importlib.import_module bypasses it)."""
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    """A public name not bound yet: bind them all.  A submodule not
    imported yet: import it alone."""
    if name in _NAMES:
        for module, names in _PUBLIC.items():
            loaded = _submodule(module)
            globals().update((n, getattr(loaded, n)) for n in names)
        return globals()[name]
    if name in _MODULES:
        return _submodule(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Package(types.ModuleType):
    """The package's class: the import system binds each submodule it
    loads on the package, but a public name that is also a submodule's
    (the function ``defect``) is left unbound, so reading it goes to
    __getattr__ and gives the function, as the eager import did."""

    def __setattr__(self, name: str, value) -> None:
        if not (name in _NAMES and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
