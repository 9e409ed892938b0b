"""Partial complex Hadamard matrices: construction and analysis.

Constructors for Fourier-type, deformed, and Gauss-sum matrices; defect
computation by several independent routes with isolation certificates;
root-of-unity regularity of row-pair vanishing sums; and the partial
permutation semigroups generated by rank-one projection grids.
"""

# set before the submodule imports: catalog reads it
__version__ = "0.1.0"

from .errors import (ConsistencyError, InvalidInputError, MatrixFormatError,
                     SearchBudgetExceeded)
from .phases import PhaseEntry, parse_phase
from .matrix import (PHMatrix, VerificationReport, apply_equivalence, dephase,
                     dephase_at, detect_butson, ensure_verified, row_quotient,
                     tensor_product, verify_partial_hadamard)
from .constructors import (DitaParams, MasterSpec, dita_deformation, f22q,
                           f22q_master_spec, fourier_cyclic, fourier_group,
                           group_elements, group_index, master_dita,
                           master_matrix, normalize_row_subset, petrescu,
                           truncated_fourier)
from .defect import (DefectReport, IsolationCertificate, defect, defect_exact,
                     defect_master, defect_split_truncated_fourier,
                     defect_via_extension, fourier_defect_formula,
                     cyclic_defect_closed_form, count_one_entries,
                     isolation_certificate, numerical_rank,
                     real_truncation_defect_formula, truncation_probe,
                     unitary_completion)
from .regularity import (CycleDecomposition, EquivalenceProfile,
                         IntegerCycleDecomposition, cycle_decompose,
                         cycle_decompose_integer, cycle_structure_profile,
                         equivalence_profile, is_regular,
                         lam_leung_length_admissible, term_multiset,
                         weak_isolation_probe)
from .mcnulty_weigert import (CirculantVector, MWSpec,
                              arithmetic_isolation_probe, gauss_vector,
                              gauss_vector_closed, gauss_vector_direct,
                              is_odd_prime, legendre_symbol, mub_family,
                              mub_unitary, mw_construct,
                              quadratic_diagonal_exponents)
from .semigroup import (MomentMatrix, MomentReport, PartialPermutation,
                        PreLatinSquare, SemigroupClosure, classicality_test,
                        compose, cyclic_moment_oracle, extract_semigroup,
                        interval_shift_maps, moment, moment_matrix,
                        pre_latin_square, predicted_truncated_semigroup,
                        semigroup_closure, sigma_from_square, square_closure,
                        verify_submagic)
from .io import (dumps_phm, from_document, load_phm, loads_phm, save_phm,
                 to_document)
from .catalog import (CatalogRecord, append_record, catalog_path,
                      content_hash, read_records)
from .schemas import CATALOG_RECORD_SCHEMA, PHM_V1_SCHEMA, RESULT_SCHEMA
