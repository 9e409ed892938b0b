"""Tangent-space dimension (defect) of partial Hadamard matrices.

The defect counts the real degrees of freedom of first-order deformations
that keep all rows orthogonal and all entries unimodular, M*N minus the
rank of the tangent system.  It is bounded below by M + N - 1 (the trivial
row/column phase deformations), and equality certifies that the matrix is
isolated up to equivalence.

Four independent routes are implemented: the direct tangent system, an
extension system through a unitary completion, an exact count for row
truncations S of group Fourier matrices (from the difference set S - S and
the components of the graphs g ~ g+d on S), and a character-sum system for
matrices given in eigenphase/exponent form.  They must agree; disagreement
raises ConsistencyError rather than returning a number.

Exact answers for Butson-type input (defect_exact, isolation_certificate)
first test for a character matrix: dephased at (0, 0), its exponent
columns form a subgroup K of Z_l^M, so its rows are characters of K and
the same count applies ("character-exact").  Other Butson input is ranked
modulo split primes ("direct-exact", or "direct-modp" for a bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .constructors import (MasterSpec, group_elements, master_matrix,
                           normalize_row_subset, truncated_fourier,
                           _check_orders)
from .cyclotomic import (PROOF_CAP, _dephased, _distinct_rows, _prime_factors,
                         exact_defect_butson, split_primes)
from .errors import (DEFAULT_CONFIDENCE, ConsistencyError, InvalidInputError,
                     integer)
from .matrix import PHMatrix, detect_butson, ensure_verified
from .phases import BUTSON_ORDER_CAP, ExactPhases


@dataclass(frozen=True)
class RankResult:
    rank: int
    smallest_kept: Optional[float]
    largest_dropped: Optional[float]
    gap_ratio: float


def numerical_rank(mat: np.ndarray, tol: float = 1e-9) -> RankResult:
    """SVD rank with the spectral-gap diagnostic.

    Threshold is tol * sigma_max * max(shape).  gap_ratio compares the
    smallest kept singular value to the largest dropped one; +inf when
    nothing was dropped (or everything was), which counts as confident.
    """
    if mat.size == 0 or mat.shape[0] == 0:
        return RankResult(0, None, None, math.inf)
    s = np.linalg.svd(mat, compute_uv=False)
    smax = float(s[0])
    if smax == 0.0:
        return RankResult(0, None, None, math.inf)
    thresh = tol * smax * max(mat.shape)
    rank = int(np.sum(s > thresh))
    smallest_kept = float(s[rank - 1]) if rank > 0 else None
    largest_dropped = float(s[rank]) if rank < len(s) else None
    if largest_dropped is None or largest_dropped == 0.0 or rank == 0:
        gap = math.inf
    else:
        gap = smallest_kept / largest_dropped
    return RankResult(rank, smallest_kept, largest_dropped, gap)


@dataclass(frozen=True)
class DefectReport:
    defect: int
    method: str
    bound: int                      # M + N - 1, the generic lower bound
    unknowns: int
    rank: int
    gap_ratio: float
    smallest_kept: Optional[float]
    largest_dropped: Optional[float]
    tolerance: float
    confidence: float
    ambiguous: bool
    exact: bool = False
    breakdown: Optional[dict] = None


def real_rows(a: np.ndarray, b: Optional[np.ndarray] = None) -> tuple:
    """The real and the imaginary rows of the complex equations
    a x + b conj(x) = 0, one equation per row of a and b.

    With x = u + iv the real part is Re(a+b) u + Im(b-a) v and the
    imaginary part Im(a+b) u + Re(a-b) v, over the columns (u, v).  Without
    b the unknowns are real, x = u, and the rows are Re a and Im a.  The
    sums are the exact floats the one-term-at-a-time expansion gives, and
    adding 0.0 turns each -0.0 into the 0.0 it would accumulate to.
    """
    if b is None:
        return a.real, a.imag
    s, d = a + b, a - b
    return np.hstack([s.real, -d.imag]) + 0.0, np.hstack([s.imag, d.real]) + 0.0


def tangent_system(h: PHMatrix) -> np.ndarray:
    """Complex tangent constraints, one row per unordered row pair.

    Unknowns are the M*N real phase directions A_ik (column index i*N + k);
    the pair (i, j) contributes sum_k H_ik conj(H_jk) (A_ik - A_jk) = 0.
    """
    z = h.to_array()
    m, n = h.m, h.n
    iu, ju = np.triu_indices(m, 1)
    w = z[iu] * np.conj(z[ju])
    sys = np.zeros((len(iu), m, n), dtype=np.complex128)
    at = np.arange(len(iu))
    sys[at, iu] = w
    sys[at, ju] = -w
    return sys.reshape(len(iu), m * n)


def _report(method: str, h_shape: Tuple[int, int], unknowns: int, rr: RankResult,
            tol: float, confidence: float, exact: bool = False,
            breakdown: Optional[dict] = None) -> DefectReport:
    m, n = h_shape
    d = unknowns - rr.rank
    ambiguous = (not exact) and rr.gap_ratio < confidence
    rep = DefectReport(
        defect=d, method=method, bound=m + n - 1, unknowns=unknowns,
        rank=rr.rank, gap_ratio=rr.gap_ratio, smallest_kept=rr.smallest_kept,
        largest_dropped=rr.largest_dropped, tolerance=tol,
        confidence=confidence, ambiguous=ambiguous, exact=exact,
        breakdown=breakdown)
    if not rep.ambiguous and d < rep.bound:
        raise ConsistencyError(
            f"computed defect {d} under the lower bound {rep.bound}; the "
            f"input cannot be partial Hadamard at this tolerance")
    return rep


def defect(h: PHMatrix, tol: float = 1e-9,
           confidence: float = DEFAULT_CONFIDENCE) -> DefectReport:
    """Defect from the direct tangent system."""
    ensure_verified(h, tol)
    if h.m == 1:
        rr = RankResult(0, None, None, math.inf)
        return _report("direct", h.shape, h.n, rr, tol, confidence, exact=True)
    real_sys = np.vstack(real_rows(tangent_system(h)))
    rr = numerical_rank(real_sys, tol)
    return _report("direct", h.shape, h.m * h.n, rr, tol, confidence)


def _butson_report(h: PHMatrix) -> Optional[DefectReport]:
    """Exact report for Butson-type input, or None.

    Method "character-exact" when H is a character matrix
    (_character_report), else from the ranks modulo split primes,
    "direct-exact" when they prove the defect and "direct-modp" when they
    only bound it.  An exact matrix takes the character test at its stored
    order, whatever that is, and then the modular route when that order
    has a usable split prime (``split_primes``).  None when neither
    applies.
    """
    table = detect_butson(h)
    if table is None:
        return None
    rep = _character_report(h, table)
    if rep is not None or not split_primes(table.order):
        return rep
    res = exact_defect_butson(table.exp, table.order)
    breakdown = {"butson_order": table.order, "route": res.route,
                 "primes": list(res.primes), "ranks": list(res.ranks),
                 "reductions": len(res.primes),
                 "symmetry_order": res.symmetry_order}
    if res.symmetry_order > 1:
        breakdown["block_ranks"] = list(res.block_ranks)
    if not res.exact:
        breakdown.update(reductions_needed=res.needed, reduction_cap=PROOF_CAP)
    rr = RankResult(h.m * h.n - res.defect, None, None, math.inf)
    return _report("direct-exact" if res.exact else "direct-modp", h.shape,
                   h.m * h.n, rr, 0.0, math.inf, exact=res.exact,
                   breakdown=breakdown)


def defect_exact(h: PHMatrix) -> DefectReport:
    """Exact defect of a Butson-type matrix: the character count when H is
    a character matrix, else ranks modulo split primes, whose proof must
    close within PROOF_CAP reductions."""
    ensure_verified(h)
    rep = _butson_report(h)
    if rep is None:
        l = h.common_butson_order()
        raise InvalidInputError(
            f"no root-of-unity form of order <= {BUTSON_ORDER_CAP} found; "
            f"exact defect needs a Butson-type matrix" if l is None else
            f"the matrix has root-of-unity order {l} and is not a character "
            f"matrix; no split prime p = 1 (mod {l}) lies in the exact float64 range")
    if not rep.exact:
        raise InvalidInputError(
            f"exact defect needs {rep.breakdown['reductions_needed']} "
            f"reductions, over the cap of {PROOF_CAP}; one prime bounds it "
            f"by {rep.defect}")
    return rep


# -- extension route ---------------------------------------------------------

def unitary_completion(h: PHMatrix, seed: Optional[int] = None) -> np.ndarray:
    """An N x N matrix K with K K* = N I whose first M rows are H.

    The missing rows span the orthogonal complement of the row space; with a
    seed they are mixed by a random unitary, giving a different but equally
    valid completion.
    """
    ensure_verified(h)
    z = h.to_array() / math.sqrt(h.n)
    if h.m == h.n:
        return h.to_array().copy()
    _, _, vh = np.linalg.svd(z, full_matrices=True)
    comp = vh[h.m:]
    if seed is not None:
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(comp.shape[0], comp.shape[0])) \
            + 1j * rng.normal(size=(comp.shape[0], comp.shape[0]))
        q, r = np.linalg.qr(g)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        comp = q @ comp
    k = np.vstack([z, comp]) * math.sqrt(h.n)
    resid = np.max(np.abs(k @ np.conj(k.T) - h.n * np.eye(h.n)))
    if resid > 1e-8 * h.n:
        raise ConsistencyError(f"completion failed, unitarity residual {resid:.3g}")
    return k


def extension_system(h: PHMatrix, k: np.ndarray) -> np.ndarray:
    """Real constraint matrix for deformations through a completion.

    Unknowns: a Hermitian M x M block X and a free complex M x (N-M) block
    Y, as M*M + 2*M*(N-M) reals: the diagonal of X, then (Re, Im) of X_ab
    for a < b, then of each Y_ib.  Each matrix position gives one row,
    Im((E K)_ij conj(H_ij)) = 0 for E = (X Y), whose complex unknowns are
    the entries E_iu at u >= i, read as conj(E_ui) at u < i.
    """
    m, n = h.m, h.n
    c = np.conj(h.to_array())[:, :, None] * k.T     # c[i, j, u] = K_uj conj(H_ij)
    # the rule's columns i*n + u and m*n + i*n + u are Re and Im of E_iu
    xa, xb = np.triu_indices(m, 1)
    x = xa * n + xb
    y = (np.arange(m)[:, None] * n + np.arange(m, n)).ravel()
    cols = np.concatenate([np.arange(m) * (n + 1),
                           np.stack([x, x + m * n], axis=1).ravel(),
                           np.stack([y, y + m * n], axis=1).ravel()])
    rows = np.empty((m * n, len(cols)))
    # the equations of row i of H meet only row i of E and column i of X
    for i in range(m):
        a = np.zeros((n, m, n), dtype=np.complex128)
        b = np.zeros_like(a)
        a[:, i, i:] = c[i, :, i:]
        b[:, :i, i] = c[i, :, :i]
        _, im = real_rows(a.reshape(n, m * n), b.reshape(n, m * n))
        rows[i * n:(i + 1) * n] = im[:, cols]
    return rows


def defect_via_extension(h: PHMatrix, tol: float = 1e-9,
                         confidence: float = DEFAULT_CONFIDENCE,
                         seed: Optional[int] = None) -> DefectReport:
    """Defect from the completion route; agrees with the direct system."""
    ensure_verified(h, tol)
    k = unitary_completion(h, seed=seed)
    sys = extension_system(h, k)
    rr = numerical_rank(sys, tol)
    nu = h.m * h.m + 2 * h.m * (h.n - h.m)
    return _report("extension", h.shape, nu, rr, tol, confidence,
                   breakdown={"completion_seeded": seed is not None})


# -- character count ------------------------------------------------------------

def _character_count(vectors, orders) -> Tuple[int, int]:
    """|F| for F = S - S, and m + sum of w_d c_d over one d from each pair
    {d, -d} with d != 0 in F, for the m distinct rows of ``vectors`` read
    as elements S of the group with the given coordinate ``orders`` (one
    order serves every coordinate).  c_d counts the components of the graph
    on S with edges g ~ g+d, and w_d is 1 when 2d = 0 and 2 otherwise.

    The graphs for d and -d are the same, so the sum is that of c_d over
    all of F, with c_0 = m.  Read as the partial injective map g -> g+d,
    each graph is a union of paths and of cycles, the cosets of <d> inside
    S, so c_d = m - e_d + z_d with e_d the pairs at difference d and z_d
    those cosets.  A row lies on a cycle when repeated steps never leave S.
    """
    s = np.asarray(vectors, dtype=np.int64)
    orders = np.asarray(orders, dtype=np.int64)
    m, c = s.shape
    diffs = ((s[:, None, :] - s[None, :, :]) % orders).reshape(m * m, c)
    first, label = _distinct_rows(diffs, orders)
    elements = diffs[first]
    label = label.reshape(m, m)              # label[i, j] names S_i - S_j
    # step[d, j] = i when S_j + d = S_i; index m absorbs the steps out of S
    step = np.full((len(elements), m + 1), m)
    step[label, np.arange(m)] = np.arange(m)[:, None]
    reach = 1
    while reach < m:
        step = np.take_along_axis(step, step, axis=1)
        reach *= 2
    on_cycle = np.count_nonzero(step[:, :m] < m, axis=1)
    coset = np.lcm.reduce(orders // np.gcd(elements, orders), axis=1,
                          initial=1)
    pairs = np.bincount(label.ravel(), minlength=len(elements))
    components = m - pairs + on_cycle // coset
    return len(elements), int(components.sum())


def _character_report(h: PHMatrix, table: ExactPhases) -> Optional[DefectReport]:
    """Exact defect of a character matrix, or None when H is not one.

    Dephased at (0, 0), the exponent columns of H are elements of Z_l^M.
    When the distinct ones form a subgroup K, row i is the character
    k -> k_i of K, and the tangent constraints see each row's directions
    only through their sums over columns with equal values.  So the
    defect is M(N - |K|) plus that of the rows S of F_K, M(|K| - |F|) plus
    the count of _character_count, whatever the column multiplicities.

    The test grows the span of a generating set inside K: each element
    outside the span so far joins the set, after K + g is checked to lie
    in K.  Once the span is K, K is closed under adding its generators,
    hence a subgroup, and the characters are read on the generators alone.
    """
    # K has exponent at most |K| <= N, and the entries generate gZ_l of
    # order l/g, which divides it; dividing by g maps gZ_l onto Z_(l/g)
    t = ExactPhases(_dephased(table.exp, 0, 0, table.order), table.order).reduced()
    l = t.order
    if l > h.n:
        return None
    e = t.exp.astype(np.int64)
    group = e.T[_distinct_rows(e.T, l)[0]]
    k = len(group)
    spanned = ~group.any(axis=1)
    generators = []
    for g in range(k):
        if spanned[g]:
            continue
        shifted = (group + group[g]) % l
        label = _distinct_rows(np.vstack([group, shifted]), l)[1]
        if label.max() >= k:
            return None
        index = np.empty(k, dtype=np.int64)
        index[label[:k]] = np.arange(k)
        shift = index[label[k:]]             # group[shift[a]] = group[a] + g
        generators.append(g)
        size = 0
        while size != np.count_nonzero(spanned):
            size = np.count_nonzero(spanned)
            spanned[shift[spanned]] = True
    differences, image = _character_count(group[generators].T, l)
    d = h.m * (h.n - differences) + image
    rr = RankResult(h.m * h.n - d, None, None, math.inf)
    return _report("character-exact", h.shape, h.m * h.n, rr, 0.0, math.inf,
                   exact=True,
                   breakdown={"butson_order": table.order, "route": "character",
                              "differences": differences,
                              "column_group_order": k})


def defect_split_truncated_fourier(rows: Sequence, orders: Sequence[int],
                                   tol: float = 1e-9,
                                   confidence: float = DEFAULT_CONFIDENCE) -> DefectReport:
    """Exact defect of a row truncation S of a group Fourier matrix, by
    counting, cross-checked against the direct tangent system.

    Write P_g(h) for the Fourier transform of tangent row g at frequency h,
    with m = |S|, n = |G| and F = S - S.  Directions with P_g = 0 on F are
    free, which gives the kernel m(n - |F|).  On F the rows g, g' tie only
    P_g(g - g') to P_g'(g - g'), and realness ties P_g(-d) to conj P_g(d),
    so the admissible image has dimension m + sum of w_d c_d (see
    _character_count).  The defect is their sum; for S = G it is
    fourier_defect_formula.  tol and confidence feed only the direct guard,
    which raises ConsistencyError when it confidently disagrees.
    """
    orders = _check_orders(orders)
    subset = normalize_row_subset(rows, orders)
    h = truncated_fourier(subset, orders)
    m, n = h.shape
    differences, dim_i = _character_count(subset, orders)
    dim_k = m * (n - differences)
    d = dim_k + dim_i
    direct = defect(h, tol, confidence)
    if d != direct.defect and not direct.ambiguous:
        raise ConsistencyError(
            f"split defect {d} disagrees with direct defect "
            f"{direct.defect} for rows {subset} of orders {orders}")
    rr = RankResult(m * n - d, None, None, math.inf)
    return _report("split", (m, n), m * n, rr, 0.0, math.inf, exact=True,
                   breakdown={"dim_kernel": dim_k, "dim_image_admissible": dim_i,
                              "differences": differences,
                              "direct_defect": direct.defect})


# -- eigenphase/exponent route ------------------------------------------------

def master_system(spec: MasterSpec) -> np.ndarray:
    """Real rows of the character-sum systems of a square eigenphase/exponent
    table, real then imaginary part of each equation in turn.

    Unknowns are the complex coefficients B_is = x_is + i y_is of tangent
    row i on the basis function k -> e^{-i t_s n_k}, as the reals x (column
    i*N + s) and then y.  Realness asks N conj(B_ia) = (B L)_ia with
    L_sa = sum_k e^{-i (t_s + t_a) n_k}, one equation per (i, a); the
    perturbed rows i != j stay orthogonal when
    sum_s r_s (B_is - B_js) = 0 with r_s = sum_k e^{i (t_i - t_j - t_s) n_k}.
    """
    n = spec.m
    t = [2.0 * math.pi * float(v) for v in spec.angle_turns()]
    ell = np.array([[spec.char_sum(-(t[s] + t[a])) for a in range(n)]
                    for s in range(n)])
    ii, jj = np.nonzero(~np.eye(n, dtype=bool))
    r = np.array([[spec.char_sum(t[i] - t[j] - t[s]) for s in range(n)]
                  for i, j in zip(ii, jj)]).reshape(len(ii), n)
    at = np.arange(n)
    eq = np.arange(n * n + len(ii))             # realness (i, a) at i*N + a
    a = np.zeros((len(eq), n, n), dtype=np.complex128)    # a[equation, i, s]
    b = np.zeros_like(a)
    a[eq[:n * n].reshape(n, n), at[:, None]] = -ell.T
    b[eq[:n * n].reshape(n, n), at[:, None], at] = n
    a[eq[n * n:], ii] = r
    a[eq[n * n:], jj] = -r
    re, im = real_rows(a.reshape(len(eq), n * n), b.reshape(len(eq), n * n))
    return np.stack([re, im], axis=1).reshape(2 * len(re), 2 * n * n)


def defect_master(spec: MasterSpec, tol: float = 1e-9,
                  confidence: float = DEFAULT_CONFIDENCE) -> DefectReport:
    """Defect straight from an eigenphase/exponent table.

    Tangent rows are expanded over the basis functions k -> e^{-i t_s n_k}
    (orthogonal because the matrix is Hadamard with distinct eigenphases),
    turning realness and orthogonality of directions into character-sum
    systems (master_system).  Cross-checked against the direct tangent
    system of the materialized matrix.
    """
    if spec.m != spec.n:
        raise InvalidInputError(
            "eigenphase/exponent defect needs a square table")
    nsz = spec.m
    h = master_matrix(spec)
    ensure_verified(h, tol)
    turns = np.array([float(x) for x in spec.angle_turns()])
    iu, ju = np.triu_indices(nsz, 1)
    if (np.abs(turns[iu] - turns[ju]) < 1e-12).any():
        raise InvalidInputError("eigenphases must be pairwise distinct")
    rr = numerical_rank(master_system(spec), tol)
    d = 2 * nsz * nsz - rr.rank

    direct = defect(h, tol, confidence)
    ambiguous = rr.gap_ratio < confidence
    if d != direct.defect and not ambiguous and not direct.ambiguous:
        raise ConsistencyError(
            f"eigenphase/exponent defect {d} disagrees with direct defect "
            f"{direct.defect}")
    return _report("master", (nsz, nsz), 2 * nsz * nsz, rr, tol, confidence,
                   breakdown={"direct_defect": direct.defect})


# -- closed forms and certificates --------------------------------------------

def fourier_defect_formula(orders: Sequence[int]) -> int:
    """Defect of a group Fourier matrix: the character count with S = G,
    where F = G leaves no kernel and the components for d are the cosets of
    <d>, so the count is the sum over elements of the index [G : <g>]."""
    orders = _check_orders(orders)
    return _character_count(group_elements(orders), orders)[1]


def cyclic_defect_closed_form(n: int) -> int:
    """Same number for a cyclic group, as a product over prime powers."""
    n = integer(n, "n", 1)
    total = 1
    for p in _prime_factors(n):
        a = 1                       # the exponent of p in n
        while n % p ** (a + 1) == 0:
            a += 1
        total *= p ** (a - 1) * (p + a * (p - 1))
    return total


def count_one_entries(h: PHMatrix, tol: float = 1e-9) -> int:
    p = h.phases
    if isinstance(p, ExactPhases):
        return int(np.count_nonzero(p.exp == 0))
    z = h.to_array()
    return int(np.sum(np.abs(z - 1.0) <= tol))


def real_truncation_defect_formula(m: int, n: int) -> int:
    """Defect of a row truncation of a real Hadamard matrix of order n."""
    m = integer(m, "m", 1, integer(n, "n", 1) + 1)
    return m * (m + 1) // 2 + m * (n - m)


@dataclass(frozen=True)
class IsolationCertificate:
    shape: Tuple[int, int]
    defect: int
    bound: int
    certified_isolated: bool
    status: str          # "isolated" | "undetermined" | "ambiguous"
    exact: bool
    report: DefectReport

    def __str__(self):
        return (f"{self.shape[0]}x{self.shape[1]}: defect {self.defect}, "
                f"bound {self.bound} -> {self.status}"
                + (" (exact)" if self.exact else ""))


def isolation_certificate(h: PHMatrix, tol: float = 1e-9,
                          confidence: float = DEFAULT_CONFIDENCE) -> IsolationCertificate:
    """Decide whether the defect certificate proves isolation.

    defect == M + N - 1 certifies the matrix is isolated among partial
    Hadamard matrices up to equivalence; a larger defect leaves the question
    undetermined (the bound is one-sided).  Butson-type input is proved
    exactly, so the certificate does not rest on a floating rank decision:
    a character matrix (a row truncation of a group Fourier matrix up to
    equivalence and repeated columns) by the character count, whatever its
    order, other input whose order has a usable split prime by ranks modulo
    split primes; when those cannot prove the defect, the certificate
    carries their upper bound with ``exact`` False.  Other input takes the
    floating SVD.
    """
    ensure_verified(h, tol)
    rep = _butson_report(h)
    if rep is None:
        rep = replace(defect(h, tol, confidence),
                      breakdown={"butson_order": h.common_butson_order(),
                                 "route": "float"})
    bound = h.m + h.n - 1
    if rep.ambiguous:
        status = "ambiguous"
    elif rep.defect == bound:
        status = "isolated"
    else:
        status = "undetermined"
    return IsolationCertificate(
        shape=(h.m, h.n), defect=rep.defect, bound=bound,
        certified_isolated=(status == "isolated"), status=status,
        exact=rep.exact, report=rep)


def truncation_probe(n: int, sizes: Optional[Sequence[int]] = None,
                     tol: float = 1e-9,
                     confidence: float = DEFAULT_CONFIDENCE) -> list:
    """Isolation certificates for initial-interval truncations of F_n."""
    n = integer(n, "n", 2)
    if sizes is None:
        sizes = range(2, n + 1)
    out = []
    for m in sizes:
        h = truncated_fourier(range(integer(m, "truncation size", 1, n + 1)), [n])
        out.append(isolation_certificate(h, tol, confidence))
    return out
