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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .constructors import (MasterSpec, group_elements, master_matrix,
                           normalize_row_subset, truncated_fourier,
                           _check_orders)
from .cyclotomic import PROOF_CAP, exact_defect_butson
from .errors import ConsistencyError, InvalidInputError
from .matrix import ButsonForm, PHMatrix, detect_butson, ensure_verified
from .phases import ExactPhases

DEFAULT_CONFIDENCE = 1e6


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

    @property
    def certifies_isolation(self) -> bool:
        return (self.defect == self.bound) and not self.ambiguous


def complex_rows_to_real(rows: np.ndarray) -> np.ndarray:
    """Stack a complex constraint matrix into [Re; Im] over the reals."""
    return np.vstack([rows.real, rows.imag])


def tangent_system(h: PHMatrix) -> np.ndarray:
    """Complex tangent constraints, one row per unordered row pair.

    Unknowns are the M*N real phase directions A_ik (column index i*N + k);
    the pair (i, j) contributes sum_k H_ik conj(H_jk) (A_ik - A_jk) = 0.
    """
    z = h.to_array()
    m, n = h.m, h.n
    npairs = m * (m - 1) // 2
    sys = np.zeros((npairs, m * n), dtype=np.complex128)
    r = 0
    for i in range(m):
        for j in range(i + 1, m):
            w = z[i] * np.conj(z[j])
            sys[r, i * n:(i + 1) * n] = w
            sys[r, j * n:(j + 1) * n] = -w
            r += 1
    return sys


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
    real_sys = complex_rows_to_real(tangent_system(h))
    rr = numerical_rank(real_sys, tol)
    return _report("direct", h.shape, h.m * h.n, rr, tol, confidence)


def _modular_report(h: PHMatrix, form: ButsonForm) -> DefectReport:
    """Report from the ranks modulo split primes: method "direct-exact"
    when they prove the defect, "direct-modp" when they only bound it."""
    res = exact_defect_butson(form.exponents, form.l)
    breakdown = {"butson_order": form.l, "route": res.route,
                 "primes": list(res.primes), "ranks": list(res.ranks),
                 "reductions": len(res.primes)}
    if not res.exact:
        breakdown.update(reductions_needed=res.needed, reduction_cap=PROOF_CAP)
    rr = RankResult(h.m * h.n - res.defect, None, None, math.inf)
    return _report("direct-exact" if res.exact else "direct-modp", h.shape,
                   h.m * h.n, rr, 0.0, math.inf, exact=res.exact,
                   breakdown=breakdown)


def defect_exact(h: PHMatrix, l_max: int = 60) -> DefectReport:
    """Defect proved by ranks modulo split primes; input must be
    Butson-type, and the proof must close within PROOF_CAP reductions."""
    ensure_verified(h)
    form = detect_butson(h, l_max)
    if form is None:
        raise InvalidInputError(
            f"no root-of-unity form of order <= {l_max} found; exact defect "
            f"needs a Butson-type matrix")
    rep = _modular_report(h, form)
    if not rep.exact:
        raise InvalidInputError(
            f"exact defect needs {rep.breakdown['reductions_needed']} "
            f"reductions, over the cap of {PROOF_CAP}; two primes bound it "
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
    Y, as M*M + 2*M*(N-M) reals.  Each matrix position gives one row,
    Im((E K)_ij conj(H_ij)) = 0 for E = (X Y).
    """
    m, n = h.m, h.n
    z = h.to_array()
    nu = m * m + 2 * m * (n - m)

    # unknown layout: X diagonal, then (Re, Im) per off-diagonal pair, then Y
    off = {}
    pos = m
    for a in range(m):
        for b in range(a + 1, m):
            off[(a, b)] = (pos, pos + 1)
            pos += 2
    y_base = pos

    rows = np.zeros((m * n, nu), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            c = np.conj(z[i, j]) * k[:, j]  # c_u = K_uj conj(H_ij)
            row = rows[i * n + j]
            for u in range(n):
                cu = c[u]
                if u < m:
                    if u == i:
                        row[i] += cu.imag              # diagonal X_ii, real

                    elif i < u:
                        re_ix, im_ix = off[(i, u)]
                        row[re_ix] += cu.imag          # X_iu: coeff 1
                        row[im_ix] += cu.real          # Im(i * cu) = Re cu
                    else:
                        re_ix, im_ix = off[(u, i)]
                        row[re_ix] += cu.imag          # conj(X_ui): Re part
                        row[im_ix] += -cu.real         # Im(-i * cu)
                else:
                    b = u - m
                    row[y_base + 2 * (i * (n - m) + b)] += cu.imag
                    row[y_base + 2 * (i * (n - m) + b) + 1] += cu.real
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


# -- character count for truncated Fourier -----------------------------------

def _character_count(subset: Sequence[Tuple[int, ...]],
                     orders: Tuple[int, ...]) -> Tuple[int, int]:
    """|F| for F = S - S, and m + sum of w_d c_d over one d from each pair
    {d, -d} with d != 0 in F: c_d counts the components of the graph on S
    with edges g ~ g+d, and w_d is 1 when 2d = 0 and 2 otherwise."""
    def add(g, d):
        return tuple((a + b) % n for a, b, n in zip(g, d, orders))

    def neg(d):
        return tuple(-c % n for c, n in zip(d, orders))

    def root(g):
        while parent[g] != g:
            parent[g] = parent[parent[g]]
            g = parent[g]
        return g

    members = set(subset)
    diffs = {add(g, neg(h)) for g in subset for h in subset}
    image = len(subset)
    for d in diffs:
        if not any(d) or neg(d) < d:
            continue
        parent = {g: g for g in subset}
        components = len(subset)
        for g in subset:
            e = add(g, d)
            if e in members:
                a, b = root(g), root(e)
                if a != b:
                    parent[a] = b
                    components -= 1
        image += (1 if neg(d) == d else 2) * components
    return len(diffs), image


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

def defect_master(spec: MasterSpec, tol: float = 1e-9,
                  confidence: float = DEFAULT_CONFIDENCE) -> DefectReport:
    """Defect straight from an eigenphase/exponent table.

    Tangent rows are expanded over the basis functions k -> e^{-i t_s n_k}
    (orthogonal because the matrix is Hadamard with distinct eigenphases),
    turning realness and orthogonality of directions into character-sum
    systems in a complex coefficient matrix B.  Cross-checked against the
    direct tangent system of the materialized matrix.
    """
    if spec.m != spec.n:
        raise InvalidInputError(
            "eigenphase/exponent defect needs a square table")
    nsz = spec.m
    h = master_matrix(spec)
    ensure_verified(h, tol)
    turns = [float(x) for x in spec.angle_turns()]
    for i in range(nsz):
        for j in range(i + 1, nsz):
            if abs(turns[i] - turns[j]) < 1e-12:
                raise InvalidInputError("eigenphases must be pairwise distinct")
    t = [2.0 * math.pi * v for v in turns]

    ell = np.zeros((nsz, nsz), dtype=np.complex128)
    for s in range(nsz):
        for a in range(nsz):
            ell[s, a] = spec.char_sum(-(t[s] + t[a]))

    def x_ix(i, s):
        return i * nsz + s

    def y_ix(i, s):
        return nsz * nsz + i * nsz + s

    rows = []
    # realness: N conj(B_ia) = (B L)_ia
    for i in range(nsz):
        for a in range(nsz):
            re_row = np.zeros(2 * nsz * nsz)
            im_row = np.zeros(2 * nsz * nsz)
            re_row[x_ix(i, a)] += nsz
            im_row[y_ix(i, a)] -= nsz
            for s in range(nsz):
                re_row[x_ix(i, s)] -= ell[s, a].real
                re_row[y_ix(i, s)] += ell[s, a].imag
                im_row[x_ix(i, s)] -= ell[s, a].imag
                im_row[y_ix(i, s)] -= ell[s, a].real
            rows.append(re_row)
            rows.append(im_row)
    # orthogonality of perturbed rows, per ordered pair
    for i in range(nsz):
        for j in range(nsz):
            if i == j:
                continue
            r = np.array([spec.char_sum(t[i] - t[j] - t[s]) for s in range(nsz)])
            re_row = np.zeros(2 * nsz * nsz)
            im_row = np.zeros(2 * nsz * nsz)
            for s in range(nsz):
                re_row[x_ix(i, s)] += r[s].real
                re_row[x_ix(j, s)] -= r[s].real
                re_row[y_ix(i, s)] -= r[s].imag
                re_row[y_ix(j, s)] += r[s].imag
                im_row[x_ix(i, s)] += r[s].imag
                im_row[x_ix(j, s)] -= r[s].imag
                im_row[y_ix(i, s)] += r[s].real
                im_row[y_ix(j, s)] -= r[s].real
            rows.append(re_row)
            rows.append(im_row)
    sys = np.array(rows)
    rr = numerical_rank(sys, tol)
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
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    total = 1
    rem = n
    p = 2
    while rem > 1:
        if rem % p == 0:
            a = 0
            pk = 1
            while rem % p == 0:
                rem //= p
                a += 1
                pk *= p
            total *= (pk // p) * (p + a * p - a)
        p += 1 if p == 2 else 2
    return total


def count_one_entries(h: PHMatrix, tol: float = 1e-9) -> int:
    p = h.phases
    if isinstance(p, ExactPhases):
        return int(np.count_nonzero(p.exp == 0))
    z = h.to_array()
    return int(np.sum(np.abs(z - 1.0) <= tol))


def real_truncation_defect_formula(m: int, n: int) -> int:
    """Defect of a row truncation of a real Hadamard matrix of order n."""
    if not (1 <= m <= n):
        raise InvalidInputError("need 1 <= m <= n")
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
                          confidence: float = DEFAULT_CONFIDENCE,
                          prefer_exact: bool = True) -> IsolationCertificate:
    """Decide whether the defect certificate proves isolation.

    defect == M + N - 1 certifies the matrix is isolated among partial
    Hadamard matrices up to equivalence; a larger defect leaves the question
    undetermined (the bound is one-sided).  Butson-type input goes through
    ranks modulo split primes, so the certificate does not rest on a
    floating rank decision; when they cannot prove the defect, the
    certificate carries their upper bound with ``exact`` False.  Other
    input, or ``prefer_exact=False``, takes the floating SVD.
    """
    ensure_verified(h, tol)
    form = detect_butson(h) if prefer_exact else None
    if form is not None:
        rep = _modular_report(h, form)
    else:
        rep = replace(defect(h, tol, confidence),
                      breakdown={"butson_order": None, "route": "float"})
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
    if n < 2:
        raise InvalidInputError("n must be >= 2")
    if sizes is None:
        sizes = range(2, n + 1)
    out = []
    for m in sizes:
        if not (1 <= m <= n):
            raise InvalidInputError(f"truncation size {m} out of range for n={n}")
        h = truncated_fourier(range(m), [n])
        out.append(isolation_certificate(h, tol, confidence))
    return out
