"""Rank-one projection grids from row quotients, and what they generate.

Each ordered row pair (i, j) of a partial Hadamard matrix gives the unit
vector v_ij = H_i / H_j (entrywise) and the projection P_ij onto it.  Row
and column sums of the grid are projections (sub-magic); for a square
matrix they equal the identity.  When the v's are pairwise parallel or
orthogonal the grid encodes a partial Latin square whose classes act as
partial permutations of the rows; composing them generates a finite
semigroup.  Traces of words in the P's are collected in moment matrices
whose unit eigenvalues count the semigroup elements reachable at each word
length, in the square case N^{p-1}.  A trace is unchanged when the row and
column words rotate together, and when an automorphism of the matrix acts
on both words letter by letter, so a moment matrix splits into Hermitian
blocks, one per character of the group these generate, Z_p x Z_r, which
are diagonalised apart (Gatermann and Parrilo, J. Pure Appl. Algebra 192,
2004).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .cyclotomic import _SYMMETRY_FLOOR, _automorphism, _orbits, _steps
from .errors import (DEFAULT_TOL, ConsistencyError, InvalidInputError,
                     SearchBudgetExceeded, integer, threshold)
from .matrix import PHMatrix, ensure_verified
from .phases import ExactPhases

MAX_CLOSURE = 10 ** 6
MAX_MOMENT_ENTRIES = 16 * 10 ** 6
MAX_WORD_LENGTH = 13


class ProjectionGrid:
    """The M x M family of rank-one projections P_ij = v_ij v_ij* / N, of a
    matrix verified at tol; its classes and counts decide at threshold."""

    def __init__(self, h: PHMatrix, tol: float = DEFAULT_TOL):
        ensure_verified(h, tol)
        self.threshold = threshold(tol)
        z = h.to_array()
        self.m = h.m
        self.n = h.n
        self.phases = h.phases
        # V[i, j, :] = row i over row j, a unit-modulus vector of length N
        self.vectors = z[:, None, :] * np.conj(z[None, :, :])

    def overlaps(self) -> np.ndarray:
        """|<v_ij, v_kl>| / N for every two pairs, both taken row-major."""
        flat = self.vectors.reshape(self.m * self.m, self.n)
        return np.abs(flat @ np.conj(flat.T)) / self.n


@dataclass(frozen=True)
class SubmagicReport:
    ok: bool
    max_row_residual: float
    max_col_residual: float
    tolerance: float         # the threshold; residuals are held to it times N


def verify_submagic(h: PHMatrix, tol: float = DEFAULT_TOL) -> SubmagicReport:
    """Row and column sums of the projection grid must be projections,
    within threshold(tol) N."""
    grid = ProjectionGrid(h, tol)
    v, w, n, thr = grid.vectors, np.conj(grid.vectors), grid.n, grid.threshold
    # sums[i] = sum_j P_ij for i < M, then sums[M + j] = sum_i P_ij
    sums = np.concatenate([np.einsum("ija,ijb->iab", v, w, optimize=True),
                           np.einsum("ija,ijb->jab", v, w, optimize=True)]) / n
    res = np.max(np.abs(sums @ sums - sums), axis=(1, 2))
    row_res, col_res = (float(np.max(r)) for r in np.split(res, 2))
    return SubmagicReport(row_res <= thr * n and col_res <= thr * n,
                          row_res, col_res, thr)


@dataclass(frozen=True)
class ClassicalityReport:
    classical: bool
    worst_overlap: float     # the overlap farthest from both 0 and 1
    tolerance: float         # the threshold applied


def classicality_test(h: PHMatrix, tol: float = DEFAULT_TOL) -> ClassicalityReport:
    """Are all pairs of quotient vectors either parallel or orthogonal,
    within threshold(tol)?

    Overlaps |<v_ij, v_kl>|/N land in {0, 1} exactly for group Fourier
    matrices and their truncations; anything strictly between witnesses a
    genuinely quantum (non-classical) grid.
    """
    grid = ProjectionGrid(h, tol)
    return _classicality(grid.overlaps(), grid.threshold)


def _classicality(ov: np.ndarray, thr: float) -> ClassicalityReport:
    dist = np.minimum(ov, np.abs(ov - 1.0))
    worst = float(np.max(dist))
    return ClassicalityReport(worst <= thr, worst, thr)


@dataclass(frozen=True)
class PreLatinSquare:
    """Class labels of the quotient vectors, first occurrence row-major.

    labels[i][j] is 1-based; label 1 is always the diagonal (all-ones)
    class.  No label repeats within a row or a column: a repeat would force
    two distinct rows of the matrix to be proportional.
    """
    labels: Tuple[Tuple[int, ...], ...]
    n_labels: int

    def __str__(self):
        return "\n".join(" ".join(f"{x:2d}" for x in row) for row in self.labels)


def pre_latin_square(h: PHMatrix, tol: float = DEFAULT_TOL):
    """Classify quotient vectors up to phase; None when non-classical.

    Returns (square, representatives) where representatives[x-1] is the
    vector of the first pair assigned label x.  On a classical grid each
    pair is labelled by the first pair, row-major, parallel to it.
    """
    return _grid_classes(h, tol)[1]


def _grid_classes(h: PHMatrix, tol: float):
    """The classicality report of the projection grid and what
    pre_latin_square returns, from one grid."""
    grid = ProjectionGrid(h, tol)
    ov = grid.overlaps()
    report = _classicality(ov, grid.threshold)
    if not report.classical:
        return report, None
    first, labels = np.unique(np.argmax(ov > 0.5, axis=1), return_inverse=True)
    labels = labels.reshape(grid.m, grid.m) + 1
    for axis, where in ((1, "row"), (0, "column")):
        if np.any(np.diff(np.sort(labels, axis=axis), axis=axis) == 0):
            raise ConsistencyError(f"class label repeated within a {where}")
    square = PreLatinSquare(tuple(map(tuple, labels.tolist())), len(first))
    return report, (square, list(grid.vectors.reshape(-1, grid.n)[first]))


@dataclass(frozen=True)
class PartialPermutation:
    """A partial injective map on row indices 0..m-1.

    targets[j] is the image of j, or None where undefined.  kappa counts
    the domain.
    """
    targets: Tuple[Optional[int], ...]

    @property
    def m(self) -> int:
        return len(self.targets)

    @property
    def kappa(self) -> int:
        return sum(1 for t in self.targets if t is not None)

    def __post_init__(self):
        defined = [integer(t, "target", 0, self.m)
                   for t in self.targets if t is not None]
        if len(set(defined)) != len(defined):
            raise InvalidInputError("partial permutation must be injective")

    @classmethod
    def identity(cls, m: int) -> "PartialPermutation":
        return cls(tuple(range(m)))

    @classmethod
    def empty(cls, m: int) -> "PartialPermutation":
        return cls((None,) * m)

    def notation(self) -> str:
        """Compact 1-based display: 'id', the empty-set sign, or source ->
        target pairs compressed to two digits where possible."""
        if all(t == j for j, t in enumerate(self.targets)):
            return "id" if self.m > 0 else "∅"
        pairs = [(j, t) for j, t in enumerate(self.targets) if t is not None]
        if not pairs:
            return "∅"
        if self.m < 10:
            return ",".join(f"{j + 1}{t + 1}" for j, t in pairs)
        return ",".join(f"{j + 1}→{t + 1}" for j, t in pairs)

    def __str__(self):
        return self.notation()


def compose(f: PartialPermutation, g: PartialPermutation) -> PartialPermutation:
    """f after g: defined at x when g(x) and f(g(x)) both are."""
    if f.m != g.m:
        raise InvalidInputError("mismatched sizes")
    return PartialPermutation(tuple(None if y is None else f.targets[y]
                                    for y in g.targets))


def sigma_from_square(square: PreLatinSquare, label: int) -> PartialPermutation:
    """The partial permutation of class x: sends j to i when labels[i][j] = x."""
    targets: List[Optional[int]] = [None] * len(square.labels)
    for i, j in zip(*np.nonzero(np.asarray(square.labels) == label)):
        targets[j] = int(i)
    return PartialPermutation(tuple(targets))


@dataclass(frozen=True)
class SemigroupClosure:
    elements: Tuple[PartialPermutation, ...]
    generator_count: int

    @property
    def size(self) -> int:
        return len(self.elements)

    def notations(self) -> list:
        return [e.notation() for e in self.elements]


def semigroup_closure(generators: Sequence[PartialPermutation],
                      cap: int = MAX_CLOSURE) -> SemigroupClosure:
    """Close a set of partial permutations under composition: a BFS over
    right multiplication by the generators, O(|S| |G|) compositions.

    Elements are rows of targets with -1 where undefined, plus one more -1
    column, so that composing every frontier row with generator g is one
    gather frontier[:, g] (an undefined g(x) reads that column).  Composites
    of injective maps are injective, so only the generators are checked.
    """
    gens = list(generators)
    if not gens:
        return SemigroupClosure((), 0)
    m = gens[0].m
    if any(g.m != m for g in gens):
        raise InvalidInputError("generators act on different index sets")
    rows = np.array([[-1 if t is None else t for t in g.targets] + [-1]
                     for g in gens], dtype=np.int64)
    seen: set = set()

    def fresh(block: np.ndarray) -> np.ndarray:
        """The rows of block not seen before, now marked seen."""
        block = np.ascontiguousarray(block)
        new = []
        for i, key in enumerate(block.view(f"V{8 * (m + 1)}").ravel().tolist()):
            if key not in seen:
                seen.add(key)
                new.append(i)
        if len(seen) > cap:
            raise SearchBudgetExceeded(f"closure exceeded {cap} elements")
        return block[new]

    # every element is a word in the generators, so right-multiplying each
    # new element by each distinct generator reaches them all
    frontier = rows = fresh(rows)
    found = [frontier]
    while len(frontier):
        frontier = np.concatenate([fresh(frontier[:, g]) for g in rows])
        found.append(frontier)
    elems = _closure_order(np.concatenate(found)[:, :m])
    return SemigroupClosure(_unchecked(elems), len(gens))


def _closure_order(rows: np.ndarray) -> np.ndarray:
    """Rows of targets (-1 undefined) in display order: larger domains
    first, then by the first undefined point (-1 when there is none), then
    by targets as numbers, an undefined one after all."""
    undefined = rows < 0
    first = np.where(undefined.any(axis=1), undefined.argmax(axis=1), -1)
    numbers = np.where(undefined, rows.shape[1], rows)
    # np.lexsort sorts by its last key first
    keys = np.vstack([numbers[:, ::-1].T, first, undefined.sum(axis=1)])
    return rows[np.lexsort(keys)]


def _unchecked(rows: np.ndarray) -> Tuple[PartialPermutation, ...]:
    """PartialPermutations of rows of targets (-1 undefined) known to be
    injective, built without running __post_init__."""
    cells = rows.astype(object)
    cells[rows < 0] = None
    out = []
    for targets in cells.tolist():
        pp = object.__new__(PartialPermutation)
        object.__setattr__(pp, "targets", tuple(targets))
        out.append(pp)
    return tuple(out)


def extract_semigroup(h: PHMatrix, tol: float = DEFAULT_TOL,
                      cap: int = MAX_CLOSURE):
    """Pre-Latin square classes of H, closed under composition.

    Returns (closure, square).  Raises InvalidInputError when the grid is
    non-classical, since then no partial-permutation picture exists.
    """
    res = pre_latin_square(h, tol)
    if res is None:
        raise InvalidInputError(
            "projection grid is non-classical; no partial permutation "
            "semigroup to extract")
    square, _ = res
    return square_closure(square, cap), square


def square_closure(square: PreLatinSquare, cap: int = MAX_CLOSURE) -> SemigroupClosure:
    """The semigroup generated by the partial permutations of the classes."""
    gens = [sigma_from_square(square, x) for x in range(1, square.n_labels + 1)]
    return semigroup_closure(gens, cap)


def interval_shift_maps(m: int) -> Tuple[PartialPermutation, ...]:
    """All order-preserving shifts between index intervals, plus the empty
    map: 1 + sum_k (m+1-k)^2 elements over interval lengths k = 1..m,
    refused before any work past MAX_CLOSURE, as a closure would be."""
    m = integer(m, "m", 1)
    size = 1 + m * (m + 1) * (2 * m + 1) // 6
    if size > MAX_CLOSURE:
        raise InvalidInputError(
            f"{size} interval shift maps exceed {MAX_CLOSURE}; refusing")
    rows = [np.full((1, m), -1, dtype=np.int64)]
    for k in range(1, m + 1):
        # the (m+1-k)^2 shifts of length k, src major, then dst
        src, dst = np.divmod(np.arange((m + 1 - k) ** 2), m + 1 - k)
        block = np.full((len(src), m), -1, dtype=np.int64)
        block[np.arange(len(src))[:, None], src[:, None] + np.arange(k)] = \
            dst[:, None] + np.arange(k)
        rows.append(block)
    return _unchecked(_closure_order(np.concatenate(rows)))


def predicted_truncated_semigroup(m: int, n: int) -> SemigroupClosure:
    """The expected closure for an M-row initial truncation of F_N when
    N > 2M - 2: the interval shift maps together with the empty map.

    For shorter matrices the wrap-around of Z_N produces extra
    coincidences, so the prediction refuses to apply.
    """
    m, n = integer(m, "m", 2), integer(n, "n", 1)
    if not n > 2 * m - 2:
        raise InvalidInputError(
            f"prediction requires N > 2M - 2 (got M={m}, N={n})")
    return SemigroupClosure(interval_shift_maps(m), 0)


# -- moment matrices -----------------------------------------------------------

@dataclass(frozen=True)
class MomentMatrix:
    p: int
    matrix: np.ndarray
    formal: bool      # True when M < N: the grid is only sub-magic

    @property
    def side(self) -> int:
        return self.matrix.shape[0]


def _moment_grid(h: PHMatrix, p: int, tol: float = DEFAULT_TOL) -> ProjectionGrid:
    """The projection grid of h, once word length p passes the guards."""
    integer(p, "word length p", 1)
    grid = ProjectionGrid(h, tol)
    m = grid.m
    if m ** (2 * p) > MAX_MOMENT_ENTRIES:
        raise InvalidInputError(
            f"moment matrix would need {m ** (2 * p)} entries; refusing")
    if p > MAX_WORD_LENGTH:
        raise InvalidInputError("word length too large")
    return grid


def _moment_rows(grid: ProjectionGrid, p: int, words: np.ndarray) -> np.ndarray:
    """The rows of the length-p moment matrix at the given row words.

    Since each P is rank one, the trace Tr(P_{i1 j1} ... P_{ip jp}) / N
    collapses to the cyclic product over t of the Gram tensor
    A[i_t, j_t, i_{t+1}, j_{t+1}] = <v_{i_t j_t}, v_{i_{t+1} j_{t+1}}>,
    divided by N^(p+1).  A row word (i_1 .. i_p) fixes the i's, so its row
    is one contraction of p matrices over the column letters.
    """
    m, n = grid.m, grid.n
    v = grid.vectors
    a = np.einsum("ijm,klm->ijkl", np.conj(v), v)
    # letters[r, t] = i_{t+1} of row word r, most significant first
    letters = words[:, None] // m ** np.arange(p - 1, -1, -1) % m
    # factor t: [r, j, k] = A[i_t, j, i_{t+1}, k] of row word r
    factors = [a[letters[:, t], :, letters[:, (t + 1) % p], :] for t in range(p)]
    col = "abcdefghijklmnopqrstuvwxy"[:p]     # p <= MAX_WORD_LENGTH
    subs = ",".join("z" + col[t] + col[(t + 1) % p] for t in range(p))
    t = np.einsum(f"{subs}->z{col}", *factors)
    t /= n ** (p + 1)
    return t.reshape(len(words), m ** p)


def moment_matrix(h: PHMatrix, p: int) -> MomentMatrix:
    """The M^p x M^p matrix of normalized traces of length-p words.

    Entry ((i_1..i_p), (j_1..j_p)) = Tr(P_{i1 j1} ... P_{ip jp}) / N; all
    rows come from one _moment_rows contraction.
    """
    grid = _moment_grid(h, p)
    t = _moment_rows(grid, p, np.arange(grid.m ** p))
    return MomentMatrix(p, t, formal=(grid.m < grid.n))


@dataclass(frozen=True)
class MomentReport:
    p: int
    value: int
    formal: bool
    ambiguous: bool
    nearest_excluded: float   # distance to 1 of the closest non-counted eigenvalue
    symmetry_order: int       # r of the Z_p x Z_r blocks; 1 for the rotation alone
    tolerance: float          # the threshold applied


def moment(h: PHMatrix, p: int, tol: float = DEFAULT_TOL) -> MomentReport:
    """Count unit eigenvalues of the length-p moment matrix.

    For a square Hadamard matrix this is N^{p-1}.  Eigenvalues within
    threshold(tol) of 1 are counted; any eigenvalue in the decade above it
    flags the count as ambiguous.  The moment matrix is Hermitian (P_ji is
    the transpose of P_ij, so swapping row and column words conjugates the
    trace), and its eigenvalues are real.
    """
    grid = _moment_grid(h, p, tol)
    thr = grid.threshold
    ev, r = _rotation_block_eigenvalues(grid, p)
    dist = np.abs(ev - 1.0)
    value = int(np.sum(dist < thr))
    excluded = dist[dist >= thr]
    nearest = float(np.min(excluded)) if excluded.size else math.inf
    ambiguous = bool(np.any((dist >= thr) & (dist < 10 * thr)))
    return MomentReport(p, value, grid.m < grid.n, ambiguous, nearest, r, thr)


def _word_symmetry(grid: ProjectionGrid, p: int) -> Tuple[np.ndarray, int]:
    """The row permutation sigma and prime order r of an automorphism
    E[sigma i, tau j] = E[i, j] + d_i + e_j (mod l) of the grid's exponent
    table (cyclotomic._automorphism), or the identity and 1.  It is sought
    only on exact phases when the length-p moment matrix has at least
    _SYMMETRY_FLOOR (N/M)^2 rows.  On a square table the search costs what
    it saves below the floor.  On an M x N one it dephases the table at up
    to (M - 1) N candidates, (N/M)^2 times its work on a square table
    whatever p is, while the blocks save only on the rows and the
    eigensolve, so the floor grows by that factor."""
    ph, found = grid.phases, None
    if (isinstance(ph, ExactPhases)
            and grid.m ** (p + 2) >= _SYMMETRY_FLOOR * grid.n ** 2):
        found = _automorphism(ph.exp, ph.order)
    return (found[0], found[2]) if found else (np.arange(grid.m), 1)


def _rotation_block_eigenvalues(grid: ProjectionGrid,
                                p: int) -> Tuple[np.ndarray, int]:
    """Eigenvalues of the length-p moment matrix t of the grid, over words
    in its m row letters, one Hermitian block per character of the group
    G = <S, sigma> = Z_p x Z_r, for S the word rotation and sigma the row
    permutation of the grid's automorphism (r = 1 without one), applied
    letter by letter.

    t[S I, S J] = t[I, J] (the trace is cyclic), and t[sigma I, sigma J] =
    t[I, J]: v_(sigma i, sigma j) is v_ij with its entries permuted by tau
    and times a unit, so P_(sigma i, sigma j) = Q P_ij Q* for a permutation
    matrix Q.  So t commutes with G; g = (a, b) stands for S^a sigma^b,
    and the character (k, c) takes it to exp(2 pi i (k a r + c b p) / pr).
    An orbit of size s with representative x carries the vector
    sum_g chi(g) e_(g x) when chi is trivial on the stabiliser of x,
    that is k a r + c b p = 0 (mod pr) for every (a, b) fixing x, and
    block chi has entries sqrt(s_x s_y) / pr * sum_g chi(g) t[x, g y] over
    those representatives.  For r = 1 the mask is k s = 0 (mod p).  The
    block sizes add up to m^p, and only the representative rows of t are
    built.  The orbits come from cyclotomic._orbits, which also lays out
    the modular symmetry blocks.  Returns the eigenvalues and r.
    """
    sigma, r = _word_symmetry(grid, p)
    m, pr = grid.m, p * r
    words = np.arange(m ** p)
    # S (i_1 .. i_p) = (i_2 .. i_p, i_1); S^p is the identity
    shift = m ** (p - 1)
    rot = _steps(words % shift * m + words // shift, p)
    # sigma^b on rows, then on each letter of a word
    letter = turn = _steps(sigma, r)
    for _ in range(p - 1):
        turn = (turn[:, :, None] * m + letter[:, None, :]).reshape(r, -1)
    # steps[a r + b, u] = S^a sigma^b u; an orbit's least point represents it
    steps = rot[:, turn].reshape(pr, -1)
    reps, index = _orbits(steps)
    s = np.bincount(index)
    # chi[k r + c, a r + b] = k a r + c b p, the character's turns times pr
    a, b = np.divmod(np.arange(pr), r)
    chi = np.outer(a, a) * r + np.outer(b, b) * p
    keep = ~((chi % pr != 0) @ (steps[:, reps] == reps))
    # gathered[g, y, x] = t[x, g y], for representatives x and y
    gathered = _moment_rows(grid, p, reps).T[steps[:, reps]]
    blocks = np.tensordot(np.exp(2j * np.pi / pr * chi), gathered, 1)
    blocks = blocks.transpose(0, 2, 1)
    blocks *= np.sqrt(np.outer(s, s)) / pr
    out = []
    for k in range(pr):
        kept = np.flatnonzero(keep[k])
        out.append(np.linalg.eigvalsh(blocks[k][np.ix_(kept, kept)]))
    return np.concatenate(out), r


def cyclic_moment_oracle(n: int, p: int) -> int:
    """Unit-eigenvalue count for the full Fourier matrix F_n: n^{p-1}."""
    return integer(n, "n", 1) ** (integer(p, "p", 1) - 1)
