"""Exact arithmetic with cyclotomic integers, and exact ranks of Butson
tangent systems.

``exact_vanishing`` peels the exponents present into rotated prime cycles,
over the primes p <= k dividing l for a sum of k terms; a sum vanishes
exactly when nothing is left (see ``_cycle_peel``).
``exact_defect_butson`` ranks the tangent system of a Butson matrix modulo
split primes: a prime p = 1 (mod l) has an element w of order l in F_p,
and zeta_l -> w is a ring map from Z[zeta_l] onto F_p.  The stacked system
[C; conj(C)] has entries in Z[zeta_l] and its minors map to minors, so a
reduction never raises the rank: every mod-p rank is a lower bound on the
true rank, and M*N minus it an upper bound on the defect.  Row (j, i) of
C, taken over ordered pairs, is -conj of row (i, j), so the rows of C over
all ordered pairs span the same space as [C; conj(C)]; they are what is
ranked.  Two facts turn such bounds into proofs.  When the rows are
orthogonal the trivial phase directions lie in the kernel, so the rank is
at most M*N - (M+N-1), and one reduction that reaches it proves isolation.
Otherwise the Hadamard bound closes the proof: every row holds 2N roots of
unity, so a nonzero minor of order r+1 has norm at most
(2N)^(phi(l)(r+1)/2), and that norm is divisible by each prime at which
the minor vanishes.  Once the primes at which the rank stayed at most r
multiply past the bound, the rank is exactly r.

Above a size floor the mod-p rank is split by symmetry.  An automorphism
(sigma, tau) with E[sigma i, tau j] = E[i, j] + d_i + e_j (mod l) maps
row (i, j) of the ordered-pair system M, entry by entry, to row
(sigma i, sigma j) times w^(d_i - d_j), with column (i, k) going to
(sigma i, tau k); call this action pi.  Take it of prime order r with
r | l | p - 1 and sigma fixed-point-free.  Then every orbit of pi on
unknowns and on ordered pairs has length r, and going r times round an
orbit multiplies a row by w^(D - D) = 1: applying the automorphism r
times gives sum_t d_(sigma^t i) + sum_t e_(tau^t j) = 0 (mod l) for all
i and j, so sum_t d_(sigma^t i) is the same D for every i.  Rescaling each row
of an orbit by the product of these factors so far makes M invariant
under pi, leaving the orbit representatives' rows as they are.  Indexed by
orbit representative and step t, M is then an r x r block-circulant
matrix with blocks G_u[E, U] = M[E, pi^u U], and omega = w^(l/r) has
order r in F_p, so the discrete Fourier transform over t, invertible
because r is a unit mod p, turns it block-diagonal with blocks
B_k = sum_u omega^(ku) G_u.  The F_p rank of M is the sum of the ranks of
the B_k, exactly, so the proof logic above is unchanged.  The blocks are
r times smaller, and eliminating them costs about r^2 times less.

The elimination runs in float64 on integers, one leaf of _LEAF columns at
a time, and takes the r blocks of a prime together as one stack, each
matrix with its own pivots.  A leaf adds at most _LEAF products of
residues below p to any entry of a matrix, one per pivot that matrix
takes, each below p^2, and entries are reduced again before the products
they took could carry them past 2^52, so every sum is exact.  The primes
for which this holds are those of ``_usable_prime``, up to just under
2^24.  The split primes used are the least of them above 2^20; an order
whose first candidate p = 1 (mod l) is already past them has none, and
``exact_defect_butson`` refuses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidInputError, SearchBudgetExceeded, integer, is_integer
from .phases import BUTSON_ORDER_CAP

# Proofs of a defect above M+N-1 use at most this many reductions; past it
# the defect is reported as the upper bound from two primes.
PROOF_CAP = 16
_PRIME_FLOOR = 1 << 20      # every prime used exceeds this
_EXACT = float(1 << 52)     # magnitudes kept below this stay exact in float64
_LEAF = 16                  # columns eliminated by rank-1 steps
_SHORT = 128                # vectors this short reduce in one np.remainder call
# Below this size (unknowns of a tangent system, rows of a moment matrix of
# a square table) no automorphism is sought: the search would cost about
# what its blocks save.
_SYMMETRY_FLOOR = 400
_SEARCH_NODES = 1000        # branches the automorphism search may open

# -- exact ranks modulo split primes -----------------------------------------

def is_odd_prime(q: int) -> bool:
    if q < 3 or q % 2 == 0:
        return False
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


@lru_cache(maxsize=64, typed=True)
def _prime_factors(l: int) -> Tuple[int, ...]:
    """The primes dividing l, increasing; none for l = 1."""
    l = integer(l, "l", 1)
    out, q = [], 2
    while q * q <= l:
        if l % q == 0:
            out.append(q)
            while l % q == 0:
                l //= q
        q += 1
    return tuple(out + [l] if l > 1 else out)


def _usable_prime(p: int) -> bool:
    """Whether rank_mod_p eliminates modulo p exactly: one leaf of _LEAF
    products below p^2, on top of a residue below p, stays below 2^52
    (see ``rank_mod_p``).  With _LEAF = 16 this holds up to just under
    2^24: 16777213 passes, 16777259 does not."""
    return p >= 2 and _LEAF * p * p + p <= _EXACT


@lru_cache(maxsize=64, typed=True)
def split_primes(l: int) -> Tuple[Tuple[int, int], ...]:
    """The PROOF_CAP smallest primes p = 1 (mod l) above 2^20 that
    ``rank_mod_p`` can use, each paired with an element of order l in F_p;
    fewer, or none, when the usable range holds fewer.  l is factored
    only once a candidate is prime, so an order past the range costs
    nothing."""
    l = integer(l, "l", 1)
    out = []
    p = (_PRIME_FLOOR // l + 1) * l + 1
    while len(out) < PROOF_CAP and _usable_prime(p):
        if is_odd_prime(p):
            g = 2
            w = pow(g, (p - 1) // l, p)
            while any(pow(w, l // q, p) == 1 for q in _prime_factors(l)):
                g += 1
                w = pow(g, (p - 1) // l, p)
            out.append((p, w))
        p += l
    return tuple(out)


def _reduce(x: np.ndarray, p: int) -> None:
    """Replace each entry of x by a residue mod p of magnitude below p, in
    place.  Entries are integers below 2^52 in magnitude, so x * (1/p) is
    within 2^-19 of the true quotient, rint(x/p) * p is exact, and what
    is left is at most p/2 + 1 in magnitude."""
    if x.size <= _SHORT:
        np.remainder(x, p, out=x)
        return
    q = x * (1.0 / p)
    np.rint(q, out=q)
    q *= p
    x -= q


def _leaf(t: np.ndarray, p: int) -> Tuple[List[int], List[List[int]]]:
    """Eliminate by rank-1 steps the leaf held transposed in t, of shape
    (b, 2w, rows): the w leaf columns of each matrix, reduced, with zeros
    in the rows already holding a pivot, and below them w zero coefficient
    slots.

    At step c every matrix takes its first nonzero row in column c as
    pivot; a matrix with none has only zeros left in that column, so the
    step adds nothing to it (its multiplier is set to 0).  Slot w + c of
    each row collects its coefficient on the pivot row of step c, as that
    row was when the leaf began, and a pivot row is zeroed once used, so
    it takes no further step or update.
    Returns the steps at which some matrix found a pivot and, per matrix,
    its pivot rows by step, -1 where it found none.
    """
    b, w2, rows = t.shape
    w = w2 // 2
    stack = np.arange(b)
    steps, pivots = [], [[] for _ in range(b)]
    for c in range(w):
        col = t[:, c]
        _reduce(col, p)
        i = (col != 0).argmax(1)
        head = col[stack, i]
        values = head.tolist()
        if not any(values):
            continue
        il = i.tolist()
        found = np.flatnonzero(head)
        # the rest of each pivot row and its coefficients, times -1/pivot
        piv = t[stack, c + 1:w + c + 1, i]
        piv[:, w - 1] = 1.0
        _reduce(piv, p)
        piv *= np.array([p - pow(int(x), -1, p) if x else 0 for x in values])[:, None]
        _reduce(piv, p)
        t[found, :, i[found]] = 0.0
        t[:, c + 1:w + c + 1] += piv[:, :, None] * col[:, None, :]
        steps.append(c)
        for j in range(b):
            pivots[j].append(il[j] if values[j] else -1)
    return steps, pivots


def rank_mod_p(a: np.ndarray, p: int) -> List[int]:
    """Ranks over F_p of a stack of b integer matrices held in float64, of
    shape (b, rows, cols), with entries below p in magnitude; a is
    overwritten.  A single matrix is a stack of one.

    Right-looking elimination of the whole stack, one leaf of _LEAF columns
    at a time: rank-1 steps inside the leaf (``_leaf``), each taking one
    pivot per matrix, then one stacked GEMM adds each matrix's coefficients
    times its own pivot rows to all trailing columns.  Each matrix keeps
    its rank; its first rank rows hold its pivots and take no part, and a
    leaf works on the rows from the least rank in the stack on.

    Every operand is reduced below p in magnitude before it is multiplied,
    so each product is below p^2, and a leaf adds at most _LEAF products
    to any entry of a matrix, one per pivot that matrix takes; the steps
    and GEMM terms of matrices without a pivot add exact zeros.  In
    ``_leaf``'s copy a leaf column is reduced as the leaf begins and again
    when its own step comes, taking at most _LEAF - 1 products in between,
    and a coefficient starts from 0 and takes at most one product per
    pivot; the GEMM sums at most k <= _LEAF nonzero products, k the most
    pivots any matrix took in the leaf.  The trailing stack is reduced
    again whenever the products it took since (``stale``) plus the next
    leaf's k would pass cap = floor((2^52 - p) / p^2), so every entry and
    partial sum stays below p + cap * p^2 <= 2^52, where float64 holds
    integers exactly.  This needs one leaf to fit, cap >= _LEAF, which is
    ``_usable_prime``; other primes are refused.
    """
    if not _usable_prime(p):
        raise InvalidInputError(f"p = {p} is outside the exact float64 range")
    b, rows, cols = a.shape
    cap = int((_EXACT - p) // (p * p))
    ranks = [0] * b
    stale = 0
    stack = np.arange(b)
    for c0 in range(0, cols, _LEAF):
        lo = min(ranks, default=rows)
        if lo == rows:
            break
        c1 = min(c0 + _LEAF, cols)
        w = c1 - c0
        v = a[:, lo:]
        done = [r - lo for r in ranks]
        t = np.zeros((b, 2 * w, rows - lo))
        np.copyto(t[:, :w], v[:, :, c0:c1].transpose(0, 2, 1),
                  where=np.arange(rows - lo) >= np.array(done)[:, None, None])
        _reduce(t[:, :w], p)
        steps, pivots = _leaf(t, p)
        if not steps:
            continue
        found = [[r for r in by_step if r >= 0] for by_step in pivots]
        k = max(map(len, found))
        if c1 < cols:
            if stale + k > cap:
                _reduce(v[:, :, c1:], p)
                stale = 0
            # a step where a matrix found no pivot (-1) gathers its last row,
            # which that step's coefficient slot, all zero, cancels
            src = v[stack[:, None], np.array(pivots), c1:]
            _reduce(src, p)
            y = t[:, [w + c for c in steps]].transpose(0, 2, 1).copy()
            _reduce(y, p)
            v[:, :, c1:] += y @ src
            stale += k
        # each matrix's pivot rows move to its rows from its rank on, and
        # the other rows there to the places the pivot rows left
        of, to, fro = [], [], []
        for j, rows_j in enumerate(found):
            top = done[j] + len(rows_j)
            held = set(rows_j)
            for d, s in zip([*range(done[j], top), *(r for r in rows_j if r >= top)],
                            rows_j + [r for r in range(done[j], top) if r not in held]):
                if d != s:
                    of.append(j)
                    to.append(d)
                    fro.append(s)
            ranks[j] = top + lo
        if to:
            v[of, to] = v[of, fro]
    return ranks


def _primes_upto(n: int) -> list:
    """The primes up to n, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * (n + 1)
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p in range(2, n + 1) if sieve[p]]


def _vanishing_primes(k: int, l: int) -> list:
    """The primes p <= k dividing l, increasing: the only cycle lengths a
    vanishing sum of k l-th roots needs (see ``_cycle_peel``).  They are
    read off the primes up to min(k, l), so l itself is never factored:
    trial division is slow at orders near 2^70."""
    return [p for p in _primes_upto(min(k, l)) if l % p == 0]


def _integer_table(exponents) -> np.ndarray:
    """A table of exponents as a 2-D array: a numpy integer array as it
    is, anything else as Python objects, so no entry is rounded.
    InvalidInputError for a ragged table or any entry that fails
    ``errors.is_integer``: a float, a string or a boolean, also a True in
    a list of ints, which numpy reads as 1."""
    try:
        a = np.asarray(exponents)
    except ValueError:
        raise InvalidInputError("ragged exponent table") from None
    if not (isinstance(exponents, np.ndarray) and a.dtype.kind in "iu"):
        a = np.asarray(exponents, dtype=object)
    if a.ndim != 2 or (a.dtype == object and not all(map(is_integer, a.flat))):
        raise InvalidInputError("exponents must be a table of integers")
    return a


def _cycle_peel(exponents, l: int):
    """Peel each row of a (rows, k) exponent table into rotated prime
    cycles, over the primes p <= k dividing l.

    Returns, per such prime in increasing order, (p, rows, rotations,
    coefficients): the nonzero coefficient on zeta_l^r times the sum of all
    p-th roots in that row, r < l/p; and per row whether anything is left.

    Let p^a exactly divide l.  The p-cycle through r fixes e mod l/p^a,
    and its residues mod p^a run once through a coset of p^(a-1).  Since
    Q(zeta_{p^a}) and Q(zeta_{l/p^a}) are linearly disjoint and
    Phi_{p^a}(x) = sum_j x^(j*p^(a-1)), a sum vanishes exactly when the
    count rows at residues mod p^a of one coset differ by vanishing sums
    over the other primes.  Giving every p-cycle the current count of its
    member with e mod p^a < p^(a-1), and subtracting, leaves each row a
    vanishing sum over the other primes.  So a sum vanishes exactly when
    nothing is left after the last prime of l, and the coefficients then
    write it as an integer combination of rotated cycles (de Bruijn,
    Indag. Math. 15, 1953; Lam and Leung, J. Algebra 224, 2000).

    The primes q > k need no peeling.  Take q^b exactly dividing l: by
    linear disjointness the sum is sum_x zeta_(q^b)^x U_x, with U_x the
    part of the terms whose exponent is x mod q^b, over the rest of l.  A
    relation needs the U_x equal across each coset of q^(b-1), and at most
    k < q of them are nonzero, so all of them are zero.  The classes of
    exponents mod q^b therefore vanish separately, and no p-cycle with
    p <= k mixes them, so peeling the primes <= k alone decides every sum;
    on a vanishing sum a peel over all primes of l gives zero coefficients
    at the primes > k.

    Terms are held sparsely, each (row, exponent) as the key row * l + e
    with its count, so memory is bounded by k times the product of the
    primes <= k, whatever l is.  Keys stay int64 while they fit and are
    Python ints beyond.
    """
    l = integer(l, "l", 1)
    a = _integer_table(exponents)
    rows, k = a.shape
    dtype = np.int64 if rows * l < 1 << 63 else object
    e = (a if a.dtype == dtype else a.astype(object)) % l
    g = np.asarray(np.arange(rows, dtype=dtype)[:, None] * l + e, dtype=dtype).ravel()
    count = np.ones(len(g), dtype=np.int64)
    peel = []
    for p in _vanishing_primes(k, l):
        s, q = l // p, math.gcd(l, p ** l.bit_length())     # q = p^a
        j = g % l // s
        cycle, at = np.unique(g - j * s, return_inverse=True)  # row * l + r, r < s
        members = cycle[:, None] + np.arange(p, dtype=dtype) * s
        t = np.zeros(members.shape, dtype=np.int64)
        np.add.at(t, (at, j.astype(np.intp)), count)
        coef = t[members % q < q // p]         # one member per cycle, in order
        t -= coef[:, None]
        hit, nonzero = coef != 0, t != 0
        peel.append((p, cycle[hit] // l, cycle[hit] % l, coef[hit]))
        g, count = members[nonzero], t[nonzero]
    left = np.zeros(rows, dtype=bool)
    left[(g // l).astype(np.intp)] = True
    return peel, left


# -- symmetry-adapted blocks -------------------------------------------------

def _dephased(e: np.ndarray, a: int, b: int, l: int) -> np.ndarray:
    """The exponent table rephased so that row a and column b are zero."""
    return (e - e[:, b:b + 1] - e[a] + e[a, b]) % l


def _distinct_rows(x: np.ndarray, orders) -> Tuple[np.ndarray, np.ndarray]:
    """The first index of each distinct row of ``x`` and the class label of
    every row, as np.unique(x, axis=0) returns them.  Column c holds
    residues modulo orders[c]; each row becomes one int64 key, built a
    column at a time and relabelled densely before it could overflow."""
    key = np.zeros(len(x), dtype=np.int64)
    size = 1
    for col, base in zip(x.T, np.broadcast_to(orders, x.shape[1:]).tolist()):
        if size * base >= 1 << 62:
            key = np.unique(key, return_inverse=True)[1]
            size = int(key.max()) + 1
        key = key * base + col
        size *= base
    _, first, label = np.unique(key, return_index=True, return_inverse=True)
    return first, label


def _joint_labels(x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Dense labels of the entries of x and of y, equal exactly when the
    entries are."""
    label = np.unique(np.concatenate([x, y]), return_inverse=True)[1]
    return label[:len(x)], label[len(x):]


def _cycles(perm: np.ndarray) -> List[np.ndarray]:
    """The cycles of a permutation, each from its smallest point."""
    seen = np.zeros(len(perm), dtype=bool)
    out = []
    for s in range(len(perm)):
        if not seen[s]:
            cycle = [s]
            while perm[cycle[-1]] != s:
                cycle.append(int(perm[cycle[-1]]))
            seen[cycle] = True
            out.append(np.array(cycle))
    return out


def _power(perm: np.ndarray, k: int) -> np.ndarray:
    out = np.empty_like(perm)
    for c in _cycles(perm):
        out[c] = c[(np.arange(len(c)) + k) % len(c)]
    return out


def _preserves(e: np.ndarray, sigma: np.ndarray, tau: np.ndarray, l: int) -> bool:
    """Whether E[sigma i, tau j] = E[i, j] + d_i + e_j (mod l) for some d, e:
    both sides agree once dephased at (0, 0)."""
    return np.array_equal(_dephased(e[np.ix_(sigma, tau)], 0, 0, l),
                          _dephased(e, 0, 0, l))


def _prime_order_power(sigma: np.ndarray, tau: np.ndarray,
                       l: int) -> Optional[Tuple[np.ndarray, np.ndarray, int]]:
    """The power of (sigma, tau) of the largest prime order r dividing l
    whose row permutation has no fixed point, or None.  With k the order
    of the pair over r, sigma^k fixes a point exactly when its cycle
    length has fewer factors r than the order does."""
    lengths = [len(c) for c in _cycles(sigma)]
    order = math.lcm(*lengths, *(len(c) for c in _cycles(tau)))
    for r in reversed(_prime_factors(l)):
        k = order // r
        if order % r == 0 and all(k % c for c in lengths):
            return _power(sigma, k), _power(tau, k), r
    return None


def _same_sizes(x: np.ndarray, y: np.ndarray) -> bool:
    """Whether the joint labels x and y name classes of equal sizes."""
    k = int(max(x.max(), y.max())) + 1
    return np.array_equal(np.bincount(x, minlength=k), np.bincount(y, minlength=k))


def _isomorphisms(base: np.ndarray, other: np.ndarray, l: int,
                  noise: np.ndarray, distinct: int, budget: List[int]):
    """Yield permutations (sigma, tau) with other[sigma i, tau j] =
    base[i, j].

    Rows and columns carry joint labels, refined in turn until their
    number stops growing: a column's new label is its old one and a random
    int64 sum (``noise``) over its entries of (row label, value), and a
    row's likewise.  Matched rows and columns always get equal sums, so a
    collision only refines less.  Classes of unequal sizes in the two
    tables end a branch.  Otherwise a row of the smallest row class of base
    with more than one member is individualised against each member of
    that class in other in turn.  Once base has as many column classes as
    ``distinct`` columns, the classes are its equal-column groups, which
    fixes tau; sigma then matches rows, and the pair is checked exactly.
    Each branch costs one node of ``budget``; SearchBudgetExceeded is
    raised when none is left.
    """
    m, n = base.shape

    def sums(table, labels, axis):
        keys = (labels[:, None] if axis == 0 else labels) * l + table
        return noise[keys].sum(axis=axis)

    def relabel(old0, old1, sums0, sums1):
        # the old label stays part of the key, so classes only ever split
        h0, h1 = _joint_labels(sums0, sums1)
        k = int(max(h0.max(), h1.max())) + 1
        return _joint_labels(old0 * k + h0, old1 * k + h1)

    def refine(r0, r1):
        c0 = c1 = np.zeros(n, dtype=np.int64)
        while True:
            size = int(r0.max()) + int(c0.max())
            c0, c1 = relabel(c0, c1, sums(base, r0, 0), sums(other, r1, 0))
            r0, r1 = relabel(r0, r1, sums(base, c0, 1), sums(other, c1, 1))
            if not (_same_sizes(c0, c1) and _same_sizes(r0, r1)):
                return None
            if int(r0.max()) + int(c0.max()) == size:
                return r0, c0, r1, c1

    def search(r0, r1):
        if budget[0] <= 0:
            raise SearchBudgetExceeded("automorphism search budget exhausted")
        budget[0] -= 1
        refined = refine(r0, r1)
        if refined is None:
            return
        r0, c0, r1, c1 = refined
        if int(c0.max()) + 1 == distinct:
            tau = np.empty_like(c0)
            tau[np.argsort(c0, kind="stable")] = np.argsort(c1, kind="stable")
            label = _distinct_rows(np.concatenate([base, other[:, tau]]), l)[1]
            s0, s1 = label[:m], label[m:]
            sigma = np.empty_like(s0)
            sigma[np.argsort(s0, kind="stable")] = np.argsort(s1, kind="stable")
            if np.array_equal(other[np.ix_(sigma, tau)], base):
                yield sigma, tau
            return
        sizes = np.bincount(r0)
        cell = int(np.argmin(np.where(sizes > 1, sizes, m + 1)))
        i = int(np.argmax(r0 == cell))
        for x in np.flatnonzero(r1 == cell):
            yield from search(*_joint_labels(2 * r0 + (np.arange(m) == i),
                                             2 * r1 + (np.arange(m) == x)))

    yield from search(np.zeros(m, dtype=np.int64), np.zeros(m, dtype=np.int64))


def _automorphism(e: np.ndarray, l: int) -> Optional[Tuple[np.ndarray, np.ndarray, int]]:
    """Permutations (sigma, tau) of prime order r with r | l and sigma
    fixed-point-free, such that E[sigma i, tau j] = E[i, j] + d_i + e_j
    (mod l) for some d, e; or None.

    Such a pair maps row 0 to some row a != 0 and column 0 to some column
    b, so it is a pure permutation isomorphism from E dephased at (0, 0)
    to E dephased at (a, b).  The candidates (a, b) are taken in a fixed
    shuffled order, since the valid ones cluster by row.  One whose
    dephased table has other multisets of row or of column value multisets
    (compared through random int64 sums, whose collisions only let a
    candidate through) is rejected; the others go to _isomorphisms.  The
    first automorphism, or product of two found, whose power of the
    largest prime order dividing l is fixed-point-free on rows ends the
    search; the best power found so far is returned when all candidates
    are tried or the node budget runs out.  None for l > BUTSON_ORDER_CAP,
    since the noise table has 2 max(M, N) l entries.
    """
    if l > BUTSON_ORDER_CAP:
        return None
    m, n = e.shape
    rng = np.random.default_rng(0)
    noise = rng.integers(-(1 << 62), 1 << 62, size=2 * max(m, n) * l)

    def multisets(table):
        h = noise[table]
        return np.sort(h.sum(axis=1)), np.sort(h.sum(axis=0))

    base = _dephased(e, 0, 0, l)
    want = multisets(base)
    distinct = len(_distinct_rows(base.T, l)[0])
    top = max(_prime_factors(l), default=0)
    budget = [_SEARCH_NODES]
    best = None
    seen = []
    for k in rng.permutation((m - 1) * n):
        other = _dephased(e, 1 + k // n, k % n, l)
        if not all(map(np.array_equal, multisets(other), want)):
            continue
        try:
            for sigma, tau in _isomorphisms(base, other, l, noise, distinct, budget):
                # products with earlier automorphisms are automorphisms too;
                # trying them costs a node each
                budget[0] -= len(seen)
                for pair in [(sigma, tau)] + [(sigma[s], tau[t]) for s, t in seen]:
                    power = _prime_order_power(*pair, l)
                    if (power is not None and (best is None or power[2] > best[2])
                            and _preserves(e, power[0], power[1], l)):
                        best = power
                        if best[2] == top:
                            return best
                seen.append((sigma, tau))
        except SearchBudgetExceeded:
            return best
    return best


def _steps(perm: np.ndarray, r: int) -> np.ndarray:
    """The step table of a permutation: steps[t, u] = perm^t(u) for t < r."""
    steps = [np.arange(len(perm))]
    for _ in range(r - 1):
        steps.append(perm[steps[-1]])
    return np.array(steps)


def _orbits(steps: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The orbits of a group given by its step table, whose row g holds
    each point's image under element g, the identity among the rows.
    Returns reps, the least point of each orbit, increasing, and index,
    the orbit of each point; orbit sizes are np.bincount(index)."""
    least = steps.min(axis=0)
    # exactly the least points are their own orbit's least point
    reps = np.flatnonzero(least == np.arange(len(least)))
    return reps, np.searchsorted(reps, least)


def _block_layout(sigma: np.ndarray, tau: np.ndarray, r: int):
    """Orbit data of the action (i, k) -> (sigma i, tau k) on unknowns and
    (i, j) -> (sigma i, sigma j) on ordered pairs of distinct rows, every
    orbit of length r.  Returns the representative pairs (iu, ju) and, for
    each unknown u, the index of its orbit and the t with u = pi^t(rep)."""
    m, n = len(sigma), len(tau)
    pairs = _orbits(_steps((sigma[:, None] * m + sigma[None, :]).ravel(), r))[0]
    iu, ju = np.divmod(pairs, m)
    off = iu != ju
    steps = _steps((sigma[:, None] * n + tau[None, :]).ravel(), r)
    # the least point of u's orbit is pi^t(u) at t = argmin, so u = pi^(r-t)
    pos = (r - steps.argmin(axis=0)) % r
    return iu[off], ju[off], _orbits(steps)[1], pos


def _tangent_blocks(e: np.ndarray, l: int, p: int, w: int, r: int,
                    layout) -> np.ndarray:
    """The r symmetry-adapted blocks of the tangent system over F_p, with
    zeta_l -> w, as float64 residues of shape (r, pairs/r, unknowns/r).

    Row (i, j) of the system is w^(E_ik - E_jk) in column i*N + k and its
    negative in column j*N + k.  With G_t[E, U] = M[E, pi^t U] on orbit
    representatives, block k is B_k = sum_t omega^(kt) G_t for
    omega = w^(l/r).  For r = 1 the one block is the whole system, one row
    per ordered pair, and the transform is the identity.
    """
    iu, ju, index, pos = layout
    n = e.shape[1]
    # w^x only for the exponent differences x present, not for all x < l
    d = (e[iu] - e[ju]) % l
    x, inverse = np.unique(d, return_inverse=True)
    c = np.array([pow(w, v, p) for v in x.tolist()],
                 dtype=np.float64)[inverse].reshape(d.shape)
    at = np.arange(len(iu))[:, None]
    g = np.zeros((r, len(iu), len(pos) // r))
    for row, value in ((iu, c), (ju, p - c)):
        u = row[:, None] * n + np.arange(n)
        g[pos[u], at, index[u]] = value
    # the entries are already residues, and the identity transform would
    # copy the unsplit system, the largest there is: on a random 40 x 40
    # table of order 12 the traced peak rises from 41 to 63 MB with it
    if r == 1:
        return g
    omega = pow(w, l // r, p)
    dft = np.array([[pow(omega, k * t, p) for t in range(r)] for k in range(r)],
                   dtype=np.float64)
    # pi^t U meets row i and row j of a pair once each over t, so at most
    # two of the r products in an entry are nonzero: the sum is below 2p^2
    b = (dft @ g.reshape(r, -1)).reshape(g.shape)
    _reduce(b, p)
    return b


@dataclass(frozen=True)
class ButsonDefect:
    """Defect of a Butson exponent table from ranks modulo split primes.

    ``exact`` says whether the ranks prove the defect; otherwise it is the
    least upper bound they give.  ``route`` is "proof" or "bound".
    ``needed`` is the number of reductions whose primes beat the Hadamard
    bound at the largest rank seen (an estimate past the PROOF_CAP cached
    primes), or 0 when one reduction reached the largest possible rank.
    ``symmetry_order`` is the order r of the automorphism whose blocks were
    ranked, 1 when the system was ranked whole, and ``block_ranks`` the
    ranks of the r blocks at the last prime when r > 1.
    """
    defect: int
    exact: bool
    route: str
    primes: Tuple[int, ...]
    ranks: Tuple[int, ...]
    needed: int
    symmetry_order: int = 1
    block_ranks: Tuple[int, ...] = ()


def _reductions_needed(l: int, phi: int, n: int, rank: int) -> int:
    """Fewest leading split primes whose product exceeds (2N)^(phi(r+1)/2),
    the Hadamard bound on the norm of a minor of order r+1; past the
    cached primes, an estimate that takes each further prime as large as
    the last."""
    target = phi * (rank + 1) / 2 * math.log(2 * n)
    logs = [math.log(p) for p, _ in split_primes(l)]
    total = 0.0
    for k, lp in enumerate(logs, 1):
        total += lp
        if total > target:
            return k
    return len(logs) + math.floor((target - total) / logs[-1]) + 1


def exact_defect_butson(exponents: Sequence[Sequence[int]], l: int) -> ButsonDefect:
    """Defect of the Butson matrix zeta_l^E from ranks of its tangent system
    modulo split primes (see the module docstring for the proof).  The
    exponents are reduced mod l before anything else reads them.  An order
    with no split prime in the exact range (``split_primes``) is refused.

    The first reduction that reaches the largest possible rank proves the
    defect.  Otherwise, when the Hadamard bound closes within PROOF_CAP
    reductions, reductions continue until it does; when it cannot, two
    reductions give an upper bound and ``exact`` is False.
    """
    l = integer(l, "l", 1)
    if not split_primes(l):
        raise InvalidInputError(f"no split prime p = 1 (mod {l}) in the exact float64 range")
    E = np.asarray(_integer_table(exponents) % l, dtype=np.int64)
    if not E.size:
        raise InvalidInputError("empty exponent table")
    factors = _prime_factors(l)
    phi = l * math.prod(p - 1 for p in factors) // math.prod(factors)
    m, n = E.shape
    if m == 1:
        return ButsonDefect(n, True, "proof", (), (), 0)
    iu, ju = np.triu_indices(m, 1)
    # the column phase directions always lie in the kernel, the row phase
    # directions when the rows are orthogonal; pairs with one term multiset
    # are peeled once
    d = np.sort((E[iu] - E[ju]) % l, axis=1)
    orthogonal = not _cycle_peel(d[_distinct_rows(d, l)[0]], l)[1].any()
    top = m * n - (m + n - 1 if orthogonal else n)
    found = _automorphism(E, l) if m * n >= _SYMMETRY_FLOOR else None
    sigma, tau, r = found or (np.arange(m), np.arange(n), 1)
    layout = _block_layout(sigma, tau, r)
    primes, ranks = [], []

    def result(rank, exact, needed):
        return ButsonDefect(m * n - rank, exact, "proof" if exact else "bound",
                            tuple(primes), tuple(ranks), needed, r,
                            tuple(block_ranks) if r > 1 else ())

    for p, w in split_primes(l):
        primes.append(p)
        # no name holds the blocks, so they are freed before the next are built
        block_ranks = rank_mod_p(_tangent_blocks(E, l, p, w, r, layout), p)
        ranks.append(sum(block_ranks))
        rank = max(ranks)
        if rank == top:
            return result(rank, True, 0)
        needed = _reductions_needed(l, phi, n, rank)
        if needed > PROOF_CAP:
            if len(primes) >= 2:
                break
        elif (len(primes) >= needed
              and math.prod(primes) ** 2 > (2 * n) ** (phi * (rank + 1))):
            return result(rank, True, needed)
    return result(max(ranks), False, needed)


def exact_vanishing(exponents: Sequence[int], l: int) -> bool:
    """Whether the sum of zeta_l^e over the exponent list is exactly zero."""
    return not _cycle_peel([exponents], l)[1][0]
