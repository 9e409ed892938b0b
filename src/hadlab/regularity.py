"""Root-of-unity structure of vanishing sums from row pairs.

For orthogonal rows i, j the N terms H_ik conj(H_jk) sum to zero.  A matrix
is regular when every such multiset splits into rotated complete sets of
p-th roots of unity (p prime): subsets of the form rho * {1, zeta_p, ...,
zeta_p^{p-1}}.  The decomposition search is an exact cover of the term
indices by forced completion: a p-cycle through a term a is exactly
{a * zeta_p^m}, so its other p-1 terms are looked up, not searched for.
Integer exponent input additionally gets an exact lattice treatment, where
negative coefficients can appear.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .cyclotomic import exact_vanishing, solve_integer
from .errors import ConsistencyError, InvalidInputError, SearchBudgetExceeded
from .matrix import PHMatrix, ensure_verified, row_quotient
from .phases import TAU, PhaseEntry

DEFAULT_BUDGET = 10 ** 7


def _primes_upto(n: int) -> list:
    out = []
    for p in range(2, n + 1):
        if all(p % q for q in out):
            out.append(p)
    return out


@dataclass(frozen=True)
class Cycle:
    """A rotated complete set of p-th roots inside a term multiset."""
    p: int
    rho: complex
    indices: Tuple[int, ...]


@dataclass(frozen=True)
class CycleDecomposition:
    cycles: Tuple[Cycle, ...]

    @property
    def label(self) -> str:
        return "+".join(str(p) for p in sorted((c.p for c in self.cycles),
                                               reverse=True))

    def __str__(self):
        return self.label


def term_multiset(h: PHMatrix, i: int, j: int) -> np.ndarray:
    """The orthogonality terms H_ik * conj(H_jk) of a row pair (see
    row_quotient: exact for an exact matrix)."""
    if i == j:
        raise InvalidInputError("need two distinct rows")
    return row_quotient(h, i, j)


def _on_root(q: complex, p: int, m: int, tol: float) -> bool:
    """Is q within tol of zeta_p^m, with m the p-th root nearest to q?"""
    near = int(round((math.atan2(q.imag, q.real) / (2.0 * math.pi)) * p)) % p
    return near == m and abs(q - complex(math.cos(2.0 * math.pi * m / p),
                                         math.sin(2.0 * math.pi * m / p))) <= tol


def _exponent_classes(exps: Sequence[int], l: int):
    """Classes and partner lookup for exact terms zeta_l^e, e in exps.

    Terms with one exponent share a class; the partner of class c for
    (p, m) is the class of exponent e_c + m*l/p, which exists only when p
    divides l.
    """
    ids: dict = {}
    classes = [ids.setdefault(e, len(ids)) for e in exps]
    expo = list(ids)

    def lookup(c: int, p: int, m: int) -> tuple:
        if l % p:
            return ()
        hit = ids.get((expo[c] + m * (l // p)) % l)
        return () if hit is None else (hit,)
    return classes, lookup


def _value_classes(values: np.ndarray, tol: float):
    """Classes and partner lookup for floating terms.

    Equal values share a class.  Partners of class c for (p, m) are looked
    up in angle buckets at least as wide as a tol-disc around zeta_p^m
    subtends, then confirmed by |q - zeta_p^m| <= tol with q the quotient
    by the value of c.
    """
    ids: dict = {}
    reps = []
    classes = []
    for v in values:
        c = ids.setdefault(complex(v), len(ids))
        if c == len(reps):
            reps.append(v)
        classes.append(c)
    reach = math.asin(tol) if tol < 1.0 else math.pi
    nb = int(TAU / (reach + 1e-12))
    nb = nb if nb >= 3 else 1
    width = TAU / nb
    angle = [math.atan2(v.imag, v.real) % TAU for v in reps]
    buckets: dict = {}
    for c, a in enumerate(angle):
        buckets.setdefault(int(a / width) % nb, []).append(c)
    cache: dict = {}

    def lookup(c: int, p: int, m: int) -> list:
        key = (c, p, m)
        if key not in cache:
            b = int(((angle[c] + TAU * m / p) % TAU) / width) % nb
            near = {(b - 1) % nb, b, (b + 1) % nb}
            cache[key] = [d for k in near for d in buckets.get(k, ())
                          if _on_root(reps[d] / reps[c], p, m, tol)]
        return cache[key]
    return classes, lookup


def _cover(classes: Sequence[int], lookup, primes: Sequence[int],
           budget: int) -> Optional[list]:
    """Exact cover of the term indices by rotated prime cycles.

    classes[k] names the value of term k, as a dense id; lookup(c, p, m)
    lists the classes whose value is zeta_p^m times that of class c.  A
    p-cycle through the anchor is forced: one term per m = 1..p-1, so each
    prime costs p-1 lookups instead of a scan over (p-1)-subsets.  Terms
    of one class are interchangeable, so only the lowest uncovered copy
    of a class is ever taken, and failures are memoised on the number of
    uncovered copies per class.

    The order is that of plain exact-cover backtracking: the anchor is the
    smallest uncovered index, primes (given largest first) are tried in
    turn, and completions in lexicographic order of their indices.  A node
    is one search call or one completion attempt; SearchBudgetExceeded is
    raised past budget nodes.  Returns [(p, indices)] with the anchor
    first in each indices tuple, or None when no cover exists.
    """
    members: List[List[int]] = [[] for _ in range(max(classes) + 1)]
    rank = []          # rank[k]: how many copies of its class precede k
    for k, c in enumerate(classes):
        rank.append(len(members[c]))
        members[c].append(k)
    left = [len(ks) for ks in members]
    failed = set()
    nodes = 0

    def low(c: int) -> int:
        return members[c][len(members[c]) - left[c]]

    def covered(k: int) -> bool:
        return rank[k] < len(members[classes[k]]) - left[classes[k]]

    def tick() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(f"cycle search exceeded {budget} nodes")

    def completions(a: int, p: int) -> list:
        """Partner classes for each m, as (indices, classes) in index order.

        Each completion costs a node when tried, so more completions than
        nodes left exhaust the budget before any of them is built.
        """
        slots = []
        for m in range(1, p):
            slot = [c for c in lookup(a, p, m) if left[c]]
            if not slot:
                return []
            slots.append(slot)
        if math.prod(map(len, slots)) > budget - nodes:
            raise SearchBudgetExceeded(f"cycle search exceeded {budget} nodes")
        return sorted((tuple(sorted(low(c) for c in pick)), pick)
                      for pick in itertools.product(*slots))

    def search(size: int, start: int) -> Optional[list]:
        tick()
        if size == 0:
            return []
        state = tuple(left)
        if state in failed:
            return None
        anchor = start
        while covered(anchor):
            anchor += 1
        a = classes[anchor]
        left[a] -= 1
        for p in primes:
            if p > size:
                continue
            picks = completions(a, p)
            if not picks:
                tick()
            for idxs, pick in picks:
                tick()
                for c in pick:
                    left[c] -= 1
                tail = search(size - p, anchor + 1)
                for c in pick:
                    left[c] += 1
                if tail is not None:
                    left[a] += 1
                    return [(p, (anchor,) + idxs)] + tail
        left[a] += 1
        failed.add(state)
        return None

    return search(len(classes), 0)


def cycle_decompose(terms: Sequence, tol: float = 1e-8,
                    budget: int = DEFAULT_BUDGET) -> Optional[CycleDecomposition]:
    """Partition a vanishing multiset into rotated prime cycles.

    Deterministic search: the anchor is always the smallest uncovered index,
    primes are tried largest first, co-indices in lexicographic order, so
    equal inputs always give the same decomposition.  Terms are matched
    within tol.  Returns None when the completed search finds no partition;
    raises SearchBudgetExceeded when the node budget runs out first, which
    is an inconclusive outcome, not a negative one.
    """
    values = np.array([t.value if isinstance(t, PhaseEntry) else complex(t)
                       for t in terms], dtype=np.complex128)
    n = len(values)
    if n == 0:
        return CycleDecomposition(())
    total = complex(np.sum(values))
    if abs(total) > tol * n:
        raise InvalidInputError(
            f"terms sum to {abs(total):.3g}, not a vanishing sum at tol {tol}")
    found = _cover(*_value_classes(values, tol), _primes_upto(n)[::-1], budget)
    if found is None:
        return None
    return CycleDecomposition(tuple(Cycle(p, complex(values[idxs[0]]), idxs)
                                    for p, idxs in found))


@dataclass(frozen=True)
class IntegerCycleDecomposition:
    """Exact lattice account of a sum of l-th roots of unity.

    components are (p, rotation, coefficient) triples standing for
    coefficient * zeta_l^rotation * (sum of all p-th roots); rotations are
    reduced mod l/p.  nonnegative=False certifies that no decomposition with
    all nonnegative coefficients exists; None means the search could not
    settle it within budget.
    """
    l: int
    vanishing: bool
    components: Optional[Tuple[Tuple[int, int, int], ...]]
    nonnegative: Optional[bool]
    method: Optional[str]
    search_complete: bool


def cycle_decompose_integer(exponents: Sequence[int], l: int,
                            budget: int = DEFAULT_BUDGET) -> IntegerCycleDecomposition:
    """Exact decomposition of sum_k zeta_l^{e_k} over the integers.

    Tries the same exact-cover search as the floating route (p restricted to
    primes dividing l, arithmetic exact); if no partition exists, solves the
    lattice system over all rotated prime cycles, where coefficients may
    need to be negative.
    """
    if l < 1:
        raise InvalidInputError("l must be >= 1")
    exps = [int(e) % l for e in exponents]
    n = len(exps)
    if not exact_vanishing(exps, l):
        return IntegerCycleDecomposition(l, False, None, None, None, True)
    counts = [0] * l
    for e in exps:
        counts[e] += 1

    primes = [p for p in _primes_upto(l) if l % p == 0]
    complete = True
    found: Optional[list] = [] if n == 0 else None
    if n > 0 and primes:
        try:
            found = _cover(*_exponent_classes(exps, l), primes[::-1], budget)
        except SearchBudgetExceeded:
            complete = False
    if found is not None:
        agg = {}
        for p, idxs in found:
            key = (p, exps[idxs[0]] % (l // p))
            agg[key] = agg.get(key, 0) + 1
        comps = tuple(sorted(((p, r, c) for (p, r), c in agg.items()),
                             key=lambda t: (-t[0], t[1])))
        return IntegerCycleDecomposition(l, True, comps, True, "exact-cover", complete)

    # lattice fallback: v = sum of c_{p,r} * (indicator of r + m*(l/p))
    cols = []
    keys = []
    for p in primes:
        step = l // p
        for r in range(step):
            vec = [0] * l
            for m in range(p):
                vec[(r + m * step) % l] += 1
            cols.append(vec)
            keys.append((p, r))
    sol = solve_integer(cols, counts)
    if sol is None:
        raise ConsistencyError(
            f"vanishing sum of {l}-th roots admits no integer cycle "
            f"combination; this contradicts the lattice structure of "
            f"vanishing sums")
    comps = tuple(sorted(((p, r, c) for (p, r), c in zip(keys, sol) if c != 0),
                         key=lambda t: (-t[0], t[1])))
    allpos = all(c >= 0 for _, _, c in comps)
    if allpos and complete:
        raise ConsistencyError(
            "lattice solve found a nonnegative combination but the exact "
            "cover search completed empty; these cannot both be right")
    nonneg: Optional[bool] = True if allpos else (False if complete else None)
    return IntegerCycleDecomposition(l, True, comps, nonneg, "lattice-solve", complete)


def lam_leung_length_admissible(n: int, l: int) -> bool:
    """Can n be written as a nonnegative combination of the primes of l?

    Vanishing sums of l-th roots only exist at such lengths.
    """
    if n < 0:
        raise InvalidInputError("length must be >= 0")
    primes = [p for p in _primes_upto(l) if l % p == 0] if l > 1 else []
    reachable = [False] * (n + 1)
    reachable[0] = True
    for p in primes:
        for v in range(p, n + 1):
            if reachable[v - p]:
                reachable[v] = True
    return reachable[n]


def cycle_structure_profile(h: PHMatrix, tol: float = 1e-8,
                            budget: int = DEFAULT_BUDGET) -> dict:
    """Decomposition label for every row pair.

    Values are labels like "3+2", or "irregular" when the completed search
    finds no partition, or "inconclusive" when the budget ran out.
    """
    ensure_verified(h)
    out = {}
    for i in range(h.m):
        for j in range(i + 1, h.m):
            terms = row_quotient(h, i, j)
            try:
                dec = cycle_decompose(terms, tol=tol, budget=budget)
            except SearchBudgetExceeded:
                out[(i, j)] = "inconclusive"
                continue
            out[(i, j)] = dec.label if dec is not None else "irregular"
    return out


def is_regular(h: PHMatrix, tol: float = 1e-8,
               budget: int = DEFAULT_BUDGET) -> bool:
    """True when every row pair decomposes into rotated prime cycles."""
    profile = cycle_structure_profile(h, tol=tol, budget=budget)
    if any(v == "inconclusive" for v in profile.values()):
        raise SearchBudgetExceeded(
            "regularity undecided: some pair searches hit the budget")
    return all(v != "irregular" for v in profile.values())


@dataclass(frozen=True)
class WeakIsolationProbe:
    regular: Optional[bool]
    certified_isolated: bool
    isolation_status: str
    butson_order: Optional[int]
    counterexample_candidate: bool


def weak_isolation_probe(h: PHMatrix, tol: float = 1e-9,
                         cycle_tol: float = 1e-8,
                         budget: int = DEFAULT_BUDGET,
                         l_max: int = 60) -> WeakIsolationProbe:
    """Look for a regular, certified-isolated matrix that is not of
    root-of-unity type; such an example would separate regularity from the
    stronger arithmetic properties.
    """
    from .defect import isolation_certificate
    from .matrix import detect_butson

    cert = isolation_certificate(h, tol=tol)
    try:
        reg: Optional[bool] = is_regular(h, tol=cycle_tol, budget=budget)
    except SearchBudgetExceeded:
        reg = None
    form = detect_butson(h, l_max)
    order = form.l if form is not None else None
    candidate = bool(reg) and cert.certified_isolated and order is None
    return WeakIsolationProbe(
        regular=reg, certified_isolated=cert.certified_isolated,
        isolation_status=cert.status, butson_order=order,
        counterexample_candidate=candidate)
