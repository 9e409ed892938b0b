"""Root-of-unity structure of vanishing sums from row pairs.

For orthogonal rows i, j the N terms H_ik conj(H_jk) sum to zero.  A matrix
is regular when every such multiset splits into rotated complete sets of
p-th roots of unity (p prime): subsets of the form rho * {1, zeta_p, ...,
zeta_p^{p-1}}.  The decomposition search is an exact cover of the term
indices by forced completion: a p-cycle through a term a is exactly
{a * zeta_p^m}, so its other p-1 terms are looked up, not searched for.
Exact input is searched on its exponents, over the primes up to the
number of terms that divide the root order
(``cyclotomic._vanishing_primes``), so the order is never factored.
Whether an exact sum vanishes at all is decided by peeling the exponents
present into rotated prime cycles over those primes
(``cyclotomic._cycle_peel``); a vanishing sum with no cover is written
over the integers by that peel, where negative coefficients can appear.
``equivalence_profile`` collects the labels with the defect and the
Butson order as invariants of an equivalence class.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .cyclotomic import _cycle_peel, _primes_upto, _vanishing_primes
from .defect import defect, isolation_certificate
from .errors import ConsistencyError, InvalidInputError, SearchBudgetExceeded, integer
from .matrix import PHMatrix, dephase, detect_butson, ensure_verified, row_quotient
from .phases import TAU, ExactPhases, PhaseEntry, _cis

DEFAULT_BUDGET = 10 ** 7


def _label(primes) -> str:
    """The text of a cover: its cycle primes, largest first, as "3+2+2"."""
    return "+".join(map(str, sorted(primes, reverse=True)))


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
        return _label(c.p for c in self.cycles)

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
    return near == m and abs(q - _cis(m / p)) <= tol


def _exponent_classes(exps: Sequence[int], l: int):
    """Classes and partner lookup for exact terms zeta_l^e, e in exps.

    Terms with one exponent share a class; the partner of class c for
    (p, m), p a prime dividing l, is the class of exponent e_c + m*l/p.
    """
    ids: dict = {}
    classes = [ids.setdefault(e, len(ids)) for e in exps]
    expo = list(ids)

    def lookup(c: int, p: int, m: int) -> tuple:
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
    raised past budget nodes, which must be an integer >= 1.  Returns
    [(p, indices)] with the anchor first in each indices tuple, or None
    when no cover exists; the empty multiset has the empty cover.
    """
    budget = integer(budget, "budget", 1)
    members: List[List[int]] = [[] for _ in range(max(classes, default=-1) + 1)]
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


def _by_prime(comps) -> tuple:
    """Components (p, rotation, coefficient), largest prime first, then by
    rotation."""
    return tuple(sorted(comps, key=lambda t: (-t[0], t[1])))


def cycle_decompose_integer(exponents: Sequence[int], l: int,
                            budget: int = DEFAULT_BUDGET) -> IntegerCycleDecomposition:
    """Exact decomposition of sum_k zeta_l^{e_k} over the integers.

    The exponents are peeled into rotated prime cycles once: anything left
    means the sum does not vanish.  A vanishing sum goes to the same
    exact-cover search as the floating route (p restricted to the primes
    up to the number of terms dividing l, arithmetic exact); if no
    partition exists, the peel's coefficients, some of which may be
    negative, are the account.
    """
    peel, left = _cycle_peel([exponents], l)
    if left[0]:
        return IntegerCycleDecomposition(l, False, None, None, None, True)
    exps = [int(e) % l for e in exponents]
    n = len(exps)

    complete = True
    try:
        found = _cover(*_exponent_classes(exps, l), _vanishing_primes(n, l)[::-1], budget)
    except SearchBudgetExceeded:
        found, complete = None, False
    if found is not None:
        agg = Counter((p, exps[idxs[0]] % (l // p)) for p, idxs in found)
        comps = _by_prime((p, r, c) for (p, r), c in agg.items())
        return IntegerCycleDecomposition(l, True, comps, True, "exact-cover", complete)

    comps = _by_prime((p, r, k) for p, _, rotations, coef in peel
                      for r, k in zip(rotations.tolist(), coef.tolist()))
    allpos = all(c >= 0 for _, _, c in comps)
    if allpos and complete:
        raise ConsistencyError(
            "cycle peel found a nonnegative combination but the exact "
            "cover search completed empty; these cannot both be right")
    nonneg: Optional[bool] = True if allpos else (False if complete else None)
    return IntegerCycleDecomposition(l, True, comps, nonneg, "lattice-solve", complete)


def lam_leung_length_admissible(n: int, l: int) -> bool:
    """Can n be written as a nonnegative combination of the primes of l?

    Vanishing sums of l-th roots only exist at such lengths.  Only the
    primes up to n can take part, so l is never factored.
    """
    n, l = integer(n, "length n", 0), integer(l, "l", 1)
    reachable = [False] * (n + 1)
    reachable[0] = True
    for p in _vanishing_primes(n, l):
        for v in range(p, n + 1):
            if reachable[v - p]:
                reachable[v] = True
    return reachable[n]


def _pair_label(terms: np.ndarray, tol: float, budget: int) -> str:
    try:
        dec = cycle_decompose(terms, tol=tol, budget=budget)
    except SearchBudgetExceeded:
        return "inconclusive"
    return dec.label if dec is not None else "irregular"


def _exact_pair_label(exps: list, l: int, primes: list, budget: int) -> str:
    try:
        found = _cover(*_exponent_classes(exps, l), primes, budget)
    except SearchBudgetExceeded:
        return "inconclusive"
    return _label(p for p, _ in found) if found is not None else "irregular"


def cycle_structure_profile(h: PHMatrix, tol: float = 1e-8,
                            budget: int = DEFAULT_BUDGET) -> dict:
    """Decomposition label for every row pair.

    Values are labels like "3+2", or "irregular" when the completed search
    finds no partition, or "inconclusive" when the budget ran out.

    On an exact matrix of order l the terms of pair (i, j) are the roots
    of unity of the exponent differences E_i - E_j mod l, so pairs whose
    sorted differences agree have one term multiset.  Each distinct
    multiset is searched once, on its sorted exponents, and its label goes
    to every pair that has it; budget bounds each of these searches.  A
    p-cycle of l-th roots needs p | l, so only the primes up to N that
    divide l are tried, and tol plays no part.
    """
    ensure_verified(h)
    phases = h.phases
    if not isinstance(phases, ExactPhases):
        return {(i, j): _pair_label(row_quotient(h, i, j), tol, budget)
                for i in range(h.m) for j in range(i + 1, h.m)}
    e, l = phases.exp, phases.order
    primes = _vanishing_primes(h.n, l)[::-1]
    labels: dict = {}
    out = {}
    for i in range(h.m - 1):
        diffs = np.sort((e[i] - e[i + 1:]) % l, axis=1)
        for j, d in enumerate(diffs, start=i + 1):
            # Python-int exponents (order >= 2^61) have no byte image
            key = tuple(d) if d.dtype == object else d.tobytes()
            if key not in labels:
                labels[key] = _exact_pair_label(d.tolist(), l, primes, budget)
            out[(i, j)] = labels[key]
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
                         budget: int = DEFAULT_BUDGET) -> WeakIsolationProbe:
    """Look for a regular, certified-isolated matrix that is not of
    root-of-unity type; such an example would separate regularity from the
    stronger arithmetic properties.
    """
    cert = isolation_certificate(h, tol=tol)
    try:
        reg: Optional[bool] = is_regular(h, tol=cycle_tol, budget=budget)
    except SearchBudgetExceeded:
        reg = None
    order = cert.report.breakdown["butson_order"]
    candidate = bool(reg) and cert.certified_isolated and order is None
    return WeakIsolationProbe(
        regular=reg, certified_isolated=cert.certified_isolated,
        isolation_status=cert.status, butson_order=order,
        counterexample_candidate=candidate)


@dataclass(frozen=True)
class EquivalenceProfile:
    """A tuple of invariants shared by all equivalent forms of a matrix."""
    shape: tuple
    defect: int
    cycle_labels: tuple
    butson_order: Optional[int]


def equivalence_profile(h: PHMatrix, tol: float = 1e-9,
                        cycle_tol: float = 1e-8,
                        budget: int = DEFAULT_BUDGET) -> EquivalenceProfile:
    """Invariants of the equivalence class of H.

    The Butson order of the matrix as given is not invariant (row and column
    phases change entry orders), so the reported order is that of the
    dephasing D at (0, 0), which phase changes cannot affect.  It is also
    the least over all pivots: the dephasing at (r, c) is D dephased at
    (r, c), and D is that one dephased at (0, 0), so each holds the roots
    of unity of the other's order.
    """
    ensure_verified(h, tol)
    rep = defect(h, tol=tol)
    labels = tuple(sorted(cycle_structure_profile(h, tol=cycle_tol, budget=budget).values()))
    table = detect_butson(dephase(h)[0])
    return EquivalenceProfile((h.m, h.n), rep.defect, labels,
                              table.order if table is not None else None)
