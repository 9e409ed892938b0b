"""The three workloads: seeded inputs, the operations put to hadlab, and
the oracle each answer is checked against.

The seed only picks equivalent forms of fixed inputs (row and column
permutations or phases, automorphism images of row subsets, translates,
free phase parameters),
so every seed asks questions of the same size and with the same answers
up to the oracle, and the known defects show on every seed.

Operations call hadlab through attribute access on the package at call
time, so the traced run sees them through its wrappers.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Optional

import hadlab as H
from hadlab.regularity import IntegerCycleDecomposition

# Sizes of the full workloads, chosen so that one pass takes seconds at the
# parent commit and a run holds several passes.  The smoke mode runs every
# kind of operation on one or two minimal inputs.
FULL = {
    "isolation_ladder": tuple(range(8, 41, 4)),
    "exact_fourier": (5, 6, 7),
    "mw_certificate": (13, (1, 3, 5, 7), (0, 2, 4, 6), 4),     # q, s, t, base F_n
    "mw_certificate_defect": 104,   # direct route, confirmed by the extension route
    "split_cases": (((9,), 4), ((10,), 5), ((12,), 6), ((2, 6), 5), ((3, 4), 4),
                    ((2, 2, 3), 6)),
    "profile_fourier": ((12,), (14,), (2, 6), (3, 4)),
    "profile_f16_rows": 8,
    "profile_mw": (7, (1, 3), (0, 2), 2),
    "f24_differences": (1, 2, 3, 5, 8, 12),
    "f24_budget": 20000,            # every F24 pair exhausts this in the float search
    "semigroup_m": tuple(range(6, 12)),
    "moments": ((4, 4), (5, 4), (3, 5)),
}
SMOKE = dict(
    FULL, isolation_ladder=(8,), exact_fourier=(5,),
    mw_certificate=(5, (1, 3), (0, 2), 2), mw_certificate_defect=19,
    split_cases=(((9,), 4), ((2, 6), 5)), profile_fourier=((6,),),
    profile_f16_rows=3, profile_mw=(5, (1, 3), (0, 2), 2), f24_differences=(1,),
    f24_budget=200, semigroup_m=(3,), moments=((3, 2),))
# The split route raises ConsistencyError on these non-initial subsets:
# split gives 90 and 106 against 85 and 102 from the direct and extension
# routes.  Every run asks them, so the failures stay visible.
SPLIT_KNOWN_DEFECTS = (((2, 3, 4), (0, 1, 5, 7)), ((2, 3, 4), (0, 1, 2, 5, 7)))

CATALOG = "{dir}/catalog.jsonl"


@dataclass
class Op:
    """One question: in-process ``call`` or CLI ``argv``, and its oracle.

    ``check(answer, answers)`` returns a mismatch message or None, where
    ``answers`` holds the answers of the same pass by operation name.
    """
    name: str
    oracles: tuple
    check: Callable[[Any, dict], Optional[str]]
    call: Optional[Callable[[dict], Any]] = None
    argv: Optional[list] = None
    expect_code: int = 0
    known_defect: bool = False


@dataclass
class Workload:
    inputs: dict = field(default_factory=dict)   # name -> PHMatrix
    ops: list = field(default_factory=list)
    files: dict = field(default_factory=dict)    # cli: file name -> text

    def fresh_inputs(self, keys=None) -> dict:
        """New matrix objects, all or those named in ``keys``, so no call
        reuses a cached array or verification from an earlier one."""
        return {k: H.PHMatrix(h.entries, label=h.label)
                for k, h in self.inputs.items() if keys is None or k in keys}


class Recording(dict):
    """The inputs of a pass, noting which of them an operation reads."""

    def __init__(self, inputs: dict, used: set):
        super().__init__(inputs)
        self.used = used

    def __getitem__(self, key):
        self.used.add(key)
        return super().__getitem__(key)


# -- seeded inputs ----------------------------------------------------------------

def permuted(h, rng: random.Random):
    """An equivalent matrix: rows and columns permuted."""
    rp = list(range(h.m))
    cp = list(range(h.n))
    rng.shuffle(rp)
    rng.shuffle(cp)
    one = H.PhaseEntry.one()
    return H.apply_equivalence(h, rp, cp, [one] * h.m, [one] * h.n)


def rephased(h, rng: random.Random, order: Optional[int] = None):
    """An equivalent matrix: every row and column times a random phase,
    an order-th root of unity when ``order`` is given so the entries stay
    of Butson type.

    Column phases cancel from every row quotient and row phases rotate a
    quotient as a whole, so the cycle search and the grid classification
    take the same steps as on the original matrix.
    """
    def phase():
        t = Fraction(rng.randrange(order), order) if order else rng.random()
        return H.PhaseEntry.turns(t)
    return H.apply_equivalence(h, list(range(h.m)), list(range(h.n)),
                               [phase() for _ in range(h.m)],
                               [phase() for _ in range(h.n)])


def unit_image(orders: tuple, m: int, rng: random.Random) -> list:
    """The first m group elements mapped by a random diagonal automorphism
    x -> (u_1 x_1, ..., u_k x_k) with each u_i a unit mod its order.

    Automorphism images keep the additive structure the split route uses,
    so each image is a case the split route is meant to handle.
    """
    units = [rng.choice([u for u in range(1, n) if math.gcd(u, n) == 1])
             for n in orders]
    return [tuple((u * g) % n for u, g, n in zip(units, x, orders))
            for x in H.group_elements(orders)[:m]]


def fourier_pair_label(orders: tuple, g: tuple) -> str:
    """Cycle label of the Fourier row pair whose row difference is g.

    Its terms are the characters at g, each root of unity of order
    ord(g) repeated |G|/ord(g) times; the search takes the largest prime
    dividing ord(g) first, and complete cosets of it always remain.
    """
    size = math.prod(orders)
    order = 1
    for gc, n in zip(g, orders):
        order = math.lcm(order, n // math.gcd(gc, n))
    p = max(q for q in range(2, order + 1)
            if order % q == 0 and all(q % r for r in range(2, q)))
    return "+".join([str(p)] * (size // p))


def _turn_text(t: Fraction) -> str:
    return f"{t.numerator}/{t.denominator}"


# -- checks -------------------------------------------------------------------------

def _eq(what: str, got, want) -> Optional[str]:
    return None if got == want else f"{what} {got!r}, oracle {want!r}"


def _first(*results) -> Optional[str]:
    return next((r for r in results if r is not None), None)


def _agree(*others: str):
    """The defect of this answer equals that of each other answer present."""
    def check(answer, answers):
        for other in others:
            if other in answers:
                bad = _eq(f"defect vs {other}:", _defect_of(answer),
                          _defect_of(answers[other]))
                if bad:
                    return bad
        return None
    return check


def _defect_of(answer) -> int:
    if isinstance(answer, list):       # truncation_probe
        return [c.defect for c in answer]
    return answer.defect


def _certificate(defect: int):
    def check(cert, answers):
        status = "isolated" if defect == cert.bound else "undetermined"
        return _first(_eq("defect", cert.defect, defect),
                      _eq("status", cert.status, status))
    return check


def _regular_profile(expected: Optional[dict], size: int):
    """Every pair decomposes; with ``expected`` each label is the Fourier
    one, otherwise each label must be a partition of N into primes."""
    def check(profile, answers):
        for pair, label in sorted(profile.items()):
            if expected is not None:
                bad = _eq(f"pair {pair} label", label, expected[pair])
            elif label in ("irregular", "inconclusive") or sum(
                    int(p) for p in label.split("+")) != size:
                bad = f"pair {pair} label {label!r} is not a cycle partition of {size}"
            else:
                bad = None
            if bad:
                return bad
        return None
    return check


# -- certify -------------------------------------------------------------------------

def certify(seed: int, smoke: bool = False) -> Workload:
    """Defect and isolation answers; tangent systems, SVD and the exact
    route do the work."""
    sz = SMOKE if smoke else FULL
    rng = random.Random(seed)
    w = Workload()
    inp = w.inputs

    def op(name, oracles, call, check, known_defect=False):
        w.ops.append(Op(name, oracles, check, call=call,
                        known_defect=known_defect))

    for n in sz["isolation_ladder"]:
        inp[f"F{n}"] = permuted(H.fourier_cyclic(n), rng)
        op(f"isolation_certificate F{n}", ("cyclic_defect_closed_form",),
           lambda i, k=f"F{n}": H.isolation_certificate(i[k]),
           _certificate(H.cyclic_defect_closed_form(n)))
    for orders in ((2, 6), (3, 4)):
        key = "F" + "x".join(map(str, orders))
        inp[key] = permuted(H.fourier_group(orders), rng)
        op(f"isolation_certificate {key}", ("fourier_defect_formula",),
           lambda i, k=key: H.isolation_certificate(i[k]),
           _certificate(H.fourier_defect_formula(orders)))
    for n in sz["exact_fourier"]:
        inp[f"E{n}"] = rephased(H.fourier_cyclic(n), rng, n)
        op(f"defect_exact F{n}", ("cyclic_defect_closed_form",),
           lambda i, k=f"E{n}": H.defect_exact(i[k]),
           lambda a, _, d=H.cyclic_defect_closed_form(n): _eq("defect", a.defect, d))

    # initial truncations of F_7: the probe against the split route
    p = 7
    probe = f"truncation_probe F{p}"
    op(probe, ("direct/split agreement",),
       lambda i: H.truncation_probe(p),
       lambda certs, _: _eq("full-matrix certificate",
                            (certs[-1].defect, certs[-1].status),
                            (H.cyclic_defect_closed_form(p), "isolated")))
    for m in range(2, p + 1):
        name = f"split F{p}[0..{m - 1}]"

        def versus_probe(rep, answers, m=m):
            if probe not in answers:
                return None
            return _eq("defect vs probe:", rep.defect, answers[probe][m - 2].defect)
        op(name, ("direct/split agreement",),
           lambda i, m=m: H.defect_split_truncated_fourier(list(range(m)), [p]),
           versus_probe)

    # seeded subsets: split, direct and extension must agree
    cases = [(orders, unit_image(orders, m, rng), False)
             for orders, m in sz["split_cases"]]
    cases += [(orders, list(rows), True) for orders, rows in SPLIT_KNOWN_DEFECTS]
    for orders, rows, known in cases:
        tag = "x".join(map(str, orders)) + str(rows).replace(" ", "")
        key = f"T{tag}"
        inp[key] = H.truncated_fourier(rows, list(orders))
        direct, ext, split = (f"defect {tag}", f"defect_via_extension {tag}",
                              f"defect_split_truncated_fourier {tag}")
        op(direct, ("direct/extension/split agreement",),
           lambda i, k=key: H.defect(i[k]), _agree(ext))
        op(ext, ("direct/extension/split agreement",),
           lambda i, k=key, s=rng.randrange(1 << 30): H.defect_via_extension(i[k], seed=s),
           _agree(direct))
        op(split, ("direct/extension/split agreement",),
           lambda i, r=rows, o=list(orders): H.defect_split_truncated_fourier(r, o),
           _agree(direct, ext), known_defect=known)

    # a real Hadamard matrix: any M rows have the closed-form defect
    m = 5
    rows = sorted(rng.sample(range(8), m))
    walsh = H.fourier_group((2, 2, 2))
    inp["R"] = H.PHMatrix([walsh.entries[r] for r in rows])
    real = "defect Z2^3" + str(rows).replace(" ", "")
    op(real, ("real_truncation_defect_formula",),
       lambda i: H.defect(i["R"]),
       lambda a, _: _eq("defect", a.defect, H.real_truncation_defect_formula(m, 8)))

    # the eigenphase/exponent route on the f22q spec
    q = H.PhaseEntry.turns(Fraction(rng.choice((1, 3, 7, 9, 11, 13, 17, 19)), 20))
    spec = H.f22q_master_spec(q)
    inp["f22q"] = H.f22q(q)
    op("defect f22q", ("direct/extension/split agreement",),
       lambda i: H.defect(i["f22q"]), _agree("defect_via_extension f22q"))
    op("defect_via_extension f22q", ("direct/extension/split agreement",),
       lambda i: H.defect_via_extension(i["f22q"], seed=seed),
       _agree("defect f22q"))
    op("defect_master f22q", ("direct/master agreement",),
       lambda i: H.defect_master(spec),
       _agree("defect f22q"))

    # non-Butson inputs: the extension route against the direct one
    inp["P7"] = H.petrescu(H.PhaseEntry.turns(rng.random()))
    inp["dita"] = _dita(rng)
    for key in ("P7", "dita"):
        op(f"defect {key}", ("direct/extension/split agreement",),
           lambda i, k=key: H.defect(i[k]), _agree(f"defect_via_extension {key}"))
        op(f"defect_via_extension {key}", ("direct/extension/split agreement",),
           lambda i, k=key: H.defect_via_extension(i[k], seed=seed),
           _agree(f"defect {key}"))

    q_mw, s, t, base = sz["mw_certificate"]
    inp["MW"] = permuted(H.mw_construct(H.MWSpec(q_mw, s, t, H.fourier_cyclic(base))), rng)
    op(f"isolation_certificate MW(q={q_mw},F{base})", ("frozen MW defect",),
       lambda i: H.isolation_certificate(i["MW"]),
       _certificate(sz["mw_certificate_defect"]))
    return w


def _dita(rng: random.Random):
    """F3 (x) F3 with seeded generic block phases: not of Butson type."""
    grid = tuple(tuple(H.PhaseEntry.turns(rng.random()) for _ in range(3))
                 for _ in range(3))
    return H.dita_deformation(H.DitaParams(H.fourier_cyclic(3),
                                           H.fourier_cyclic(3), grid))


# -- structure ------------------------------------------------------------------------

def structure(seed: int, smoke: bool = False) -> Workload:
    """Cycle search, semigroup closure and moments; no SVD of size."""
    sz = SMOKE if smoke else FULL
    rng = random.Random(seed)
    w = Workload()
    inp = w.inputs

    def op(name, oracles, call, check):
        w.ops.append(Op(name, oracles, check, call=call))

    # Only phases and translations vary with the seed: they leave every row
    # quotient's terms in place, so the search does the same work.
    fourier = [(orders, list(range(math.prod(orders)))) for orders in sz["profile_fourier"]]
    shift = rng.randrange(16)
    fourier.append(((16,), [(shift + r) % 16 for r in range(sz["profile_f16_rows"])]))
    for orders, rows in fourier:
        key = "F" + "x".join(map(str, orders))
        if len(rows) < math.prod(orders):
            key += f"[{len(rows)} rows]"
        els = H.group_elements(orders)
        order = math.lcm(*orders)
        inp[key] = rephased(H.truncated_fourier(rows, list(orders)), rng, order)
        expected = {}
        for a in range(len(rows)):
            for b in range(a + 1, len(rows)):
                g = tuple((x - y) % n for x, y, n in
                          zip(els[rows[a]], els[rows[b]], orders))
                expected[(a, b)] = fourier_pair_label(orders, g)
        op(f"cycle_structure_profile {key}", ("regular for every Fourier pair",),
           lambda i, k=key: H.cycle_structure_profile(i[k]),
           _regular_profile(expected, None))
    q_mw, s, t, base = sz["profile_mw"]
    mw = f"MW(q={q_mw},F{base})"
    inp[mw] = rephased(H.mw_construct(H.MWSpec(q_mw, s, t, H.fourier_cyclic(base))),
                       rng, 4 * q_mw * base)
    inp["dita"] = rephased(_dita(rng), rng)
    for key in (mw, "dita"):
        op(f"cycle_structure_profile {key}", ("cycle partition",),
           lambda i, k=key: H.cycle_structure_profile(i[k]),
           _regular_profile(None, inp[key].n))

    # F24 pairs: the float search exhausts the budget, the exact one decides.
    # Fixed row differences, seeded first rows: pairs with one difference
    # have the same terms.
    inp["F24"] = H.fourier_cyclic(24)
    budget = sz["f24_budget"]
    for d in sz["f24_differences"]:
        a = rng.randrange(24 - d)
        b = a + d
        label = fourier_pair_label((24,), (d,))
        exps = [((a - b) * k) % 24 for k in range(24)]
        op(f"cycle_decompose F24({a},{b}) budget {budget}", ("regular for every Fourier pair",),
           lambda i, a=a, b=b: H.cycle_decompose(H.term_multiset(i["F24"], a, b), budget=budget),
           lambda d, _, label=label: _eq("label", d.label if d else None, label))
        op(f"cycle_decompose_integer F24({a},{b}) budget {budget}",
           ("regular for every Fourier pair",),
           lambda i, e=exps: H.cycle_decompose_integer(e, 24, budget=budget),
           lambda d, _, e=exps: _integer_cover(d, e))
        op(f"exact_vanishing F24({a},{b})", ("Fourier pairs vanish",),
           lambda i, e=exps: H.cyclotomic.exact_vanishing(e, 24),
           lambda v, _: _eq("vanishing", v, True))

    # six 30th roots that vanish only as a signed cycle combination
    six = [5, 6, 12, 18, 24, 25]
    op("cycle_decompose_integer six 30th roots", ("signed cycle sum",),
       lambda i: H.cycle_decompose_integer(six, 30),
       lambda d, _: _eq("(vanishing, nonnegative)", (d.vanishing, d.nonnegative),
                        (True, False)))

    for m in sz["semigroup_m"]:
        key = f"F{m}|{4 * m}"
        inp[key] = rephased(H.truncated_fourier(list(range(m)), [4 * m]), rng, 4 * m)
        op(f"extract_semigroup {key}", ("predicted_truncated_semigroup",),
           lambda i, k=key: H.extract_semigroup(i[k])[0],
           lambda c, _, m=m: _eq("closure size", c.size,
                                 H.predicted_truncated_semigroup(m, 4 * m).size))
    for n, p in sz["moments"]:
        key = f"M{n}"
        inp.setdefault(key, rephased(H.fourier_cyclic(n), rng, n))
        op(f"moment F{n} p={p}", ("cyclic_moment_oracle",),
           lambda i, k=key, p=p: H.moment(i[k], p),
           lambda r, _, n=n, p=p: _eq("unit eigenvalues", r.value,
                                      H.cyclic_moment_oracle(n, p)))
    return w


def _integer_cover(d: IntegerCycleDecomposition, exponents: list) -> Optional[str]:
    """A nonnegative cycle combination that adds up to the exponent counts."""
    if d.nonnegative is not True or not d.components:
        return f"no nonnegative decomposition: {d.components}"
    counts = [0] * d.l
    for p, r, c in d.components:
        for m in range(p):
            counts[(r + m * (d.l // p)) % d.l] += c
    want = [0] * d.l
    for e in exponents:
        want[e % d.l] += 1
    return _eq("cycle counts", counts, want)


def undecided(answer) -> bool:
    """Ambiguous spectral gap, exhausted budget, or an unsettled sign."""
    if isinstance(answer, IntegerCycleDecomposition):
        return answer.nonnegative is None
    if isinstance(answer, dict):
        return "inconclusive" in answer.values()
    if isinstance(answer, list):
        return any(undecided(a) for a in answer)
    return (getattr(answer, "ambiguous", False) is True
            or getattr(answer, "status", None) == "ambiguous")


# -- cli ------------------------------------------------------------------------------

def cli(seed: int, smoke: bool = False) -> Workload:
    """Fresh ``hadlab`` commands on small inputs, each appending to one
    catalog; the commands write their inputs first, then read them."""
    import jsonschema

    rng = random.Random(seed)
    w = Workload()
    s = rng.choice((1, 3, 5, 7))
    t8_rows = [(s * k) % 8 for k in range(4)]
    q = Fraction(rng.choice((1, 3, 7, 9, 11, 13, 17, 19)), 20)
    p7q = Fraction(rng.randrange(1, 97), 97)
    spec = H.f22q_master_spec(H.PhaseEntry.turns(q))
    w.files["f22q_spec.json"] = json.dumps(
        {"eigenphases": [_turn_text(e.exact_turn()) for e in spec.eigenphases],
         "exponents": list(spec.exponents)})
    count = [0]

    def envelope(command: str, code: int, text: str):
        """The schema-checked envelope's data, and what disagrees in it."""
        try:
            body = json.loads(text)
            jsonschema.validate(body, H.RESULT_SCHEMA)
        except (ValueError, jsonschema.ValidationError) as exc:
            return None, f"envelope invalid: {exc}"[:300]
        bad = _first(_eq("envelope command", body["command"], command),
                     _eq("envelope exit_code", body["exit_code"], code))
        return body["data"], bad

    def catalog_line(k: int, command: str, workdir: str) -> Optional[str]:
        path = os.path.join(workdir, "catalog.jsonl")
        try:
            lines = H.read_records(path)
            jsonschema.validate(lines[k], H.CATALOG_RECORD_SCHEMA)
        except (OSError, IndexError, ValueError, jsonschema.ValidationError) as exc:
            return f"catalog line {k + 1}: {exc}"[:300]
        return _eq(f"catalog line {k + 1} command", lines[k]["command"], command)

    def command(argv, check_data=None, code=0, oracles=()) -> str:
        """A read command; ``check_data(data, answers)`` checks the envelope.
        Returns the operation name."""
        k = count[0]
        count[0] += 1
        name = " ".join(argv)
        catalog_cmd = " ".join(argv[:2]) if argv[0] == "probe" else argv[0]

        def check(answer, answers):
            rc, text, workdir = answer
            data, bad = envelope(argv[0], rc, text)
            if bad is None and check_data is not None:
                bad = check_data(data, answers)
            return bad or catalog_line(k, catalog_cmd, workdir)
        w.ops.append(Op(name, ("exit code", "RESULT_SCHEMA", "CATALOG_RECORD_SCHEMA")
                        + tuple(oracles), check, expect_code=code,
                        argv=[*argv, "--json", "--catalog", CATALOG]))
        return name

    def gen(kind, args, out, shape):
        k = count[0]
        count[0] += 1

        def check(answer, answers):
            rc, text, workdir = answer
            try:
                with open(os.path.join(workdir, out), encoding="utf-8") as fh:
                    doc = json.load(fh)
                jsonschema.validate(doc, H.PHM_V1_SCHEMA)
            except (OSError, ValueError, jsonschema.ValidationError) as exc:
                return f"{out}: {exc}"[:300]
            return (_eq(f"{out} shape", (doc["rows"], doc["cols"]), shape)
                    or catalog_line(k, f"gen {kind}", workdir))
        w.ops.append(Op(f"gen {kind} {' '.join(args)}",
                        ("exit code", "PHM_V1_SCHEMA", "CATALOG_RECORD_SCHEMA"), check,
                        argv=["gen", kind, *args, "-o", "{dir}/" + out, "--json",
                              "--catalog", CATALOG]))

    def data_is(key, want):
        return lambda d, _: _eq(key, d.get(key), want)

    def agree(other):
        def check(d, answers):
            try:
                theirs = json.loads(answers[other][1])["data"]["defect"]
            except (KeyError, ValueError):
                return None     # the other command's own check reports it
            return _eq(f"defect vs {other}:", d["defect"], theirs)
        return check

    def fourier_labels(rows, n):
        return {f"{a},{b}": fourier_pair_label((n,), ((rows[a] - rows[b]) % n,))
                for a in range(len(rows)) for b in range(a + 1, len(rows))}

    f6, f2x3, t8, f22q, p7 = ("{dir}/" + f for f in (
        "f6.json", "f2x3.json", "t8.json", "f22q.json", "p7.json"))
    d6 = H.cyclic_defect_closed_form(6)
    d2x3 = H.fourier_defect_formula((2, 3))
    rows_text = ",".join(map(str, t8_rows))

    gen("fourier", ["6"], "f6.json", (6, 6))
    gen("fourier-group", ["2", "3"], "f2x3.json", (6, 6))
    gen("truncated-fourier", ["--orders", "8", "--rows", rows_text], "t8.json", (4, 8))
    gen("f22q", ["--q", _turn_text(q)], "f22q.json", (4, 4))
    gen("petrescu", ["--q", _turn_text(p7q)], "p7.json", (7, 7))
    for path in (t8,) if smoke else (t8, p7):
        command(["verify", path], data_is("is_hadamard", True))

    direct = command(["defect", t8])
    command(["defect", t8, "--method", "split", "--orders", "8", "--rows", rows_text],
            agree(direct), oracles=("direct/extension/split agreement",))
    command(["defect", t8, "--method", "extension", "--seed", str(seed)],
            agree(direct), oracles=("direct/extension/split agreement",))
    direct = command(["defect", f22q])
    command(["defect", f22q, "--method", "master", "--spec", "{dir}/f22q_spec.json"],
            agree(direct), oracles=("direct/master agreement",))
    command(["isolated", f2x3],
            lambda d, _: _eq("(defect, status)", (d["defect"], d["status"]),
                             (d2x3, "undetermined")),
            code=1, oracles=("fourier_defect_formula",))
    command(["defect", f6, "--method", "exact"], data_is("defect", d6),
            oracles=("cyclic_defect_closed_form",))
    if not smoke:
        command(["isolated", f6],
                lambda d, _: _eq("(defect, status)", (d["defect"], d["status"]),
                                 (d6, "undetermined")),
                code=1, oracles=("cyclic_defect_closed_form",))
    command(["regularity", t8], data_is("pairs", fourier_labels(t8_rows, 8)),
            oracles=("regular for every Fourier pair",))
    command(["regularity", p7],
            lambda d, _: _eq("labels", sorted(set(d["pairs"].values())), ["3+2+2"]),
            oracles=("Petrescu pairs 3+2+2",))
    command(["semigroup", t8], data_is("size", H.predicted_truncated_semigroup(4, 8).size),
            oracles=("predicted_truncated_semigroup",))
    command(["moments", f6, "--p", "1,2" if smoke else "1,2,3"],
            lambda d, _: _eq("values", [m["value"] for m in d["moments"]],
                             [H.cyclic_moment_oracle(6, m["p"]) for m in d["moments"]]),
            oracles=("cyclic_moment_oracle",))
    if not smoke:
        command(["profile", f6],
                lambda d, _: _eq("(defect, butson_order)",
                                 (d["defect"], d["butson_order"]), (d6, 6)),
                oracles=("cyclic_defect_closed_form",))
        command(["probe", "truncation", "5"],
                lambda d, _: _eq("full certificate",
                                 (d["certificates"][-1]["defect"],
                                  d["certificates"][-1]["status"]),
                                 (H.cyclic_defect_closed_form(5), "isolated")),
                oracles=("cyclic_defect_closed_form",))
    command(["probe", "arithmetic", "--q", "5", "--s", "1,3", "--t", "0,2"],
            lambda d, _: _eq("(defect, status)", (d["defect"], d["status"]),
                             (19, "isolated")), oracles=("frozen MW defect",))
    return w


BUILDERS = {"cli": cli, "certify": certify, "structure": structure}


# -- judging answers ---------------------------------------------------------------------

@dataclass
class Verdict:
    outcome: str                   # "ok" | "failed" | "undecided"
    message: Optional[str] = None  # what disagreed, for a failure


def judge(op: Op, answer, error: Optional[BaseException], answers: dict) -> Verdict:
    """Classify one operation of a pass against its oracle.

    An in-process answer is undecided when the search budget ran out or
    the answer says it is ambiguous; a command is undecided when it exits
    3.  Anything raised, any other unexpected exit code and any answer the
    oracle rejects is a failure.
    """
    if error is not None:
        if isinstance(error, H.SearchBudgetExceeded):
            return Verdict("undecided")
        return Verdict("failed", f"{type(error).__name__}: {error}")
    if op.argv is not None:
        code, text = answer[0], answer[1]
        if code == 3 and op.expect_code != 3:
            return Verdict("undecided")
        if code != op.expect_code:
            return Verdict("failed", f"exit code {code}, expected {op.expect_code}: "
                                     f"{text.strip()[:200]}")
    elif undecided(answer):
        return Verdict("undecided")
    try:
        bad = op.check(answer, answers)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        bad = f"answer has an unexpected shape: {type(exc).__name__}: {exc}"
    return Verdict("failed", bad) if bad else Verdict("ok")
