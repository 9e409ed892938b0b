"""Command line interface.

Exit codes: 0 success (and the checked property holds), 1 the property
fails (not Hadamard, not certified isolated, irregular, non-classical),
2 invalid input, 3 a numerical or search outcome too ambiguous to call.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from . import __version__
from .catalog import CatalogRecord, append_record, catalog_path, content_hash
from .constructors import (DitaParams, MasterSpec, dita_deformation, f22q,
                           fourier_cyclic, fourier_group, master_dita,
                           master_matrix, petrescu, truncated_fourier)
from .defect import (defect, defect_exact, defect_master,
                     defect_split_truncated_fourier, defect_via_extension,
                     isolation_certificate, truncation_probe)
from .errors import (ConsistencyError, InvalidInputError, MatrixFormatError,
                     SearchBudgetExceeded)
from .io import dumps_phm, number_from_json, to_document, turn_from_json
from .matrix import PHMatrix, equivalence_profile, verify_partial_hadamard
from .mcnulty_weigert import MWSpec, arithmetic_isolation_probe, mw_construct
from .phases import PhaseEntry, parse_phase
from .regularity import cycle_structure_profile
from .semigroup import (classicality_test, extract_semigroup, moment,
                        pre_latin_square)

OK = 0
PROPERTY_FAILS = 1
BAD_INPUT = 2
AMBIGUOUS = 3


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, Fraction):
        return [x.numerator, x.denominator]
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return x
    if isinstance(x, (str, int, bool)) or x is None:
        return x
    if isinstance(x, complex):
        return [x.real, x.imag]
    if hasattr(x, "item"):
        return _jsonable(x.item())
    return str(x)


def _parse_int_list(text: str) -> list:
    try:
        return [int(t) for t in text.split(",") if t != ""]
    except ValueError as exc:
        raise InvalidInputError(f"expected comma-separated integers: {text!r}") from exc


def _parse_number_list(text: str) -> list:
    out = []
    for t in text.split(","):
        t = t.strip()
        if not t:
            continue
        try:
            if "/" in t:
                out.append(Fraction(t))
            elif "." in t or "e" in t or "E" in t:
                out.append(float(t))
            else:
                out.append(int(t))
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"bad number {t!r}") from exc
    return out


def _parse_rows(text: str) -> list:
    out = []
    for t in text.split(","):
        t = t.strip()
        if not t:
            continue
        try:
            if ":" in t:
                out.append(tuple(int(c) for c in t.split(":")))
            else:
                out.append(int(t))
        except ValueError as exc:
            raise InvalidInputError(f"bad row {t!r}: expected an integer "
                                    "or colon-separated coordinates") from exc
    return out


def _finite_positive(text: str) -> float:
    """argparse type of --tol, --cycle-tol and --confidence: a finite float
    above 0."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not (math.isfinite(x) and x > 0):
        raise argparse.ArgumentTypeError(
            f"expected a finite number > 0, got {text!r}")
    return x


def _budget(text: str) -> int:
    """argparse type of --budget: an integer node count of at least 1."""
    try:
        x = int(text)
    except ValueError:
        x = 0
    if x < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return x


def _load(path: str) -> Tuple[PHMatrix, str]:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    from .io import loads_phm
    return loads_phm(text), text


def _emit_matrix(h: PHMatrix, args, extra: Optional[dict] = None) -> Tuple[int, str]:
    doc_text = dumps_phm(h, label=getattr(args, "label", None))
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(doc_text)
        lines = [f"wrote {h.m}x{h.n} matrix to {args.output}"]
        if extra and args.json:
            lines = [json.dumps(_jsonable({"written": args.output, **extra}),
                                sort_keys=True)]
        return OK, "\n".join(lines)
    if extra and args.json:
        doc = to_document(h, getattr(args, "label", None))
        return OK, json.dumps(_jsonable({"matrix": doc, **extra}), sort_keys=True)
    return OK, doc_text.rstrip("\n")


def _envelope(command: str, code: int, data: dict, args, human: str) -> Tuple[int, str]:
    if args.json:
        body = {"command": command, "ok": code == OK, "exit_code": code,
                "data": _jsonable(data)}
        return code, json.dumps(body, sort_keys=True)
    return code, human


def _catalog(args, command: str, input_text: Optional[str], summary: dict) -> None:
    path = catalog_path(getattr(args, "catalog", None))
    if not path:
        return
    rec = CatalogRecord(
        command=command,
        input_sha256=content_hash(input_text) if input_text is not None else None,
        summary=_jsonable(summary))
    append_record(path, rec)


# -- gen -----------------------------------------------------------------------

def _cmd_gen(args) -> Tuple[int, str]:
    kind = args.kind
    extra = None
    if kind == "fourier":
        h = fourier_cyclic(args.n)
    elif kind == "fourier-group":
        h = fourier_group(args.orders)
    elif kind == "truncated-fourier":
        h = truncated_fourier(_parse_rows(args.rows), _parse_int_list(args.orders))
    elif kind == "f22q":
        h = f22q(parse_phase(args.q))
    elif kind == "petrescu":
        h = petrescu(parse_phase(args.q))
    elif kind == "dita":
        outer, _ = _load(args.outer)
        inner, _ = _load(args.inner)
        grid_spec = _read_json(args.phases)
        if not isinstance(grid_spec, list) or not all(isinstance(r, list) for r in grid_spec):
            raise InvalidInputError("phase grid must be a list of rows")
        grid = tuple(tuple(_phase_from_json(e) for e in row) for row in grid_spec)
        h = dita_deformation(DitaParams(outer, inner, grid))
    elif kind == "master-dita":
        p = _parse_number_list(args.p)
        r = _parse_number_list(args.r)
        h, spec = master_dita(args.n, args.m, args.k, p, r)
        extra = {"spec": _spec_to_json(spec)}
    elif kind == "mw":
        base = _mw_base(args)
        spec = MWSpec(args.q, tuple(_parse_int_list(args.s)),
                      tuple(_parse_int_list(args.t)), base)
        h = mw_construct(spec, tol=args.tol)
    else:
        raise InvalidInputError(f"unknown generator {kind!r}")
    code, text = _emit_matrix(h, args, extra)
    _catalog(args, f"gen {kind}", None,
             {"rows": h.m, "cols": h.n, "label": h.label})
    return code, text


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"{path} is not valid JSON: {exc}") from exc


def _phase_from_json(e) -> PhaseEntry:
    """A turn as "p/q" or decimal text, or as io.turn_from_json reads it."""
    return parse_phase(e) if isinstance(e, str) else turn_from_json(e)


def _spec_to_json(spec: MasterSpec) -> dict:
    return {
        "eigenphase_turns": [_jsonable(t) for t in spec.angle_turns()],
        "exponents": [_jsonable(e) for e in spec.exponents],
    }


def _spec_from_file(path: str) -> MasterSpec:
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise InvalidInputError("spec file must be a JSON object")
    try:
        lam, expo = doc["eigenphases"], doc["exponents"]
    except KeyError as exc:
        raise InvalidInputError(f"spec file missing field {exc}") from exc
    if not (isinstance(lam, list) and isinstance(expo, list)):
        raise InvalidInputError("spec eigenphases and exponents must be lists")
    return MasterSpec(tuple(_phase_from_json(e) for e in lam),
                      tuple(_exponent_from_json(e) for e in expo))


def _exponent_from_json(e):
    if not isinstance(e, str):
        return number_from_json(e, "exponent")
    try:
        return Fraction(e)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"cannot parse exponent {e!r}: {exc}") from exc


def _mw_base(args) -> PHMatrix:
    if getattr(args, "base", None):
        h, _ = _load(args.base)
        return h
    return fourier_cyclic(args.base_fourier)


# -- analysis ------------------------------------------------------------------

def _cmd_verify(args) -> Tuple[int, str]:
    h, text = _load(args.file)
    rep = verify_partial_hadamard(h, args.tol)
    code = OK if rep.is_hadamard else PROPERTY_FAILS
    data = {"is_hadamard": rep.is_hadamard,
            "max_inner_residual": rep.max_inner_residual,
            "max_modulus_residual": rep.max_modulus_residual,
            "tolerance": rep.tolerance, "rows": h.m, "cols": h.n}
    human = (f"{h.m}x{h.n}: "
             + ("partial Hadamard" if rep.is_hadamard else "NOT partial Hadamard")
             + f" (inner residual {rep.max_inner_residual:.3g}, modulus residual "
             f"{rep.max_modulus_residual:.3g}, tol {args.tol:g})")
    _catalog(args, "verify", text, data)
    return _envelope("verify", code, data, args, human)


def _entrywise_match(a: PHMatrix, b: PHMatrix, tol: float) -> bool:
    if a.shape != b.shape:
        return False
    import numpy as np
    return float(np.max(np.abs(a.to_array() - b.to_array()))) <= tol


def _cmd_defect(args) -> Tuple[int, str]:
    text = None
    h = None
    if args.file:
        h, text = _load(args.file)
    method = args.method
    if method == "split":
        if not (args.orders and args.rows):
            raise InvalidInputError("split method needs --orders and --rows")
        orders = _parse_int_list(args.orders)
        rows = _parse_rows(args.rows)
        if h is not None and not _entrywise_match(
                h, truncated_fourier(rows, orders), args.tol):
            return _envelope("defect", BAD_INPUT,
                             {"error": "file does not match the declared "
                                       "truncated Fourier construction"},
                             args, "file does not match the declared "
                                   "truncated Fourier construction")
        rep = defect_split_truncated_fourier(rows, orders, args.tol,
                                             args.confidence)
    elif method == "master":
        if not args.spec:
            raise InvalidInputError("master method needs --spec FILE")
        spec = _spec_from_file(args.spec)
        if h is not None and not _entrywise_match(
                h, master_matrix(spec), args.tol):
            return _envelope("defect", BAD_INPUT,
                             {"error": "file does not match the declared "
                                       "eigenphase/exponent table"},
                             args, "file does not match the declared "
                                   "eigenphase/exponent table")
        rep = defect_master(spec, args.tol, args.confidence)
    else:
        if h is None:
            raise InvalidInputError("this method needs a matrix FILE")
        if method == "direct":
            rep = defect(h, args.tol, args.confidence)
        elif method == "exact":
            rep = defect_exact(h)
        elif method == "extension":
            rep = defect_via_extension(h, args.tol, args.confidence,
                                       seed=args.seed)
        else:
            raise InvalidInputError(f"unknown method {method!r}")
    code = AMBIGUOUS if rep.ambiguous else OK
    data = {"defect": rep.defect, "method": rep.method, "bound": rep.bound,
            "unknowns": rep.unknowns, "rank": rep.rank,
            "gap_ratio": rep.gap_ratio, "tolerance": rep.tolerance,
            "ambiguous": rep.ambiguous, "exact": rep.exact,
            "breakdown": rep.breakdown}
    human = (f"defect {rep.defect} (method {rep.method}, bound {rep.bound}, "
             f"rank {rep.rank}/{rep.unknowns}, gap {rep.gap_ratio:.3g})"
             + (" [exact]" if rep.exact else "")
             + (" AMBIGUOUS" if rep.ambiguous else ""))
    _catalog(args, "defect", text, {"defect": rep.defect, "method": rep.method,
                                    "ambiguous": rep.ambiguous})
    return _envelope("defect", code, data, args, human)


def _cmd_isolated(args) -> Tuple[int, str]:
    h, text = _load(args.file)
    cert = isolation_certificate(h, args.tol, args.confidence)
    code = {"isolated": OK, "undetermined": PROPERTY_FAILS,
            "ambiguous": AMBIGUOUS}[cert.status]
    data = {"defect": cert.defect, "bound": cert.bound,
            "certified_isolated": cert.certified_isolated,
            "status": cert.status, "exact": cert.exact,
            "method": cert.report.method, "breakdown": cert.report.breakdown}
    _catalog(args, "isolated", text, data)
    return _envelope("isolated", code, data, args, str(cert))


def _cmd_regularity(args) -> Tuple[int, str]:
    h, text = _load(args.file)
    profile = cycle_structure_profile(h, tol=args.cycle_tol, budget=args.budget)
    inconclusive = sorted(k for k, v in profile.items() if v == "inconclusive")
    irregular = sorted(k for k, v in profile.items() if v == "irregular")
    if inconclusive:
        code = AMBIGUOUS
    elif irregular:
        code = PROPERTY_FAILS
    else:
        code = OK
    data = {"regular": code == OK,
            "pairs": {f"{i},{j}": v for (i, j), v in sorted(profile.items())},
            "irregular_pairs": [list(p) for p in irregular],
            "inconclusive_pairs": [list(p) for p in inconclusive]}
    if code == OK:
        human = "regular: " + ", ".join(
            f"({i},{j}) {v}" for (i, j), v in sorted(profile.items()))
    elif code == PROPERTY_FAILS:
        human = f"irregular pairs: {irregular}"
    else:
        human = f"inconclusive pairs (budget {args.budget}): {inconclusive}"
    _catalog(args, "regularity", text, {"regular": code == OK,
                                        "n_irregular": len(irregular),
                                        "n_inconclusive": len(inconclusive)})
    return _envelope("regularity", code, data, args, human)


def _cmd_semigroup(args) -> Tuple[int, str]:
    h, text = _load(args.file)
    rep = classicality_test(h, args.cycle_tol)
    if not rep.classical:
        data = {"classical": False, "worst_overlap": rep.worst_overlap}
        _catalog(args, "semigroup", text, data)
        return _envelope("semigroup", PROPERTY_FAILS, data, args,
                         f"non-classical grid: overlap {rep.worst_overlap:.3g} "
                         f"is neither 0 nor 1")
    closure, square = extract_semigroup(h, args.cycle_tol)
    data = {"classical": True, "n_labels": square.n_labels,
            "square": [list(r) for r in square.labels],
            "size": closure.size,
            "elements": closure.notations()}
    human = (f"classical, {square.n_labels} classes\n{square}\n"
             f"closure: {closure.size} elements: "
             + " ".join(closure.notations()))
    _catalog(args, "semigroup", text, {"classical": True, "size": closure.size})
    return _envelope("semigroup", OK, data, args, human)


def _cmd_moments(args) -> Tuple[int, str]:
    h, text = _load(args.file)
    ps = _parse_int_list(args.p)
    if not ps:
        raise InvalidInputError(f"--p names no word length: {args.p!r}")
    reports = [moment(h, p, args.cycle_tol) for p in ps]
    code = AMBIGUOUS if any(r.ambiguous for r in reports) else OK
    data = {"moments": [{"p": r.p, "value": r.value, "formal": r.formal,
                         "ambiguous": r.ambiguous} for r in reports]}
    human = "; ".join(
        f"p={r.p}: {r.value}" + (" (formal)" if r.formal else "")
        + (" AMBIGUOUS" if r.ambiguous else "") for r in reports)
    _catalog(args, "moments", text,
             {"values": {str(r.p): r.value for r in reports}})
    return _envelope("moments", code, data, args, human)


def _cmd_profile(args) -> Tuple[int, str]:
    h, text = _load(args.file)
    prof = equivalence_profile(h, tol=args.tol, budget=args.budget)
    data = {"shape": list(prof.shape), "defect": prof.defect,
            "cycle_labels": list(prof.cycle_labels),
            "butson_order": prof.butson_order}
    human = (f"shape {prof.shape[0]}x{prof.shape[1]}, defect {prof.defect}, "
             f"cycles {'/'.join(prof.cycle_labels)}, "
             f"root-of-unity order {prof.butson_order}")
    _catalog(args, "profile", text, data)
    return _envelope("profile", OK, data, args, human)


def _cmd_probe(args) -> Tuple[int, str]:
    if args.probe_kind == "truncation":
        sizes = _parse_int_list(args.sizes) if args.sizes else None
        certs = truncation_probe(args.n, sizes, args.tol, args.confidence)
        data = {"certificates": [
            {"rows": c.shape[0], "cols": c.shape[1], "defect": c.defect,
             "bound": c.bound, "status": c.status, "exact": c.exact,
             "method": c.report.method, "breakdown": c.report.breakdown}
            for c in certs]}
        human = "\n".join(str(c) for c in certs)
        code = OK
        _catalog(args, "probe truncation", None,
                 {"n": args.n, "statuses": [c.status for c in certs]})
        return _envelope("probe", code, data, args, human)
    if args.probe_kind == "arithmetic":
        base = _mw_base(args)
        spec = MWSpec(args.q, tuple(_parse_int_list(args.s)),
                      tuple(_parse_int_list(args.t)), base)
        rep = arithmetic_isolation_probe(spec, args.tol)
        code = OK if rep.certified_isolated else PROPERTY_FAILS
        data = {"rows": rep.shape[0], "cols": rep.shape[1],
                "defect": rep.defect, "bound": rep.bound,
                "status": rep.status,
                "certified_isolated": rep.certified_isolated,
                "pattern_notes": list(rep.pattern_notes)}
        human = (f"{rep.shape[0]}x{rep.shape[1]}: defect {rep.defect}, bound "
                 f"{rep.bound} -> {rep.status}")
        if rep.pattern_notes:
            human += "\n" + "\n".join("note: " + s for s in rep.pattern_notes)
        _catalog(args, "probe arithmetic", None, data)
        return _envelope("probe", code, data, args, human)
    raise InvalidInputError(f"unknown probe {args.probe_kind!r}")


# -- parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hadlab",
        description="Construct and analyze partial complex Hadamard matrices")
    top.add_argument("--version", action="version", version=f"hadlab {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, tol=True):
        p.add_argument("--json", action="store_true",
                       help="emit a machine-readable result envelope")
        p.add_argument("--catalog", metavar="PATH",
                       help="append a record to this JSON-lines catalog "
                            "(or set HADLAB_CATALOG)")
        if tol:
            p.add_argument("--tol", type=_finite_positive, default=1e-9)
        p.add_argument("--confidence", type=_finite_positive, default=1e6,
                       help="minimum spectral gap ratio for a confident "
                            "rank decision")

    gen = sub.add_parser("gen", help="construct a matrix")
    gensub = gen.add_subparsers(dest="kind", required=True)

    def gen_common(p):
        common(p)
        p.add_argument("-o", "--output", metavar="FILE",
                       help="write the matrix here instead of stdout")
        p.add_argument("--label", help="label stored in the document")

    g = gensub.add_parser("fourier", help="cyclic Fourier matrix")
    g.add_argument("n", type=int)
    gen_common(g)
    g = gensub.add_parser("fourier-group", help="Fourier matrix of a product "
                                                "of cyclic groups")
    g.add_argument("orders", type=int, nargs="+")
    gen_common(g)
    g = gensub.add_parser("truncated-fourier", help="row truncation")
    g.add_argument("--orders", required=True, help="e.g. 6 or 2,3")
    g.add_argument("--rows", required=True,
                   help="flat indices 0,1 or coordinates 0:0,1:2")
    gen_common(g)
    g = gensub.add_parser("f22q", help="4x4 one-parameter family")
    g.add_argument("--q", required=True, help="phase as a turn: 1/20 or 0.05")
    gen_common(g)
    g = gensub.add_parser("petrescu", help="7x7 one-parameter family")
    g.add_argument("--q", required=True, help="phase as a turn")
    gen_common(g)
    g = gensub.add_parser("dita", help="phase-deformed tensor product")
    g.add_argument("--outer", required=True, metavar="FILE")
    g.add_argument("--inner", required=True, metavar="FILE")
    g.add_argument("--phases", required=True, metavar="FILE",
                   help="JSON 2D array of turns")
    gen_common(g)
    g = gensub.add_parser("master-dita",
                          help="deformed Fourier tensor with its "
                               "eigenphase/exponent table")
    g.add_argument("n", type=int)
    g.add_argument("m", type=int)
    g.add_argument("k", type=int)
    g.add_argument("--p", required=True, help="m inner parameters")
    g.add_argument("--r", required=True, help="n outer parameters")
    gen_common(g)
    g = gensub.add_parser("mw", help="Gauss-sum tensor construction")
    g.add_argument("--q", type=int, required=True, help="odd prime")
    g.add_argument("--s", required=True, help="row exponents, e.g. 1,3")
    g.add_argument("--t", required=True, help="column exponents, e.g. 0,2")
    g.add_argument("--base", metavar="FILE", help="base Hadamard matrix")
    g.add_argument("--base-fourier", type=int, default=2,
                   help="use this cyclic Fourier matrix as base (default 2)")
    gen_common(g)

    p = sub.add_parser("verify", help="check the partial Hadamard property")
    p.add_argument("file")
    common(p)

    p = sub.add_parser("defect", help="tangent-space dimension")
    p.add_argument("file", nargs="?", help="matrix file (optional for "
                                           "split/master with explicit data)")
    p.add_argument("--method", default="direct",
                   choices=["direct", "exact", "extension", "split", "master"])
    p.add_argument("--orders", help="split: cyclic orders, e.g. 6 or 2,3")
    p.add_argument("--rows", help="split: row subset")
    p.add_argument("--spec", metavar="FILE",
                   help="master: eigenphase/exponent JSON")
    p.add_argument("--seed", type=int, help="extension: completion mixer seed")
    common(p)

    p = sub.add_parser("isolated", help="isolation certificate from the defect")
    p.add_argument("file")
    common(p)

    p = sub.add_parser("regularity", help="cycle decompositions of row pairs")
    p.add_argument("file")
    p.add_argument("--cycle-tol", type=_finite_positive, default=1e-8)
    p.add_argument("--budget", type=_budget, default=10 ** 7,
                   help="search nodes (calls + completion attempts)")
    common(p)

    p = sub.add_parser("semigroup", help="partial permutation semigroup of "
                                         "the projection grid")
    p.add_argument("file")
    p.add_argument("--cycle-tol", type=_finite_positive, default=1e-8)
    common(p)

    p = sub.add_parser("moments", help="unit-eigenvalue counts of moment "
                                       "matrices")
    p.add_argument("file")
    p.add_argument("--p", required=True, help="word lengths, e.g. 1,2,3")
    p.add_argument("--cycle-tol", type=_finite_positive, default=1e-8)
    common(p)

    p = sub.add_parser("profile", help="equivalence invariants")
    p.add_argument("file")
    p.add_argument("--budget", type=_budget, default=10 ** 7,
                   help="search nodes (calls + completion attempts)")
    common(p)

    p = sub.add_parser("probe", help="batteries of related analyses")
    probesub = p.add_subparsers(dest="probe_kind", required=True)
    t = probesub.add_parser("truncation", help="initial truncations of F_n")
    t.add_argument("n", type=int)
    t.add_argument("--sizes", help="row counts, e.g. 2,3,4")
    common(t)
    a = probesub.add_parser("arithmetic", help="isolation of a Gauss-sum "
                                               "matrix")
    a.add_argument("--q", type=int, required=True)
    a.add_argument("--s", required=True)
    a.add_argument("--t", required=True)
    a.add_argument("--base", metavar="FILE")
    a.add_argument("--base-fourier", type=int, default=2)
    common(a)

    return top


_HANDLERS = {
    "gen": _cmd_gen,
    "verify": _cmd_verify,
    "defect": _cmd_defect,
    "isolated": _cmd_isolated,
    "regularity": _cmd_regularity,
    "semigroup": _cmd_semigroup,
    "moments": _cmd_moments,
    "profile": _cmd_profile,
    "probe": _cmd_probe,
}


def run_command(argv: Sequence[str]) -> Tuple[int, str]:
    """Parse and execute; returns (exit_code, output_text)."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        # argparse already printed usage to stderr
        return (BAD_INPUT if exc.code not in (0, None) else OK), ""
    try:
        return _HANDLERS[args.command](args)
    except (InvalidInputError, MatrixFormatError, FileNotFoundError) as exc:
        return BAD_INPUT, f"error: {exc}"
    except (ConsistencyError, SearchBudgetExceeded) as exc:
        return AMBIGUOUS, f"inconclusive: {exc}"


def main() -> None:
    code, text = run_command(sys.argv[1:])
    if text:
        print(text, file=sys.stderr if code in (BAD_INPUT, AMBIGUOUS) else sys.stdout)
    sys.exit(code)


if __name__ == "__main__":
    main()
