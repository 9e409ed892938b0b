"""Command line interface.

Exit codes: 0 success (and the checked property holds), 1 the property
fails (not Hadamard, not certified isolated, irregular, non-classical),
2 invalid input, 3 a numerical or search outcome too ambiguous to call.

Each command is one entry of COMMANDS: its handler, the options it reads
and the analysis modules it runs.  ``run_command`` is the one dispatcher:
it parses, imports the command's modules, loads the matrix file, runs the
handler, appends the catalog record and renders the outcome as text or as
the ``--json`` envelope.  This module imports only what parsing, loading
and the catalog need, so a command process imports no analysis module
that its handler does not run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from . import __version__, _submodule
from .catalog import CatalogRecord, append_record, catalog_path, content_hash
from .errors import (DEFAULT_BUDGET, DEFAULT_CONFIDENCE, DEFAULT_TOL,
                     ConsistencyError, InvalidInputError, SearchBudgetExceeded,
                     tolerance)
from .io import (dumps_phm, loads_phm, number_from_json, to_document,
                 turn_from_json)
from .matrix import PHMatrix, verify_partial_hadamard
from .phases import PhaseEntry, _number, parse_phase

OK = 0
PROPERTY_FAILS = 1
BAD_INPUT = 2
AMBIGUOUS = 3
# the exit code of an isolation certificate's status
STATUS_CODE = {"isolated": OK, "undetermined": PROPERTY_FAILS,
               "ambiguous": AMBIGUOUS}


class Outcome(NamedTuple):
    """What a command found.  ``data`` is its ``--json`` output: a dict,
    which ``run_command`` wraps in the result envelope, or, from ``gen``,
    finished JSON text printed as it is.  ``human`` is the text printed
    without ``--json``; ``summary`` goes into the catalog record."""
    code: int
    data: Union[dict, str]
    human: str
    summary: dict


def _jsonable(x):
    """A command's data or summary as JSON values: what a command puts
    there is dicts, lists and tuples of str, int, bool, None, finite
    floats, Fractions (``gen master-dita`` exponents) and +inf (a
    confident ``gap_ratio``)."""
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, Fraction):
        return [x.numerator, x.denominator]
    return "inf" if x == math.inf else x


def _dumps(x) -> str:
    return json.dumps(_jsonable(x), sort_keys=True)


# -- option values ---------------------------------------------------------------

def _comma_list(text: str, convert: Callable, error: str) -> list:
    """The non-blank items of a comma-separated list, each through
    ``convert``; ``error`` is the message for an item it refuses, formatted
    with the ``item`` and the whole ``text``."""
    out = []
    for t in text.split(","):
        t = t.strip()
        if t:
            try:
                out.append(convert(t))
            except (ValueError, ZeroDivisionError) as exc:
                raise InvalidInputError(error.format(item=t, text=text)) from exc
    return out


def _ints(text: str) -> list:
    return _comma_list(text, int, "expected comma-separated integers: {text!r}")


def _numbers(text: str) -> list:
    return _comma_list(text, _number, "bad number {item!r}")


def _row(t: str):
    return tuple(int(c) for c in t.split(":")) if ":" in t else int(t)


def _rows(text: str) -> list:
    return _comma_list(text, _row, "bad row {item!r}: expected an integer "
                                   "or colon-separated coordinates")


def _finite_positive(text: str) -> float:
    """argparse type of --tol and --confidence: the float of
    the text, when it passes errors.tolerance."""
    try:
        return tolerance(float(text), "option")
    except ValueError:          # InvalidInputError is one
        raise argparse.ArgumentTypeError(
            f"expected a finite number > 0, got {text!r}") from None


def _budget(text: str) -> int:
    """argparse type of --budget: an integer node count of at least 1."""
    try:
        x = int(text)
    except ValueError:
        x = 0
    if x < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return x


# -- input files -----------------------------------------------------------------

def _load(path: str) -> Tuple[PHMatrix, str]:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return loads_phm(text), text


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"{path} is not valid JSON: {exc}") from exc


def _phase_from_json(e) -> PhaseEntry:
    """A turn as "p/q" or decimal text, or as io.turn_from_json reads it."""
    return parse_phase(e) if isinstance(e, str) else turn_from_json(e)


def _spec_from_file(path: str, m: SimpleNamespace):
    """The MasterSpec of an eigenphase/exponent JSON file."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise InvalidInputError("spec file must be a JSON object")
    try:
        lam, expo = doc["eigenphases"], doc["exponents"]
    except KeyError as exc:
        raise InvalidInputError(f"spec file missing field {exc}") from exc
    if not (isinstance(lam, list) and isinstance(expo, list)):
        raise InvalidInputError("spec eigenphases and exponents must be lists")
    return m.constructors.MasterSpec(tuple(_phase_from_json(e) for e in lam),
                                     tuple(_exponent_from_json(e) for e in expo))


def _exponent_from_json(e):
    if not isinstance(e, str):
        return number_from_json(e, "exponent")
    try:
        return Fraction(e)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"cannot parse exponent {e!r}: {exc}") from exc


def _mw_spec(args, m: SimpleNamespace):
    """The MWSpec of the --q, --s, --t and base options."""
    base = (_load(args.base)[0] if args.base
            else m.constructors.fourier_cyclic(args.base_fourier))
    return m.mcnulty_weigert.MWSpec(args.q, tuple(_ints(args.s)),
                                    tuple(_ints(args.t)), base)


# -- gen -------------------------------------------------------------------------

def _gen(build: Callable) -> Callable:
    """The handler of a gen kind.  ``build(args, m)`` returns the matrix and
    the extra fields of its ``--json`` output; the matrix goes to ``-o
    FILE``, or to stdout as a phm-v1 document."""
    def handler(args, _, m) -> Outcome:
        h, extra = build(args, m)
        doc_text = dumps_phm(h, label=args.label)
        summary = {"rows": h.m, "cols": h.n, "label": h.label}
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(doc_text)
            return Outcome(OK, _dumps({"written": args.output, **extra}),
                           f"wrote {h.m}x{h.n} matrix to {args.output}", summary)
        doc_text = doc_text.rstrip("\n")
        data = (_dumps({"matrix": to_document(h, args.label), **extra})
                if extra else doc_text)
        return Outcome(OK, data, doc_text, summary)
    return handler


def _dita(args, m):
    outer, _ = _load(args.outer)
    inner, _ = _load(args.inner)
    grid_spec = _read_json(args.phases)
    if not isinstance(grid_spec, list) or not all(isinstance(r, list) for r in grid_spec):
        raise InvalidInputError("phase grid must be a list of rows")
    grid = tuple(tuple(_phase_from_json(e) for e in row) for row in grid_spec)
    c = m.constructors
    return c.dita_deformation(c.DitaParams(outer, inner, grid)), {}


def _master_dita(args, m):
    h, spec = m.constructors.master_dita(args.n, args.m, args.k,
                                         _numbers(args.p), _numbers(args.r))
    return h, {"spec": {"eigenphase_turns": spec.angle_turns(),
                        "exponents": spec.exponents}}


# -- analysis --------------------------------------------------------------------

def _verify(args, h: PHMatrix, _) -> Outcome:
    rep = verify_partial_hadamard(h, args.tol)
    data = {"is_hadamard": rep.is_hadamard,
            "max_inner_residual": rep.max_inner_residual,
            "max_modulus_residual": rep.max_modulus_residual,
            "tolerance": rep.tolerance, "rows": h.m, "cols": h.n}
    human = (f"{h.m}x{h.n}: "
             + ("partial Hadamard" if rep.is_hadamard else "NOT partial Hadamard")
             + f" (inner residual {rep.max_inner_residual:.3g}, modulus residual "
             f"{rep.max_modulus_residual:.3g}, tol {args.tol:g})")
    return Outcome(OK if rep.is_hadamard else PROPERTY_FAILS, data, human, data)


def _require_match(h: PHMatrix, declared: PHMatrix, what: str, tol: float) -> None:
    """Refuse a matrix file that is not the construction its options declare."""
    if h.shape != declared.shape or not (
            np.max(np.abs(h.to_array() - declared.to_array())) <= tol):
        raise InvalidInputError(f"file does not match the declared {what}")


def _defect(args, h: Optional[PHMatrix], m) -> Outcome:
    method, d = args.method, m.defect
    if method == "split":
        if not (args.orders and args.rows):
            raise InvalidInputError("split method needs --orders and --rows")
        orders, rows = _ints(args.orders), _rows(args.rows)
        if h is not None:
            _require_match(h, m.constructors.truncated_fourier(rows, orders),
                           "truncated Fourier construction", args.tol)
        rep = d.defect_split_truncated_fourier(rows, orders, args.tol,
                                               args.confidence)
    elif method == "master":
        if not args.spec:
            raise InvalidInputError("master method needs --spec FILE")
        spec = _spec_from_file(args.spec, m)
        if h is not None:
            _require_match(h, m.constructors.master_matrix(spec),
                           "eigenphase/exponent table", args.tol)
        rep = d.defect_master(spec, args.tol, args.confidence)
    elif h is None:
        raise InvalidInputError("this method needs a matrix FILE")
    elif method == "direct":
        rep = d.defect(h, args.tol, args.confidence)
    elif method == "exact":
        rep = d.defect_exact(h)
    else:
        rep = d.defect_via_extension(h, args.tol, args.confidence, seed=args.seed)
    data = {"defect": rep.defect, "method": rep.method, "bound": rep.bound,
            "unknowns": rep.unknowns, "rank": rep.rank,
            "gap_ratio": rep.gap_ratio, "tolerance": rep.tolerance,
            "ambiguous": rep.ambiguous, "exact": rep.exact,
            "breakdown": rep.breakdown}
    human = (f"defect {rep.defect} (method {rep.method}, bound {rep.bound}, "
             f"rank {rep.rank}/{rep.unknowns}, gap {rep.gap_ratio:.3g})"
             + (" [exact]" if rep.exact else "")
             + (" AMBIGUOUS" if rep.ambiguous else ""))
    return Outcome(AMBIGUOUS if rep.ambiguous else OK, data, human,
                   {"defect": rep.defect, "method": rep.method,
                    "ambiguous": rep.ambiguous})


def _certificate_data(cert) -> dict:
    """The ``--json`` fields of an isolation certificate."""
    return {"defect": cert.defect, "bound": cert.bound, "status": cert.status,
            "exact": cert.exact, "method": cert.report.method,
            "breakdown": cert.report.breakdown}


def _isolated(args, h: PHMatrix, m) -> Outcome:
    cert = m.defect.isolation_certificate(h, args.tol, args.confidence)
    data = {**_certificate_data(cert),
            "certified_isolated": cert.certified_isolated}
    return Outcome(STATUS_CODE[cert.status], data, str(cert), data)


def _regularity(args, h: PHMatrix, m) -> Outcome:
    profile = m.regularity.cycle_structure_profile(h, tol=args.tol,
                                                   budget=args.budget)
    inconclusive = sorted(k for k, v in profile.items() if v == "inconclusive")
    irregular = sorted(k for k, v in profile.items() if v == "irregular")
    if inconclusive:
        code = AMBIGUOUS
        human = f"inconclusive pairs (budget {args.budget}): {inconclusive}"
    elif irregular:
        code = PROPERTY_FAILS
        human = f"irregular pairs: {irregular}"
    else:
        code = OK
        human = "regular: " + ", ".join(
            f"({i},{j}) {v}" for (i, j), v in sorted(profile.items()))
    data = {"regular": code == OK,
            "pairs": {f"{i},{j}": v for (i, j), v in sorted(profile.items())},
            "irregular_pairs": [list(p) for p in irregular],
            "inconclusive_pairs": [list(p) for p in inconclusive]}
    return Outcome(code, data, human, {"regular": code == OK,
                                       "n_irregular": len(irregular),
                                       "n_inconclusive": len(inconclusive)})


def _semigroup(args, h: PHMatrix, m) -> Outcome:
    rep, res = m.semigroup._grid_classes(h, args.tol)
    if res is None:
        data = {"classical": False, "worst_overlap": rep.worst_overlap}
        return Outcome(PROPERTY_FAILS, data,
                       f"non-classical grid: overlap {rep.worst_overlap:.3g} "
                       f"is neither 0 nor 1", data)
    square = res[0]
    closure = m.semigroup.square_closure(square)
    data = {"classical": True, "n_labels": square.n_labels,
            "square": [list(r) for r in square.labels],
            "size": closure.size,
            "elements": closure.notations()}
    human = (f"classical, {square.n_labels} classes\n{square}\n"
             f"closure: {closure.size} elements: "
             + " ".join(closure.notations()))
    return Outcome(OK, data, human, {"classical": True, "size": closure.size})


def _moments(args, h: PHMatrix, m) -> Outcome:
    ps = _ints(args.p)
    if not ps:
        raise InvalidInputError(f"--p names no word length: {args.p!r}")
    reports = [m.semigroup.moment(h, p, args.tol) for p in ps]
    data = {"moments": [{"p": r.p, "value": r.value, "formal": r.formal,
                         "ambiguous": r.ambiguous} for r in reports]}
    human = "; ".join(
        f"p={r.p}: {r.value}" + (" (formal)" if r.formal else "")
        + (" AMBIGUOUS" if r.ambiguous else "") for r in reports)
    return Outcome(AMBIGUOUS if any(r.ambiguous for r in reports) else OK,
                   data, human, {"values": {str(r.p): r.value for r in reports}})


def _profile(args, h: PHMatrix, m) -> Outcome:
    prof = m.regularity.equivalence_profile(h, tol=args.tol, budget=args.budget)
    data = {"shape": list(prof.shape), "defect": prof.defect,
            "cycle_labels": list(prof.cycle_labels),
            "butson_order": prof.butson_order}
    human = (f"shape {prof.shape[0]}x{prof.shape[1]}, defect {prof.defect}, "
             f"cycles {'/'.join(prof.cycle_labels)}, "
             f"root-of-unity order {prof.butson_order}")
    return Outcome(OK, data, human, data)


def _probe_truncation(args, _, m) -> Outcome:
    sizes = _ints(args.sizes) if args.sizes else None
    certs = m.defect.truncation_probe(args.n, sizes, args.tol, args.confidence)
    data = {"certificates": [
        {"rows": c.shape[0], "cols": c.shape[1], **_certificate_data(c)}
        for c in certs]}
    return Outcome(OK, data, "\n".join(str(c) for c in certs),
                   {"n": args.n, "statuses": [c.status for c in certs]})


def _probe_arithmetic(args, _, m) -> Outcome:
    rep = m.mcnulty_weigert.arithmetic_isolation_probe(_mw_spec(args, m), args.tol)
    data = {"rows": rep.shape[0], "cols": rep.shape[1],
            "defect": rep.defect, "bound": rep.bound,
            "status": rep.status,
            "certified_isolated": rep.certified_isolated,
            "pattern_notes": list(rep.pattern_notes)}
    human = (f"{rep.shape[0]}x{rep.shape[1]}: defect {rep.defect}, bound "
             f"{rep.bound} -> {rep.status}")
    if rep.pattern_notes:
        human += "\n" + "\n".join("note: " + s for s in rep.pattern_notes)
    return Outcome(STATUS_CODE[rep.status], data, human, data)


# -- the command table -------------------------------------------------------------

def _arg(*flags, **kwargs) -> tuple:
    return flags, kwargs


FILE = (_arg("file"),)
TOL = (_arg("--tol", type=_finite_positive, default=DEFAULT_TOL,
            help="residual bound of verification; grid, cycle and moment "
                 "thresholds are 10x it"),)
CONFIDENCE = (_arg("--confidence", type=_finite_positive,
                   default=DEFAULT_CONFIDENCE,
                   help="minimum spectral gap ratio for a confident "
                        "rank decision"),)
BUDGET = (_arg("--budget", type=_budget, default=DEFAULT_BUDGET,
               help="search nodes (calls + completion attempts) per search; "
                    "exact input has one search per distinct term multiset"),)
MW_SPEC = (
    _arg("--q", type=int, required=True, help="odd prime"),
    _arg("--s", required=True, help="row exponents, e.g. 1,3"),
    _arg("--t", required=True, help="column exponents, e.g. 0,2"),
    _arg("--base", metavar="FILE", help="base Hadamard matrix"),
    _arg("--base-fourier", type=int, default=2,
         help="use this cyclic Fourier matrix as base (default 2)"),
)
GEN_OUTPUT = (
    _arg("-o", "--output", metavar="FILE",
         help="write the matrix here instead of stdout"),
    _arg("--label", help="label stored in the document"),
)
# read by run_command for every command
RESULT_OUTPUT = (
    _arg("--json", action="store_true",
         help="emit a machine-readable result envelope"),
    _arg("--catalog", metavar="PATH",
         help="append a record to this JSON-lines catalog "
              "(or set HADLAB_CATALOG)"),
)


class Command(NamedTuple):
    """A command: its help line; ``handler(args, h, m)``, called with the
    parsed options, the matrix FILE (or None) and ``m``, whose attributes
    are the modules named in ``modules``; the options it reads; and the
    analysis modules it runs, in layer order, imported after parsing."""
    help: str
    handler: Callable[[argparse.Namespace, Optional[PHMatrix], SimpleNamespace],
                      Outcome]
    options: tuple
    modules: Tuple[str, ...] = ()


# a two-word name is a subcommand of the group named by its first word
GROUPS = {"gen": ("construct a matrix", "kind"),
          "probe": ("batteries of related analyses", "probe_kind")}

COMMANDS = {
    "gen fourier": Command(
        "cyclic Fourier matrix",
        _gen(lambda a, m: (m.constructors.fourier_cyclic(a.n), {})),
        (_arg("n", type=int),) + GEN_OUTPUT, ("constructors",)),
    "gen fourier-group": Command(
        "Fourier matrix of a product of cyclic groups",
        _gen(lambda a, m: (m.constructors.fourier_group(a.orders), {})),
        (_arg("orders", type=int, nargs="+"),) + GEN_OUTPUT, ("constructors",)),
    "gen truncated-fourier": Command(
        "row truncation",
        _gen(lambda a, m: (m.constructors.truncated_fourier(
            _rows(a.rows), _ints(a.orders)), {})),
        (_arg("--orders", required=True, help="e.g. 6 or 2,3"),
         _arg("--rows", required=True,
              help="flat indices 0,1 or coordinates 0:0,1:2")) + GEN_OUTPUT,
        ("constructors",)),
    "gen f22q": Command(
        "4x4 one-parameter family",
        _gen(lambda a, m: (m.constructors.f22q(parse_phase(a.q)), {})),
        (_arg("--q", required=True, help="phase as a turn: 1/20 or 0.05"),)
        + GEN_OUTPUT, ("constructors",)),
    "gen petrescu": Command(
        "7x7 one-parameter family",
        _gen(lambda a, m: (m.constructors.petrescu(parse_phase(a.q)), {})),
        (_arg("--q", required=True, help="phase as a turn"),) + GEN_OUTPUT,
        ("constructors",)),
    "gen dita": Command(
        "phase-deformed tensor product", _gen(_dita),
        (_arg("--outer", required=True, metavar="FILE"),
         _arg("--inner", required=True, metavar="FILE"),
         _arg("--phases", required=True, metavar="FILE",
              help="JSON 2D array of turns")) + GEN_OUTPUT, ("constructors",)),
    "gen master-dita": Command(
        "deformed Fourier tensor with its eigenphase/exponent table",
        _gen(_master_dita),
        (_arg("n", type=int), _arg("m", type=int), _arg("k", type=int),
         _arg("--p", required=True, help="m inner parameters"),
         _arg("--r", required=True, help="n outer parameters")) + GEN_OUTPUT,
        ("constructors",)),
    "gen mw": Command(
        "Gauss-sum tensor construction",
        _gen(lambda a, m: (m.mcnulty_weigert.mw_construct(_mw_spec(a, m),
                                                          tol=a.tol), {})),
        MW_SPEC + TOL + GEN_OUTPUT, ("constructors", "mcnulty_weigert")),
    "verify": Command("check the partial Hadamard property", _verify,
                      FILE + TOL),
    "defect": Command(
        "tangent-space dimension", _defect,
        (_arg("file", nargs="?", help="matrix file (optional for "
                                      "split/master with explicit data)"),
         _arg("--method", default="direct",
              choices=["direct", "exact", "extension", "split", "master"]),
         _arg("--orders", help="split: cyclic orders, e.g. 6 or 2,3"),
         _arg("--rows", help="split: row subset"),
         _arg("--spec", metavar="FILE", help="master: eigenphase/exponent JSON"),
         _arg("--seed", type=int, help="extension: completion mixer seed"))
        + TOL + CONFIDENCE, ("constructors", "defect")),
    "isolated": Command("isolation certificate from the defect", _isolated,
                        FILE + TOL + CONFIDENCE, ("defect",)),
    "regularity": Command("cycle decompositions of row pairs", _regularity,
                          FILE + TOL + BUDGET, ("regularity",)),
    "semigroup": Command(
        "partial permutation semigroup of the projection grid", _semigroup,
        FILE + TOL, ("semigroup",)),
    "moments": Command(
        "unit-eigenvalue counts of moment matrices", _moments,
        FILE + (_arg("--p", required=True, help="word lengths, e.g. 1,2,3"),)
        + TOL, ("semigroup",)),
    "profile": Command("equivalence invariants", _profile,
                       FILE + BUDGET + TOL, ("regularity",)),
    "probe truncation": Command(
        "initial truncations of F_n", _probe_truncation,
        (_arg("n", type=int), _arg("--sizes", help="row counts, e.g. 2,3,4"))
        + TOL + CONFIDENCE, ("defect",)),
    "probe arithmetic": Command("isolation of a Gauss-sum matrix",
                                _probe_arithmetic, MW_SPEC + TOL,
                                ("constructors", "mcnulty_weigert")),
}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hadlab",
        description="Construct and analyze partial complex Hadamard matrices")
    top.add_argument("--version", action="version", version=f"hadlab {__version__}")
    sub = top.add_subparsers(dest="command", required=True)
    groups = {}
    for name, command in COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group and group not in groups:
            help_text, dest = GROUPS[group]
            groups[group] = sub.add_parser(group, help=help_text).add_subparsers(
                dest=dest, required=True)
        p = groups.get(group, sub).add_parser(leaf, help=command.help)
        for flags, kwargs in command.options + RESULT_OUTPUT:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(entry=name, parser=p)
    return top


def run_command(argv: Sequence[str]) -> Tuple[int, str]:
    """Parse and execute; returns (exit_code, output_text)."""
    try:
        args, extra = build_parser().parse_known_args(list(argv))
        if extra:
            # reported by the command's own parser, so its usage is shown
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        # argparse already printed usage to stderr
        return (BAD_INPUT if exc.code not in (0, None) else OK), ""
    command = COMMANDS[args.entry]
    m = SimpleNamespace(**{name: _submodule(name) for name in command.modules})
    try:
        h, text = _load(args.file) if getattr(args, "file", None) else (None, None)
        out = command.handler(args, h, m)
        path = catalog_path(args.catalog)
        if path:
            append_record(path, CatalogRecord(
                command=args.entry,
                input_sha256=content_hash(text) if text is not None else None,
                summary=_jsonable(out.summary)))
    except (InvalidInputError, OSError, UnicodeDecodeError) as exc:
        out = Outcome(BAD_INPUT, {"error": str(exc)}, f"error: {exc}", {})
    except (ConsistencyError, SearchBudgetExceeded) as exc:
        out = Outcome(AMBIGUOUS, {"error": str(exc)}, f"inconclusive: {exc}", {})
    if not args.json:
        return out.code, out.human
    if isinstance(out.data, str):
        return out.code, out.data
    return out.code, _dumps({"command": args.command, "ok": out.code == OK,
                             "exit_code": out.code, "data": out.data})


def main() -> None:
    code, text = run_command(sys.argv[1:])
    if text:
        print(text, file=sys.stderr if code in (BAD_INPUT, AMBIGUOUS) else sys.stdout)
    sys.exit(code)


if __name__ == "__main__":
    main()
