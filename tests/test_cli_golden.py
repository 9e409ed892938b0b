"""Golden outputs of every command on fixed inputs.

Each case runs through ``cli.run_command`` twice: as given, with a
catalog, and with ``--json``.  The exit codes, the printed text, the
``--json`` output and the catalog record (timestamp and tool version
dropped) must equal ``cli_golden.json`` byte for byte.  The ``--json``
output of a case that writes a file or fails with an error is left to
test_cli.py, which checks it against the schema.  Spectral gaps and
verify residuals come from floating-point SVDs and products whose last
digits vary with the BLAS build, so they are masked in the text and
dropped from the JSON, as is the full-precision worst overlap of a
non-classical grid.

``python tests/test_cli_golden.py`` rewrites ``cli_golden.json`` from the
checkout's current outputs; review the diff before committing it.
"""

import json
import os
import re
from fractions import Fraction

import pytest

from hadlab import f22q_master_spec
from hadlab.cli import run_command

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "cli_golden.json")

INPUTS = {
    "f2.json": "gen fourier 2",
    "f3.json": "gen fourier 3",
    "f6.json": "gen fourier 6",
    "f2x3.json": "gen fourier-group 2 3",
    "t8.json": "gen truncated-fourier --orders 8 --rows 0,1,2,3",
    "f22q.json": "gen f22q --q 1/20",
    "p7.json": "gen petrescu --q 1/7",
    "mw5.json": "gen mw --q 5 --s 1,3 --t 0,2",
}
MATRICES = ("f6", "f2x3", "t8", "f22q", "p7", "mw5")

CASES = [
    "gen fourier 6",
    "gen fourier 6 --label six",
    "gen fourier 6 -o {dir}/out.json",
    "gen fourier-group 2 3",
    "gen truncated-fourier --orders 8 --rows 0,1,2,3",
    "gen truncated-fourier --orders 2,3 --rows 0:0,1:2",
    "gen f22q --q 1/20",
    "gen f22q --q 0.0523",
    "gen petrescu --q 1/7",
    "gen dita --outer {dir}/f2.json --inner {dir}/f3.json --phases {dir}/grid.json",
    "gen master-dita 2 2 1 --p 0,1 --r 0,2",
    "gen master-dita 2 2 1 --p 0,1 --r 0,2 -o {dir}/md.json",
    "gen mw --q 5 --s 1,3 --t 0,2",
    "gen mw --q 5 --s 1,3 --t 0,2 --base {dir}/f2.json --tol 1e-6",
    "gen mw --q 5 --s 1,2 --t 0,2",
    "gen truncated-fourier --orders 8 --rows 0,x",
    "verify {dir}/nope.json",
    "defect {dir}/t8.json --method split --orders 8 --rows 0,1,2,3",
    "defect --method split --orders 8 --rows 0,1,2,3",
    "defect {dir}/f2x3.json --method split --orders 2,3 --rows 0,1,2,3,4,5",
    "defect {dir}/f22q.json --method master --spec {dir}/spec.json",
    "defect --method master --spec {dir}/spec.json",
    "defect --method master",
    "defect --method exact",
    "defect {dir}/f6.json --method extension --seed 7",
    "defect {dir}/f6.json --confidence 1e20",
    "regularity {dir}/p7.json --budget 2",
    "moments {dir}/f6.json --p ,",
    "probe truncation 6",
    "probe truncation 5 --sizes 2,4 --tol 1e-8 --confidence 1e5",
    "probe arithmetic --q 5 --s 1,3 --t 0,2",
    "probe arithmetic --q 7 --s 1,3 --t 0,2 --base-fourier 2",
] + [f"{command} {{dir}}/{name}.json{extra}" for name in MATRICES
     for command, extra in (("verify", ""), ("defect", ""),
                            ("defect", " --method exact"), ("isolated", ""),
                            ("regularity", ""), ("semigroup", ""),
                            ("moments", " --p 1,2,3"), ("profile", ""))]

NOISY_KEYS = {"gap_ratio", "max_inner_residual", "max_modulus_residual",
              "worst_overlap"}
NOISY_TEXT = re.compile(r"\b(gap|residual) [-+.\w]+")


def _quiet(x):
    """``x`` without the values that vary with the BLAS build."""
    if isinstance(x, dict):
        return {k: _quiet(v) for k, v in x.items() if k not in NOISY_KEYS}
    if isinstance(x, list):
        return [_quiet(v) for v in x]
    return x


def _run(argv: str, workdir: str, *extra):
    words = [w.replace("{dir}", workdir) for w in argv.split()]
    code, text = run_command(words + list(extra))
    return code, NOISY_TEXT.sub(r"\1 ~", text.replace(workdir, "{dir}"))


def make_inputs(workdir: str) -> None:
    for name, argv in INPUTS.items():
        code, _ = run_command(argv.split() + ["-o", os.path.join(workdir, name)])
        assert code == 0, argv
    with open(os.path.join(workdir, "grid.json"), "w") as fh:
        json.dump([["0", "1/4", "1/3"], [0, [1, 2], 0.125]], fh)
    spec = f22q_master_spec(Fraction(1, 20))
    with open(os.path.join(workdir, "spec.json"), "w") as fh:
        json.dump({"eigenphases": [str(t) for t in spec.angle_turns()],
                   "exponents": [int(e) for e in spec.exponents]}, fh)


def observe(argv: str, workdir: str) -> dict:
    """Exit codes, texts and catalog record of one case."""
    catalog = os.path.join(workdir, "catalog.jsonl")
    if os.path.exists(catalog):
        os.remove(catalog)
    code, text = _run(argv, workdir, "--catalog", catalog)
    out = {"code": code, "text": text, "catalog": None}
    if os.path.exists(catalog):
        with open(catalog) as fh:
            (record,) = [json.loads(line) for line in fh]
        out["catalog"] = _quiet({k: v for k, v in record.items()
                                 if k not in ("timestamp", "tool_version")})
    if "-o" in argv.split() or text.startswith(("error:", "inconclusive:")):
        return out
    code, text = _run(argv, workdir, "--json")
    out["json_code"] = code
    try:
        out["json"] = _quiet(json.loads(text))
    except ValueError:
        out["json"] = text
    return out


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("golden"))
    make_inputs(path)
    return path


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("argv", CASES)
def test_cli_golden(argv, workdir, golden):
    assert observe(argv, workdir) == golden[argv]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        make_inputs(tmp)
        table = {argv: observe(argv, tmp) for argv in CASES}
    # one case a line, so that a changed output shows as one changed line
    with open(GOLDEN_PATH, "w") as fh:
        fh.write("{\n" + ",\n".join(
            json.dumps(argv) + ": " + json.dumps(table[argv], sort_keys=True,
                                                 ensure_ascii=False)
            for argv in sorted(table)) + "\n}\n")
