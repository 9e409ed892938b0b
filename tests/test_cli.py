import json
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from hadlab import (CATALOG_RECORD_SCHEMA, PHM_V1_SCHEMA, RESULT_SCHEMA,
                    ConsistencyError, PHMatrix, content_hash,
                    cyclic_defect_closed_form, defect,
                    defect_split_truncated_fourier, detect_butson, f22q,
                    f22q_master_spec, fourier_cyclic, load_phm, loads_phm,
                    read_records, save_phm, truncated_fourier)
from hadlab.cli import run_command
from hadlab.cyclotomic import exact_defect_butson
from hadlab.phases import ExactPhases
from fractions import Fraction


def run_json(argv):
    code, text = run_command(list(argv) + ["--json"])
    body = json.loads(text)
    jsonschema.validate(body, RESULT_SCHEMA)
    assert body["exit_code"] == code
    assert body["ok"] == (code == 0)
    return code, body


@pytest.fixture()
def f6_file(tmp_path):
    path = tmp_path / "f6.json"
    code, text = run_command(["gen", "fourier", "6", "-o", str(path)])
    assert code == 0 and "wrote 6x6" in text
    return str(path)


@pytest.fixture()
def f25_file(tmp_path):
    path = tmp_path / "f25.json"
    code, _ = run_command(["gen", "truncated-fourier", "--rows", "0,1",
                           "--orders", "5", "-o", str(path)])
    assert code == 0
    return str(path)


def modular_and_float(h):
    """The ranks modulo split primes on the exponent table of h, and the
    defect from the SVD, for comparison with a character count."""
    table = detect_butson(h)
    return exact_defect_butson(table.exp, table.order), defect(h).defect


def test_gen_fourier_stdout_is_document():
    code, text = run_command(["gen", "fourier", "6"])
    assert code == 0
    doc = json.loads(text)
    jsonschema.validate(doc, PHM_V1_SCHEMA)
    assert doc["butson_order"] == 6
    h = loads_phm(text)
    assert h.shape == (6, 6)


def test_gen_fourier_group_and_coordinates(tmp_path):
    code, text = run_command(["gen", "fourier-group", "2", "4"])
    assert code == 0
    assert json.loads(text)["rows"] == 8
    # truncations can address group rows by coordinates
    code, text = run_command(["gen", "truncated-fourier",
                              "--orders", "2,3", "--rows", "0:0,1:2"])
    assert code == 0
    assert json.loads(text)["rows"] == 2


def test_gen_f22q_exact_turn():
    code, text = run_command(["gen", "f22q", "--q", "1/20"])
    assert code == 0
    assert json.loads(text)["butson_order"] == 20


def test_gen_petrescu_verifies(tmp_path):
    path = tmp_path / "p7.json"
    code, _ = run_command(["gen", "petrescu", "--q", "3/20", "-o", str(path)])
    assert code == 0
    code, text = run_command(["verify", str(path)])
    assert code == 0
    assert "partial Hadamard" in text


def test_gen_dita_from_files(tmp_path):
    outer = tmp_path / "outer.json"
    inner = tmp_path / "inner.json"
    phases = tmp_path / "grid.json"
    save_phm(fourier_cyclic(2), str(outer))
    save_phm(fourier_cyclic(2), str(inner))
    phases.write_text(json.dumps([["0", "1/4"], [0, 0.25]]))
    code, text = run_command(["gen", "dita", "--outer", str(outer),
                              "--inner", str(inner), "--phases", str(phases)])
    assert code == 0
    assert json.loads(text)["rows"] == 4
    phases.write_text(json.dumps([["0", "oops"], [0, 0]]))
    code, text = run_command(["gen", "dita", "--outer", str(outer),
                              "--inner", str(inner), "--phases", str(phases)])
    assert code == 2 and text.startswith("error:")


def test_gen_master_dita_reports_spec():
    code, text = run_command(["gen", "master-dita", "2", "2", "1",
                              "--p", "0,1", "--r", "0,2", "--json"])
    assert code == 0
    body = json.loads(text)
    jsonschema.validate(body["matrix"], PHM_V1_SCHEMA)
    assert body["matrix"]["rows"] == 4
    assert len(body["spec"]["eigenphase_turns"]) == 4
    assert len(body["spec"]["exponents"]) == 4


def test_gen_mw(tmp_path):
    code, text = run_command(["gen", "mw", "--q", "5", "--s", "1,3",
                              "--t", "0,2"])
    assert code == 0
    assert json.loads(text)["rows"] == 10
    base = tmp_path / "base.json"
    save_phm(fourier_cyclic(2), str(base))
    code, text2 = run_command(["gen", "mw", "--q", "5", "--s", "1,3",
                               "--t", "0,2", "--base", str(base)])
    assert code == 0 and text2 == text
    code, text = run_command(["gen", "mw", "--q", "5", "--s", "1,2",
                              "--t", "0,2"])
    assert code == 2 and "disjoint" in text


def test_verify_failure_and_bad_input(tmp_path):
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps({
        "format": "phm-v1", "rows": 2, "cols": 2,
        "representation": "butson", "butson_order": 1,
        "entries": [[0, 0], [0, 0]]}) + "\n")
    code, text = run_command(["verify", str(flat)])
    assert code == 1 and "NOT partial Hadamard" in text
    code, text = run_command(["verify", str(tmp_path / "nope.json")])
    assert code == 2 and text.startswith("error:")
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, text = run_command(["verify", str(bad)])
    assert code == 2 and "not valid JSON" in text
    # a 1x1 matrix of order "true" would read as partial Hadamard
    bad.write_text(json.dumps({
        "format": "phm-v1", "rows": 1, "cols": 1,
        "representation": "butson", "butson_order": True, "entries": [[0]]}))
    code, text = run_command(["verify", str(bad)])
    assert code == 2 and "butson_order must be a positive integer" in text


def test_argparse_errors_exit_2():
    code, text = run_command(["frobnicate"])
    assert code == 2 and text == ""
    code, _ = run_command(["gen"])
    assert code == 2
    code, _ = run_command(["--version"])
    assert code == 0


def test_defect_methods_agree(f6_file, f25_file, tmp_path):
    code, body = run_json(["defect", f6_file])
    assert code == 0
    assert body["data"]["defect"] == 15
    assert body["data"]["method"] == "direct"
    assert body["data"]["bound"] == 11
    assert body["data"]["exact"] is False

    code, body = run_json(["defect", f6_file, "--method", "exact"])
    assert code == 0
    assert body["data"]["defect"] == 15
    assert body["data"]["exact"] is True
    assert body["data"]["method"] == "character-exact"
    assert body["data"]["breakdown"]["butson_order"] == 6
    res, float_defect = modular_and_float(load_phm(f6_file))
    assert res.exact and res.defect == float_defect == 15

    code, body = run_json(["defect", f6_file, "--method", "extension",
                           "--seed", "7"])
    assert code == 0 and body["data"]["defect"] == 15

    code, body = run_json(["defect", "--method", "split",
                           "--orders", "5", "--rows", "0,1"])
    assert code == 0 and body["data"]["defect"] == 8

    code, body = run_json(["defect", f25_file, "--method", "split",
                           "--orders", "5", "--rows", "0,1"])
    assert code == 0 and body["data"]["defect"] == 8

    # declared construction must match the file it claims to describe
    code, body = run_json(["defect", f6_file, "--method", "split",
                           "--orders", "5", "--rows", "0,1"])
    assert code == 2 and "does not match" in body["data"]["error"]
    code, text = run_command(["defect", f6_file, "--method", "split",
                              "--orders", "5", "--rows", "0,1"])
    assert code == 2 and text == ("error: file does not match the declared "
                                  "truncated Fourier construction")
    code, text = run_command(["defect", "--method", "split", "--rows", "0,1"])
    assert code == 2 and text == "error: split method needs --orders and --rows"


def test_defect_master_from_spec_file(tmp_path):
    spec = f22q_master_spec(Fraction(1, 20))
    doc = {"eigenphases": [f"{t.numerator}/{t.denominator}" if t else "0"
                           for t in spec.angle_turns()],
           "exponents": [int(e) for e in spec.exponents]}
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(doc))
    code, body = run_json(["defect", "--method", "master",
                           "--spec", str(spec_file)])
    assert code == 0
    assert body["data"]["defect"] == 8
    assert body["data"]["breakdown"]["direct_defect"] == 8
    code, text = run_command(["defect", "--method", "master"])
    assert code == 2 and "--spec" in text
    # exponents as exact text: (1/3) * (3/2) = 1/2 turn on principal turns,
    # so the rows are [1, 1] and [1, -1]
    spec_file.write_text(json.dumps({"eigenphases": ["0", "1/3"],
                                     "exponents": ["0", "3/2"]}))
    code, body = run_json(["defect", "--method", "master",
                           "--spec", str(spec_file)])
    assert code == 0
    assert body["data"]["defect"] == 3 == defect(fourier_cyclic(2)).defect


@pytest.mark.parametrize("case", ["dita-turn-zero-denominator",
                                  "dita-turn-nan", "spec-bad-exponent",
                                  "spec-malformed", "spec-not-json"])
def test_malformed_phase_and_spec_files_exit_2(tmp_path, case):
    """Bad turns, bad exponents and undecodable files are invalid input,
    and gen writes no file."""
    f2 = tmp_path / "f2.json"
    save_phm(fourier_cyclic(2), str(f2))
    bad = tmp_path / "bad.json"
    out = tmp_path / "out.json"
    if case.startswith("dita-turn"):
        turn = [1, 0] if case == "dita-turn-zero-denominator" else "nan"
        bad.write_text(json.dumps([[0, turn], [0, 0]]))
        argvs = [["gen", "dita", "--outer", str(f2), "--inner", str(f2),
                  "--phases", str(bad), "-o", str(out)]]
    elif case == "spec-bad-exponent":
        argvs = []
        for e in ("x", [1, 0]):
            path = tmp_path / f"spec{len(argvs)}.json"
            path.write_text(json.dumps({"eigenphases": ["0", "1/2"],
                                        "exponents": [0, e]}))
            argvs.append(["defect", "--method", "master", "--spec", str(path)])
    elif case == "spec-malformed":
        argvs = []
        for doc in ([], {"eigenphases": ["0"]},
                    {"eigenphases": "0", "exponents": [0]},
                    {"eigenphases": ["0"], "exponents": ["1/0"]}):
            path = tmp_path / f"spec{len(argvs)}.json"
            path.write_text(json.dumps(doc))
            argvs.append(["defect", "--method", "master", "--spec", str(path)])
    else:
        bad.write_text("{not json")
        argvs = [["defect", "--method", "master", "--spec", str(bad)]]
    for argv in argvs:
        proc = subprocess.run([sys.executable, "-m", "hadlab"] + argv,
                              capture_output=True, text=True)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    "gen truncated-fourier --orders 8 --rows 0,x",
    "gen truncated-fourier --orders 8 --rows 0:x",
    "defect F --method split --orders 8 --rows 0,3,x",
    "moments F --p ,",
    "moments F --p 1 --cycle-tol -1",
    "regularity F --cycle-tol nan",
    "verify F --tol -1",
    "defect F --confidence nan",
    "defect F --confidence -1",
    "regularity F --budget -5",
] + [f"gen {kind} --q={q} -o OUT" for kind in ("f22q", "petrescu")
     for q in ("nan", "inf", "-inf", "infinity", "1e400")] + [
    "gen master-dita 1 1 1 --p 1e400 --r 0 -o OUT",
])
def test_malformed_arguments_exit_2(tmp_path, monkeypatch, capsys, argv):
    """Each is refused with an error and, from gen, no file written."""
    from hadlab import cli
    f8 = tmp_path / "f8.json"
    out = tmp_path / "out.json"
    assert run_command(["gen", "fourier", "8", "-o", str(f8)])[0] == 0
    argv = [{"F": str(f8), "OUT": str(out)}.get(a, a) for a in argv.split()]
    monkeypatch.setattr(sys, "argv", ["hadlab"] + argv)
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    ("verify F --tol abc", "expected a finite number > 0, got 'abc'"),
    ("regularity F --budget x", "expected an integer >= 1, got 'x'"),
])
def test_unparsable_numbers_exit_2_with_the_rule(monkeypatch, capsys, argv, message):
    """Text that is no number at all gets the option's own rule, like a
    number out of range does, not argparse's generic complaint."""
    from hadlab import cli
    monkeypatch.setattr(sys, "argv", ["hadlab"] + argv.split())
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("case", ["catalog-is-directory",
                                  "output-is-directory",
                                  "input-is-directory", "input-not-utf8"])
def test_os_and_decode_errors_exit_2(tmp_path, monkeypatch, capsys, case):
    from hadlab import cli
    f3 = tmp_path / "f3.json"
    save_phm(fourier_cyclic(3), str(f3))
    folder = tmp_path / "folder"
    folder.mkdir()
    junk = tmp_path / "junk.json"
    junk.write_bytes(b"\xff\xfe")
    argv = {"catalog-is-directory": ["verify", str(f3), "--catalog", str(folder)],
            "output-is-directory": ["gen", "fourier", "3", "-o", str(folder)],
            "input-is-directory": ["verify", str(folder)],
            "input-not-utf8": ["verify", str(junk)]}[case]
    monkeypatch.setattr(sys, "argv", ["hadlab"] + argv)
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.err.startswith("error:") and "Traceback" not in out.err
    assert out.out == ""


def test_json_errors_are_envelopes(tmp_path, monkeypatch):
    """Under --json an invalid input or an inconclusive outcome prints the
    envelope with the message as data.error, whatever the command."""
    from hadlab import cli
    f5 = tmp_path / "f5.json"
    save_phm(fourier_cyclic(5), str(f5))
    for argv, command in [
            (["verify", str(tmp_path / "nope.json")], "verify"),
            (["gen", "mw", "--q", "5", "--s", "1,2", "--t", "0,2"], "gen"),
            (["gen", "fourier", "3", "-o", str(tmp_path)], "gen"),
            (["moments", str(f5), "--p", ","], "moments"),
            (["probe", "truncation", "5", "--sizes", "2,x"], "probe"),
            (["defect", "--method", "master"], "defect")]:
        code, body = run_json(argv)
        assert code == 2 and body["command"] == command
        assert body["data"]["error"] == run_command(argv)[1][len("error: "):]

    def disagree(*args, **kwargs):
        raise ConsistencyError("routes disagree")
    monkeypatch.setattr(cli, "isolation_certificate", disagree)
    code, body = run_json(["isolated", str(f5)])
    assert code == 3 and body["data"] == {"error": "routes disagree"}
    assert run_command(["isolated", str(f5)]) == (3, "inconclusive: routes disagree")


def test_gen_json_with_output_file(tmp_path):
    path = tmp_path / "m.json"
    code, text = run_command(["gen", "fourier", "3", "-o", str(path), "--json"])
    assert code == 0 and json.loads(text) == {"written": str(path)}
    assert loads_phm(path.read_text()).shape == (3, 3)
    code, text = run_command(["gen", "master-dita", "2", "2", "1", "--p", "0,1",
                              "--r", "0,2", "-o", str(path), "--json"])
    body = json.loads(text)
    assert code == 0 and set(body) == {"written", "spec"}
    assert body["written"] == str(path) and len(body["spec"]["exponents"]) == 4


# a valid command line of each command; F, A and B stand for files
COMMAND_LINES = {
    "gen fourier": "gen fourier 3",
    "gen fourier-group": "gen fourier-group 2 3",
    "gen truncated-fourier": "gen truncated-fourier --orders 3 --rows 0",
    "gen f22q": "gen f22q --q 0",
    "gen petrescu": "gen petrescu --q 0",
    "gen dita": "gen dita --outer A --inner B --phases F",
    "gen master-dita": "gen master-dita 2 2 1 --p 0,1 --r 0,2",
    "gen mw": "gen mw --q 5 --s 1,3 --t 0,2",
    "verify": "verify F",
    "defect": "defect F",
    "isolated": "isolated F",
    "regularity": "regularity F",
    "semigroup": "semigroup F",
    "moments": "moments F --p 1",
    "profile": "profile F",
    "probe truncation": "probe truncation 5",
    "probe arithmetic": "probe arithmetic --q 5 --s 1,3 --t 0,2",
}
READS = {"--tol": {"gen mw", "verify", "defect", "isolated", "profile",
                   "probe truncation", "probe arithmetic"},
         "--confidence": {"defect", "isolated", "probe truncation"}}


@pytest.mark.parametrize("option", sorted(READS))
@pytest.mark.parametrize("command", sorted(COMMAND_LINES))
def test_each_command_accepts_only_the_options_it_reads(capsys, command, option):
    from hadlab import cli
    assert set(COMMAND_LINES) == set(cli.COMMANDS)
    argv = COMMAND_LINES[command].split() + [option, "0.5"]
    if command in READS[option]:
        assert getattr(cli.build_parser().parse_args(argv),
                       option.lstrip("-")) == 0.5
    else:
        assert run_command(argv) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith(f"usage: hadlab {command} ")
        assert f"unrecognized arguments: {option}" in err


def test_defect_ambiguous_exit_code(f6_file):
    code, text = run_command(["defect", f6_file, "--confidence", "1e20"])
    assert code == 3
    assert "AMBIGUOUS" in text
    code, body = run_json(["defect", f6_file, "--confidence", "1e20"])
    assert code == 3 and body["data"]["ambiguous"] is True


def test_isolated_exit_codes(tmp_path):
    f5 = tmp_path / "f5.json"
    run_command(["gen", "fourier", "5", "-o", str(f5)])
    code, text = run_command(["isolated", str(f5)])
    assert code == 0 and "isolated" in text
    f6 = tmp_path / "f6.json"
    run_command(["gen", "fourier", "6", "-o", str(f6)])
    code, body = run_json(["isolated", str(f6)])
    assert code == 1
    assert body["data"]["status"] == "undetermined"
    assert body["data"]["breakdown"]["route"] == "character"
    f7 = tmp_path / "f7.json"
    run_command(["gen", "fourier", "7", "-o", str(f7)])
    code, body = run_json(["isolated", str(f7)])
    assert code == 0 and body["data"]["exact"] is True
    assert body["data"]["method"] == "character-exact"
    assert body["data"]["breakdown"]["butson_order"] == 7
    for path, n in ((f6, 6), (f7, 7)):
        res, float_defect = modular_and_float(load_phm(str(path)))
        assert res.exact and res.route == "proof"
        assert res.defect == float_defect == cyclic_defect_closed_form(n)


def test_regularity_command(f6_file, tmp_path):
    code, body = run_json(["regularity", f6_file])
    assert code == 0
    assert body["data"]["regular"] is True
    assert body["data"]["pairs"]["0,3"] == "2+2+2"
    assert body["data"]["pairs"]["0,1"] == "3+3"
    p7 = tmp_path / "p7.json"
    run_command(["gen", "petrescu", "--q", "1/7", "-o", str(p7)])
    code, body = run_json(["regularity", str(p7), "--budget", "2"])
    assert code == 3
    assert body["data"]["inconclusive_pairs"]
    # six 30th roots that vanish only as a signed cycle combination: the
    # rows are orthogonal, but the pair is no sum of whole cycles
    irregular = tmp_path / "irregular.json"
    save_phm(PHMatrix.from_phases(ExactPhases(
        np.array([[0] * 6, [5, 6, 12, 18, 24, 25]]), 30)), str(irregular))
    code, body = run_json(["regularity", str(irregular)])
    assert code == 1 and body["data"]["regular"] is False
    assert body["data"]["irregular_pairs"] == [[0, 1]]


def test_regularity_command_decides_f24(tmp_path):
    f24 = tmp_path / "f24.json"
    run_command(["gen", "fourier", "24", "-o", str(f24)])
    code, body = run_json(["regularity", str(f24)])
    assert code == 0
    assert body["data"]["regular"] is True
    assert len(body["data"]["pairs"]) == 276
    assert not body["data"]["inconclusive_pairs"]
    # the exact search tries only the primes 2 and 3 dividing 24
    code, _ = run_command(["regularity", str(f24), "--budget", "60"])
    assert code == 0


def test_semigroup_command(f25_file, tmp_path):
    code, body = run_json(["semigroup", f25_file])
    assert code == 0
    assert body["data"]["size"] == 6
    assert body["data"]["square"] == [[1, 2], [3, 1]]
    assert "∅" in body["data"]["elements"]
    q4 = tmp_path / "q4.json"
    run_command(["gen", "f22q", "--q", "0.0523", "-o", str(q4)])
    code, body = run_json(["semigroup", str(q4)])
    assert code == 1
    assert body["data"]["classical"] is False


def test_semigroup_command_builds_one_grid(f25_file, tmp_path, monkeypatch):
    from hadlab import semigroup
    built = []

    class Counting(semigroup.ProjectionGrid):
        def __init__(self, h):
            built.append(h)
            super().__init__(h)
    monkeypatch.setattr(semigroup, "ProjectionGrid", Counting)
    code, _ = run_command(["semigroup", f25_file])
    assert code == 0 and len(built) == 1
    # a non-classical grid answers from the same one grid
    quantum = tmp_path / "f22q.json"
    save_phm(f22q(Fraction(1, 20)), str(quantum))
    built.clear()
    code, _ = run_command(["semigroup", str(quantum)])
    assert code == 1 and len(built) == 1


def test_moments_command(tmp_path):
    f4 = tmp_path / "f4.json"
    run_command(["gen", "fourier", "4", "-o", str(f4)])
    code, body = run_json(["moments", str(f4), "--p", "1,2,3"])
    assert code == 0
    assert [m["value"] for m in body["data"]["moments"]] == [1, 4, 16]
    assert not any(m["formal"] for m in body["data"]["moments"])


def test_profile_command(f6_file):
    code, body = run_json(["profile", f6_file])
    assert code == 0
    assert body["data"]["defect"] == 15
    assert body["data"]["butson_order"] == 6
    assert set(body["data"]["cycle_labels"]) == {"3+3", "2+2+2"}


def test_probe_truncation(tmp_path):
    code, body = run_json(["probe", "truncation", "5"])
    assert code == 0
    certs = body["data"]["certificates"]
    assert [c["rows"] for c in certs] == [2, 3, 4, 5]
    assert certs[0]["status"] == "undetermined"
    assert certs[-2]["status"] == certs[-1]["status"] == "isolated"
    assert all(c["exact"] and c["method"] == "character-exact" for c in certs)
    # the ranks modulo split primes prove the same defects
    for c in certs:
        res, float_defect = modular_and_float(truncated_fourier(range(c["rows"]), [5]))
        split = defect_split_truncated_fourier(range(c["rows"]), [5]).defect
        assert res.exact and res.defect == float_defect == split == c["defect"]
        assert len(res.primes) == {2: 1, 3: 3, 4: 1, 5: 1}[c["rows"]]
    code, body = run_json(["probe", "truncation", "5", "--sizes", "2,4"])
    assert [c["rows"] for c in body["data"]["certificates"]] == [2, 4]


def test_probe_arithmetic():
    code, body = run_json(["probe", "arithmetic", "--q", "5",
                           "--s", "1,3", "--t", "0,2"])
    assert code == 0
    assert body["data"]["defect"] == 19
    assert body["data"]["status"] == "isolated"
    code, body = run_json(["probe", "arithmetic", "--q", "7",
                           "--s", "1,3", "--t", "0,2"])
    assert code == 1
    assert body["data"]["status"] == "undetermined"


def test_catalog_records(f6_file, tmp_path, monkeypatch):
    cat = tmp_path / "cat.jsonl"
    code, _ = run_command(["defect", f6_file, "--catalog", str(cat)])
    assert code == 0
    run_command(["gen", "fourier", "3", "--catalog", str(cat)])
    rows = read_records(str(cat))
    assert len(rows) == 2
    for row in rows:
        jsonschema.validate(row, CATALOG_RECORD_SCHEMA)
    with open(f6_file) as fh:
        assert rows[0]["input_sha256"] == content_hash(fh.read())
    assert rows[0]["summary"]["defect"] == 15
    assert rows[1]["input_sha256"] is None

    env_cat = tmp_path / "env.jsonl"
    monkeypatch.setenv("HADLAB_CATALOG", str(env_cat))
    run_command(["verify", f6_file])
    assert len(read_records(str(env_cat))) == 1
    # explicit flag beats the environment
    run_command(["verify", f6_file, "--catalog", str(cat)])
    assert len(read_records(str(env_cat))) == 1
    assert len(read_records(str(cat))) == 3


def test_reruns_byte_identical(f6_file):
    a = run_command(["gen", "mw", "--q", "5", "--s", "1,3", "--t", "0,2"])
    b = run_command(["gen", "mw", "--q", "5", "--s", "1,3", "--t", "0,2"])
    assert a == b
    a = run_command(["defect", f6_file, "--json"])
    b = run_command(["defect", f6_file, "--json"])
    assert a == b


def test_main_entry_point_routing(tmp_path, capsys, monkeypatch):
    from hadlab import cli
    monkeypatch.setattr(sys, "argv", ["hadlab", "verify", str(tmp_path / "x")])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.err.startswith("error:") and out.out == ""

    monkeypatch.setattr(sys, "argv", ["hadlab", "gen", "fourier", "2"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 0
    out = capsys.readouterr()
    assert json.loads(out.out)["rows"] == 2


def test_module_invocation():
    for module in ("hadlab.cli", "hadlab"):
        proc = subprocess.run([sys.executable, "-m", module, "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("hadlab ")


@pytest.mark.parametrize("text, message", [
    ("{not json", "is not valid JSON"),
    ("[]", "spec file must be a JSON object"),
    ('{"eigenphases": ["0"]}', "spec file missing field 'exponents'"),
    ('{"eigenphases": "0", "exponents": [0]}',
     "spec eigenphases and exponents must be lists"),
    ('{"eigenphases": ["0", "1/2"], "exponents": [0, "x"]}',
     "cannot parse exponent 'x'"),
])
def test_each_malformed_spec_file_names_its_fault(tmp_path, text, message):
    # in-process, so that each guard's own message is checked
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    code, out = run_command(["defect", "--method", "master", "--spec", str(spec)])
    assert code == 2 and out.startswith("error:") and message in out


def test_gen_dita_refuses_a_grid_that_is_not_a_list(tmp_path):
    f2 = tmp_path / "f2.json"
    save_phm(fourier_cyclic(2), str(f2))
    grid = tmp_path / "grid.json"
    for doc in ({"rows": [[0, 0], [0, 0]]}, [0, 0]):
        grid.write_text(json.dumps(doc))
        code, out = run_command(["gen", "dita", "--outer", str(f2), "--inner",
                                 str(f2), "--phases", str(grid)])
        assert code == 2 and "phase grid must be a list of rows" in out
