"""CLI contract: deterministic byte output, golden files, exit codes."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import rieszmod
from rieszmod.cli import _REFS, main

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = pathlib.Path(__file__).parent / "golden"
SCHEMAS = pathlib.Path(__file__).parent.parent / "schemas"


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_twice(capsys, *argv):
    code1, out1 = run(capsys, *argv)
    code2, out2 = run(capsys, *argv)
    assert code1 == code2
    assert out1 == out2
    return code1, out1


# --------------------------------------------------------------------------
# Golden outputs of the documented commands (byte for byte)
# --------------------------------------------------------------------------

def test_laws_golden_and_deterministic(capsys):
    code, out = run_twice(
        capsys, "laws", "--structure", str(DATA / "structure_l2.json"),
        "--samples", "10000", "--seed", "7")
    assert code == 0
    assert out == (GOLDEN / "laws.json").read_text()
    report = json.loads(out)
    assert report["all_passed"] is True
    assert report["law_count"] == 18


def test_cotangent_golden_and_deterministic(capsys):
    code, out = run_twice(
        capsys, "cotangent", "--graph", str(DATA / "path2.json"),
        "--p", "2", "--fn", "[0,1]")
    assert code == 0
    assert out == (GOLDEN / "cotangent.json").read_text()
    assert json.loads(out)["|df|"] == [1.0, 1.0]


def test_decompose_golden_and_deterministic(capsys):
    code, out = run_twice(
        capsys, "decompose", "--module", str(DATA / "module_221.json"))
    assert code == 0
    assert out == (GOLDEN / "decompose.json").read_text()
    assert json.loads(out)["decomposition"] == [
        {"D": [0, 0, 1], "n": 1},
        {"D": [1, 1, 0], "n": 2},
    ]


# --------------------------------------------------------------------------
# The remaining commands
# --------------------------------------------------------------------------

def test_project_command(capsys):
    code, out = run_twice(
        capsys, "project", "--module", str(DATA / "module_gram.json"),
        "--element", str(DATA / "element_34.json"),
        "--set", str(DATA / "set_line.json"))
    assert code == 0
    report = json.loads(out)
    assert report["projection"] == [[3.0, 0.0]]
    assert report["distance"] == [4.0]
    assert report["compat_constant"] <= 1.0 + 1e-9


def test_dual_command(capsys):
    code, out = run_twice(
        capsys, "dual", "--module", str(DATA / "module_push.json"))
    assert code == 0
    report = json.loads(out)
    assert report["reflexive"] is True
    assert report["W"] == {"Lp": 2.0}
    assert report["Z"] == {"Lp": 1.0}
    assert [f["norm"] for f in report["dual"]["fibers"]] == [{"lp": 2.0}, {"lp": 2.0}]


def test_pushforward_command(capsys):
    code, out = run_twice(
        capsys, "pushforward", "--module", str(DATA / "module_push.json"),
        "--map", str(DATA / "map_dup.json"))
    assert code == 0
    report = json.loads(out)
    assert report["norm_preserved"] is True
    assert [f["dim"] for f in report["module"]["fibers"]] == [2, 2, 1]


def test_hahn_banach_command(capsys):
    code, out = run_twice(
        capsys, "hahn-banach", "--problem", str(DATA / "hb_problem.json"))
    assert code == 0
    report = json.loads(out)
    (row,) = report["extension"]
    assert row[0] == 1.0
    assert abs(row[1]) <= 1.0 + 1e-9
    assert report["restriction_values"] == [[1.0]]


def test_hahn_banach_violation_exits_one(capsys):
    code, out = run_twice(
        capsys, "hahn-banach", "--problem", str(DATA / "hb_violating.json"))
    assert code == 1
    report = json.loads(out)
    assert report["failures"][0]["code"] == "domination_violated"


def test_stone_command(capsys):
    code, out = run_twice(
        capsys, "stone", "--structure", str(DATA / "structure_l2.json"),
        "--generators", str(DATA / "stone_gens.json"))
    assert code == 0
    report = json.loads(out)
    assert report["atoms"] == [[1, 0], [0, 1]]
    assert report["embedding"] == [[0], [0, 1]]


# --------------------------------------------------------------------------
# Error handling (exit code 2, machine-readable envelope)
# --------------------------------------------------------------------------

def test_nan_stone_generator_is_an_error(capsys, tmp_path):
    gens = tmp_path / "gens.json"
    gens.write_text('{"generators": [[NaN, 1], [1, 0]]}')
    code = main(["stone", "--structure", str(DATA / "structure_l2.json"),
                 "--generators", str(gens)])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["error"]["code"] == "non_idempotent_input"
    assert "Traceback" not in captured.err


def test_missing_file_is_an_input_error(capsys):
    code, out = run(capsys, "laws", "--structure", "/does/not/exist.json")
    assert code == 2
    err = json.loads(out)["error"]
    assert err["code"] == "input_error"
    assert err["path"] == "/does/not/exist.json"


def test_malformed_json_is_an_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = run(capsys, "laws", "--structure", str(bad))
    assert code == 2
    assert json.loads(out)["error"]["code"] == "input_error"


def test_wrong_fn_length_is_an_input_error(capsys):
    code, out = run(capsys, "cotangent", "--graph", str(DATA / "path2.json"),
                    "--p", "2", "--fn", "[0]")
    assert code == 2
    err = json.loads(out)["error"]
    assert err["code"] == "input_error"
    assert "fn" in err["message"]


def test_bad_exponent_is_an_input_error(capsys):
    code, out = run(capsys, "cotangent", "--graph", str(DATA / "path2.json"),
                    "--p", "two", "--fn", "[0,1]")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "input_error"


def test_structural_rejections_exit_two(capsys, tmp_path):
    # A module whose element file has the wrong shape.
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"vectors": [[1.0]]}))
    code, out = run(capsys, "project", "--module", str(DATA / "module_gram.json"),
                    "--element", str(short), "--set", str(DATA / "set_line.json"))
    assert code == 2
    assert "error" in json.loads(out)


def input_error_at(capsys, path, *argv):
    """Run a command that must fail on its input: exit 2, one JSON error envelope."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    err = json.loads(captured.out)["error"]
    assert err["code"] == "input_error"
    assert err["path"] == path
    return err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_nonpositive_samples_are_input_errors(capsys, samples):
    input_error_at(capsys, "$.samples", "laws", "--structure",
                   str(DATA / "structure_l2.json"), "--samples", samples)
    input_error_at(capsys, "$.samples", "pushforward", "--module", str(DATA / "module_push.json"),
                   "--map", str(DATA / "map_dup.json"), "--samples", samples)


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-6"])
def test_bad_ring_tol_is_an_input_error(capsys, tol):
    input_error_at(capsys, "$.ring_tol", "laws", "--structure",
                   str(DATA / "structure_l2.json"), "--samples", "10", f"--ring-tol={tol}")


def test_report_never_prints_nan(capsys):
    code = main(["cotangent", "--graph", str(DATA / "path2.json"), "--p", "2", "--fn", "[NaN,1]"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    assert "NaN" not in captured.out
    assert json.loads(captured.out)["error"]["code"] == "input_error"


@pytest.mark.parametrize("key,value", [
    ("functional", []),
    ("functional", [[1.0], [0.0]]),
    ("gauge", [float("nan")]),
    ("gauge", [float("inf")]),
])
@pytest.mark.parametrize("lp", [1.0, 2.0, 3.0])
def test_hahn_banach_rejects_malformed_problems(capsys, tmp_path, key, value, lp):
    problem = json.loads((DATA / "hb_problem.json").read_text())
    problem["module"]["fibers"][0]["norm"] = {"lp": lp}
    problem[key] = value
    bad = tmp_path / "problem.json"
    bad.write_text(json.dumps(problem))
    input_error_at(capsys, f"$.{key}", "hahn-banach", "--problem", str(bad))


def input_error_on_fds(capfd, path, *argv):
    """input_error_at on file descriptors 1 and 2, which LAPACK writes to directly."""
    code = main(list(argv))
    captured = capfd.readouterr()
    assert code == 2
    assert captured.err == ""
    err = json.loads(captured.out)["error"]  # one JSON document, nothing before it
    assert err["code"] == "input_error"
    assert err["path"] == path


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("key,value,path", [
    ("basis", [[[NAN, 0.0]]], "$.basis[0][0][0]"),
    ("basis", [[[1.0, -INF]]], "$.basis[0][0][1]"),
    ("functional", [[NAN]], "$.functional[0][0]"),
    ("functional", [[INF]], "$.functional[0][0]"),
])
@pytest.mark.parametrize("lp", [1.0, 2.0, 3.0])
def test_hahn_banach_refuses_non_finite_basis_and_functional(capfd, tmp_path, key, value,
                                                             path, lp):
    problem = json.loads((DATA / "hb_problem.json").read_text())
    problem["module"]["fibers"][0]["norm"] = {"lp": lp}
    problem[key] = value
    bad = tmp_path / "problem.json"
    bad.write_text(json.dumps(problem))
    input_error_on_fds(capfd, path, "hahn-banach", "--problem", str(bad))


@pytest.mark.parametrize("fiber_set,path", [
    ({"kind": "subspace", "basis": [[NAN, 0.0]]}, "$.fibers[0].basis[0][0]"),
    ({"kind": "subspace", "basis": [[1.0, INF]]}, "$.fibers[0].basis[0][1]"),
    ({"kind": "box", "lo": [0.0, NAN], "hi": [1.0, 1.0]}, "$.fibers[0].lo[1]"),
    ({"kind": "box", "lo": [INF, 0.0], "hi": [INF, 1.0]}, "$.fibers[0].lo[0]"),
    ({"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, -INF]}, "$.fibers[0].hi[1]"),
    ({"kind": "ball", "center": [NAN, 0.0], "radius": 1.0}, "$.fibers[0].center[0]"),
    ({"kind": "ball", "center": [INF, 0.0], "radius": 1.0}, "$.fibers[0].center[0]"),
    ({"kind": "ball", "center": [0.0, 0.0], "radius": NAN}, "$.fibers[0].radius"),
    ({"kind": "ball", "center": [0.0, 0.0], "radius": INF}, "$.fibers[0].radius"),
    ({"kind": "intersection", "parts": [{"kind": "subspace", "basis": [[1.0, NAN]]}]},
     "$.fibers[0].parts[0].basis[0][1]"),
])
def test_project_refuses_non_finite_sets(capfd, tmp_path, fiber_set, path):
    bad = tmp_path / "set.json"
    bad.write_text(json.dumps({"fibers": [fiber_set]}))
    input_error_on_fds(capfd, path, "project", "--module", str(DATA / "module_gram.json"),
                       "--element", str(DATA / "element_34.json"), "--set", str(bad))


def space_mismatch(capsys, *argv):
    """Run a command whose input has the wrong shape: exit 2, space_mismatch."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    err = json.loads(captured.out)["error"]
    assert err["code"] == "space_mismatch"
    return err["message"]


def test_nested_stone_generator_is_a_space_mismatch(capsys, tmp_path):
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps({"generators": [[1, 0], [[1, 0], [0, 1]]]}))
    message = space_mismatch(capsys, "stone", "--structure", str(DATA / "structure_l2.json"),
                             "--generators", str(gens))
    assert message == "expected 2 values, got shape (2, 2)"


def test_nested_hahn_banach_gauge_is_a_space_mismatch(capsys, tmp_path):
    problem = json.loads((DATA / "hb_problem.json").read_text())
    n = len(problem["gauge"])
    problem["gauge"] = [problem["gauge"]]
    bad = tmp_path / "problem.json"
    bad.write_text(json.dumps(problem))
    message = space_mismatch(capsys, "hahn-banach", "--problem", str(bad))
    assert message == f"expected {n} values, got shape (1, {n})"


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is imported on the first linear program only.
    src = pathlib.Path(rieszmod.__file__).resolve().parent.parent
    code = "import sys, rieszmod.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("dim", [2.7, True, "2"])
def test_non_integer_fiber_dim_is_an_input_error(capsys, tmp_path, dim):
    module = json.loads((DATA / "module_221.json").read_text())
    module["fibers"][1]["dim"] = dim
    bad = tmp_path / "module.json"
    bad.write_text(json.dumps(module))
    input_error_at(capsys, "$.fibers[1].dim", "decompose", "--module", str(bad))


# --------------------------------------------------------------------------
# Seed resolution
# --------------------------------------------------------------------------

def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("RIESZMOD_SEED", "5")
    code, out = run(capsys, "laws", "--structure", str(DATA / "structure_l2.json"),
                    "--samples", "10")
    assert code == 0
    assert json.loads(out)["seed"] == 5
    # The explicit flag wins over the environment.
    code, out = run(capsys, "laws", "--structure", str(DATA / "structure_l2.json"),
                    "--samples", "10", "--seed", "9")
    assert json.loads(out)["seed"] == 9


def test_invalid_seed_env_is_an_input_error(capsys, monkeypatch):
    monkeypatch.setenv("RIESZMOD_SEED", "abc")
    code, out = run(capsys, "laws", "--structure", str(DATA / "structure_l2.json"),
                    "--samples", "10")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "input_error"


def test_default_seed_is_zero(capsys):
    code, out = run(capsys, "laws", "--structure", str(DATA / "structure_l2.json"),
                    "--samples", "10")
    assert json.loads(out)["seed"] == 0


# --------------------------------------------------------------------------
# Report envelope
# --------------------------------------------------------------------------

def test_ring_tol_flag_is_recorded(capsys):
    code, out = run(capsys, "laws", "--structure", str(DATA / "structure_l2.json"),
                    "--samples", "10", "--ring-tol", "1e-6")
    assert code == 0
    assert json.loads(out)["ring_tol"] == 1e-6


def test_report_envelope_fields(capsys):
    for argv in [
        ("cotangent", "--graph", str(DATA / "path2.json"), "--p", "2", "--fn", "[0,1]"),
        ("decompose", "--module", str(DATA / "module_221.json")),
        ("stone", "--structure", str(DATA / "structure_l2.json"),
         "--generators", str(DATA / "stone_gens.json")),
    ]:
        _, out = run(capsys, *argv)
        report = json.loads(out)
        assert report["command"] == argv[0]
        assert report["schema_version"] == "1.0.0"
        assert isinstance(report["seed"], int)
        assert report["spec_refs"] and all(isinstance(r, str) for r in report["spec_refs"])


def test_report_schema_file_matches_the_cli():
    schema = json.loads((SCHEMAS / "report.schema.json").read_text())
    assert schema["properties"]["command"]["enum"] == sorted(_REFS)
    goldens = sorted(GOLDEN.glob("*.json"))
    assert [g.name for g in goldens] == ["cotangent.json", "decompose.json", "laws.json"]
    for golden in goldens:
        report = json.loads(golden.read_text())
        assert set(schema["required"]) <= set(report)
        assert report["command"] in schema["properties"]["command"]["enum"]
