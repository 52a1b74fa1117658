"""CLI contract: deterministic byte output, golden files, exit codes."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import rieszmod
from rieszmod import LpNorm, dual_vector_norm
from rieszmod.cli import _REFS, _build_parser, main

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


def schema_errors(instance, name):
    """The messages of validating instance against schemas/<name>.schema.json.

    The schemas refer to each other by $id, so they are validated against
    one registry of all of them.
    """
    from jsonschema import Draft7Validator
    from referencing import Registry, Resource

    schemas = {path.name.removesuffix(".schema.json"): json.loads(path.read_text())
               for path in SCHEMAS.glob("*.schema.json")}
    registry = Registry().with_resources(
        (schema["$id"], Resource.from_contents(schema)) for schema in schemas.values())
    validator = Draft7Validator(schemas[name], registry=registry)
    return [e.message for e in validator.iter_errors(instance)]


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def cli_error(capture, *argv, code="input_error", path=...):
    """Run a command that must fail: exit 2, nothing on stderr, and exactly
    one JSON document on stdout, an envelope of the error schema with the
    given code and path (``...`` leaves the path unchecked).  Returns the
    error object.  ``capture`` is capsys, or capfd where LAPACK could write
    to file descriptors 1 and 2 directly."""
    status = main(list(argv))
    captured = capture.readouterr()
    assert status == 2
    assert captured.err == ""
    document = json.loads(captured.out, parse_constant=reject_constant)
    assert schema_errors(document, "error") == []
    err = document["error"]
    assert err["code"] == code
    if path is not ...:
        assert err["path"] == path
    return err


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


def test_parser_is_built_once_and_survives_a_bad_argument(capsys):
    argv = ("cotangent", "--graph", str(DATA / "path2.json"), "--p", "2", "--fn", "[0,1]")
    first = run(capsys, *argv)
    with pytest.raises(SystemExit) as exc:
        main(["cotangent", "--no-such-option"])
    assert exc.value.code == 2
    assert "usage: rieszmod" in capsys.readouterr().err
    assert run(capsys, *argv) == first == (0, (GOLDEN / "cotangent.json").read_text())
    assert _build_parser() is _build_parser()


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


def test_pushforward_with_a_huge_exponent_warns_nothing(capfd, tmp_path):
    # lp fibers with p = 1e30: the power of every entry other than 0 and 1
    # leaves the double range, so the fiber norms rescale instead of
    # overflowing, and nothing reaches stderr.
    module = json.loads((DATA / "module_push.json").read_text())
    for fiber in module["fibers"]:
        fiber["norm"] = {"lp": 1e30}
    path = tmp_path / "module.json"
    path.write_text(json.dumps(module))
    code = main(["pushforward", "--module", str(path), "--map", str(DATA / "map_dup.json")])
    captured = capfd.readouterr()
    assert code == 0
    assert captured.err == ""
    report = json.loads(captured.out)
    assert schema_errors(report, "report") == []
    assert report["norm_preserved"] is True


def test_pushforward_sample_draw_is_the_per_fiber_stream():
    # `pushforward` draws each sample's coordinates at once; numpy's
    # Generator gives the same values as one draw per fiber, so reports
    # keep their bytes.
    dims = np.random.default_rng(11).integers(0, 6, 210)
    dims[::17] = 0
    for seed in (0, 1, 12345):
        per_fiber, flat = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            want = np.concatenate([per_fiber.standard_normal(d) for d in dims])
            assert np.array_equal(flat.standard_normal(int(dims.sum())), want)


@pytest.mark.parametrize("lp", [1.0, 1.5, 3.0])
def test_hahn_banach_command(capsys, tmp_path, lp):
    # The functional has dual norm exactly the gauge, so for 1 < p < inf its
    # only dominated extension is (1, 0); at p = 1 the least-norm extensions
    # are (1, s) with |s| <= 1, and the simplex keeps its start, the
    # least-norm particular solution (1, 0), which is already optimal.
    problem = json.loads((DATA / "hb_problem.json").read_text())
    problem["module"]["fibers"][0]["norm"] = {"lp": lp}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    code, out = run_twice(capsys, "hahn-banach", "--problem", str(path))
    assert code == 0
    report = json.loads(out)
    (row,) = report["extension"]
    assert row == [1.0, 0.0]
    assert dual_vector_norm(LpNorm(lp), np.array(row)) <= 1.0 + 1e-9
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
    cli_error(capsys, "stone", "--structure", str(DATA / "structure_l2.json"),
              "--generators", str(gens), code="non_idempotent_input", path=None)


def test_missing_file_is_an_input_error(capsys):
    cli_error(capsys, "laws", "--structure", "/does/not/exist.json",
              path="/does/not/exist.json")


def test_malformed_json_is_an_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    cli_error(capsys, "laws", "--structure", str(bad), path=str(bad))


def test_wrong_fn_length_is_an_input_error(capsys):
    err = cli_error(capsys, "cotangent", "--graph", str(DATA / "path2.json"),
                    "--p", "2", "--fn", "[0]", path="$.fn")
    assert "fn" in err["message"]


def test_bad_exponent_is_an_input_error(capsys):
    cli_error(capsys, "cotangent", "--graph", str(DATA / "path2.json"),
              "--p", "two", "--fn", "[0,1]", path="$.p")


def test_structural_rejections_exit_two(capsys, tmp_path):
    # A module whose element file has the wrong shape.
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"vectors": [[1.0]]}))
    cli_error(capsys, "project", "--module", str(DATA / "module_gram.json"),
              "--element", str(short), "--set", str(DATA / "set_line.json"), path="$.vectors")


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_nonpositive_samples_are_input_errors(capsys, samples):
    cli_error(capsys, "laws", "--structure", str(DATA / "structure_l2.json"),
              "--samples", samples, path="$.samples")
    cli_error(capsys, "pushforward", "--module", str(DATA / "module_push.json"),
              "--map", str(DATA / "map_dup.json"), "--samples", samples, path="$.samples")


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-6"])
def test_bad_ring_tol_is_an_input_error(capsys, tol):
    cli_error(capsys, "laws", "--structure", str(DATA / "structure_l2.json"),
              "--samples", "10", f"--ring-tol={tol}", path="$.ring_tol")


def test_report_never_prints_nan(capsys):
    # cli_error parses without NaN constants, so NaN could show only in a string.
    err = cli_error(capsys, "cotangent", "--graph", str(DATA / "path2.json"),
                    "--p", "2", "--fn", "[NaN,1]")
    assert "NaN" not in json.dumps(err)


@pytest.mark.parametrize("fn,path", [("[NaN, 1]", "$.fn[0]"), ("[0, Infinity]", "$.fn[1]"),
                                     ("[-Infinity, 1]", "$.fn[0]")])
def test_non_finite_fn_values_are_refused_at_their_entry(capsys, fn, path):
    err = cli_error(capsys, "cotangent", "--graph", str(DATA / "path2.json"),
                    "--p", "2", "--fn", fn, path=path)
    assert "finite" in err["message"]


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
    cli_error(capsys, "hahn-banach", "--problem", str(bad), path=f"$.{key}")


@pytest.mark.parametrize("lp", [1.0, 2.0, 3.0])
def test_hahn_banach_refuses_a_negative_gauge(capsys, tmp_path, lp):
    # The schema declares "minimum": 0, so this is bad input, not a failed law.
    problem = json.loads((DATA / "hb_problem.json").read_text())
    problem["module"]["fibers"][0]["norm"] = {"lp": lp}
    problem["gauge"] = [-1.0]
    bad = tmp_path / "problem.json"
    bad.write_text(json.dumps(problem))
    cli_error(capsys, "hahn-banach", "--problem", str(bad), path="$.gauge[0]")


@pytest.mark.parametrize("lp", [1.0, 2.0, 3.0, "inf"])
def test_hahn_banach_negligible_basis_row_is_a_domination_failure(capsys, tmp_path, lp):
    # A basis row of 1e-300 is zero at the package's rank threshold, and no
    # functional of norm at most 1 takes the value 1 on it.
    problem = json.loads((DATA / "hb_problem.json").read_text())
    problem["module"]["fibers"][0]["norm"] = {"lp": lp}
    problem["basis"] = [[[1e-300, 0.0]]]
    bad = tmp_path / "problem.json"
    bad.write_text(json.dumps(problem))
    code, out = run(capsys, "hahn-banach", "--problem", str(bad))
    assert code == 1
    assert json.loads(out)["failures"][0]["code"] == "domination_violated"


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
    cli_error(capfd, "hahn-banach", "--problem", str(bad), path=path)


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
    cli_error(capfd, "project", "--module", str(DATA / "module_gram.json"),
              "--element", str(DATA / "element_34.json"), "--set", str(bad), path=path)


def huge_subspace_project(tmp_path):
    """argv projecting [1, 2] in one lp2 fiber onto the span of [1e308, 0]."""
    module = json.loads((DATA / "module_gram.json").read_text())
    module["fibers"] = [{"dim": 2, "norm": {"lp": 2.0}}]
    files = {"module": module, "element": {"vectors": [[1.0, 2.0]]},
             "set": {"fibers": [{"kind": "subspace", "basis": [[1e308, 0.0]]}]}}
    argv = ["project"]
    for key, doc in files.items():
        (tmp_path / f"{key}.json").write_text(json.dumps(doc))
        argv += [f"--{key}", str(tmp_path / f"{key}.json")]
    return argv


def test_project_onto_a_huge_basis_row_prints_one_document(capfd, tmp_path):
    # b @ gram @ b.T on the raw row overflows, and LAPACK then wrote a
    # DLASCL message to fd 1 ahead of the JSON document.
    code = main(huge_subspace_project(tmp_path))
    captured = capfd.readouterr()
    assert code == 0
    assert captured.err == ""
    [[x, y]] = json.loads(captured.out)["projection"]
    assert abs(x - 1.0) <= 1e-15 and y == 0.0


def test_nested_stone_generator_is_a_space_mismatch(capsys, tmp_path):
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps({"generators": [[1, 0], [[1, 0], [0, 1]]]}))
    err = cli_error(capsys, "stone", "--structure", str(DATA / "structure_l2.json"),
                    "--generators", str(gens), code="space_mismatch", path=None)
    assert err["message"] == "expected 2 values, got shape (2, 2)"


def test_nested_hahn_banach_gauge_is_a_space_mismatch(capsys, tmp_path):
    problem = json.loads((DATA / "hb_problem.json").read_text())
    n = len(problem["gauge"])
    problem["gauge"] = [problem["gauge"]]
    bad = tmp_path / "problem.json"
    bad.write_text(json.dumps(problem))
    err = cli_error(capsys, "hahn-banach", "--problem", str(bad), code="space_mismatch",
                    path=None)
    assert err["message"] == f"expected {n} values, got shape (1, {n})"


def test_run_path_leaves_scipy_optimize_and_sparse_unloaded():
    # Importing the CLI, a hahn-banach run on an l1 fiber and an l1
    # quotient norm solve their linear programs without scipy.
    src = pathlib.Path(rieszmod.__file__).resolve().parent.parent
    code = "\n".join([
        "import contextlib, io, sys",
        "import numpy as np",
        "from rieszmod import LpNorm, ModuleElement, Submodule, quotient_norm",
        "from rieszmod.cli import main",
        "from rieszmod.modules import Fiber, FiberModule",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    assert main(['hahn-banach', '--problem', {str(DATA / 'hb_problem.json')!r}]) == 0",
        "m = FiberModule.from_json({'structure': {'U': 'Linf', 'V': 'Linf', 'space': {",
        "    'atoms': ['x'], 'weights': [1.0]}}, 'fibers': [{'dim': 3, 'norm': {'lp': 1.0}}]})",
        "q = quotient_norm(ModuleElement([[1.0, -2.0, 0.5]], m),",
        "                  Submodule(m, (np.array([[1.0, 0.0, 0.0]]),)))",
        "assert q.values[0] == 2.5",
        "print(sorted(k for k in ('scipy.optimize', 'scipy.sparse') if k in sys.modules))",
    ])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("dim", [2.7, True, "2"])
def test_non_integer_fiber_dim_is_an_input_error(capsys, tmp_path, dim):
    module = json.loads((DATA / "module_221.json").read_text())
    module["fibers"][1]["dim"] = dim
    bad = tmp_path / "module.json"
    bad.write_text(json.dumps(module))
    cli_error(capsys, "decompose", "--module", str(bad), path="$.fibers[1].dim")


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
    cli_error(capsys, "laws", "--structure", str(DATA / "structure_l2.json"),
              "--samples", "10", path="$env.RIESZMOD_SEED")


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


#: The input schema of every file in tests/data.
DATA_SCHEMAS = {
    "element_34.json": "element",
    "hb_problem.json": "hahn_banach_problem",
    "hb_violating.json": "hahn_banach_problem",
    "map_dup.json": "pushforward_map",
    "module_221.json": "module",
    "module_gram.json": "module",
    "module_push.json": "module",
    "path2.json": "graph",
    "set_line.json": "convex_set",
    "stone_gens.json": "generators",
    "structure_l2.json": "structure",
}


def test_data_files_and_goldens_validate_against_the_schemas(capfd, tmp_path):
    assert sorted(DATA_SCHEMAS) == sorted(p.name for p in DATA.glob("*.json"))
    for file, name in DATA_SCHEMAS.items():
        assert schema_errors(json.loads((DATA / file).read_text()), name) == [], file
    for golden in sorted(GOLDEN.glob("*.json")):
        assert schema_errors(json.loads(golden.read_text()), "report") == [], golden.name

    # Bad input exits 2 with one envelope of the error schema on fd 1; the
    # huge subspace row, once an overflow in LAPACK, is good input.
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{not json")
    ragged = json.loads((DATA / "module_gram.json").read_text())
    ragged["fibers"][0]["norm"]["gram"] = [[1.0, 0.0], [0.0]]
    (tmp_path / "ragged.json").write_text(json.dumps(ragged))
    for argv, want in [
        (("laws", "--structure", str(malformed)), 2),
        (("cotangent", "--graph", str(DATA / "path2.json"), "--p", "2", "--fn", "[NaN,1]"), 2),
        (("project", "--module", str(tmp_path / "ragged.json"), "--element",
          str(DATA / "element_34.json"), "--set", str(DATA / "set_line.json")), 2),
        (huge_subspace_project(tmp_path), 0),
    ]:
        assert main(list(argv)) == want, argv
        captured = capfd.readouterr()
        assert captured.err == ""
        document = json.loads(captured.out)
        assert schema_errors(document, "error" if want == 2 else "report") == [], argv
