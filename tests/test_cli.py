"""CLI contract: deterministic byte output, golden files, exit codes."""

import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rieszmod
from rieszmod import FiberModule, HomElement, LpNorm, ModuleElement, dual_vector_norm, errors
from rieszmod.cli import _HANDLERS, _REFS, _build_parser, _dumps, _module_json, main
from rieszmod.modules import MAX_FIBER_DIM
from helpers import sequential_pushforward_report

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
    # `pushforward` draws a block of samples' coordinates at once; numpy's
    # Generator gives the same values as one draw per sample and fiber, so
    # reports keep their bytes.
    dims = np.random.default_rng(11).integers(0, 6, 210)
    dims[::17] = 0
    for seed in (0, 1, 12345):
        per_fiber, block = np.random.default_rng(seed), np.random.default_rng(seed)
        want = [np.concatenate([per_fiber.standard_normal(d) for d in dims]) for _ in range(3)]
        assert np.array_equal(block.standard_normal((3, int(dims.sum()))), np.stack(want))


def test_cotangent_with_huge_parallel_edges_keeps_every_fiber(capsys):
    # Two parallel a-b edges of weight 1e308 at p = 1: vertex a's two
    # gradient rows are equal and their largest singular value overflows,
    # which ranked them 0 and gave a and b 0-dim fibers with |df| = 0.
    code, out = run_twice(capsys, "cotangent", "--graph", str(DATA / "graph_huge_parallel.json"),
                          "--p", "1", "--fn", "[1,1.25,3]")
    assert code == 0
    report = json.loads(out)
    assert report["fiber_dims"] == [1, 1, 1]
    assert report["|df|"] == pytest.approx([5e307, 5e307, 1.75], rel=1e-12)


def test_dual_and_pushforward_goldens_and_deterministic(capsys):
    # The pushforward case maps two target atoms to one source atom, so its
    # report holds one fiber dict for both.
    code, out = run_twice(capsys, "dual", "--module", str(DATA / "module_221.json"))
    assert code == 0
    assert out == (GOLDEN / "dual.json").read_text()
    code, out = run_twice(
        capsys, "pushforward", "--module", str(DATA / "module_push.json"),
        "--map", str(DATA / "map_dup.json"), "--samples", "100", "--seed", "7")
    assert code == 0
    assert out == (GOLDEN / "pushforward.json").read_text()
    assert json.loads((DATA / "map_dup.json").read_text())["atom_map"] == [0, 0, 1]


def test_dual_command_builds_the_dual_module_once(monkeypatch, capsys):
    # M* serves both the report and the bidual embedding: two dual_module
    # calls in all, M* and M**, from whichever module calls them.
    from rieszmod import cli, homdual

    real = homdual.dual_module
    calls = []

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    for owner in (cli, homdual):
        monkeypatch.setattr(owner, "dual_module", counted)
    code, out = run(capsys, "dual", "--module", str(DATA / "module_221.json"))
    assert code == 0
    assert out == (GOLDEN / "dual.json").read_text()
    assert len(calls) == 2


def test_hahn_banach_golden_and_deterministic(capsys):
    # One atom each of an l1, l-infinity, l3, l2, gram and image-l1 fiber:
    # the report pins the minimiser of every branch of the gauge kernel.
    code, out = run_twice(capsys, "hahn-banach", "--problem", str(DATA / "hb_mixed.json"))
    assert code == 0
    assert out == (GOLDEN / "hahn_banach.json").read_text()
    fibers = json.loads((DATA / "hb_mixed.json").read_text())["module"]["fibers"]
    assert [next(iter(f["norm"])) for f in fibers] == ["lp"] * 4 + ["gram", "image_lp"]


def test_dual_command_dualizes_an_image_l2_fiber(capsys, tmp_path):
    # |A x|_2 is euclidean with the gram A^T A, so its dual fiber has the
    # gram inv(A^T A), and the module is reflexive.
    a = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    problem = json.loads((DATA / "hb_problem.json").read_text())["module"]
    problem["fibers"] = [{"dim": 2, "norm": {"image_lp": {"matrix": a, "p": 2.0}}}]
    path = tmp_path / "image_l2.json"
    path.write_text(json.dumps(problem))
    code, out = run(capsys, "dual", "--module", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["reflexive"] is True
    gram = np.array(report["dual"]["fibers"][0]["norm"]["gram"])
    assert np.allclose(gram, np.linalg.inv(np.array(a).T @ np.array(a)), rtol=0.0, atol=1e-15)


def test_hahn_banach_on_an_l21_fiber_is_certified(capsys):
    # The least dual norm of the extension is an l(21/20) gauge whose
    # minimiser has zero coordinates; the kernel once refused it with
    # solver_failed.  The CI console-script step runs the same problem.
    code, out = run(capsys, "hahn-banach", "--problem", str(DATA / "hb_l21.json"))
    assert code == 0
    report = json.loads(out)
    assert abs(report["restriction_values"][0][0] - 0.632) <= 1e-9
    problem = json.loads((DATA / "hb_l21.json").read_text())
    extension = np.array(report["extension"][0])
    assert LpNorm(21.0 / 20.0).norm(extension) <= problem["gauge"][0] * (1.0 + 1e-9)


def test_hahn_banach_on_a_basis_row_whose_singular_value_overflows(capsys):
    # The row (1.5e308, 1.5e308) has sigma = 2.1e308; the domination test
    # once read its rank as 0 and exited 1 with domination_violated.  The
    # CI console-script step runs the same problem.
    code, out = run(capsys, "hahn-banach", "--problem", str(DATA / "hb_huge_basis.json"))
    assert code == 0
    assert np.allclose(json.loads(out)["extension"][0], [0.5, 0.5], rtol=0.0, atol=1e-12)


def wide_pushforward_inputs(tmp_path):
    """A 500-atom module of about 2,000 coordinates, lp, gram and image-lp
    fibers of dimensions 0-7, and a map of 400 target atoms with repeats:
    the stacked check runs in blocks of 2^16 // N < 100 samples."""
    rng = np.random.default_rng(41)
    fibers = []
    for i in range(500):
        d = int(rng.integers(0, 8))
        kind = i % 6
        if kind == 4 and d:
            a = rng.standard_normal((d, d))
            norm = {"gram": (a @ a.T + d * np.eye(d)).tolist()}
        elif kind == 5 and d:
            norm = {"image_lp": {"matrix": rng.standard_normal((d + 1, d)).tolist(), "p": 3.0}}
        else:
            norm = {"lp": ["inf", 1.0, 2.0, 3.0, 1.5, 2.0][kind]}
        fibers.append({"dim": d, "norm": norm})
    n = sum(f["dim"] for f in fibers)
    assert 2 ** 16 // n < 100
    structure = {"U": "Linf", "V": {"Lp": 2.0}, "space": {
        "atoms": [f"x{i}" for i in range(500)], "weights": [1.0] * 500}}
    target = {"U": "Linf", "V": {"Lp": 2.0}, "space": {
        "atoms": [f"t{i}" for i in range(400)], "weights": [1.0] * 400}}
    module_path, map_path = tmp_path / "module.json", tmp_path / "map.json"
    module_path.write_text(json.dumps({"structure": structure, "fibers": fibers}))
    map_path.write_text(json.dumps({"target": target,
                                    "atom_map": rng.integers(0, 500, 400).tolist()}))
    return str(module_path), str(map_path)


@pytest.mark.parametrize("samples", [1, 10, 100])
@pytest.mark.parametrize("wide", [False, True])
def test_pushforward_report_is_the_per_sample_loops(capsys, tmp_path, samples, wide):
    # The stacked check writes the bytes of a check one sample at a time,
    # with one block (3 coordinates) or several (about 2,000).
    if wide:
        module_path, map_path = wide_pushforward_inputs(tmp_path)
    else:
        module_path, map_path = str(DATA / "module_push.json"), str(DATA / "map_dup.json")
    code, out = run(capsys, "pushforward", "--module", module_path, "--map", map_path,
                    "--samples", str(samples), "--seed", "3")
    assert code == 0
    assert out == sequential_pushforward_report(module_path, map_path, samples, 3)


@pytest.mark.parametrize("samples", [1, 100])
def test_pushforward_check_sees_a_perturbed_last_sample(capsys, monkeypatch, tmp_path, samples):
    # A forward map that is wrong at one atom of the last sample only: the
    # stacked check reaches it in the last block, reports the failure and
    # exits 1.
    module_path, map_path = wide_pushforward_inputs(tmp_path)
    apply, seen = HomElement.apply, [0]

    def skewed(self, v):
        out = apply(self, v)
        flat = np.array(out.flat, ndmin=2)
        last = samples - 1 - seen[0]
        if 0 <= last < flat.shape[0]:
            flat[last, 0] = 1e6  # the first coordinate of the first nonzero target fiber
        seen[0] += flat.shape[0]
        return ModuleElement._from_flat(flat.reshape(out.flat.shape), out.module)

    monkeypatch.setattr(HomElement, "apply", skewed)
    code, out = run(capsys, "pushforward", "--module", module_path, "--map", map_path,
                    "--samples", str(samples), "--seed", "3")
    assert seen[0] == samples
    assert code == 1
    assert json.loads(out)["norm_preserved"] is False
    # The per-sample loop, under the same perturbation, agrees.
    seen[0] = 0
    assert out == sequential_pushforward_report(module_path, map_path, samples, 3)
    assert seen[0] == samples


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
    assert out == (GOLDEN / "stone.json").read_text()
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


def test_huge_stone_generator_is_refused_without_a_warning(capfd, tmp_path):
    # u*u overflows at 1e308; the idempotent check refuses the generator
    # without a numpy warning on stderr.
    gens = tmp_path / "gens.json"
    gens.write_text('{"generators": [[1e308, 0]]}')
    cli_error(capfd, "stone", "--structure", str(DATA / "structure_l2.json"),
              "--generators", str(gens), code="non_idempotent_input", path=None)


@pytest.mark.parametrize("command", ["laws", "stone"])
@pytest.mark.parametrize("key", ["weights", "aux_weights"])
def test_weight_beyond_the_float_range_is_an_input_error_at_its_path(capsys, tmp_path,
                                                                    command, key):
    # float() overflows on a JSON integer of 10^400; the envelope names the
    # entry, as structure_huge_weight.json does for the console script.
    structure = json.loads((DATA / "structure_l2.json").read_text())
    structure["space"][key] = [1.0, 10 ** 400]
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(structure))
    gens = ["--generators", str(DATA / "stone_gens.json")] if command == "stone" else []
    cli_error(capsys, command, "--structure", str(path), *gens, path=f"$.space.{key}[1]")
    cli_error(capsys, command, "--structure", str(DATA / "structure_huge_weight.json"), *gens,
              path="$.space.weights[0]")


@pytest.mark.parametrize("edges, path, message", [
    ("5", "$.edges", "edges must be a list"),
    ('[{"u": "a", "v": "b", "w": -1}]', "$.edges[0].w", "strictly positive and finite"),
    ('[{"u": "a", "v": "b"}, {"u": "a", "v": "b", "w": 1e400}]', "$.edges[1].w",
     "strictly positive and finite"),
    ('[{"u": "a", "v": "b", "w": 1' + "0" * 400 + "}]", "$.edges[0].w",
     "strictly positive and finite"),
], ids=["edges_not_a_list", "negative_weight", "infinite_weight", "integer_weight_beyond_range"])
def test_bad_graph_entries_are_input_errors_at_their_paths(capsys, tmp_path, edges, path,
                                                          message):
    # A non-list of edges once failed as "'int' object is not iterable" and
    # a bad weight was reported at "$"; 1e400 reads as inf.  The graph
    # schema refuses each of them too.
    graph = tmp_path / "graph.json"
    graph.write_text('{"vertices": ["a", "b"], "edges": ' + edges + "}")
    assert schema_errors(json.loads(graph.read_text()), "graph") != []
    err = cli_error(capsys, "cotangent", "--graph", str(graph), "--p", "2", "--fn", "[0,1]",
                    path=path)
    assert message in err["message"]


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


@pytest.mark.parametrize("key,value,path", [
    ("basis", [[[True, 0.0]]], "$.basis[0][0][0]"),
    ("basis", [[[1.0, "0"]]], "$.basis[0][0][1]"),
    ("functional", [["1.0"]], "$.functional[0][0]"),
])
def test_hahn_banach_basis_and_functional_must_be_json_numbers(capfd, tmp_path, key, value, path):
    problem = json.loads((DATA / "hb_problem.json").read_text())
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


@pytest.mark.parametrize("fiber_set,path", [
    ({"kind": "subspace", "basis": [[True, 0.0]]}, "$.fibers[0].basis[0][0]"),
    ({"kind": "ball", "center": [0.0, "0"], "radius": 1.0}, "$.fibers[0].center[1]"),
    ({"kind": "ball", "center": [0.0, 0.0], "radius": "1"}, "$.fibers[0].radius"),
])
def test_project_set_entries_must_be_json_numbers(capfd, tmp_path, fiber_set, path):
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


def test_every_command_and_rank_deficient_generated_modules_run_without_scipy():
    # Only numpy is a runtime dependency: with every scipy import failing,
    # the 8 commands run on tests/data (the three golden reports byte for
    # byte), and rank-deficient atoms get their lifts by numpy alone.
    src = pathlib.Path(rieszmod.__file__).resolve().parent.parent
    argvs = [
        ["laws", "--structure", "structure_l2.json", "--samples", "10000", "--seed", "7"],
        ["cotangent", "--graph", "path2.json", "--p", "2", "--fn", "[0,1]"],
        ["decompose", "--module", "module_221.json"],
        ["project", "--module", "module_gram.json", "--element", "element_34.json",
         "--set", "set_line.json"],
        ["dual", "--module", "module_push.json"],
        ["pushforward", "--module", "module_push.json", "--map", "map_dup.json"],
        ["hahn-banach", "--problem", "hb_problem.json"],
        ["stone", "--structure", "structure_l2.json", "--generators", "stone_gens.json"],
    ]
    argvs = [[str(DATA / a) if a.endswith(".json") else a for a in argv] for argv in argvs]
    code = "\n".join([
        "import contextlib, io, json, sys",
        "sys.modules['scipy'] = None  # any scipy import raises ImportError",
        "import numpy as np",
        "from rieszmod import generate_module, seminorm_family",
        "from rieszmod.cli import main",
        "from rieszmod.spaces import FiniteFStructure, FiniteMeasureSpace, Kind",
        "results = []",
        f"for argv in {argvs!r}:",
        "    out = io.StringIO()",
        "    with contextlib.redirect_stdout(out):",
        "        results.append([main(argv), out.getvalue()])",
        "rng = np.random.default_rng(631)",
        "mats = [rng.standard_normal((k, 5)) for k in (4, 0, 3, 6, 2)]",
        "mats[0][3] = mats[0][0] - 2.0 * mats[0][2]",
        "mats[2][1] = 0.0",
        "mats[3] = mats[3][:, :2] @ rng.standard_normal((2, 5))",
        "space = FiniteMeasureSpace.make(list('abcde'), [1.0] * 5)",
        "for p in (1.0, 2.0, 3.0):",
        "    structure = FiniteFStructure(space, Kind('Linf'), Kind('Lp', p))",
        "    gen = generate_module(seminorm_family(mats, p), structure)",
        "    assert gen.module.dims == (3, 0, 2, 2, 2), gen.module.dims",
        "print(json.dumps(results))",
    ])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert out.stderr == ""
    results = json.loads(out.stdout)
    assert [status for status, _ in results] == [0] * 8
    for name, (_, report) in zip(["laws", "cotangent", "decompose"], results):
        assert report == (GOLDEN / f"{name}.json").read_text()
    assert all(json.loads(report)["command"] == argv[0]
               for argv, (_, report) in zip(argvs, results))


def test_project_of_a_huge_element_scales_it_back_exactly(capfd, tmp_path):
    # b @ gram @ v overflowed for v = [1e308, 1e308], and the NaN projection
    # then failed JSON serialization with no path.
    element = tmp_path / "element.json"
    element.write_text(json.dumps({"vectors": [[1e308, 1e308]]}))
    code = main(["project", "--module", str(DATA / "module_gram.json"),
                 "--element", str(element), "--set", str(DATA / "set_line.json")])
    captured = capfd.readouterr()
    assert code == 0
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["projection"] == [[1e308, 0.0]]
    assert report["distance"] == [1e308]


@pytest.mark.parametrize("dim", [2.7, True, "2"])
def test_non_integer_fiber_dim_is_an_input_error(capsys, tmp_path, dim):
    module = json.loads((DATA / "module_221.json").read_text())
    module["fibers"][1]["dim"] = dim
    bad = tmp_path / "module.json"
    bad.write_text(json.dumps(module))
    cli_error(capsys, "decompose", "--module", str(bad), path="$.fibers[1].dim")


@pytest.mark.parametrize("command", ["dual", "decompose", "pushforward"])
def test_huge_fiber_dim_is_an_input_error(capfd, command):
    # Once an OverflowError traceback (dual, pushforward) or a 309-digit
    # dimension in a report (decompose).
    argv = [command, "--module", str(DATA / "module_huge_dim.json")]
    if command == "pushforward":
        argv += ["--map", str(DATA / "map_dup.json")]
    err = cli_error(capfd, *argv, path="$.fibers[0].dim")
    assert err["message"] == f"fiber dim must be at most {MAX_FIBER_DIM}"


@pytest.mark.parametrize("dim", [2**63, MAX_FIBER_DIM + 1])
def test_fiber_dim_above_the_cap_is_an_input_error(capfd, tmp_path, dim):
    module = json.loads((DATA / "module_push.json").read_text())
    module["fibers"][1]["dim"] = dim
    bad = tmp_path / "module.json"
    bad.write_text(json.dumps(module))
    cli_error(capfd, "dual", "--module", str(bad), path="$.fibers[1].dim")


@pytest.mark.parametrize("keys,value,path", [
    (("norm",), {"lp": True}, "$.fibers[0].norm.lp"),
    (("norm",), {"lp": "2"}, "$.fibers[0].norm.lp"),
    (("norm", "gram", 0, 0), "1.0", "$.fibers[0].norm.gram[0][0]"),
    (("norm", "gram", 1, 1), True, "$.fibers[0].norm.gram[1][1]"),
])
def test_module_entries_must_be_json_numbers(capfd, tmp_path, keys, value, path):
    # Each edit once parsed as a number: {"lp": true} as l1, "1.0" as 1.0.
    module = json.loads((DATA / "module_gram.json").read_text())
    parent = module["fibers"][0]
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    bad = tmp_path / "module.json"
    bad.write_text(json.dumps(module))
    cli_error(capfd, "decompose", "--module", str(bad), path=path)


def test_element_entries_must_be_json_numbers(capfd, tmp_path):
    element = tmp_path / "element.json"
    element.write_text('{"vectors": [[3.0, "4"]]}')
    cli_error(capfd, "project", "--module", str(DATA / "module_gram.json"), "--element",
              str(element), "--set", str(DATA / "set_line.json"), path="$.vectors[0][1]")


def edited_argv(tmp_path, argv):
    """argv with each "name.json" read from tests/data, and each (name,
    keys, value) a copy of that file with the entry at keys set to value."""
    out = []
    for arg in argv:
        if isinstance(arg, tuple):
            name, keys, value = arg
            doc = json.loads((DATA / name).read_text())
            parent = doc
            for key in keys[:-1]:
                parent = parent[key]
            parent[keys[-1]] = value
            (tmp_path / name).write_text(json.dumps(doc))
            arg = str(tmp_path / name)
        elif arg.endswith(".json"):
            arg = str(DATA / arg)
        out.append(arg)
    return out


def box(lo):
    return {"kind": "box", "lo": lo, "hi": [1.0, 1.0]}


PROJECT = ["project", "--module", "module_gram.json", "--element", "element_34.json", "--set"]


@pytest.mark.parametrize("argv,path", [
    (["laws", "--structure", ("structure_l2.json", ("space", "weights", 0), True)],
     "$.space.weights[0]"),
    (["laws", "--structure", ("structure_l2.json", ("space", "aux_weights"), [True, 0.5])],
     "$.space.aux_weights[0]"),
    (["laws", "--structure", ("structure_l2.json", ("V",), {"Lp": True})], "$.V.Lp"),
    (["cotangent", "--graph", ("path2.json", ("edges", 0, "w"), True), "--p", "2", "--fn", "[0,1]"],
     "$.edges[0].w"),
    (["cotangent", "--graph", "path2.json", "--p", "2", "--fn", "[true, 1]"], "$.fn[0]"),
    (["pushforward", "--module", "module_push.json", "--map",
      ("map_dup.json", ("atom_map", 0), True)], "$.atom_map[0]"),
    (["hahn-banach", "--problem", ("hb_problem.json", ("gauge",), ["1.0"])], "$.gauge[0]"),
    (["hahn-banach", "--problem", ("hb_problem.json", ("gauge",), [True])], "$.gauge[0]"),
    (["stone", "--structure", "structure_l2.json", "--generators",
      ("stone_gens.json", ("generators", 0), ["1", "0"])], "$.generators[0][0]"),
    (["stone", "--structure", "structure_l2.json", "--generators",
      ("stone_gens.json", ("generators", 0), [True, False])], "$.generators[0][0]"),
    ([*PROJECT, ("set_line.json", ("fibers", 0), box(["-1.0", -1.0]))], "$.fibers[0].lo[0]"),
    ([*PROJECT, ("set_line.json", ("fibers", 0), box([True, -1.0]))], "$.fibers[0].lo[0]"),
])
def test_bools_and_strings_are_not_json_numbers(capfd, tmp_path, argv, path):
    # Each input once exited 0 with a report, reading true as 1 and "1.0" as 1.0.
    cli_error(capfd, *edited_argv(tmp_path, argv), path=path)


def test_box_bounds_take_the_schema_infinities(capfd, tmp_path):
    argv = [*PROJECT, ("set_line.json", ("fibers", 0), box(["-inf", -1.0]))]
    assert main(edited_argv(tmp_path, argv)) == 0
    assert json.loads(capfd.readouterr().out)["projection"] == [[1.0, 1.0]]
    argv = [*PROJECT, ("set_line.json", ("fibers", 0), box(["inf", -1.0]))]
    cli_error(capfd, *edited_argv(tmp_path, argv), path="$.fibers[0].lo[0]")


@pytest.mark.parametrize("fiber_set", [
    {"kind": "ball", "center": [0.0], "radius": 1.0},
    {"kind": "box", "lo": [-1.0], "hi": [1.0]},
    {"kind": "subspace", "basis": [[1.0, 0.0, 0.0]]},
    {"kind": "intersection", "parts": [box([-1.0, -1.0]),
                                       {"kind": "ball", "center": [0.0] * 3, "radius": 1.0}]},
])
def test_fiber_sets_must_have_their_fibers_dimension(capfd, tmp_path, fiber_set):
    # A 1-vector center or bound was broadcast over the 2-dim fiber (the
    # ball gave [0.6, 0.8]), and a width of 3 failed in numpy with no path.
    argv = [*PROJECT, ("set_line.json", ("fibers", 0), fiber_set)]
    err = cli_error(capfd, *edited_argv(tmp_path, argv), code="dimension_mismatch",
                    path="$.fibers[0]")
    assert "'x'" in err["message"]


def test_integer_exponent_beyond_the_float_range_is_an_input_error(capfd, tmp_path):
    # A JSON integer too large for a float was an OverflowError traceback.
    module = (DATA / "module_push.json").read_text().replace('"lp": 2.0', '"lp": 1' + "0" * 400, 1)
    bad = tmp_path / "module.json"
    bad.write_text(module)
    cli_error(capfd, "dual", "--module", str(bad))


# --------------------------------------------------------------------------
# CLI fuzzing: every mutated input gets one JSON document and exit 0, 1 or 2
# --------------------------------------------------------------------------

_MODULES = ("module_221.json", "module_gram.json", "module_push.json", "module_huge_dim.json")

#: Per command, its arguments; a tuple lists the tests/data files a slot takes.
FUZZ_ARGV = {
    "laws": ["--structure", ("structure_l2.json",), "--samples", "20"],
    "cotangent": ["--graph", ("path2.json",), "--p", "2", "--fn", "[0.5, -1]"],
    "project": ["--module", ("module_gram.json",), "--element", ("element_34.json",),
                "--set", ("set_line.json",)],
    "decompose": ["--module", _MODULES],
    "dual": ["--module", _MODULES],
    "pushforward": ["--module", _MODULES, "--map", ("map_dup.json",), "--samples", "5"],
    "hahn-banach": ["--problem", ("hb_problem.json", "hb_violating.json")],
    "stone": ["--structure", ("structure_l2.json",), "--generators", ("stone_gens.json",)],
}

#: Replacements for a value: non-finite and subnormal numbers, and wrong types.
_VALUES = [math.nan, math.inf, -math.inf, 1e-320, "x", "2", True, None, [], {}, [1.0]]

#: Replacements for a fiber dim: invalid ones, which are refused before
#: anything of their size is allocated, or small valid ones.
_DIMS = [-1, 2.5, True, "2", 1e308, MAX_FIBER_DIM + 1, 0, 1, 2, 3]


def _json_paths(doc, at=()):
    yield at
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _json_paths(value, at + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _json_paths(value, at + (i,))


@st.composite
def _mutated_text(draw, text):
    """text truncated, or with one value replaced or one key or item deleted."""
    kind = draw(st.sampled_from(["truncate", "replace", "delete"]))
    if kind == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    doc = json.loads(text)
    paths = list(_json_paths(doc))[1:]
    path = draw(st.sampled_from(paths))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(st.sampled_from(_DIMS if path[-1] == "dim" else _VALUES))
    return json.dumps(doc)


@pytest.mark.parametrize("command", sorted(FUZZ_ARGV))
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_inputs_get_one_document_and_a_contract_exit_code(capfd, tmp_path, command, data):
    spec = FUZZ_ARGV[command]
    slots = [i for i, arg in enumerate(spec) if isinstance(arg, tuple)]
    target = data.draw(st.sampled_from(slots))
    argv = [command]
    for i, arg in enumerate(spec):
        if isinstance(arg, tuple):
            text = (DATA / data.draw(st.sampled_from(arg))).read_text()
            if i == target:
                text = data.draw(_mutated_text(text))
            path = tmp_path / f"input{i}.json"
            path.write_text(text)
            arg = str(path)
        argv.append(arg)
    capfd.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")   # a warning would reach stderr
        code = main(argv)
    captured = capfd.readouterr()
    assert code in (0, 1, 2)
    assert [str(w.message) for w in caught] == []
    assert captured.err == ""
    document = json.loads(captured.out, parse_constant=reject_constant)
    assert schema_errors(document, "error" if code == 2 else "report") == []


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
    assert [g.name for g in goldens] == ["cotangent.json", "decompose.json", "dual.json",
                                         "hahn_banach.json", "laws.json", "pushforward.json",
                                         "stone.json"]
    for golden in goldens:
        report = json.loads(golden.read_text())
        assert set(schema["required"]) <= set(report)
        assert report["command"] in schema["properties"]["command"]["enum"]


#: The input schema of every file in tests/data.
DATA_SCHEMAS = {
    "element_34.json": "element",
    "hb_huge_basis.json": "hahn_banach_problem",
    "hb_l21.json": "hahn_banach_problem",
    "hb_mixed.json": "hahn_banach_problem",
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
    "module_huge_dim.json": "module",
    "graph_huge_parallel.json": "graph",
    "structure_huge_weight.json": "structure",
}

#: The files of tests/data that are bad input: their schema refuses them, as
#: the CLI does.
REFUSED_DATA = {"module_huge_dim.json", "structure_huge_weight.json"}


def test_data_files_and_goldens_validate_against_the_schemas(capfd, tmp_path):
    assert sorted(DATA_SCHEMAS) == sorted(p.name for p in DATA.glob("*.json"))
    for file, name in DATA_SCHEMAS.items():
        refusals = schema_errors(json.loads((DATA / file).read_text()), name)
        assert (refusals != []) == (file in REFUSED_DATA), file
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


# --------------------------------------------------------------------------
# The report writer: json.dumps's bytes
# --------------------------------------------------------------------------

#: One run of each command on tests/data.
COMMAND_ARGV = [
    ["laws", "--structure", str(DATA / "structure_l2.json"), "--samples", "50"],
    ["cotangent", "--graph", str(DATA / "path2.json"), "--p", "3", "--fn", "[0.5,-1.25]"],
    ["project", "--module", str(DATA / "module_gram.json"),
     "--element", str(DATA / "element_34.json"), "--set", str(DATA / "set_line.json")],
    ["decompose", "--module", str(DATA / "module_221.json")],
    ["dual", "--module", str(DATA / "module_push.json")],
    ["pushforward", "--module", str(DATA / "module_push.json"),
     "--map", str(DATA / "map_dup.json"), "--samples", "5"],
    ["hahn-banach", "--problem", str(DATA / "hb_problem.json")],
    ["stone", "--structure", str(DATA / "structure_l2.json"),
     "--generators", str(DATA / "stone_gens.json")],
]


def reference_dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def test_writer_matches_json_dumps_on_every_report_and_envelope():
    assert sorted(argv[0] for argv in COMMAND_ARGV) == sorted(_HANDLERS)
    reports = [_HANDLERS[argv[0]](_build_parser().parse_args(argv))[1] for argv in COMMAND_ARGV]
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.RieszmodError)]
    assert len({c.code for c in classes}) == len(classes) >= 19
    envelopes = [c("refused \"x\" at \u00e9\n", path=f"$.a[{i}]").to_json()
                 for i, c in enumerate(classes)]
    envelopes.append(errors.InputError("no path").to_json())
    for obj in reports + envelopes:
        assert _dumps(obj) == reference_dumps(obj)


@pytest.mark.parametrize("obj", [
    [], {}, [[]], [{}], {"a": [], "b": {}}, [[[]], [[1.0, 2.5]], [[3, 4], []]],
    [1, 2.5, True, False, None, "s", -0.0], [True, False], [None], [1, True], [0.0, 1],
    {"z": 1, "a": [2.0, -3.0], "m": {"y": None, "b": [True]}},
    ["caf\u00e9", "\u2028", "\U0001f600", "tab\tnew\nline", "quote\"back\\", "\x00\x1f"],
    {"\u00e9": "\u00e9", "": ""},
    [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e16, 1e-7],
    [10**30, -(10**30), 0, -1], 10**30, -0.0, 5e-324, "top", None, True,
    (1.0, (2, "x")),
])
def test_writer_matches_json_dumps_on_synthetic_reports(obj):
    assert _dumps(obj) == reference_dumps(obj)


def test_writer_encodes_a_shared_dict_at_each_depth():
    # One dict object twice at one depth and once at another: the memo keys
    # a dict's text by its depth too.
    shared = {"dim": 2, "norm": {"lp": 2.0}, "names": ["a", "b\u00e9"]}
    obj = {"fibers": [shared, shared, {"inner": [shared]}], "top": shared, "list": ["x"]}
    assert _dumps(obj) == reference_dumps(obj)


def test_module_reports_share_one_dict_per_fiber_object():
    module = FiberModule.from_json(json.loads((DATA / "module_221.json").read_text()))
    fibers = _module_json(module)["fibers"]
    assert _module_json(module) == module.to_json()
    assert fibers[0] is fibers[1] and module.fibers[0] is module.fibers[1]
    # FiberModule.to_json keeps returning fresh dicts.
    fresh = module.to_json()["fibers"]
    assert fresh[0] is not fresh[1]
    fresh[0]["dim"] = 99
    assert module.to_json()["fibers"][0]["dim"] == 2


def test_writer_takes_str_keys_only():
    # Every report and envelope is keyed by strings; the writer does not
    # convert other keys as json.dumps would, it refuses them.
    for key in (1, 2.5, None, True):
        with pytest.raises(TypeError):
            _dumps({key: 0})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("wrap", [
    lambda x: x, lambda x: [x], lambda x: [1.0, x], lambda x: [1, x],
    lambda x: {"k": [[0.5], {"deep": x}]},
])
def test_writer_refuses_non_finite_floats_as_json_dumps_does(value, wrap):
    obj = wrap(value)
    with pytest.raises(ValueError) as want:
        reference_dumps(obj)
    with pytest.raises(ValueError) as got:
        _dumps(obj)
    assert str(got.value) == str(want.value) == (
        f"Out of range float values are not JSON compliant: {value!r}")
