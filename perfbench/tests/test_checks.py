"""Every checker accepts the library's real output and rejects a perturbed one.

Run with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
import rieszmod as R

import checks
import harness
from harness import CheckFailed
from workloads import run_cli, spd
from workloads.fiberwise import _graph
from workloads.lattice import _corrupt_dv
from workloads.fiberwise import _check_cli_dual
from workloads.solvers import (_check_cli_hb, _check_hilbert, fixed_ascent_inputs,
                               fixed_quotient_inputs)


def rejects(fn, *args, **kwargs):
    with pytest.raises(CheckFailed):
        fn(*args, **kwargs)


def module(descs, dims):
    space = R.FiniteMeasureSpace.make([f"a{i}" for i in range(len(dims))], [1.0] * len(dims))
    structure = R.FiniteFStructure(space, R.Kind("Linf"), R.Kind("Lp", 2.0))
    norms = {"lp": lambda p, m: R.LpNorm(p), "gram": lambda p, m: R.GramNorm(m),
             "image": lambda p, m: R.ImageLpNorm(m, p)}
    return R.FiberModule(structure, tuple(
        R.Fiber(d, norms[k](p, m)) for (k, p, m), d in zip(descs, dims)))


RNG = np.random.default_rng(5)
MIXED = [("lp", 1.0, None), ("lp", 2.0, None), ("lp", math.inf, None), ("lp", 3.0, None),
         ("gram", 2.0, spd(RNG, 3)), ("image", 1.0, RNG.standard_normal((4, 3)))]
MIXED_DIMS = [3] * len(MIXED)


# --------------------------------------------------------------------------
# lattice
# --------------------------------------------------------------------------

def test_law_checks_reject_a_failing_or_vacuous_report():
    space = R.FiniteMeasureSpace.make(["a", "b"], [1.0, 2.0])
    triples = [tuple(R.Fn(RNG.standard_normal(2), space) for _ in range(3)) for _ in range(5)]
    report = R.riesz_law_suite(triples)
    checks.all_laws_pass(report, 18, "suite")
    broken = R.LawReport(report.laws[:-1] + (R.LawResult("falg-9", False, None),))
    rejects(checks.all_laws_pass, broken, 18, "suite")
    rejects(checks.all_laws_pass, R.LawReport(report.laws[:17]), 18, "suite")


def test_corrupted_distance_is_flagged_and_honest_one_is_not():
    space = R.FiniteMeasureSpace.make([f"a{i}" for i in range(20)], [1.0] * 20)
    structure = R.FiniteFStructure(space, R.Kind("L0"), R.Kind("L0"))
    triples = [tuple(R.Fn(RNG.standard_normal(20), space) for _ in range(3)) for _ in range(3)]
    checks.law_flagged(R.check_fstructure_laws(structure, triples, d_v=_corrupt_dv),
                       "fstruct-unit-small")
    honest = R.check_fstructure_laws(structure, triples)
    checks.all_laws_pass(honest, 6, "f-structure")
    rejects(checks.law_flagged, honest, "fstruct-unit-small")


def test_stone_check_recomputes_atoms():
    space = R.FiniteMeasureSpace.make([f"a{i}" for i in range(30)], [1.0] * 30)
    member = RNG.random((4, 30)) < 0.5
    atoms, embedding = R.stone_atoms([space.indicator(row) for row in member])
    masks = checks.masks_of(atoms)
    checks.stone_matches(member, masks, embedding)
    rejects(checks.stone_matches, member, masks[::-1], embedding)
    flipped = masks.copy()
    flipped[0, np.argmax(flipped[0])] = False
    rejects(checks.stone_matches, member, flipped, embedding)
    rejects(checks.stone_matches, member, masks, [list(e)[1:] for e in embedding])


def test_refinement_and_combine_checks():
    space = R.FiniteMeasureSpace.make([f"a{i}" for i in range(24)], [1.0] * 24)
    one = R.Idempotent(space.one_fn())
    p = np.array([np.arange(24) % 3 == j for j in range(3)])
    labels = RNG.permutation(np.arange(24) % 4)
    q = np.array([labels == j for j in range(4)])

    def part(m):
        return R.FinitePartition(tuple(R.Idempotent(space.indicator(r)) for r in m), one)

    pp, qq = part(p), part(q)
    checks.partition_matches(pp, p, np.ones(24, bool))
    rejects(checks.partition_matches, pp, p[::-1], np.ones(24, bool))
    refined = R.refine_partitions(pp, qq)
    checks.refinement_matches(refined, p, q)
    rejects(checks.refinement_matches, R.FinitePartition(refined.parts[::-1], one), p, q)
    lam, mu = RNG.standard_normal(3), RNG.standard_normal(4)
    combined = R.simple_combine(R.SimpleElement(tuple(lam), pp), R.SimpleElement(tuple(mu), qq), "max")
    checks.combine_matches(combined, p, lam, q, mu, "max")
    rejects(checks.combine_matches, combined, p, lam, q, mu, "min")


def test_cli_checks_parse_and_count_laws(tmp_path):
    structure = tmp_path / "s.json"
    structure.write_text(json.dumps({"space": {"atoms": ["a", "b"], "weights": [1, 2]},
                                     "U": "Linf", "V": {"Lp": 2}}))
    out = run_cli(["laws", "--structure", str(structure), "--samples", "3", "--seed", "1"])
    checks.cli_laws_ok(out, 3)
    rejects(checks.cli_laws_ok, out, 4)
    report = json.loads(out[1])
    report["laws"] = report["laws"][:17]
    rejects(checks.cli_laws_ok, (0, json.dumps(report)), 3)
    rejects(checks.cli_laws_ok, (0, out[1].replace("true", "NaN", 1)[:-3]), 3)
    rejects(checks.cli_laws_ok, (1, out[1]), 3)

    member = np.array([[1, 1, 0, 0], [0, 1, 1, 0]], dtype=bool)
    gens = tmp_path / "g.json"
    gens.write_text(json.dumps({"generators": member.astype(float).tolist()}))
    structure.write_text(json.dumps({"space": {"atoms": list("abcd"), "weights": [1] * 4},
                                     "U": "Linf", "V": {"Lp": 2}}))
    out = run_cli(["stone", "--structure", str(structure), "--generators", str(gens)])
    checks.cli_stone_ok(out, member)
    rejects(checks.cli_stone_ok, out, member[::-1])


# --------------------------------------------------------------------------
# fiberwise
# --------------------------------------------------------------------------

def test_pointwise_norms_match_numpy_per_fiber_kind():
    m = module(MIXED, MIXED_DIMS)
    vs = [RNG.standard_normal(3) for _ in MIXED]
    got = R.pointwise_norm(R.ModuleElement(vs, m)).values
    checks.norms_match(got, MIXED, vs, "|v|")
    for i in range(len(MIXED)):
        bad = got.copy()
        bad[i] *= 1.0 + 1e-8
        rejects(checks.norms_match, bad, MIXED, vs, "|v|")


def test_vectors_and_glue_round_trip():
    m = module([("lp", 2.0, None)] * 6, [2] * 6)
    pieces = [[RNG.standard_normal(2) for _ in range(6)] for _ in range(3)]
    labels = np.arange(6) % 3
    parts = tuple(R.Idempotent(m.space.indicator(labels == j)) for j in range(3))
    family = R.AdmissibleFamily(R.FinitePartition(parts, R.Idempotent(m.space.one_fn())),
                                tuple(R.ModuleElement(p, m) for p in pieces))
    glued = R.glue(family)
    checks.glue_round_trip(glued, m, labels, pieces)
    rejects(checks.glue_round_trip, glued, m, labels[::-1].copy(), pieces)
    rejects(checks.glue_round_trip, glued, module([("lp", 2.0, None)] * 6, [2] * 6), labels, pieces)
    short = R.ModuleElement(glued.vectors[:1], module([("lp", 2.0, None)], [2]))
    rejects(checks.glue_round_trip, short, short.module, labels, pieces)
    checks.vectors_equal(glued.vectors, glued.vectors, "v")
    rejects(checks.vectors_equal, glued.vectors, [x + 1e-15 for x in glued.vectors], "v")


def test_edge_gradient_matches_the_differential():
    vertices, edges = _graph(12, RNG)
    for p in (1.0, 2.0, 3.0, math.inf):
        _, gen = R.cotangent_module(R.Graph(vertices, tuple(edges)), p)
        f = RNG.standard_normal(12)
        df = gen.generator_map(f)
        descs = [checks.library_fiber_desc(fb) for fb in df.module.fibers]
        got = np.array([checks.fiber_norm(d, x) for d, x in zip(descs, df.vectors)])
        checks.gradient_matches(got, 12, edges, f, p, "|df|")
        rejects(checks.gradient_matches, got, 12, edges, f[::-1].copy(), p, "|df|")
        rejects(checks.gradient_matches, got[:1], 12, edges, f, p, "|df|")
        checks.dims_match(gen.module.dims, checks.degrees(12, edges), "dims")
        rejects(checks.dims_match, gen.module.dims, checks.degrees(12, edges[1:]), "dims")


def test_decomposition_check():
    dims = [0, 3, 1, 3, 0]
    m = module([("lp", 2.0, None)] * 5, dims)
    blocks = [(d, i.element.values > 0.5) for d, i in R.dimensional_decomposition(m)]
    checks.decomposition_matches(blocks, dims)
    rejects(checks.decomposition_matches, blocks, [0, 3, 1, 1, 0])
    rejects(checks.decomposition_matches, blocks[1:], dims)


def test_hom_norm_closed_forms_and_duals():
    srcs = [("lp", 1.0, None), ("lp", math.inf, None), ("gram", 2.0, spd(RNG, 3)), ("lp", 2.0, None)]
    tgts = [MIXED[5], MIXED[3], ("lp", 2.0, None), ("gram", 2.0, spd(RNG, 3))]
    mats = [RNG.standard_normal((3, 3)) for _ in srcs]
    h = R.HomElement(mats, module(srcs, [3] * 4), module(tgts, [3] * 4))
    got = R.hom_norm(h).values
    checks.hom_norms_match(got, srcs, tgts, mats, "hom")
    for i in range(4):
        bad = got.copy()
        bad[i] *= 1.0 + 1e-6
        rejects(checks.hom_norms_match, bad, srcs, tgts, mats, "hom")
    rejects(checks.hom_norms_match, got[:2], srcs, tgts, mats, "hom")

    lp_gram = MIXED[:5]
    m = module(lp_gram, [3] * 5)
    dual = R.dual_module(m, R.DualSystem.default(m.structure))
    got = [checks.library_fiber_desc(f) for f in dual.fibers]
    checks.dual_fibers_match(got, lp_gram)
    rejects(checks.dual_fibers_match, got[::-1], lp_gram)
    rejects(checks.dual_fibers_match, got[:4], lp_gram)
    report = json.loads(json.dumps(dual.to_json()))
    checks.dual_fibers_match([checks.json_norm_desc(f["norm"]) for f in report["fibers"]], lp_gram)


def test_dual_command_check_rejects_a_short_report(tmp_path):
    descs = MIXED[:5]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(module(descs, [3] * 5).to_json()))
    code, text = run_cli(["dual", "--module", str(path)])
    _check_cli_dual((code, text), descs)
    report = json.loads(text)
    report["dual"]["fibers"] = []
    rejects(_check_cli_dual, (code, json.dumps(report)), descs)


def test_norming_functional_certificates():
    m = module(MIXED, MIXED_DIMS)
    vs = [RNG.standard_normal(3) for _ in MIXED]
    omega = R.norming_functional(R.ModuleElement(vs, m))
    checks.norming_ok(omega, MIXED, vs)
    for i in range(len(MIXED)):
        mats = list(omega.matrices)
        mats[i] = mats[i] * 1.01
        rejects(checks.norming_ok, R.HomElement(mats, omega.source, omega.target), MIXED, vs)
    rejects(checks.norming_ok, SimpleNamespace(matrices=omega.matrices[:1]), MIXED, vs)


def test_pushforward_check():
    descs = [("lp", 1.0, None), ("lp", 2.0, None), ("lp", math.inf, None)]
    m = module(descs, [2, 3, 1])
    target = R.FiniteFStructure(R.FiniteMeasureSpace.make(list("xyzw"), [1.0] * 4),
                                R.Kind("Linf"), R.Kind("Lp", 2.0))
    amap = (2, 0, 0, 1)
    vs = [RNG.standard_normal(d) for d in (2, 3, 1)]
    pm, pf = R.pushforward_module(R.StructureHom(m.structure, target, amap), m)
    pushed = pf.apply(R.ModuleElement(vs, m))
    checks.pushforward_ok(pm, m.fibers, amap, pushed, vs, descs)
    rejects(checks.pushforward_ok, pm, m.fibers, (2, 0, 1, 1), pushed, vs, descs)
    bad = R.ModuleElement([x * 1.5 for x in pushed.vectors], pm)
    rejects(checks.pushforward_ok, pm, m.fibers, amap, bad, vs, descs)
    rejects(checks.pushforward_ok, pm, m.fibers, amap, SimpleNamespace(vectors=pushed.vectors[:2]),
            vs, descs)


# --------------------------------------------------------------------------
# solvers
# --------------------------------------------------------------------------

def test_quotient_check_catches_f1_and_accepts_exact_kinds():
    for p, v, b, fails in fixed_quotient_inputs():
        desc = [("lp", p, None)]
        m = module(desc, [len(v)])
        got = R.quotient_norm(R.ModuleElement([v], m), R.Submodule(m, (b,)))
        if fails:
            rejects(checks.quotient_matches, got, desc, [v], [b])
        else:
            checks.quotient_matches(got, desc, [v], [b])
            rejects(checks.quotient_matches, SimpleNamespace(values=got.values[:0]), desc, [v], [b])
    for d in (("lp", 1.0, None), ("lp", math.inf, None)):
        m = module([d], [2])
        v2, b2 = RNG.standard_normal(2), RNG.standard_normal((1, 2))
        got = R.quotient_norm(R.ModuleElement([v2], m), R.Submodule(m, (b2,)))
        checks.quotient_matches(got, [d], [v2], [b2])
    for d in (("lp", 2.0, None), ("gram", 2.0, spd(RNG, 6))):
        m = module([d], [6])
        v6, b6 = RNG.standard_normal(6), RNG.standard_normal((3, 6))
        got = R.quotient_norm(R.ModuleElement([v6], m), R.Submodule(m, (b6,)))
        checks.quotient_matches(got, [d], [v6], [b6])
        rejects(checks.quotient_matches, R.Fn(got.values * (1 + 1e-6), m.space), [d], [v6], [b6])


def test_sign_enumeration_check():
    a = RNG.standard_normal((3, 6))
    tgt = ("lp", 3.0, None)
    h = R.HomElement([a], module([("lp", math.inf, None)], [6]), module([tgt], [3]))
    got = float(R.hom_norm(h).values[0])
    checks.close(got, checks.sign_enum_expected(tgt, a), 1e-10, "sign")
    rejects(checks.close, got * (1 + 1e-8), checks.sign_enum_expected(tgt, a), 1e-10, "sign")


def test_ascent_check_catches_f3_and_bounds_from_above():
    for p, q, a, fails in fixed_ascent_inputs():
        d = a.shape[1]
        h = R.HomElement([a], module([("lp", p, None)], [d]), module([("lp", q, None)], [d]))
        got = float(R.hom_norm(h).values[0])
        lower = checks.sphere_sample_max(p, q, a)
        if fails:
            rejects(checks.ascent_ok, got, p, q, a, lower)
        else:
            checks.ascent_ok(got, p, q, a, lower)
            rejects(checks.ascent_ok, got * (1.0 - 2e-4), p, q, a, lower)
        rejects(checks.ascent_ok, math.inf, p, q, a, lower)


def test_extension_checks_and_refusal_certificate():
    descs = [("lp", 1.0, None), ("gram", 2.0, spd(RNG, 5))]
    bases = [RNG.standard_normal((2, 5)) for _ in descs]
    gauge = np.array([1.0, 2.0])
    values = []
    for desc, b, g in zip(descs, bases, gauge):
        w = RNG.standard_normal(5)
        values.append(b @ (w * 0.8 * g / checks.dual_norm(desc, w)))
    m = module(descs, [5, 5])
    ext = R.hahn_banach_extend(R.Submodule(m, tuple(bases)), values, R.Fn(gauge, m.space))
    rows = list(ext.functional.matrices)
    checks.extension_ok(rows, descs, bases, values, gauge)
    rejects(checks.extension_ok, [r * 1.5 for r in rows], descs, bases, values, gauge)
    rejects(checks.extension_ok, rows, descs, bases, [v + 1e-6 for v in values], gauge)
    rejects(checks.extension_ok, rows[:1], descs, bases, values, gauge)
    # A dominated problem is no certificate of refusal.
    rejects(checks.refused, R.DominationViolated("x"), R.DominationViolated, descs, bases,
            values, gauge)

    # F2: l-infinity, d = 20, the whole fiber as basis, values 0.06, gauge 1.
    desc = [("lp", math.inf, None)]
    basis, vals, g = [np.eye(20)], [np.full(20, 0.06)], np.array([1.0])
    assert checks.min_dual_norm(desc[0], basis[0], vals[0]) == pytest.approx(1.2)
    m = module(desc, [20])
    out = harness.raised(R.DominationViolated, lambda: R.hahn_banach_extend(
        R.Submodule(m, tuple(basis)), vals, R.Fn(g, m.space)))
    rejects(checks.refused, out, R.DominationViolated, desc, basis, vals, g)
    checks.refused(R.DominationViolated("x"), R.DominationViolated, desc, basis, vals, g)


def test_extension_command_check_rejects_a_short_report(tmp_path):
    descs = [("lp", math.inf, None), ("gram", 2.0, spd(RNG, 4))]
    bases = [RNG.standard_normal((2, 4)) for _ in descs]
    gauge = np.array([1.0, 1.5])
    values = []
    for desc, b, g in zip(descs, bases, gauge):
        w = RNG.standard_normal(4)
        values.append(b @ (w * 0.8 * g / checks.dual_norm(desc, w)))
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"module": module(descs, [4, 4]).to_json(),
                                "basis": [b.tolist() for b in bases],
                                "functional": [r.tolist() for r in values],
                                "gauge": gauge.tolist()}))
    code, text = run_cli(["hahn-banach", "--problem", str(path)])
    _check_cli_hb((code, text), descs, bases, values, gauge)
    for key in ("extension", "restriction_values"):
        report = json.loads(text)
        report[key] = []
        rejects(_check_cli_hb, (code, json.dumps(report)), descs, bases, values, gauge)


def test_hilbert_module_check():
    grams = [spd(RNG, d) for d in (2, 3)]
    h = R.HilbertModule(module([("gram", 2.0, g) for g in grams], [2, 3]))
    _check_hilbert(h, grams)
    rejects(_check_hilbert, h, grams[::-1])
    rejects(_check_hilbert, SimpleNamespace(compat_constant=h.compat_constant, grams=[]), grams)


def test_projection_checks():
    d = 5
    g = spd(RNG, d)
    m = module([("gram", 2.0, g)], [d])
    v = 3.0 * RNG.standard_normal(d)
    el = R.ModuleElement([v], m)

    def project(fiber_set):
        return R.project_convex(el, R.ConvexSet((fiber_set,))).vectors[0]

    lo, hi = -np.ones(d), np.ones(d)
    x = project(R.BoxSet(lo, hi))
    checks.box_kkt(x, v, g, lo, hi)
    rejects(checks.box_kkt, np.clip(v, lo, hi) * 0.9, v, g, lo, hi)
    c = 0.1 * RNG.standard_normal(d)
    x = project(R.BallSet(c, 1.0))
    checks.ball_kkt(x, v, g, c, 1.0)
    rejects(checks.ball_kkt, c + (x - c) * 0.99, v, g, c, 1.0)
    basis = RNG.standard_normal((2, d))
    x = project(R.SubspaceSet(basis))
    checks.subspace_kkt(x, v, g, basis)
    rejects(checks.subspace_kkt, basis.T @ np.linalg.lstsq(basis.T, v, rcond=None)[0], v, g, basis)
    gd = np.diag(RNG.uniform(0.5, 2.0, d))
    md = module([("gram", 2.0, gd)], [d])
    radius = 1.5
    x = R.project_convex(R.ModuleElement([v], md), R.ConvexSet((R.IntersectionSet(
        (R.BoxSet(lo, hi), R.BallSet(np.zeros(d), radius))),))).vectors[0]
    cand = RNG.uniform(-1.0, 1.0, (4000, d))
    feasible = cand[np.linalg.norm(cand @ checks.whiten(gd).T, axis=1) <= radius]
    members = [checks.in_box(lo, hi), checks.in_ball(gd, np.zeros(d), radius)]
    checks.variational_ok(x, v, gd, feasible, members)
    rejects(checks.variational_ok, x * 0.5, v, gd, feasible, members)
    rejects(checks.variational_ok, np.clip(v, lo, hi), v, gd, feasible, members)


# --------------------------------------------------------------------------
# harness
# --------------------------------------------------------------------------

def test_known_fault_counts_as_failed_without_making_the_run_incorrect():
    def bad(_):
        raise CheckFailed("wrong")

    ops = [harness.Op("modules.x_ms", lambda: 1, bad, fault="F1"),
           harness.Op("modules.y_ms", lambda: 1, lambda _: None)]
    result, _ = harness.run_rounds(ops, 0.0)
    assert result.correct and result.failed * 2 == result.attempted
    ops[1].check = bad
    result, _ = harness.run_rounds(ops, 0.0)
    assert not result.correct and result.failed == result.attempted


def test_times_are_scaled_by_the_host_factor():
    result = harness.RunResult(job_times=[1.0, 2.0, 3.0], latencies=[0.001, 0.002, 0.003],
                               calibrations=[harness.CALIBRATION_REF_S * 2] * 3)
    metrics = harness.end_to_end(result)
    assert metrics["job_s"]["value"] == 1.0 and metrics["op_p50_ms"]["value"] == 1.0
    ops = [harness.Op("modules.x_ms", lambda: 1, lambda _: None)]
    result, _ = harness.run_rounds(ops, 0.0)
    assert len(result.calibrations) == result.attempted


def test_nearest_rank_and_self_time():
    assert harness.nearest_rank(list(range(1, 101)), 95.0) == 95
    tracer = harness.Tracer()
    tracer.spans = [["a", "cli", 0.0, 10.0, -1, "r0.0"], ["b", "order", 2.0, 5.0, 0, "r0.0"],
                    ["c", "spaces", 3.0, 4.0, 1, "r0.0"], ["d", "order", 6.0, 7.0, 0, "r0.0"]]
    totals = tracer.layer_totals({"r0.0"})
    assert totals["cli"] == (6.0, 1) and totals["order"] == (3.0, 2) and totals["spaces"] == (1.0, 1)


def test_tracer_records_nested_layer_crossings_and_uninstalls():
    tracer = harness.Tracer()
    original = R.stone_atoms
    tracer.install()
    try:
        space = R.FiniteMeasureSpace.make(["a", "b"], [1.0, 1.0])
        R.stone_atoms([space.indicator([True, False])])
    finally:
        tracer.uninstall()
    assert R.stone_atoms is original
    names = [s[0] for s in tracer.spans]
    assert "spaces.stone_atoms" in names
    assert all(s[3] >= s[2] for s in tracer.spans) and not tracer.stack
