"""The wide half of workload ``modules``: many atoms, a cheap kernel each.

Modules of thousands of atoms carry fibers of dimension 0-4 with mixed
norms (lp 1, 2, 3, infinity, gram, image-l1), so the per-atom Python loops of
the module, constructions and duality layers dominate; grouping atoms by
fiber signature would show here.  Graph cotangent modules of 20-150
vertices add the generated-module construction.
"""

from __future__ import annotations

import json
import math
from functools import partial
from pathlib import Path

import numpy as np
import rieszmod as R

import checks
from harness import CheckFailed, Op
from workloads import (
    api,
    interleave,
    module_json,
    rng_for,
    run_cli,
    spd,
    structure_json,
    write_json,
)

N_ATOMS = 2000        # atoms of the main module
N_DUAL = 300          # atoms of the module dualized through the API
N_CLI = 200           # atoms of the modules the CLI commands read
MAX_DIM = 4
# Four same-sized graphs at one exponent (p = 2 and 3 cost about twice what
# p = 1 and infinity do) form the block the tail percentile falls in.
GRAPHS = ((20, 1.0), (40, math.inf), (80, 2.0), (80, 2.0), (80, 2.0), (80, 2.0), (150, 3.0))
MAP_GRAPHS = ((20, 2.0), (70, 1.0))
CLI_GRAPH = 30
PUSH_SAMPLES = 10
KINDS = ("l1", "l2", "linf", "l3", "gram", "image")


def _desc(kind: str, d: int, rng: np.random.Generator) -> tuple:
    if kind == "gram" and d:
        return ("gram", 2.0, spd(rng, d))
    if kind == "image" and d:
        return ("image", 1.0, rng.standard_normal((d + 1, d)))
    p = {"l1": 1.0, "l2": 2.0, "linf": math.inf, "l3": 3.0, "gram": 2.0, "image": 1.0}[kind]
    return ("lp", p, None)


def _fibers(n: int, kinds: tuple[str, ...], rng: np.random.Generator) -> tuple[list, list[int]]:
    """Fixed counts of every (kind, dim) pair, in a seeded order."""
    order = rng.permutation(n)
    dims = [int(i % (MAX_DIM + 1)) for i in order]
    descs = [_desc(kinds[i % len(kinds)], d, rng) for i, d in zip(order, dims)]
    return descs, dims


def _source_desc(tgt: tuple, d: int, i: int, rng: np.random.Generator) -> tuple:
    """A hom source whose operator norm into tgt has a closed form."""
    if tgt[0] == "gram" or (tgt[0] == "lp" and tgt[1] == 2.0):
        return _desc(("gram", "l2")[i % 2], d, rng)
    return _desc(("l1", "linf")[i % 2], d, rng)


def _graph(n: int, rng: np.random.Generator) -> tuple[tuple, list[tuple[int, int, float]]]:
    """A ring plus a chord from every even vertex a third of the way round,
    with seeded weights in [0.5, 2].  The shape is fixed per size, so the
    cost of building its module does not depend on the seed."""
    pairs = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
    pairs |= {tuple(sorted((i, (i + n // 3) % n))) for i in range(0, n, 2)}
    edges = [(a, b, float(rng.uniform(0.5, 2.0))) for a, b in sorted(pairs)]
    return tuple(f"v{i}" for i in range(n)), edges


def _graph_json(vertices, edges) -> dict:
    return {"vertices": list(vertices),
            "edges": [{"u": vertices[a], "v": vertices[b], "w": w} for a, b, w in edges]}


def _check_generated(out, n, edges, f, p):
    _, gen = out
    checks.dims_match(gen.module.dims, checks.degrees(n, edges), "cotangent module")
    _check_differential(gen.generator_map(f), n, edges, f, p)


def _check_differential(df, n, edges, f, p):
    descs = [checks.library_fiber_desc(fb) for fb in df.module.fibers]
    got = np.array([checks.fiber_norm(d, x) for d, x in zip(descs, df.vectors)])
    checks.gradient_matches(got, n, edges, f, p, "|df|")


def _check_cli_cotangent(out, n, edges, f, p):
    report = checks.cli_report(*out, "cotangent")
    checks.dims_match(report["fiber_dims"], checks.degrees(n, edges), "cotangent command")
    checks.gradient_matches(np.array(report["|df|"]), n, edges, f, p, "cotangent command |df|")


def _check_decomposition(blocks, dims):
    checks.decomposition_matches([(d, idem.element.values > 0.5) for d, idem in blocks], dims)


def _check_cli_decompose(out, dims):
    report = checks.cli_report(*out, "decompose")
    checks.decomposition_matches([(b["n"], np.array(b["D"]) == 1) for b in report["decomposition"]],
                                 dims)


def _check_dual(out, descs):
    dual, reflexive = out
    checks.dual_fibers_match([checks.library_fiber_desc(f) for f in dual.fibers], descs)
    if reflexive is not True:
        raise CheckFailed("finite-dimensional module reported not reflexive")


def _check_cli_dual(out, descs):
    report = checks.cli_report(*out, "dual")
    if report["reflexive"] is not True:
        raise CheckFailed("dual command reports a non-reflexive module")
    got = [checks.json_norm_desc(f["norm"]) for f in report["dual"]["fibers"]]
    checks.dual_fibers_match(got, descs)


def _check_cli_pushforward(out, fibers_json, amap):
    report = checks.cli_report(*out, "pushforward")
    if report["norm_preserved"] is not True or report["samples"] != PUSH_SAMPLES:
        raise CheckFailed("pushforward command reports |phi_* v| != phi(|v|)")
    if report["module"]["fibers"] != [fibers_json[a] for a in amap]:
        raise CheckFailed("pushforward command did not copy fibers along the atom map")


def build(seed: int, workdir: Path) -> list[Op]:
    rng = rng_for("fiberwise", seed)
    structure = structure_json(N_ATOMS, rng.uniform(0.5, 2.0, N_ATOMS), prefix="x")
    descs, dims = _fibers(N_ATOMS, KINDS, rng)
    m = R.FiberModule.from_json(module_json(descs, dims, structure))
    src_descs = [_source_desc(t, d, i, rng) for i, (t, d) in enumerate(zip(descs, dims))]
    src = R.FiberModule.from_json(module_json(src_descs, dims, structure))
    dual_descs, dual_dims = _fibers(N_DUAL, KINDS[:5], rng)
    dual_src = R.FiberModule.from_json(module_json(
        dual_descs, dual_dims, structure_json(N_DUAL, rng.uniform(0.5, 2.0, N_DUAL), prefix="y")))
    dual_system = R.DualSystem.default(dual_src.structure)

    def vectors():
        return [rng.standard_normal(d) for d in dims]

    vecs = [vectors() for _ in range(11)]
    elems = [R.ModuleElement(v, m) for v in vecs]

    element = [Op("modules.element_us", api("ModuleElement", vecs[k], m),
                  partial(lambda out, want: checks.vectors_equal(out.vectors, want, "element"),
                          want=vecs[k]), units=N_ATOMS) for k in range(8)]
    pnorm = [Op("modules.pointwise_norm_us", api("pointwise_norm", elems[k]),
                partial(lambda out, v: checks.norms_match(out.values, descs, v, "|v|"), v=vecs[k]),
                units=N_ATOMS) for k in range(10)]

    arith = []
    for k in range(8):
        a, b, va, vb = elems[k], elems[k + 1], vecs[k], vecs[k + 1]
        if k % 4 == 0:
            call, want = (lambda a=a, b=b: a + b), [x + y for x, y in zip(va, vb)]
        elif k % 4 == 1:
            call, want = (lambda a=a, b=b: a - b), [x - y for x, y in zip(va, vb)]
        elif k % 4 == 2:
            u = R.Fn(rng.standard_normal(N_ATOMS), m.space)
            call, want = (lambda a=a, u=u: u * a), [c * x for c, x in zip(u.values, va)]
        else:
            lam = float(rng.standard_normal())
            call, want = (lambda a=a, lam=lam: a.scale(lam)), [x * lam for x in va]
        arith.append(Op("modules.arith_us", call,
                        partial(lambda out, want: checks.vectors_equal(out.vectors, want, "arith"),
                                want=want), units=N_ATOMS))

    glue = []
    for k in range(2):
        labels = rng.permutation(np.arange(N_ATOMS) % 6)
        parts = tuple(R.Idempotent(m.space.indicator(labels == j)) for j in range(6))
        partition = R.FinitePartition(parts, R.Idempotent(m.space.one_fn()))
        family = R.AdmissibleFamily(partition, tuple(elems[k + j] for j in range(6)))
        glue.append(Op("modules.glue_ms", api("glue", family),
                       partial(checks.glue_round_trip, module=m, labels=labels,
                               pieces=[vecs[k + j] for j in range(6)])))

    decomposition = [Op("modules.decomposition_ms", api("dimensional_decomposition", m),
                        partial(_check_decomposition, dims=dims))]

    hom = []
    for k in range(2):
        mats = [rng.standard_normal((d, d)) for d in dims]
        h = R.HomElement(mats, src, m)
        hom.append(Op("homdual.hom_norm_closed_us", api("hom_norm", h),
                      partial(lambda out, mats: checks.hom_norms_match(
                          out.values, src_descs, descs, mats, "closed-form hom norm"), mats=mats),
                      units=N_ATOMS))

    dual = [Op("homdual.dual_module_ms",
               lambda: (R.dual_module(dual_src, dual_system), R.is_reflexive(dual_src, dual_system)),
               partial(_check_dual, descs=dual_descs)) for _ in range(2)]

    norming = [Op("homdual.norming_functional_us", api("norming_functional", elems[k]),
                  partial(checks.norming_ok, descs=descs, vectors=vecs[k]), units=N_ATOMS)
               for k in range(2)]

    target = R.FiniteFStructure.from_json(
        structure_json(N_ATOMS, rng.uniform(0.5, 2.0, N_ATOMS), prefix="z"))
    push = []
    for k in range(2):
        amap = tuple(int(i) for i in rng.integers(0, N_ATOMS, N_ATOMS))
        phi = R.StructureHom(m.structure, target, amap)

        def forward(phi=phi, v=elems[k]):
            pm, pf = R.pushforward_module(phi, m)
            return pm, pf.apply(v)

        push.append(Op("constructions.pushforward_ms", forward,
                       partial(lambda out, amap, v: checks.pushforward_ok(
                           out[0], m.fibers, amap, out[1], v, descs), amap=amap, v=vecs[k])))

    generate = []
    for n, p in GRAPHS:
        vertices, edges = _graph(n, rng)
        graph = R.Graph(vertices, tuple(edges))
        f = rng.standard_normal(n)
        generate.append(Op("constructions.generate_module_ms", api("cotangent_module", graph, p),
                           partial(_check_generated, n=n, edges=edges, f=f, p=p), units=n))
    genmap = []
    for n, p in MAP_GRAPHS:
        vertices, edges = _graph(n, rng)
        _, gen = R.cotangent_module(R.Graph(vertices, tuple(edges)), p)
        f = rng.standard_normal(n)
        genmap.append(Op("constructions.generator_map_us", partial(gen.generator_map, f),
                         partial(_check_differential, n=n, edges=edges, f=f, p=p), units=n))

    cli_descs, cli_dims = _fibers(N_CLI, KINDS[:5], rng)
    cli_structure = structure_json(N_CLI, rng.uniform(0.5, 2.0, N_CLI), prefix="c")
    cli_module = module_json(cli_descs, cli_dims, cli_structure)
    module_file = write_json(workdir, "fiberwise-module.json", cli_module)
    cli_cotangent, cli_decompose, cli_dual, cli_push = [], [], [], []
    for k in range(2):
        vertices, edges = _graph(CLI_GRAPH, rng)
        graph_file = write_json(workdir, f"fiberwise-graph{k}.json", _graph_json(vertices, edges))
        f = rng.standard_normal(CLI_GRAPH)
        p = (2.0, 3.0)[k]
        argv = ["cotangent", "--graph", graph_file, "--p", str(p), "--fn", json.dumps(f.tolist())]
        cli_cotangent.append(Op("cli.cotangent_ms", partial(run_cli, argv),
                                partial(_check_cli_cotangent, n=CLI_GRAPH, edges=edges, f=f, p=p)))
        cli_decompose.append(Op("cli.decompose_ms",
                                partial(run_cli, ["decompose", "--module", module_file]),
                                partial(_check_cli_decompose, dims=cli_dims)))
        cli_dual.append(Op("cli.dual_ms", partial(run_cli, ["dual", "--module", module_file]),
                           partial(_check_cli_dual, descs=cli_descs)))
        amap = [int(i) for i in rng.integers(0, N_CLI, N_CLI)]
        map_file = write_json(workdir, f"fiberwise-map{k}.json", {
            "target": structure_json(N_CLI, rng.uniform(0.5, 2.0, N_CLI), prefix="t"),
            "atom_map": amap})
        argv = ["pushforward", "--module", module_file, "--map", map_file,
                "--samples", str(PUSH_SAMPLES), "--seed", str(int(rng.integers(0, 2**31)))]
        cli_push.append(Op("cli.pushforward_ms", partial(run_cli, argv),
                           partial(_check_cli_pushforward, fibers_json=cli_module["fibers"],
                                   amap=amap)))

    return interleave([element, pnorm, arith, glue, decomposition, hom, dual, norming, push,
                       generate, genmap, cli_cotangent, cli_decompose, cli_dual, cli_push])
