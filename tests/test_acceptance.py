"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single summary line; a failed guarantee surfaces as an
ordinary pytest failure with the offending numbers in the assertion.
"""

import json
import math
import pathlib
import time

import numpy as np

from rieszmod import (
    AdmissibleFamily,
    BallSet,
    BoxSet,
    ConvexSet,
    DualSystem,
    Fiber,
    FiberModule,
    FinitePartition,
    Fn,
    GramNorm,
    Graph,
    HilbertModule,
    HomElement,
    Idempotent,
    ImageLpNorm,
    IntersectionSet,
    LpNorm,
    ModuleElement,
    SimpleElement,
    StructureHom,
    Submodule,
    SubspaceSet,
    bidual_embed,
    cotangent_module,
    dimensional_decomposition,
    disjointify,
    dual_embed,
    dual_element,
    dual_vector_norm,
    extend_from_generators,
    glue,
    hahn_banach_extend,
    hilbert_reflexivity_check,
    hom_norm,
    independence_check,
    is_reflexive,
    matrix_rank,
    negative_part,
    norming_functional,
    pairing,
    parallelogram_defect,
    pointwise_norm,
    positive_part,
    project_convex,
    pushforward_module,
    refine_partitions,
    riesz_inverse,
    riesz_law_suite,
    riesz_map,
    simple_combine,
    universal_factor,
)
from rieszmod.cli import main as cli_main
from helpers import (
    assert_extension,
    gram_module,
    lp_module,
    make_space,
    make_structure,
    random_element,
    random_fn,
    random_spd,
)

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = pathlib.Path(__file__).parent / "golden"


def done(n, text):
    print(f"[acceptance] criterion {n}: PASS ({text})", flush=True)


def batch_norm(norm, xs):
    """Vectorized fiber norm of the rows of xs."""
    if isinstance(norm, GramNorm):
        return np.sqrt(np.maximum(0.0, np.einsum("ni,ij,nj->n", xs, norm.gram, xs)))
    if isinstance(norm, ImageLpNorm):
        return batch_norm(LpNorm(norm.p), xs @ norm.matrix.T)
    p = norm.p
    if xs.shape[1] == 0:
        return np.zeros(len(xs))
    if p == math.inf:
        return np.abs(xs).max(axis=1)
    return (np.abs(xs) ** p).sum(axis=1) ** (1.0 / p)


def label_partition(rng, space, max_parts=4):
    """A random partition of the unit into up to max_parts indicator cells."""
    labels = rng.integers(0, max_parts, size=space.n)
    one = Idempotent(space.one_fn())
    parts = tuple(
        Idempotent(space.indicator(labels == k))
        for k in sorted(set(labels.tolist()))
    )
    return FinitePartition(parts, one)


def random_graph(rng, n=5, extra=4):
    edges = {}
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges[(u, v)] = float(rng.uniform(0.5, 2.0))
    while len(edges) < n - 1 + extra:
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        edges.setdefault((int(u), int(v)), float(rng.uniform(0.5, 2.0)))
    return Graph(tuple(f"v{i}" for i in range(n)),
                 tuple((u, v, w) for (u, v), w in sorted(edges.items())))


# --------------------------------------------------------------------------
# 1. Lattice and ring law suite
# --------------------------------------------------------------------------

def test_criterion_01_law_suite_on_ten_thousand_triples():
    # Every law is an atomwise identity checked exactly or with a per-atom
    # absolute tolerance, so one triple over a concatenation of independent
    # blocks is equivalent to one triple per block; stacking keeps the full
    # 10^4-triple budget far inside the runtime bound.
    started = time.perf_counter()
    rng = np.random.default_rng(20240814)
    blocks_per_size = 1250
    stacked = []
    for size in range(1, 9):
        space = make_space(size * blocks_per_size)
        stacked.append(tuple(
            Fn(rng.standard_normal(space.n), space) for _ in range(3)))
    direct = []
    for size in range(1, 9):
        space = make_space(size)
        for _ in range(25):
            direct.append(tuple(
                Fn(rng.standard_normal(size), space) for _ in range(3)))
    report = riesz_law_suite(stacked + direct)
    elapsed = time.perf_counter() - started
    assert report.all_passed(), report.failed_ids()
    assert len(report.laws) == 18
    assert elapsed < 5.0, f"law suite took {elapsed:.2f}s"
    done(1, f"18 laws on 10000 stacked plus 200 direct triples over 1-8 "
            f"atoms in {elapsed:.2f}s")


def test_criterion_01_law_suite_on_ten_thousand_direct_triples():
    # The same budget without stacking: 1250 triples on each of the spaces
    # with 1 to 8 atoms, every triple a separate sample.
    started = time.perf_counter()
    rng = np.random.default_rng(20240817)
    samples = []
    for size in range(1, 9):
        space = make_space(size)
        samples.extend(tuple(Fn(rng.standard_normal(size), space) for _ in range(3))
                       for _ in range(1250))
    report = riesz_law_suite(samples)
    elapsed = time.perf_counter() - started
    assert len(samples) == 10_000
    assert report.all_passed(), report.failed_ids()
    assert len(report.laws) == 18
    assert elapsed < 5.0, f"law suite took {elapsed:.2f}s"
    done(1, f"18 laws on 10000 direct triples over 1-8 atoms in {elapsed:.2f}s")


# --------------------------------------------------------------------------
# 2. Partition machinery
# --------------------------------------------------------------------------

def test_criterion_02_partitions_and_simple_elements():
    rng = np.random.default_rng(20240815)
    for _ in range(1000):
        space = make_space(int(rng.integers(1, 7)))
        masks = rng.integers(0, 2, size=(int(rng.integers(1, 6)), space.n))
        idems = [Idempotent(space.indicator(m.astype(bool))) for m in masks]
        out = disjointify(idems)
        vals_in = np.stack([u.element.values for u in idems])
        vals_out = np.stack([u.element.values for u in out])
        assert np.all(vals_out <= vals_in)
        for i in range(len(out)):
            for j in range(i + 1, len(out)):
                assert not np.any(vals_out[i] * vals_out[j])
            assert np.array_equal(np.max(vals_in[: i + 1], axis=0),
                                  np.max(vals_out[: i + 1], axis=0))

    for _ in range(1000):
        space = make_space(int(rng.integers(1, 7)))
        p = label_partition(rng, space)
        q = label_partition(rng, space)
        r = refine_partitions(p, q)
        total = np.sum([c.element.values for c in r.parts], axis=0)
        assert np.array_equal(total, np.ones(space.n))
        assert len(r.parts) <= len(p.parts) * len(q.parts)
        for c in r.parts:
            cv = c.element.values
            for src in (p, q):
                hits = sum(
                    np.array_equal(cv * s.element.values, cv) for s in src.parts
                )
                assert hits == 1

    cases = 0
    for _ in range(2500):
        space = make_space(int(rng.integers(1, 7)))
        pu = label_partition(rng, space)
        pv = label_partition(rng, space)
        u = SimpleElement(
            tuple(float(rng.standard_normal()) for _ in pu.parts), pu)
        v = SimpleElement(
            tuple(float(rng.standard_normal()) for _ in pv.parts), pv)
        uv, vv = u.value().values, v.value().values
        expected = {
            "+": uv + vv, "*": uv * vv,
            "max": np.maximum(uv, vv), "min": np.minimum(uv, vv),
        }
        for op, exp in expected.items():
            got = simple_combine(u, v, op).value().values
            assert np.array_equal(got, exp), op
            cases += 1
    assert cases == 10_000
    done(2, "disjointify and refine invariants on 1000 inputs each, "
            "simple_combine exact on 10000 op cases")


# --------------------------------------------------------------------------
# 3. Pointwise-norm axioms and glueing
# --------------------------------------------------------------------------

def test_criterion_03_norm_axioms_and_glueing():
    rng = np.random.default_rng(20240816)
    structure = make_structure(3)

    def random_module():
        fibers = []
        for _ in range(3):
            d = int(rng.integers(1, 4))
            kind = rng.integers(0, 4)
            if kind == 0:
                fibers.append(Fiber(d, LpNorm(float(rng.choice([1.0, 1.5, 2.0, 3.0])))))
            elif kind == 1:
                fibers.append(Fiber(d, LpNorm(math.inf)))
            elif kind == 2:
                fibers.append(Fiber(d, GramNorm(random_spd(rng, d))))
            else:
                fibers.append(Fiber(d, ImageLpNorm(rng.standard_normal((d + 1, d)),
                                                   float(rng.choice([1.0, 2.0, 4.0])))))
        return FiberModule(structure, tuple(fibers))

    for _ in range(400):
        m = random_module()
        v, w = random_element(rng, m), random_element(rng, m)
        u = random_fn(rng, m.space)
        nv, nw = pointwise_norm(v), pointwise_norm(w)
        assert np.all(nv.values >= 0.0)
        scale = max(1.0, nv.sup_abs, nw.sup_abs)
        assert np.all(pointwise_norm(v + w).values
                      <= nv.values + nw.values + 1e-12 * scale)
        lhs = pointwise_norm(u * v)
        rhs = u.abs() * nv
        assert lhs.deviation(rhs) <= 1e-12 * max(1.0, rhs.sup_abs)
        # Faithfulness, checked through a partially zeroed element.
        mask = rng.integers(0, 2, size=3).astype(bool)
        z = ModuleElement(
            [vec if keep else np.zeros_like(vec)
             for vec, keep in zip(v.vectors, mask)], m)
        nz = pointwise_norm(z).values
        assert np.all(nz[~mask] == 0.0)
        for a in np.flatnonzero(nz == 0.0):
            assert not np.any(z.vectors[a])

    for _ in range(300):
        m = random_module()
        partition = label_partition(rng, m.space)
        elements = tuple(random_element(rng, m) for _ in partition.parts)
        glued = glue(AdmissibleFamily(partition, elements))
        # Restrict round-trip: the glued element agrees with each piece on
        # its own part, exactly.
        for part, el in zip(partition.parts, elements):
            lhs = part.element * glued
            rhs = part.element * el
            assert all(np.array_equal(x, y)
                       for x, y in zip(lhs.vectors, rhs.vectors))
        # Locality makes the glued element unique: any y with the same
        # restrictions is y = sum_n u_n y, so part order cannot matter and
        # the pieces may be edited freely outside their own parts.
        order = rng.permutation(len(partition.parts))
        permuted = AdmissibleFamily(
            FinitePartition(tuple(partition.parts[i] for i in order),
                            partition.of),
            tuple(elements[i] for i in order))
        assert all(np.array_equal(x, y)
                   for x, y in zip(glue(permuted).vectors, glued.vectors))
        noisy = tuple(
            el + ModuleElement(
                [(1.0 - part.element.values[a]) * rng.standard_normal(f.dim)
                 for a, f in enumerate(m.fibers)], m)
            for part, el in zip(partition.parts, elements)
        )
        reglued = glue(AdmissibleFamily(partition, noisy))
        assert all(np.allclose(x, y, atol=1e-12)
                   for x, y in zip(reglued.vectors, glued.vectors))

    # Scalar closed form: over scalar fibers, glueing is the lattice
    # combination sup_n (u_n v_n)+ minus sup_n (u_n v_n)-.
    for _ in range(300):
        structure1 = make_structure(int(rng.integers(1, 7)))
        m = lp_module(structure1, (1,) * structure1.space.n, p=2.0)
        partition = label_partition(rng, m.space)
        elements = tuple(random_element(rng, m) for _ in partition.parts)
        glued = glue(AdmissibleFamily(partition, elements))
        scalars = [Fn(np.concatenate(el.vectors), m.space) for el in elements]
        pieces = [part.element * f
                  for part, f in zip(partition.parts, scalars)]
        pos = m.space.zero_fn()
        neg = m.space.zero_fn()
        for piece in pieces:
            pos = pos.join(positive_part(piece))
            neg = neg.join(negative_part(piece))
        closed = pos - neg
        got = Fn(np.concatenate(glued.vectors), m.space)
        assert got.equals(closed)
    done(3, "norm axioms on 400 modules, glue round-trip with locality on "
            "300, scalar closed form exact on 300, all within 1e-12")


# --------------------------------------------------------------------------
# 4. Generated modules over graphs
# --------------------------------------------------------------------------

def test_criterion_04_generated_graph_modules():
    rng = np.random.default_rng(20240817)
    graphs = [
        Graph(("a", "b"), ((0, 1, 1.0),)),
        random_graph(rng),
    ]
    for graph in graphs:
        n = len(graph.vertices)
        for p in (1.0, 2.0, 3.0):
            _, gen = cotangent_module(graph, p)
            for _ in range(1000):
                f = 3.0 * rng.standard_normal(n)
                lhs = pointwise_norm(gen.generator_map(f))
                rhs = gen.psi.evaluate(f)
                assert lhs.deviation(rhs) <= 1e-9 * max(1.0, rhs.sup_abs)
            images = gen.generator_images()
            for a, fiber in enumerate(gen.module.fibers):
                stacked = np.stack([img.vectors[a] for img in images])
                assert matrix_rank(stacked) == fiber.dim

    # Faithful equivalence-class construction on a 3-atom graph: the class
    # of f at atom a is represented by the gradient rows M_a f with the
    # plain l^p norm, and the change of coordinates J solved on the lift's
    # image is an isometric isomorphism onto the generated fiber.
    triangle = Graph(("a", "b", "c"), ((0, 1, 2.0), (1, 2, 1.0), (0, 2, 0.5)))
    for p in (1.0, 2.0, 3.0):
        _, gen = cotangent_module(triangle, p)
        for a in range(3):
            m_a = gen.psi.matrices[a]
            lift = gen.lifts[a]
            j = np.linalg.lstsq(lift.T, m_a.T, rcond=None)[0].T
            assert matrix_rank(j) == gen.module.fibers[a].dim
            for _ in range(100):
                f = rng.standard_normal(3)
                x = lift @ f
                assert np.allclose(j @ x, m_a @ f, atol=1e-9)
                class_norm = float(np.linalg.norm(m_a @ f, ord=p))
                fiber_norm = gen.module.fibers[a].norm.norm(x)
                assert abs(class_norm - fiber_norm) <= 1e-9 * max(1.0, class_norm)
    done(4, "norm of the differential reproduces the seminorm to 1e-9 on "
            "1000 samples per graph and exponent, generator images span, "
            "3-atom class construction isometric")


# --------------------------------------------------------------------------
# 5. Universal property of generated modules
# --------------------------------------------------------------------------

def test_criterion_05_universal_factorization():
    rng = np.random.default_rng(20240818)
    for _ in range(20):
        graph = random_graph(rng)
        _, gen = cotangent_module(graph, 2.0)
        t = HomElement(
            [rng.standard_normal((f.dim, f.dim)) for f in gen.module.fibers],
            gen.module, gen.module)
        bound = hom_norm(t)

        def s(v, _t=t, _gen=gen):
            return _t.apply(_gen.generator_map(v))

        factor = universal_factor(gen, gen.module, s, bound)
        basis = np.eye(gen.psi.domain_dim)
        for f in basis:
            got = factor.apply(gen.generator_map(f))
            want = s(f)
            for x, y in zip(got.vectors, want.vectors):
                assert np.max(np.abs(x - y), initial=0.0) <= 1e-9
        for _ in range(25):
            f = 2.0 * rng.standard_normal(gen.psi.domain_dim)
            got = factor.apply(gen.generator_map(f))
            want = s(f)
            scale = max(1.0, pointwise_norm(want).sup_abs)
            for x, y in zip(got.vectors, want.vectors):
                assert np.max(np.abs(x - y), initial=0.0) <= 1e-9 * scale
        # Dominated: the factor's operator norm stays within the bound.
        fnorm = hom_norm(factor)
        assert np.all(fnorm.values <= bound.values * (1.0 + 1e-9) + 1e-9)
        # Unique: agreement on the generator images pins the hom globally.
        other = extend_from_generators(
            gen.generator_images(), [s(f) for f in basis], gen.module)
        for x, y in zip(other.matrices, factor.matrices):
            assert np.allclose(x, y, atol=1e-9)
    done(5, "20 seeded dominated maps factor through the generators with "
            "1e-9 residuals, dominated and unique")


# --------------------------------------------------------------------------
# 6. Hom norms
# --------------------------------------------------------------------------

def fibonacci_sphere(count):
    i = np.arange(count) + 0.5
    phi = np.arccos(1.0 - 2.0 * i / count)
    theta = math.pi * (1.0 + math.sqrt(5.0)) * i
    return np.stack([np.sin(phi) * np.cos(theta),
                     np.sin(phi) * np.sin(theta),
                     np.cos(phi)], axis=1)


def dense_sphere_norm(matrix, src_norm, tgt_norm, points):
    """Best ratio over a dense sphere sweep plus three local refinements."""
    dim = matrix.shape[1]

    def ratios(xs):
        return batch_norm(tgt_norm, xs @ matrix.T) / batch_norm(src_norm, xs)

    if dim == 2:
        angles = np.linspace(0.0, 2.0 * math.pi, points, endpoint=False)
        xs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    else:
        xs = fibonacci_sphere(points)
    rr = ratios(xs)
    best = float(np.max(rr))
    x0 = xs[int(np.argmax(rr))]
    window = 0.02
    for _ in range(3):
        tangent = np.linalg.svd(x0.reshape(1, -1))[2][1:]
        offsets = np.linspace(-window, window, 41)
        if dim == 2:
            cand = x0 + offsets[:, None] * tangent[0]
        else:
            aa, bb = np.meshgrid(offsets, offsets)
            cand = (x0 + aa.ravel()[:, None] * tangent[0]
                    + bb.ravel()[:, None] * tangent[1])
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        rc = ratios(cand)
        if float(np.max(rc)) > best:
            best = float(np.max(rc))
            x0 = cand[int(np.argmax(rc))]
        window /= 10.0
    return best


def test_criterion_06_hom_norms():
    rng = np.random.default_rng(20240819)
    structure = make_structure(1)
    cases = [
        (2, LpNorm(1.5), LpNorm(3.0)),
        (2, GramNorm(random_spd(rng, 2)), LpNorm(2.0)),
        (3, LpNorm(1.0), LpNorm(math.inf)),
        (3, GramNorm(random_spd(rng, 3)), GramNorm(random_spd(rng, 3))),
        (3, LpNorm(2.0), LpNorm(1.0)),
    ]
    for dim, src_norm, tgt_norm in cases:
        src = FiberModule(structure, (Fiber(dim, src_norm),))
        tgt = FiberModule(structure, (Fiber(dim, tgt_norm),))
        a = rng.standard_normal((dim, dim))
        val = hom_norm(HomElement([a], src, tgt)).values[0]
        swept = dense_sphere_norm(a, src_norm, tgt_norm, 100_000)
        assert abs(val - swept) <= 1e-4 * max(1.0, swept), (src_norm, tgt_norm)

    scalar = FiberModule(structure, (Fiber(1, LpNorm(1.0)),))
    for p in (1.0, 1.3, 2.0, 4.0, math.inf):
        src = FiberModule(structure, (Fiber(3, LpNorm(p)),))
        for _ in range(50):
            row = rng.standard_normal((1, 3))
            got = hom_norm(HomElement([row], src, scalar)).values[0]
            q = math.inf if p == 1.0 else 1.0 if p == math.inf else p / (p - 1.0)
            want = float(np.abs(row).max()) if q == math.inf \
                else float((np.abs(row) ** q).sum() ** (1.0 / q))
            assert abs(got - want) <= 1e-10 * max(1.0, want)

    big = make_structure(6)
    src = lp_module(big, (2,) * 6, p=1.0)
    tgt = FiberModule(big, tuple(Fiber(1, LpNorm(1.0)) for _ in range(6)))
    for _ in range(25):
        homs = [HomElement([rng.standard_normal((1, 2)) for _ in range(6)],
                           src, tgt) for _ in range(3)]
        labels = rng.integers(0, 3, size=6)
        total = HomElement.zero(src, tgt)
        expected = big.space.zero_fn()
        for k, t in enumerate(homs):
            u = big.space.indicator(labels == k)
            total = total + u * t
            expected = expected + u * hom_norm(t)
        assert hom_norm(total).equals(expected)
    done(6, "dense 100000-point sphere sweeps within 1e-4 on dims 2-3, "
            "lp-to-scalar closed forms at 1e-10, glueing exact on 25 "
            "partitions")


# --------------------------------------------------------------------------
# 7. Hahn-Banach and norming functionals
# --------------------------------------------------------------------------

def test_criterion_07_hahn_banach_and_norming():
    rng = np.random.default_rng(20240820)
    structure = make_structure(2)
    norm_kinds = [LpNorm(1.0), LpNorm(1.5), LpNorm(2.0), LpNorm(math.inf),
                  GramNorm(random_spd(rng, 3))]
    for norm in norm_kinds:
        m = FiberModule(structure, (Fiber(3, norm), Fiber(3, norm)))
        bases = tuple(np.linalg.qr(rng.standard_normal((3, 2)))[0].T
                      for _ in range(2))
        sub = Submodule(m, bases)
        gauge = Fn(rng.uniform(0.5, 2.0, size=2), m.space)
        f_rows = []
        for a in range(2):
            row = rng.standard_normal(3)
            row *= 0.9 * gauge.values[a] / dual_vector_norm(norm, row)
            f_rows.append(np.array([row @ b for b in bases[a]]))
        ext = hahn_banach_extend(sub, f_rows, gauge)
        for a in range(2):
            row = ext.functional.matrices[a][0]
            assert_extension(norm, bases[a], f_rows[a], gauge.values[a], row)
            for b, val in zip(bases[a], f_rows[a]):
                assert abs(row @ b - val) <= 1e-9 * max(1.0, abs(val))
            xs = rng.standard_normal((1000, 3))
            assert np.all(np.abs(xs @ row)
                          <= gauge.values[a] * batch_norm(norm, xs) + 1e-8)

        for _ in range(100):
            v = random_element(rng, m)
            omega = norming_functional(v)
            nv = pointwise_norm(v)
            assert pairing(omega, v).deviation(nv) <= 1e-9 * max(1.0, nv.sup_abs)
            chi = (nv.values != 0.0).astype(float)
            assert np.max(np.abs(hom_norm(omega).values - chi)) <= 1e-9
    done(7, "extensions restrict exactly, have the least dual norm and stay "
            "dominated on 1000 samples per fiber within 1e-8, norming functionals at 1e-9 for four lp "
            "kinds plus gram")


# --------------------------------------------------------------------------
# 8. Bidual embedding
# --------------------------------------------------------------------------

def test_criterion_08_bidual_embedding():
    rng = np.random.default_rng(20240821)
    structure = make_structure(3)
    mods = [lp_module(structure, (2, 3, 1), p=p)
            for p in (1.0, 1.5, 2.0, math.inf)]
    mods.append(gram_module(structure, [random_spd(rng, d) for d in (2, 3, 1)]))
    for m in mods:
        j = bidual_embed(m)
        for _ in range(200):
            v = random_element(rng, m)
            nv = pointwise_norm(v)
            assert pointwise_norm(j.apply(v)).deviation(nv) \
                <= 1e-9 * max(1.0, nv.sup_abs)
        assert is_reflexive(m)
        for _ in range(20):
            target = ModuleElement(
                [rng.standard_normal(f.dim) for f in j.target.fibers], j.target)
            pre = ModuleElement(
                [np.linalg.solve(mat, y) if y.size else y.copy()
                 for mat, y in zip(j.matrices, target.vectors)], m)
            for x, y in zip(j.apply(pre).vectors, target.vectors):
                assert np.allclose(x, y, atol=1e-9)

    h = HilbertModule(gram_module(structure, [random_spd(rng, d) for d in (2, 3, 1)]))
    assert hilbert_reflexivity_check(h)
    done(8, "bidual embedding isometric at 1e-9 with surjectivity witnesses "
            "on five module kinds, Hilbert J matches the composed Riesz "
            "maps at 1e-10")


# --------------------------------------------------------------------------
# 9. Hilbert toolbox
# --------------------------------------------------------------------------

def grid_2d(lo, hi, side):
    gx, gy = np.meshgrid(np.linspace(lo[0], hi[0], side),
                         np.linspace(lo[1], hi[1], side))
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


def staged_box_min(v, gnorm, lo, hi, feasible=None):
    """Nearest feasible grid point by a coarse pass plus shrinking windows.

    Any feasible z satisfies |z - v|_G^2 >= dist^2 + |z - P|_G^2, so each
    stage winner sits within a gram ball around the true projection whose
    radius shrinks with the cell size; factor-4 window shrinking keeps every
    later window inside the coverage bound.  9600 points total.
    """
    best = None
    value = math.inf
    pools = []
    windows = (None, 0.2, 0.05, 0.0125, 3.1e-3, 7.8e-4)
    for w in windows:
        if w is None:
            pts = grid_2d(lo, hi, 40)
        else:
            pts = grid_2d(np.maximum(lo, best - w), np.minimum(hi, best + w), 40)
        if feasible is not None:
            pts = pts[feasible(pts)]
        if best is not None:
            pts = np.vstack([pts, best[None, :]])
        vals = batch_norm(gnorm, pts - v)
        k = int(np.argmin(vals))
        if float(vals[k]) < value:
            value = float(vals[k])
            best = pts[k]
        pools.append(pts)
    return value, np.vstack(pools)


def ball_grid(center, radius, gram, boundary, interior_side):
    """Gram-parametrized circle plus a small interior patch, all feasible."""
    w, q = np.linalg.eigh(gram)
    inv_sqrt = q @ np.diag(1.0 / np.sqrt(w)) @ q.T
    angles = np.linspace(0.0, 2.0 * math.pi, boundary, endpoint=False)
    circle = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    ring = center + radius * circle @ inv_sqrt.T
    radii = np.linspace(0.0, radius, interior_side)
    inner_angles = np.linspace(0.0, 2.0 * math.pi, interior_side, endpoint=False)
    rr, tt = np.meshgrid(radii, inner_angles)
    disc = np.stack([rr.ravel() * np.cos(tt.ravel()),
                     rr.ravel() * np.sin(tt.ravel())], axis=1)
    return np.vstack([ring, center + disc @ inv_sqrt.T])


def test_criterion_09_hilbert_toolbox():
    rng = np.random.default_rng(20240822)
    structure = make_structure(1)

    # Parallelogram rule on inner-product fibers, and the l1 witness where
    # both squared sums are exact integers: 8 against 4.
    for _ in range(100):
        g = gram_module(structure, [random_spd(rng, 3)])
        v, w = random_element(rng, g), random_element(rng, g)
        scale = max(1.0, pointwise_norm(v).sup_abs, pointwise_norm(w).sup_abs)
        assert abs(parallelogram_defect(v, w).values[0]) <= 1e-12 * scale * scale
    m1 = lp_module(structure, (2,), p=1.0)
    v1 = ModuleElement([[1.0, 0.0]], m1)
    w1 = ModuleElement([[0.0, 1.0]], m1)
    lhs = pointwise_norm(v1 + w1).values[0] ** 2 \
        + pointwise_norm(v1 - w1).values[0] ** 2
    rhs = 2.0 * pointwise_norm(v1).values[0] ** 2 \
        + 2.0 * pointwise_norm(w1).values[0] ** 2
    assert lhs == 8.0 and rhs == 4.0

    # Projections against 10^4-point feasible grids.
    box_lo, box_hi = -np.ones(2), np.ones(2)
    ball_c, ball_r = np.array([0.5, -0.25]), 1.25
    for _ in range(5):
        gram = random_spd(rng, 2)
        gnorm = GramNorm(gram)
        module = gram_module(structure, [gram])
        w_eig, q_eig = np.linalg.eigh(gram)
        inv_sqrt = q_eig @ np.diag(1.0 / np.sqrt(w_eig)) @ q_eig.T

        def check(vec, convex, value, pool):
            v_el = ModuleElement([vec], module)
            p = project_convex(v_el, convex).vectors[0]
            dist = gnorm.norm(vec - p)
            assert dist <= value + 1e-9
            assert value - dist <= 1e-3 * max(1.0, value)
            # First-order optimality as a variational inequality over the
            # same feasible sample.
            zs = pool[:: max(1, len(pool) // 500)]
            inner = (vec - p) @ gram @ (zs - p).T
            norms = batch_norm(gnorm, zs - p)
            assert np.all(inner <= 1e-9 * np.maximum(1.0, dist * norms))
            return p

        vec = 2.5 * rng.standard_normal(2) + 1.0
        value, pool = staged_box_min(vec, gnorm, box_lo, box_hi)
        check(vec, ConvexSet((BoxSet(box_lo, box_hi),)), value, pool)

        direction = rng.standard_normal(2)
        direction /= np.linalg.norm(direction)
        ball_v = ball_c + 2.0 * ball_r * (inv_sqrt @ direction)
        pool = ball_grid(ball_c, ball_r, gram, boundary=9600, interior_side=20)
        value = float(np.min(batch_norm(gnorm, pool - ball_v)))
        check(ball_v, ConvexSet((BallSet(ball_c, ball_r),)), value, pool)

        line_dir = rng.standard_normal(2)
        line_dir /= np.linalg.norm(line_dir)
        vec = 2.5 * rng.standard_normal(2) + 1.0
        ts = np.linspace(-40.0, 40.0, 5000)
        coarse = ts[:, None] * line_dir
        t0 = ts[int(np.argmin(batch_norm(gnorm, coarse - vec)))]
        fine = np.linspace(t0 - 0.05, t0 + 0.05, 5000)[:, None] * line_dir
        pool = np.vstack([coarse, fine])
        value = float(np.min(batch_norm(gnorm, pool - vec)))
        check(vec, ConvexSet((SubspaceSet(line_dir.reshape(1, 2)),)), value, pool)

        vec = 2.5 * rng.standard_normal(2) + np.array([1.5, 1.5])
        value, pool = staged_box_min(
            vec, gnorm, box_lo, box_hi,
            feasible=lambda zs: batch_norm(gnorm, zs - ball_c) <= ball_r + 1e-12)
        convex = ConvexSet((IntersectionSet((BoxSet(box_lo, box_hi),
                                             BallSet(ball_c, ball_r))),))
        check(vec, convex, value, pool)

        # Pythagoras through the subspace projection.
        line = ConvexSet((SubspaceSet(line_dir.reshape(1, 2)),))
        for _ in range(20):
            v_el = ModuleElement([2.0 * rng.standard_normal(2)], module)
            proj = project_convex(v_el, line)
            nv = pointwise_norm(v_el).values[0] ** 2
            npart = pointwise_norm(proj).values[0] ** 2
            nres = pointwise_norm(v_el - proj).values[0] ** 2
            assert abs(nv - (npart + nres)) <= 1e-9 * max(1.0, nv)

    # Riesz map isometric and invertible.
    grams = [random_spd(rng, d) for d in (2, 3, 1)]
    h = HilbertModule(gram_module(make_structure(3), grams))
    for _ in range(200):
        w = random_element(rng, h.module)
        eta = riesz_map(h, w)
        nw = pointwise_norm(w)
        assert pointwise_norm(eta).deviation(nw) <= 1e-10 * max(1.0, nw.sup_abs)
        back = riesz_inverse(h, eta)
        for x, y in zip(back.vectors, w.vectors):
            assert np.max(np.abs(x - y), initial=0.0) <= 1e-10 * max(1.0, nw.sup_abs)
    done(9, "parallelogram exact with the 8-vs-4 l1 witness, projections "
            "within 1e-3 of 10000-point feasible grids with first-order "
            "conditions at 1e-9, Pythagoras 1e-9, Riesz 1e-10")


# --------------------------------------------------------------------------
# 10. Pushforward functoriality and dual embedding
# --------------------------------------------------------------------------

def test_criterion_10_pushforward():
    rng = np.random.default_rng(20240823)
    for _ in range(20):
        na, nb, nc = (int(rng.integers(1, 5)) for _ in range(3))
        a, b, c = make_structure(na), make_structure(nb), make_structure(nc)
        dims = tuple(int(d) for d in rng.integers(0, 4, size=na))
        m = lp_module(a, dims, p=2.0)
        phi = StructureHom(a, b, tuple(int(i) for i in rng.integers(0, na, size=nb)))
        chi = StructureHom(b, c, tuple(int(i) for i in rng.integers(0, nb, size=nc)))
        pm1, pf1 = pushforward_module(phi, m)
        pm2, pf2 = pushforward_module(chi, pm1)
        pmc, pfc = pushforward_module(chi.compose(phi), m)
        assert pm2.fibers == pmc.fibers
        v = random_element(rng, m)
        assert pointwise_norm(pf1.apply(v)).equals(phi.apply(pointwise_norm(v)))
        lhs = pf2.apply(pf1.apply(v))
        rhs = pfc.apply(v)
        assert all(np.array_equal(x, y) for x, y in zip(lhs.vectors, rhs.vectors))
        pid, pfid = pushforward_module(StructureHom.identity(a), m)
        assert pid.fibers == m.fibers
        assert all(np.array_equal(x, y)
                   for x, y in zip(pfid.apply(v).vectors, v.vectors))

    src = make_structure(2)
    tgt = make_structure(4)
    phi = StructureHom(src, tgt, (1, 0, 1, 0))
    system = DualSystem.default(src)
    for p in (1.0, 2.0, math.inf):
        m = lp_module(src, (2, 3), p=p)
        eta = dual_embed(phi, m)
        _, pf = pushforward_module(phi, m)
        for _ in range(50):
            w = random_element(rng, eta.source)
            nw = pointwise_norm(w)
            assert pointwise_norm(eta.apply(w)).deviation(nw) \
                <= 1e-9 * max(1.0, nw.sup_abs)
        for _ in range(20):
            v = random_element(rng, m)
            rows = [rng.standard_normal(m.fibers[a].dim) for a in range(2)]
            omega = dual_element(m, rows, system)
            pushed = ModuleElement([rows[a] for a in phi.atom_map], eta.source)
            lhs = np.array([
                float(x @ y) for x, y in
                zip(eta.apply(pushed).vectors, pf.apply(v).vectors)
            ])
            rhs = phi.apply(pairing(omega, v)).values
            assert np.allclose(lhs, rhs, atol=1e-12)
    done(10, "pushforward copies norms exactly, functor laws exact on 20 "
             "seeded cases, dual embedding isometric at 1e-9 and pairing "
             "compatible")


# --------------------------------------------------------------------------
# 11. Dimensional decomposition
# --------------------------------------------------------------------------

def test_criterion_11_dimensional_decomposition():
    rng = np.random.default_rng(20240824)
    dims = (3, 1, 0, 2, 1, 3, 2, 2, 0, 1)
    structure = make_structure(10)
    module = lp_module(structure, dims, p=2.0)
    blocks = dimensional_decomposition(module)

    total = np.sum([idem.element.values for _, idem in blocks], axis=0)
    assert np.array_equal(total, np.ones(10))
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            assert not np.any(blocks[i][1].element.values
                              * blocks[j][1].element.values)

    # Each block carries an independent generating family of its size.
    for size, idem in blocks:
        support = np.flatnonzero(idem.element.values)
        family = [
            ModuleElement(
                [np.eye(dims[a])[k] if a in support else np.zeros(dims[a])
                 for a in range(10)], module)
            for k in range(size)
        ]
        assert independence_check(family, idem)
        for a in support:
            assert dims[a] == size
            if size:
                stacked = np.stack([el.vectors[a] for el in family])
                assert matrix_rank(stacked) == size

    # Independence and generation per atom and family size, established
    # through the library on single-atom idempotents; both predicates are
    # fiberwise, so the verdict on any idempotent is the conjunction over
    # its atoms.  A seeded random family realizes the generic ranks.
    max_k = max(dims) + 1
    independent = {}
    generating = {}
    for a in range(10):
        atom = Idempotent(structure.space.indicator(np.arange(10) == a))
        for k in range(max_k + 1):
            if k == 0:
                # The empty family is independent and generates only the
                # zero fiber.
                independent[a, k] = True
                generating[a, k] = dims[a] == 0
                continue
            family = [random_element(rng, module) for _ in range(k)]
            independent[a, k] = independence_check(family, atom)
            stacked = np.stack([el.vectors[a] for el in family])
            generating[a, k] = matrix_rank(stacked) == dims[a]

    # Brute force over all 1023 nonzero idempotents of the 10-atom algebra.
    for mask in range(1, 2 ** 10):
        support = [a for a in range(10) if (mask >> a) & 1]
        admissible = {
            k for k in range(max_k + 1)
            if all(independent[a, k] and generating[a, k] for a in support)
        }
        on_support = {dims[a] for a in support}
        expected = on_support if len(on_support) == 1 else set()
        assert admissible == expected, (mask, admissible, expected)
    done(11, "decomposition partitions the unit with generating families of "
             "the declared sizes, and none of the 1023 idempotents admits a "
             "basis of any other size")


# --------------------------------------------------------------------------
# 12. CLI determinism and golden files
# --------------------------------------------------------------------------

def test_criterion_12_cli_determinism(capsys):
    commands = {
        "laws.json": ["laws", "--structure", str(DATA / "structure_l2.json"),
                      "--samples", "10000", "--seed", "7"],
        "cotangent.json": ["cotangent", "--graph", str(DATA / "path2.json"),
                           "--p", "2", "--fn", "[0,1]"],
        "decompose.json": ["decompose", "--module", str(DATA / "module_221.json")],
    }
    for golden_name, argv in commands.items():
        code1 = cli_main(list(argv))
        out1 = capsys.readouterr().out
        code2 = cli_main(list(argv))
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1 == (GOLDEN / golden_name).read_text()
        json.loads(out1)
    done(12, "three documented commands byte-identical across two runs and "
             "against their golden files")
