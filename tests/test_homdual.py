"""Hom modules, operator norms, duals, Hahn-Banach, bidual embedding."""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.linalg import null_space
from scipy.optimize import linprog

from rieszmod import (
    DimensionMismatch,
    DominationViolated,
    DualSystem,
    Fiber,
    FiberModule,
    Fn,
    GramNorm,
    HomElement,
    ImageLpNorm,
    InconsistentGenerators,
    InputError,
    Kind,
    LpNorm,
    ModuleElement,
    ModuleMismatch,
    SolverFailed,
    StructureHom,
    Submodule,
    UnsupportedHom,
    bidual_embed,
    dual_element,
    dual_module,
    dual_vector_norm,
    extend_from_generators,
    hahn_banach_extend,
    hom_norm,
    is_reflexive,
    kernel,
    norming_functional,
    pairing,
    pointwise_norm,
    pushforward_hom,
    pushforward_module,
    z_module,
)
from helpers import (
    assert_extension,
    count_solver_calls,
    gram_module,
    lp_module,
    make_space,
    make_structure,
    primal_lp_distance,
    random_element,
    random_fn,
    random_spd,
    reference_need,
    sequential_hom_apply,
)


def scalar_target(structure, p=1.0):
    return FiberModule(structure, tuple(Fiber(1, LpNorm(p)) for _ in range(structure.space.n)))


# --------------------------------------------------------------------------
# HomElement mechanics
# --------------------------------------------------------------------------

def test_hom_element_apply_compose_identity():
    m = lp_module(make_structure(2), (2, 2))
    t = HomElement([np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(2)], m, m)
    v = ModuleElement([[1.0, 1.0], [3.0, -1.0]], m)
    assert [x.tolist() for x in t.apply(v).vectors] == [[3.0, 1.0], [3.0, -1.0]]
    ident = HomElement.identity(m)
    assert all(np.array_equal(a, b) for a, b in
               zip(ident.compose(t).matrices, t.matrices))
    assert all(np.array_equal(a, b) for a, b in
               zip(t.compose(ident).matrices, t.matrices))
    two = t.compose(t)
    assert np.array_equal(two.matrices[0], t.matrices[0] @ t.matrices[0])


def test_hom_element_scalar_action_and_json():
    m = lp_module(make_structure(2), (1, 1))
    t = HomElement([np.array([[2.0]]), np.array([[3.0]])], m, m)
    u = Fn([0.5, -1.0], m.space)
    scaled = u * t
    assert scaled.matrices[0][0, 0] == 1.0
    assert scaled.matrices[1][0, 0] == -3.0
    back = HomElement.from_json(t.to_json(), m, m)
    assert all(np.array_equal(a, b) for a, b in zip(back.matrices, t.matrices))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_hom_element_from_json_refuses_non_finite_entries(bad):
    m = lp_module(make_structure(2), (1, 2))
    obj = {"matrices": [[[1.0]], [[0.0, 1.0], [1.0, bad]]]}
    with pytest.raises(InputError) as info:
        HomElement.from_json(obj, m, m, where="$.hom")
    assert info.value.path == "$.hom.matrices[1][1][1]"


def test_hom_element_shape_and_space_checks():
    m = lp_module(make_structure(2), (2, 1))
    with pytest.raises(Exception):
        HomElement([np.eye(2)], m, m)
    other = lp_module(make_structure(3), (1, 1, 1))
    with pytest.raises(ModuleMismatch):
        HomElement([np.eye(1)] * 3, other, m)
    with pytest.raises(DimensionMismatch, match=r"atom 1 has shape \(2, 1\), expected \(1, 1\)"):
        HomElement([np.eye(2), np.ones((2, 1))], m, m)
    # An empty matrix of any shape fits an empty fiber matrix, and only that.
    empty = lp_module(make_structure(2), (0, 2))
    assert HomElement([np.zeros((0, 3)), np.eye(2)], empty, empty).flat.tolist() == [
        1.0, 0.0, 0.0, 1.0]
    with pytest.raises(DimensionMismatch, match="atom 1 has shape"):
        HomElement([np.zeros((0, 0)), np.zeros((0, 2))], empty, empty)


def test_flat_built_homs_check_spaces_and_shapes():
    # Every hom built from a flat vector gets the checks of the constructor.
    structure = make_structure(3)
    m = lp_module(structure, (2, 1, 0))
    elsewhere = DualSystem.default(make_structure(3, weights=[2.0, 1.0, 1.0]))
    with pytest.raises(ModuleMismatch):
        bidual_embed(m, elsewhere)
    with pytest.raises(ModuleMismatch):
        is_reflexive(m, elsewhere)
    with pytest.raises(ModuleMismatch):
        dual_element(m, [[1.0, 0.0], [1.0], []], elsewhere)
    with pytest.raises(ModuleMismatch):
        norming_functional(ModuleElement([[1.0, 0.0], [1.0], []], m), elsewhere)
    with pytest.raises(DimensionMismatch, match=r"atom 1 has shape \(1, 2\), expected \(1, 1\)"):
        dual_element(m, [[1.0, 0.0], [1.0, 2.0], []], DualSystem.default(structure))
    # Pushing a hom forward gathers its matrices; the modules must fit them.
    t = HomElement([np.eye(2), np.eye(1), np.zeros((0, 0))], m, m)
    phi = StructureHom(structure, make_structure(2), (1, 0))
    pm, _ = pushforward_module(phi, m)
    moved = pushforward_hom(phi, t, pm, pm)
    assert [x.tolist() for x in moved.matrices] == [[[1.0]], [[1.0, 0.0], [0.0, 1.0]]]
    with pytest.raises(DimensionMismatch, match=r"atom 0 has shape \(1, 1\), expected \(1, 2\)"):
        pushforward_hom(phi, t, lp_module(make_structure(2), (2, 2)), pm)
    with pytest.raises(ModuleMismatch):
        pushforward_hom(phi, t, pm, lp_module(make_structure(2, weights=[1.0, 3.0]), (1, 2)))


def _mixed_fibers(rng, n):
    """Fibers of dimension 0-5 with lp, gram and image-lp norms."""
    fibers = []
    for a in range(n):
        d = int(rng.integers(0, 6))
        kind = a % 4
        if kind == 0 and d:
            fibers.append(Fiber(d, GramNorm(random_spd(rng, d))))
        elif kind == 1 and d:
            fibers.append(Fiber(d, ImageLpNorm(rng.standard_normal((d + 1, d)), 1.0)))
        else:
            fibers.append(Fiber(d, LpNorm((1.0, 2.0, 3.0, math.inf)[a % 4])))
    return fibers


def test_flat_hom_apply_matches_the_per_atom_reference():
    rng = np.random.default_rng(71)
    source = FiberModule(make_structure(12), tuple(_mixed_fibers(rng, 12)))
    target_structure = make_structure(15)
    # Atom 4 is read three times, atoms 9-11 never.
    amap = (0, 4, 4, 1, 2, 3, 4, 5, 6, 7, 8, 0, 3, 2, 1)
    phi = StructureHom(source.structure, target_structure, amap)
    target = FiberModule(target_structure, tuple(_mixed_fibers(rng, 15)))
    mats = [rng.standard_normal((target.fibers[t].dim, source.fibers[amap[t]].dim))
            for t in range(15)]
    h = HomElement(mats, source, target, phi)
    for m, want in zip(h.matrices, mats):
        assert m.tobytes() == want.tobytes() and m.shape == want.shape
        assert not m.flags.writeable and (m.size == 0 or np.shares_memory(m, h.flat))
    for _ in range(5):
        v = random_element(rng, source)
        got = h.apply(v)
        for t, (vec, ref) in enumerate(zip(got.vectors, sequential_hom_apply(h, v))):
            assert vec.tobytes() == ref.tobytes()
            assert np.allclose(vec, mats[t] @ v.vectors[amap[t]], rtol=0.0, atol=1e-12)
    # Same-space arithmetic acts on the flat vector with the per-atom bits.
    same = FiberModule(target_structure, tuple(_mixed_fibers(rng, 15)))
    mats2, mats3 = ([rng.standard_normal((target.fibers[t].dim, same.fibers[t].dim))
                     for t in range(15)] for _ in range(2))
    a, b = HomElement(mats2, same, target), HomElement(mats3, same, target)
    u = random_fn(rng, target_structure.space)
    for got, want in (
        (a + b, [x + y for x, y in zip(mats2, mats3)]),
        (a - b, [x - y for x, y in zip(mats2, mats3)]),
        (-a, [-x for x in mats2]),
        (a.scale(0.3), [x * 0.3 for x in mats2]),
        (u * a, [c * x for c, x in zip(u.values, mats2)]),
    ):
        assert [m.tobytes() for m in got.matrices] == [m.tobytes() for m in want]
    mid = FiberModule(target_structure, tuple(_mixed_fibers(rng, 15)))
    inner = HomElement([rng.standard_normal((same.fibers[t].dim, mid.fibers[t].dim))
                        for t in range(15)], mid, same)
    for m, x, y in zip(a.compose(inner).matrices, a.matrices, inner.matrices):
        assert m.shape == (x.shape[0], y.shape[1])
        assert np.allclose(m, x @ y, rtol=0.0, atol=1e-12)


def test_pushforward_keeps_pointwise_norms_exactly():
    rng = np.random.default_rng(72)
    m = FiberModule(make_structure(40), tuple(_mixed_fibers(rng, 40)))
    amap = tuple(int(i) for i in rng.integers(0, 40, 55))
    phi = StructureHom(m.structure, make_structure(55), amap)
    pm, pf = pushforward_module(phi, m)
    assert all(np.array_equal(x, np.eye(x.shape[0])) for x in pf.matrices)
    for _ in range(5):
        v = random_element(rng, m)
        assert np.array_equal(pointwise_norm(pf.apply(v)).values,
                              phi.apply(pointwise_norm(v)).values)


# --------------------------------------------------------------------------
# Operator norms
# --------------------------------------------------------------------------

def test_hom_norm_scalar_target_oracles():
    structure = make_structure(1)
    m2 = lp_module(structure, (2,))
    t = HomElement([np.array([[3.0, 4.0]])], m2, scalar_target(structure))
    assert abs(hom_norm(t).values[0] - 5.0) <= 1e-12

    m1 = lp_module(structure, (2,), p=1.0)
    t = HomElement([np.array([[3.0, -4.0]])], m1, scalar_target(structure))
    assert abs(hom_norm(t).values[0] - 4.0) <= 1e-12

    mi = lp_module(structure, (2,), p=math.inf)
    t = HomElement([np.array([[3.0, 4.0]])], mi, scalar_target(structure))
    assert abs(hom_norm(t).values[0] - 7.0) <= 1e-12

    zero = HomElement.zero(m2, scalar_target(structure))
    assert hom_norm(zero).values.tolist() == [0.0]


def test_hom_norm_gram_pair_is_spectral():
    rng = np.random.default_rng(83)
    structure = make_structure(1)
    g_src, g_tgt = random_spd(rng, 3), random_spd(rng, 3)
    src = gram_module(structure, [g_src])
    tgt = gram_module(structure, [g_tgt])
    a = rng.standard_normal((3, 3))
    t = HomElement([a], src, tgt)
    # Independent oracle: largest singular value of T_tgt^(1/2) A T_src^(-1/2).
    def sqrtm(g):
        w, q = np.linalg.eigh(g)
        return q @ np.diag(np.sqrt(w)) @ q.T
    oracle = np.linalg.norm(
        sqrtm(g_tgt) @ a @ np.linalg.inv(sqrtm(g_src)), ord=2
    )
    assert abs(hom_norm(t).values[0] - oracle) <= 1e-9 * max(1.0, oracle)


def sphere_sweep_norm(t_matrix, src_norm, tgt_norm, points=20_001):
    """Dense 2-d unit-sphere sampling oracle for operator norms."""
    angles = np.linspace(0.0, 2.0 * math.pi, points)
    best = 0.0
    for theta in angles:
        x = np.array([math.cos(theta), math.sin(theta)])
        nx = src_norm.norm(x)
        if nx > 0:
            best = max(best, tgt_norm.norm(t_matrix @ x) / nx)
    return best


def test_hom_norm_matches_dense_sphere_sampling():
    rng = np.random.default_rng(89)
    structure = make_structure(1)
    norm_pool = [LpNorm(1.0), LpNorm(1.5), LpNorm(2.0), LpNorm(3.0),
                 LpNorm(math.inf), GramNorm(random_spd(rng, 2))]
    for src_norm in norm_pool:
        for tgt_norm in norm_pool[:4]:
            src = FiberModule(structure, (Fiber(2, src_norm),))
            tgt = FiberModule(structure, (Fiber(2, tgt_norm),))
            a = rng.standard_normal((2, 2))
            val = hom_norm(HomElement([a], src, tgt)).values[0]
            swept = sphere_sweep_norm(a, src_norm, tgt_norm)
            assert abs(val - swept) <= 1e-4 * max(1.0, swept)


def test_hom_norm_bound_and_attainment():
    rng = np.random.default_rng(97)
    structure = make_structure(2)
    src = lp_module(structure, (2, 2), p=1.5)
    tgt = lp_module(structure, (2, 2), p=3.0)
    t = HomElement([rng.standard_normal((2, 2)) for _ in range(2)], src, tgt)
    # Non-scalar lp pairs go through the power method.
    bound = hom_norm(t)
    best = np.zeros(2)
    for theta in np.linspace(0.0, 2.0 * math.pi, 20_001):
        v = ModuleElement([[math.cos(theta), math.sin(theta)]] * 2, src)
        ratio = pointwise_norm(t.apply(v)).values / pointwise_norm(v).values
        best = np.maximum(best, ratio)
        assert bool(np.all(ratio <= bound.values * (1.0 + 1e-4)))
    assert bool(np.all(best >= bound.values * (1.0 - 1e-4)))


def one_atom_hom_norm(a, src_norm, tgt_norm):
    structure = make_structure(1)
    src = FiberModule(structure, (Fiber(a.shape[1], src_norm),))
    tgt = FiberModule(structure, (Fiber(a.shape[0], tgt_norm),))
    return float(hom_norm(HomElement([a], src, tgt)).values[0])


def lp_sphere_sample_max(p, q, a, points=200_000):
    """max of |A x|_q over a fixed sample of the l_p unit sphere: a lower bound."""
    x = np.random.default_rng(0).standard_normal((points, a.shape[1]))
    x /= np.linalg.norm(x, p, axis=1)[:, None]
    return float(np.max(np.linalg.norm(x @ a.T, q, axis=1)))


def test_power_method_reaches_the_l3_to_l1_5_norm():
    # The fixed benchmark matrix on which the projected-subgradient ascent
    # stopped 0.67% short.
    a = np.random.default_rng(37).standard_normal((4, 4))
    got = one_atom_hom_norm(a, LpNorm(3.0), LpNorm(1.5))
    holder = np.linalg.norm(np.linalg.norm(a, 1.5, axis=0), 1.5)
    assert got >= lp_sphere_sample_max(3.0, 1.5, a) * (1.0 - 1e-4)
    assert got <= holder * (1.0 + 1e-12)


def test_l1_target_norm_is_exact_where_the_ascent_fell_short():
    a = np.random.default_rng(18).standard_normal((8, 6))
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=8)))
    exact = float(np.max(np.linalg.norm(signs @ a, axis=1)))
    got = one_atom_hom_norm(a, LpNorm(2.0), LpNorm(1.0))
    assert abs(got - exact) <= 1e-12 * exact


def test_l1_and_linf_target_closed_forms_match_brute_force():
    rng = np.random.default_rng(211)
    g = random_spd(rng, 3)
    sources = [(LpNorm(1.5), lambda w: np.linalg.norm(w, 3.0, axis=1)),
               (LpNorm(3.0), lambda w: np.linalg.norm(w, 1.5, axis=1)),
               (LpNorm(2.0), lambda w: np.linalg.norm(w, axis=1)),
               (GramNorm(g), lambda w: np.sqrt(np.sum(w * np.linalg.solve(g, w.T).T, axis=1)))]
    for m in range(1, 17):
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=m)))
        for src_norm, dual in sources:
            a = rng.standard_normal((m, 3))
            by_rows = float(np.max(dual(a)))
            by_signs = float(np.max(dual(signs @ a)))
            for q, want in ((math.inf, by_rows), (1.0, by_signs)):
                got = one_atom_hom_norm(a, src_norm, LpNorm(q))
                assert abs(got - want) <= 1e-12 * want, (m, src_norm, q)


def norms_of_rows(norm, x):
    if isinstance(norm, GramNorm):
        return np.sqrt(np.sum(x * (x @ norm.gram), axis=1))
    if isinstance(norm, ImageLpNorm):
        x = x @ norm.matrix.T
    return np.linalg.norm(x, norm.p, axis=1)


@pytest.mark.parametrize("p", [1.0, 3.0, math.inf])
def test_power_method_on_image_lp_sources_matches_an_angle_sweep(p):
    rng = np.random.default_rng(223)
    angles = np.linspace(0.0, 2.0 * math.pi, 200_001)
    x = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    for tgt_norm in (LpNorm(1.0), LpNorm(1.5), LpNorm(3.0), GramNorm(random_spd(rng, 2)),
                     ImageLpNorm(rng.standard_normal((3, 2)), 1.5)):
        src_norm = ImageLpNorm(rng.standard_normal((3, 2)), p)
        a = rng.standard_normal((2, 2))
        swept = float(np.max(norms_of_rows(tgt_norm, x @ a.T) / norms_of_rows(src_norm, x)))
        got = one_atom_hom_norm(a, src_norm, tgt_norm)
        # The value is attained, so it cannot exceed the true norm; the sweep
        # is within (2 pi / 2e5) of it in angle.
        assert swept * (1.0 - 1e-9) <= got <= swept * (1.0 + 1e-4), (p, tgt_norm)


def test_power_method_value_does_not_depend_on_the_group():
    rng = np.random.default_rng(227)
    pairs = [(LpNorm(3.0), LpNorm(1.5)), (GramNorm(random_spd(rng, 4)), LpNorm(3.0)),
             (ImageLpNorm(rng.standard_normal((5, 4)), 3.0), LpNorm(1.5))]
    structure = make_structure(50)
    for src_norm, tgt_norm in pairs:
        mats = [rng.standard_normal((4, 4)) for _ in range(50)]
        src = FiberModule(structure, (Fiber(4, src_norm),) * 50)
        tgt = FiberModule(structure, (Fiber(4, tgt_norm),) * 50)
        grouped = hom_norm(HomElement(mats, src, tgt)).values
        for a, m in enumerate(mats):
            assert one_atom_hom_norm(m, src_norm, tgt_norm) == grouped[a], (src_norm, a)


def test_vertex_maximum_value_does_not_depend_on_the_group():
    # The vertex closed forms: l1 and l-infinity sources (target norms of
    # A s over the source ball's vertices), l-infinity and l1 targets
    # (source dual norms of A^T s over the dual ball's vertices).
    rng = np.random.default_rng(233)
    pairs = [(LpNorm(1.0), LpNorm(3.0)), (LpNorm(1.0), GramNorm(random_spd(rng, 4))),
             (LpNorm(math.inf), LpNorm(3.0)), (LpNorm(math.inf), GramNorm(random_spd(rng, 4))),
             (LpNorm(math.inf), ImageLpNorm(rng.standard_normal((5, 4)), 2.0)),
             (LpNorm(3.0), LpNorm(math.inf)), (GramNorm(random_spd(rng, 4)), LpNorm(math.inf)),
             (LpNorm(3.0), LpNorm(1.0)), (GramNorm(random_spd(rng, 4)), LpNorm(1.0)),
             (LpNorm(2.0), ImageLpNorm(rng.standard_normal((5, 4)), 1.0))]
    structure = make_structure(50)
    for src_norm, tgt_norm in pairs:
        mats = [rng.standard_normal((4, 4)) for _ in range(50)]
        src = FiberModule(structure, (Fiber(4, src_norm),) * 50)
        tgt = FiberModule(structure, (Fiber(4, tgt_norm),) * 50)
        grouped = hom_norm(HomElement(mats, src, tgt)).values
        for a, m in enumerate(mats):
            assert one_atom_hom_norm(m, src_norm, tgt_norm) == grouped[a], (src_norm, tgt_norm, a)


def test_power_method_on_two_hundred_atoms_is_fast():
    rng = np.random.default_rng(229)
    structure = make_structure(200)
    src = lp_module(structure, (4,) * 200, p=3.0)
    tgt = lp_module(structure, (4,) * 200, p=1.5)
    t = HomElement([rng.standard_normal((4, 4)) for _ in range(200)], src, tgt)
    start = time.perf_counter()
    hom_norm(t)
    assert time.perf_counter() - start < 2.0


def test_norm_glueing_is_exact():
    rng = np.random.default_rng(101)
    structure = make_structure(4)
    src = lp_module(structure, (2, 2, 2, 2), p=1.0)
    tgt = scalar_target(structure)
    homs = [
        HomElement([rng.standard_normal((1, 2)) for _ in range(4)], src, tgt)
        for _ in range(3)
    ]
    labels = np.array([0, 1, 2, 1])
    total = HomElement.zero(src, tgt)
    expected = structure.space.zero_fn()
    for k, t in enumerate(homs):
        u = structure.space.indicator(labels == k)
        total = total + u * t
        expected = expected + u * hom_norm(t)
    assert hom_norm(total).equals(expected)


def test_scalar_multiple_scales_hom_norm():
    rng = np.random.default_rng(103)
    structure = make_structure(3)
    src = lp_module(structure, (2, 3, 1), p=2.0)
    tgt = scalar_target(structure)
    t = HomElement([rng.standard_normal((1, d)) for d in (2, 3, 1)], src, tgt)
    u = random_fn(rng, structure.space)
    lhs = hom_norm(u * t)
    rhs = u.abs() * hom_norm(t)
    assert lhs.deviation(rhs) <= 1e-12 * max(1.0, rhs.sup_abs)


# --------------------------------------------------------------------------
# Dual modules
# --------------------------------------------------------------------------

def test_dual_module_kinds():
    structure = make_structure(2, v="l1")
    system = DualSystem.default(structure)
    m = lp_module(structure, (2, 2), p=1.0)
    dual = dual_module(m, system)
    assert all(f.norm == LpNorm(math.inf) for f in dual.fibers)
    assert dual.structure.v_kind == Kind("Linf")

    g = np.array([[2.0, 1.0], [1.0, 1.0]])
    mg = gram_module(make_structure(1), [g])
    dualg = dual_module(mg, DualSystem.default(mg.structure))
    assert np.allclose(dualg.fibers[0].norm.gram, np.linalg.inv(g))

    eye = gram_module(make_structure(1), [np.eye(2)])
    dual_eye = dual_module(eye, DualSystem.default(eye.structure))
    assert np.array_equal(dual_eye.fibers[0].norm.gram, np.eye(2))


def test_dual_of_generated_fiber_norm_is_unsupported():
    structure = make_structure(1)
    m = FiberModule(structure, (Fiber(2, ImageLpNorm(np.eye(2), 3.0)),))
    with pytest.raises(UnsupportedHom):
        dual_module(m, DualSystem.default(structure))


def test_dual_vector_norm_is_conjugate():
    rng = np.random.default_rng(107)
    for p, q in [(1.0, math.inf), (2.0, 2.0), (3.0, 1.5), (math.inf, 1.0)]:
        for _ in range(20):
            a = rng.standard_normal(3)
            assert abs(dual_vector_norm(LpNorm(p), a) - LpNorm(q).norm(a)) <= 1e-9


def test_image_lp_dual_norm_matches_lp_and_closed_form():
    # On x -> |A x|_p the dual norm of a row a is min { |u|_q : A^T u = a }:
    # a primal LP over the null space of A^T for p in {1, inf}, and
    # |pinv(A^T) a|_2 for p = 2.  A one-row hom into |.| has the same norm.
    rng = np.random.default_rng(151)
    structure = make_structure(1)
    for p in (1.0, 2.0, math.inf):
        for _ in range(10):
            a_mat = rng.standard_normal((4, 3))
            row = rng.standard_normal(3)
            u0 = np.linalg.pinv(a_mat.T) @ row
            if p == 2.0:
                exact = float(np.linalg.norm(u0))
            else:
                q = 1.0 if p == math.inf else math.inf
                exact = primal_lp_distance(q, u0, null_space(a_mat.T).T)
            norm = ImageLpNorm(a_mat, p)
            src = FiberModule(structure, (Fiber(3, norm),))
            t = HomElement([row.reshape(1, -1)], src, scalar_target(structure))
            for got in (dual_vector_norm(norm, row), hom_norm(t).values[0]):
                assert abs(got - exact) <= 1e-9 * max(1.0, exact)


def test_pairing_and_hoelder_bound():
    rng = np.random.default_rng(109)
    structure = make_structure(2)
    m = lp_module(structure, (2, 2), p=2.0)
    system = DualSystem.default(structure)
    omega = dual_element(m, [[1.0, 0.0], [0.0, 2.0]], system)
    v = ModuleElement([[3.0, 4.0], [1.0, 1.0]], m)
    assert pairing(omega, v).values.tolist() == [3.0, 2.0]
    for _ in range(100):
        w = random_element(rng, m)
        rows = [rng.standard_normal((1, 2)) for _ in range(2)]
        eta = HomElement(rows, m, z_module(system))
        bound = hom_norm(eta).values * pointwise_norm(w).values
        assert bool(np.all(np.abs(pairing(eta, w).values) <= bound + 1e-9))


def test_z_module_is_scalar():
    system = DualSystem.default(make_structure(3))
    z = z_module(system)
    assert z.dims == (1, 1, 1)
    assert all(f.norm == LpNorm(1.0) for f in z.fibers)


# --------------------------------------------------------------------------
# Kernels
# --------------------------------------------------------------------------

def test_kernel_of_sum_row():
    structure = make_structure(1)
    m = lp_module(structure, (2,))
    t = HomElement([np.array([[1.0, 1.0]])], m, scalar_target(structure))
    k = kernel(t)
    assert k.bases[0].shape == (1, 2)
    assert abs(k.bases[0] @ np.array([1.0, 1.0])) <= 1e-12
    inside = ModuleElement([k.bases[0][0]], m)
    assert pointwise_norm(t.apply(inside)).values[0] <= 1e-12


def test_kernel_rejects_structure_homs():
    structure = make_structure(2)
    m = lp_module(structure, (2, 2))
    hom = StructureHom(structure, structure, (0, 0))
    t = HomElement([np.eye(2), np.eye(2)], m, m, hom=hom)
    with pytest.raises(UnsupportedHom):
        kernel(t)


# --------------------------------------------------------------------------
# Hahn-Banach extension
# --------------------------------------------------------------------------

def test_extension_restricts_exactly_and_is_dominated():
    rng = np.random.default_rng(113)
    structure = make_structure(2)
    m = lp_module(structure, (3, 3), p=2.0)
    basis = tuple(np.linalg.qr(rng.standard_normal((3, 2)))[0].T for _ in range(2))
    n = Submodule(m, basis)
    gauge = Fn([2.0, 1.5], m.space)
    # A comfortably dominated functional on each fiber.
    f_rows = [0.5 * rng.standard_normal(2) for _ in range(2)]
    ext = hahn_banach_extend(n, f_rows, gauge)
    for a in range(2):
        # Restriction, domination and the least dual norm, to 1e-9.
        row = ext.functional.matrices[a][0]
        assert_extension(LpNorm(2.0), basis[a], f_rows[a], gauge.values[a], row)
        for j in range(2):
            assert abs(row @ basis[a][j] - f_rows[a][j]) <= 1e-9
        for _ in range(200):
            x = rng.standard_normal(3)
            assert abs(row @ x) <= gauge.values[a] * np.linalg.norm(x) + 1e-8


def test_extension_l1_example_stays_dominated():
    m = lp_module(make_structure(1), (2,), p=1.0)
    n = Submodule(m, (np.array([[1.0, 0.0]]),))
    ext = hahn_banach_extend(n, [[1.0]], m.space.one_fn())
    row = ext.functional.matrices[0][0]
    assert row[0] == 1.0
    assert abs(row[1]) <= 1.0 + 1e-9


def test_extension_canonical_value_euclidean():
    # Extending f(t, 0) = t/2 from span{e1} under the unit Euclidean gauge:
    # the extension of least dual norm is (0.5, 0), of norm 0.5.
    m = lp_module(make_structure(1), (2,), p=2.0)
    n = Submodule(m, (np.array([[1.0, 0.0]]),))
    ext = hahn_banach_extend(n, [[0.5]], m.space.one_fn())
    row = ext.functional.matrices[0][0]
    assert abs(row[0] - 0.5) <= 1e-9
    assert abs(row[1]) <= 1e-9
    assert abs(np.linalg.norm(row) - 0.5) <= 1e-9


def test_extension_of_zero_functional_is_dominated():
    rng = np.random.default_rng(127)
    m = lp_module(make_structure(1), (2,), p=1.0)
    n = Submodule(m, (np.array([[1.0, 0.0]]),))
    ext = hahn_banach_extend(n, [[0.0]], m.space.one_fn())
    row = ext.functional.matrices[0][0]
    assert row @ np.array([1.0, 0.0]) == 0.0
    for _ in range(100):
        x = rng.standard_normal(2)
        assert abs(row @ x) <= np.abs(x).sum() + 1e-9


def test_extension_on_rank_deficient_consistent_basis():
    # A repeated basis row with equal values: the least-norm extension is
    # (0.5, 0), of dual norm 0.5, the need.
    m = lp_module(make_structure(1), (2,), p=2.0)
    basis = np.array([[1.0, 0.0], [1.0, 0.0]])
    ext = hahn_banach_extend(Submodule(m, (basis,)), [[0.5, 0.5]], m.space.one_fn())
    row = ext.functional.matrices[0][0]
    assert_extension(LpNorm(2.0), basis, np.array([0.5, 0.5]), 1.0, row)
    assert np.linalg.norm(row) <= 1.0 + 1e-12
    assert abs(np.linalg.norm(row) - 0.5) <= 1e-9


def test_extension_rejects_undominated_data():
    structure = make_structure(1)
    m = lp_module(structure, (2,), p=2.0)
    linf = lp_module(structure, (20,), p=math.inf)
    one = m.space.one_fn()
    cases = [
        (Submodule(m, (np.array([[1.0, 0.0]]),)), [[2.0]], one),
        (Submodule(m, (np.array([[1.0, 0.0]]),)), [[0.5]], one.scale(-1.0)),
        # Each basis row alone is dominated (0.06 <= 1), but the only
        # extension takes 0.06 on every coordinate: l1 dual norm 1.2 > 1.
        (Submodule(linf, (np.eye(20),)), [np.full(20, 0.06)], one),
        # A repeated basis row with values 1e-6 apart: no linear functional
        # takes them, although f stays under the gauge off a thin wedge.
        (Submodule(m, (np.array([[1.0, 0.0], [1.0, 0.0]]),)), [[0.5, 0.5 + 1e-6]], one),
    ]
    for n, f_rows, gauge in cases:
        with pytest.raises(DominationViolated):
            hahn_banach_extend(n, f_rows, gauge)


def test_a_nan_gauge_is_refused():
    # NaN fails every comparison, so a test for gauge < 0 let it through
    # and f = 5 was extended as dominated.  An infinite gauge dominates all.
    m = lp_module(make_structure(1), (2,), p=2.0)
    n = Submodule(m, (np.array([[1.0, 0.0]]),))
    with pytest.raises(DominationViolated, match="nonnegative"):
        hahn_banach_extend(n, [[5.0]], Fn([math.nan], m.space))
    ext = hahn_banach_extend(n, [[5.0]], Fn([math.inf], m.space))
    assert ext.functional.matrices[0].tolist() == [[5.0, 0.0]]


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_domination_counts_a_negligible_basis_row_as_zero(p):
    # The row 1e-300 e1 is zero at the package's rank threshold, and the
    # value 1 on it needs a dual norm of 1e300.  The particular solution and
    # the null space come from one cut, so the solution is not 1e300 e1 (a
    # solver failure for l1, a value the null space absorbs for l2).
    m = lp_module(make_structure(1), (2,), p=p)
    n = Submodule(m, (np.array([[1e-300, 0.0]]),))
    with pytest.raises(DominationViolated, match="atom 0"):
        hahn_banach_extend(n, [[1.0]], m.space.one_fn())


def test_extension_runs_one_program(monkeypatch):
    # An l1 atom (d = 4, two basis rows) and an l-infinity atom (d = 5, one
    # row) share one linear program, the domination test, whose minimisers
    # are the extensions; each equals its one-atom extension, restricts,
    # and has the least dual norm.
    rng = np.random.default_rng(211)
    fibers = (Fiber(4, LpNorm(1.0)), Fiber(5, LpNorm(math.inf)))
    m = FiberModule(make_structure(2), fibers)
    bases = (rng.standard_normal((2, 4)), rng.standard_normal((1, 5)))
    f_rows = [0.1 * rng.standard_normal(2), 0.1 * rng.standard_normal(1)]
    gauge = Fn([2.0, 3.0], m.space)
    calls = count_solver_calls(monkeypatch)
    ext = hahn_banach_extend(Submodule(m, bases), f_rows, gauge)
    assert calls[0] == 1
    one = make_structure(1)
    for a in range(2):
        alone = FiberModule(one, (fibers[a],))
        calls[0] = 0
        single = hahn_banach_extend(Submodule(alone, (bases[a],)), [f_rows[a]],
                                    Fn([gauge.values[a]], alone.space))
        assert calls[0] == 1
        got = ext.functional.matrices[a][0]
        want = single.functional.matrices[0][0]
        assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))
        assert_extension(fibers[a].norm, bases[a], f_rows[a], gauge.values[a], got)


def test_extension_of_200_l1_atoms_matches_one_atom_extensions(monkeypatch):
    # 200 l1 atoms, d = 8, three basis rows each; every fifth atom repeats a
    # row.  The values come from one row w with |w|_inf < 1, so f is
    # dominated by the gauge 1.  One simplex call extends all atoms, and
    # every extension equals the atom's one-atom extension bit for bit,
    # restricts and has the least dual norm.
    rng = np.random.default_rng(631)
    n, d = 200, 8
    m = lp_module(make_structure(n), (d,) * n, p=1.0)
    bases = [rng.standard_normal((3, d)) for _ in range(n)]
    for b in bases[::5]:
        b[2] = b[0]
    w = rng.uniform(-0.5, 0.5, (n, d))
    f_rows = [b @ w_a for b, w_a in zip(bases, w)]
    calls = count_solver_calls(monkeypatch)
    ext = hahn_banach_extend(Submodule(m, tuple(bases)), f_rows, m.space.one_fn())
    assert calls[0] == 1
    alone = lp_module(make_structure(1), (d,), p=1.0)
    for b, r, got in zip(bases, f_rows, ext.functional.matrices):
        calls[0] = 0
        single = hahn_banach_extend(Submodule(alone, (b,)), [r], alone.space.one_fn())
        assert calls[0] == 1
        want = single.functional.matrices[0][0]
        assert np.array_equal(got[0], want)
        assert_extension(LpNorm(1.0), b, r, 1.0, got[0])


@pytest.mark.parametrize("kind", ["image-l1", "image-linf", "image-l3", "gram"])
def test_image_lp_and_gram_extensions_have_the_least_dual_norm(kind):
    # One fiber of the kind (d = 2-6, k < d basis rows), each problem with
    # a slack gauge (1.3 times the need) and a tight one (the need itself):
    # the extension restricts, stays dominated and has the least dual norm.
    rng = np.random.default_rng(len(kind) + 7)
    exponent = {"image-l1": 1.0, "image-linf": math.inf, "image-l3": 3.0}.get(kind)
    for _ in range(8):
        d = int(rng.integers(2, 7))
        k = int(rng.integers(1, d))
        norm = (GramNorm(random_spd(rng, d)) if exponent is None
                else ImageLpNorm(rng.standard_normal((d + 2, d)), exponent))
        m = FiberModule(make_structure(1), (Fiber(d, norm),))
        basis, r = rng.standard_normal((k, d)), rng.standard_normal(k)
        need = reference_need(norm, basis, r)
        for g in (1.3 * need, need):
            ext = hahn_banach_extend(Submodule(m, (basis,)), [r], Fn([g], m.space))
            assert_extension(norm, basis, r, g, ext.functional.matrices[0][0])


def test_extension_reports_the_first_error_in_atom_order(monkeypatch):
    m = lp_module(make_structure(3), (2, 2, 2), p=1.0)
    row = np.array([[1.0, 0.0]])
    n = Submodule(m, (row, row, row))
    one = m.space.one_fn()
    calls = count_solver_calls(monkeypatch)
    # Atom 1 is not dominated and atom 2 has two values for one basis row:
    # the domination failure comes first, from one program over atoms 0, 1.
    with pytest.raises(DominationViolated, match="atom 1"):
        hahn_banach_extend(n, [[0.5], [2.0], [0.5, 0.5]], one)
    assert calls[0] == 1
    # A shape error on atom 0 comes before the domination failure on atom 1,
    # and no program runs.
    with pytest.raises(DimensionMismatch, match="atom 0"):
        hahn_banach_extend(n, [[0.5, 0.5], [2.0], [0.5]], one)
    assert calls[0] == 1


def test_image_l1_dual_norms_of_a_group_share_one_program(monkeypatch):
    from rieszmod.homdual import _dual_norms

    rng = np.random.default_rng(223)
    mats = [rng.standard_normal((4, 3)) for _ in range(200)]
    m = FiberModule(make_structure(200), tuple(Fiber(3, ImageLpNorm(a, 1.0)) for a in mats))
    (group,) = m._groups
    rows = rng.standard_normal((200, 3))
    calls = count_solver_calls(monkeypatch)
    got = _dual_norms(group, rows)
    assert calls[0] == 1
    # min |u|_inf over A^T u = row, as a primal LP over (u, s).
    bound = np.block([[np.eye(4), -np.ones((4, 1))], [-np.eye(4), -np.ones((4, 1))]])
    for a, row, val in zip(mats, rows, got):
        res = linprog(np.r_[np.zeros(4), 1.0], A_ub=bound, b_ub=np.zeros(8),
                      A_eq=np.c_[a.T, np.zeros((3, 1))], b_eq=row,
                      bounds=[(None, None)] * 4 + [(0.0, None)], method="highs")
        assert abs(val - res.fun) <= 1e-9 * max(1.0, res.fun)


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_image_polyhedral_power_steps_share_one_program(monkeypatch, p):
    # On image-l1 and image-linf fibers the power method's LMO solves all
    # rows of a step as one linear program.  The fibers have the dims of a
    # cotangent module on 30 vertices and 70 edges (a path plus 41 random
    # chords) and the injective image matrix I.
    from rieszmod.constructions import Graph, cotangent_module
    from rieszmod import homdual

    rng = np.random.default_rng(3070)
    edges = {(i, i + 1) for i in range(29)}
    while len(edges) < 70:
        edges.add(tuple(sorted(rng.choice(30, size=2, replace=False).tolist())))
    graph = Graph(tuple(f"v{i}" for i in range(30)),
                  tuple((u, v, float(rng.uniform(0.5, 2.0))) for u, v in sorted(edges)))
    cot = cotangent_module(graph, p)[1].module
    m = FiberModule(cot.structure, tuple(Fiber(d, ImageLpNorm(np.eye(d), p)) for d in cot.dims))
    steps = [0]
    lmo = homdual._lmo

    def counted_lmo(src, g):
        steps[0] += 1
        return lmo(src, g)

    monkeypatch.setattr(homdual, "_lmo", counted_lmo)
    calls = count_solver_calls(monkeypatch)
    norms = hom_norm(HomElement.identity(m)).values
    assert all(x == 1.0 for x, dim in zip(norms, m.dims) if dim)
    if p == 1.0:   # an image-l1 target runs the power method
        assert 0 < calls[0] <= steps[0]
    l3 = FiberModule(m.structure, tuple(Fiber(d, LpNorm(3.0)) for d in m.dims))
    t = HomElement([rng.standard_normal((d, d)) for d in m.dims], m, l3)
    calls[0] = steps[0] = 0
    hom_norm(t)
    assert 0 < calls[0] <= steps[0]


def test_image_l20_hom_norm_answers_where_a_newton_system_was_singular():
    # At p = 20 the Hessian of a second, image-lp Newton objective was
    # singular here, and its LinAlgError and an overflow warning escaped
    # hom_norm.  The LMO now reads the gauge kernel's certificate: an answer
    # without a warning (RuntimeWarnings are errors under pytest), at least
    # the best of a dense sample of the source unit sphere.
    rng = np.random.default_rng(3)
    b = rng.standard_normal((3, 2))
    a = rng.standard_normal((2, 2))
    structure = make_structure(1)
    t = HomElement([a], FiberModule(structure, (Fiber(2, ImageLpNorm(b, 20.0)),)),
                   FiberModule(structure, (Fiber(2, LpNorm(3.0)),)))
    theta = np.linspace(0.0, 2.0 * math.pi, 400_001)
    x = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    swept = np.max(np.linalg.norm(x @ a.T, 3.0, axis=1) / np.linalg.norm(x @ b.T, 20.0, axis=1))
    assert hom_norm(t).values[0] >= swept * (1.0 - 1e-12)


@pytest.mark.parametrize("p", [1.5, 3.0, 7.0, 20.0, 50.0])
def test_image_lp_lmo_attains_the_certified_dual_norm(p):
    # On |B x|_p <= 1 the LMO's x is the certificate of the dual norm of g
    # from _min_dual_norms: inside the ball, and g.x is within the gauge
    # kernel's gap (_GAP_RTOL times |u0|_q, u0 = pinv(B^T) g, the value at
    # t = 0) of the certified upper bound, never above it.  B has d to
    # d + 3 rows, so q = p / (p - 1) is near 1 at large p.
    from rieszmod._kernels import _GAP_RTOL
    from rieszmod.homdual import _FiberGroup, _lmo, _min_dual_norms

    rng = np.random.default_rng(int(10 * p))
    q = p / (p - 1.0)
    for _ in range(30):
        d = int(rng.integers(2, 6))
        b = rng.standard_normal((d + int(rng.integers(0, 4)), d))
        g = rng.standard_normal(d)
        norm = ImageLpNorm(b, p)
        (x,) = _lmo(_FiberGroup.single(norm, d), g[None])
        _, ((_, bound, _),) = _min_dual_norms([(norm, np.eye(d), g)])
        scale = np.linalg.norm(np.linalg.pinv(b.T) @ g, q)
        assert norm.norm(x) <= 1.0 + 1e-12
        assert bound - _GAP_RTOL * scale <= g @ x <= bound * (1.0 + 1e-12)


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_failed_operator_norm_program_raises_a_typed_error(monkeypatch, p):
    from rieszmod import _kernels
    from rieszmod.homdual import _FiberGroup, _lmo

    # A matrix that is not injective has an unbounded ball.
    flat = np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])
    with pytest.raises(SolverFailed, match="unbounded"):
        _lmo(_FiberGroup.single(ImageLpNorm(flat, p), 2), np.array([[1.0, -1.0]]))
    monkeypatch.setattr(_kernels, "_PIVOTS_PER_COLUMN", 0)
    b = np.array([[1.0, 2.0], [0.5, -1.0], [0.0, 1.0]])
    with pytest.raises(SolverFailed, match="not optimal after 0 pivots"):
        _lmo(_FiberGroup.single(ImageLpNorm(b, p), 2), np.array([[1.0, -1.0]]))


# --------------------------------------------------------------------------
# Norming functionals
# --------------------------------------------------------------------------

def test_norming_functional_l1_oracle():
    m = lp_module(make_structure(2), (2, 2), p=1.0)
    v = ModuleElement([[3.0, -4.0], [0.0, 0.0]], m)
    omega = norming_functional(v)
    assert omega.matrices[0].tolist() == [[1.0, -1.0]]
    assert pairing(omega, v).values.tolist() == [7.0, 0.0]
    # |omega| equals the indicator of the support of v.
    assert hom_norm(omega).values.tolist() == [1.0, 0.0]


def test_norming_functional_gram_oracle():
    m = gram_module(make_structure(1), [np.eye(2)])
    v = ModuleElement([[3.0, 4.0]], m)
    omega = norming_functional(v)
    assert np.allclose(omega.matrices[0], [[0.6, 0.8]])
    assert abs(pairing(omega, v).values[0] - 5.0) <= 1e-12


def test_norming_functional_across_kinds():
    rng = np.random.default_rng(131)
    structure = make_structure(3)
    mods = [
        lp_module(structure, (3, 2, 4), p=1.0),
        lp_module(structure, (3, 2, 4), p=1.5),
        lp_module(structure, (3, 2, 4), p=2.0),
        lp_module(structure, (3, 2, 4), p=math.inf),
        gram_module(structure, [random_spd(rng, d) for d in (3, 2, 4)]),
    ]
    for m in mods:
        for _ in range(20):
            v = random_element(rng, m)
            omega = norming_functional(v)
            nv = pointwise_norm(v)
            assert pairing(omega, v).deviation(nv) <= 1e-9 * max(1.0, nv.sup_abs)
            chi = (nv.values != 0.0).astype(float)
            assert np.max(np.abs(hom_norm(omega).values - chi)) <= 1e-9


def test_norming_functional_image_norm():
    # hom_norm has no closed form from image-norm fibers, so the unit-norm
    # half of the claim is checked directly as domination: |<omega, w>| <= |w|.
    rng = np.random.default_rng(149)
    structure = make_structure(2)
    m = FiberModule(structure, tuple(
        Fiber(d, ImageLpNorm(rng.standard_normal((d + 1, d)), 3.0))
        for d in (3, 2)
    ))
    for _ in range(20):
        v = random_element(rng, m)
        omega = norming_functional(v)
        nv = pointwise_norm(v)
        assert pairing(omega, v).deviation(nv) <= 1e-9 * max(1.0, nv.sup_abs)
        for _ in range(50):
            w = random_element(rng, m)
            paired = np.abs(pairing(omega, w).values)
            assert bool(np.all(paired <= pointwise_norm(w).values + 1e-9))


def test_norming_functional_of_zero():
    m = lp_module(make_structure(2), (2, 2), p=2.0)
    omega = norming_functional(m.zero_element())
    assert hom_norm(omega).values.tolist() == [0.0, 0.0]


# --------------------------------------------------------------------------
# Bidual embedding
# --------------------------------------------------------------------------

def test_bidual_embedding_is_isometric():
    rng = np.random.default_rng(137)
    structure = make_structure(3)
    mods = [
        lp_module(structure, (2, 3, 1), p=p)
        for p in (1.0, 1.5, 2.0, math.inf)
    ] + [gram_module(structure, [random_spd(rng, d) for d in (2, 3, 1)])]
    for m in mods:
        j = bidual_embed(m)
        for _ in range(50):
            v = random_element(rng, m)
            nv = pointwise_norm(v)
            njv = pointwise_norm(j.apply(v))
            assert njv.deviation(nv) <= 1e-9 * max(1.0, nv.sup_abs)


def test_bidual_surjectivity_witness():
    structure = make_structure(2)
    m = lp_module(structure, (2, 2), p=1.5)
    assert is_reflexive(m)
    j = bidual_embed(m)
    rng = np.random.default_rng(139)
    target = ModuleElement([rng.standard_normal(2) for _ in range(2)], j.target)
    pre = ModuleElement(
        [np.linalg.solve(mat, y) for mat, y in zip(j.matrices, target.vectors)], m
    )
    assert all(
        np.allclose(a, b) for a, b in zip(j.apply(pre).vectors, target.vectors)
    )


# --------------------------------------------------------------------------
# Extension from generators
# --------------------------------------------------------------------------

def test_extend_from_generators_identity_and_zero():
    m = lp_module(make_structure(2), (2, 2))
    gens = [
        ModuleElement([[1.0, 0.0], [1.0, 0.0]], m),
        ModuleElement([[0.0, 1.0], [0.0, 1.0]], m),
    ]
    ident = extend_from_generators(gens, gens, m)
    assert all(np.allclose(mat, np.eye(2)) for mat in ident.matrices)
    zero = extend_from_generators(gens, [m.zero_element()] * 2, m)
    assert all(np.allclose(mat, 0.0) for mat in zero.matrices)


def test_extend_from_generators_redundant_consistent():
    m = lp_module(make_structure(1), (2,))
    g = ModuleElement([[1.0, 2.0]], m)
    t = extend_from_generators([g, g], [g, g], m)
    assert np.allclose(t.apply(g).vectors[0], g.vectors[0])


def test_extend_from_generators_inconsistent():
    m = lp_module(make_structure(1), (2,))
    g = ModuleElement([[1.0, 2.0]], m)
    h = ModuleElement([[0.0, 1.0]], m)
    with pytest.raises(InconsistentGenerators):
        extend_from_generators([g, g], [g, h], m)


def test_extend_from_generators_input_checks():
    m = lp_module(make_structure(1), (2,))
    g = ModuleElement([[1.0, 0.0]], m)
    with pytest.raises(InputError):
        extend_from_generators([g], [g, g], m)
    with pytest.raises(InputError):
        extend_from_generators([], [], m)
