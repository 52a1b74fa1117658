"""Hom modules, operator norms, duals, Hahn-Banach, bidual embedding."""

import math

import numpy as np
import pytest
from scipy.linalg import null_space

from rieszmod import (
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
    z_module,
)
from helpers import (
    gram_module,
    lp_module,
    make_space,
    make_structure,
    primal_lp_distance,
    random_element,
    random_fn,
    random_spd,
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
    # Non-scalar lp pairs go through sampled ascent, good to 1e-4 relative.
    bound = hom_norm(t)
    best = np.zeros(2)
    for theta in np.linspace(0.0, 2.0 * math.pi, 20_001):
        v = ModuleElement([[math.cos(theta), math.sin(theta)]] * 2, src)
        ratio = pointwise_norm(t.apply(v)).values / pointwise_norm(v).values
        best = np.maximum(best, ratio)
        assert bool(np.all(ratio <= bound.values * (1.0 + 1e-4)))
    assert bool(np.all(best >= bound.values * (1.0 - 1e-4)))


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
        # The stored interpolation data keeps the inputs bitwise.
        assert np.array_equal(ext.basis[a][:2], basis[a])
        assert np.array_equal(ext.values[a][:2], np.asarray(f_rows[a]))
        row = ext.functional.matrices[a][0]
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
    # the canonical second coordinate is inf_t ||(t, 1)|| - t/2 = sqrt(3)/2.
    m = lp_module(make_structure(1), (2,), p=2.0)
    n = Submodule(m, (np.array([[1.0, 0.0]]),))
    ext = hahn_banach_extend(n, [[0.5]], m.space.one_fn())
    row = ext.functional.matrices[0][0]
    assert abs(row[0] - 0.5) <= 1e-9
    assert abs(row[1] - math.sqrt(3.0) / 2.0) <= 1e-9


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
    # A repeated basis row with equal values: the completion keeps one copy.
    m = lp_module(make_structure(1), (2,), p=2.0)
    basis = np.array([[1.0, 0.0], [1.0, 0.0]])
    ext = hahn_banach_extend(Submodule(m, (basis,)), [[0.5, 0.5]], m.space.one_fn())
    row = ext.functional.matrices[0][0]
    assert np.array_equal(basis @ row, [0.5, 0.5])
    assert np.linalg.norm(row) <= 1.0 + 1e-12
    assert ext.basis[0].shape == (2, 2)
    assert np.array_equal(ext.basis[0][0], basis[0])


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
