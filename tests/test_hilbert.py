"""Inner-product fiber modules: projections, complements, Riesz duality."""

import math

import numpy as np
import pytest

import rieszmod.hilbert
from rieszmod import (
    BallSet,
    BoxSet,
    ConvexSet,
    DualSystem,
    EmptySet,
    Fiber,
    FiberModule,
    FiniteFStructure,
    Fn,
    GramNorm,
    HilbertModule,
    HomElement,
    ImageLpNorm,
    Kind,
    LpNorm,
    InputError,
    IntersectionSet,
    ModuleElement,
    ModuleMismatch,
    NotHilbert,
    Submodule,
    SubspaceSet,
    cauchy_schwarz_check,
    hilbert_reflexivity_check,
    module_distance,
    orthogonal_complement,
    parallelogram_defect,
    pointwise_inner,
    pointwise_norm,
    project_convex,
    riesz_inverse,
    riesz_map,
)
from rieszmod.hilbert import _compat_constant
from rieszmod.spaces import _product_kind
from helpers import (
    gram_module,
    lp_module,
    make_space,
    make_structure,
    random_element,
    random_spd,
    sampled_compat_constant,
)


def hilbert(n=1, dims=(2,), grams=None, structure=None):
    structure = structure or make_structure(n)
    if grams is None:
        return HilbertModule(lp_module(structure, dims, p=2.0))
    return HilbertModule(gram_module(structure, grams))


# --------------------------------------------------------------------------
# Inner products
# --------------------------------------------------------------------------

def test_pointwise_inner_oracles():
    m = gram_module(make_structure(1), [np.array([[2.0, 0.0], [0.0, 1.0]])])
    v = ModuleElement([[1.0, 1.0]], m)
    w = ModuleElement([[1.0, -1.0]], m)
    assert pointwise_inner(v, w).values.tolist() == [1.0]
    assert abs(pointwise_inner(v, v).values[0]
               - pointwise_norm(v).values[0] ** 2) <= 1e-12

    e = lp_module(make_structure(2), (2, 2), p=2.0)
    a = ModuleElement([[1.0, 0.0], [3.0, 0.0]], e)
    b = ModuleElement([[0.0, 1.0], [0.0, -2.0]], e)
    assert pointwise_inner(a, b).values.tolist() == [0.0, 0.0]


def test_pointwise_inner_matches_polarization():
    # lp2, gram and image-l2 fibers in one module, zero-dimensional ones included.
    rng = np.random.default_rng(193)
    dims = (2, 3, 0, 1, 2, 4)
    norms = (LpNorm(2.0), GramNorm(random_spd(rng, 3)), LpNorm(2.0),
             GramNorm(random_spd(rng, 1)), ImageLpNorm(rng.standard_normal((3, 2)), 2.0),
             ImageLpNorm(rng.standard_normal((5, 4)), 2.0))
    m = FiberModule(make_structure(6), tuple(Fiber(d, n) for d, n in zip(dims, norms)))
    for _ in range(50):
        v, w = random_element(rng, m), random_element(rng, m)
        nplus, nminus = pointwise_norm(v + w).values, pointwise_norm(v - w).values
        polar = 0.25 * (nplus ** 2 - nminus ** 2)
        scale = max(1.0, float(np.max(nplus ** 2)), float(np.max(nminus ** 2)))
        assert np.max(np.abs(pointwise_inner(v, w).values - polar)) <= 1e-12 * scale


def test_nearly_symmetric_gram_is_stored_as_its_symmetric_part():
    g = np.array([[2.0, 1.0 + 1e-6], [1.0, 2.0]])
    norm = GramNorm(g)
    assert np.array_equal(norm.gram, 0.5 * g + 0.5 * g.T)
    assert np.array_equal(norm.gram, norm.gram.T)
    exact = np.array([[2.0, 0.1], [0.1, 3.0]])
    assert GramNorm(exact).gram.tobytes() == exact.tobytes()
    h = HilbertModule(gram_module(make_structure(1), [g]))
    v = ModuleElement([[1.0, 0.0]], h.module)
    w = ModuleElement([[0.0, 1.0]], h.module)
    assert pointwise_inner(v, w).values[0] == pointwise_inner(w, v).values[0] == norm.gram[0, 1]
    dual_gram = h.dual().fibers[0].norm.gram
    assert np.array_equal(dual_gram, dual_gram.T)


def test_pointwise_inner_rejects_non_inner_norms():
    m = lp_module(make_structure(1), (2,), p=1.0)
    v = ModuleElement([[1.0, 0.0]], m)
    with pytest.raises(NotHilbert):
        pointwise_inner(v, v)


def test_cauchy_schwarz_slack():
    m = lp_module(make_structure(1), (2,), p=2.0)
    v = ModuleElement([[3.0, 0.0]], m)
    ok, slack = cauchy_schwarz_check(v, v.scale(-2.0))
    assert ok and slack.values.tolist() == [0.0]
    w = ModuleElement([[0.0, 2.0]], m)
    ok, slack = cauchy_schwarz_check(v, w)
    assert ok and slack.values.tolist() == [6.0]
    rng = np.random.default_rng(199)
    g = gram_module(make_structure(3), [random_spd(rng, d) for d in (2, 3, 1)])
    for _ in range(100):
        a, b = random_element(rng, g), random_element(rng, g)
        ok, _ = cauchy_schwarz_check(a, b)
        assert ok


def test_parallelogram_defect_values():
    h = lp_module(make_structure(1), (2,), p=2.0)
    v = ModuleElement([[1.0, 0.0]], h)
    w = ModuleElement([[0.0, 1.0]], h)
    assert abs(parallelogram_defect(v, w).values[0]) <= 1e-12
    m1 = lp_module(make_structure(1), (2,), p=1.0)
    v1 = ModuleElement([[1.0, 0.0]], m1)
    w1 = ModuleElement([[0.0, 1.0]], m1)
    assert parallelogram_defect(v1, w1).values.tolist() == [4.0]


# --------------------------------------------------------------------------
# HilbertModule construction
# --------------------------------------------------------------------------

def test_hilbert_module_accepts_inner_product_fibers():
    rng = np.random.default_rng(211)
    h = hilbert(n=3, grams=[random_spd(rng, d) for d in (2, 3, 1)],
                structure=make_structure(3))
    assert h.compat_constant <= 1.0 + 1e-9
    h2 = HilbertModule(lp_module(make_structure(2), (2, 2), p=2.0))
    # The canonical lp pairing reproduces the module distance on the nose.
    assert abs(h2.compat_constant - 1.0) <= 1e-9


def test_hilbert_module_rejects_l1_fibers():
    with pytest.raises(NotHilbert):
        HilbertModule(lp_module(make_structure(1), (2,), p=1.0))


def test_hilbert_module_rejects_incompatible_pairing_scale():
    # Raw counting weights of total mass 4 on the pointwise distance make
    # the squared module distance up to 4 times the pairing distance.
    space = make_space(4, aux=[1.0, 1.0, 1.0, 1.0])
    structure = FiniteFStructure(space, Kind("Linf"), Kind("L0"))
    with pytest.raises(NotHilbert):
        HilbertModule(lp_module(structure, (2, 2, 2, 2), p=2.0))
    # Normalizing the same weights restores compatibility.
    ok_space = make_space(4, aux=[0.25, 0.25, 0.25, 0.25])
    ok = FiniteFStructure(ok_space, Kind("Linf"), Kind("L0"))
    h = HilbertModule(lp_module(ok, (2, 2, 2, 2), p=2.0))
    assert h.compat_constant <= 1.0 + 1e-9


def test_hilbert_module_handles_zero_fibers():
    h = HilbertModule(lp_module(make_structure(2), (0, 2), p=2.0))
    assert h.grams[0].shape == (0, 0)


def test_hilbert_module_grams_equal_the_per_atom_grams():
    # l2, gram and image-l2 fibers of mixed dimensions, built per fiber
    # group; each gram equals the one its fiber norm gives on its own.
    rng = np.random.default_rng(4301)
    fibers = []
    for a in range(60):
        d = int(rng.integers(0, 4))
        kind = a % 3 if d else 0
        if kind == 0:
            fibers.append(Fiber(d, LpNorm(2.0)))
        elif kind == 1:
            fibers.append(Fiber(d, GramNorm(random_spd(rng, d))))
        else:
            fibers.append(Fiber(d, ImageLpNorm(rng.standard_normal((d + 1, d)), 2.0)))
    m = FiberModule(make_structure(60), tuple(fibers))
    h = HilbertModule(m)
    assert len(h.grams) == 60
    for a, f in enumerate(fibers):
        if isinstance(f.norm, GramNorm):
            want = f.norm.gram
        elif isinstance(f.norm, ImageLpNorm):
            want = f.norm.matrix.T @ f.norm.matrix
        else:
            want = np.eye(f.dim)
        assert np.array_equal(h.grams[a], want)
    # The first fiber in atom order that is not euclidean is named.
    bad = list(fibers)
    bad[7], bad[41] = Fiber(2, LpNorm(3.0)), Fiber(1, LpNorm(1.0))
    with pytest.raises(NotHilbert, match="fiber 7 has norm LpNorm"):
        HilbertModule(FiberModule(make_structure(60), tuple(bad)))


def test_hilbert_module_refuses_a_pairing_system_of_another_structure():
    module = lp_module(make_structure(2), (2, 2), p=2.0)
    with pytest.raises(ModuleMismatch):
        HilbertModule(module, DualSystem.default(make_structure(3)))
    with pytest.raises(ModuleMismatch):
        HilbertModule(module, DualSystem.default(make_structure(2, v="l1")))
    # An equal structure built apart is the module's own.
    assert HilbertModule(module, DualSystem.default(make_structure(2))).compat_constant == 1.0


# --------------------------------------------------------------------------
# The compatibility constant in closed form
# --------------------------------------------------------------------------

def compat_ratio(module, system, f):
    """d_V(f, 0)^2 / d_Z(f^2, 0), straight from the two distances."""
    zero = module.space.zero_fn()
    return (module.structure.d_V(f, zero) ** 2
            / system.d_Z(Fn(f.values ** 2, module.space), zero))


def extremal_fn(module, system):
    """The f >= 0 on the atoms of positive dimension at which the constant is
    attained: the indicator of those atoms, or of the lightest of them when
    e = 2/p - 1/r < 0; None when the constant is infinite."""
    on = np.array(module.dims) > 0
    v, z = module.structure.v_kind, system.z_kind
    if v.name != "L0" and z.name == "L0":
        return None
    if v.name != "L0" and 2.0 * v._recip_p() - z._recip_p() < 0.0:
        mu = np.where(on, module.space.mu, math.inf)
        on = np.arange(module.space.n) == np.argmin(mu)
    return Fn(on.astype(float), module.space)


V_KINDS = {"l1": Kind("Lp", 1.0), "l1.5": Kind("Lp", 1.5), "l2": Kind("Lp", 2.0),
           "l3": Kind("Lp", 3.0), "linf": Kind("Linf"), "l0": Kind("L0")}
#: None is the default pairing.
W_KINDS = {"default": None, "Linf": Kind("Linf"), "L3": Kind("Lp", 3.0),
           "L2": Kind("Lp", 2.0), "L1": Kind("Lp", 1.0), "L0": Kind("L0")}
#: The (V, W) pairs whose product V.W is a kind: reciprocal exponents sum to at most 1.
PAIRS = [(v, w) for v, vk in V_KINDS.items() for w, wk in W_KINDS.items()
         if wk is None or vk._recip_p() + wk._recip_p() <= 1.0
         or math.inf in (vk._recip_p(), wk._recip_p())]
WEIGHTS = [0.3, 0.05, 0.9, 0.41, 1.7, 0.12]


@pytest.mark.parametrize("dims", [(2, 0, 1, 3, 1, 2), (1, 1, 1, 1, 1, 1), (0, 2, 0, 0, 0, 0),
                                  (0, 0, 0, 0, 0, 0)])
@pytest.mark.parametrize("v,w", PAIRS)
def test_compat_constant_bounds_samples_and_is_attained(v, w, dims):
    space = make_space(6, WEIGHTS, aux=[0.1, 0.3, 0.05, 0.2, 0.15, 0.2])
    structure = FiniteFStructure(space, Kind("Linf"), V_KINDS[v])
    w_kind = W_KINDS[w]
    system = (DualSystem.default(structure) if w_kind is None else
              DualSystem(structure, w_kind, _product_kind(structure.v_kind, w_kind)))
    module = lp_module(structure, dims, p=2.0)
    constant = _compat_constant(module, system)
    if constant <= 1.0 + 1e-9:
        assert HilbertModule(module, system).compat_constant == constant
    else:
        with pytest.raises(NotHilbert):
            HilbertModule(module, system)
    if not any(dims):
        assert constant == 0.0
        return
    assert constant >= sampled_compat_constant(module, system, samples=64) * (1.0 - 1e-12)
    rng = np.random.default_rng(241)
    on = np.array(dims) > 0
    for _ in range(200):
        f = Fn(np.where(on & (rng.random(6) < 0.7), rng.exponential(size=6) ** 3, 0.0), space)
        if f.values.any():
            assert compat_ratio(module, system, f) <= constant * (1.0 + 1e-12)
    f = extremal_fn(module, system)
    if f is None:
        assert constant == math.inf
        assert compat_ratio(module, system, Fn(1e8 * on, space)) > 1e8
    else:
        assert abs(compat_ratio(module, system, f) - constant) <= 1e-12 * constant


@pytest.mark.parametrize("n,dim", [(3, 1), (8, 1), (20, 3)])
def test_l1_module_of_mass_above_one_is_refused(n, dim):
    # V = L1 pairs into Z = L1; the constant is mu(X) = 1.02, attained at a
    # constant pointwise norm, which seeded Gaussian samples miss.
    structure = make_structure(n, v="l1", weights=[1.02 / n] * n)
    module = lp_module(structure, (dim,) * n, p=2.0)
    assert sampled_compat_constant(module, DualSystem.default(structure)) < 1.0
    with pytest.raises(NotHilbert, match="constant 1.02 > 1"):
        HilbertModule(module)


def test_l3_module_with_a_light_atom_is_refused():
    # V = L3 pairs into Z = L1, e = 2/3 - 1 < 0: the constant is
    # 0.573^(-1/3), about 1.20, attained at the indicator of the lightest atom.
    structure = make_structure(3, v=3.0, weights=[0.573, 2.0, 3.0])
    module = lp_module(structure, (2, 1, 3), p=2.0)
    system = DualSystem.default(structure)
    assert sampled_compat_constant(module, system) < 1.0
    assert abs(_compat_constant(module, system) - 0.573 ** (-1.0 / 3.0)) <= 1e-15
    with pytest.raises(NotHilbert, match="constant 1.20"):
        HilbertModule(module)


# --------------------------------------------------------------------------
# Convex projections
# --------------------------------------------------------------------------

def test_project_subspace_oracle():
    h = hilbert()
    v = ModuleElement([[3.0, 4.0]], h.module)
    c = ConvexSet((SubspaceSet(np.array([[1.0, 0.0]])),))
    p = project_convex(v, c)
    assert p.vectors[0].tolist() == [3.0, 0.0]
    assert module_distance(v, p) == 4.0


def test_project_point_already_inside():
    h = hilbert()
    v = ModuleElement([[0.25, 0.5]], h.module)
    c = ConvexSet((BoxSet(np.zeros(2), np.ones(2)),))
    assert project_convex(v, c).vectors[0].tolist() == [0.25, 0.5]


def test_project_box_clamp_oracle():
    h = hilbert()
    v = ModuleElement([[2.0, 0.5]], h.module)
    c = ConvexSet((BoxSet(np.zeros(2), np.ones(2)),))
    assert project_convex(v, c).vectors[0].tolist() == [1.0, 0.5]


def test_project_ball_oracle():
    h = hilbert()
    v = ModuleElement([[3.0, 4.0]], h.module)
    c = ConvexSet((BallSet(np.zeros(2), 1.0),))
    assert np.allclose(project_convex(v, c).vectors[0], [0.6, 0.8])


def test_project_box_with_cross_terms():
    # With gram [[2,1],[1,1]] the nearest feasible point is not the clamp:
    # minimizing over x >= 0 from v = (1, -1) gives (0.5, 0).
    g = np.array([[2.0, 1.0], [1.0, 1.0]])
    h = hilbert(grams=[g])
    v = ModuleElement([[1.0, -1.0]], h.module)
    c = ConvexSet((BoxSet(np.zeros(2), np.full(2, math.inf)),))
    p = project_convex(v, c)
    assert np.allclose(p.vectors[0], [0.5, 0.0], atol=1e-10)


def test_box_projection_does_not_change_when_the_gram_is_scaled():
    # np.allclose's absolute 1e-8 once took this gram for diagonal and
    # returned the clamp (1, -0.5), whose squared G-distance is 4e-8; the
    # nearest point (1, 1) has 8.5e-9.  The G-nearest point of a box does
    # not depend on the scale of G.
    g = np.array([[1e-8, 9e-9], [9e-9, 1e-8]])
    box = BoxSet(-np.ones(2), np.ones(2))
    v = np.array([3.0, -0.5])
    x = box.project(v, g)
    assert np.allclose(x, [1.0, 1.0], rtol=0.0, atol=1e-12)
    assert np.allclose(box.project(v, 1e8 * g), x, rtol=0.0, atol=1e-12)
    for scale in (2.0 ** -40, 2.0 ** 27, 2.0 ** 60):
        assert box.project(v, scale * g).tobytes() == x.tobytes()


def test_project_intersection_oracle():
    h = hilbert()
    v = ModuleElement([[1.0, 0.0]], h.module)
    c = ConvexSet((IntersectionSet((
        BoxSet(np.zeros(2), np.ones(2)),
        SubspaceSet(np.array([[1.0, 1.0]])),
    )),))
    p = project_convex(v, c)
    assert np.allclose(p.vectors[0], [0.5, 0.5], atol=1e-9)


def test_empty_sets_are_rejected():
    with pytest.raises(EmptySet):
        BoxSet(np.ones(2), np.zeros(2))
    with pytest.raises(EmptySet):
        BallSet(np.zeros(2), -1.0)
    h = hilbert()
    v = ModuleElement([[1.0, 1.0]], h.module)
    disjoint = ConvexSet((IntersectionSet((
        BoxSet(np.zeros(2), np.zeros(2)),
        BoxSet(np.full(2, 2.0), np.full(2, 2.0)),
    )),))
    with pytest.raises(EmptySet):
        project_convex(v, disjoint)


def test_projection_variational_inequality():
    # <v - P(v), z - P(v)> <= 0 for every feasible z characterizes the
    # nearest point; checked on sampled feasible points of each set shape.
    rng = np.random.default_rng(223)
    g = random_spd(rng, 2)
    h = hilbert(grams=[g])
    sets = [
        ConvexSet((BoxSet(-np.ones(2), np.ones(2)),)),
        ConvexSet((BallSet(np.array([0.5, 0.0]), 0.75),)),
        ConvexSet((SubspaceSet(np.array([[2.0, 1.0]])),)),
        ConvexSet((IntersectionSet((
            BoxSet(-np.ones(2), np.ones(2)),
            BallSet(np.zeros(2), 1.2),
        )),)),
    ]
    for c in sets:
        for _ in range(25):
            v = ModuleElement([3.0 * rng.standard_normal(2)], h.module)
            p = project_convex(v, c).vectors[0]
            for _ in range(20):
                z = project_convex(
                    ModuleElement([3.0 * rng.standard_normal(2)], h.module), c
                ).vectors[0]
                lhs = float((v.vectors[0] - p) @ g @ (z - p))
                assert lhs <= 1e-8 * max(1.0, abs(lhs))


def test_convex_set_json_round_trip():
    c = ConvexSet((
        SubspaceSet(np.array([[1.0, 0.0]])),
        BoxSet(np.array([0.0, -math.inf]), np.array([1.0, math.inf])),
        IntersectionSet((BallSet(np.zeros(1), 2.0), BoxSet(np.zeros(1), np.ones(1)))),
    ))
    back = ConvexSet.from_json(c.to_json())
    assert back.to_json() == c.to_json()
    with pytest.raises(InputError):
        ConvexSet.from_json({"fibers": [{"kind": "cone"}]})
    with pytest.raises(InputError):
        ConvexSet.from_json({"fibers": [{"kind": "box", "lo": [1.0], "hi": [0.0]}]})
    with pytest.raises(InputError):
        ConvexSet.from_json({"fibers": [{"kind": "intersection", "parts": []}]})


# --------------------------------------------------------------------------
# Orthogonal complements
# --------------------------------------------------------------------------

def test_orthogonal_complement_oracle():
    h = hilbert()
    n = Submodule(h.module, (np.array([[1.0, 1.0]]),))
    comp = orthogonal_complement(n)
    direction = comp.bases[0][0]
    assert abs(direction @ np.array([1.0, 1.0])) <= 1e-12
    whole = Submodule(h.module, (np.eye(2),))
    assert orthogonal_complement(whole).bases[0].shape == (0, 2)
    zero = Submodule(h.module, (np.zeros((0, 2)),))
    assert np.array_equal(orthogonal_complement(zero).bases[0], np.eye(2))


def test_orthogonal_complement_uses_the_gram_inner_product():
    g = np.array([[2.0, 1.0], [1.0, 1.0]])
    h = hilbert(grams=[g])
    n = Submodule(h.module, (np.array([[1.0, 0.0]]),))
    direction = orthogonal_complement(n).bases[0][0]
    assert abs(np.array([1.0, 0.0]) @ g @ direction) <= 1e-12


def test_projection_residual_is_orthogonal_with_pythagoras():
    rng = np.random.default_rng(227)
    grams = [random_spd(rng, 3), random_spd(rng, 2)]
    h = hilbert(n=2, grams=grams, structure=make_structure(2))
    n = Submodule(h.module, (rng.standard_normal((2, 3)), rng.standard_normal((1, 2))))
    for _ in range(50):
        v = random_element(rng, h.module)
        c = ConvexSet(tuple(SubspaceSet(b) for b in n.bases))
        p = project_convex(v, c)
        resid = v - p
        for a, b in enumerate(n.bases):
            for row in b:
                assert abs(resid.vectors[a] @ grams[a] @ row) <= 1e-10
        lhs = pointwise_norm(v).values ** 2
        rhs = pointwise_norm(p).values ** 2 + pointwise_norm(resid).values ** 2
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, float(np.max(lhs)))


# --------------------------------------------------------------------------
# Riesz representation
# --------------------------------------------------------------------------

def test_riesz_map_oracles():
    h = hilbert()
    w = ModuleElement([[3.0, 4.0]], h.module)
    eta = riesz_map(h, w)
    assert eta.vectors[0].tolist() == [3.0, 4.0]

    g = np.array([[2.0, 1.0], [1.0, 1.0]])
    hg = hilbert(grams=[g])
    eta = riesz_map(hg, ModuleElement([[1.0, 0.0]], hg.module))
    assert eta.vectors[0].tolist() == [2.0, 1.0]


def test_riesz_map_is_isometric_and_invertible():
    rng = np.random.default_rng(229)
    grams = [random_spd(rng, d) for d in (2, 3, 1)]
    h = hilbert(n=3, grams=grams, structure=make_structure(3))
    for _ in range(100):
        w = random_element(rng, h.module)
        eta = riesz_map(h, w)
        nw = pointwise_norm(w)
        assert pointwise_norm(eta).deviation(nw) <= 1e-10 * max(1.0, nw.sup_abs)
        back = riesz_inverse(h, eta)
        assert module_distance(back, w) <= 1e-10 * max(1.0, nw.sup_abs)


def test_riesz_round_trip_on_an_image_l2_fiber():
    # An image-l2 fiber |A x|_2 is euclidean: the Riesz map goes into the
    # dual module of gram inv(A^T A) and back.
    a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    h = HilbertModule(FiberModule(make_structure(1), (Fiber(2, ImageLpNorm(a, 2.0)),)))
    w = ModuleElement([[0.5, -2.0]], h.module)
    eta = riesz_map(h, w)
    assert np.allclose(eta.vectors[0], a.T @ a @ w.vectors[0], rtol=0.0, atol=1e-15)
    assert np.allclose(h.dual().fibers[0].norm.gram, np.linalg.inv(a.T @ a), rtol=0.0, atol=1e-15)
    assert abs(pointwise_norm(eta).values[0] - pointwise_norm(w).values[0]) <= 1e-12
    assert module_distance(riesz_inverse(h, eta), w) <= 1e-12


def test_riesz_maps_build_the_dual_module_once(monkeypatch):
    # h.dual() keeps M*: five round trips make one dual_module call.
    import json
    from pathlib import Path

    path = Path(__file__).parent / "data" / "module_221.json"
    h = HilbertModule(FiberModule.from_json(json.loads(path.read_text())))
    real = rieszmod.hilbert.dual_module
    calls = []

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(rieszmod.hilbert, "dual_module", counted)
    rng = np.random.default_rng(5)
    for _ in range(5):
        w = random_element(rng, h.module)
        assert module_distance(riesz_inverse(h, riesz_map(h, w)), w) <= 1e-12
    assert len(calls) == 1 and calls[0] is h.module


def test_riesz_pairing_identity():
    rng = np.random.default_rng(233)
    h = hilbert(grams=[random_spd(rng, 3)])
    for _ in range(50):
        v, w = random_element(rng, h.module), random_element(rng, h.module)
        eta = riesz_map(h, w)
        lhs = float(eta.vectors[0] @ v.vectors[0])
        rhs = pointwise_inner(v, w).values[0]
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_riesz_map_rejects_foreign_elements():
    h = hilbert()
    other = lp_module(make_structure(2), (2, 2), p=2.0)
    with pytest.raises(ModuleMismatch):
        riesz_map(h, other.zero_element())
    # An l^2 module is its own dual, so use a gram module to tell the two
    # sides apart: its dual carries the inverse gram.
    hg = hilbert(grams=[np.array([[2.0, 1.0], [1.0, 1.0]])])
    with pytest.raises(ModuleMismatch):
        riesz_inverse(hg, hg.module.zero_element())


# --------------------------------------------------------------------------
# Reflexivity
# --------------------------------------------------------------------------

def test_hilbert_reflexivity():
    rng = np.random.default_rng(239)
    assert hilbert_reflexivity_check(hilbert())
    grams = [random_spd(rng, d) for d in (2, 0, 3)]
    h = hilbert(n=3, grams=grams, structure=make_structure(3))
    assert hilbert_reflexivity_check(h)
    big = hilbert(n=200, grams=[random_spd(rng, 1 + a % 8) for a in range(200)],
                  structure=make_structure(200))
    assert hilbert_reflexivity_check(big)


def test_hilbert_reflexivity_builds_the_dual_module_once(monkeypatch):
    # M* serves both the bidual embedding and the dual grams: two
    # dual_module calls in all, M* and M**, from whichever module calls them.
    import json
    from pathlib import Path
    from rieszmod import homdual

    path = Path(__file__).parent / "data" / "module_221.json"
    h = HilbertModule(FiberModule.from_json(json.loads(path.read_text())))
    real = homdual.dual_module
    calls = []

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    for owner in (rieszmod.hilbert, homdual):
        monkeypatch.setattr(owner, "dual_module", counted)
    assert hilbert_reflexivity_check(h)
    assert len(calls) == 2
    assert calls[0] is h.module


def test_hilbert_reflexivity_catches_a_perturbed_embedding(monkeypatch):
    rng = np.random.default_rng(251)
    h = hilbert(n=4, grams=[random_spd(rng, d) for d in (2, 3, 0, 2)],
                structure=make_structure(4))
    real = rieszmod.hilbert._bidual_embed

    def perturbed(m, dual, system):
        j = real(m, dual, system)
        mats = list(j.matrices)
        mats[3] = mats[3] + np.array([[0.0, 0.0], [1e-6, 0.0]])
        return HomElement(mats, j.source, j.target)

    monkeypatch.setattr(rieszmod.hilbert, "_bidual_embed", perturbed)
    assert not hilbert_reflexivity_check(h)


def test_hilbert_reflexivity_when_v_is_l1(monkeypatch):
    # The dual of a V = L1 module pairs V = Linf into Z = L1, whose constant
    # (min mu)^(-1) = 4 exceeds 1; the check reads only the dual's grams.
    h = HilbertModule(lp_module(make_structure(2, v="l1", weights=[0.25, 0.25]), (2, 1)))
    assert h.compat_constant == 0.5
    assert hilbert_reflexivity_check(h) is True
    real = rieszmod.hilbert._bidual_embed

    def perturbed(m, dual, system):
        j = real(m, dual, system)
        mats = list(j.matrices)
        mats[0] = mats[0] + np.array([[0.0, 1e-6], [0.0, 0.0]])
        return HomElement(mats, j.source, j.target)

    monkeypatch.setattr(rieszmod.hilbert, "_bidual_embed", perturbed)
    assert hilbert_reflexivity_check(h) is False
