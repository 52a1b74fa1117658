"""Graphs, generated modules, universal factorization, transport maps."""

import math

import numpy as np
import pytest

from rieszmod import (
    BoundViolated,
    DualSystem,
    GramNorm,
    Graph,
    HomElement,
    InputError,
    InvalidStructure,
    Kind,
    LpNorm,
    ModuleElement,
    StructureHom,
    SublinearMap,
    complete,
    cotangent_module,
    dual_element,
    dual_embed,
    dual_module,
    generate_module,
    graph_gradient,
    hom_norm,
    matrix_rank,
    pairing,
    pointwise_norm,
    pullback_module,
    pushforward_hom,
    pushforward_module,
    seminorm_family,
    universal_factor,
)
from helpers import lp_module, make_structure, random_element


def path_graph(n=2, w=1.0):
    return Graph(tuple(f"v{i}" for i in range(n)),
                 tuple((i, i + 1, w) for i in range(n - 1)))


def random_graph(rng, n=5, extra=4):
    """Connected weighted graph: a random spanning tree plus extra edges."""
    edges = {}
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges[(u, v)] = float(rng.uniform(0.5, 2.0))
    while len(edges) < n - 1 + extra:
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        edges.setdefault((u, v), float(rng.uniform(0.5, 2.0)))
    return Graph(tuple(f"v{i}" for i in range(n)),
                 tuple((u, v, w) for (u, v), w in sorted(edges.items())))


# --------------------------------------------------------------------------
# Graphs
# --------------------------------------------------------------------------

def test_graph_validation():
    with pytest.raises(InvalidStructure):
        Graph(("a", "a"), ())
    with pytest.raises(InvalidStructure):
        Graph(("a", "b"), ((0, 2, 1.0),))
    with pytest.raises(InvalidStructure):
        Graph(("a", "b"), ((0, 0, 1.0),))
    with pytest.raises(InvalidStructure):
        Graph(("a", "b"), ((0, 1, 0.0),))


def test_graph_json_round_trip():
    g = Graph(("a", "b", "c"), ((0, 1, 2.0), (1, 2, 0.5)))
    back = Graph.from_json(g.to_json())
    assert back == g
    assert Graph.from_json({"vertices": ["a", "b"],
                            "edges": [{"u": "a", "v": "b"}]}).edges == ((0, 1, 1.0),)
    with pytest.raises(InputError):
        Graph.from_json({"vertices": ["a"], "edges": [{"u": "a", "v": "z"}]})
    with pytest.raises(InputError):
        Graph.from_json({"vertices": ["a", "a"], "edges": []})


def test_graph_neighbors():
    g = Graph(("a", "b", "c"), ((0, 1, 2.0), (1, 2, 0.5)))
    assert g.neighbors(1) == [(0, 2.0), (2, 0.5)]
    assert g.neighbors(0) == [(1, 2.0)]


# --------------------------------------------------------------------------
# Sublinear maps
# --------------------------------------------------------------------------

def test_graph_gradient_matrices():
    g = path_graph(2, w=4.0)
    psi = graph_gradient(g, 2.0)
    assert psi.domain_dim == 2
    assert np.array_equal(psi.matrices[0], [[-2.0, 2.0]])
    assert np.array_equal(psi.matrices[1], [[2.0, -2.0]])
    flat = graph_gradient(g, math.inf)
    assert np.array_equal(flat.matrices[0], [[-1.0, 1.0]])
    with pytest.raises(InvalidStructure):
        graph_gradient(g, 0.5)


def test_graph_gradient_rows_follow_neighbor_order():
    rng = np.random.default_rng(3)
    pairs = {tuple(sorted(map(int, e))) for e in rng.integers(0, 9, (20, 2)) if e[0] != e[1]}
    edges = tuple((u, v, float(rng.uniform(0.5, 2.0))) for u, v in sorted(pairs, key=lambda e: -e[1]))
    g = Graph(tuple("abcdefghi"), edges)
    psi = graph_gradient(g, 3.0)
    for x in range(9):
        want = np.zeros((len(g.neighbors(x)), 9))
        for r, (y, w) in enumerate(g.neighbors(x)):
            want[r, y], want[r, x] = w ** (1.0 / 3.0), -w ** (1.0 / 3.0)
        assert psi.matrices[x].tobytes() == want.tobytes()


def test_graph_gradient_evaluation():
    g = Graph(("a", "b", "c"), ((0, 1, 1.0), (1, 2, 1.0)))
    structure, gen = cotangent_module(g, 1.0)
    psi = gen.psi
    f = np.array([0.0, 1.0, 3.0])
    # p = 1: sum of absolute neighbor differences at each vertex.
    assert psi.evaluate(f).values.tolist() == [1.0, 3.0, 2.0]


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_stacked_evaluation_matches_per_atom_norms(p):
    rng = np.random.default_rng(11)
    # Vertex "e" is isolated, so its atom has no rows.
    g = Graph(("a", "b", "c", "d", "e"),
              ((0, 1, 1.5), (1, 2, 0.25), (0, 2, 2.0), (2, 3, 1.0)))
    mats = [rng.standard_normal((k, 4)) for k in (3, 0, 1, 5, 2)]
    cases = [(cotangent_module(g, p)[1].psi, 4),
             (generate_module(seminorm_family(mats, p), make_structure(5)).psi, 1)]
    for psi, empty in cases:
        for v in rng.standard_normal((20, psi.domain_dim)):
            got = psi.evaluate(v).values
            want = np.array([LpNorm(p).norm(m @ v) for m in psi.matrices])
            assert got.shape == (5,)
            assert np.allclose(got, want, rtol=1e-12, atol=0.0)
            assert got[empty] == 0.0


def test_seminorm_family_requires_common_domain():
    with pytest.raises(InvalidStructure):
        seminorm_family([np.eye(2), np.zeros((1, 3))])


@pytest.mark.parametrize("matrices", [
    [[1.0, 2.0], np.eye(2)],                       # a 1-D matrix
    [[[float("nan"), 1.0]], np.eye(2)],            # a NaN entry
    [np.ones((1, 2, 2)), np.ones((3, 2, 2))],      # 3-D arrays
    [[[float("inf"), 1.0]], np.eye(2)],            # an infinite entry
], ids=["1d", "nan", "3d", "inf"])
def test_seminorm_family_refuses_malformed_matrices(matrices):
    with pytest.raises(InvalidStructure):
        seminorm_family(matrices)


def test_sublinear_map_is_derived_from_its_matrices():
    psi = SublinearMap((np.array([[1.0, -1.0]]), np.zeros((0, 2))), 1.0)
    assert psi.domain_dim == 2
    assert all(not m.flags.writeable for m in psi.matrices)
    generate_module(psi, make_structure(2))
    assert psi.evaluate([3.0, 1.0]).values.tolist() == [2.0, 0.0]


# --------------------------------------------------------------------------
# Generated modules
# --------------------------------------------------------------------------

def test_generate_two_path_oracle():
    structure, gen = cotangent_module(path_graph(2), 2.0)
    assert gen.module.dims == (1, 1)
    df = gen.generator_map([0.0, 1.0])
    assert pointwise_norm(df).values.tolist() == [1.0, 1.0]


def test_generated_norm_reproduces_psi():
    rng = np.random.default_rng(151)
    g = random_graph(rng)
    for p in (1.0, 2.0, 3.0):
        structure, gen = cotangent_module(g, p)
        for _ in range(50):
            f = rng.standard_normal(5)
            lhs = pointwise_norm(gen.generator_map(f))
            rhs = gen.psi.evaluate(f)
            assert lhs.deviation(rhs) <= 1e-9 * max(1.0, rhs.sup_abs)


def test_generator_images_span_every_fiber():
    rng = np.random.default_rng(157)
    structure, gen = cotangent_module(random_graph(rng), 2.0)
    images = gen.generator_images()
    for a, fiber in enumerate(gen.module.fibers):
        stacked = np.stack([img.vectors[a] for img in images])
        assert matrix_rank(stacked) == fiber.dim


def test_generate_zero_seminorm():
    psi = seminorm_family([np.zeros((2, 3)), np.zeros((0, 3))])
    gen = generate_module(psi, make_structure(2))
    assert gen.module.dims == (0, 0)
    assert all(k.shape == (3, 3) for k in gen.kernels)
    v = gen.generator_map([1.0, 2.0, 3.0])
    assert pointwise_norm(v).values.tolist() == [0.0, 0.0]


def test_generator_map_checks_length():
    structure, gen = cotangent_module(path_graph(2), 2.0)
    with pytest.raises(InputError):
        gen.generator_map([1.0])


def test_generated_fibers_exact_on_integer_data():
    # Kept seminorm rows become exact basis rows of the factor matrix, so
    # integer graphs give integer gram matrices at p = 2.
    structure, gen = cotangent_module(path_graph(3), 2.0)
    assert isinstance(gen.module.fibers[1].norm, GramNorm)
    assert gen.module.fibers[1].norm.gram.tolist() == [[1.0, 0.0], [0.0, 1.0]]


# --------------------------------------------------------------------------
# Universal factorization
# --------------------------------------------------------------------------

def test_universal_factor_identity_and_doubling():
    structure, gen = cotangent_module(path_graph(3), 2.0)
    one = structure.space.one_fn()
    ident = universal_factor(gen, gen.module, gen.generator_map, one)
    assert all(np.allclose(m, np.eye(m.shape[0])) for m in ident.matrices)
    double = universal_factor(
        gen, gen.module, lambda v: gen.generator_map(v).scale(2.0), one.scale(2.0))
    rng = np.random.default_rng(163)
    for _ in range(20):
        f = rng.standard_normal(3)
        lhs = double.apply(gen.generator_map(f))
        rhs = gen.generator_map(f).scale(2.0)
        assert all(np.allclose(a, b) for a, b in zip(lhs.vectors, rhs.vectors))


def test_universal_factor_zero_map():
    structure, gen = cotangent_module(path_graph(2), 2.0)
    target = lp_module(structure, (1, 1))
    zero = universal_factor(
        gen, target, lambda v: target.zero_element(), structure.space.zero_fn())
    assert all(np.allclose(m, 0.0) for m in zero.matrices)


def test_universal_factor_rejects_undominated_map():
    structure, gen = cotangent_module(path_graph(2), 2.0)
    one = structure.space.one_fn()
    with pytest.raises(BoundViolated):
        universal_factor(
            gen, gen.module, lambda v: gen.generator_map(v).scale(2.0), one)


def test_universal_factor_rejects_kernel_violation():
    # psi(v) = |v0 + v1| is blind to (1, -1); a candidate map that separates
    # e0 from e1 passes the basis bound but cannot factor through psi.
    structure = make_structure(1)
    psi = seminorm_family([np.array([[1.0, 1.0]])], p=1.0)
    gen = generate_module(psi, structure)
    target = lp_module(structure, (1,))
    g = ModuleElement([[1.0]], target)

    def s(v):
        return g.scale(float(v[0]) - float(v[1]))

    with pytest.raises(BoundViolated):
        universal_factor(gen, target, s, structure.space.one_fn())


def test_universal_factor_is_well_defined_on_generators():
    rng = np.random.default_rng(167)
    structure, gen = cotangent_module(random_graph(rng), 2.0)
    target = gen.module
    factor = universal_factor(
        gen, target, lambda v: gen.generator_map(v).scale(-1.0),
        structure.space.one_fn())
    for _ in range(50):
        f = rng.standard_normal(5)
        lhs = factor.apply(gen.generator_map(f))
        rhs = gen.generator_map(f).scale(-1.0)
        assert all(np.allclose(a, b, atol=1e-9) for a, b in zip(lhs.vectors, rhs.vectors))


def test_universal_factor_across_structure_hom():
    structure, gen = cotangent_module(path_graph(2), 2.0)
    target_structure = make_structure(3, u="Linf")
    phi = StructureHom(structure, target_structure, (0, 1, 1))
    target = lp_module(target_structure, (1, 1, 1))

    def s(v):
        grad = gen.generator_map(v)
        return ModuleElement([grad.vectors[a] for a in (0, 1, 1)], target)

    factor = universal_factor(gen, target, s, target_structure.space.one_fn(), phi=phi)
    f = np.array([1.0, 4.0])
    got = factor.apply(gen.generator_map(f))
    assert all(np.allclose(a, b) for a, b in zip(got.vectors, s(f).vectors))


def test_universal_factor_requires_hom_for_foreign_target():
    structure, gen = cotangent_module(path_graph(2), 2.0)
    target = lp_module(make_structure(3), (1, 1, 1))
    with pytest.raises(InvalidStructure):
        universal_factor(gen, target, lambda v: target.zero_element(),
                         target.space.zero_fn())


# --------------------------------------------------------------------------
# Pushforward / pullback / completion
# --------------------------------------------------------------------------

def test_pushforward_duplicates_fibers_and_preserves_norms():
    rng = np.random.default_rng(173)
    src = make_structure(2)
    tgt = make_structure(3, weights=[1.0, 2.0, 4.0])
    m = lp_module(src, (2, 3), p=1.5)
    phi = StructureHom(src, tgt, (0, 0, 1))
    pm, pf = pushforward_module(phi, m)
    assert pm.dims == (2, 2, 3)
    for _ in range(50):
        v = random_element(rng, m)
        pushed = pf.apply(v)
        lhs = pointwise_norm(pushed)
        rhs = phi.apply(pointwise_norm(v))
        assert lhs.equals(rhs)


def test_pushforward_functor_laws():
    a = make_structure(2)
    b = make_structure(3)
    c = make_structure(2, weights=[3.0, 1.0])
    m = lp_module(a, (1, 2))
    phi = StructureHom(a, b, (1, 0, 1))
    chi = StructureHom(b, c, (2, 0))
    pm1, pf1 = pushforward_module(phi, m)
    pm2, pf2 = pushforward_module(chi, pm1)
    pmc, pfc = pushforward_module(chi.compose(phi), m)
    assert pm2.dims == pmc.dims
    assert pm2.fibers == pmc.fibers
    v = ModuleElement([[1.0], [2.0, 3.0]], m)
    assert all(np.array_equal(x, y) for x, y in
               zip(pf2.apply(pf1.apply(v)).vectors, pfc.apply(v).vectors))
    ident = StructureHom.identity(a)
    pid, pfid = pushforward_module(ident, m)
    assert pid.fibers == m.fibers
    assert all(np.array_equal(x, np.eye(x.shape[0])) for x in pfid.matrices)


def test_pushforward_hom_transport():
    rng = np.random.default_rng(179)
    src = make_structure(2)
    tgt = make_structure(3)
    m = lp_module(src, (2, 2))
    t = HomElement([rng.standard_normal((2, 2)) for _ in range(2)], m, m)
    phi = StructureHom(src, tgt, (1, 1, 0))
    pm, pf = pushforward_module(phi, m)
    pt = pushforward_hom(phi, t, pm, pm)
    v = random_element(rng, m)
    lhs = pt.apply(pf.apply(v))
    rhs = pf.apply(t.apply(v))
    assert all(np.array_equal(x, y) for x, y in zip(lhs.vectors, rhs.vectors))


def test_pushforward_rejects_wrong_source():
    m = lp_module(make_structure(2), (1, 1))
    other = make_structure(3)
    phi = StructureHom(other, other, (0, 1, 2))
    with pytest.raises(InvalidStructure):
        pushforward_module(phi, m)


def test_complete_is_identity_with_universal_property():
    m = lp_module(make_structure(2), (2, 1))
    done, iota = complete(m)
    assert done is m
    assert all(np.array_equal(a, np.eye(a.shape[0])) for a in iota.matrices)
    # Any map into a complete module factors through iota as itself.
    t = HomElement([np.eye(2) * 2.0, np.eye(1)], m, m)
    assert all(np.array_equal(a, b) for a, b in
               zip(t.compose(iota).matrices, t.matrices))


def test_pullback_identity_and_compression():
    src = make_structure(2, weights=[1.0, 2.0])
    m = lp_module(src, (2, 1))
    pm, pf, c = pullback_module([0, 1], m, src)
    assert c == 1.0
    assert pm.fibers == m.fibers

    coarse = make_structure(1, weights=[1.0])
    mc = lp_module(coarse, (2,))
    fine = make_structure(3, weights=[1.0, 2.0, 0.5])
    pm, pf, c = pullback_module([0, 0, 0], mc, fine)
    assert c == 3.5
    assert pm.dims == (2, 2, 2)


def test_pullback_norm_is_precomposition():
    rng = np.random.default_rng(181)
    base = make_structure(2)
    m = lp_module(base, (2, 3), p=3.0)
    fine = make_structure(4)
    point_map = [1, 0, 1, 1]
    pm, pf, _ = pullback_module(point_map, m, fine)
    for _ in range(30):
        v = random_element(rng, m)
        pulled = pointwise_norm(pf.apply(v)).values
        direct = pointwise_norm(v).values
        assert pulled.tolist() == [direct[x] for x in point_map]


# --------------------------------------------------------------------------
# Dual embedding along a hom
# --------------------------------------------------------------------------

def test_dual_embed_identity_matrices_and_pairing():
    rng = np.random.default_rng(191)
    src = make_structure(2)
    tgt = make_structure(3)
    m = lp_module(src, (2, 2), p=2.0)
    phi = StructureHom(src, tgt, (0, 1, 1))
    eta = dual_embed(phi, m)
    assert all(np.array_equal(a, np.eye(2)) for a in eta.matrices)
    system = DualSystem.default(src)
    pm, pf = pushforward_module(phi, m)
    for _ in range(30):
        v = random_element(rng, m)
        rows = [rng.standard_normal(2) for _ in range(2)]
        omega = dual_element(m, rows, system)
        # Transport the dual vector along phi, embed it, and pair with the
        # pushforward of v; the result must be the pushforward of <omega, v>.
        pushed_omega = ModuleElement(
            [rows[a] for a in phi.atom_map], eta.source)
        lhs = pairing_values(eta.apply(pushed_omega), pf.apply(v))
        rhs = phi.apply(pairing(omega, v)).values
        assert np.allclose(lhs, rhs, atol=1e-12)


def pairing_values(omega_vec, v):
    return np.array([float(w @ x) for w, x in zip(omega_vec.vectors, v.vectors)])


def test_dual_embed_is_isometric():
    rng = np.random.default_rng(193)
    src = make_structure(2)
    tgt = make_structure(4)
    phi = StructureHom(src, tgt, (1, 0, 1, 0))
    for p in (1.0, 2.0, math.inf):
        m = lp_module(src, (2, 3), p=p)
        eta = dual_embed(phi, m)
        for _ in range(20):
            w = random_element(rng, eta.source)
            lhs = pointwise_norm(eta.apply(w))
            rhs = pointwise_norm(w)
            assert lhs.deviation(rhs) <= 1e-9 * max(1.0, rhs.sup_abs)


def test_dual_embed_zero_is_zero():
    src = make_structure(1)
    m = lp_module(src, (2,))
    phi = StructureHom(src, make_structure(2), (0, 0))
    eta = dual_embed(phi, m)
    out = eta.apply(eta.source.zero_element())
    assert pointwise_norm(out).values.tolist() == [0.0, 0.0]


# --------------------------------------------------------------------------
# Cotangent modules
# --------------------------------------------------------------------------

def test_cotangent_structure_kinds():
    structure, gen = cotangent_module(path_graph(3), 2.5, weights=[1.0, 2.0, 1.0])
    assert structure.u_kind == Kind("Linf")
    assert structure.v_kind == Kind("Lp", 2.5)
    assert structure.space.mu.tolist() == [1.0, 2.0, 1.0]
    flat, _ = cotangent_module(path_graph(2), math.inf)
    assert flat.u_kind == Kind("Linf") and flat.v_kind == Kind("Linf")


def test_faithful_class_construction_matches_generated_module():
    # Replay the construction with explicit equivalence classes: represent
    # the class of f at atom a by the raw seminorm image M_a f, normed by
    # l^p.  The factor matrix of the generated fiber is then an isometric
    # isomorphism onto that class representation.
    rng = np.random.default_rng(197)
    g = Graph(("a", "b", "c"), ((0, 1, 2.0), (1, 2, 1.0), (0, 2, 0.5)))
    for p in (1.0, 2.0, 3.0):
        structure, gen = cotangent_module(g, p)
        psi = gen.psi
        for a in range(3):
            m_a = psi.matrices[a]
            lift = gen.lifts[a]
            # J x = M_a f for x = lift f: solve J on the image of the lift.
            j = np.linalg.lstsq(
                (lift @ np.eye(3)).T, (m_a @ np.eye(3)).T, rcond=None)[0].T
            assert matrix_rank(j) == gen.module.fibers[a].dim
            for _ in range(50):
                f = rng.standard_normal(3)
                x = lift @ f
                # Well defined: J only sees the class of f.
                assert np.allclose(j @ x, m_a @ f, atol=1e-9)
                # Isometric: the class norm is the fiber norm.
                class_norm = float(np.linalg.norm(m_a @ f, ord=p))
                fiber_norm = gen.module.fibers[a].norm.norm(x)
                assert abs(class_norm - fiber_norm) <= 1e-9 * max(1.0, class_norm)
