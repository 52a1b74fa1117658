"""Graphs, generated modules, universal factorization, transport maps."""

import json
import math
import pathlib

import numpy as np
import pytest

from rieszmod import (
    BoundViolated,
    DualSystem,
    Fiber,
    FiberModule,
    GramNorm,
    Graph,
    HomElement,
    ImageLpNorm,
    InputError,
    InvalidStructure,
    Kind,
    LpNorm,
    ModuleElement,
    StructureHom,
    SublinearMap,
    UnsupportedHom,
    complete,
    cotangent_module,
    dual_element,
    dual_embed,
    dual_module,
    dual_vector_norm,
    generate_module,
    graph_gradient,
    hom_norm,
    matrix_rank,
    norming_functional,
    pairing,
    pointwise_norm,
    pullback_module,
    pushforward_hom,
    pushforward_module,
    seminorm_family,
    universal_factor,
)
from rieszmod.modules import kernel_basis
from helpers import (
    count_calls,
    count_svd_calls,
    lp_module,
    make_structure,
    random_element,
    sequential_independent_rows,
)


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


def test_graph_gradient_keeps_the_stack_it_wrote(monkeypatch):
    # psi's matrices are read-only views of the one row stack graph_gradient
    # allocates and fills, not of a second copy of it.
    allocated = []
    real = np.zeros

    def spy(*args, **kwargs):
        allocated.append(real(*args, **kwargs))
        return allocated[-1]

    monkeypatch.setattr(np, "zeros", spy)
    g = Graph(("a", "b", "c", "d"), ((0, 1, 1.0), (1, 2, 2.0), (0, 2, 0.5)))
    _, gen = cotangent_module(g, 2.0)
    monkeypatch.undo()
    (stack,) = [z for z in allocated if z.shape == (6, 4)]
    assert not stack.flags.writeable
    for a in range(3):
        assert np.shares_memory(gen.psi.matrices[a], stack)
    assert gen.psi.matrices[3].shape == (0, 4)


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
    gen = generate_module(psi, make_structure(2))
    assert gen.psi.evaluate([3.0, 1.0]).values.tolist() == [2.0, 0.0]
    with pytest.raises(InvalidStructure):
        psi.evaluate([3.0, 1.0])  # generating a module leaves psi unbound


@pytest.mark.parametrize("matrices, message", [
    ([[[float("nan"), 1.0]], np.ones((1, 2, 2))], "seminorm matrix 0 has a NaN or infinite entry"),
    ([np.eye(2), [[1.0, float("inf")]], "x"], "seminorm matrix 1 has a NaN or infinite entry"),
    ([np.eye(2), np.ones((1, 3)), [[float("nan")] * 3]],
     "seminorm matrix 2 has a NaN or infinite entry"),
    ([np.eye(2), np.ones((1, 3))], "all seminorm matrices must share the domain dimension"),
    ([np.eye(2), np.ones((1, 2, 2)), [[float("nan"), 1.0]]],
     "seminorm matrix 1 must be 2-D, got shape (1, 2, 2)"),
], ids=["nan-then-3d", "inf-then-not-numbers", "nan-and-domain", "domain", "3d-then-nan"])
def test_refusals_name_the_first_faulty_matrix(matrices, message):
    with pytest.raises(InvalidStructure) as info:
        seminorm_family(matrices)
    assert info.value.message == message


def ring_with_chords(n, rng):
    """A ring plus a chord from every even vertex a third of the way round."""
    pairs = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
    pairs |= {tuple(sorted((i, (i + n // 3) % n))) for i in range(0, n, 2)}
    return Graph(tuple(f"v{i}" for i in range(n)),
                 tuple((a, b, float(rng.uniform(0.5, 2.0))) for a, b in sorted(pairs)))


def test_psi_rows_are_stored_once():
    # The matrices are read-only views of one row stack, and a module whose
    # atoms all keep every row lifts through views of that same stack.
    rng = np.random.default_rng(629)
    mats = [rng.standard_normal((k, 3)) for k in (2, 0, 3, 1)]
    for psi in (seminorm_family(mats, 3.0), graph_gradient(ring_with_chords(40, rng), 2.0)):
        stack = psi.matrices[0].base
        assert all(m.base is stack and not m.flags.writeable for m in psi.matrices)
    _, gen = cotangent_module(ring_with_chords(500, rng), 2.0)
    assert all(np.shares_memory(lift, m) for lift, m in zip(gen.lifts, gen.psi.matrices))
    f = rng.standard_normal(500)
    df = gen.generator_map(f)
    assert np.array_equal(df.flat, np.concatenate([lift @ f for lift in gen.lifts]))


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_generator_map_matches_per_atom_lifts_on_rank_deficient_atoms(p):
    rng = np.random.default_rng(631)
    mats = [rng.standard_normal((k, 5)) for k in (4, 0, 3, 6, 2)]
    mats[0][3] = mats[0][0] - 2.0 * mats[0][2]     # rank 3 of 4 rows
    mats[2][1] = 0.0                                # rank 2 of 3 rows
    mats[3] = mats[3][:, :2] @ rng.standard_normal((2, 5))   # rank 2 of 6 rows
    gen = generate_module(seminorm_family(mats, p), make_structure(5))
    assert gen.module.dims == (3, 0, 2, 2, 2)
    stack = gen.lifts[0].base
    assert all(lift.base is stack and not lift.flags.writeable for lift in gen.lifts)
    for v in rng.standard_normal((10, 5)):
        got = gen.generator_map(v).vectors
        for lift, x in zip(gen.lifts, got):
            want = lift @ v
            assert np.allclose(x, want, rtol=1e-12, atol=1e-12 * np.abs(want).max(initial=0.0))


def test_generated_modules_keep_their_own_space():
    psi = seminorm_family([np.eye(2), np.eye(2)])
    g1 = generate_module(psi, make_structure(2))
    g2 = generate_module(psi, make_structure(2, weights=(1.0, 2.0)))
    assert g1.module.space != g2.module.space
    assert g1.psi.evaluate([1.0, 0.0]).space == g1.module.space
    assert g2.psi.evaluate([1.0, 0.0]).space == g2.module.space
    # universal_factor compares psi's values with bounds on the module's space.
    factor = universal_factor(g1, g1.module, g1.generator_map, g1.module.space.one_fn())
    assert factor.target is g1.module


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


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("scale", [1e200, 1e-170])
def test_generated_norm_reproduces_psi_out_of_the_power_range(p, scale):
    # |v|_p at atom 0 has a power sum outside the double range; psi and the
    # fiber norm both rescale it.  Atom 1's row is rank 0 by RANK_RTOL.
    gen = generate_module(seminorm_family([np.eye(2), [[1e-200, 0.0]]], p=p), make_structure(2))
    v = scale * np.ones(2)
    psi = gen.psi.evaluate(v).values[0]
    assert math.isclose(psi, scale * 2.0 ** (1.0 / p), rel_tol=1e-12)
    assert math.isclose(pointwise_norm(gen.generator_map(v)).values[0], psi, rel_tol=1e-12)


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


def test_generated_kernels_are_built_on_first_read():
    rng = np.random.default_rng(613)
    graph = random_graph(rng, n=12, extra=6)
    isolated = Graph(graph.vertices + ("x",), graph.edges)
    mats = [rng.standard_normal((k, 4)) for k in (0, 2, 5, 3)]
    mats[2][4] = mats[2][0] + mats[2][1]
    for p in (1.0, 2.0, 3.0):
        for gen in (cotangent_module(isolated, p)[1],
                    generate_module(seminorm_family(mats, p), make_structure(4))):
            assert "kernels" not in gen.__dict__
            kernels = gen.kernels
            assert "kernels" in gen.__dict__
            assert gen.kernels is kernels
            for m, kern in zip(gen.psi.matrices, kernels):
                want = kernel_basis(m)
                assert kern.shape == want.shape and kern.tobytes() == want.tobytes()


def test_full_row_rank_atoms_keep_every_row():
    # Graph atoms without parallel edges are of full row rank: the lift is
    # the seminorm matrix, as a greedy choice of independent rows would
    # keep, and the fiber is |x|_p, one shared LpNorm(p) fiber per row count.
    rng = np.random.default_rng(617)
    graph = random_graph(rng, n=15, extra=10)
    for p in (1.0, 2.0, 3.0, math.inf):
        _, gen = cotangent_module(graph, p)
        shared = {}
        for m, lift, fiber in zip(gen.psi.matrices, gen.lifts, gen.module.fibers):
            assert sequential_independent_rows(m) == list(range(m.shape[0]))
            assert lift.tobytes() == m.tobytes()
            assert fiber == Fiber(m.shape[0], LpNorm(p))
            assert shared.setdefault(m.shape[0], fiber) is fiber


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_full_row_rank_atoms_build_no_factor(monkeypatch, p):
    # No identity factor, no identity gram to validate and no solve: the
    # factor loop sees rank-deficient atoms only, and this graph has none.
    rng = np.random.default_rng(618)
    graph = random_graph(rng, n=40, extra=60)
    calls = [count_calls(monkeypatch, np, "eye"),
             count_calls(monkeypatch, np.linalg, "eigvalsh"),
             count_calls(monkeypatch, np.linalg, "lstsq")]
    _, gen = cotangent_module(graph, p)
    assert [c[0] for c in calls] == [0, 0, 0]
    assert {type(f.norm) for f in gen.module.fibers} == {LpNorm}
    assert len({id(f) for f in gen.module.fibers}) == len(set(gen.module.dims))


def test_cotangent_module_makes_one_svd_call_per_row_count(monkeypatch):
    rng = np.random.default_rng(619)
    graph = random_graph(rng, n=150, extra=150)
    degrees = {len(graph.neighbors(x)) for x in range(150)} - {0}
    calls = count_svd_calls(monkeypatch)
    cotangent_module(graph, 3.0)
    assert 0 < calls[0] <= len(degrees)


def test_wide_modules_check_grams_per_size_and_push_forward_without_eye(monkeypatch):
    # 2,000 atoms: one eigvalsh per gram size for FiberModule.from_json and
    # dual_module, and no per-atom identity matrix for pushforward_module.
    rng = np.random.default_rng(623)
    n = 2000
    fibers = []
    for a in range(n):
        d = 1 + a % 4
        if a % 3 == 0:
            fibers.append({"dim": d, "norm": {"gram": (np.eye(d) + 0.1).tolist()}})
        else:
            fibers.append({"dim": d - 1, "norm": {"lp": (1.0, 2.0)[a % 2]}})
    obj = {"structure": make_structure(n).to_json(), "fibers": fibers}
    eig = count_calls(monkeypatch, np.linalg, "eigvalsh")
    m = FiberModule.from_json(obj)
    assert 0 < eig[0] <= 4
    eig[0] = 0
    dual_module(m, DualSystem.default(m.structure))
    assert 0 < eig[0] <= 4
    eye = count_calls(monkeypatch, np, "eye")
    phi = StructureHom(m.structure, make_structure(n), tuple(rng.integers(0, n, n).tolist()))
    pm, pf = pushforward_module(phi, m)
    assert eye[0] == 0
    v = ModuleElement._from_flat(rng.standard_normal(int(m._offsets[-1])), m)
    assert np.array_equal(pf.apply(v).flat, v.flat[np.concatenate([
        np.arange(m._offsets[a], m._offsets[a + 1]) for a in phi.atom_map])])


@pytest.mark.parametrize("m", [
    [[1e-5, 0.0], [0.0, 1.0], [1.0, 0.0]],
    [[1.0, 0.0], [1.0, 1e-6], [0.0, 1.0]],
])
def test_generate_module_keeps_large_rows_of_rank_deficient_atoms(m):
    # ||M x||_2 is a norm on R^2 with singular values near 1; a tiny kept
    # row would make the gram fiber's condition number 1e10 or worse.
    m = np.array(m)
    gen = generate_module(seminorm_family([m], 2.0), make_structure(1))
    fiber, lift = gen.module.fibers[0], gen.lifts[0]
    assert fiber.dim == matrix_rank(lift) == 2
    assert np.linalg.cond(fiber.norm.gram) < 10.0
    for v in np.eye(2):
        got = pointwise_norm(gen.generator_map(v)).values[0]
        assert abs(got - np.linalg.norm(m @ v)) <= 1e-12


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_generated_fiber_dim_is_the_seminorm_rank(p):
    # The tiny row is below RANK_RTOL next to the large doubled one: the
    # fiber keeps one row, and the kernel spans the other two directions.
    m = np.array([[2.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.5e-9, 0.0]])
    gen = generate_module(seminorm_family([m], p), make_structure(1))
    assert gen.module.dims == (matrix_rank(m),) == (1,)
    assert gen.module.dims[0] + gen.kernels[0].shape[0] == 3


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_rank_deficient_atoms_of_huge_rows_keep_their_largest_rows(p):
    # Squared norms of these rows overflow; the pivoting runs on the rows
    # scaled by a power of two, which picks the same rows.
    m = np.array([[1e200, 0.0, 0.0], [1e200, 0.0, 0.0], [0.0, 3e200, 0.0], [0.0, 0.0, 1.0]])
    gen = generate_module(seminorm_family([m], p), make_structure(1))
    assert gen.lifts[0].tolist() == [[1e200, 0.0, 0.0], [0.0, 3e200, 0.0]]


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_huge_parallel_edges_split_every_vertex_into_fiber_and_kernel(p):
    # At p = 1 vertex a's two gradient rows, each 2e308 long, have a
    # largest singular value that overflows; its null space read 3 rows
    # next to a 1-dim fiber.
    graph = Graph.from_json(json.loads((DATA / "graph_huge_parallel.json").read_text()))
    _, gen = cotangent_module(graph, p)
    for dim, kernel in zip(gen.module.dims, gen.kernels):
        assert kernel.shape[1] == 3
        assert dim + kernel.shape[0] == 3


def test_generator_map_checks_length():
    structure, gen = cotangent_module(path_graph(2), 2.0)
    with pytest.raises(InputError):
        gen.generator_map([1.0])


def test_generated_fibers_exact_on_integer_data():
    # A full-row-rank atom gets the lp fiber itself.  Kept seminorm rows
    # become exact basis rows of a rank-deficient atom's factor matrix: at
    # vertex a, the parallel edges of weights 4, 1, 1, 1, 1 give the kept
    # row 2 (e_b - e_a) and four halves of it, so the gram is exactly 2.
    structure, gen = cotangent_module(path_graph(3), 2.0)
    assert gen.module.fibers[1] == Fiber(2, LpNorm(2.0))
    parallel = Graph(("a", "b", "c"), ((0, 1, 4.0),) + ((0, 1, 1.0),) * 4 + ((1, 2, 1.0),))
    structure, gen = cotangent_module(parallel, 2.0)
    assert gen.module.dims == (1, 2, 1)
    assert [type(f.norm) for f in gen.module.fibers] == [GramNorm, GramNorm, LpNorm]
    assert gen.module.fibers[0].norm.gram.tolist() == [[2.0]]


# --------------------------------------------------------------------------
# Lowest-terms fibers against the identity factor they replace
# --------------------------------------------------------------------------

DATA = pathlib.Path(__file__).parent / "data"


def identity_factor_norm(r, p):
    """The fiber norm a full-row-rank atom had as the factor R = I."""
    return GramNorm(np.eye(r)) if p == 2.0 else ImageLpNorm(np.eye(r), p)


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, math.inf])
def test_cotangent_duals_equal_the_identity_factor_duals(p):
    # Without parallel edges every fiber is lp, so the dual exists at every p.
    rng = np.random.default_rng(629)
    structure, gen = cotangent_module(random_graph(rng, n=30, extra=40), p)
    dual = dual_module(gen.module, DualSystem.default(structure))
    for fiber, dual_fiber in zip(gen.module.fibers, dual.fibers):
        assert isinstance(dual_fiber.norm, LpNorm) and dual_fiber.dim == fiber.dim
        for row in rng.standard_normal((3, fiber.dim)):
            want = dual_vector_norm(identity_factor_norm(fiber.dim, p), row)
            assert abs(dual_fiber.norm.norm(row) - want) <= 1e-12 * want


def test_dual_of_a_cotangent_module_with_a_parallel_edge():
    # The doubled edge v-w makes v and w rank-deficient: image-l3 fibers at
    # p = 3, refused at the first of them; gram fibers at p = 2, inverted.
    graph = Graph(("u", "v", "w", "x"), ((0, 1, 1.0), (1, 2, 1.0), (1, 2, 2.0), (2, 3, 1.0)))
    structure, gen = cotangent_module(graph, 3.0)
    with pytest.raises(UnsupportedHom, match=r"^atom 1 \('v'\) has an image-l3 fiber"):
        dual_module(gen.module, DualSystem.default(structure))
    structure, gen = cotangent_module(graph, 2.0)
    dual = dual_module(gen.module, DualSystem.default(structure))
    assert dual.dims == gen.module.dims == (1, 2, 2, 1)
    for fiber, dual_fiber in zip(gen.module.fibers, dual.fibers):
        if isinstance(fiber.norm, GramNorm):
            assert np.allclose(dual_fiber.norm.gram @ fiber.norm.gram, np.eye(2), atol=1e-12)
        else:
            assert dual_fiber == fiber == Fiber(1, LpNorm(2.0))


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_df_is_bit_equal_to_the_identity_factor_norm(p):
    # Full-rank atoms against their old fiber norm, rank-deficient ones
    # (the parallel edges of graph_huge_parallel.json) against their own.
    rng = np.random.default_rng(631)
    graphs = [Graph.from_json(json.loads(path.read_text()))
              for path in sorted(DATA.glob("*.json")) if "edges" in path.read_text()]
    assert len(graphs) == 2
    graphs += [random_graph(rng, n=40, extra=60), path_graph(5, w=3.0)]
    for graph in graphs:
        _, gen = cotangent_module(graph, p)
        n = len(graph.vertices)
        for f in (rng.uniform(0.0, 1.0, n), rng.integers(-3, 4, n).astype(float)):
            df = gen.generator_map(f)
            got = pointwise_norm(df).values
            for a, (fiber, v) in enumerate(zip(gen.module.fibers, df.vectors)):
                old = identity_factor_norm(fiber.dim, p) if type(fiber.norm) is LpNorm else fiber.norm
                assert got[a].tobytes() == np.float64(old.norm(v)).tobytes()


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_cotangent_hom_norms_take_closed_forms(monkeypatch, p):
    # lp fibers of at most 16 dimensions: exact vertex maxima, no power method.
    from rieszmod import homdual

    def refuse(*args):
        raise AssertionError("power method")

    monkeypatch.setattr(homdual, "_power_norms", refuse)
    rng = np.random.default_rng(637)
    m = cotangent_module(random_graph(rng, n=40, extra=60), p)[1].module
    assert max(m.dims) <= 16
    assert np.all(hom_norm(HomElement.identity(m)).values == 1.0)
    t = HomElement([rng.standard_normal((d, d)) for d in m.dims], m, m)
    assert np.all(hom_norm(t).values > 0.0)


def hub_graph(rng):
    """Two hubs of degree 50 and random chords among the other vertices.

    Hub 0 also has parallel edges to vertices 1 and 2 (52 rows of rank 50,
    so an image-lp or gram fiber of dimension 50); hub 79 has none (an lp
    fiber of dimension 50).
    """
    edges = [(0, y) for y in range(1, 51)] + [(0, 1), (0, 2)]
    edges += [(y, 79) for y in range(29, 79)]
    while len(edges) < 160:
        u, v = sorted(rng.choice(np.arange(1, 79), size=2, replace=False).tolist())
        edges.append((u, v))
    return Graph(tuple(f"v{i}" for i in range(80)),
                 tuple((u, v, float(rng.uniform(0.5, 2.0))) for u, v in edges))


def module_gradient(gen, mu, f, power):
    """R^T (mu |df|^power omega), R the lifts' row stack and omega the
    norming functional of df."""
    df = gen.generator_map(f)
    omega = norming_functional(df)
    weight = mu * pointwise_norm(df).values ** power
    return np.concatenate(gen.lifts).T @ (np.repeat(weight, gen.module.dims) * omega.flat)


@pytest.mark.parametrize("p, ties", [
    (1.5, False), (2.0, False), (3.0, False), (7.0, False),
    pytest.param(1.5, True, marks=pytest.mark.xfail(
        strict=True, reason="known defect: at p < 2 the inexact least-squares factor of"
        " a parallel edge with equal ends moves the norming functional by ~1e-8")),
    (2.0, True), (3.0, True), (7.0, True),
])
def test_cheeger_energy_gradient_is_the_graph_p_laplacian(p, ties):
    # E(f) = (1/p) sum_x mu_x |df|(x)^p has the gradient R^T(mu |df|^(p-1) omega),
    # which must be sum_y w_xy |f(y) - f(x)|^(p-2) (f(y) - f(x)), each edge
    # counted at both its ends and weighted by the mass of the end owning the row.
    # With ties (f in half-integers, and f equal at the ends of the parallel
    # edges) some edges have equal ends.
    rng = np.random.default_rng(641)
    graph = hub_graph(rng)
    mu = rng.uniform(0.5, 2.0, 80)
    structure, gen = cotangent_module(graph, p, weights=mu)
    assert max(gen.module.dims) == 50
    assert {type(gen.module.fibers[0].norm), type(gen.module.fibers[79].norm)} == {
        GramNorm if p == 2.0 else ImageLpNorm, LpNorm}
    mu = structure.space.mu
    u, v, w = (np.array(c) for c in zip(*graph.edges))
    f = rng.integers(-2, 3, 80) * 0.5 if ties else rng.standard_normal(80)
    if ties:
        f[[1, 2]] = f[0]
    # scale bounds the terms the module side sums at each vertex: a row
    # w^(1/p) (e_y - e_x) times mu_x |df|(x)^(p-1) times |omega| <= 1.
    weight = mu * pointwise_norm(gen.generator_map(f)).values ** (p - 1.0)
    laplacian, scale = np.zeros(80), np.zeros(80)
    for x, y in ((u, v), (v, u)):
        d = f[y] - f[x]
        t = mu[x] * w * np.sign(d) * np.abs(d) ** (p - 1.0)
        np.add.at(laplacian, y, t)
        np.add.at(laplacian, x, -t)
        np.add.at(scale, y, weight[x] * w ** (1.0 / p))
        np.add.at(scale, x, weight[x] * w ** (1.0 / p))
    got = module_gradient(gen, mu, f, p - 1.0)
    assert np.all(np.abs(got - laplacian) <= 1e-12 * scale)


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_norming_functionals_give_subgradients_of_the_energy(p):
    # At p in {1, inf} the energy E(f) = sum_x mu_x |df|(x) is not smooth;
    # L = R^T(mu omega) must satisfy E(f + g) >= E(f) + <L, g>.
    rng = np.random.default_rng(643)
    graph = hub_graph(rng)
    mu = rng.uniform(0.5, 2.0, 80)
    structure, gen = cotangent_module(graph, p, weights=mu)
    mu = structure.space.mu

    def energy(f):
        return float(mu @ pointwise_norm(gen.generator_map(f)).values)

    ties = rng.integers(-2, 3, 80).astype(float)
    ties[[1, 2]] = ties[0]   # kinks on the parallel edges too
    for f in (rng.standard_normal(80), ties):
        sub = module_gradient(gen, mu, f, 0.0)
        for scale in (1e-3, 1.0, 1e3):
            for g in rng.standard_normal((5, 80)) * scale:
                lhs, rhs = energy(f + g), energy(f) + sub @ g
                assert lhs >= rhs - 1e-12 * (abs(lhs) + abs(rhs))

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


def test_universal_factor_into_zero_dimensional_fibers():
    # A target atom of dimension 0 over a source fiber of dimension 1 or 2:
    # the factor has a 0-row matrix there and no residual to check.
    structure, gen = cotangent_module(path_graph(3), 2.0)
    target = lp_module(structure, (0, 1, 0))
    zero = universal_factor(
        gen, target, lambda v: target.zero_element(), structure.space.zero_fn())
    assert [m.shape for m in zero.matrices] == [(0, 1), (1, 2), (0, 1)]
    assert all(not m.any() for m in zero.matrices)


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
