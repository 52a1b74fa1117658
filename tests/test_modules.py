"""Fiberwise modules: pointwise norms, glueing, quotients, dimensions."""

import math

import numpy as np
import pytest

from rieszmod import (
    AdmissibleFamily,
    DimensionMismatch,
    Fiber,
    FiberModule,
    FiberNorm,
    FinitePartition,
    Fn,
    GramNorm,
    Idempotent,
    ImageLpNorm,
    InputError,
    InvalidStructure,
    LpNorm,
    ModuleElement,
    ModuleMismatch,
    NotAPartition,
    SolverFailed,
    SpaceMismatch,
    Submodule,
    dimensional_decomposition,
    glue,
    independence_check,
    kernel_basis,
    matrix_rank,
    module_distance,
    pointwise_norm,
    quotient_norm,
    row_space_basis,
    zero_indicator,
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


# --------------------------------------------------------------------------
# Fiber norms
# --------------------------------------------------------------------------

def test_fiber_norm_json_round_trips():
    for norm in (
        LpNorm(2.0),
        LpNorm(math.inf),
        GramNorm(np.array([[2.0, 1.0], [1.0, 2.0]])),
        ImageLpNorm(np.array([[1.0, -1.0], [0.0, 2.0]]), 3.0),
        ImageLpNorm(np.array([[1.0, -1.0]]), math.inf),
    ):
        assert FiberNorm.from_json(norm.to_json()) == norm


def test_fiber_norm_json_rejects_garbage():
    with pytest.raises(InputError):
        FiberNorm.from_json({"lp": 2.0, "gram": [[1.0]]})
    with pytest.raises(InputError):
        FiberNorm.from_json({"lp": 0.5})
    with pytest.raises(InputError):
        FiberNorm.from_json({"banach": 1})
    with pytest.raises(InputError):
        FiberNorm.from_json({"gram": [[1.0, 2.0], [0.0, 1.0]]})


def test_gram_norm_validation():
    with pytest.raises(InvalidStructure):
        GramNorm(np.array([[1.0, 0.0]]))
    with pytest.raises(InvalidStructure):
        GramNorm(np.array([[1.0, 0.5], [-0.5, 1.0]]))
    with pytest.raises(InvalidStructure):
        GramNorm(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3, -1


def test_fiber_dimension_checks():
    with pytest.raises(InvalidStructure):
        Fiber(-1, LpNorm(2.0))
    with pytest.raises(DimensionMismatch):
        Fiber(3, GramNorm(np.eye(2)))
    with pytest.raises(DimensionMismatch):
        Fiber(3, ImageLpNorm(np.eye(2), 2.0))
    Fiber(0, LpNorm(2.0))  # zero fibers are legal


def test_lp_norm_values():
    x = np.array([3.0, -4.0])
    assert LpNorm(1.0).norm(x) == 7.0
    assert LpNorm(2.0).norm(x) == 5.0
    assert LpNorm(math.inf).norm(x) == 4.0
    assert LpNorm(2.0).norm(np.zeros(0)) == 0.0


# --------------------------------------------------------------------------
# Modules and elements
# --------------------------------------------------------------------------

def test_module_fiber_count_must_match_space():
    structure = make_structure(2)
    with pytest.raises(InvalidStructure):
        FiberModule(structure, (Fiber(1, LpNorm(2.0)),))


def test_module_json_round_trip():
    structure = make_structure(2)
    m = FiberModule(structure, (
        Fiber(2, LpNorm(2.0)),
        Fiber(1, GramNorm(np.array([[3.0]]))),
    ))
    assert FiberModule.from_json(m.to_json()) == m
    with pytest.raises(InputError):
        FiberModule.from_json({"structure": structure.to_json(), "fibers": [{"dim": 2}]})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_element_from_json_rejects_non_finite_entries(bad):
    m = lp_module(make_structure(3), (2, 0, 3))
    with pytest.raises(InputError) as info:
        ModuleElement.from_json({"vectors": [[1.0, 2.0], [], [3.0, bad, 4.0]]}, m, "$.element")
    assert info.value.path == "$.element.vectors[2][1]"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_module_from_json_rejects_non_finite_matrices(bad):
    structure = make_structure(2)
    gram = {"dim": 2, "norm": {"gram": [[2.0, 0.0], [0.0, bad]]}}
    image = {"dim": 2, "norm": {"image_lp": {"matrix": [[1.0, 0.0], [bad, 1.0]], "p": 1.0}}}
    plain = {"dim": 1, "norm": {"lp": 2.0}}
    for fibers, path in (([plain, gram], "$.fibers[1].norm.gram[1][1]"),
                         ([image, plain], "$.fibers[0].norm.image_lp.matrix[1][0]")):
        with pytest.raises(InputError) as info:
            FiberModule.from_json({"structure": structure.to_json(), "fibers": fibers})
        assert info.value.path == path


def test_module_action_rejects_batched_fn():
    m = lp_module(make_structure(2), (2, 2))
    v = ModuleElement([[1.0, 2.0], [3.0, 4.0]], m)
    batch = Fn([[1.0, 2.0], [3.0, 4.0]], m.space)
    with pytest.raises(SpaceMismatch):
        batch * v


def test_failed_linear_program_raises_a_typed_error(monkeypatch):
    import scipy.optimize
    from scipy.optimize import OptimizeResult

    def failing(*args, **kwargs):
        return OptimizeResult(status=4, success=False, message="numerical difficulties")

    monkeypatch.setattr(scipy.optimize, "linprog", failing)
    m = lp_module(make_structure(1), (3,), p=1.0)
    v = ModuleElement([[1.0, -2.0, 0.5]], m)
    with pytest.raises(SolverFailed, match="numerical difficulties"):
        quotient_norm(v, Submodule(m, (np.array([[1.0, 1.0, 0.0]]),)))


def test_element_shape_checks():
    m = lp_module(make_structure(2), (2, 1))
    with pytest.raises(DimensionMismatch):
        ModuleElement([[1.0, 2.0]], m)
    with pytest.raises(DimensionMismatch):
        ModuleElement([[1.0], [2.0]], m)
    v = ModuleElement([[1.0, 2.0], [3.0]], m)
    assert v.to_json() == {"vectors": [[1.0, 2.0], [3.0]]}
    back = ModuleElement.from_json(v.to_json(), m)
    assert all(np.array_equal(a, b) for a, b in zip(back.vectors, v.vectors))
    with pytest.raises(InputError):
        ModuleElement.from_json({"vectors": [[1.0], [2.0]]}, m)


def test_element_cross_module_arithmetic_rejected():
    a = lp_module(make_structure(2), (1, 1))
    b = lp_module(make_structure(2), (1, 1), p=1.0)
    with pytest.raises(ModuleMismatch):
        a.zero_element() + b.zero_element()


def test_pointwise_norm_oracles():
    m = lp_module(make_structure(2), (2, 2))
    v = ModuleElement([[3.0, 4.0], [0.0, 0.0]], m)
    assert pointwise_norm(v).values.tolist() == [5.0, 0.0]
    assert pointwise_norm(m.zero_element()).values.tolist() == [0.0, 0.0]
    u = Fn([2.0, -1.0], m.space)
    assert pointwise_norm(u * v).values.tolist() == [10.0, 0.0]
    assert pointwise_norm(u * v).equals(u.abs() * pointwise_norm(v))


def test_pointwise_norm_axioms_sampled():
    rng = np.random.default_rng(29)
    structure = make_structure(3, v="l2")
    modules = [
        lp_module(structure, (2, 3, 1), p=1.0),
        lp_module(structure, (2, 3, 1), p=math.inf),
        gram_module(structure, [random_spd(rng, d) for d in (2, 3, 1)]),
    ]
    for m in modules:
        for _ in range(100):
            v, w = random_element(rng, m), random_element(rng, m)
            u = random_fn(rng, m.space)
            nv, nw = pointwise_norm(v), pointwise_norm(w)
            assert bool(np.all(nv.values >= 0.0))
            assert (pointwise_norm(v) .values == 0).all() == v.is_zero()
            tri = pointwise_norm(v + w).values - (nv + nw).values
            assert np.max(tri) <= 1e-12 * max(1.0, nv.sup_abs, nw.sup_abs)
            action = pointwise_norm(u * v)
            assert action.deviation(u.abs() * nv) <= 1e-12 * max(1.0, action.sup_abs)


def test_norm_continuity_bounds_sampled():
    rng = np.random.default_rng(37)
    m = lp_module(make_structure(4, v="l1"), (2, 1, 3, 2))
    zero = m.space.zero_fn()
    d_v = m.structure.d_V
    for _ in range(200):
        v, w, v2, w2 = (random_element(rng, m) for _ in range(4))
        lhs = d_v(pointwise_norm(v), pointwise_norm(w))
        assert lhs <= module_distance(v, w) + 1e-12
        assert module_distance(v + w, v2 + w2) <= (
            module_distance(v, v2) + module_distance(w, w2) + 1e-12
        )
    assert d_v(zero, zero) == 0.0


# --------------------------------------------------------------------------
# Glueing
# --------------------------------------------------------------------------

def two_block_partition(space):
    a = Idempotent(space.indicator([True, False]))
    b = Idempotent(space.indicator([False, True]))
    return FinitePartition((a, b), Idempotent(space.one_fn()))


def test_glue_scalar_example_matches_sup_formula():
    m = lp_module(make_structure(2, v="l2"), (1, 1))
    part = two_block_partition(m.space)
    v1 = ModuleElement([[3.0], [7.0]], m)
    v2 = ModuleElement([[-1.0], [4.0]], m)
    glued = glue(AdmissibleFamily(part, (v1, v2)))
    assert [vec.tolist() for vec in glued.vectors] == [[3.0], [4.0]]
    # Scalar fibers admit the lattice closed form
    # sup_n u_n v_n^+  -  sup_n u_n v_n^-.
    pieces = [Fn([v.vectors[0][0], v.vectors[1][0]], m.space) for v in (v1, v2)]
    pos = [p.element * piece.join(piece.zero()) for p, piece in zip(part.parts, pieces)]
    neg = [p.element * (-piece).join(piece.zero()) for p, piece in zip(part.parts, pieces)]
    closed = pos[0].join(pos[1]) - neg[0].join(neg[1])
    assert closed.values.tolist() == [3.0, 4.0]


def test_glue_single_block_and_blockwise():
    m = lp_module(make_structure(2), (2, 2))
    one = Idempotent(m.space.one_fn())
    v = ModuleElement([[1.0, 2.0], [3.0, 4.0]], m)
    single = glue(AdmissibleFamily(FinitePartition((one,), one), (v,)))
    assert all(np.array_equal(a, b) for a, b in zip(single.vectors, v.vectors))

    part = two_block_partition(m.space)
    v1 = ModuleElement([[1.0, 2.0], [9.0, 9.0]], m)
    v2 = ModuleElement([[8.0, 8.0], [3.0, 4.0]], m)
    glued = glue(AdmissibleFamily(part, (v1, v2)))
    assert [vec.tolist() for vec in glued.vectors] == [[1.0, 2.0], [3.0, 4.0]]


def test_admissible_family_validation():
    m = lp_module(make_structure(2), (1, 1))
    a = Idempotent(m.space.indicator([True, False]))
    with pytest.raises(NotAPartition):
        AdmissibleFamily(FinitePartition((a,), a), (m.zero_element(),))
    part = two_block_partition(m.space)
    with pytest.raises(NotAPartition):
        AdmissibleFamily(part, (m.zero_element(),))


def test_order_bound_dominates_glued_norm():
    rng = np.random.default_rng(43)
    m = lp_module(make_structure(2), (2, 2))
    part = two_block_partition(m.space)
    for _ in range(20):
        fam = AdmissibleFamily(part, (random_element(rng, m), random_element(rng, m)))
        bound = fam.order_bound()
        assert pointwise_norm(glue(fam)).leq(bound + bound.zero())


def test_glue_of_restrictions_is_identity():
    rng = np.random.default_rng(47)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        m = lp_module(make_structure(n), tuple(rng.integers(0, 4) for _ in range(n)))
        v = random_element(rng, m)
        labels = rng.integers(0, 3, n)
        used = sorted(set(labels.tolist()))
        parts = tuple(
            Idempotent(m.space.indicator(labels == k)) for k in used
        )
        part = FinitePartition(parts, Idempotent(m.space.one_fn()))
        fam = AdmissibleFamily(part, tuple(p.element * v for p in parts))
        glued = glue(fam)
        assert all(np.array_equal(a, b) for a, b in zip(glued.vectors, v.vectors))


def test_locality_upholds_uniqueness():
    # If u_n . v = u_n . w for every part of a partition of the unit, v = w.
    rng = np.random.default_rng(53)
    m = lp_module(make_structure(3), (2, 2, 2))
    part_masks = [[True, False, False], [False, True, True]]
    parts = tuple(Idempotent(m.space.indicator(mask)) for mask in part_masks)
    partition = FinitePartition(parts, Idempotent(m.space.one_fn()))
    v = random_element(rng, m)
    w = random_element(rng, m)
    agree_everywhere = all(
        (p.element * v - p.element * w).is_zero() for p in partition.parts
    )
    assert agree_everywhere == all(
        np.array_equal(a, b) for a, b in zip(v.vectors, w.vectors)
    )
    assert all((p.element * v - p.element * v).is_zero() for p in partition.parts)


# --------------------------------------------------------------------------
# Distances and zero sets
# --------------------------------------------------------------------------

def test_module_distance_oracles():
    m = lp_module(make_structure(2, v="l1"), (1, 1))
    v = ModuleElement([[3.0], [0.0]], m)
    w = ModuleElement([[0.0], [4.0]], m)
    assert module_distance(v, w) == 7.0
    assert module_distance(v, v) == 0.0


def test_module_distance_triangle_sampled():
    rng = np.random.default_rng(59)
    m = lp_module(make_structure(3, v=2.5), (2, 1, 2))
    for _ in range(200):
        u, v, w = (random_element(rng, m) for _ in range(3))
        assert module_distance(u, w) <= (
            module_distance(u, v) + module_distance(v, w) + 1e-12
        )


def test_zero_indicator_oracles():
    m = lp_module(make_structure(3), (2, 2, 2))
    v = ModuleElement([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]], m)
    ind = zero_indicator(v)
    assert ind.element.values.tolist() == [1.0, 0.0, 1.0]
    assert (ind.element * v).is_zero()
    assert zero_indicator(m.zero_element()).element.equals(m.space.one_fn())


def test_zero_indicator_recovers_random_sparsity():
    rng = np.random.default_rng(61)
    m = lp_module(make_structure(6), (2,) * 6)
    for _ in range(50):
        mask = rng.integers(0, 2, 6).astype(bool)
        vecs = [
            rng.standard_normal(2) + 3.0 if not mask[i] else np.zeros(2)
            for i in range(6)
        ]
        v = ModuleElement(vecs, m)
        assert np.array_equal(zero_indicator(v).element.values, mask.astype(float))


# --------------------------------------------------------------------------
# Submodules and quotient norms
# --------------------------------------------------------------------------

def test_submodule_shape_checks():
    m = lp_module(make_structure(2), (2, 2))
    with pytest.raises(DimensionMismatch):
        Submodule(m, (np.eye(2),))
    with pytest.raises(DimensionMismatch):
        Submodule(m, (np.eye(3), np.eye(2)))
    n = Submodule(m, (np.array([[1.0, 0.0]]), np.zeros((0, 2))))
    assert n.contains(ModuleElement([[2.0, 0.0], [0.0, 0.0]], m))
    assert not n.contains(ModuleElement([[2.0, 1.0], [0.0, 0.0]], m))


def test_quotient_norm_euclidean_oracle():
    m = lp_module(make_structure(1), (2,))
    n = Submodule(m, (np.array([[1.0, 0.0]]),))
    v = ModuleElement([[3.0, 4.0]], m)
    q = quotient_norm(v, n)
    assert abs(q.values[0] - 4.0) <= 1e-9
    inside = ModuleElement([[3.0, 0.0]], m)
    assert quotient_norm(inside, n).values[0] <= 1e-9


def test_quotient_norm_l1_and_linf_diagonal_span():
    # Distance from (1, 0) to span{(1, 1)}: the objective min_t |1+t| + |t|
    # is identically 1 on t in [-1, 0], so the l1 value is 1; under the sup
    # norm the objective min_t max(|1+t|, |t|) dips to 0.5 at t = -0.5.
    structure = make_structure(1)
    n_basis = (np.array([[1.0, 1.0]]),)
    v_raw = [[1.0, 0.0]]

    m1 = lp_module(structure, (2,), p=1.0)
    q1 = quotient_norm(ModuleElement(v_raw, m1), Submodule(m1, n_basis))
    assert abs(q1.values[0] - 1.0) <= 1e-9

    mi = lp_module(structure, (2,), p=math.inf)
    qi = quotient_norm(ModuleElement(v_raw, mi), Submodule(mi, n_basis))
    assert abs(qi.values[0] - 0.5) <= 1e-9


def test_quotient_norm_zero_iff_membership():
    rng = np.random.default_rng(67)
    structure = make_structure(1)
    for p in (1.0, 2.0, 3.0, math.inf):
        m = lp_module(structure, (3,), p=p)
        basis = rng.standard_normal((2, 3))
        n = Submodule(m, (basis,))
        member = ModuleElement([basis.T @ rng.standard_normal(2)], m)
        assert quotient_norm(member, n).values[0] <= 1e-9
        outside = ModuleElement([np.cross(basis[0], basis[1])], m)
        assert quotient_norm(outside, n).values[0] > 1e-6


def brute_quotient(norm, vec, basis, radius, steps, stages=3):
    """Progressively refined coefficient grid; exact enough since the
    objective is convex, so the coarse argmin localizes the true one."""
    k = basis.shape[0]
    center = np.zeros(k)
    r = radius
    best = math.inf
    for _ in range(stages):
        axes = [np.linspace(center[i] - r, center[i] + r, steps) for i in range(k)]
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        vals = [norm.norm(vec + c @ basis) for c in pts]
        j = int(np.argmin(vals))
        best = vals[j]
        center = pts[j]
        r = 4.0 * r / (steps - 1)
    return best


def test_quotient_norm_grid_cross_check():
    rng = np.random.default_rng(71)
    structure = make_structure(1)
    norms = [LpNorm(1.0), LpNorm(2.0), LpNorm(2.7), LpNorm(math.inf),
             GramNorm(random_spd(rng, 3))]
    for norm in norms:
        m = FiberModule(structure, (Fiber(3, norm),))
        for k in (1, 2):
            basis = np.linalg.qr(rng.standard_normal((3, k)))[0].T
            vec = rng.standard_normal(3)
            n = Submodule(m, (basis,))
            q = quotient_norm(ModuleElement([vec], m), n).values[0]
            steps = 201 if k == 1 else 41
            brute = brute_quotient(norm, vec, basis, radius=4.0, steps=steps)
            assert q <= brute + 1e-9
            assert q >= brute - 1e-3 * max(1.0, brute)


def test_quotient_norm_matches_primal_lp_on_polyhedral_fibers():
    # Beyond the d <= 3 grids: l1 and l-infinity fibers up to d = 12.  The
    # shapes include l1 (d = 8, k = 4) and l-infinity (d = 12, k = 6), where
    # coordinate descent stalls far above the optimum.
    rng = np.random.default_rng(73)
    structure = make_structure(1)
    for p in (1.0, math.inf):
        for d, k in ((4, 2), (8, 2), (8, 4), (12, 3), (12, 6)):
            m = lp_module(structure, (d,), p=p)
            for _ in range(4):
                vec = rng.standard_normal(d)
                basis = rng.standard_normal((k, d))
                q = quotient_norm(ModuleElement([vec], m), Submodule(m, (basis,))).values[0]
                exact = primal_lp_distance(p, vec, basis)
                assert abs(q - exact) <= 1e-9 * max(1.0, exact)


# --------------------------------------------------------------------------
# Dimension theory
# --------------------------------------------------------------------------

def test_dimensional_decomposition_oracles():
    m = lp_module(make_structure(3), (2, 2, 1))
    blocks = dimensional_decomposition(m)
    assert [(n, idem.element.values.tolist()) for n, idem in blocks] == [
        (1, [0.0, 0.0, 1.0]),
        (2, [1.0, 1.0, 0.0]),
    ]
    zero = lp_module(make_structure(2), (0, 0))
    blocks = dimensional_decomposition(zero)
    assert [(n, idem.element.values.tolist()) for n, idem in blocks] == [(0, [1.0, 1.0])]
    single = lp_module(make_structure(1), (3,))
    blocks = dimensional_decomposition(single)
    assert [(n, idem.element.values.tolist()) for n, idem in blocks] == [(3, [1.0])]


def test_decomposition_parts_partition_the_unit():
    rng = np.random.default_rng(73)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        m = lp_module(make_structure(n), tuple(int(d) for d in rng.integers(0, 4, n)))
        blocks = dimensional_decomposition(m)
        total = m.space.zero_fn()
        for _, idem in blocks:
            total = total + idem.element
        assert total.equals(m.space.one_fn())
        FinitePartition(tuple(i for _, i in blocks), Idempotent(m.space.one_fn()))


def test_independence_check_oracles():
    m = lp_module(make_structure(2), (2, 2))
    e1 = ModuleElement([[1.0, 0.0], [1.0, 0.0]], m)
    e2 = ModuleElement([[0.0, 1.0], [0.0, 1.0]], m)
    one = Idempotent(m.space.one_fn())
    assert independence_check([e1, e2], one)
    assert not independence_check([e1, m.zero_element()], one)
    partial = ModuleElement([[0.0, 0.0], [0.0, 1.0]], m)
    off_atom0 = Idempotent(m.space.indicator([False, True]))
    assert independence_check([e1, partial], off_atom0)
    assert not independence_check([e1, partial], one)


def test_independence_matches_rank_oracle():
    rng = np.random.default_rng(79)
    m = lp_module(make_structure(3), (3, 3, 3))
    one = Idempotent(m.space.one_fn())
    for _ in range(50):
        k = int(rng.integers(1, 4))
        vs = [random_element(rng, m) for _ in range(k)]
        want = all(
            np.linalg.matrix_rank(np.stack([v.vectors[i] for v in vs])) == k
            for i in range(3)
        )
        assert independence_check(vs, one) == want


# --------------------------------------------------------------------------
# Parallelogram negative control and rank helpers
# --------------------------------------------------------------------------

def test_l1_fibers_break_parallelogram_rule():
    m = lp_module(make_structure(1), (2,), p=1.0)
    v = ModuleElement([[1.0, 0.0]], m)
    w = ModuleElement([[0.0, 1.0]], m)
    lhs = pointwise_norm(v + w).values[0] ** 2 + pointwise_norm(v - w).values[0] ** 2
    rhs = 2 * pointwise_norm(v).values[0] ** 2 + 2 * pointwise_norm(w).values[0] ** 2
    assert lhs == 8.0
    assert rhs == 4.0


def test_rank_helpers():
    a = np.array([[1.0, 1.0], [2.0, 2.0]])
    assert matrix_rank(a) == 1
    rows = row_space_basis(a)
    assert rows.shape == (1, 2)
    kern = kernel_basis(a)
    assert kern.shape == (1, 2)
    assert np.allclose(a @ kern.T, 0.0)
    assert np.array_equal(kernel_basis(np.zeros((0, 3))), np.eye(3))
    assert kernel_basis(np.eye(3)).shape == (0, 3)
