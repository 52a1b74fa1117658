"""Flat element storage and fiber groups against per-atom references.

A mixed module of 500 atoms carries every fiber kind (lp for p in {1,
1.5, 2, 3, infinity}, gram, image-lp with p in {1, 2, 3, infinity}) at
dimensions 0-5, with image matrices of different row counts in one
dimension.  Every grouped kernel is compared with a per-atom reference
built from ``FiberNorm.norm`` or a closed form written out here.
"""

import itertools
import math

import numpy as np
import pytest

import rieszmod.homdual as homdual
from rieszmod import (
    AdmissibleFamily,
    Fiber,
    FiberModule,
    FiberNorm,
    FinitePartition,
    Fn,
    GramNorm,
    HomElement,
    Idempotent,
    ImageLpNorm,
    InvalidStructure,
    LpNorm,
    ModuleElement,
    StructureHom,
    glue,
    hom_norm,
    is_reflexive,
    norming_functional,
    pointwise_norm,
    pushforward_module,
    zero_indicator,
)
from helpers import make_structure, random_element, random_spd

# Every test here also runs with RuntimeWarning as an error: the grouped
# kernels must not divide by zero or take roots of negatives on zero or
# empty fibers.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

N_MIXED = 500
KINDS = ("l1", "l1.5", "l2", "l3", "linf", "gram", "image1", "image2", "image3", "imageinf")


def _norm(kind, dim, rng):
    if kind == "gram":
        return GramNorm(random_spd(rng, dim))
    if kind.startswith("image"):
        p = math.inf if kind == "imageinf" else float(kind[5:])
        # Row counts dim, dim + 1 or dim + 2 within one dimension.
        rows = dim + int(rng.integers(0, 3))
        return ImageLpNorm(rng.standard_normal((rows, dim)), p)
    return LpNorm(math.inf if kind == "linf" else float(kind[1:]))


def mixed_module(n=N_MIXED, seed=0):
    rng = np.random.default_rng(seed)
    fibers = []
    for i in range(n):
        dim = int(rng.integers(0, 6))
        fibers.append(Fiber(dim, _norm(KINDS[i % len(KINDS)], dim, rng)))
    return FiberModule(make_structure(n), tuple(fibers))


def mixed_element(module, rng):
    """A random element with about one fiber in eight set to zero."""
    vecs = [rng.standard_normal(f.dim) * (rng.random() > 0.125) for f in module.fibers]
    return ModuleElement(vecs, module)


def reference_norm(norm, x):
    """The fiber norm from its definition, without the library's kernels."""
    if x.size == 0:
        return 0.0
    if isinstance(norm, GramNorm):
        return math.sqrt(float(x @ norm.gram @ x))
    if isinstance(norm, ImageLpNorm):
        return float(np.linalg.norm(norm.matrix @ x, norm.p))
    return float(np.linalg.norm(x, norm.p))


def close(got, want, rtol=1e-12):
    return abs(got - want) <= rtol * max(1.0, abs(want))


@pytest.fixture(scope="module")
def module():
    return mixed_module()


def test_mixed_module_covers_every_kind_and_row_count(module):
    kinds = {(type(f.norm).__name__, getattr(f.norm, "p", 2.0)) for f in module.fibers}
    assert len(kinds) == len(KINDS)
    assert set(module.dims) == set(range(6))
    rows = {}
    for f in module.fibers:
        if isinstance(f.norm, ImageLpNorm):
            rows.setdefault(f.dim, set()).add(f.norm.matrix.shape[0])
    assert all(len(r) > 1 for d, r in rows.items() if d > 0)


def test_flat_storage_and_read_only_views(module):
    rng = np.random.default_rng(1)
    vecs = [rng.standard_normal(f.dim) for f in module.fibers]
    v = ModuleElement(vecs, module)
    assert v.flat.shape == (sum(module.dims),)
    assert np.array_equal(v.flat, np.concatenate(vecs))
    assert v.vectors is v.vectors
    assert all(np.array_equal(a, b) for a, b in zip(v.vectors, vecs))
    assert all(vec.base is v.flat for vec in v.vectors)
    for arr in (v.flat, v.vectors[3]):
        with pytest.raises(ValueError):
            arr[...] = 0.0
    vecs[0][...] = 7.0  # the element owns a copy
    assert not np.any(v.vectors[0] == 7.0)


def test_pointwise_norm_matches_per_atom_norms(module):
    rng = np.random.default_rng(2)
    for _ in range(3):
        v = mixed_element(module, rng)
        got = pointwise_norm(v).values
        for a, (f, x) in enumerate(zip(module.fibers, v.vectors)):
            # One kernel: the per-atom norm has the same bits as the group.
            assert got[a] == f.norm.norm(x)
            assert close(got[a], reference_norm(f.norm, x))


def test_zero_indicator_and_is_zero(module):
    rng = np.random.default_rng(3)
    v = mixed_element(module, rng)
    want = [not x.any() for x in v.vectors]
    assert np.array_equal(zero_indicator(v).element.values, np.array(want, dtype=float))
    assert not v.is_zero()
    assert module.zero_element().is_zero()
    assert zero_indicator(module.zero_element()).element.values.all()


def test_arithmetic_and_action_match_per_atom_ops(module):
    rng = np.random.default_rng(4)
    v, w = mixed_element(module, rng), mixed_element(module, rng)
    u = Fn(rng.standard_normal(N_MIXED), module.space)
    lam = float(rng.standard_normal())
    cases = [
        (v + w, [a + b for a, b in zip(v.vectors, w.vectors)]),
        (v - w, [a - b for a, b in zip(v.vectors, w.vectors)]),
        (-v, [-a for a in v.vectors]),
        (v.scale(lam), [a * lam for a in v.vectors]),
        (u * v, [u.values[i] * a for i, a in enumerate(v.vectors)]),
    ]
    for got, want in cases:
        assert got.module is module
        assert all(np.array_equal(a, b) for a, b in zip(got.vectors, want))


def test_glue_matches_per_atom_pieces(module):
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 4, N_MIXED)
    parts = tuple(Idempotent(module.space.indicator(labels == j)) for j in range(4))
    partition = FinitePartition(parts, Idempotent(module.space.one_fn()))
    pieces = [mixed_element(module, rng) for _ in range(4)]
    glued = glue(AdmissibleFamily(partition, tuple(pieces)))
    for a, vec in enumerate(glued.vectors):
        assert np.array_equal(vec, pieces[labels[a]].vectors[a])


def _attaining_row(p, x):
    nrm = float(np.linalg.norm(x, p))
    if p == 1.0:
        return np.sign(x)
    if p == math.inf:
        row = np.zeros_like(x)
        i = int(np.argmax(np.abs(x)))
        row[i] = math.copysign(1.0, x[i])
        return row
    return np.sign(x) * np.abs(x) ** (p - 1.0) / nrm ** (p - 1.0)


def test_norming_functional_matches_closed_forms(module):
    rng = np.random.default_rng(6)
    v = mixed_element(module, rng)
    omega = norming_functional(v)
    for a, (f, x, mat) in enumerate(zip(module.fibers, v.vectors, omega.matrices)):
        row = mat.reshape(-1)
        nrm = reference_norm(f.norm, x)
        if nrm == 0.0:
            assert not row.any()
            continue
        if isinstance(f.norm, GramNorm):
            want = f.norm.gram @ x / nrm
        elif isinstance(f.norm, ImageLpNorm):
            want = f.norm.matrix.T @ _attaining_row(f.norm.p, f.norm.matrix @ x)
        else:
            want = _attaining_row(f.norm.p, x)
        assert np.allclose(row, want, rtol=1e-12, atol=1e-12 * max(1.0, np.abs(want).max()))
        assert close(float(row @ x), nrm)


def _source_norm(target, dim, i, rng):
    """A source fiber whose operator norm into target has a closed form."""
    if dim == 1:
        return (LpNorm(1.5), GramNorm(random_spd(rng, 1)), LpNorm(math.inf))[i % 3]
    euclid = isinstance(target.norm, GramNorm) or (
        isinstance(target.norm, LpNorm) and target.norm.p == 2.0)
    if euclid and i % 3 == 0:
        return GramNorm(random_spd(rng, dim))
    if euclid and i % 3 == 1:
        return LpNorm(2.0)
    return (LpNorm(1.0), LpNorm(math.inf))[i % 2]


def reference_operator_norm(src, tgt, a):
    """Closed forms written out per matrix."""
    if a.size == 0:
        return 0.0
    if a.shape[0] == 1:
        row = a[0]
        if isinstance(src, GramNorm):
            dual = math.sqrt(float(row @ np.linalg.solve(src.gram, row)))
        else:
            q = {1.0: math.inf, math.inf: 1.0}.get(src.p, src.p / (src.p - 1.0))
            dual = float(np.linalg.norm(row, q))
        return reference_norm(tgt, np.ones(1)) * dual
    if isinstance(src, LpNorm) and src.p == 1.0:
        return max(reference_norm(tgt, a[:, j]) for j in range(a.shape[1]))
    if isinstance(src, LpNorm) and src.p == math.inf:
        signs = itertools.product((-1.0, 1.0), repeat=a.shape[1])
        return max(reference_norm(tgt, a @ np.array(s)) for s in signs)

    def root(g):
        w, q = np.linalg.eigh(g)
        return q @ np.diag(np.sqrt(w)) @ q.T

    g_src = src.gram if isinstance(src, GramNorm) else np.eye(a.shape[1])
    g_tgt = tgt.gram if isinstance(tgt, GramNorm) else np.eye(a.shape[0])
    return float(np.linalg.norm(root(g_tgt) @ a @ np.linalg.inv(root(g_src)), 2))


def test_closed_form_hom_norm_matches_per_atom_references(module):
    rng = np.random.default_rng(7)
    src = FiberModule(module.structure, tuple(
        Fiber(f.dim, _source_norm(f, f.dim, i, rng)) for i, f in enumerate(module.fibers)))
    mats = [rng.standard_normal((f.dim, f.dim)) for f in module.fibers]
    mats[1] = np.zeros_like(mats[1])
    got = hom_norm(HomElement(mats, src, module)).values
    for a, (s, t, m) in enumerate(zip(src.fibers, module.fibers, mats)):
        assert close(got[a], reference_operator_norm(s.norm, t.norm, m)), a
    assert got[1] == 0.0


def test_pushforward_preserves_pointwise_norms_bit_for_bit(module):
    rng = np.random.default_rng(8)
    target = make_structure(700)
    # Repeated and reordered atoms land in groups of other sizes and orders.
    phi = StructureHom(module.structure, target,
                       tuple(int(i) for i in rng.integers(0, N_MIXED, 700)))
    pm, pf = pushforward_module(phi, module)
    for _ in range(3):
        v = mixed_element(module, rng)
        assert np.array_equal(pointwise_norm(pf.apply(v)).values,
                              phi.apply(pointwise_norm(v)).values)


def test_fiber_refuses_norms_outside_the_three_kinds():
    class Doubled(FiberNorm):
        def norm(self, x):
            return 2.0 * float(np.abs(x).sum())

    class SubLp(LpNorm):
        pass

    for norm in (Doubled(), SubLp(1.0)):
        with pytest.raises(InvalidStructure):
            Fiber(2, norm)
        with pytest.raises(InvalidStructure):
            homdual.dual_vector_norm(norm, np.ones(2))


def test_wide_module_makes_no_per_atom_norm_call(monkeypatch):
    """pointwise_norm, + and glue on 10^4 atoms run the stacked kernels only."""
    n = 10_000
    rng = np.random.default_rng(10)
    fibers = []
    for i in range(n):
        dim = i % 5
        fibers.append(Fiber(dim, _norm(("l1", "l3", "gram", "image2")[i % 4], dim, rng)))
    m = FiberModule(make_structure(n), tuple(fibers))
    v, w = random_element(rng, m), random_element(rng, m)
    labels = rng.integers(0, 3, n)
    parts = tuple(Idempotent(m.space.indicator(labels == j)) for j in range(3))
    family = AdmissibleFamily(FinitePartition(parts, Idempotent(m.space.one_fn())), (v, w, v))
    calls = []
    for cls in (LpNorm, GramNorm, ImageLpNorm):
        original = cls.norm

        def counted(self, x, _original=original):
            calls.append(1)
            return _original(self, x)

        monkeypatch.setattr(cls, "norm", counted)
    pointwise_norm(v)
    v + w
    glue(family)
    assert len(calls) == 0


def test_reflexivity_certificate_rejects_singular_and_non_square_j(monkeypatch):
    structure = make_structure(3)
    m = FiberModule(structure, (Fiber(2, LpNorm(1.5)), Fiber(2, LpNorm(3.0)),
                                Fiber(1, LpNorm(1.0))))
    assert is_reflexive(m)
    real = homdual.bidual_embed

    def embed_with(mats):
        def fake(module, system=None):
            j = real(module, system)
            return HomElement(mats, j.source, j.target)
        return fake

    near_singular = [np.eye(2), np.array([[1.0, 0.0], [0.0, 1e-12]]), np.eye(1)]
    monkeypatch.setattr(homdual, "bidual_embed", embed_with(near_singular))
    assert not is_reflexive(m)
    full_rank = [np.eye(2), np.array([[1.0, 2.0], [3.0, 4.0]]), 2.0 * np.eye(1)]
    monkeypatch.setattr(homdual, "bidual_embed", embed_with(full_rank))
    assert is_reflexive(m)

    wider = FiberModule(structure, (Fiber(2, LpNorm(2.0)), Fiber(3, LpNorm(2.0)),
                                    Fiber(1, LpNorm(2.0))))

    def non_square(module, system=None):
        return HomElement([np.eye(2), np.eye(3)[:, :2], np.eye(1)], module, wider)

    monkeypatch.setattr(homdual, "bidual_embed", non_square)
    assert not is_reflexive(m)
