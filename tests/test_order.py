"""Lattice and f-algebra layer: law suite, partitions, simple elements."""

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from rieszmod import (
    LAW_IDS,
    FinitePartition,
    Fn,
    Idempotent,
    NonIdempotentInput,
    NotAPartition,
    PartitionMismatch,
    SimpleElement,
    SpaceMismatch,
    abs_value,
    check_disjoint,
    check_disjoint_products,
    disjointify,
    negative_part,
    positive_part,
    refine_partitions,
    riesz_decompose,
    riesz_law_suite,
    simple_combine,
)
from rieszmod.order import RING_TOL
from helpers import make_space, random_fn, sequential_law_report


def triples(space, count, seed):
    rng = np.random.default_rng(seed)
    return [tuple(random_fn(rng, space, 2.0) for _ in range(3)) for _ in range(count)]


# --------------------------------------------------------------------------
# Law suite
# --------------------------------------------------------------------------

def test_law_suite_passes_on_random_triples():
    space = make_space(4, [1.0, 0.5, 2.0, 1.5])
    report = riesz_law_suite(triples(space, 500, seed=11))
    assert report.all_passed(), report.failed_ids()
    assert len(report.laws) == 18


def test_law_suite_zero_triple():
    space = make_space(3)
    z = space.zero_fn()
    report = riesz_law_suite([(z, z, z)])
    assert report.all_passed()


def test_law_ids_are_stable():
    assert LAW_IDS == (
        "riesz-1", "riesz-1b", "riesz-2", "riesz-3", "riesz-4", "riesz-4b",
        "riesz-5", "riesz-6", "riesz-6b", "riesz-6c", "riesz-6d", "riesz-6e",
        "falg-7", "falg-8", "falg-8b", "falg-8c", "falg-prod", "falg-9",
    )


def test_law_suite_subset_selection():
    space = make_space(2)
    report = riesz_law_suite(triples(space, 10, seed=3), law_ids=["riesz-5", "falg-7"])
    assert [r.id for r in report.laws] == ["riesz-5", "falg-7"]


class BrokenMeet(Fn):
    """Carrier whose meet is wrong by a constant: the mutation harness case."""

    def meet(self, other):
        good = Fn.meet(self, other)
        return Fn(good.values - 0.25, good.space)


def test_broken_meet_is_reported_not_raised():
    space = make_space(3)
    rng = np.random.default_rng(5)
    bad = [
        tuple(BrokenMeet(rng.standard_normal(3), space) for _ in range(3))
        for _ in range(20)
    ]
    report = riesz_law_suite(bad)
    failed = report.failed_ids()
    assert "riesz-4b" in failed
    # Laws that never touch the broken operation stay green.
    assert "riesz-1" not in failed
    assert "riesz-5" not in failed
    bad_result = next(r for r in report.laws if r.id == "riesz-4b")
    assert bad_result.counterexample is not None
    assert "lhs" in bad_result.counterexample


class FuzzyMul(Fn):
    """Carrier whose products carry a deterministic 1e-13 bias."""

    def __mul__(self, other):
        good = Fn.__mul__(self, other)
        if good is NotImplemented:
            return good
        return Fn(good.values + 1e-13, good.space)


def test_ring_tolerance_override():
    space = make_space(2)
    rng = np.random.default_rng(9)
    fuzz = [
        tuple(FuzzyMul(rng.standard_normal(2), space) for _ in range(3))
        for _ in range(20)
    ]
    assert riesz_law_suite(fuzz).all_passed()
    tight = riesz_law_suite(fuzz, ring_tol=1e-14)
    # Only product-touching (ring-class) laws can be sensitive to the knob;
    # the biased product also spoils the disjointness construction of 8c.
    assert tight.failed_ids() == ["falg-8c", "falg-prod"]


class ShiftedScale(Fn):
    """Carrier whose scaling adds 0.25: riesz-1b fails on two of its checks."""

    def scale(self, lam):
        return Fn(self.values * float(lam) + 0.25, self.space)


def test_law_suite_matches_sequential_reference():
    a, b = make_space(3, [1.0, 0.5, 2.0]), make_space(4)
    rng = np.random.default_rng(17)

    def broken(space, count):
        return [tuple(BrokenMeet(rng.standard_normal(space.n), space) for _ in range(3))
                for _ in range(count)]

    fuzz = [tuple(FuzzyMul(rng.standard_normal(2), make_space(2)) for _ in range(3))
            for _ in range(12)]
    # A run of clean triples on a, then broken ones on b and a again: the
    # first failures lie in the second run, later ones in the third.
    two_spaces = triples(a, 6, seed=19) + broken(b, 5) + broken(a, 5)
    cases = [
        (triples(a, 40, seed=13), {}),
        (broken(a, 20), {}),
        (fuzz, {"ring_tol": 1e-14}),
        (broken(b, 20), {"law_ids": ["riesz-4b", "riesz-5", "falg-9"]}),
        ([tuple(ShiftedScale(rng.standard_normal(3), a) for _ in range(3))
          for _ in range(4)], {}),
        ([], {}),
        (two_spaces, {}),
    ]
    for samples, kwargs in cases:
        got = riesz_law_suite(samples, **kwargs).to_json()
        assert got == sequential_law_report(samples, **kwargs)
    report = riesz_law_suite(two_spaces).to_json()["laws"]
    failed_at = [e["counterexample"]["sample"] for e in report if not e["passed"]]
    assert 6 <= min(failed_at) <= 10 and max(failed_at) <= 15


def test_law_report_json_shape():
    space = make_space(2)
    report = riesz_law_suite(triples(space, 5, seed=1))
    obj = report.to_json()
    assert set(obj) == {"laws"}
    assert all(set(e) == {"id", "passed", "counterexample"} for e in obj["laws"])


_vec3 = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=3, max_size=3
)

_SPACE3 = make_space(3)


@hypothesis.given(_vec3, _vec3)
def test_join_plus_meet_is_sum(a, b):
    u, v = Fn(a, _SPACE3), Fn(b, _SPACE3)
    assert (u.join(v) + u.meet(v)).equals(u + v)


@hypothesis.given(_vec3, _vec3)
def test_abs_of_product_factors(a, b):
    u, v = Fn(a, _SPACE3), Fn(b, _SPACE3)
    assert abs_value(u * v).equals(abs_value(u) * abs_value(v))


@hypothesis.given(_vec3)
def test_parts_recompose_and_are_disjoint(a):
    u = Fn(a, _SPACE3)
    pos, neg, absu = riesz_decompose(u)
    assert (pos - neg).equals(u)
    assert absu.equals(abs_value(u))
    assert (pos * neg).equals(u.zero())


def test_positive_negative_parts_example():
    space = make_space(2)
    u = Fn([3.0, -4.0], space)
    assert positive_part(u).values.tolist() == [3.0, 0.0]
    assert negative_part(u).values.tolist() == [0.0, 4.0]
    assert abs_value(u).values.tolist() == [3.0, 4.0]


# --------------------------------------------------------------------------
# Idempotents and partitions
# --------------------------------------------------------------------------

def test_idempotent_accepts_indicators_only():
    space = make_space(2)
    Idempotent(Fn([1.0, 0.0], space))
    with pytest.raises(NonIdempotentInput):
        Idempotent(Fn([0.5, 0.0], space))


def test_idempotent_rejects_nan():
    space = make_space(2)
    for values in ([float("nan"), 1.0], [float("nan"), float("nan")]):
        with pytest.raises(NonIdempotentInput):
            Idempotent(Fn(values, space))


def test_idempotent_rejects_batch():
    space = make_space(2)
    with pytest.raises(SpaceMismatch):
        Idempotent(Fn([[1.0, 0.0], [0.0, 1.0]], space))


def test_idempotent_boolean_operations():
    space = make_space(3)
    u = Idempotent(Fn([1.0, 1.0, 0.0], space))
    v = Idempotent(Fn([0.0, 1.0, 1.0], space))
    assert u.complement().element.values.tolist() == [0.0, 0.0, 1.0]
    assert u.boxplus(v).element.values.tolist() == [1.0, 0.0, 1.0]
    assert u.boxtimes(v).element.values.tolist() == [0.0, 1.0, 0.0]
    assert not u.is_zero()
    assert u.boxtimes(u.complement()).is_zero()


def test_partition_rejects_overlap_and_bad_total():
    space = make_space(2)
    one = Idempotent(space.one_fn())
    a = Idempotent(Fn([1.0, 0.0], space))
    b = Idempotent(Fn([0.0, 1.0], space))
    FinitePartition((a, b), one)
    with pytest.raises(NotAPartition):
        FinitePartition((a, one), one)
    with pytest.raises(NotAPartition):
        FinitePartition((a,), one)


def test_partition_errors_on_many_parts():
    space = make_space(60)
    one = Idempotent(space.one_fn())
    cells = [Idempotent(space.indicator(np.arange(60) == k)) for k in range(60)]
    FinitePartition(tuple(cells), one)
    shared = list(cells)
    # Part 59 also takes atom 17, which part 17 already covers.
    shared[59] = Idempotent(space.indicator((np.arange(60) == 59) | (np.arange(60) == 17)))
    with pytest.raises(NotAPartition, match="not pairwise disjoint"):
        FinitePartition(tuple(shared), one)
    with pytest.raises(NotAPartition, match="do not sum"):
        FinitePartition(tuple(cells[:-1]), one)


def _pairwise_verdict(parts, of):
    """The partition check over all pairs of parts, as a reference."""
    elems = [p.element for p in parts]
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            if (elems[i] * elems[j]).deviation(elems[i].zero()) > RING_TOL:
                return "not pairwise disjoint"
    total = of.element.zero()
    for e in elems:
        total = total + e
    if total.deviation(of.element) > RING_TOL:
        return "do not sum"
    return None


def _assert_matches_pairwise(parts, of):
    want = _pairwise_verdict(parts, of)
    if want is None:
        FinitePartition(tuple(parts), of)
    else:
        with pytest.raises(NotAPartition, match=want):
            FinitePartition(tuple(parts), of)


@hypothesis.given(st.data())
def test_partition_check_matches_pairwise_reference(data):
    # Near-idempotent parts: 0/1 cells from atom labels (-1 leaves an atom
    # uncovered), up to two extra overlapping atoms, and perturbations of
    # up to 1e-12, which put both the products and the sums near RING_TOL.
    n = 4
    space = make_space(n)
    k = data.draw(st.integers(1, 6))
    labels = data.draw(st.lists(st.integers(-1, k - 1), min_size=n, max_size=n))
    base = np.array([[float(lab == j) for lab in labels] for j in range(k)])
    for j, atom in data.draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, n - 1)),
                                      max_size=2)):
        base[j, atom] = 1.0
    eps = data.draw(st.lists(st.floats(min_value=-1e-12, max_value=1e-12),
                             min_size=k * n, max_size=k * n))
    try:
        parts = [Idempotent(Fn(row, space)) for row in base + np.reshape(eps, (k, n))]
    except NonIdempotentInput:
        hypothesis.assume(False)
    cover = np.array(labels) >= 0 if data.draw(st.booleans()) else np.ones(n, bool)
    _assert_matches_pairwise(parts, Idempotent(space.indicator(cover)))


def test_partition_check_at_the_tolerance():
    space = make_space(2)
    one = Idempotent(space.one_fn())
    # Products of 1e-12 * (1 + 5e-13), just above RING_TOL, and of exactly
    # 1e-12, which passes the disjointness check but spoils the sum.
    for first in ([1.0 + 5e-13, 0.0], [1.0, 0.0]):
        parts = [Idempotent(Fn(first, space)), Idempotent(Fn([1e-12, 1.0], space))]
        _assert_matches_pairwise(parts, one)


def test_simple_element_needs_matching_coefficients():
    space = make_space(2)
    one = Idempotent(space.one_fn())
    part = FinitePartition((one,), one)
    s = SimpleElement((2.0,), part)
    assert s.value().values.tolist() == [2.0, 2.0]
    with pytest.raises(NotAPartition):
        SimpleElement((2.0, 3.0), part)


# --------------------------------------------------------------------------
# disjointify
# --------------------------------------------------------------------------

def mask_idem(space, mask):
    return Idempotent(space.indicator(np.asarray(mask, dtype=bool)))


def test_disjointify_overlapping_pair():
    space = make_space(3)
    out = disjointify([mask_idem(space, [1, 1, 0]), mask_idem(space, [0, 1, 1])])
    assert [o.element.values.tolist() for o in out] == [
        [1.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
    ]


def test_disjointify_single_input_is_identity():
    space = make_space(3)
    u = mask_idem(space, [1, 0, 1])
    out = disjointify([u])
    assert out[0].element.equals(u.element)


def test_disjointify_repeated_input():
    space = make_space(2)
    out = disjointify([
        mask_idem(space, [1, 0]),
        mask_idem(space, [1, 0]),
        mask_idem(space, [0, 1]),
    ])
    assert [o.element.values.tolist() for o in out] == [
        [1.0, 0.0],
        [0.0, 0.0],
        [0.0, 1.0],
    ]


def test_disjointify_rejects_raw_functions():
    space = make_space(2)
    with pytest.raises(NonIdempotentInput):
        disjointify([space.one_fn()])


def test_disjointify_prefix_sups_property():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        space = make_space(n)
        us = [mask_idem(space, rng.integers(0, 2, n)) for _ in range(5)]
        out = disjointify(us)
        assert check_disjoint_products([o.element for o in out])
        sup_in = space.zero_fn()
        sup_out = space.zero_fn()
        for u, o in zip(us, out):
            sup_in = sup_in.join(u.element)
            sup_out = sup_out.join(o.element)
            assert sup_in.equals(sup_out)


# --------------------------------------------------------------------------
# refine_partitions and simple_combine
# --------------------------------------------------------------------------

def test_refine_partitions_oracle():
    space = make_space(3)
    one = Idempotent(space.one_fn())
    p = FinitePartition((mask_idem(space, [1, 1, 0]), mask_idem(space, [0, 0, 1])), one)
    q = FinitePartition((mask_idem(space, [1, 0, 0]), mask_idem(space, [0, 1, 1])), one)
    r = refine_partitions(p, q)
    assert [part.element.values.tolist() for part in r.parts] == [
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
    ]


def test_refine_with_self_and_with_trivial():
    space = make_space(2)
    one = Idempotent(space.one_fn())
    p = FinitePartition((mask_idem(space, [1, 0]), mask_idem(space, [0, 1])), one)
    assert [x.element.values.tolist() for x in refine_partitions(p, p).parts] == [
        [1.0, 0.0],
        [0.0, 1.0],
    ]
    q = FinitePartition((one,), one)
    assert [x.element.values.tolist() for x in refine_partitions(p, q).parts] == [
        [1.0, 0.0],
        [0.0, 1.0],
    ]


def test_refine_partitions_mismatched_units():
    space = make_space(2)
    a = mask_idem(space, [1, 0])
    b = mask_idem(space, [0, 1])
    with pytest.raises(PartitionMismatch):
        refine_partitions(
            FinitePartition((a,), a),
            FinitePartition((b,), b),
        )


def test_simple_combine_max_oracle():
    space = make_space(3)
    one = Idempotent(space.one_fn())
    u = SimpleElement(
        (2.0, 3.0),
        FinitePartition((mask_idem(space, [1, 1, 0]), mask_idem(space, [0, 0, 1])), one),
    )
    v = SimpleElement(
        (1.0, 5.0),
        FinitePartition((mask_idem(space, [1, 0, 0]), mask_idem(space, [0, 1, 1])), one),
    )
    out = simple_combine(u, v, "max")
    assert out.value().values.tolist() == [2.0, 5.0, 5.0]


def test_simple_combine_by_unit_is_identity():
    space = make_space(3)
    one = Idempotent(space.one_fn())
    u = SimpleElement(
        (2.0, -1.0),
        FinitePartition((mask_idem(space, [1, 0, 1]), mask_idem(space, [0, 1, 0])), one),
    )
    v = SimpleElement((1.0,), FinitePartition((one,), one))
    assert simple_combine(u, v, "*").value().equals(u.value())


def test_simple_combine_disjoint_product_vanishes():
    space = make_space(2)
    one = Idempotent(space.one_fn())
    a = mask_idem(space, [1, 0])
    b = mask_idem(space, [0, 1])
    u = SimpleElement((1.0, 0.0), FinitePartition((a, b), one))
    v = SimpleElement((0.0, 1.0), FinitePartition((a, b), one))
    assert simple_combine(u, v, "*").value().equals(space.zero_fn())


def test_simple_combine_rejects_unknown_op():
    space = make_space(1)
    one = Idempotent(space.one_fn())
    s = SimpleElement((1.0,), FinitePartition((one,), one))
    with pytest.raises(ValueError):
        simple_combine(s, s, "pow")


def random_simple(rng, space):
    labels = rng.integers(0, 3, space.n)
    used = sorted(set(labels.tolist()))
    one = Idempotent(space.one_fn())
    parts = tuple(mask_idem(space, labels == k) for k in used)
    coeffs = tuple(float(c) for c in rng.standard_normal(len(used)))
    return SimpleElement(coeffs, FinitePartition(parts, one))


def test_simple_combine_matches_pointwise_for_all_ops():
    rng = np.random.default_rng(23)
    ops = {
        "+": np.add,
        "*": np.multiply,
        "max": np.maximum,
        "min": np.minimum,
    }
    for _ in range(200):
        space = make_space(int(rng.integers(1, 7)))
        u, v = random_simple(rng, space), random_simple(rng, space)
        for op, fn in ops.items():
            got = simple_combine(u, v, op).value().values
            want = fn(u.value().values, v.value().values)
            assert np.array_equal(got, want)


# --------------------------------------------------------------------------
# Disjointness criteria
# --------------------------------------------------------------------------

def test_check_disjoint_oracles():
    space = make_space(3)
    assert check_disjoint([Fn([1, 0, 0], space), Fn([0, -2, 0], space)])
    space2 = make_space(2)
    assert not check_disjoint([Fn([1, 1], space2), Fn([0, 1], space2)])


def test_disjointness_criteria_agree_on_random_families():
    rng = np.random.default_rng(31)
    space = make_space(8)
    for _ in range(50):
        owner = rng.integers(0, 5, 8)
        fam = [
            Fn(np.where(owner == k, rng.standard_normal(8), 0.0), space)
            for k in range(5)
        ]
        assert check_disjoint(fam)
        assert check_disjoint_products(fam)
    # Overlap makes both criteria fail.
    fam = [Fn([1.0] * 8, space), Fn([0.0] * 7 + [2.0], space)]
    assert not check_disjoint(fam)
    assert not check_disjoint_products(fam)
