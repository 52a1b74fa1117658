"""Finite measure spaces, function-space distances, structures, Stone atoms."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rieszmod import (
    DualSystem,
    FiniteFStructure,
    FiniteMeasureSpace,
    Fn,
    Idempotent,
    InputError,
    InvalidExponent,
    InvalidStructure,
    Kind,
    NegativeInput,
    SpaceMismatch,
    check_fstructure_laws,
    l0_distance,
    local_inverse,
    lp_norm,
    stone_atoms,
    support_of,
    supporting_element,
)
from rieszmod.spaces import _non_number_at, _require_numbers
from helpers import (
    count_calls,
    make_space,
    make_structure,
    random_fn,
    sequential_fstructure_report,
    sequential_stone_atoms,
)


# --------------------------------------------------------------------------
# Spaces and carriers
# --------------------------------------------------------------------------

def test_space_validation():
    with pytest.raises(InvalidStructure):
        FiniteMeasureSpace.make([], [])
    with pytest.raises(InvalidStructure):
        FiniteMeasureSpace.make(["a"], [0.0])
    with pytest.raises(InvalidStructure):
        FiniteMeasureSpace.make(["a", "b"], [1.0])
    with pytest.raises(InvalidStructure):
        FiniteMeasureSpace.make(["a"], [1.0], [-1.0])


def test_aux_weights_default_to_normalized_reference():
    space = FiniteMeasureSpace.make(["a", "b"], [3.0, 1.0])
    assert space.aux_weights == (0.75, 0.25)
    assert math.isclose(sum(space.aux_weights), 1.0)


def test_space_json_round_trip():
    space = FiniteMeasureSpace.make(["a", "b"], [1.0, 2.0], [0.5, 0.5])
    assert FiniteMeasureSpace.from_json(space.to_json()) == space
    with pytest.raises(InputError):
        FiniteMeasureSpace.from_json({"atoms": ["a"]})
    with pytest.raises(InputError):
        FiniteMeasureSpace.from_json({"atoms": ["a"], "weights": [0.0]})


def test_fn_shape_and_space_checks():
    space = make_space(2)
    with pytest.raises(SpaceMismatch):
        Fn([1.0, 2.0, 3.0], space)
    other = make_space(2, [2.0, 2.0])
    with pytest.raises(SpaceMismatch):
        Fn([1.0, 2.0], space) + Fn([1.0, 2.0], other)


def test_fn_batches_keep_shape_and_reduce_per_function():
    space = make_space(3)
    rows = np.array([[2.0, 0.0, -1.0], [1.0, 1.0, 1.0]])
    f, g = Fn(rows, space), Fn(np.abs(rows), space)
    for op in (f + g, f - g, -f, f * g, f.scale(2.0), f.join(g), f.meet(g),
               f.zero(), f.one(), f.chi_pos(), f.abs()):
        assert op.values.shape == (2, 3)
    assert (f * g).values.tolist() == [[4.0, 0.0, -1.0], [1.0, 1.0, 1.0]]
    assert f.leq(g).tolist() == [True, True]
    assert g.leq(f).tolist() == [False, True]
    assert f.equals(g).tolist() == [False, True]
    assert f.deviation(g).tolist() == [2.0, 0.0]
    assert f.sup_abs.tolist() == [2.0, 1.0]
    assert f.to_json() == rows.tolist()
    # One function reduces to Python scalars, as it always did.
    one = Fn(rows[0], space)
    assert type(one.leq(one)) is bool and type(one.equals(one)) is bool
    assert type(one.deviation(one.zero())) is float and one.deviation(one.zero()) == 2.0
    assert one.zero().values.shape == (3,)
    with pytest.raises(SpaceMismatch):
        f + one
    with pytest.raises(SpaceMismatch):
        Fn(np.zeros((2, 2, 3)), space)
    with pytest.raises(SpaceMismatch):
        space.fn(rows)
    assert space.fn(rows[0]).equals(one)


def test_fn_chi_pos_and_lattice_ops():
    space = make_space(3)
    f = Fn([2.0, 0.0, -1.0], space)
    assert f.chi_pos().values.tolist() == [1.0, 0.0, 0.0]
    assert f.abs().values.tolist() == [2.0, 0.0, 1.0]
    assert f.join(-f).values.tolist() == [2.0, 0.0, 1.0]
    assert f.meet(f.zero()).values.tolist() == [0.0, 0.0, -1.0]


def test_public_constructors_copy_caller_data():
    space = make_space(3)
    for data in (np.array([1.0, -2.0, 3.0]), np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 0.0]])):
        kept = data.copy()
        f = Fn(data, space)
        assert not np.shares_memory(f.values, data)
        data[..., 0] = 99.0
        assert np.array_equal(f.values, kept) and not f.values.flags.writeable
    data = np.array([1.0, -2.0, 3.0])
    for f in (space.fn(data), space.fn(data.tolist())):
        assert not np.shares_memory(f.values, data)
        data[1] = 7.0
        assert f.values.tolist() == [1.0, -2.0, 3.0] and not f.values.flags.writeable
        data[1] = -2.0
    for mask in (np.array([True, False, True]), np.array([1.0, 0.0, 1.0])):
        f = space.indicator(mask)
        assert not np.shares_memory(f.values, mask)
        mask[1] = True
        assert f.values.tolist() == [1.0, 0.0, 1.0] and not f.values.flags.writeable


def test_operation_results_are_read_only():
    space = make_space(3)
    for rows in (np.array([2.0, 0.0, -1.0]), np.array([[2.0, 0.0, -1.0], [1.0, -3.0, 0.5]])):
        f, g = Fn(rows, space), Fn(np.abs(rows), space)
        results = (f + g, f - g, -f, f * g, f.scale(2.0), f.join(g), f.meet(g),
                   f.zero(), f.one(), f.chi_pos(), f.abs())
        assert len(results) == 11
        for out in results:
            assert type(out) is Fn and not out.values.flags.writeable
            assert out.values.shape == rows.shape and out.values.dtype == np.float64
            with pytest.raises(ValueError):
                out.values[..., 0] = 5.0
    for f in (space.zero_fn(), space.one_fn()):
        assert not f.values.flags.writeable


def test_stone_atoms_are_read_only():
    space = make_space(4)
    atoms, _ = stone_atoms([space.indicator([True, True, False, False]),
                            space.indicator([True, False, True, False])])
    assert len(atoms) == 4
    for atom in atoms:
        assert not atom.element.values.flags.writeable
        with pytest.raises(ValueError):
            atom.element.values[0] = 2.0


# --------------------------------------------------------------------------
# Distances
# --------------------------------------------------------------------------

def test_lp_norm_oracles():
    space = make_space(2)
    f = Fn([3.0, -4.0], space)
    assert lp_norm(f, 1.0) == 7.0
    assert lp_norm(f, math.inf) == 4.0
    assert lp_norm(space.zero_fn(), 2.0) == 0.0
    with pytest.raises(InvalidExponent):
        lp_norm(f, 0.5)


def test_l0_distance_oracles():
    space = FiniteMeasureSpace.make(["a", "b"], [1.0, 1.0], [1.0, 1.0])
    f = Fn([0.5, 3.0], space)
    assert l0_distance(f, space.zero_fn()) == 1.5
    assert l0_distance(f, f) == 0.0
    single = FiniteMeasureSpace.make(["a"], [1.0], [0.5])
    assert l0_distance(Fn([2.0], single), Fn([5.0], single)) == 0.5


def _batch_and_rows(n, seed):
    """A batch of 40 functions on n weighted atoms, each row also alone.

    Rows mix magnitudes from 1e-3 to 1e3 and include a zero row, so the
    reductions see sums of very different sizes.
    """
    rng = np.random.default_rng(seed)
    space = make_space(n, rng.uniform(0.3, 3.0, n), rng.uniform(0.3, 3.0, n))
    values = rng.standard_normal((40, n)) * 10.0 ** rng.uniform(-3, 3, (40, 1))
    values[7] = 0.0
    return Fn(values, space), [Fn(row, space) for row in values]


def _assert_rows_equal(batched, singles):
    assert isinstance(batched, np.ndarray) and batched.shape == (len(singles),)
    assert all(type(x) is float for x in singles)
    # Bit for bit: equality of the raw doubles, not closeness.
    assert batched.tobytes() == np.array(singles).tobytes()


@pytest.mark.parametrize("n", [1, 2, 300])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_lp_norm_reduces_per_row(p, n):
    batch, rows = _batch_and_rows(n, seed=n)
    _assert_rows_equal(lp_norm(batch, p), [lp_norm(f, p) for f in rows])


@pytest.mark.parametrize("n", [1, 2, 300])
@pytest.mark.parametrize("truncation", [None, lambda d: np.abs(np.sin(d))],
                         ids=["min1", "sin"])
def test_l0_distance_reduces_per_row(truncation, n):
    batch, rows = _batch_and_rows(n, seed=n + 1)
    other, others = _batch_and_rows(n, seed=n + 2)
    other = Fn(other.values, batch.space)
    others = [Fn(g.values, batch.space) for g in others]
    _assert_rows_equal(l0_distance(batch, other, truncation=truncation),
                       [l0_distance(f, g, truncation=truncation) for f, g in zip(rows, others)])


@pytest.mark.parametrize("entry", [1e-6, 1e6, 1e-200, 1e200])
@pytest.mark.parametrize("p", [3.0, 60.0])
def test_lp_norm_rescales_powers_that_leave_the_double_range(p, entry):
    # At 1e-6 and p = 60 the plain power sum underflows to 0 (a nonzero
    # function of norm 0); at 1e6 it overflows to inf with a RuntimeWarning,
    # which the suite turns into an error.
    space = make_space(3, [1.0, 0.5, 2.0])
    want = entry * 3.5 ** (1.0 / p)
    got = lp_norm(Fn([entry] * 3, space), p)
    assert math.isclose(got, want, rel_tol=1e-14)
    assert math.isclose(lp_norm(Fn([-entry, 0.0, 0.0], space), p), entry, rel_tol=1e-14)


def test_lp_norm_rescaling_leaves_rows_in_range_alone():
    space = make_space(3, [1.0, 0.5, 2.0])
    values = np.array([[1e-6] * 3, [0.3, -1.7, 2.2], [1e6] * 3, [0.0] * 3, [math.inf, 1.0, 0.0]])
    got = lp_norm(Fn(values, space), 60.0)
    assert got[0] > 0.0 and math.isfinite(got[2])
    # The in-range row has the plain formula's bits.
    plain = float(np.sum(np.abs(values[1]) ** 60.0 * space.mu) ** (1.0 / 60.0))
    assert got[1] == plain
    assert got[3] == 0.0 and got[4] == math.inf
    assert got.tolist() == [lp_norm(Fn(row, space), 60.0) for row in values]


def test_l0_distance_metric_axioms_sampled():
    rng = np.random.default_rng(7)
    space = make_space(4, [1.0, 0.5, 2.0, 1.0])
    zero = space.zero_fn()
    for _ in range(500):
        f, g, h = (random_fn(rng, space, 2.0) for _ in range(3))
        assert l0_distance(f, zero) == l0_distance(f.abs(), zero)
        assert math.isclose(l0_distance(f + h, g + h), l0_distance(f, g), abs_tol=1e-12)
        a, b = f.abs(), f.abs() + g.abs()
        assert l0_distance(a, zero) <= l0_distance(b, zero) + 1e-12
        assert l0_distance(f, g) <= l0_distance(f, h) + l0_distance(h, g) + 1e-12


def test_hoelder_inequality_sampled():
    rng = np.random.default_rng(13)
    space = make_space(5, [0.5, 1.0, 2.0, 1.5, 0.7])
    for p, q in [(2.0, 2.0), (3.0, 1.5), (4.0, 4.0 / 3.0)]:
        r = 1.0 / (1.0 / p + 1.0 / q)
        for _ in range(100):
            f, g = random_fn(rng, space), random_fn(rng, space)
            assert lp_norm(f * g, r) <= lp_norm(f, p) * lp_norm(g, q) + 1e-12


def test_sup_of_family_is_pointwise_max_and_attained():
    rng = np.random.default_rng(3)
    space = make_space(6)
    fam = [random_fn(rng, space) for _ in range(10)]
    sup = fam[0]
    for f in fam[1:]:
        sup = sup.join(f)
    assert np.array_equal(sup.values, np.max([f.values for f in fam], axis=0))
    # Each coordinate of the sup is attained by some member of the family.
    for i in range(space.n):
        assert any(f.values[i] == sup.values[i] for f in fam)


class CofiniteZeroOne:
    """A 0/1 'function' on an uncountable index set: a default value plus a
    countable exception set.  Joins stay in this class, which is enough to
    show that the sup of all singleton indicators (default 1, no exceptions)
    is not the join of any countable subfamily (default stays 0)."""

    def __init__(self, default, exceptions=frozenset()):
        self.default = default
        self.exceptions = frozenset(exceptions)

    def join(self, other):
        if self.default != other.default:
            raise NotImplementedError("mixed defaults are not needed for the test")
        return CofiniteZeroOne(self.default, self.exceptions | other.exceptions)

    def __eq__(self, other):
        return (self.default, self.exceptions) == (other.default, other.exceptions)


def test_mock_uncountable_carrier_sup_not_countably_attained():
    singletons = (CofiniteZeroOne(0, {i}) for i in range(10**6))  # stand-in sample
    countable_join = CofiniteZeroOne(0)
    for _ in range(1000):
        countable_join = countable_join.join(next(singletons))
    full_sup = CofiniteZeroOne(1)
    assert countable_join != full_sup
    assert countable_join.default == 0


# --------------------------------------------------------------------------
# Kinds, structures, dual systems
# --------------------------------------------------------------------------

def test_kind_validation_and_json():
    with pytest.raises(InvalidStructure):
        Kind("Lq")
    with pytest.raises(InvalidExponent):
        Kind("Lp", 0.5)
    with pytest.raises(InvalidExponent):
        Kind("Lp", math.inf)
    with pytest.raises(InvalidStructure):
        Kind("Linf", 2.0)
    assert Kind.from_json({"Lp": 2}) == Kind("Lp", 2.0)
    assert Kind.from_json("L0") == Kind("L0")
    with pytest.raises(InputError):
        Kind.from_json("Lq")
    with pytest.raises(InputError):
        Kind.from_json({"Lp": 0.25})


def test_structure_rejects_lp_multipliers():
    space = make_space(2)
    with pytest.raises(InvalidStructure):
        FiniteFStructure(space, Kind("Lp", 2.0), Kind("Lp", 2.0))


def test_structure_json_round_trip():
    s = make_structure(3, v=2.0)
    assert FiniteFStructure.from_json(s.to_json()) == s


def test_dual_system_exponent_arithmetic():
    s = make_structure(2, v=3.0)
    DualSystem(s, Kind("Lp", 1.5), Kind("Lp", 1.0))
    with pytest.raises(InvalidStructure):
        DualSystem(s, Kind("Lp", 1.5), Kind("Lp", 2.0))
    with pytest.raises(InvalidStructure):
        DualSystem(s, Kind("Lp", 1.5), Kind("Linf"))
    # L0 absorbs every partner.
    s0 = make_structure(2, v="l0")
    DualSystem(s0, Kind("Linf"), Kind("L0"))
    with pytest.raises(InvalidStructure):
        DualSystem(s0, Kind("Linf"), Kind("Lp", 1.0))


def test_dual_system_defaults():
    cases = [
        ("l2", Kind("Lp", 2.0), Kind("Lp", 1.0)),
        (3.0, Kind("Lp", 1.5), Kind("Lp", 1.0)),
        ("l1", Kind("Linf"), Kind("Lp", 1.0)),
        ("linf", Kind("Lp", 1.0), Kind("Lp", 1.0)),
        ("l0", Kind("L0"), Kind("L0")),
    ]
    for v, w_kind, z_kind in cases:
        system = DualSystem.default(make_structure(2, v=v))
        assert system.w_kind == w_kind
        assert system.z_kind == z_kind


# --------------------------------------------------------------------------
# Supports and local inverses
# --------------------------------------------------------------------------

def test_support_of_oracles():
    space = make_space(3)
    s = support_of([Fn([1, 0, 0], space), Fn([0, 0, 2], space)])
    assert s.element.values.tolist() == [1.0, 0.0, 1.0]
    assert support_of([space.zero_fn()]).element.equals(space.zero_fn())
    space5 = make_space(5)
    basis = [Fn(np.eye(5)[i], space5) for i in range(5)]
    assert support_of(basis).element.equals(space5.one_fn())
    with pytest.raises(InputError):
        support_of([])


def test_supporting_element_oracles():
    full = make_structure(3)
    assert supporting_element(full).values.tolist() == [1.0, 1.0, 1.0]
    vanishing = [Fn([1.0, 0.0, -2.0], full.space), Fn([0.5, 0.0, 0.0], full.space)]
    assert supporting_element(full, vanishing).values.tolist() == [1.0, 0.0, 1.0]
    single = make_structure(1)
    assert supporting_element(single).values.tolist() == [1.0]


def test_local_inverse_default_mode():
    space = make_space(3)
    part, invs = local_inverse(Fn([2.0, 0.0, 5.0], space))
    assert len(part) == 1
    assert part.parts[0].element.values.tolist() == [1.0, 0.0, 1.0]
    assert invs[0].values.tolist() == [0.5, 0.0, 0.2]


def test_local_inverse_zero_and_unit():
    space = make_space(2)
    part, invs = local_inverse(space.zero_fn())
    assert len(part) == 0 and invs == []
    part, invs = local_inverse(space.one_fn())
    assert part.parts[0].element.equals(space.one_fn())
    assert invs[0].equals(space.one_fn())


def test_local_inverse_faithful_mode_level_sets():
    space = make_space(3)
    part, invs = local_inverse(Fn([2.0, 0.0, 0.5], space), faithful=True)
    # One block per distinct positive value, ascending.
    assert [p.element.values.tolist() for p in part.parts] == [
        [0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0],
    ]
    assert [w.values.tolist() for w in invs] == [[2.0] * 3, [0.5] * 3]


def test_local_inverse_rejects_negative_and_satisfies_identity():
    space = make_space(4)
    with pytest.raises(NegativeInput):
        local_inverse(Fn([1.0, -0.1, 0.0, 0.0], space))
    rng = np.random.default_rng(19)
    one = space.one_fn()
    for _ in range(50):
        u = Fn(np.round(rng.uniform(0, 3, 4), 1), space)
        for faithful in (False, True):
            part, invs = local_inverse(u, faithful=faithful)
            for p, w in zip(part.parts, invs):
                resid = p.element * (u * w - one)
                assert resid.deviation(space.zero_fn()) <= 1e-12


# --------------------------------------------------------------------------
# Stone atoms
# --------------------------------------------------------------------------

def test_stone_atoms_oracles():
    space = make_space(3)
    atoms, emb = stone_atoms([Fn([1, 1, 0], space), Fn([0, 1, 1], space)])
    assert [a.element.values.tolist() for a in atoms] == [
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
    ]
    assert emb == ((0, 1), (1, 2))

    atoms, emb = stone_atoms([space.one_fn()])
    assert len(atoms) == 1 and atoms[0].element.equals(space.one_fn())
    assert emb == ((0,),)

    space2 = make_space(2)
    atoms, emb = stone_atoms([Fn([1, 0], space2), Fn([0, 1], space2)])
    assert [a.element.values.tolist() for a in atoms] == [[1.0, 0.0], [0.0, 1.0]]
    assert emb == ((0,), (1,))


def assert_boolean_embedding(gens, atoms, emb):
    reps = [frozenset(e) for e in emb]
    # Each generator is the sum of its assigned atoms.
    for g, rep in zip(gens, reps):
        total = g.element.zero()
        for k in rep:
            total = total + atoms[k].element
        assert total.equals(g.element)
    # Symmetric difference and intersection transport to index sets.
    for i in range(len(gens)):
        for j in range(len(gens)):
            bp = gens[i].boxplus(gens[j])
            bt = gens[i].boxtimes(gens[j])
            want_bp = reps[i] ^ reps[j]
            want_bt = reps[i] & reps[j]
            got_bp = frozenset(
                k for k in range(len(atoms))
                if (bp.element * atoms[k].element).equals(atoms[k].element)
                and not atoms[k].is_zero()
            )
            got_bt = frozenset(
                k for k in range(len(atoms))
                if (bt.element * atoms[k].element).equals(atoms[k].element)
                and not atoms[k].is_zero()
            )
            assert got_bp == want_bp
            assert got_bt == want_bt


def test_stone_embedding_is_boolean_isomorphism_exhaustive():
    space = make_space(4)
    # All ordered pairs of nonzero idempotents on 4 atoms.
    masks = [np.array([(m >> i) & 1 for i in range(4)], dtype=float)
             for m in range(1, 16)]
    for a in masks:
        for b in masks:
            gens = [Idempotent(Fn(a, space)), Idempotent(Fn(b, space))]
            atoms, emb = stone_atoms(gens)
            assert_boolean_embedding(gens, atoms, emb)


def test_stone_embedding_random_larger_sets():
    rng = np.random.default_rng(41)
    space = make_space(6)
    for _ in range(50):
        gens = []
        while len(gens) < 4:
            mask = rng.integers(0, 2, 6).astype(float)
            gens.append(Idempotent(Fn(mask, space)))
        atoms, emb = stone_atoms(gens)
        assert_boolean_embedding(gens, atoms, emb)


def stone_outcome(f, gens):
    """f's atoms (as bit patterns) and embedding, or the type and message
    it raised."""
    try:
        atoms, emb = f(gens)
    except Exception as exc:
        return type(exc), str(exc)
    return [a.element.values.view(np.uint64).tolist() for a in atoms], emb


def test_stone_atoms_match_the_per_atom_loop():
    # Generators with entries within RING_TOL of 0 and 1, -0.0 entries,
    # raw functions beside idempotents, and now and then a NaN or a 1/2,
    # which the generator check refuses.
    rng = np.random.default_rng(4201)
    raised = 0
    for trial in range(300):
        n = int(rng.integers(1, 40))
        space = make_space(n)
        gens = []
        for _ in range(int(rng.integers(1, 11))):
            row = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(float)
            row += np.where(rng.random(n) < 0.2, rng.uniform(-4e-13, 4e-13, n), 0.0)
            row[(rng.random(n) < 0.2) & (row == 0.0)] = -0.0
            fn = Fn(row, space)
            if rng.random() < 0.03:
                row[rng.integers(n)] = (np.nan, 0.5)[trial % 2]
                fn = Fn(row, space)
            elif rng.random() < 0.5:
                fn = Idempotent(fn)
            gens.append(fn)
        want = stone_outcome(sequential_stone_atoms, gens)
        assert stone_outcome(stone_atoms, gens) == want
        raised += isinstance(want[0], type)
    assert raised > 0
    assert stone_outcome(stone_atoms, []) == stone_outcome(sequential_stone_atoms, [])


def test_stone_atoms_refuse_generators_on_other_spaces():
    xyz = FiniteMeasureSpace.make(["x", "y", "z"], [1.0, 1.0, 1.0])
    pqr = FiniteMeasureSpace.make(["p", "q", "r"], [1.0, 1.0, 1.0])
    with pytest.raises(SpaceMismatch, match="different measure spaces"):
        stone_atoms([xyz.indicator([True, False, True]), pqr.indicator([True, True, False])])
    with pytest.raises(SpaceMismatch, match="different measure spaces"):
        stone_atoms([make_space(3).one_fn(), make_space(2).one_fn()])


def test_stone_atoms_are_not_rechecked(monkeypatch):
    rng = np.random.default_rng(4203)
    space = make_space(300)
    gens = [Idempotent(space.indicator(rng.random(300) < 0.5)) for _ in range(8)]
    want = stone_outcome(sequential_stone_atoms, gens)
    calls = count_calls(monkeypatch, Idempotent, "__post_init__")
    got = stone_outcome(stone_atoms, gens)
    assert calls[0] == 0
    assert len(got[0]) > 100 and got == want


# --------------------------------------------------------------------------
# Metric-axiom suite
# --------------------------------------------------------------------------

def fstruct_triples(structure, count, seed):
    rng = np.random.default_rng(seed)
    space = structure.space
    return [tuple(random_fn(rng, space, 2.0) for _ in range(3)) for _ in range(count)]


@pytest.mark.parametrize("u,v", [
    ("Linf", "l2"),
    ("Linf", "l1"),
    ("Linf", "linf"),
    ("Linf", "l0"),
    ("L0", "l0"),
    ("L0", 3.0),
])
def test_fstructure_laws_pass(u, v):
    structure = make_structure(4, v=v, weights=[1.0, 0.5, 2.0, 1.5], u=u)
    report = check_fstructure_laws(structure, fstruct_triples(structure, 200, seed=2))
    assert report.all_passed(), report.failed_ids()


def test_fstructure_laws_singleton_space():
    structure = make_structure(1, v="l2")
    report = check_fstructure_laws(structure, fstruct_triples(structure, 50, seed=4))
    assert report.all_passed()


def test_corrupted_distance_is_flagged():
    # A wrong truncation keeps translation invariance (it only sees f - g)
    # but destroys monotonicity of d(., 0) on the positive cone.
    structure = make_structure(4, v="l0")

    def corrupted(f, g):
        return l0_distance(f, g, truncation=lambda d: np.abs(np.sin(d)))

    report = check_fstructure_laws(
        structure, fstruct_triples(structure, 200, seed=6), d_v=corrupted
    )
    results = {r.id: r.passed for r in report.laws}
    assert results["fstruct-translation"] is True
    assert results["fstruct-monotone"] is False


def _lattice_truncation(t):
    """The benchmark's corruption: t -> (t ^ 1) + 1/2 [t > 0]."""
    return np.minimum(t, 1.0) + 0.5 * (t > 0.0)


FSTRUCT_PAIRS = [("Linf", "l2"), ("Linf", "l1"), ("Linf", "linf"),
                 ("Linf", "l0"), ("L0", "l0"), ("L0", 3.0)]


def _weighted_structure(n, u, v, seed):
    rng = np.random.default_rng(seed)
    return make_structure(n, v=v, weights=rng.uniform(0.3, 3.0, n).tolist(), u=u)


@pytest.mark.parametrize("n", [1, 2, 300])
@pytest.mark.parametrize("u,v", FSTRUCT_PAIRS)
def test_fstructure_report_matches_the_sequential_loop(u, v, n):
    structure = _weighted_structure(n, u, v, seed=n)
    for count in (0, 1, 7, 200):
        samples = fstruct_triples(structure, count, seed=count)
        assert (check_fstructure_laws(structure, samples).to_json()
                == sequential_fstructure_report(structure, samples))


@pytest.mark.parametrize("n", [1, 2, 300])
@pytest.mark.parametrize("truncation", [lambda d: np.abs(np.sin(d)), _lattice_truncation],
                         ids=["sin", "lattice"])
def test_corrupted_fstructure_report_matches_the_sequential_loop(truncation, n):
    def corrupted(f, g):
        return l0_distance(f, g, truncation=truncation)

    failed = 0
    for role in ("d_u", "d_v"):
        for i, (u, v) in enumerate(FSTRUCT_PAIRS):
            structure = _weighted_structure(n, u, v, seed=10 + i)
            for count in (1, 7, 50):
                samples = fstruct_triples(structure, count, seed=count + i)
                report = check_fstructure_laws(structure, samples, **{role: corrupted})
                assert report.to_json() == sequential_fstructure_report(
                    structure, samples, **{role: corrupted})
                failed += not report.all_passed()
    # The comparison covers reported counterexamples, not only passes.
    assert failed > 0


def test_fstructure_laws_reject_a_sample_on_another_space_of_equal_size():
    structure = make_structure(4, v="l2", weights=[1.0, 0.5, 2.0, 1.5])
    other = make_space(4, [1.0, 0.5, 2.0, 1.6])
    samples = fstruct_triples(structure, 5, seed=3)
    rng = np.random.default_rng(0)
    samples[3] = (samples[3][0], random_fn(rng, other), samples[3][2])
    with pytest.raises(SpaceMismatch):
        check_fstructure_laws(structure, samples)


def test_fstructure_laws_call_the_distances_once_per_check_not_per_sample():
    structure = make_structure(4, v="l0", weights=[1.0, 0.5, 2.0, 1.5])
    calls = []

    def counting(f, g):
        calls.append(f.values.shape)
        return l0_distance(f, g)

    counts = []
    for count in (1, 200):
        calls.clear()
        check_fstructure_laws(structure, fstruct_triples(structure, count, seed=1), d_v=counting)
        counts.append(len(calls))
    assert counts[0] == counts[1]
    assert calls[0] == (41, 4) and set(calls[1:]) == {(200, 4)}


def test_fstructure_override_must_return_one_value_per_row():
    structure = make_structure(4, v="l0", weights=[1.0, 0.5, 2.0, 1.5])

    def whole_batch(f, g):
        return float(np.sum(l0_distance(f, g)))

    with pytest.raises(SpaceMismatch):
        check_fstructure_laws(structure, fstruct_triples(structure, 3, seed=1), d_v=whole_batch)


def test_fstructure_modulus_refuses_a_negative_distance_override():
    # eta^(1/3) of a negative eta has no real value to compare against.
    structure = make_structure(3, v=3.0, u="L0")

    def negative(f, g):
        return -l0_distance(f, g)

    with pytest.raises(InvalidStructure):
        check_fstructure_laws(structure, fstruct_triples(structure, 3, seed=1), d_u=negative)


_json_leaf = st.one_of(st.integers(-3, 3), st.floats(allow_nan=True), st.booleans(),
                       st.none(), st.text(max_size=2), st.just({}), st.just(()))


@given(st.recursive(_json_leaf, lambda inner: st.lists(inner, max_size=4), max_leaves=20),
       st.sampled_from([-1, 0, 1, 2, 3]))
def test_require_numbers_refuses_exactly_what_the_walk_finds(raw, depth):
    # The one-test-per-type pass decides only lists of numbers; anything
    # else is walked, so the verdict and the path are the walk's.
    bad = _non_number_at(raw, depth)
    if bad:
        with pytest.raises(InputError) as exc:
            _require_numbers(raw, "refused", "$.x", depth)
        assert exc.value.path == "$.x" + bad and exc.value.message == "refused"
    else:
        _require_numbers(raw, "refused", "$.x", depth)
