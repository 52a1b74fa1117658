"""Fiberwise modules: pointwise norms, glueing, quotients, dimensions."""

import hashlib
import itertools
import json
import math
import pathlib
import time

import numpy as np
import pytest

from rieszmod import (
    RANK_RTOL,
    AdmissibleFamily,
    DimensionMismatch,
    DualSystem,
    Fiber,
    FiberModule,
    FiberNorm,
    FiniteFStructure,
    FinitePartition,
    Fn,
    GramNorm,
    Idempotent,
    ImageLpNorm,
    InputError,
    InvalidExponent,
    InvalidStructure,
    LpNorm,
    ModuleElement,
    ModuleMismatch,
    NotAPartition,
    SolverFailed,
    SpaceMismatch,
    Submodule,
    dimensional_decomposition,
    dual_module,
    dual_vector_norm,
    glue,
    hahn_banach_extend,
    independence_check,
    kernel_basis,
    matrix_rank,
    module_distance,
    pointwise_norm,
    quotient_norm,
    row_ranks,
    row_space_basis,
    zero_indicator,
)
from rieszmod import _kernels, modules
from rieszmod._kernels import _GAP_RTOL, _SIMPLEX_GAP, _lp_conjugate, _lp_gauges
from rieszmod.constructions import _lift_rows
from rieszmod.homdual import _min_dual_norms
from rieszmod.modules import _extension_values, _lp_factor, _lp_rows
from helpers import (
    count_solver_calls,
    gram_module,
    lp_module,
    make_space,
    make_structure,
    primal_lp_distance,
    random_element,
    reference_need,
    random_fn,
    random_spd,
    sequential_rank,
)

DATA = pathlib.Path(__file__).parent / "data"


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


def _gram_cases(rng, count=300):
    """Random grams of sizes 1-5 and scales 1e-3 to 1e3: exactly symmetric,
    symmetric within tolerance, asymmetric, indefinite, and with the
    smallest eigenvalue just above or just below the rank cutoff."""
    cases = []
    for i in range(count):
        d = 1 + i % 5
        q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        lam = rng.uniform(0.5, 3.0, d) * 10.0 ** rng.integers(-3, 4)
        kind = i % 6
        if kind == 3:
            lam[0] = -lam[0]
        elif kind in (4, 5):
            lam[0] = RANK_RTOL * max(1.0, lam.max()) * (1.0 + (1e-6 if kind == 4 else -1e-6))
        g = (q * lam) @ q.T
        g = 0.5 * (g + g.T)
        if kind == 1:
            g = g + 1e-14 * np.abs(g).max() * rng.standard_normal((d, d))
        elif kind == 2:
            g = g + 1e-3 * np.abs(g).max() * rng.standard_normal((d, d))
        cases.append(g)
    return cases


def _single_verdict(g):
    try:
        return GramNorm(g).gram, None
    except InvalidStructure as exc:
        return None, exc.message


def test_stacked_gram_check_refuses_what_the_single_check_refuses():
    # FiberModule.from_json validates all grams of one size at once; each
    # gram must pass or fail as GramNorm alone decides, with its message and
    # bits, and the first failing fiber must be the one reported.
    rng = np.random.default_rng(31)
    cases = _gram_cases(rng)
    verdicts = [_single_verdict(g) for g in cases]
    assert {why for _, why in verdicts} == {None, "gram matrix must be symmetric",
                                           "gram matrix must be positive definite"}
    good = [g for g, (_, why) in zip(cases, verdicts) if why is None]
    structure = make_structure(12)

    def fiber(g):
        return {"dim": g.shape[0], "norm": {"gram": g.tolist()}}

    trailing_defect = fiber(-np.eye(2))
    for k, (g, (want, why)) in enumerate(zip(cases, verdicts)):
        prefix = [fiber(good[(7 * k + j) % len(good)]) for j in range(8)]
        fibers = prefix + [fiber(g), {"dim": 1, "norm": {"lp": 2.0}}, trailing_defect,
                           fiber(good[k % len(good)])]
        with pytest.raises(InputError) as info:
            FiberModule.from_json({"structure": structure.to_json(), "fibers": fibers})
        if why is None:
            assert (info.value.message, info.value.path) == (
                "gram matrix must be positive definite", "$.fibers[10].norm.gram")
            del fibers[10]
            m = FiberModule.from_json({"structure": make_structure(11).to_json(),
                                       "fibers": fibers})
            assert m.fibers[8].norm.gram.tobytes() == want.tobytes()
            assert not m.fibers[8].norm.gram.flags.writeable
        else:
            assert (info.value.message, info.value.path) == (why, "$.fibers[8].norm.gram")


def test_dual_module_grams_equal_the_single_inverse_check():
    rng = np.random.default_rng(32)
    grams = [g for g in _gram_cases(rng, 120) if _single_verdict(g)[1] is None]
    grams += [np.zeros((0, 0))] * 3
    m = gram_module(make_structure(len(grams)), grams)
    dual = dual_module(m, DualSystem.default(m.structure))
    for f, dual_f in zip(m.fibers, dual.fibers):
        g = f.norm.gram
        want = GramNorm(np.linalg.inv(g) if g.size else g).gram
        assert dual_f.norm.gram.tobytes() == want.tobytes()
        assert dual_f.norm.gram.shape == g.shape


def test_module_json_reports_gram_defects_in_fiber_order():
    structure = make_structure(7)
    plain = {"dim": 2, "norm": {"lp": 2.0}}
    asym = {"dim": 2, "norm": {"gram": [[1.0, 0.5], [-0.5, 1.0]]}}
    indefinite = {"dim": 2, "norm": {"gram": [[1.0, 2.0], [2.0, 1.0]]}}
    bad_p = {"dim": 2, "norm": {"lp": 0.5}}
    wrong_dim = {"dim": 3, "norm": {"gram": [[2.0, 0.0], [0.0, 2.0]]}}
    cases = [
        # a gram defect beats a parse error at a later fiber
        ({3: indefinite, 5: bad_p}, "$.fibers[3].norm.gram", "positive definite"),
        ({3: asym, 5: {"dim": 2}}, "$.fibers[3].norm.gram", "symmetric"),
        ({3: asym, 4: indefinite}, "$.fibers[3].norm.gram", "symmetric"),
        # and loses to one at an earlier fiber
        ({2: bad_p, 4: indefinite}, "$.fibers[2].norm.lp", "[1, inf]"),
        ({2: wrong_dim, 4: asym}, "$.fibers[2]", "fiber dimension is 3"),
        ({1: "garbage", 4: asym}, "$.fibers[1]", "'dim' and 'norm'"),
        # at one fiber the gram is checked before the fiber's dimension
        ({3: dict(indefinite, dim=3), 5: asym}, "$.fibers[3].norm.gram", "positive definite"),
    ]
    for changes, path, words in cases:
        fibers = [changes.get(i, plain) for i in range(7)]
        with pytest.raises(InputError) as info:
            FiberModule.from_json({"structure": structure.to_json(), "fibers": fibers})
        assert info.value.path == path
        assert words in info.value.message
    # Parse errors of any type lose to an earlier gram defect too, and still
    # surface as they are on their own: an image exponent below 1 as
    # InvalidExponent, a word where a number belongs as InputError.
    image_p = {"dim": 2, "norm": {"image_lp": {"matrix": [[1.0, 0.0], [0.0, 1.0]], "p": 0.5}}}
    image_word = {"dim": 2, "norm": {"image_lp": {"matrix": [[1.0, 0.0], [0.0, 1.0]],
                                                  "p": "two"}}}
    for later, error in ((image_p, InvalidExponent), (image_word, InputError)):
        fibers = [{3: indefinite, 5: later}.get(i, plain) for i in range(7)]
        with pytest.raises(InputError) as info:
            FiberModule.from_json({"structure": structure.to_json(), "fibers": fibers})
        assert (info.value.path, info.value.message) == (
            "$.fibers[3].norm.gram", "gram matrix must be positive definite")
        fibers[3] = plain
        with pytest.raises(error):
            FiberModule.from_json({"structure": structure.to_json(), "fibers": fibers})


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


def test_lp_norm_rescales_powers_out_of_range():
    # 1e-6 ** 60 underflows to 0 and 1e6 ** 60 overflows to inf; the row
    # is recomputed scaled by its largest entry, so the norm stays positive
    # and finite.
    want = 3.0 ** (1.0 / 60.0)
    assert LpNorm(60.0).norm([1e-6] * 3) == pytest.approx(1e-6 * want, rel=1e-15)
    assert LpNorm(60.0).norm([1e6] * 3) == pytest.approx(1e6 * want, rel=1e-15)
    assert LpNorm(1e30).norm([1e6, -3.0]) == 1e6


def test_stacked_lp_rows_equal_one_row_calls():
    # Rows in range keep the bits of the plain power sum; rows out of range
    # (tiny, huge, zero, inf, nan entries) are rescaled or left alone row by
    # row, so every row of a stack has the bits of its one-row call.
    rng = np.random.default_rng(140)
    x = rng.standard_normal((60, 5)) * 10.0 ** rng.integers(-200, 200, (60, 1))
    x[::7] = 0.0
    x[3, 2], x[4, 1], x[5, 0] = math.inf, math.nan, -1e-320
    for p in (1.0, 1.5, 2.0, 3.0, 60.0, 1e30, math.inf):
        stacked = _lp_rows(p, x)
        for row, val in zip(x, stacked):
            assert _lp_rows(p, row[None]).tobytes() == np.array([val]).tobytes()
        if p in (1.5, 2.0, 3.0, 60.0):
            with np.errstate(over="ignore", under="ignore"):
                sums = np.add.reduce(np.abs(x) ** p, axis=1)
            plain = (sums >= np.finfo(float).tiny) & (sums < math.inf)
            assert plain.any()
            assert np.array_equal(stacked[plain], sums[plain] ** (1.0 / p))


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
    # Without pivots the start t = 0 is not optimal here: the simplex
    # raises instead of returning |v|_1.
    monkeypatch.setattr(_kernels, "_PIVOTS_PER_COLUMN", 0)
    m = lp_module(make_structure(1), (3,), p=1.0)
    v = ModuleElement([[1.0, -2.0, 0.5]], m)
    with pytest.raises(SolverFailed, match="not optimal after 0 pivots"):
        quotient_norm(v, Submodule(m, (np.array([[1.0, 0.0, 0.0]]),)))


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


def _per_atom_flat(vectors):
    """The flat vector of the per-atom construction: one conversion per atom."""
    return np.concatenate([np.asarray(v, dtype=float).reshape(-1) for v in vectors] or [np.zeros(0)])


def test_element_flat_equals_the_per_atom_concatenation():
    rng = np.random.default_rng(41)
    dims = [int(d) for d in rng.integers(0, 5, 300)]
    m = lp_module(make_structure(len(dims)), dims)
    arrays = [rng.standard_normal(d) * 10.0 ** rng.integers(-300, 300) for d in dims]
    cases = {
        "numpy arrays": arrays,
        "lists of floats": [a.tolist() for a in arrays],
        "lists of ints": [[int(x) for x in rng.integers(-2**60, 2**60, d)] for d in dims],
        "mixed": [a if i % 3 else a.tolist() for i, a in enumerate(arrays)],
        "float32 arrays": [rng.standard_normal(d).astype(np.float32) for d in dims],
    }
    for name, vectors in cases.items():
        v = ModuleElement(vectors, m)
        assert v.flat.dtype == np.float64, name
        assert v.flat.tobytes() == _per_atom_flat(vectors).tobytes(), name
        assert not v.flat.flags.writeable
    empty = lp_module(make_structure(3), (0, 0, 0))
    assert ModuleElement([[], np.zeros(0), []], empty).flat.tobytes() == b""


def test_element_refuses_vectors_that_are_not_flat():
    m = lp_module(make_structure(3), (2, 1, 2))
    for vectors in (
        [[1.0, 2.0], 3.0, [4.0, 5.0]],                       # a scalar
        [[1.0, 2.0], np.float64(3.0), [4.0, 5.0]],
        [[1.0, 2.0], np.array(3.0), [4.0, 5.0]],             # a 0-d array
        [[1.0, 2.0], [3.0], np.ones((2, 2))],                # 2-D: 4 entries, length 2
        [np.ones((2, 3)), [3.0], [4.0, 5.0]],
        [[[1.0, 2.0], [3.0, 4.0]], [3.0], [4.0, 5.0]],       # nested lists
    ):
        with pytest.raises(DimensionMismatch, match="flat"):
            ModuleElement(vectors, m)
    # A column, flattened, has its length: it is flat.
    v = ModuleElement([np.ones((2, 1)), [3.0], [4.0, 5.0]], m)
    assert v.flat.tolist() == [1.0, 1.0, 3.0, 4.0, 5.0]
    with pytest.raises(DimensionMismatch) as info:
        ModuleElement([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], m)
    assert info.value.message == "fiber vector has length 2, fiber dimension is 1"


def _fiber_by_fiber(obj):
    """The module of obj built one fiber at a time from ``FiberNorm.from_json``."""
    return FiberModule(FiniteFStructure.from_json(obj["structure"]),
                       tuple(Fiber(int(f["dim"]), FiberNorm.from_json(f["norm"]))
                             for f in obj["fibers"]))


def _assert_same_module(got, want):
    assert got == want
    for f, g in zip(got.fibers, want.fibers):
        assert type(f.norm) is type(g.norm)
        if type(f.norm) is GramNorm:
            assert f.norm.gram.tobytes() == g.norm.gram.tobytes()
            assert not f.norm.gram.flags.writeable


def _mixed_module_json(rng, n):
    fibers = []
    for i in range(n):
        d = int(rng.integers(0, 5))
        kind = ("lp", "gram", "image")[i % 3] if d else "lp"
        if kind == "lp":
            p = (1, 1.0, 2.0, 3.0, "inf", 1e30)[int(rng.integers(0, 6))]
            norm = {"lp": p}
        elif kind == "gram":
            g = random_spd(rng, d)
            if i % 7 == 0:   # symmetric only to within tolerance: stored as (G + G^T) / 2
                g[0, -1] += 1e-14
            norm = {"gram": g.tolist()}
        else:
            norm = {"image_lp": {"matrix": rng.standard_normal((d + 1, d)).tolist(), "p": 1.0}}
        fibers.append({"dim": float(d) if i % 11 == 0 else d, "norm": norm})
    return {"structure": make_structure(n).to_json(), "fibers": fibers}


def test_module_from_json_equals_the_fiber_by_fiber_build():
    rng = np.random.default_rng(42)
    objs = [json.loads((DATA / name).read_text())
            for name in ("module_221.json", "module_gram.json", "module_push.json")]
    objs.append(json.loads((DATA / "hb_problem.json").read_text())["module"])
    objs.append(json.loads(json.dumps(_mixed_module_json(rng, 2000))))
    for obj in objs:
        _assert_same_module(FiberModule.from_json(obj), _fiber_by_fiber(obj))


def test_module_from_json_shares_one_lp_fiber_per_dim_and_exponent():
    structure = make_structure(6)
    fibers = [{"dim": 2, "norm": {"lp": 2.0}}, {"dim": 2, "norm": {"lp": 2}},
              {"dim": 2.0, "norm": {"lp": 2.0}}, {"dim": 1, "norm": {"lp": 2.0}},
              {"dim": 2, "norm": {"lp": "inf"}}, {"dim": 2, "norm": {"lp": "inf"}}]
    m = FiberModule.from_json({"structure": structure.to_json(), "fibers": fibers})
    assert m.fibers[0] is m.fibers[1] is m.fibers[2]
    assert m.fibers[4] is m.fibers[5]
    assert m.fibers[3] == Fiber(1, LpNorm(2.0)) and m.fibers[4] == Fiber(2, LpNorm(math.inf))
    assert type(m.fibers[0].dim) is int


@pytest.mark.parametrize("dim", [1e308, 2**63, modules.MAX_FIBER_DIM + 1])
def test_module_from_json_caps_the_fiber_dim(dim):
    # Refused at the dim, before anything of that size is allocated.
    structure = make_structure(2)
    for norm in ({"lp": 2.0}, {"gram": [[1.0]]}, {"image_lp": {"matrix": [[1.0]], "p": 1.0}}):
        fibers = [{"dim": 1, "norm": {"lp": 2.0}}, {"dim": dim, "norm": norm}]
        with pytest.raises(InputError) as info:
            FiberModule.from_json({"structure": structure.to_json(), "fibers": fibers})
        assert (info.value.path, info.value.message) == (
            "$.fibers[1].dim", f"fiber dim must be at most {modules.MAX_FIBER_DIM}")


def test_module_from_json_accepts_the_capped_dim():
    # Parsing allocates nothing of the fiber's size; nothing else runs here.
    fibers = [{"dim": modules.MAX_FIBER_DIM, "norm": {"lp": 2.0}}]
    m = FiberModule.from_json({"structure": make_structure(1).to_json(), "fibers": fibers})
    assert m.fibers[0].dim == modules.MAX_FIBER_DIM


@pytest.mark.parametrize("word", [True, False, "2", "1.0", None])
def test_module_from_json_takes_only_numbers_where_the_schema_says_number(word):
    structure = make_structure(2)
    plain = {"dim": 1, "norm": {"lp": 2.0}}
    gram = [[2.0, 0.5], [0.5, 1.0]]
    bad_gram = [[2.0, 0.5], [0.5, word]]
    image = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    bad_image = [[1.0, 0.0], [word, 1.0], [1.0, 1.0]]
    cases = [
        ({"lp": word}, "$.fibers[1].norm.lp"),
        ({"gram": bad_gram}, "$.fibers[1].norm.gram[1][1]"),
        ({"image_lp": {"matrix": image, "p": word}}, "$.fibers[1].norm.image_lp.p"),
        ({"image_lp": {"matrix": bad_image, "p": 1.0}}, "$.fibers[1].norm.image_lp.matrix[1][0]"),
    ]
    for norm, path in cases:
        fibers = [plain, {"dim": 2, "norm": norm}]
        with pytest.raises(InputError) as info:
            FiberModule.from_json({"structure": structure.to_json(), "fibers": fibers})
        assert info.value.path == path
        with pytest.raises(InputError) as info:
            FiberNorm.from_json(norm, "$.norm")
        assert info.value.path == "$.norm" + path.removeprefix("$.fibers[1].norm")
    m = FiberModule.from_json({"structure": structure.to_json(),
                               "fibers": [plain, {"dim": 2, "norm": {"gram": gram}}]})
    with pytest.raises(InputError) as info:
        ModuleElement.from_json({"vectors": [[1.0], [2.0, word]]}, m, "$.element")
    assert (info.value.path, info.value.message) == (
        "$.element.vectors[1][1]", "fiber vector entries must be numbers")
    # "inf" stays a valid exponent.
    assert FiberNorm.from_json({"image_lp": {"matrix": image, "p": "inf"}}).p == math.inf


def test_module_and_element_refuse_a_list_where_a_number_belongs():
    structure = make_structure(2)
    plain = {"dim": 1, "norm": {"lp": 2.0}}
    nested = {"dim": 2, "norm": {"gram": [[2.0, [0.5]], [0.5, 1.0]]}}
    with pytest.raises(InputError) as info:
        FiberModule.from_json({"structure": structure.to_json(), "fibers": [plain, nested]})
    assert (info.value.path, info.value.message) == (
        "$.fibers[1].norm.gram[0][1]", "gram matrix entries must be numbers")
    m = lp_module(structure, (1, 2))
    with pytest.raises(InputError) as info:
        ModuleElement.from_json({"vectors": [[1.0], [2.0, [0.0]]]}, m)
    assert info.value.path == "$.vectors[1][1]"


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


def test_quotient_norm_of_a_vector_in_the_span_is_never_negative():
    # The kernel's certified lower bound w.e rounds below 0 on some of these
    # (down to -4e-15); the quotient norm is clamped at 0.
    rng = np.random.default_rng(71)
    for p in (1.0, 1.5, 3.0, math.inf):
        q = []
        for _ in range(300):
            d = int(rng.integers(2, 7))
            basis = rng.standard_normal((int(rng.integers(1, d)), d))
            m = lp_module(make_structure(1), (d,), p=p)
            v = ModuleElement([basis.T @ rng.standard_normal(basis.shape[0])], m)
            q.append(quotient_norm(v, Submodule(m, (basis,))).values[0])
        assert 0.0 <= min(q) and max(q) <= 1e-9, p


def test_quotient_norm_cuts_a_nearly_dependent_span_by_one_rank_rule():
    # (0, 1) modulo span{(1, 0), (1, eps)}: RANK_RTOL counts the span as
    # one-dimensional on every fiber kind, so each distance is 1, up to the
    # tilt of the kept direction (1, ~eps/2): its l-infinity distance from
    # (0, 1) is 1 / (1 + eps/2).  Before l1 and l-infinity problems took the
    # rank rule too, they read 0 from eps = 1.2e-9 to 1.9e-9.
    image = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    norms = [LpNorm(1.0), LpNorm(2.0), LpNorm(3.0), LpNorm(math.inf),
             GramNorm(np.diag([2.0, 1.0])), ImageLpNorm(image, 2.0), ImageLpNorm(image, 3.0)]
    for eps, norm in itertools.product([1e-10, 1.2e-9, 1.5e-9, 1.9e-9], norms):
        basis = np.array([[1.0, 0.0], [1.0, eps]])
        m = FiberModule(make_structure(1), (Fiber(2, norm),))
        q = quotient_norm(ModuleElement([[0.0, 1.0]], m), Submodule(m, (basis,))).values[0]
        tilt = eps / 2.0 if norm == LpNorm(math.inf) else 0.0
        assert abs(q - 1.0) <= 1e-12 + tilt, (eps, norm)


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


MIXED_KINDS = ("l1", "linf", "image-l1", "image-linf", "l2", "gram", "l3")


def mixed_fiber(rng, kind, d):
    if kind in ("image-l1", "image-linf"):
        return Fiber(d, ImageLpNorm(rng.standard_normal((d + 1, d)),
                                    1.0 if kind == "image-l1" else math.inf))
    if kind == "gram":
        return Fiber(d, GramNorm(random_spd(rng, d)))
    return Fiber(d, LpNorm({"l1": 1.0, "linf": math.inf, "l2": 2.0, "l3": 3.0}[kind]))


def test_quotient_norm_solves_all_polyhedral_atoms_in_one_program(monkeypatch):
    # 400 atoms of seven fiber kinds, dimensions 2-4 and 0 to d - 1 basis
    # rows (l3 atoms, which run the descent, only d = 2): one simplex call for
    # the whole module, and every atom's value equal to its value in a
    # one-atom module and, on l1 and l-infinity atoms, to the primal LP.
    rng = np.random.default_rng(401)
    fibers, vecs, bases = [], [], []
    for a in range(400):
        kind = MIXED_KINDS[a % 7]
        d = 2 if kind == "l3" else 2 + (a // 7) % 3
        fibers.append(mixed_fiber(rng, kind, d))
        vecs.append(rng.standard_normal(d))
        bases.append(rng.standard_normal(((a // 21) % d, d)))
    m = FiberModule(make_structure(400), tuple(fibers))
    calls = count_solver_calls(monkeypatch)
    q = quotient_norm(ModuleElement(vecs, m), Submodule(m, tuple(bases))).values
    assert calls[0] == 1
    one = make_structure(1)
    for a, (fiber, vec, basis) in enumerate(zip(fibers, vecs, bases)):
        alone = FiberModule(one, (fiber,))
        single = quotient_norm(ModuleElement([vec], alone), Submodule(alone, (basis,))).values[0]
        assert abs(q[a] - single) <= 1e-9 * max(1.0, single)
        if MIXED_KINDS[a % 7] in ("l1", "linf"):
            exact = primal_lp_distance(fiber.norm.p, vec, basis)
            assert abs(q[a] - exact) <= 1e-9 * max(1.0, exact)


def test_wide_polyhedral_quotient_norm_is_fast():
    # 2,000 l1 atoms with d = 4 and k = 2: one linear program, not 2,000.
    rng = np.random.default_rng(2000)
    m = lp_module(make_structure(2000), (4,) * 2000, p=1.0)
    v = random_element(rng, m)
    n = Submodule(m, tuple(rng.standard_normal((2, 4)) for _ in range(2000)))
    start = time.perf_counter()
    q = quotient_norm(v, n)
    assert time.perf_counter() - start < 2.0
    assert np.all(q.values <= pointwise_norm(v).values + 1e-12)


def certified_gauge(norm, rows, e):
    """The kernel's value of min over t of norm(e + rows^T t), norm an
    exponent p (the lp norm) or a fiber norm, after checking the record of
    ``_lp_gauges`` on the problem in lp coordinates: y on the affine set, a
    dual point w with rows @ w = 0 and |w|_q <= 1, value = w.e, and
    value <= upper = |y|_p <= value + gap |e|_p for the branch's gap (0
    for the euclidean closed form)."""
    p, m = (norm, None) if isinstance(norm, float) else _lp_factor(norm)
    if m is not None:
        rows, e = rows @ m.T, m @ e
    r = row_space_basis(rows)
    (value,), (upper,), (y,), (w,) = _lp_gauges([(p, r, e)])
    t = np.linalg.lstsq(r.T, y - e, rcond=None)[0] if r.size else np.zeros(0)
    assert np.max(np.abs(e + r.T @ t - y)) <= 1e-12 * np.abs(e).max()
    assert np.max(np.abs(r @ w), initial=0.0) <= 1e-12
    assert _lp_rows(_lp_conjugate(p), w[None])[0] <= 1.0 + 1e-15
    scale = _lp_rows(p, e[None])[0]
    assert abs(value - w @ e) <= 1e-12 * scale
    assert upper == _lp_rows(p, y[None])[0]
    gap = _SIMPLEX_GAP if p in (1.0, math.inf) else _GAP_RTOL if p != 2.0 else 0.0
    assert value - 1e-15 * scale <= upper <= value + gap * scale
    return value


#: The fixed l1/l-infinity quotient-norm cases (p, d, k) of the benchmark,
#: inputs drawn in this order from ``default_rng(31)``: a descent once
#: missed the optimum on seven of them.
F1_CASES = ((1.0, 3, 1), (1.0, 4, 2), (1.0, 5, 2), (1.0, 6, 3), (1.0, 8, 4), (1.0, 8, 2),
            (math.inf, 3, 1), (math.inf, 4, 2), (math.inf, 5, 2), (math.inf, 6, 3),
            (math.inf, 8, 4), (math.inf, 8, 2))


def test_simplex_matches_highs_on_the_fixed_and_random_cases():
    # The twelve fixed cases, a basis row of 1e-300 (zero at the rank rule,
    # so the distance is |v|_p) and 400 random problems with d <= 12.
    rng = np.random.default_rng(31)
    cases = [(p, rng.standard_normal(d), rng.standard_normal((k, d))) for p, d, k in F1_CASES]
    cases += [(p, np.array([0.3, -2.0]), np.array([[1e-300, 0.0]])) for p in (1.0, math.inf)]
    rng = np.random.default_rng(400)
    for i in range(400):
        d = int(rng.integers(2, 13))
        k = int(rng.integers(1, d))
        cases.append(((1.0, math.inf)[i % 2], rng.standard_normal(d), rng.standard_normal((k, d))))
    for p, e, rows in cases:
        exact = primal_lp_distance(p, e, rows)
        assert abs(certified_gauge(p, rows, e) - exact) <= 1e-9 * max(1.0, exact)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_lp_gauge_record_is_certified_on_every_branch(p):
    # Plain and image-lp problems of the exponent, and gram problems (l2
    # in lp coordinates): every record passes certified_gauge, and a plain
    # problem's value matches an independent solve.
    rng = np.random.default_rng(int(10 * p) if p < math.inf else 1000)
    for _ in range(10):
        d = int(rng.integers(2, 8))
        k = int(rng.integers(1, d))
        rows, e = rng.standard_normal((k, d)), rng.standard_normal(d)
        a = rng.standard_normal((d, d))
        value = certified_gauge(p, rows, e)
        certified_gauge(ImageLpNorm(rng.standard_normal((d + 2, d)), p), rows, e)
        certified_gauge(GramNorm(a @ a.T + np.eye(d)), rows, e)
        if p in (1.0, math.inf):
            exact = primal_lp_distance(p, e, rows)
        elif p == 2.0:
            exact = np.linalg.norm(e - rows.T @ np.linalg.lstsq(rows.T, e, rcond=None)[0])
        else:
            exact = reference_gauge(LpNorm(p), rows, e)[0]
        assert abs(value - exact) <= 1e-7 * max(1.0, exact)


@pytest.mark.parametrize("p", [1.0, 3.0, math.inf])
def test_certificate_step_makes_any_proposal_feasible(monkeypatch, p):
    # Solvers that propose a random t and a random dual direction far
    # outside the dual ball, with no gap limit: the certificate step still
    # gives a dual point w with rows @ w = 0 and |w|_q <= 1, so value = w.e
    # is a lower bound on the minimum and upper = |y|_p an upper one.
    rng = np.random.default_rng(int(p) if p < math.inf else 7)

    def propose(p, r, e):
        return rng.standard_normal(r.shape[:2]), 10.0 * rng.standard_normal(e.shape)

    for name in ("_simplex", "_gauge_newton"):
        monkeypatch.setattr(_kernels, name, propose)
    for name in ("_SIMPLEX_GAP", "_GAP_RTOL"):
        monkeypatch.setattr(_kernels, name, math.inf)
    for _ in range(20):
        d = int(rng.integers(2, 8))
        rows = row_space_basis(rng.standard_normal((int(rng.integers(1, d)), d)))
        e = rng.standard_normal(d)
        (value,), (upper,), (y,), (w,) = _lp_gauges([(p, rows, e)])
        exact = (primal_lp_distance(p, e, rows) if p in (1.0, math.inf)
                 else reference_gauge(LpNorm(p), rows, e)[0])
        assert np.max(np.abs(rows @ w)) <= 1e-12 * max(1.0, np.abs(w).max())
        assert _lp_rows(_lp_conjugate(p), w[None])[0] <= 1.0 + 1e-15
        assert abs(value - w @ e) <= 1e-12 * _lp_rows(p, e[None])[0]
        assert value <= exact + 1e-9 * max(1.0, exact) <= upper + 2e-9 * max(1.0, exact)


def test_simplex_terminates_on_degenerate_ties():
    # e = ones, repeated |e_i| and axis-aligned rows make many ratio and
    # reduced-cost ties; Bland's rule cannot cycle on them.
    rng = np.random.default_rng(77)
    cases = []
    for d in (3, 6, 12):
        for e in (np.ones(d), np.resize([2.0, -2.0, 1.0], d), np.resize([1.0, -1.0], d)):
            for rows in (rng.standard_normal((d // 2, d)), np.eye(d)[: d // 2],
                         np.ones((1, d)), np.eye(d)[:1] + np.eye(d)[1:2]):
                cases += [(p, e, rows) for p in (1.0, math.inf)]
    for p, e, rows in cases:
        exact = primal_lp_distance(p, e, rows)
        assert abs(certified_gauge(p, rows, e) - exact) <= 1e-9 * max(1.0, exact)


def test_simplex_answers_the_d20_linf_domination_case():
    # An l-infinity fiber of dimension 20, the basis the unit vectors and
    # every value 0.06: the extension is 0.06 on every coordinate, of l1
    # dual norm 1.2, certified by a unit vector x with w.x = 1.2.
    norm, basis, r = LpNorm(math.inf), np.eye(20), np.full(20, 0.06)
    (need,), ((w, bound, x),) = _min_dual_norms([(norm, basis, r)])
    assert abs(need - reference_need(norm, basis, r)) <= 1e-9 * need
    assert np.allclose(w, r, rtol=0.0, atol=1e-15)
    assert norm.norm(x) <= 1.0 + 1e-15
    assert 0.0 <= bound - w @ x <= 1e-12 * bound


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_simplex_block_bits_do_not_depend_on_the_stack(p):
    # The blocks stop after different numbers of pivots, so the stacked
    # call pivots both the whole stack and a gathered one.  Bytes, not
    # values, are compared, so a signed zero counts.
    rng = np.random.default_rng(2001)
    blocks = [(p, row_space_basis(rng.standard_normal((2, 4))), rng.standard_normal(4))
              for _ in range(2000)]
    stacked = _lp_gauges(blocks)
    for i in range(0, 2000, 40):
        (value,), (upper,), (y,), (w,) = _lp_gauges([blocks[i]])
        assert value.tobytes() == stacked.value[i].tobytes()
        assert upper.tobytes() == stacked.upper[i].tobytes()
        assert y.tobytes() == stacked.points[i].tobytes()
        assert w.tobytes() == stacked.duals[i].tobytes()


def simplex_digest_stacks():
    """Seeded (p, r, e) stacks for ``_simplex``: random orthonormal rows
    with zero, signed-zero and small-integer coordinates of e, and
    axis-aligned or all-ones rows with repeated |e_i|, whose ratio and
    reduced-cost ties Bland's rule breaks."""
    rng = np.random.default_rng(2029)
    stacks = []
    for p in (1.0, math.inf):
        for d, k in ((2, 1), (3, 1), (4, 2), (5, 3), (8, 2), (12, 5)):
            r = np.stack([row_space_basis(rng.standard_normal((k, d))) for _ in range(16)])
            e = rng.standard_normal((16, d))
            e[::3, 1:] = 0.0
            e[1::4] = rng.integers(-2, 3, e[1::4].shape)
            e[1::4, 0] = np.where(e[1::4, 0] == 0.0, -1.0, e[1::4, 0])
            e[2::5, -1] = -0.0
            stacks.append((p, r, e))
        for d in (3, 6):
            axis = np.stack([np.eye(d)[:1], np.eye(d)[1:2], np.full((1, d), d ** -0.5),
                             (np.eye(d)[:1] + np.eye(d)[1:2]) / math.sqrt(2.0)])
            for e in (np.ones(d), np.resize([2.0, -2.0, 1.0], d), np.resize([1.0, -0.0], d)):
                stacks.append((p, axis, np.broadcast_to(e, (4, d)).copy()))
    return stacks


def test_simplex_bits_are_pinned():
    # A SHA-256 of the simplex's (t, w) bytes on ``simplex_digest_stacks``,
    # written from the kernel that gathered the live tableaux before every
    # pivot: the in-place lockstep pivots keep every bit, signed zeros too.
    digest = hashlib.sha256()
    for p, r, e in simplex_digest_stacks():
        t, w = _kernels._simplex(p, r, e)
        digest.update(t.tobytes())
        digest.update(w.tobytes())
    assert digest.hexdigest() == "6cd7b030b8c22c2734bad4ade4771b99c37fc0b01678ab916a44074b47ffa6e5"


def reference_gauge(norm, rows, e):
    """inf over t of norm(e + rows^T t) and its argmin, by BFGS from the
    least-squares point with the analytic gradient."""
    from scipy.optimize import minimize

    a = norm.matrix if isinstance(norm, ImageLpNorm) else np.eye(e.size)
    p = norm.p

    def h(t):
        y = a @ (e + rows.T @ t)
        n = float(np.sum(np.abs(y) ** p) ** (1.0 / p))
        dual = np.sign(y) * np.abs(y / n) ** (p - 1.0)
        return n, rows @ (a.T @ dual)

    t = np.linalg.lstsq(rows.T, -e, rcond=None)[0]
    for _ in range(3):
        t = minimize(h, t, jac=True, method="BFGS", options={"gtol": 1e-13}).x
    return h(t)[0], t


def random_gauge_problems(rng, p, image, count):
    """Random (norm, rows, e) problems with d <= 12 and k < d."""
    out = []
    for _ in range(count):
        d = int(rng.integers(2, 13))
        k = int(rng.integers(1, d))
        norm = ImageLpNorm(rng.standard_normal((d + 2, d)), p) if image else LpNorm(p)
        out.append((norm, rng.standard_normal((k, d)), rng.standard_normal(d)))
    return out


def on_the_affine_set(norm, rows, e, y):
    """y = A (e + rows^T t) for some t (A = I on lp gauges), to 1e-9."""
    a = norm.matrix if isinstance(norm, ImageLpNorm) else np.eye(e.size)
    t = np.linalg.lstsq(a @ rows.T, y - a @ e, rcond=None)[0]
    return np.max(np.abs(a @ (e + rows.T @ t) - y)) <= 1e-9 * max(1.0, np.abs(y).max())


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0, 30.0])
def test_lp_gauge_kernel_matches_a_reference_solve(p):
    # Every lp gauge problem with p not in {1, 2, inf} runs the Newton
    # kernel: its value is a dual value, so it never exceeds the primal at
    # any point, and here it is within 1e-7 of an independent BFGS solve,
    # as is the norm of the minimiser it returns, which lies on the affine
    # set.  At p = 30 the norm is nearly flat along its largest entry.
    rng = np.random.default_rng(int(10 * p))
    problems = [prob for image in (False, True)
                for prob in random_gauge_problems(rng, p, image, 12)]
    values, points = _extension_values(problems)
    for (norm, rows, e), val, y in zip(problems, values, points):
        ref, _ = reference_gauge(norm, rows, e)
        assert val <= ref + 1e-12 * max(1.0, abs(ref))
        assert abs(val - ref) <= 1e-7 * max(1.0, abs(ref))
        assert on_the_affine_set(norm, rows, e, y)
        assert abs(LpNorm(p).norm(y) - ref) <= 1e-7 * max(1.0, abs(ref))


def test_lp_gauge_kernel_value_does_not_depend_on_the_stack():
    rng = np.random.default_rng(404)
    problems = [prob for p in (1.5, 3.0) for image in (False, True)
                for prob in random_gauge_problems(rng, p, image, 10)]
    stacked, _ = _extension_values(problems)
    for prob, val in zip(problems, stacked):
        alone = _extension_values([prob])[0][0]
        assert abs(alone - val) <= 1e-12 * max(1.0, abs(val))


def test_lp_gauge_kernel_near_p_one_certifies_or_raises(monkeypatch):
    # p = 1.1: the value comes with a primal point within the gap tolerance
    # and a dual point inside the dual ball, or SolverFailed is raised.
    rng = np.random.default_rng(1101)
    p, q = 1.1, 11.0
    problems = random_gauge_problems(rng, p, False, 16)
    for norm, rows, e in problems:
        try:
            (val,), (y,) = _extension_values([(norm, rows, e)])
        except SolverFailed:
            continue
        assert on_the_affine_set(norm, rows, e, y)
        assert norm.norm(y) - val <= _GAP_RTOL * max(norm.norm(e), norm.norm(y))
        c = row_space_basis(rows)
        (dual_val,), _, _, (w,) = _lp_gauges([(p, c, e)])
        assert dual_val == val
        assert np.max(np.abs(c @ w)) <= 1e-12 * max(1.0, np.abs(w).max())
        assert np.sum(np.abs(w) ** q) ** (1.0 / q) <= 1.0 + 1e-12
        assert abs(w @ e - val) <= 1e-12 * max(1.0, abs(val))
    # Without Newton steps the least-squares point is not certified.
    monkeypatch.setattr(_kernels, "_NEWTON_STEPS", 0)
    with pytest.raises(SolverFailed, match="gauge kernel"):
        _extension_values(problems[:1])


def slsqp_gauge(p, rows, e):
    """min over t of |e + rows^T t|_p by scipy's SLSQP on the smooth program
    min sum s_i^p subject to -s <= e + rows^T t <= s, from the
    least-squares point: the gauge at the t found, a primal value."""
    from scipy.optimize import minimize

    k, d = rows.shape
    up, down = np.c_[rows.T, np.eye(d)], np.c_[-rows.T, np.eye(d)]
    cons = [{"type": "ineq", "fun": lambda z: e + up @ z, "jac": lambda z: up},
            {"type": "ineq", "fun": lambda z: down @ z - e, "jac": lambda z: down}]
    t0 = np.linalg.lstsq(rows.T, -e, rcond=None)[0]
    res = minimize(lambda z: (np.sum(z[k:] ** p), np.r_[np.zeros(k), p * z[k:] ** (p - 1.0)]),
                   np.r_[t0, np.abs(e + rows.T @ t0) + 1e-3], jac=True, method="SLSQP",
                   constraints=cons, bounds=[(None, None)] * k + [(0.0, None)] * d,
                   options={"ftol": 1e-16, "maxiter": 1000})
    return LpNorm(p).norm(e + rows.T @ res.x[:k])


@pytest.mark.parametrize("p", [1.05, 1.1, 1.2])
def test_lp_gauge_kernel_near_p_one_matches_a_reference_solve(p):
    # Random problems whose minimisers have coordinates that are exactly
    # zero: the kernel certifies every one (no SolverFailed), and its value,
    # a dual value, is within 1e-6 |e|_p of an independent SLSQP solve and
    # never above that primal value.
    rng = np.random.default_rng(int(1000 * p))
    problems = random_gauge_problems(rng, p, False, 60)
    values, _ = _extension_values(problems)
    for (norm, rows, e), val in zip(problems, values):
        ref = slsqp_gauge(p, rows, e)
        assert val <= ref + 1e-12 * norm.norm(e)
        assert ref - val <= 1e-6 * norm.norm(e)


def test_extension_value_bits_do_not_depend_on_the_stack():
    # One stacked SVD per rows shape: a quotient norm has the same bytes
    # on a module with four atoms of each fiber kind, their submodule
    # bases of one shape (one of rank 1), as on the atom's module alone.
    rng = np.random.default_rng(2029)
    a = rng.standard_normal((3, 3))
    norms = [LpNorm(1.0), LpNorm(math.inf), LpNorm(2.0), GramNorm(a @ a.T + np.eye(3)),
             ImageLpNorm(rng.standard_normal((5, 3)), 1.0)]
    fibers = [Fiber(3, norm) for norm in norms for _ in range(4)]
    bases = [rng.standard_normal((2, 3)) for _ in fibers]
    bases[5] = np.outer([1.0, -2.0], rng.standard_normal(3))
    vectors = [rng.standard_normal(3) for _ in fibers]
    m = FiberModule(make_structure(len(fibers)), tuple(fibers))
    stacked = quotient_norm(ModuleElement(vectors, m), Submodule(m, tuple(bases))).values
    for i, fiber in enumerate(fibers):
        alone = FiberModule(make_structure(1), (fiber,))
        value = quotient_norm(ModuleElement([vectors[i]], alone), Submodule(alone, (bases[i],)))
        assert value.values.tobytes() == stacked[i:i + 1].tobytes()


def test_min_dual_norm_bits_do_not_depend_on_the_stack():
    # One stacked SVD per shape: a problem's need, minimiser, bound and
    # certificate have the same bits alone and among others of its shape.
    rng = np.random.default_rng(2024)
    problems = [(ImageLpNorm(rng.standard_normal((5, 3)), p), np.eye(3), rng.standard_normal(3))
                for p in (1.0, 3.0, math.inf) for _ in range(8)]
    needs, found = _min_dual_norms(problems)
    for i in (0, 11, 23):
        (need,), ((w, bound, x),) = _min_dual_norms([problems[i]])
        assert need == needs[i] and bound == found[i][1]
        assert np.array_equal(w, found[i][0]) and np.array_equal(x, found[i][2])


def test_lp_hahn_banach_extensions_are_fast_and_dominated():
    rng = np.random.default_rng(906)
    start = time.perf_counter()
    for p, d, k, atoms in [(3.0, 3, 1, 1), (3.0, 4, 1, 1), (1.5, 6, 2, 20)]:
        m = lp_module(make_structure(atoms), (d,) * atoms, p=p)
        bases = tuple(rng.standard_normal((k, d)) for _ in range(atoms))
        f_rows = []
        for b in bases:
            row = rng.standard_normal(d)
            f_rows.append(b @ (0.9 * row / dual_vector_norm(LpNorm(p), row)))
        ext = hahn_banach_extend(Submodule(m, bases), f_rows, m.space.one_fn())
        for b, vals, mat in zip(bases, f_rows, ext.functional.matrices):
            assert np.max(np.abs(b @ mat[0] - vals)) <= 1e-9
            assert dual_vector_norm(LpNorm(p), mat[0]) <= 1.0 + 1e-9
    assert time.perf_counter() - start < 2.0


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


def mixed_rank_matrices(rng, count=300):
    """Matrices of few shapes (so many share a stack), k rows over d columns
    with k > d common: random ones, ones whose last row is a combination of
    the others plus eps in [1e-11, 1e-7] (near the rank threshold), ones
    with a zero row, zero matrices and 0-row matrices."""
    mats = []
    for _ in range(count):
        k, d = int(rng.integers(0, 7)), int(rng.integers(1, 5))
        m = rng.standard_normal((k, d))
        kind = int(rng.integers(0, 4))
        if kind == 1 and k >= 2:
            eps = 10.0 ** rng.uniform(-11.0, -7.0)
            m[-1] = rng.standard_normal(k - 1) @ m[:-1] + eps * rng.standard_normal(d)
        elif kind == 2 and k >= 1:
            m[int(rng.integers(0, k))] = 0.0
        elif kind == 3:
            m[:] = 0.0
        mats.append(m)
    return mats


def test_row_ranks_equal_each_matrix_rank():
    mats = mixed_rank_matrices(np.random.default_rng(601))
    want = [sequential_rank(m) for m in mats]
    assert row_ranks(mats) == want
    assert [matrix_rank(m) for m in mats] == want
    assert row_ranks([]) == []


def test_row_ranks_of_matrices_whose_largest_singular_value_overflows():
    # inf > 1e-9 * inf is false: these counted rank 0.  They are ranked as
    # the same matrices scaled into range, and matrices in range keep theirs.
    assert row_ranks([np.array([[1e308, -1e308, 0.0], [1e308, -1e308, 0.0]])]) == [1]
    mats = mixed_rank_matrices(np.random.default_rng(613))
    huge = [m / np.abs(m).max() * 1.7e308 if m.any() else m for m in mats]
    with np.errstate(over="ignore"):
        assert not all(np.isfinite(np.linalg.svd(m, compute_uv=False)).all() for m in huge)
    unit = [m / np.abs(m).max() if m.any() else m for m in mats]
    assert row_ranks(huge) == row_ranks(unit) == [sequential_rank(m) for m in unit]
    assert row_ranks(mats + huge) == row_ranks(mats) + row_ranks(unit)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_spans_of_a_row_whose_largest_singular_value_overflows(p):
    # Only the ranks were once redone in range: the row space read 0 rows,
    # the null space 2, and (1, 1), which lies in the span, had the
    # quotient norm |(1, 1)|_p; the extension of f = 1.5e308 on the row
    # needed "a gauge of at least inf".  sigma = 1.5e308 * sqrt(2) overflows.
    row = np.array([[1.5e308, 1.5e308]])
    assert matrix_rank(row) == 1
    assert np.allclose(row_space_basis(row) ** 2, 0.5, rtol=1e-15, atol=0.0)
    kern = kernel_basis(row)
    assert kern.shape == (1, 2)
    assert np.allclose(kern * np.sign(kern[0, 0]), [[0.5 ** 0.5, -0.5 ** 0.5]], rtol=1e-15)
    m = lp_module(make_structure(1), (2,), p=p)
    n = Submodule(m, (row,))
    assert quotient_norm(ModuleElement([[1.0, 1.0]], m), n).values[0] <= 1e-15
    ext = hahn_banach_extend(n, [[1.5e308]], Fn(np.array([10.0]), m.space))
    assert np.allclose(ext.functional.matrices[0][0], [0.5, 0.5], rtol=0.0, atol=1e-12)


def test_svd_shifts_only_the_matrices_out_of_range():
    # A shifted matrix keeps u and vt, and 2^shift s is its true spectrum;
    # the others keep every bit of numpy's SVD.
    rng = np.random.default_rng(3031)
    stack = rng.standard_normal((6, 3, 4))
    stack[[1, 4]] *= 1.6e308 / np.abs(stack[[1, 4]]).max(axis=(1, 2))[:, None, None]
    u, s, vt, rank, shift = _kernels._svd(stack)
    assert shift.tolist() == [0, 1023, 0, 0, 1023, 0]
    assert rank.tolist() == [3] * 6
    for i in (0, 2, 3, 5):
        for got, want in zip((u, s, vt), np.linalg.svd(stack[i])):
            assert got[i].tobytes() == want.tobytes()
    for i in (1, 4):
        scaled = np.linalg.svd(np.ldexp(stack[i], -1023))
        for got, want in zip((u, s, vt), scaled):
            assert got[i].tobytes() == want.tobytes()
    _, s_only, _, rank_only, shift_only = _kernels._svd(stack, compute_uv=False)
    assert np.allclose(s_only, s, rtol=1e-14, atol=0.0)
    assert (rank_only == rank).all() and (shift_only == shift).all()


def rank_rule_digest():
    """A SHA-256 of in-range answers that run through the rank rule, on
    seeded problems: quotient norms (vectors off the span), the needs,
    minimisers, bounds and certificates of ``_min_dual_norms`` (feasible and
    infeasible right-hand sides) and null-space bases, over lp, gram and
    image-lp fibers with full-rank and rank-deficient bases."""
    rng = np.random.default_rng(3030)
    digest = hashlib.sha256()
    for d, k in ((2, 1), (3, 2), (4, 2), (5, 3), (6, 4)):
        norms = [LpNorm(p) for p in (1.0, 1.5, 2.0, 3.0, math.inf)]
        norms += [GramNorm(random_spd(rng, d)), ImageLpNorm(rng.standard_normal((d + 1, d)), 1.0),
                  ImageLpNorm(rng.standard_normal((d + 1, d)), 3.0)]
        fibers = tuple(Fiber(d, norm) for norm in norms for _ in range(3))
        bases = [rng.standard_normal((k, d)) for _ in fibers]
        for b in bases[1::3]:
            b[-1] = rng.standard_normal(k - 1) @ b[:-1] if k > 1 else 0.0
        m = FiberModule(make_structure(len(fibers)), fibers)
        vectors = [rng.standard_normal(d) for _ in fibers]
        q = quotient_norm(ModuleElement(vectors, m), Submodule(m, tuple(bases)))
        digest.update(q.values.tobytes())
        rhs = [b @ rng.standard_normal(d) if i % 3 else rng.standard_normal(k)
               for i, b in enumerate(bases)]
        needs, found = _min_dual_norms([(f.norm, b, r) for f, b, r in zip(fibers, bases, rhs)])
        digest.update(needs.tobytes())
        for entry in found:
            if entry is not None:
                w, bound, x = entry
                digest.update(w.tobytes() + np.float64(bound).tobytes() + x.tobytes())
        for b in bases:
            digest.update(kernel_basis(b).tobytes())
    return digest.hexdigest()


def test_rank_rule_bits_are_pinned():
    # Written from the kernels that each cut their own SVD: one helper for
    # every rank decision keeps every bit in range.
    assert rank_rule_digest() == "a32465a92e4baa963a4b99a0a3aa7b68906e2e415b4bd38ad9f58b74f82b28f5"


def test_rank_deficient_lifts_keep_as_many_rows_as_the_rank():
    # The pivoted Gram-Schmidt of _lift_rows keeps exactly r rows of a
    # rank-r matrix, and they span its row space.
    mats = [m for m in mixed_rank_matrices(np.random.default_rng(607))
            if matrix_rank(m) < m.shape[0]]
    # Some are deficient by a near-threshold row, not by their shape.
    assert any(0 < matrix_rank(m) and m.shape[0] <= m.shape[1] for m in mats)
    for m, sel in zip(mats, _lift_rows(tuple(mats))):
        lift, r = m[sel], matrix_rank(m)
        assert sel == sorted(sel)
        assert lift.shape[0] == matrix_rank(lift) == r
        assert matrix_rank(np.vstack([lift, m])) == r
