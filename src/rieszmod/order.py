"""Generic vector-lattice and f-algebra machinery.

Everything in this module is written against a small carrier protocol
(:class:`LatticeElement`), so the law suites and the idempotent/partition
calculus work for any carrier that provides pointwise order and ring
operations.  The law suite and the partition check also read the atom
values of a carrier (``values`` on a ``space``), to stack samples and to
check disjointness in one pass.  The only carrier shipped with the package
is the finite one (:class:`rieszmod.spaces.Fn`); the theorems are verified
where they are decidable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Any, Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from .errors import NonIdempotentInput, NotAPartition, PartitionMismatch, SpaceMismatch

#: Absolute tolerance for ring-mixed identities (products introduce rounding;
#: pure lattice operations on shared inputs are exact in IEEE doubles).
RING_TOL = 1e-12


@runtime_checkable
class LatticeElement(Protocol):
    """Carrier protocol: a Riesz space with a compatible ring multiplication.

    Required operations: ``+``, ``-``, unary ``-``, ring product ``*``,
    ``scale`` (multiplication by a real scalar), lattice ``join`` /``meet``,
    the partial order ``leq``, exact equality ``equals``, a ``deviation``
    pseudo-metric used only for tolerance checks and reports, the constants
    ``zero()`` / ``one()``, and ``chi_pos()``, the idempotent indicator of
    the strictly positive part (the lattice-theoretic sup of ``(n u^+) ^ 1``
    over n, which any Dedekind sigma-complete carrier possesses and which a
    finite carrier computes directly).

    A carrier may hold a batch of S elements at once.  The ring and lattice
    operations then act elementwise on the batch, and ``leq``, ``equals`` and
    ``deviation`` return one result per element, an array of shape ``(S,)``,
    instead of a single bool or float.  :func:`riesz_law_suite` relies on
    this: it reads a carrier's ``values`` (shape ``(n,)`` for one element,
    ``(S, n)`` for a batch) and ``space``.  ``_trusted(values, space)``
    wraps a float array the library has just built, of one of those shapes,
    without copying or checking it; the law suite, the partition check and
    the refinement wrap their stacks with it.
    """

    def __add__(self, other: Any) -> Any: ...

    def __sub__(self, other: Any) -> Any: ...

    def __neg__(self) -> Any: ...

    def __mul__(self, other: Any) -> Any: ...

    def scale(self, lam: float) -> Any: ...

    def join(self, other: Any) -> Any: ...

    def meet(self, other: Any) -> Any: ...

    def leq(self, other: Any) -> bool: ...

    def equals(self, other: Any) -> bool: ...

    def deviation(self, other: Any) -> float: ...

    def zero(self) -> Any: ...

    def one(self) -> Any: ...

    def chi_pos(self) -> Any: ...

    @classmethod
    def _trusted(cls, values: np.ndarray, space: Any) -> Any: ...


def positive_part(u):
    """u v 0."""
    return u.join(u.zero())


def negative_part(u):
    """(-u) v 0."""
    return (-u).join(u.zero())


def abs_value(u):
    """(-u) v u."""
    return (-u).join(u)


def riesz_decompose(u):
    """Split u into (positive part, negative part, absolute value).

    Returns ``(u v 0, (-u) v 0, u^+ + u^-)``; the two parts are disjoint and
    reassemble u as ``u = u^+ - u^-``.
    """
    pos = positive_part(u)
    neg = negative_part(u)
    return pos, neg, pos + neg


@dataclass(frozen=True)
class Idempotent:
    """An element with u*u = u, acting as a characteristic function.

    Such elements automatically satisfy 0 <= u <= 1.
    """

    element: Any

    def __post_init__(self):
        u = self.element
        # Huge entries overflow u*u; the deviation then refuses them, silently.
        with np.errstate(over="ignore", invalid="ignore"):
            dev = (u * u).deviation(u)
        if isinstance(dev, np.ndarray):
            raise SpaceMismatch("an idempotent is one element, not a batch")
        # Written so that a NaN deviation is refused too.
        if not dev <= RING_TOL:
            raise NonIdempotentInput("element is not idempotent: u*u != u")

    @classmethod
    def _trusted(cls, element: Any) -> "Idempotent":
        """Wrap an element without checking it: only for elements the library
        built idempotent (0/1 rows) or checked itself."""
        idem = cls.__new__(cls)
        object.__setattr__(idem, "element", element)
        return idem

    def complement(self) -> "Idempotent":
        return Idempotent(self.element.one() - self.element)

    def __mul__(self, other: "Idempotent") -> "Idempotent":
        return Idempotent(self.element * other.element)

    def boxplus(self, other: "Idempotent") -> "Idempotent":
        """Boolean symmetric difference u + v - 2uv."""
        u, v = self.element, other.element
        return Idempotent(u + v - (u * v).scale(2.0))

    def boxtimes(self, other: "Idempotent") -> "Idempotent":
        """Boolean intersection uv."""
        return self * other

    def is_zero(self) -> bool:
        return self.element.equals(self.element.zero())


@dataclass(frozen=True)
class FinitePartition:
    """Pairwise disjoint idempotents summing to a given idempotent."""

    parts: tuple[Idempotent, ...]
    of: Idempotent

    def __post_init__(self):
        cover = self.of.element
        elems = [p.element for p in self.parts]
        for e in elems:
            cover._check(e)
        # A zero row, then one row per part: accumulating down the stack adds
        # the parts in the order 0 + u_1 + u_2 + ..., as a loop would.
        stack = np.array([np.zeros(cover.values.shape)] + [e.values for e in elems])
        if len(elems) > 1:
            # On each atom the largest |u_i u_j| over pairs i < j is the product
            # of the two largest |u_i|: IEEE products are sign-symmetric and
            # monotone in each nonnegative factor, so for finite values this
            # is the pairwise verdict in O(k n).
            top = np.partition(np.abs(stack[1:]), -2, axis=0)
            if np.any(top[-2] * top[-1] > RING_TOL):
                raise NotAPartition("partition parts are not pairwise disjoint")
        total = type(cover)._trusted(np.add.accumulate(stack)[-1], cover.space)
        if total.deviation(cover) > RING_TOL:
            raise NotAPartition("partition parts do not sum to the covered idempotent")

    def __len__(self) -> int:
        return len(self.parts)


@dataclass(frozen=True)
class SimpleElement:
    """A finite real combination sum_i lambda_i u_i over a partition of the unit."""

    coefficients: tuple[float, ...]
    partition: FinitePartition

    def __post_init__(self):
        if len(self.coefficients) != len(self.partition.parts):
            raise NotAPartition("one coefficient per partition part is required")

    def value(self):
        out = self.partition.of.element.zero()
        for lam, part in zip(self.coefficients, self.partition.parts):
            out = out + part.element.scale(lam)
        return out


def disjointify(us: Sequence[Idempotent]) -> list[Idempotent]:
    """Make a sequence of idempotents pairwise disjoint, preserving prefix sups.

    Uses the recurrence u'_n = u_n - sum_{k<n} u_n u'_k.  The output has the
    same length as the input (parts that become zero are kept in place), is
    pairwise disjoint, and for every n the sup of the first n outputs equals
    the sup of the first n inputs.
    """
    out: list[Idempotent] = []
    for u in us:
        if not isinstance(u, Idempotent):
            raise NonIdempotentInput("disjointify expects Idempotent inputs")
        acc = u.element
        for prev in out:
            acc = acc - u.element * prev.element
        out.append(Idempotent(acc))
    return out


def refine_partitions(p: FinitePartition, q: FinitePartition) -> FinitePartition:
    """Common refinement (u_i v_j)_{i,j} of two partitions of the same idempotent.

    Zero cross-products are dropped; the remaining parts are ordered
    lexicographically in the source indices (i, j), which fixes a canonical
    form for golden tests.
    """
    if not p.of.element.equals(q.of.element):
        raise PartitionMismatch("partitions cover different idempotents")
    parts, _ = _cross_products(p, q)
    return FinitePartition(tuple(parts), p.of)


def _cross_products(p: FinitePartition, q: FinitePartition) -> tuple[list[Idempotent], list[int]]:
    """The nonzero products u_i v_j of the parts of p and q, in (i, j) order,
    and their positions i * len(q) + j in that order.

    The k * l products form one carrier stack, one product of two stacks
    (u_i repeated, the v_j tiled), so each row has the bits of u_i * v_j.
    The stack is checked once with the rule of :class:`Idempotent`, and the
    first failing pair raises as a pair-by-pair loop would; the kept rows
    are wrapped without a second check.
    """
    if not p.parts or not q.parts:
        return [], []
    u0, v0 = p.parts[0].element, q.parts[0].element
    us = type(u0)._trusted(
        np.repeat(np.array([u.element.values for u in p.parts]), len(q.parts), axis=0), u0.space)
    vs = type(v0)._trusted(
        np.tile(np.array([v.element.values for v in q.parts]), (len(p.parts), 1)), v0.space)
    prods = us * vs
    # Written so that a NaN deviation is refused too.
    if not np.all((prods * prods).deviation(prods) <= RING_TOL):
        raise NonIdempotentInput("element is not idempotent: u*u != u")
    kept = np.flatnonzero(~prods.equals(prods.zero())).tolist()
    wrap = type(u0)._trusted
    return [Idempotent._trusted(wrap(row, u0.space)) for row in prods.values[kept]], kept


_SIMPLE_OPS = {
    "+": lambda a, b: a + b,
    "*": lambda a, b: a * b,
    "max": max,
    "min": min,
}


def simple_combine(u: SimpleElement, v: SimpleElement, op: str) -> SimpleElement:
    """Combine two simple elements coefficientwise over the refined partition.

    ``op`` is one of ``"+"``, ``"*"``, ``"max"``, ``"min"``; the result has
    coefficients lambda_i op mu_j on the parts u_i v_j and agrees pointwise
    with ``op`` applied to the values.
    """
    if op not in _SIMPLE_OPS:
        raise ValueError(f"op must be one of {sorted(_SIMPLE_OPS)}, got {op!r}")
    f = _SIMPLE_OPS[op]
    parts, kept = _cross_products(u.partition, v.partition)
    cols = len(v.coefficients)
    coeffs = tuple(float(f(u.coefficients[k // cols], v.coefficients[k % cols])) for k in kept)
    return SimpleElement(coeffs, FinitePartition(tuple(parts), u.partition.of))


def check_disjoint(s: Sequence[Any]) -> bool:
    """True iff |u| ^ |v| = 0 for all distinct members of the family."""
    zero = None
    for i in range(len(s)):
        for j in range(i + 1, len(s)):
            if zero is None:
                zero = s[i].zero()
            if not abs_value(s[i]).meet(abs_value(s[j])).equals(zero):
                return False
    return True


def check_disjoint_products(s: Sequence[Any]) -> bool:
    """True iff all pairwise products vanish.

    On Archimedean carriers (every finite carrier is, being Dedekind
    sigma-complete) this is equivalent to :func:`check_disjoint`; the two
    routes are kept separate so tests can compare them independently.
    """
    zero = None
    for i in range(len(s)):
        for j in range(i + 1, len(s)):
            if zero is None:
                zero = s[i].zero()
            if not (s[i] * s[j]).equals(zero):
                return False
    return True


# --------------------------------------------------------------------------
# Law suite
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LawResult:
    id: str
    passed: bool
    counterexample: dict | None

    def to_json(self) -> dict:
        return {"id": self.id, "passed": self.passed, "counterexample": self.counterexample}


@dataclass(frozen=True)
class LawReport:
    laws: tuple[LawResult, ...]

    def all_passed(self) -> bool:
        return all(r.passed for r in self.laws)

    def failed_ids(self) -> list[str]:
        return [r.id for r in self.laws if not r.passed]

    def to_json(self) -> dict:
        return {"laws": [r.to_json() for r in self.laws]}


class _term:
    """A law-suite term, built on first use and then kept on the instance
    (a non-data descriptor: the instance attribute shadows it afterwards).
    Unlike ``functools.cached_property`` on Python 3.11, it takes no lock."""

    def __init__(self, build):
        self.build = build

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, terms, owner):
        value = terms.__dict__[self.name] = self.build(terms)
        return value


class LawTerms:
    """The sample triple (u, v, w) of one law-suite batch and the terms
    several laws share, each built once, on first use.

    The law evaluators read every shared term from here, so a batch builds
    |u|, u⁺, u∨v or u+v once however many laws use it, and a law subset
    builds only the terms its laws need.  The terms live as long as the
    batch does.
    """

    def __init__(self, u, v, w):
        self.u, self.v, self.w = u, v, w

    zero = _term(lambda t: t.u.zero())
    #: The positive and negative parts u⁺ = u ∨ 0, u⁻ = (−u) ∨ 0 and v⁺.
    pos_u = _term(lambda t: t.u.join(t.zero))
    neg_u = _term(lambda t: (-t.u).join(t.zero))
    pos_v = _term(lambda t: t.v.join(t.zero))
    abs_u = _term(lambda t: abs_value(t.u))
    abs_v = _term(lambda t: abs_value(t.v))
    abs_w = _term(lambda t: abs_value(t.w))
    u_join_v = _term(lambda t: t.u.join(t.v))
    u_meet_v = _term(lambda t: t.u.meet(t.v))
    v_join_w = _term(lambda t: t.v.join(t.w))
    v_meet_w = _term(lambda t: t.v.meet(t.w))
    u_plus_v = _term(lambda t: t.u + t.v)
    u_plus_w = _term(lambda t: t.u + t.w)
    #: λu for λ in 0, 1/2 and 3, keyed by λ.
    u_scaled = _term(lambda t: {lam: t.u.scale(lam) for lam in (0.0, 0.5, 3.0)})
    #: χ(w > 0) and 1 − χ(w > 0), the support split that makes pairs disjoint.
    chi_w = _term(lambda t: t.w.chi_pos())
    chi_w_c = _term(lambda t: t.chi_w.one() - t.chi_w)


def _pairs_riesz_1(t):
    return [(t.u_join_v.scale(lam), t.u_scaled[lam].join(t.v.scale(lam)), "eq")
            for lam in (0.5, 3.0)]


def _pairs_riesz_1b(t):
    return [(abs_value(t.u_scaled[lam]), t.abs_u.scale(lam), "eq") for lam in (0.0, 0.5, 3.0)]


def _pairs_riesz_2(t):
    return [(-t.u_join_v, (-t.u).meet(-t.v), "eq")]


def _pairs_riesz_3(t):
    return [(t.u + t.v_join_w, t.u_plus_v.join(t.u_plus_w), "eq")]


def _pairs_riesz_4(t):
    return [(t.u + t.v_meet_w, t.u_plus_v.meet(t.u_plus_w), "eq")]


def _pairs_riesz_4b(t):
    return [(t.u_join_v + t.u_meet_v, t.u_plus_v, "eq")]


def _pairs_riesz_5(t):
    return [(t.u, t.pos_u - t.neg_u, "eq")]


def _pairs_riesz_6(t):
    p_join_n = t.pos_u.join(t.neg_u)
    return [(t.abs_u, p_join_n, "eq"), (p_join_n, t.pos_u + t.neg_u, "eq")]


def _pairs_riesz_6b(t):
    return [(t.pos_u.meet(t.neg_u), t.zero, "eq")]


def _pairs_riesz_6c(t):
    return [(t.u_plus_v.join(t.zero), t.pos_u + t.pos_v, "leq")]


def _pairs_riesz_6d(t):
    return [(abs_value(t.u_plus_v), t.abs_u + t.abs_v, "leq")]


def _pairs_riesz_6e(t):
    a, b, c = t.abs_u, t.abs_v, t.abs_w
    return [(a.meet(b + c), a.meet(b) + a.meet(c), "leq")]


def _pairs_falg_7(t):
    return [(t.pos_u * t.neg_u, t.zero, "eq")]


def _pairs_falg_8(t):
    return [((t.abs_u * t.v).join(t.zero), t.abs_u * t.pos_v, "eq")]


# falg-8b and falg-8c split u and v onto the complementary supports of
# χ(w > 0), so that each pair they check has pointwise-disjoint carriers.

def _pairs_falg_8b(t):
    a, b = t.pos_u * t.chi_w, t.pos_v * t.chi_w_c
    return [(abs_value(a - b), abs_value(a + b), "eq")]


def _pairs_falg_8c(t):
    a, b = t.u * t.chi_w, t.v * t.chi_w_c
    return [(abs_value(a + b), abs_value(a) + abs_value(b), "eq")]


def _pairs_falg_prod(t):
    return [(abs_value(t.u * t.v), t.abs_u * t.abs_v, "eq")]


def _pairs_falg_9(t):
    return [(t.abs_u * t.v_meet_w, t.abs_u * t.v_join_w, "leq")]


#: Law table: (stable id, tolerance class, evaluator).  Each evaluator takes
#: the :class:`LawTerms` of a sample triple (u, v, w), derives any
#: hypothesis-satisfying inputs it needs deterministically from the triple,
#: and returns (lhs, rhs, relation) checks.
#: Lattice-class laws must hold exactly (joins, meets and sums of shared
#: inputs commute with IEEE rounding); ring-class laws involve products and
#: are allowed RING_TOL slack.
LAW_TABLE: tuple[tuple[str, str, Any], ...] = (
    ("riesz-1", "lattice", _pairs_riesz_1),
    ("riesz-1b", "lattice", _pairs_riesz_1b),
    ("riesz-2", "lattice", _pairs_riesz_2),
    ("riesz-3", "lattice", _pairs_riesz_3),
    ("riesz-4", "lattice", _pairs_riesz_4),
    ("riesz-4b", "lattice", _pairs_riesz_4b),
    ("riesz-5", "lattice", _pairs_riesz_5),
    ("riesz-6", "lattice", _pairs_riesz_6),
    ("riesz-6b", "lattice", _pairs_riesz_6b),
    ("riesz-6c", "lattice", _pairs_riesz_6c),
    ("riesz-6d", "lattice", _pairs_riesz_6d),
    ("riesz-6e", "lattice", _pairs_riesz_6e),
    ("falg-7", "ring", _pairs_falg_7),
    ("falg-8", "ring", _pairs_falg_8),
    ("falg-8b", "ring", _pairs_falg_8b),
    ("falg-8c", "ring", _pairs_falg_8c),
    ("falg-prod", "ring", _pairs_falg_prod),
    ("falg-9", "ring", _pairs_falg_9),
)

LAW_IDS = tuple(law_id for law_id, _, _ in LAW_TABLE)


def _check_one(lhs, rhs, relation: str, tol: float) -> np.ndarray:
    """Per-sample verdicts of one check on a batch, a bool array of shape (S,)."""
    if relation == "eq":
        return lhs.equals(rhs) if tol == 0.0 else lhs.deviation(rhs) <= tol
    if tol == 0.0:
        return lhs.leq(rhs)
    # relation == "leq": measure the positive part of lhs - rhs.
    excess = positive_part(lhs - rhs)
    return excess.deviation(excess.zero()) <= tol


def _first_failure(failing: Sequence[np.ndarray]) -> tuple[int, int] | None:
    """The lowest failing row and its first failing check, or None.

    ``failing`` holds one bool array of shape ``(S,)`` per check, in the
    order a sample-by-sample loop would run the checks.
    """
    hit = failing[0] if len(failing) == 1 else np.logical_or.reduce(failing)
    if not hit.any():
        return None
    row = int(np.argmax(hit))
    return row, next(c for c, bad in enumerate(failing) if bad[row])


def _witness(lhs, rhs, sample_index: int, row: int) -> dict:
    lv, rv = lhs.values[row], rhs.values[row]
    atom = int(np.argmax(np.abs(lv - rv)))
    return {"sample": sample_index, "atom": atom, "lhs": float(lv[atom]), "rhs": float(rv[atom])}


def _batch_key(triple) -> tuple:
    u, v, w = triple
    return type(u), type(v), type(w), u.space, v.space, w.space


def _stack(run: Sequence[tuple]) -> tuple:
    """One carrier per role holding the stacked values of a run of samples.

    Each role takes the class and space of the run's first sample, and
    wraps the new stack without a copy.  A sample that is itself a batch
    is refused with ``SpaceMismatch``.
    """
    out = []
    for i, x in enumerate(run[0]):
        values = np.array([t[i].values for t in run])
        if values.ndim != 2:
            raise SpaceMismatch(f"expected {values.shape[-1]} values, got shape {values.shape}")
        out.append(type(x)._trusted(values, x.space))
    return tuple(out)


def _batches(samples: Iterable[tuple[Any, Any, Any]]) -> Iterable[tuple[int, tuple]]:
    """Maximal runs of samples on the same spaces and carrier classes.

    Yields ``(offset, (U, V, W))`` per run: each role is one carrier of the
    run's class holding the stacked values of its samples.
    """
    offset = 0
    for _, group in groupby(samples, key=_batch_key):
        run = list(group)
        yield offset, _stack(run)
        offset += len(run)


def riesz_law_suite(
    samples: Iterable[tuple[Any, Any, Any]],
    law_ids: Sequence[str] | None = None,
    ring_tol: float = RING_TOL,
) -> LawReport:
    """Check the 18 Riesz and f-algebra identities on the given sample triples.

    Failures are reported as data (the first counterexample per law), not
    raised, so the suite doubles as a mutation-testing harness.  ``ring_tol``
    overrides the slack allowed on the product-mixed laws; lattice-only laws
    are always exact.

    Each sample is a triple of single elements of a batch-capable carrier
    (``values`` of shape ``(n,)`` on a ``space``, see
    :class:`LatticeElement`).  Consecutive samples on the same spaces and
    carrier classes are stacked into one batch, wrapped as
    ``type(u)._trusted(stacked values, space)``, and each law is evaluated
    once per batch, on the batch's :class:`LawTerms`.  The reported
    counterexample of a law is its lowest failing sample, the first failing
    check at that sample, and the atom where that check's sides differ most.
    """
    wanted = set(law_ids) if law_ids is not None else None
    table = [
        entry for entry in LAW_TABLE if wanted is None or entry[0] in wanted
    ]
    status: dict[str, LawResult] = {
        law_id: LawResult(law_id, True, None) for law_id, _, _ in table
    }
    for offset, batch in _batches(samples):
        terms = LawTerms(*batch)
        for law_id, klass, evaluate in table:
            if not status[law_id].passed:
                continue
            tol = 0.0 if klass == "lattice" else ring_tol
            checks = evaluate(terms)
            ok = [_check_one(lhs, rhs, rel, tol) for lhs, rhs, rel in checks]
            if all(np.logical_and.reduce(k) for k in ok):
                continue
            row, c = _first_failure([~k for k in ok])
            lhs, rhs, _ = checks[c]
            status[law_id] = LawResult(law_id, False, _witness(lhs, rhs, offset + row, row))
    return LawReport(tuple(status[law_id] for law_id, _, _ in table))
