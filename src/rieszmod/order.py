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
    ``(S, n)`` for a batch) and ``space``, and stacks S samples into one
    carrier as ``type(u)(values, space)``.
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
        dev = (u * u).deviation(u)
        if isinstance(dev, np.ndarray):
            raise SpaceMismatch("an idempotent is one element, not a batch")
        # Written so that a NaN deviation is refused too.
        if not dev <= RING_TOL:
            raise NonIdempotentInput("element is not idempotent: u*u != u")

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
        elems = [p.element for p in self.parts]
        total = self.of.element.zero()
        for e in elems:
            total = total + e
        if len(elems) > 1:
            # On each atom the largest |u_i u_j| over pairs i < j is the product
            # of the two largest |u_i|: IEEE products are sign-symmetric and
            # monotone in each nonnegative factor, so for finite values this
            # is the pairwise verdict in O(k n).
            top = np.partition(np.abs(np.stack([e.values for e in elems])), -2, axis=0)
            if np.any(top[-2] * top[-1] > RING_TOL):
                raise NotAPartition("partition parts are not pairwise disjoint")
        if total.deviation(self.of.element) > RING_TOL:
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
    parts = []
    for ui in p.parts:
        for vj in q.parts:
            prod = ui * vj
            if not prod.is_zero():
                parts.append(prod)
    return FinitePartition(tuple(parts), p.of)


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
    coeffs = []
    parts = []
    for lam, ui in zip(u.coefficients, u.partition.parts):
        for mu, vj in zip(v.coefficients, v.partition.parts):
            prod = ui * vj
            if not prod.is_zero():
                coeffs.append(float(f(lam, mu)))
                parts.append(prod)
    partition = FinitePartition(tuple(parts), u.partition.of)
    return SimpleElement(tuple(coeffs), partition)


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


def _pairs_riesz_1(u, v, w):
    out = []
    for lam in (0.5, 3.0):
        out.append(((u.join(v)).scale(lam), u.scale(lam).join(v.scale(lam)), "eq"))
    return out


def _pairs_riesz_1b(u, v, w):
    return [
        (abs_value(u.scale(lam)), abs_value(u).scale(lam), "eq")
        for lam in (0.0, 0.5, 3.0)
    ]


def _pairs_riesz_2(u, v, w):
    return [(-(u.join(v)), (-u).meet(-v), "eq")]


def _pairs_riesz_3(u, v, w):
    return [(u + v.join(w), (u + v).join(u + w), "eq")]


def _pairs_riesz_4(u, v, w):
    return [(u + v.meet(w), (u + v).meet(u + w), "eq")]


def _pairs_riesz_4b(u, v, w):
    return [(u.join(v) + u.meet(v), u + v, "eq")]


def _pairs_riesz_5(u, v, w):
    return [(u, positive_part(u) - negative_part(u), "eq")]


def _pairs_riesz_6(u, v, w):
    p, n = positive_part(u), negative_part(u)
    return [(abs_value(u), p.join(n), "eq"), (p.join(n), p + n, "eq")]


def _pairs_riesz_6b(u, v, w):
    return [(positive_part(u).meet(negative_part(u)), u.zero(), "eq")]


def _pairs_riesz_6c(u, v, w):
    return [(positive_part(u + v), positive_part(u) + positive_part(v), "leq")]


def _pairs_riesz_6d(u, v, w):
    return [(abs_value(u + v), abs_value(u) + abs_value(v), "leq")]


def _pairs_riesz_6e(u, v, w):
    a, b, c = abs_value(u), abs_value(v), abs_value(w)
    return [(a.meet(b + c), a.meet(b) + a.meet(c), "leq")]


def _pairs_falg_7(u, v, w):
    return [(positive_part(u) * negative_part(u), u.zero(), "eq")]


def _pairs_falg_8(u, v, w):
    a = abs_value(u)
    return [(positive_part(a * v), a * positive_part(v), "eq")]


def _disjoint_pair(u, v, w):
    # Split u and v onto complementary supports derived from w so that the
    # resulting pair has pointwise-disjoint carriers.
    m = w.chi_pos()
    mc = m.one() - m
    return u * m, v * mc


def _pairs_falg_8b(u, v, w):
    a, b = _disjoint_pair(positive_part(u), positive_part(v), w)
    return [(abs_value(a - b), abs_value(a + b), "eq")]


def _pairs_falg_8c(u, v, w):
    a, b = _disjoint_pair(u, v, w)
    return [(abs_value(a + b), abs_value(a) + abs_value(b), "eq")]


def _pairs_falg_prod(u, v, w):
    return [(abs_value(u * v), abs_value(u) * abs_value(v), "eq")]


def _pairs_falg_9(u, v, w):
    a = abs_value(u)
    return [(a * v.meet(w), a * v.join(w), "leq")]


#: Law table: (stable id, tolerance class, evaluator).  Each evaluator takes a
#: sample triple (u, v, w), derives any hypothesis-satisfying inputs it needs
#: deterministically from the triple, and returns (lhs, rhs, relation) checks.
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


def _witness(lhs, rhs, sample_index: int, row: int) -> dict:
    lv, rv = lhs.values[row], rhs.values[row]
    atom = int(np.argmax(np.abs(lv - rv)))
    return {"sample": sample_index, "atom": atom, "lhs": float(lv[atom]), "rhs": float(rv[atom])}


def _batch_key(triple) -> tuple:
    return tuple(type(x) for x in triple) + tuple(x.space for x in triple)


def _batches(samples: Iterable[tuple[Any, Any, Any]]) -> Iterable[tuple[int, tuple]]:
    """Maximal runs of samples on the same spaces and carrier classes.

    Yields ``(offset, (U, V, W))`` per run: each role is one carrier of the
    run's class holding the stacked values of its samples.
    """
    offset = 0
    for _, group in groupby(samples, key=_batch_key):
        run = list(group)
        yield offset, tuple(
            type(x)(np.stack([t[i].values for t in run]), x.space)
            for i, x in enumerate(run[0])
        )
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
    carrier classes are stacked into one batch, built as
    ``type(u)(stacked values, space)``, and each law is evaluated once per
    batch.  The reported counterexample of a law is its lowest failing
    sample, the first failing check at that sample, and the atom where that
    check's sides differ most.
    """
    wanted = set(law_ids) if law_ids is not None else None
    table = [
        entry for entry in LAW_TABLE if wanted is None or entry[0] in wanted
    ]
    status: dict[str, LawResult] = {
        law_id: LawResult(law_id, True, None) for law_id, _, _ in table
    }
    for offset, (u, v, w) in _batches(samples):
        for law_id, klass, evaluate in table:
            if not status[law_id].passed:
                continue
            tol = 0.0 if klass == "lattice" else ring_tol
            checks = evaluate(u, v, w)
            failing = ~np.stack([_check_one(lhs, rhs, rel, tol) for lhs, rhs, rel in checks])
            bad = failing.any(axis=0)
            if bad.any():
                row = int(np.argmax(bad))
                lhs, rhs, _ = checks[int(np.argmax(failing[:, row]))]
                status[law_id] = LawResult(law_id, False, _witness(lhs, rhs, offset + row, row))
    return LawReport(tuple(status[law_id] for law_id, _, _ in table))
