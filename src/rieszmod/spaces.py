"""Finite measure spaces and the function-space carriers over them.

This module instantiates the abstract order machinery on the one carrier the
package ships: real-valued functions on a finite measure space.  It provides
the L^p / L^inf / L^0 distances, f-structures and dual systems built from
them, supports and local inverses, the finite Stone representation for
idempotents, and a metric-axiom check suite that doubles as a mutation
harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .errors import (
    InputError,
    InvalidExponent,
    InvalidStructure,
    NegativeInput,
    SpaceMismatch,
)
from .order import (
    FinitePartition,
    Idempotent,
    LawReport,
    LawResult,
    _first_failure,
    _stack,
    abs_value,
)


def _require(cond: bool, message: str, path: str) -> None:
    if not cond:
        raise InputError(message, path=path)


def _number_type(t: type) -> bool:
    """Whether t is the type of a JSON number: an int or a float, not a bool."""
    return t is not bool and issubclass(t, (int, float))


def _numbers(values: Iterable) -> bool:
    """Whether every value is a JSON number, with one test per distinct type."""
    return all(map(_number_type, set(map(type, values))))


def _non_number_at(raw: Any, depth: int = -1) -> str:
    """The index path, such as "[1][0]", of the first entry of the nested
    lists raw that is not a number; "" when there is none.  With a depth,
    the entries sit that many lists deep, and a list there is refused too."""
    if isinstance(raw, list):
        for i, x in enumerate(raw):
            if isinstance(x, list) and depth != 1:
                sub = _non_number_at(x, depth - 1)
                if sub:
                    return f"[{i}]{sub}"
            elif not _number_type(type(x)):
                return f"[{i}]"
    return ""


def _nested_numbers(raw: list, depth: int) -> bool:
    """Whether raw holds only numbers, level by level down its lists of lists
    (at most ``depth`` levels, any number when -1), with one test per
    distinct type per level as in ``_numbers``.  A level that mixes lists
    with other values reads False, and ``_non_number_at`` decides it."""
    level = raw
    while True:
        kinds = set(map(type, level))
        if kinds != {list} or depth == 1:
            return all(map(_number_type, kinds))
        level = list(chain.from_iterable(level))
        depth -= 1


def _require_numbers(raw: Any, message: str, where: str, depth: int = -1) -> None:
    """Refuse the first entry ``_non_number_at`` finds in raw, at its path.
    Lists of numbers pass by ``_nested_numbers``; only other input is walked."""
    if type(raw) is list and _nested_numbers(raw, depth):
        return
    bad = _non_number_at(raw, depth)
    _require(not bad, message, where + bad)


def _integer(raw: Any, what: str, where: str) -> int:
    """A JSON integer, which may be written as 2.0; 2.5, true and "2" are refused."""
    _require(type(raw) is int or (type(raw) is float and raw.is_integer()),
             f"{what} must be an integer", where)
    return int(raw)


def _overflows(raw: Any) -> bool:
    """Whether float(raw) overflows, as for a JSON integer beyond the float range."""
    try:
        float(raw)
    except OverflowError:
        return True
    return False


def _frozen(values: Sequence[float]) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FiniteMeasureSpace:
    """A finite set of atoms with strictly positive weights.

    ``weights`` is the reference measure; ``aux_weights`` is the auxiliary
    finite measure used by the L^0 distance.  When omitted, the auxiliary
    measure defaults to the reference measure normalized to total mass 1,
    which keeps the L^0 distance bounded by 1 and makes the choice
    deterministic.
    """

    atoms: tuple[str, ...]
    weights: tuple[float, ...]
    aux_weights: tuple[float, ...]

    def __post_init__(self):
        if not (len(self.atoms) == len(self.weights) == len(self.aux_weights)):
            raise InvalidStructure("atoms, weights, and aux_weights must have equal length")
        if len(self.atoms) < 1:
            raise InvalidStructure("a measure space needs at least one atom")
        # One test per array, on the arrays every distance reads; NaN fails it.
        if not (self.mu.min() > 0.0 and self.mu.max() < math.inf):
            raise InvalidStructure("all weights must be strictly positive and finite")
        if not (self.mu_aux.min() > 0.0 and self.mu_aux.max() < math.inf):
            raise InvalidStructure("all aux_weights must be strictly positive and finite")

    @staticmethod
    def make(atoms: Sequence[str], weights: Sequence[float],
             aux_weights: Sequence[float] | None = None) -> "FiniteMeasureSpace":
        weights = tuple(map(float, weights))
        if aux_weights is None:
            total = sum(weights)
            # Degenerate weights fall through so __post_init__ reports them.
            aux_weights = tuple((np.array(weights) / total).tolist()) if total > 0 else weights
        else:
            aux_weights = tuple(map(float, aux_weights))
        atoms = tuple(atoms)
        if set(map(type, atoms)) != {str}:
            atoms = tuple(map(str, atoms))
        return FiniteMeasureSpace(atoms, weights, aux_weights)

    @property
    def n(self) -> int:
        return len(self.atoms)

    # Cached read-only arrays: every distance reads them.
    @cached_property
    def mu(self) -> np.ndarray:
        return _frozen(self.weights)

    @cached_property
    def mu_aux(self) -> np.ndarray:
        return _frozen(self.aux_weights)

    def fn(self, values: Sequence[float]) -> "Fn":
        """One function on this space: exactly n values, never a batch."""
        f = Fn(values, self)
        if f.values.ndim != 1:
            raise SpaceMismatch(f"expected {self.n} values, got shape {f.values.shape}")
        return f

    def zero_fn(self) -> "Fn":
        return Fn._trusted(np.zeros(self.n), self)

    def one_fn(self) -> "Fn":
        return Fn._trusted(np.ones(self.n), self)

    def indicator(self, mask: Sequence[bool]) -> "Fn":
        arr = np.asarray(mask)
        _require(arr.shape == (self.n,), "indicator mask length must match atom count", "$.mask")
        return Fn._trusted(np.where(arr, 1.0, 0.0), self)

    def to_json(self) -> dict:
        return {
            "atoms": list(self.atoms),
            "weights": [float(w) for w in self.weights],
            "aux_weights": [float(w) for w in self.aux_weights],
        }

    @classmethod
    def from_json(cls, obj: Any, where: str = "$") -> "FiniteMeasureSpace":
        _require(isinstance(obj, dict), "space must be an object", where)
        _require("atoms" in obj, "space is missing 'atoms'", where + ".atoms")
        _require("weights" in obj, "space is missing 'weights'", where + ".weights")
        atoms = obj["atoms"]
        weights = obj["weights"]
        _require(isinstance(atoms, list) and all(issubclass(t, str) for t in set(map(type, atoms))),
                 "atoms must be a list of strings", where + ".atoms")
        aux = obj.get("aux_weights")
        keys = ("weights", "aux_weights") if aux is not None else ("weights",)
        for key in keys:
            here, message = f"{where}.{key}", f"{key} must be a list of numbers"
            _require(isinstance(obj[key], list), message, here)
            _require_numbers(obj[key], message, here, 1)
        try:
            return cls.make(atoms, weights, aux)
        except InvalidStructure as exc:
            raise InputError(exc.message, path=where) from exc
        except OverflowError as exc:
            key, i = next((key, i) for key in keys for i, w in enumerate(obj[key]) if _overflows(w))
            raise InputError(f"{key} must be finite numbers", path=f"{where}.{key}[{i}]") from exc


_new = object.__new__


def _pointwise(ufunc: Callable, ring: bool) -> Callable:
    """The ``Fn`` operation ``ufunc(self.values, other.values)``.

    Its type, space and shape checks and the read-only wrap of the result
    are written out in the operation rather than called, since every term
    of a law suite pays them.  A ring operation returns NotImplemented for
    an operand that is not an ``Fn``, so module elements dispatch to their
    reflected method; a lattice operation raises TypeError.
    """

    def op(self: "Fn", other: "Fn") -> "Fn":
        if not isinstance(other, Fn):
            if ring:
                return NotImplemented
            raise TypeError(f"expected Fn, got {type(other).__name__}")
        space, a, b = self.space, self.values, other.values
        if other.space is not space and other.space != space:
            raise SpaceMismatch("operands live on different measure spaces")
        if a.shape != b.shape:
            raise SpaceMismatch(f"operand shapes differ: {a.shape} and {b.shape}")
        out = ufunc(a, b)
        out.setflags(write=False)
        f = _new(Fn)
        f.values, f.space = out, space
        return f

    return op


class Fn:
    """Real-valued functions on a finite measure space (the shipped carrier).

    Implements the full lattice/f-algebra interface: pointwise ring and
    lattice operations, order, and the strictly-positive-part indicator.
    Values are read-only numpy arrays, of shape ``(n,)`` for one function or
    ``(S, n)`` for a batch of S functions on the same space.  The
    constructor copies and checks them, so they never alias the caller's
    data; ``_trusted`` wraps an array the library has just built, without a
    copy, and the operations wrap their results the same way.  Elementwise
    operations keep the shape and need operands of equal shape; ``leq``,
    ``equals``, ``deviation`` and ``sup_abs`` reduce over the atoms, giving a
    Python bool or float for one function and an array of shape ``(S,)`` for
    a batch.
    """

    __slots__ = ("values", "space")

    def __init__(self, values: Sequence[float] | np.ndarray, space: FiniteMeasureSpace):
        arr = np.array(values, dtype=float)
        if arr.ndim not in (1, 2) or arr.shape[-1] != space.n:
            raise SpaceMismatch(
                f"expected {space.n} values, got shape {arr.shape}"
            )
        arr.setflags(write=False)
        self.values = arr
        self.space = space

    @classmethod
    def _trusted(cls, arr: np.ndarray, space: FiniteMeasureSpace) -> "Fn":
        """Wrap a float array without copying or checking it: only for arrays
        the library built, of shape (n,) or (S, n), that nothing else holds."""
        arr.setflags(write=False)
        f = cls.__new__(cls)
        f.values, f.space = arr, space
        return f

    def _check(self, other: "Fn") -> None:
        if not isinstance(other, Fn):
            raise TypeError(f"expected Fn, got {type(other).__name__}")
        if other.space is not self.space and other.space != self.space:
            raise SpaceMismatch("operands live on different measure spaces")
        if other.values.shape != self.values.shape:
            raise SpaceMismatch(
                f"operand shapes differ: {self.values.shape} and {other.values.shape}"
            )

    @staticmethod
    def _reduced(out: np.ndarray) -> Any:
        """A per-function reduction: a Python scalar for one function."""
        return out.item() if out.ndim == 0 else out

    def __repr__(self) -> str:
        return f"Fn({self.values.tolist()!r})"

    __add__ = _pointwise(np.add, ring=True)
    __sub__ = _pointwise(np.subtract, ring=True)
    __mul__ = _pointwise(np.multiply, ring=True)
    join = _pointwise(np.maximum, ring=False)
    meet = _pointwise(np.minimum, ring=False)

    def __neg__(self) -> "Fn":
        out = -self.values
        out.setflags(write=False)
        f = _new(Fn)
        f.values, f.space = out, self.space
        return f

    def scale(self, lam: float) -> "Fn":
        out = self.values * float(lam)
        out.setflags(write=False)
        f = _new(Fn)
        f.values, f.space = out, self.space
        return f

    def leq(self, other: "Fn") -> Any:
        self._check(other)
        return self._reduced(np.logical_and.reduce(self.values <= other.values, axis=-1))

    def equals(self, other: "Fn") -> Any:
        self._check(other)
        return self._reduced(np.logical_and.reduce(self.values == other.values, axis=-1))

    def deviation(self, other: "Fn") -> Any:
        self._check(other)
        return self._reduced(np.abs(self.values - other.values).max(axis=-1))

    def zero(self) -> "Fn":
        return Fn._trusted(np.zeros(self.values.shape), self.space)

    def one(self) -> "Fn":
        return Fn._trusted(np.ones(self.values.shape), self.space)

    def chi_pos(self) -> "Fn":
        return Fn._trusted(np.where(self.values > 0.0, 1.0, 0.0), self.space)

    def abs(self) -> "Fn":
        return Fn._trusted(np.abs(self.values), self.space)

    @property
    def sup_abs(self) -> Any:
        return self._reduced(np.abs(self.values).max(axis=-1))

    def to_json(self) -> list:
        return self.values.tolist()


# --------------------------------------------------------------------------
# Distances
# --------------------------------------------------------------------------

#: The smallest positive normal double: a power sum below it has lost bits.
_TINY = float(np.finfo(float).tiny)


def _pow_rows(x: np.ndarray, e: float) -> np.ndarray:
    """x ** e entry by entry with the scalar (libm) pow, as a sequential
    loop over Python floats would compute it."""
    return np.array([t ** e for t in x.tolist()])


def _rescaled_rows(a: np.ndarray, sums_of: Callable, root: Callable) -> np.ndarray:
    """root(sums_of(all, a)) per row of a, guarded against the double range.

    ``sums_of(idx, rows)`` is the sum (a power sum, or x^T G x) of the rows
    ``rows`` of members ``idx`` (a slice or a mask), and root(sums_of(.)) must be absolutely
    homogeneous of degree 1.  A row whose sum underflows (to 0 or a
    subnormal), overflows or is NaN while its largest |entry| is nonzero
    and finite is recomputed from the row scaled by that entry; rows in
    range keep their bits.  This is the one range guard of the package.
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        sums = sums_of(slice(None), a)
        out = root(sums)
        lo, hi = np.minimum.reduce(sums, initial=math.inf), np.maximum.reduce(sums, initial=0.0)
        if not (lo >= _TINY and hi < math.inf):  # one test for the stack; NaN fails it
            top = np.maximum.reduce(np.abs(a), axis=1, initial=0.0)
            bad = ~((sums >= _TINY) & (sums < math.inf)) & (top > 0.0) & (top < math.inf)
            out[bad] = top[bad] * root(sums_of(bad, a[bad] / top[bad, None]))
    return out


def _lp_rows(p: float, x: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """(Σ_j |x_ij|^p w_j)^{1/p} for every row i of x, w the weights (all 1
    when None); max_j |x_ij| for p = inf.

    The one lp reduction of the package: V-distances, fiber norms and
    matrix-realized seminorms all run it.  Sums leaving the double range
    are handled by ``_rescaled_rows``.  Each row is reduced on its own, so
    its value does not depend on the other rows.
    """
    if x.shape[1] == 0:
        return np.zeros(x.shape[0])
    a = np.abs(x)
    if p == math.inf:
        return np.maximum.reduce(a, axis=1)
    if p == 1.0 and weights is None:
        # A sum of |x_ij| leaves the double range only where the norm does.
        return np.add.reduce(a, axis=1)

    def sums_of(_, rows: np.ndarray) -> np.ndarray:
        powers = rows if p == 1.0 else rows ** p
        return np.add.reduce(powers if weights is None else powers * weights, axis=1)

    return _rescaled_rows(a, sums_of, (lambda s: s) if p == 1.0 else (lambda s: s ** (1.0 / p)))


def lp_norm(f: Fn, p: float) -> Any:
    """(Σ |f_i|^p μ_i)^{1/p} for finite p, max_i |f_i| for p = inf.

    Reduces over the atoms like :meth:`Fn.deviation`: a Python float for one
    function, an array of shape ``(S,)`` for a batch, and each row of a
    batch equals its single-function call bit for bit (``_lp_rows``).  The
    outer 1/p-th root keeps positive homogeneity, which the module axioms
    rely on.
    """
    if p != math.inf and (not p >= 1.0 or math.isnan(p)):
        raise InvalidExponent(f"p must lie in [1, inf], got {p!r}")
    x = f.values
    out = _lp_rows(p, x.reshape(-1, x.shape[-1]), f.space.mu)
    return float(out[0]) if x.ndim == 1 else out


def l0_distance(f: Fn, g: Fn, truncation: Callable[[np.ndarray], np.ndarray] | None = None) -> Any:
    """Σ (|f_i − g_i| ∧ 1) μ̃_i, the convergence-in-measure distance.

    Reduces over the atoms like :func:`lp_norm`: a Python float for one
    pair of functions, an array of shape ``(S,)`` for a pair of batches.
    ``truncation`` replaces the pointwise t ↦ t ∧ 1 and exists so tests can
    deliberately corrupt the distance and watch the law suite flag it; it
    receives the elementwise differences, of shape ``(n,)`` or ``(S, n)``.
    """
    f._check(g)
    diff = np.abs(f.values - g.values)
    cut = np.minimum(diff, 1.0) if truncation is None else truncation(diff)
    return f._reduced((cut * f.space.mu_aux).sum(axis=-1))


@dataclass(frozen=True)
class Kind:
    """A function-space kind: Lp (finite p ≥ 1), Linf, or L0."""

    name: str
    p: float | None = None

    def __post_init__(self):
        if self.name not in ("Lp", "Linf", "L0"):
            raise InvalidStructure(f"unknown space kind {self.name!r}")
        if self.name == "Lp":
            if self.p is None or math.isnan(self.p) or not (1.0 <= self.p < math.inf):
                raise InvalidExponent(f"Lp kind needs p in [1, inf), got {self.p!r}")
        elif self.p is not None:
            raise InvalidStructure(f"kind {self.name} takes no exponent")

    def distance(self, f: Fn, g: Fn) -> Any:
        """One distance per function: a float, or ``(S,)`` for batches."""
        if self.name == "Lp":
            return lp_norm(f - g, self.p)
        if self.name == "Linf":
            return lp_norm(f - g, math.inf)
        return l0_distance(f, g)

    def norm0(self, f: Fn) -> Any:
        return self.distance(f, f.zero())

    # Reciprocal exponent with L0 treated as "integrability zero": products
    # with an L0 factor land in L0, and Linf contributes nothing.
    def _recip_p(self) -> float:
        if self.name == "Lp":
            return 1.0 / self.p
        if self.name == "Linf":
            return 0.0
        return math.inf

    def to_json(self) -> Any:
        if self.name == "Lp":
            return {"Lp": float(self.p)}
        return self.name

    @classmethod
    def from_json(cls, obj: Any, where: str = "$") -> "Kind":
        if isinstance(obj, str):
            _require(obj in ("Linf", "L0"), f"unknown kind {obj!r}", where)
            return cls(obj)
        _require(isinstance(obj, dict) and set(obj) == {"Lp"},
                 "kind must be 'Linf', 'L0', or {\"Lp\": p}", where)
        p = obj["Lp"]
        _require(_number_type(type(p)), "Lp exponent must be a number", where + ".Lp")
        try:
            return cls("Lp", float(p))
        except InvalidExponent as exc:
            raise InputError(exc.message, path=where + ".Lp") from exc


@dataclass(frozen=True)
class FiniteFStructure:
    """The triple (ambient algebra, multiplier algebra U, normed space V).

    At finite scale the ambient algebra is all functions on the space; U and
    V are distinguished only through their distances.  U must carry an
    algebra-friendly distance (Linf or L0); V may be any of Lp, Linf, L0.
    """

    space: FiniteMeasureSpace
    u_kind: Kind
    v_kind: Kind

    def __post_init__(self):
        if self.u_kind.name == "Lp":
            raise InvalidStructure(
                "the multiplier algebra carries Linf or L0; Lp is not closed under products"
            )

    def d_U(self, f: Fn, g: Fn) -> Any:
        return self.u_kind.distance(f, g)

    def d_V(self, f: Fn, g: Fn) -> Any:
        return self.v_kind.distance(f, g)

    def to_json(self) -> dict:
        return {
            "space": self.space.to_json(),
            "U": self.u_kind.to_json(),
            "V": self.v_kind.to_json(),
        }

    @classmethod
    def from_json(cls, obj: Any, where: str = "$") -> "FiniteFStructure":
        _require(isinstance(obj, dict), "structure must be an object", where)
        for key in ("space", "U", "V"):
            _require(key in obj, f"structure is missing {key!r}", f"{where}.{key}")
        space = FiniteMeasureSpace.from_json(obj["space"], where + ".space")
        u_kind = Kind.from_json(obj["U"], where + ".U")
        v_kind = Kind.from_json(obj["V"], where + ".V")
        try:
            return cls(space, u_kind, v_kind)
        except InvalidStructure as exc:
            raise InputError(exc.message, path=where + ".U") from exc


def _product_kind(a: Kind, b: Kind) -> Kind:
    """The kind of pointwise products: reciprocal exponents add."""
    r = a._recip_p() + b._recip_p()
    if r == math.inf:
        return Kind("L0")
    if r == 0.0:
        return Kind("Linf")
    return Kind("Lp", 1.0 / r)


@dataclass(frozen=True)
class DualSystem:
    """An f-structure together with a pairing space W and product space Z.

    Validates Z = V·W on kinds: reciprocal exponents must satisfy
    1/p + 1/q = 1/r, with Linf contributing 0 and L0 absorbing everything.
    """

    base: FiniteFStructure
    w_kind: Kind
    z_kind: Kind

    def __post_init__(self):
        want = _product_kind(self.base.v_kind, self.w_kind)
        got = self.z_kind
        if want.name != got.name:
            raise InvalidStructure(
                f"Z must be the product kind {want.to_json()!r}, got {got.to_json()!r}"
            )
        if want.name == "Lp" and abs(1.0 / want.p - 1.0 / got.p) > 1e-9:
            raise InvalidStructure(
                f"exponents must satisfy 1/p + 1/q = 1/r; expected r={want.p}, got {got.p}"
            )

    @property
    def space(self) -> FiniteMeasureSpace:
        return self.base.space

    def d_W(self, f: Fn, g: Fn) -> Any:
        return self.w_kind.distance(f, g)

    def d_Z(self, f: Fn, g: Fn) -> Any:
        return self.z_kind.distance(f, g)

    @classmethod
    def default(cls, structure: FiniteFStructure) -> "DualSystem":
        """The canonical pairing for a structure: Lp pairs with its conjugate
        exponent into L1, Linf pairs with L1 into L1, and L0 pairs with L0.
        """
        v = structure.v_kind
        if v.name == "L0":
            return cls(structure, Kind("L0"), Kind("L0"))
        if v.name == "Linf":
            return cls(structure, Kind("Lp", 1.0), Kind("Lp", 1.0))
        if v.p == 1.0:
            return cls(structure, Kind("Linf"), Kind("Lp", 1.0))
        q = v.p / (v.p - 1.0)
        return cls(structure, Kind("Lp", q), Kind("Lp", 1.0))


# --------------------------------------------------------------------------
# Supports, inverses, Stone representation
# --------------------------------------------------------------------------

def support_of(vs: Sequence[Fn]) -> Idempotent:
    """The indicator of the union of supports of a family of elements."""
    if len(vs) == 0:
        raise InputError("support_of needs at least one element")
    mask = np.zeros(vs[0].space.n, dtype=bool)
    for v in vs:
        vs[0]._check(v)
        mask |= v.values != 0.0
    return Idempotent._trusted(vs[0].space.indicator(mask))


def supporting_element(structure: FiniteFStructure,
                       spanning_family: Sequence[Fn] | None = None) -> Fn:
    """An element h of V⁺ ∩ U⁺ with 0 < h ≤ 1 exactly on the support of V.

    With no spanning family, V is the full function space over strictly
    positive weights and h = 𝟏.  Given a spanning family of the (solid)
    subspace in play, h is the indicator of the union of its supports.
    """
    if spanning_family is None:
        return structure.space.one_fn()
    return support_of([abs_value(v) for v in spanning_family]).element


def local_inverse(u: Fn, faithful: bool = False) -> tuple[FinitePartition, list[Fn]]:
    """A partition (u_n) of χ_{u>0} with elements w_n inverting u on each part.

    The defining identity is u_n (u w_n − 1) = 0 for every n.  The default
    returns the single-block partition with the pointwise reciprocal on the
    support.  ``faithful`` instead replays the level-set construction used to
    prove existence: one block per distinct positive value (ascending), each
    inverted by the constant reciprocal of that value.
    """
    if np.any(u.values < 0.0):
        raise NegativeInput("local_inverse needs a nonnegative element")
    space = u.space
    pos = u.values > 0.0
    chi = Idempotent._trusted(space.indicator(pos))
    if not pos.any():
        return FinitePartition((), chi), []
    if not faithful:
        inv = np.zeros(space.n)
        inv[pos] = 1.0 / u.values[pos]
        return FinitePartition((chi,), chi), [Fn(inv, space)]
    parts: list[Idempotent] = []
    inverses: list[Fn] = []
    for c in sorted(set(u.values[pos].tolist())):
        parts.append(Idempotent._trusted(space.indicator(u.values == c)))
        inverses.append(space.one_fn().scale(1.0 / c))
    return FinitePartition(tuple(parts), chi), inverses


def stone_atoms(
    idempotents: Sequence[Idempotent | Fn],
) -> tuple[list[Idempotent], tuple[tuple[int, ...], ...]]:
    """Atoms of the Boolean algebra generated by finitely many idempotents.

    Returns the minimal nonzero products of generators and complements
    (ordered by first atom occurrence) and, per generator, the sorted indices
    of the atoms it decomposes into.  Each generator equals the sum of its
    assigned atoms, and the assignment turns the Boolean operations
    u ⊞ v = u + v − 2uv and u ⊠ v = uv into symmetric difference and
    intersection of index sets.  The generators must live on one space
    (else ``SpaceMismatch``).  The atoms are the rows of one 0/1 stack,
    idempotent by construction, and are not checked again.
    """
    gens = [g if isinstance(g, Idempotent) else Idempotent(g) for g in idempotents]
    if len(gens) == 0:
        raise InputError("stone_atoms needs at least one idempotent")
    first = gens[0].element
    for g in gens[1:]:
        first._check(g.element)
    # Column a of member is atom a's signature; atom k of the algebra is the
    # k-th distinct signature in order of first occurrence.  Each signature
    # is packed into one byte string, so a single sort labels every atom.
    member = np.array([g.element.values > 0.5 for g in gens])
    packed = np.ascontiguousarray(np.packbits(member, axis=0).T)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).reshape(-1)
    _, at, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(at)
    labels = np.argsort(order)[inverse]
    rows = np.where(np.arange(order.size)[:, None] == labels, 1.0, 0.0)
    atom_sets = [Idempotent._trusted(Fn._trusted(row, first.space)) for row in rows]
    embedding = tuple(tuple(np.flatnonzero(sig).tolist()) for sig in member[:, at[order]])
    return atom_sets, embedding


# --------------------------------------------------------------------------
# Metric-axiom suite
# --------------------------------------------------------------------------

FSTRUCT_LAW_IDS = (
    "fstruct-abs",
    "fstruct-translation",
    "fstruct-monotone",
    "fstruct-mult-modulus",
    "fstruct-glueing",
    "fstruct-unit-small",
)

_METRIC_TOL = 1e-12


def _space_constant(space: FiniteMeasureSpace) -> float:
    mu, aux = space.mu, space.mu_aux
    return max(
        1.0,
        1.0 / float(mu.min()),
        1.0 / float(aux.min()),
        float(mu.sum()),
        float(aux.sum()),
        float(mu.max()) / float(aux.min()),
        float(aux.max()) / float(mu.min()),
    )


def _per_row(dist: Callable[[Fn, Fn], Any]) -> Callable[[Fn, Fn], np.ndarray]:
    """``dist`` checked to give one value per row of a batch."""

    def call(f: Fn, g: Fn) -> np.ndarray:
        out = np.asarray(dist(f, g), dtype=float)
        if out.shape != f.values.shape[:-1]:
            raise SpaceMismatch(
                f"a distance on {f.values.shape[0]} rows must return one value per row, "
                f"got shape {out.shape}"
            )
        return out

    return call


def _fmax(*xs: np.ndarray) -> np.ndarray:
    """Per-row max(1.0, *xs) as Python's max takes it: NaN entries lose."""
    return reduce(np.fmax, xs, 1.0)


def check_fstructure_laws(
    structure: FiniteFStructure,
    samples: Iterable[tuple[Fn, Fn, Fn]],
    d_u: Callable[[Fn, Fn], Any] | None = None,
    d_v: Callable[[Fn, Fn], Any] | None = None,
) -> LawReport:
    """Check the metric axioms of an f-structure on sample triples.

    Per sample (u, v, w) this verifies, for the U and V distances:
    absolute-value invariance d(u,0) = d(|u|,0); translation invariance;
    monotonicity of d(·,0) on the positive cone; a computable local modulus
    for the continuity of multiplication U × V → V; and the glueing bound,
    which at finite scale reduces to subadditivity of d_V(·,0) over the
    disjoint pieces of a partition (so the δ–ε statement holds with δ = ε).
    Smallness of d_V(ε𝟏, 0) as ε ↓ 0 is checked once per run.

    Every sample must be a triple of single functions on the structure's
    space (else ``SpaceMismatch``).  The samples are stacked into one batch
    per role, each axiom is evaluated once on the batch, with per-sample
    tolerances, and the ε sequence runs as one batch of 41 rows.  A law's
    counterexample is its lowest failing sample, with the sides of the first
    check that fails there, as a sample-by-sample loop would report it.

    ``d_u`` / ``d_v`` override the structure's distances; passing a
    deliberately corrupted distance turns the suite into a mutation harness.
    Like :func:`lp_norm`, an override takes two batches of shape ``(S, n)``
    and returns one distance per row, shape ``(S,)``.  Failures are
    reported, not raised.
    """
    du = _per_row(d_u if d_u is not None else structure.d_U)
    dv = _per_row(d_v if d_v is not None else structure.d_V)
    space = structure.space
    const = _space_constant(space)
    p_v = structure.v_kind.p if structure.v_kind.name == "Lp" else 1.0

    status: dict[str, LawResult] = {
        law_id: LawResult(law_id, True, None) for law_id in FSTRUCT_LAW_IDS
    }

    def fail(law_id: str, k: int, lhs: float, rhs: float) -> None:
        status[law_id] = LawResult(
            law_id, False, {"sample": k, "atom": None, "lhs": float(lhs), "rhs": float(rhs)},
        )

    def record(law_id: str, checks: list[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> None:
        # checks: (lhs, rhs, failing) per check, in the order a sample runs them.
        hit = _first_failure([bad for _, _, bad in checks])
        if hit is not None:
            k, c = hit
            lhs, rhs, _ = checks[c]
            fail(law_id, k, lhs[k], rhs[k])

    # Unit smallness: d_V(eps * 1, 0) decreases to ~0 along eps = 2^-k.
    eps = Fn._trusted(np.ldexp(np.ones((41, space.n)), -np.arange(41)[:, None]), space)
    seq = dv(eps, eps.zero())
    floor = 1e-6 * max(1.0, seq[0])
    if not (np.all(seq[1:] <= seq[:-1] + _METRIC_TOL) and seq[-1] <= floor):
        fail("fstruct-unit-small", -1, seq[-1], floor)

    samples = list(samples)
    single = space.zero_fn()
    for u, v, w in samples:
        for x in (u, v, w):
            single._check(x)
    if not samples:
        return LawReport(tuple(status[law_id] for law_id in FSTRUCT_LAW_IDS))
    u, v, w = _stack(samples)
    zero = u.zero()
    abs_u, abs_v = abs_value(u), abs_value(v)
    tol = _METRIC_TOL * _fmax(u.sup_abs, v.sup_abs, w.sup_abs)

    # d(x, 0) = d(|x|, 0) for both distances.
    pairs = [(dist(x, zero), dist(abs_x, zero))
             for dist in (du, dv) for x, abs_x in ((u, abs_u), (v, abs_v))]
    record("fstruct-abs", [(lhs, rhs, np.abs(lhs - rhs) > tol) for lhs, rhs in pairs])

    # d(x + w, y + w) = d(x, y).
    pairs = [(dist(u + w, v + w), dist(u, v)) for dist in (du, dv)]
    record("fstruct-translation", [(lhs, rhs, np.abs(lhs - rhs) > tol) for lhs, rhs in pairs])

    # 0 <= f <= g implies d(f, 0) <= d(g, 0).
    f = abs_u.meet(abs_v)
    pairs = [(dist(f, zero), dist(abs_u, zero)) for dist in (du, dv)]
    record("fstruct-monotone", [(lhs, rhs, lhs > rhs + tol) for lhs, rhs in pairs])

    # Continuity of multiplication with an explicit local modulus:
    # d_V(a*b, a2*b2) <= L * (eta + eta^(1/p)) where eta is the product
    # distance between (a, b) and (a2, b2).  L combines the sup norms in
    # play with a space constant comparing the three distances.  The powers
    # take the scalar pow, as one sample's Python floats would.
    a, a2, b = u, v, w
    b2 = w + u.scale(0.5)
    eta = du(a, a2) + dv(b, b2)
    if p_v != 1.0 and np.any(eta < 0.0):
        raise InvalidStructure("the multiplication modulus needs d_u + d_v >= 0; "
                               "a distance override returned a negative value")
    big = _fmax(a.sup_abs, a2.sup_abs, b.sup_abs, b2.sup_abs, (a - a2).sup_abs)
    bound = const * _pow_rows(big, 2) * (eta + _pow_rows(eta, 1.0 / p_v))
    lhs = dv(a * b, a2 * b2)
    record("fstruct-mult-modulus", [(lhs, bound, lhs > bound + tol)])

    # Glueing: over the disjoint blocks of a partition, the distance of
    # the glued element is at most the sum of the blockwise distances.
    mask = w.chi_pos()
    blocks = [mask, mask.one() - mask]
    pieces = [blocks[0] * abs_u, blocks[1] * abs_v]
    glued = pieces[0].join(pieces[1])
    total = sum(dv(piece, zero) for piece in pieces)
    lhs = dv(glued, zero)
    record("fstruct-glueing", [(lhs, total, lhs > total + tol)])

    return LawReport(tuple(status[law_id] for law_id in FSTRUCT_LAW_IDS))
