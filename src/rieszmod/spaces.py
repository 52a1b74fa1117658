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
from functools import cached_property
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
    abs_value,
)


def _require(cond: bool, message: str, path: str) -> None:
    if not cond:
        raise InputError(message, path=path)


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
        if any(w <= 0 or not math.isfinite(w) for w in self.weights):
            raise InvalidStructure("all weights must be strictly positive and finite")
        if any(w <= 0 or not math.isfinite(w) for w in self.aux_weights):
            raise InvalidStructure("all aux_weights must be strictly positive and finite")

    @staticmethod
    def make(atoms: Sequence[str], weights: Sequence[float],
             aux_weights: Sequence[float] | None = None) -> "FiniteMeasureSpace":
        weights = tuple(float(w) for w in weights)
        if aux_weights is None:
            total = sum(weights)
            # Degenerate weights fall through so __post_init__ reports them.
            aux_weights = tuple(w / total for w in weights) if total > 0 else weights
        else:
            aux_weights = tuple(float(w) for w in aux_weights)
        return FiniteMeasureSpace(tuple(str(a) for a in atoms), weights, aux_weights)

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
        return Fn(np.zeros(self.n), self)

    def one_fn(self) -> "Fn":
        return Fn(np.ones(self.n), self)

    def indicator(self, mask: Sequence[bool]) -> "Fn":
        arr = np.asarray(mask)
        _require(arr.shape == (self.n,), "indicator mask length must match atom count", "$.mask")
        return Fn(np.where(arr, 1.0, 0.0), self)

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
        _require(isinstance(atoms, list) and all(isinstance(a, str) for a in atoms),
                 "atoms must be a list of strings", where + ".atoms")
        _require(isinstance(weights, list) and all(isinstance(w, (int, float)) for w in weights),
                 "weights must be a list of numbers", where + ".weights")
        aux = obj.get("aux_weights")
        if aux is not None:
            _require(isinstance(aux, list) and all(isinstance(w, (int, float)) for w in aux),
                     "aux_weights must be a list of numbers", where + ".aux_weights")
        try:
            return cls.make(atoms, weights, aux)
        except InvalidStructure as exc:
            raise InputError(exc.message, path=where) from exc


class Fn:
    """Real-valued functions on a finite measure space (the shipped carrier).

    Implements the full lattice/f-algebra interface: pointwise ring and
    lattice operations, order, and the strictly-positive-part indicator.
    Values are immutable numpy arrays, of shape ``(n,)`` for one function or
    ``(S, n)`` for a batch of S functions on the same space.  Elementwise
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

    def __add__(self, other: "Fn") -> "Fn":
        if not isinstance(other, Fn):
            return NotImplemented
        self._check(other)
        return Fn(self.values + other.values, self.space)

    def __sub__(self, other: "Fn") -> "Fn":
        if not isinstance(other, Fn):
            return NotImplemented
        self._check(other)
        return Fn(self.values - other.values, self.space)

    def __neg__(self) -> "Fn":
        return Fn(-self.values, self.space)

    def __mul__(self, other: "Fn") -> Any:
        # Non-Fn right operands (module elements) dispatch to their __rmul__.
        if not isinstance(other, Fn):
            return NotImplemented
        self._check(other)
        return Fn(self.values * other.values, self.space)

    def scale(self, lam: float) -> "Fn":
        return Fn(self.values * float(lam), self.space)

    def join(self, other: "Fn") -> "Fn":
        self._check(other)
        return Fn(np.maximum(self.values, other.values), self.space)

    def meet(self, other: "Fn") -> "Fn":
        self._check(other)
        return Fn(np.minimum(self.values, other.values), self.space)

    def leq(self, other: "Fn") -> Any:
        self._check(other)
        return self._reduced((self.values <= other.values).all(axis=-1))

    def equals(self, other: "Fn") -> Any:
        self._check(other)
        return self._reduced((self.values == other.values).all(axis=-1))

    def deviation(self, other: "Fn") -> Any:
        self._check(other)
        return self._reduced(np.abs(self.values - other.values).max(axis=-1))

    def zero(self) -> "Fn":
        return Fn(np.zeros(self.values.shape), self.space)

    def one(self) -> "Fn":
        return Fn(np.ones(self.values.shape), self.space)

    def chi_pos(self) -> "Fn":
        return Fn(np.where(self.values > 0.0, 1.0, 0.0), self.space)

    def abs(self) -> "Fn":
        return Fn(np.abs(self.values), self.space)

    @property
    def sup_abs(self) -> Any:
        return self._reduced(np.abs(self.values).max(axis=-1))

    def to_json(self) -> list:
        return self.values.tolist()


# --------------------------------------------------------------------------
# Distances
# --------------------------------------------------------------------------

def _require_single(f: Fn, what: str) -> None:
    if f.values.ndim != 1:
        raise SpaceMismatch(f"{what} takes one function, got a batch of shape {f.values.shape}")


def lp_norm(f: Fn, p: float) -> float:
    """(Σ |f_i|^p μ_i)^{1/p} for finite p, max_i |f_i| for p = inf.

    The outer 1/p-th root keeps positive homogeneity, which the module
    axioms rely on.
    """
    if p != math.inf and (not p >= 1.0 or math.isnan(p)):
        raise InvalidExponent(f"p must lie in [1, inf], got {p!r}")
    _require_single(f, "lp_norm")
    a = np.abs(f.values)
    if p == math.inf:
        return float(np.max(a))
    if p == 1.0:
        return float(np.sum(a * f.space.mu))
    return float(np.sum(a ** p * f.space.mu) ** (1.0 / p))


def l0_distance(f: Fn, g: Fn, truncation: Callable[[np.ndarray], np.ndarray] | None = None) -> float:
    """Σ (|f_i − g_i| ∧ 1) μ̃_i, the convergence-in-measure distance.

    ``truncation`` replaces the pointwise t ↦ t ∧ 1 and exists so tests can
    deliberately corrupt the distance and watch the law suite flag it.
    """
    f._check(g)
    _require_single(f, "l0_distance")
    diff = np.abs(f.values - g.values)
    cut = np.minimum(diff, 1.0) if truncation is None else truncation(diff)
    return float(np.sum(cut * f.space.mu_aux))


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

    def distance(self, f: Fn, g: Fn) -> float:
        if self.name == "Lp":
            return lp_norm(f - g, self.p)
        if self.name == "Linf":
            return lp_norm(f - g, math.inf)
        return l0_distance(f, g)

    def norm0(self, f: Fn) -> float:
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
        _require(isinstance(p, (int, float)), "Lp exponent must be a number", where + ".Lp")
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

    def d_U(self, f: Fn, g: Fn) -> float:
        return self.u_kind.distance(f, g)

    def d_V(self, f: Fn, g: Fn) -> float:
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

    def d_W(self, f: Fn, g: Fn) -> float:
        return self.w_kind.distance(f, g)

    def d_Z(self, f: Fn, g: Fn) -> float:
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
    return Idempotent(vs[0].space.indicator(mask))


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
    chi = Idempotent(space.indicator(pos))
    if not pos.any():
        return FinitePartition((), chi), []
    if not faithful:
        inv = np.zeros(space.n)
        inv[pos] = 1.0 / u.values[pos]
        return FinitePartition((chi,), chi), [Fn(inv, space)]
    parts: list[Idempotent] = []
    inverses: list[Fn] = []
    for c in sorted(set(u.values[pos].tolist())):
        parts.append(Idempotent(space.indicator(u.values == c)))
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
    intersection of index sets.
    """
    gens = [g if isinstance(g, Idempotent) else Idempotent(g) for g in idempotents]
    if len(gens) == 0:
        raise InputError("stone_atoms needs at least one idempotent")
    space = gens[0].element.space
    member = np.stack([g.element.values > 0.5 for g in gens])
    # Signature -> atom index, in order of first occurrence.
    index: dict[tuple[bool, ...], int] = {}
    labels = np.array([index.setdefault(tuple(sig), len(index)) for sig in member.T.tolist()])
    signatures = list(index)
    atom_sets = [Idempotent(space.indicator(labels == k)) for k in range(len(signatures))]
    embedding = tuple(
        tuple(k for k, sig in enumerate(signatures) if sig[i])
        for i in range(len(gens))
    )
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


def check_fstructure_laws(
    structure: FiniteFStructure,
    samples: Iterable[tuple[Fn, Fn, Fn]],
    d_u: Callable[[Fn, Fn], float] | None = None,
    d_v: Callable[[Fn, Fn], float] | None = None,
) -> LawReport:
    """Check the metric axioms of an f-structure on sample triples.

    Per sample (u, v, w) this verifies, for the U and V distances:
    absolute-value invariance d(u,0) = d(|u|,0); translation invariance;
    monotonicity of d(·,0) on the positive cone; a computable local modulus
    for the continuity of multiplication U × V → V; and the glueing bound,
    which at finite scale reduces to subadditivity of d_V(·,0) over the
    disjoint pieces of a partition (so the δ–ε statement holds with δ = ε).
    Smallness of d_V(ε𝟏, 0) as ε ↓ 0 is checked once per run.

    ``d_u`` / ``d_v`` override the structure's distances; passing a
    deliberately corrupted distance turns the suite into a mutation harness.
    Failures are reported, not raised.
    """
    du = d_u if d_u is not None else structure.d_U
    dv = d_v if d_v is not None else structure.d_V
    space = structure.space
    const = _space_constant(space)
    p_v = structure.v_kind.p if structure.v_kind.name == "Lp" else 1.0

    status: dict[str, LawResult] = {
        law_id: LawResult(law_id, True, None) for law_id in FSTRUCT_LAW_IDS
    }

    def fail(law_id: str, k: int, lhs: float, rhs: float) -> None:
        if status[law_id].passed:
            status[law_id] = LawResult(
                law_id, False,
                {"sample": k, "atom": None, "lhs": float(lhs), "rhs": float(rhs)},
            )

    one = space.one_fn()
    zero = space.zero_fn()

    # Unit smallness: d_V(eps * 1, 0) decreases to ~0 along eps = 2^-k.
    seq = [dv(one.scale(2.0 ** -k), zero) for k in range(41)]
    ok_small = all(b <= a + _METRIC_TOL for a, b in zip(seq, seq[1:]))
    ok_small = ok_small and seq[-1] <= 1e-6 * max(1.0, seq[0])
    if not ok_small:
        fail("fstruct-unit-small", -1, seq[-1], 1e-6 * max(1.0, seq[0]))

    for k, (u, v, w) in enumerate(samples):
        scale = max(1.0, u.sup_abs, v.sup_abs, w.sup_abs)
        tol = _METRIC_TOL * scale

        # d(x, 0) = d(|x|, 0) for both distances.
        for dist in (du, dv):
            for x in (u, v):
                lhs, rhs = dist(x, zero), dist(abs_value(x), zero)
                if abs(lhs - rhs) > tol:
                    fail("fstruct-abs", k, lhs, rhs)

        # d(x + w, y + w) = d(x, y).
        for dist in (du, dv):
            lhs, rhs = dist(u + w, v + w), dist(u, v)
            if abs(lhs - rhs) > tol:
                fail("fstruct-translation", k, lhs, rhs)

        # 0 <= f <= g implies d(f, 0) <= d(g, 0).
        f = abs_value(u).meet(abs_value(v))
        g = abs_value(u)
        for dist in (du, dv):
            lhs, rhs = dist(f, zero), dist(g, zero)
            if lhs > rhs + tol:
                fail("fstruct-monotone", k, lhs, rhs)

        # Continuity of multiplication with an explicit local modulus:
        # d_V(a*b, a2*b2) <= L * (eta + eta^(1/p)) where eta is the product
        # distance between (a, b) and (a2, b2).  L combines the sup norms in
        # play with a space constant comparing the three distances.
        a, a2, b = u, v, w
        b2 = w + u.scale(0.5)
        eta = du(a, a2) + dv(b, b2)
        big = max(1.0, a.sup_abs, a2.sup_abs, b.sup_abs, b2.sup_abs, (a - a2).sup_abs)
        bound = const * big ** 2 * (eta + eta ** (1.0 / p_v))
        lhs = dv(a * b, a2 * b2)
        if lhs > bound + tol:
            fail("fstruct-mult-modulus", k, lhs, bound)

        # Glueing: over the disjoint blocks of a partition, the distance of
        # the glued element is at most the sum of the blockwise distances.
        mask = w.chi_pos()
        blocks = [mask, one - mask]
        pieces = [blocks[0] * abs_value(u), blocks[1] * abs_value(v)]
        glued = pieces[0].join(pieces[1])
        total = sum(dv(piece, zero) for piece in pieces)
        lhs = dv(glued, zero)
        if lhs > total + tol:
            fail("fstruct-glueing", k, lhs, total)

    return LawReport(tuple(status[law_id] for law_id in FSTRUCT_LAW_IDS))
