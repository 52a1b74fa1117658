"""Inner-product modules: projections, complements, Riesz duality.

A module is treated as Hilbert when every fiber norm is an inner-product
norm (l2, gram or image-l2), which construction checks fiber by fiber.  It
also computes, in closed form, the compatibility constant of the module
distance with the pairing distance and refuses the module when the
constant exceeds 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np

from ._kernels import _matvec_rows
from .errors import (
    DimensionMismatch,
    EmptySet,
    InputError,
    InvalidStructure,
    ModuleMismatch,
    NotHilbert,
)
from .homdual import _bidual_embed, dual_module
from .modules import (
    FiberModule,
    ModuleElement,
    Submodule,
    _as_gram,
    _finite_matrix,
    kernel_basis,
    pointwise_norm,
)
from .spaces import DualSystem, Fn, _require, _require_numbers


def _grams(module: FiberModule) -> tuple[np.ndarray, ...]:
    """The gram matrix of every fiber, read-only, built once per fiber group:
    the l2 fibers of a group share one identity, the others are views of
    the group's stack.  Groups come in the order of their first atoms, so
    the fiber refused is the first one, in atom order, that is not
    euclidean."""
    grams: list[np.ndarray | None] = [None] * module.space.n
    for g in module._groups:
        gram = _as_gram(g.proto, g.dim, g.mats)
        if gram is None:
            raise NotHilbert(f"fiber {g.atoms[0]} has norm {type(g.proto).__name__},"
                             " not an inner-product norm")
        gram = gram.view()
        gram.setflags(write=False)
        for a, m in zip(g.atoms.tolist(), [gram] * g.atoms.size if gram.ndim == 2 else gram):
            grams[a] = m
    return tuple(grams)


def parallelogram_defect(v: ModuleElement, w: ModuleElement) -> Fn:
    """|v+w|^2 + |v-w|^2 - 2|v|^2 - 2|w|^2 pointwise; zero iff inner-product fibers."""
    v._check(w)

    def sq(x: ModuleElement) -> np.ndarray:
        return pointwise_norm(x).values ** 2

    vals = sq(v + w) + sq(v - w) - 2.0 * sq(v) - 2.0 * sq(w)
    return Fn(vals, v.module.space)


def _compat_constant(module: FiberModule, system: DualSystem) -> float:
    """sup of d_V(f, 0)^2 / d_Z(f^2, 0) over the pointwise norms f, i.e. over
    f >= 0 on A, the atoms of positive dimension (0.0 when A is empty).

    By Hölder, with e = 2/p - 1/r (1/p, 1/r the reciprocal exponents of V
    and Z, 0 for Linf): mu(A)^e when e >= 0, attained at a constant, else
    (min over A of mu_a)^e, attained at the lightest atom's indicator.  For
    V = L0 (so Z = L0), the auxiliary mass of A by Cauchy-Schwarz; for Z = L0
    under any other V, infinity, as d_Z is bounded and d_V is not.
    """
    on = module._dim_array > 0
    if not on.any():
        return 0.0
    v_kind, z_kind = module.structure.v_kind, system.z_kind
    if v_kind.name == "L0":
        return float(module.space.mu_aux[on].sum())
    if z_kind.name == "L0":
        return math.inf
    mu = module.space.mu[on]
    e = 2.0 * v_kind._recip_p() - z_kind._recip_p()
    return float(mu.sum() if e >= 0.0 else mu.min()) ** e


@dataclass(frozen=True)
class HilbertModule:
    """A fiber module whose norms are all inner products, with its pairing system.

    ``compat_constant`` is the supremum of the squared module distance over
    the pairing distance of the squared pointwise norm, in closed form; the
    construction requires it to stay within 1 (up to 1e-9), matching the
    hypothesis under which the projection theorem is applied.  ``grams``
    holds the gram matrix of each fiber.
    """

    module: FiberModule
    system: DualSystem
    compat_constant: float

    def __init__(self, module: FiberModule, system: DualSystem | None = None):
        if system is None:
            system = DualSystem.default(module.structure)
        elif system.base != module.structure:
            raise ModuleMismatch("the pairing system is over another structure than the module")
        grams = _grams(module)  # refuses a fiber that is not euclidean
        constant = _compat_constant(module, system)
        if constant > 1.0 + 1e-9:
            raise NotHilbert(
                f"module distance is incompatible with the pairing distance"
                f" (constant {constant:.6g} > 1)"
            )
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "compat_constant", constant)
        object.__setattr__(self, "grams", grams)

    def dual(self) -> FiberModule:
        """M* = ``dual_module(module, system)``, built on the first call."""
        return self._dual

    @cached_property
    def _dual(self) -> FiberModule:
        return dual_module(self.module, self.system)


def pointwise_inner(v: ModuleElement, w: ModuleElement) -> Fn:
    """The fiber inner product v.w: x^T G y on each atom, one stacked
    product per fiber group."""
    v._check(w)
    out = np.zeros(v.module.space.n)
    for g in v.module._groups:
        gram = _as_gram(g.proto, g.dim, g.mats)
        if gram is None:
            raise NotHilbert(f"fiber {g.atoms[0]} is not an inner-product norm")
        x = v.flat[g.cols]
        out[g.atoms] = np.add.reduce(x * _matvec_rows(gram, w.flat[g.cols]), axis=1)
    return Fn(out, v.module.space)


def cauchy_schwarz_check(v: ModuleElement, w: ModuleElement) -> tuple[bool, Fn]:
    """(all slacks nonnegative, the slack |v||w| - |v.w| as a function)."""
    inner = pointwise_inner(v, w)
    slack = pointwise_norm(v).values * pointwise_norm(w).values - np.abs(inner.values)
    scale = max(1.0, float(np.abs(slack).max(initial=0.0)),
                float(np.abs(inner.values).max(initial=0.0)))
    return bool(np.all(slack >= -1e-12 * scale)), Fn(slack, v.module.space)


# --------------------------------------------------------------------------
# Convex fiber sets and projections
# --------------------------------------------------------------------------

class FiberSet:
    """One closed convex set inside a single fiber."""

    def project(self, v: np.ndarray, gram: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def fits(self, dim: int) -> bool:
        """Whether the set lies in a fiber of this dimension."""
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def from_json(obj: Any, where: str = "$") -> "FiberSet":
        _require(isinstance(obj, dict) and "kind" in obj, "fiber set needs a 'kind'", where)
        kind = obj["kind"]
        try:
            if kind == "subspace":
                _require("basis" in obj, "subspace needs 'basis'", where)
                return SubspaceSet(_finite_matrix(obj["basis"], "subspace basis entries",
                                                  where + ".basis"))
            if kind == "box":
                _require("lo" in obj and "hi" in obj, "box needs 'lo' and 'hi'", where)
                return BoxSet(_box_bound(obj["lo"], -math.inf, where + ".lo"),
                              _box_bound(obj["hi"], math.inf, where + ".hi"))
            if kind == "ball":
                _require("center" in obj and "radius" in obj,
                         "ball needs 'center' and 'radius'", where)
                center = _finite_matrix(obj["center"], "ball center entries",
                                        where + ".center")
                radius = _finite_matrix(obj["radius"], "ball radius", where + ".radius")
                return BallSet(center, float(radius))
            if kind == "intersection":
                _require(isinstance(obj.get("parts"), list) and obj["parts"],
                         "intersection needs a nonempty 'parts' list", where)
                return IntersectionSet(tuple(
                    FiberSet.from_json(p, f"{where}.parts[{i}]")
                    for i, p in enumerate(obj["parts"])
                ))
        except EmptySet as exc:
            raise InputError(exc.message, path=where) from exc
        raise InputError(f"unknown fiber set kind {kind!r}", path=where)


def _box_bound(raw: Any, unbounded: float, where: str) -> np.ndarray:
    """A JSON box bound as floats: each entry a finite number, or the open side's
    infinity str(unbounded) ("-inf" for lo, "inf" for hi); others are refused at their entry."""
    if isinstance(raw, list):
        raw = [unbounded if x == str(unbounded) else x for x in raw]
        _require_numbers(raw, f"box bound entries must be numbers or {str(unbounded)!r}", where)
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError("box bound must be a vector of numbers", path=where) from exc
    _finite_matrix(np.where(arr == unbounded, 0.0, arr), "box bound entries", where)
    return arr


@dataclass(frozen=True)
class SubspaceSet(FiberSet):
    """span of the basis rows; the empty basis is the zero subspace."""

    basis: np.ndarray

    def __post_init__(self):
        b = np.array(self.basis, dtype=float)
        if b.ndim != 2:
            raise InvalidStructure("subspace basis must be a matrix of row vectors")
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    def project(self, v: np.ndarray, gram: np.ndarray) -> np.ndarray:
        if self.basis.shape[0] == 0:
            return np.zeros_like(v)
        # Rows and v scaled by powers of two, so b @ gram @ b.T and b @ gram @ v
        # cannot overflow; the projection is linear, so scaling back is exact.
        _, exp = np.frexp(np.abs(self.basis).max(axis=1, initial=0.0))
        b = np.ldexp(self.basis, -exp[:, None])
        _, e = np.frexp(np.abs(v).max(initial=0.0))
        t = np.linalg.lstsq(b @ gram @ b.T, b @ gram @ np.ldexp(v, -e), rcond=None)[0]
        return np.ldexp(b.T @ t, e)

    def fits(self, dim: int) -> bool:
        return self.basis.shape[1] == dim

    def to_json(self) -> dict:
        return {"kind": "subspace", "basis": [[float(x) for x in r] for r in self.basis]}


@dataclass(frozen=True)
class BoxSet(FiberSet):
    """Coordinatewise bounds lo <= x <= hi (entries may be +-inf)."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.array(self.lo, dtype=float)
        hi = np.array(self.hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise InvalidStructure("box bounds must be vectors of equal length")
        if np.any(lo > hi):
            raise EmptySet("box has lo > hi in some coordinate")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def project(self, v: np.ndarray, gram: np.ndarray) -> np.ndarray:
        clamped = np.clip(v, self.lo, self.hi)
        if np.count_nonzero(gram) == np.count_nonzero(np.diagonal(gram)):
            return clamped   # a diagonal gram: the clamp is nearest coordinate by coordinate
        # Projected Gauss-Seidel on the quadratic (x-v)^T G (x-v), which
        # converges for positive-definite G with box constraints.
        x = clamped.copy()
        diag = np.diagonal(gram)
        for _ in range(100_000):
            delta = 0.0
            for i in range(x.size):
                resid = gram[i] @ (x - v) - diag[i] * (x[i] - v[i])
                xi = np.clip(v[i] - resid / diag[i], self.lo[i], self.hi[i])
                delta = max(delta, abs(xi - x[i]))
                x[i] = xi
            if delta <= 1e-13 * max(1.0, float(np.abs(x).max())):
                break
        return x

    def fits(self, dim: int) -> bool:
        return self.lo.size == dim

    def to_json(self) -> dict:
        def enc(a):
            return [("inf" if x == math.inf else "-inf" if x == -math.inf else float(x))
                    for x in a]
        return {"kind": "box", "lo": enc(self.lo), "hi": enc(self.hi)}


@dataclass(frozen=True)
class BallSet(FiberSet):
    """The gram-norm ball of the given radius around the center."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.array(self.center, dtype=float)
        c.setflags(write=False)
        object.__setattr__(self, "center", c)
        if self.radius < 0.0:
            raise EmptySet("ball radius is negative")

    def project(self, v: np.ndarray, gram: np.ndarray) -> np.ndarray:
        d = v - self.center
        norm = math.sqrt(max(0.0, float(d @ gram @ d)))
        if norm <= self.radius:
            return v.copy()
        return self.center + (self.radius / norm) * d

    def fits(self, dim: int) -> bool:
        return self.center.shape == (dim,)

    def to_json(self) -> dict:
        return {"kind": "ball", "center": [float(x) for x in self.center],
                "radius": float(self.radius)}


@dataclass(frozen=True)
class IntersectionSet(FiberSet):
    """Finite intersection, projected by Dykstra's alternating algorithm."""

    parts: tuple[FiberSet, ...]

    def project(self, v: np.ndarray, gram: np.ndarray) -> np.ndarray:
        x = v.copy()
        residues = [np.zeros_like(v) for _ in self.parts]
        scale = max(1.0, float(np.abs(v).max(initial=0.0)))
        for _ in range(10_000):
            moved = 0.0
            for i, part in enumerate(self.parts):
                y = part.project(x + residues[i], gram)
                residues[i] = x + residues[i] - y
                moved = max(moved, float(np.abs(y - x).max(initial=0.0)))
                x = y
            if moved <= 1e-10 * scale:
                return x
        raise EmptySet(
            "alternating projections did not settle; the intersection is empty"
            " or has empty interior beyond tolerance"
        )

    def fits(self, dim: int) -> bool:
        return all(part.fits(dim) for part in self.parts)

    def to_json(self) -> dict:
        return {"kind": "intersection", "parts": [p.to_json() for p in self.parts]}


@dataclass(frozen=True)
class ConvexSet:
    """A fiberwise convex set (automatically closed under glueing)."""

    fibers: tuple[FiberSet, ...]

    def to_json(self) -> dict:
        return {"fibers": [f.to_json() for f in self.fibers]}

    @classmethod
    def from_json(cls, obj: Any, where: str = "$") -> "ConvexSet":
        _require(isinstance(obj, dict) and isinstance(obj.get("fibers"), list),
                 "convex set must be {\"fibers\": [...]}", where)
        return cls(tuple(FiberSet.from_json(f, f"{where}.fibers[{i}]")
                         for i, f in enumerate(obj["fibers"])))


def project_convex(v: ModuleElement, c: ConvexSet) -> ModuleElement:
    """The fiberwise nearest point of c in the inner-product norms.

    Existence and uniqueness per fiber are classical; |v - P(v)| realizes
    the pointwise distance to the set, which the tests compare against
    dense sampling of the set itself.
    """
    module = v.module
    if len(c.fibers) != module.space.n:
        raise ModuleMismatch("convex set needs one fiber set per atom")
    grams = _grams(module)
    for a, (part, dim) in enumerate(zip(c.fibers, module.dims)):
        if not part.fits(dim):
            raise DimensionMismatch(f"fiber set {a} does not lie in the {dim}-dim fiber of atom"
                                    f" {module.space.atoms[a]!r}", path=f"$.fibers[{a}]")
    return ModuleElement([p.project(x, g) for x, p, g in zip(v.vectors, c.fibers, grams)], module)


def orthogonal_complement(n: Submodule) -> Submodule:
    """Per atom, the gram-orthogonal complement of the span."""
    bases = [kernel_basis(b @ gram) for b, gram in zip(n.bases, _grams(n.module))]
    return Submodule(n.module, tuple(bases))


# --------------------------------------------------------------------------
# Riesz representation and reflexivity
# --------------------------------------------------------------------------

def riesz_map(h: HilbertModule, w: ModuleElement) -> ModuleElement:
    """The functional v -> v.w, as an element of the dual module.

    Per atom the representing row is G_a w_a, and the dual fiber norm
    (gram inverse) makes the map an exact isometry.
    """
    if not h.module.same_module(w.module):
        raise ModuleMismatch("element does not belong to the Hilbert module")
    dual = h.dual()
    return ModuleElement([g @ vec for g, vec in zip(h.grams, w.vectors)], dual)


def riesz_inverse(h: HilbertModule, eta: ModuleElement) -> ModuleElement:
    """The unique w with eta = (v -> v.w): per atom solve G_a w_a = eta_a."""
    if not h.dual().same_module(eta.module):
        raise ModuleMismatch("element does not belong to the dual of the Hilbert module")
    vecs = []
    for g, vec in zip(h.grams, eta.vectors):
        vecs.append(np.linalg.solve(g, vec) if vec.size else vec.copy())
    return ModuleElement(vecs, h.module)


def hilbert_reflexivity_check(h: HilbertModule) -> bool:
    """The bidual embedding equals the composition of the two Riesz maps.

    On atom a, J is the matrix J_a of ``bidual_embed`` and the composite
    v -> G*_a G_a v, where G*_a is the gram of the dual module's fiber.  Per
    fiber group the matrices are sliced as a stack from J's flat vector, and
    one product and one max-abs residual against 1e-10 compare the two.
    The dual module is built once, for J and for the grams G*.
    """
    dual = h.dual()
    j = _bidual_embed(h.module, dual, h.system)
    grams_star = _grams(dual)
    for g in h.module._groups:
        j_stack = j._stack(g.atoms)
        g_star = np.stack([grams_star[a] for a in g.atoms])
        residual = j_stack - g_star @ _as_gram(g.proto, g.dim, g.mats)
        if np.max(np.abs(residual), initial=0.0) > 1e-10:
            return False
    return True
