"""Inner-product modules: projections, complements, Riesz duality.

A module is treated as Hilbert when every fiber norm is an inner-product
norm.  Construction validates this structurally and by sampling (the
pointwise parallelogram rule), and checks the compatibility of the module
distance with the pairing distance, recording the best constant seen as a
diagnostic on the instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .errors import EmptySet, InputError, InvalidStructure, ModuleMismatch, NotHilbert
from .homdual import bidual_embed, dual_module
from .modules import (
    FiberModule,
    ModuleElement,
    Submodule,
    _as_gram,
    _finite_matrix,
    kernel_basis,
    pointwise_norm,
)
from .spaces import DualSystem, Fn, _require

_HILBERT_SEED = 20240819


def _gram_of(module: FiberModule, atom: int) -> np.ndarray:
    fiber = module.fibers[atom]
    g = _as_gram(fiber.norm, fiber.dim)
    if g is None:
        raise NotHilbert(
            f"fiber {atom} has norm {type(fiber.norm).__name__}, not an inner-product norm"
        )
    return g


def _grams(module: FiberModule) -> tuple[np.ndarray, ...]:
    return tuple(_gram_of(module, a) for a in range(module.space.n))


def parallelogram_defect(v: ModuleElement, w: ModuleElement) -> Fn:
    """|v+w|^2 + |v-w|^2 - 2|v|^2 - 2|w|^2 pointwise; zero iff inner-product fibers."""
    v._check(w)

    def sq(x: ModuleElement) -> np.ndarray:
        return pointwise_norm(x).values ** 2

    vals = sq(v + w) + sq(v - w) - 2.0 * sq(v) - 2.0 * sq(w)
    return Fn(vals, v.module.space)


@dataclass(frozen=True)
class HilbertModule:
    """A fiber module whose norms are all inner products, with its pairing system.

    ``compat_constant`` is the largest sampled ratio of the squared module
    distance to the pairing distance of the squared pointwise norm; the
    construction requires it to stay within 1 (up to 1e-9), matching the
    hypothesis under which the projection theorem is applied.
    """

    module: FiberModule
    system: DualSystem
    compat_constant: float

    def __init__(self, module: FiberModule, system: DualSystem | None = None,
                 samples: int = 32):
        if system is None:
            system = DualSystem.default(module.structure)
        grams = _grams(module)
        rng = np.random.default_rng(_HILBERT_SEED)
        worst = 0.0
        zero = module.space.zero_fn()
        for _ in range(samples):
            v = ModuleElement([rng.standard_normal(f.dim) for f in module.fibers], module)
            w = ModuleElement([rng.standard_normal(f.dim) for f in module.fibers], module)
            defect = parallelogram_defect(v, w)
            nv = pointwise_norm(v)
            scale = max(1.0, float(nv.sup_abs), float(pointwise_norm(w).sup_abs))
            if defect.deviation(zero) > 1e-9 * scale * scale:
                raise NotHilbert("sampled pointwise parallelogram rule fails")
            dist_sq = module.structure.d_V(nv, zero) ** 2
            pair = system.d_Z(Fn(nv.values ** 2, module.space), zero)
            if pair > 0.0:
                worst = max(worst, dist_sq / pair)
        if worst > 1.0 + 1e-9:
            raise NotHilbert(
                f"module distance is incompatible with the pairing distance"
                f" (sampled constant {worst:.6g} > 1)"
            )
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "compat_constant", worst)
        object.__setattr__(self, "_gram_cache", grams)

    @property
    def grams(self) -> tuple[np.ndarray, ...]:
        return self._gram_cache

    def dual(self) -> FiberModule:
        return dual_module(self.module, self.system)


def pointwise_inner(v: ModuleElement, w: ModuleElement) -> Fn:
    """The fiber inner product v.w, cross-checked against polarization.

    Evaluates the gram form directly and the polarization combination
    (|v+w|^2 - |v-w|^2)/4 and requires them to agree to 1e-12 relative,
    so a non-inner-product fiber smuggled past the type is still caught.
    """
    v._check(w)
    module = v.module
    direct = np.array([
        float(a @ _gram_of(module, i) @ b)
        for i, (a, b) in enumerate(zip(v.vectors, w.vectors))
    ])
    nplus = pointwise_norm(v + w).values
    nminus = pointwise_norm(v - w).values
    polar = 0.25 * (nplus ** 2 - nminus ** 2)
    scale = max(1.0, float(np.max(nplus ** 2)), float(np.max(nminus ** 2)))
    if np.any(np.abs(direct - polar) > 1e-12 * scale):
        raise NotHilbert("polarization disagrees with the fiber inner product")
    return Fn(direct, module.space)


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
    """A JSON box bound as floats: each entry finite, or the infinity on the
    bound's open side (-inf for lo, inf for hi); others are refused at their entry."""
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
        b = self.basis
        if b.shape[0] == 0:
            return np.zeros_like(v)
        t = np.linalg.lstsq(b @ gram @ b.T, b @ gram @ v, rcond=None)[0]
        return b.T @ t

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
        if np.allclose(gram, np.diag(np.diagonal(gram))):
            return clamped
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
    out = []
    for a, (vec, part) in enumerate(zip(v.vectors, c.fibers)):
        out.append(part.project(vec, _gram_of(module, a)))
    return ModuleElement(out, module)


def orthogonal_complement(n: Submodule) -> Submodule:
    """Per atom, the gram-orthogonal complement of the span."""
    module = n.module
    bases = []
    for a, b in enumerate(n.bases):
        gram = _gram_of(module, a)
        if b.shape[0] == 0:
            bases.append(np.eye(module.fibers[a].dim))
        else:
            bases.append(kernel_basis(b @ gram))
    return Submodule(module, tuple(bases))


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


def hilbert_reflexivity_check(h: HilbertModule, samples: int = 1000,
                              tol: float = 1e-10) -> bool:
    """The bidual embedding equals the composition of the two Riesz maps.

    Both are evaluated independently on seeded samples: J through identity
    coordinates in the bidual, the composition through one gram multiply and
    one gram-inverse multiply in the dual's dual.
    """
    module = h.module
    j = bidual_embed(module, h.system)
    dual = h.dual()
    inverted = DualSystem(dual.structure, h.system.base.v_kind, h.system.z_kind)
    h_star = HilbertModule(dual, inverted)
    rng = np.random.default_rng(_HILBERT_SEED + 1)
    for _ in range(samples):
        v = ModuleElement([rng.standard_normal(f.dim) for f in module.fibers], module)
        through_j = j.apply(v)
        through_riesz = riesz_map(h_star, riesz_map(h, v))
        scale = max(1.0, float(pointwise_norm(v).sup_abs))
        for x, y in zip(through_j.vectors, through_riesz.vectors):
            if np.any(np.abs(x - y) > tol * scale):
                return False
    return True
