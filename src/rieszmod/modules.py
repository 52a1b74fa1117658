"""Fiberwise normed modules over a finite f-structure.

A module is one finite-dimensional normed space per atom (a fiber); an
element is one vector per atom.  The pointwise norm collects the fiber norms
into a function on the space, and every module-level notion (distance,
glueing, quotients, dimensional decomposition) reduces to a per-fiber
computation plus the behaviour of the structure's V-distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InputError,
    InvalidExponent,
    InvalidStructure,
    ModuleMismatch,
    NotAPartition,
)
from .order import FinitePartition, Idempotent
from .spaces import FiniteFStructure, Fn, _require

#: Relative singular-value cutoff for every rank decision in the package.
RANK_RTOL = 1e-9


def matrix_rank(m: np.ndarray) -> int:
    """Rank with the package-wide threshold 1e-9 * (largest sigma or 1)."""
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > RANK_RTOL * max(float(s[0]), 1.0)))


def row_space_basis(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the row space, as rows (possibly 0 rows)."""
    if m.size == 0:
        return np.zeros((0, m.shape[1] if m.ndim == 2 else 0))
    _, s, vt = np.linalg.svd(m, full_matrices=False)
    r = int(np.sum(s > RANK_RTOL * max(float(s[0]), 1.0)))
    return vt[:r]


def kernel_basis(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space, as rows (possibly 0 rows)."""
    n = m.shape[1]
    if m.size == 0 or not np.any(m):
        return np.eye(n)
    _, s, vt = np.linalg.svd(m)
    r = int(np.sum(s > RANK_RTOL * max(float(s[0]), 1.0)))
    return vt[r:]


# --------------------------------------------------------------------------
# Fiber norms
# --------------------------------------------------------------------------

class FiberNorm:
    """A norm on a finite-dimensional fiber."""

    def norm(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def check_dim(self, dim: int) -> None:
        pass

    def to_json(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def from_json(obj: Any, where: str = "$") -> "FiberNorm":
        _require(isinstance(obj, dict) and len(obj) == 1,
                 "fiber norm must be {\"lp\": p}, {\"gram\": [[...]]}, or"
                 " {\"image_lp\": {\"matrix\": [[...]], \"p\": p}}", where)
        key = next(iter(obj))
        if key == "lp":
            p = obj["lp"]
            if p == "inf":
                return LpNorm(math.inf)
            _require(isinstance(p, (int, float)), "lp exponent must be a number or \"inf\"",
                     where + ".lp")
            try:
                return LpNorm(float(p))
            except InvalidExponent as exc:
                raise InputError(exc.message, path=where + ".lp") from exc
        if key == "gram":
            g = obj["gram"]
            try:
                return GramNorm(np.asarray(g, dtype=float))
            except (InvalidStructure, ValueError) as exc:
                raise InputError(str(getattr(exc, "message", exc)), path=where + ".gram") from exc
        if key == "image_lp":
            inner = obj["image_lp"]
            _require(isinstance(inner, dict) and "matrix" in inner and "p" in inner,
                     "image_lp needs 'matrix' and 'p'", where + ".image_lp")
            p = math.inf if inner["p"] == "inf" else float(inner["p"])
            return ImageLpNorm(np.asarray(inner["matrix"], dtype=float), p)
        raise InputError(f"unknown fiber norm kind {key!r}", path=where)


@dataclass(frozen=True)
class LpNorm(FiberNorm):
    p: float

    def __post_init__(self):
        if math.isnan(self.p) or self.p < 1.0:
            raise InvalidExponent(f"fiber exponent must lie in [1, inf], got {self.p!r}")

    def norm(self, x: np.ndarray) -> float:
        if x.size == 0:
            return 0.0
        a = np.abs(x)
        if self.p == math.inf:
            return float(a.max())
        if self.p == 1.0:
            return float(a.sum())
        return float(np.sum(a ** self.p) ** (1.0 / self.p))

    def to_json(self) -> dict:
        return {"lp": "inf" if self.p == math.inf else float(self.p)}


@dataclass(frozen=True)
class GramNorm(FiberNorm):
    """Inner-product norm sqrt(x^T G x) for a symmetric positive-definite G."""

    gram: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gram, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise InvalidStructure("gram matrix must be square")
        if g.size and not np.allclose(g, g.T, atol=1e-12 * max(1.0, float(np.abs(g).max()))):
            raise InvalidStructure("gram matrix must be symmetric")
        if g.size:
            eig = np.linalg.eigvalsh(g)
            if eig[0] <= RANK_RTOL * max(1.0, float(eig[-1])):
                raise InvalidStructure("gram matrix must be positive definite")
        g = g.copy()
        g.setflags(write=False)
        object.__setattr__(self, "gram", g)

    def norm(self, x: np.ndarray) -> float:
        if x.size == 0:
            return 0.0
        return float(math.sqrt(max(0.0, float(x @ self.gram @ x))))

    def check_dim(self, dim: int) -> None:
        if self.gram.shape != (dim, dim):
            raise DimensionMismatch(
                f"gram matrix is {self.gram.shape}, fiber dimension is {dim}"
            )

    def to_json(self) -> dict:
        return {"gram": [[float(x) for x in row] for row in self.gram]}

    def __eq__(self, other):
        return isinstance(other, GramNorm) and np.array_equal(self.gram, other.gram)

    def __hash__(self):
        return hash(self.gram.tobytes())


@dataclass(frozen=True)
class ImageLpNorm(FiberNorm):
    """Seminorm-free composite norm x -> ||A x||_p, used by generated modules.

    Only valid when A is injective on the fiber (the generated-module
    construction guarantees this by building fibers inside the row space).
    """

    matrix: np.ndarray
    p: float

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=float).copy()
        a.setflags(write=False)
        object.__setattr__(self, "matrix", a)
        if math.isnan(self.p) or self.p < 1.0:
            raise InvalidExponent(f"fiber exponent must lie in [1, inf], got {self.p!r}")

    def norm(self, x: np.ndarray) -> float:
        if x.size == 0:
            return 0.0
        return LpNorm(self.p).norm(self.matrix @ x)

    def check_dim(self, dim: int) -> None:
        if self.matrix.ndim != 2 or self.matrix.shape[1] != dim:
            raise DimensionMismatch(
                f"image matrix is {self.matrix.shape}, fiber dimension is {dim}"
            )

    def to_json(self) -> dict:
        return {
            "image_lp": {
                "matrix": [[float(x) for x in row] for row in self.matrix],
                "p": "inf" if self.p == math.inf else float(self.p),
            }
        }

    def __eq__(self, other):
        return (isinstance(other, ImageLpNorm) and self.p == other.p
                and np.array_equal(self.matrix, other.matrix))

    def __hash__(self):
        return hash((self.p, self.matrix.tobytes()))


@dataclass(frozen=True)
class Fiber:
    dim: int
    norm: FiberNorm

    def __post_init__(self):
        if self.dim < 0:
            raise InvalidStructure("fiber dimension must be nonnegative")
        self.norm.check_dim(self.dim)

    def to_json(self) -> dict:
        return {"dim": self.dim, "norm": self.norm.to_json()}


# --------------------------------------------------------------------------
# Modules and elements
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FiberModule:
    structure: FiniteFStructure
    fibers: tuple[Fiber, ...]

    def __post_init__(self):
        if len(self.fibers) != self.structure.space.n:
            raise InvalidStructure("one fiber per atom is required")

    @property
    def space(self):
        return self.structure.space

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.dim for f in self.fibers)

    def element(self, vectors: Sequence[Sequence[float]]) -> "ModuleElement":
        return ModuleElement(vectors, self)

    def zero_element(self) -> "ModuleElement":
        return ModuleElement([np.zeros(f.dim) for f in self.fibers], self)

    def same_module(self, other: "FiberModule") -> bool:
        return self is other or self == other

    def to_json(self) -> dict:
        return {
            "structure": self.structure.to_json(),
            "fibers": [f.to_json() for f in self.fibers],
        }

    @classmethod
    def from_json(cls, obj: Any, where: str = "$") -> "FiberModule":
        _require(isinstance(obj, dict), "module must be an object", where)
        for key in ("structure", "fibers"):
            _require(key in obj, f"module is missing {key!r}", f"{where}.{key}")
        structure = FiniteFStructure.from_json(obj["structure"], where + ".structure")
        raw = obj["fibers"]
        _require(isinstance(raw, list), "fibers must be a list", where + ".fibers")
        fibers = []
        for i, f in enumerate(raw):
            here = f"{where}.fibers[{i}]"
            _require(isinstance(f, dict) and "dim" in f and "norm" in f,
                     "each fiber needs 'dim' and 'norm'", here)
            dim = f["dim"]
            # JSON integers may be written as 2.0; 2.7 and true are not dims.
            integral = isinstance(dim, int) or isinstance(dim, float) and dim.is_integer()
            _require(integral and not isinstance(dim, bool),
                     "fiber dim must be an integer", here + ".dim")
            norm = FiberNorm.from_json(f["norm"], here + ".norm")
            try:
                fibers.append(Fiber(int(dim), norm))
            except (InvalidStructure, DimensionMismatch) as exc:
                raise InputError(exc.message, path=here) from exc
        try:
            return cls(structure, tuple(fibers))
        except InvalidStructure as exc:
            raise InputError(exc.message, path=where + ".fibers") from exc


class ModuleElement:
    """One fiber vector per atom."""

    __slots__ = ("vectors", "module")

    def __init__(self, vectors: Sequence[Sequence[float] | np.ndarray], module: FiberModule):
        if len(vectors) != len(module.fibers):
            raise DimensionMismatch("one vector per atom is required")
        out = []
        for vec, fiber in zip(vectors, module.fibers):
            arr = np.array(vec, dtype=float).reshape(-1)
            if arr.shape != (fiber.dim,):
                raise DimensionMismatch(
                    f"fiber vector has length {arr.shape[0]}, fiber dimension is {fiber.dim}"
                )
            arr.setflags(write=False)
            out.append(arr)
        self.vectors = tuple(out)
        self.module = module

    def _check(self, other: "ModuleElement") -> None:
        if not isinstance(other, ModuleElement):
            raise TypeError(f"expected ModuleElement, got {type(other).__name__}")
        if not self.module.same_module(other.module):
            raise ModuleMismatch("elements live in different modules")

    def __repr__(self) -> str:
        return f"ModuleElement({[v.tolist() for v in self.vectors]!r})"

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        if not isinstance(other, ModuleElement):
            return NotImplemented
        self._check(other)
        return ModuleElement([a + b for a, b in zip(self.vectors, other.vectors)], self.module)

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        if not isinstance(other, ModuleElement):
            return NotImplemented
        self._check(other)
        return ModuleElement([a - b for a, b in zip(self.vectors, other.vectors)], self.module)

    def __neg__(self) -> "ModuleElement":
        return ModuleElement([-a for a in self.vectors], self.module)

    def scale(self, lam: float) -> "ModuleElement":
        return ModuleElement([a * float(lam) for a in self.vectors], self.module)

    def __rmul__(self, u: Fn) -> "ModuleElement":
        """Module action u . v: per atom, the scalar u(atom) times the vector."""
        if not isinstance(u, Fn):
            return NotImplemented
        if u.space != self.module.space:
            raise ModuleMismatch("multiplier lives on a different measure space")
        return ModuleElement(
            [u.values[i] * vec for i, vec in enumerate(self.vectors)], self.module
        )

    def pointwise_norm(self) -> Fn:
        return pointwise_norm(self)

    def is_zero(self) -> bool:
        return all(not vec.any() for vec in self.vectors)

    def to_json(self) -> dict:
        return {"vectors": [[float(x) for x in vec] for vec in self.vectors]}

    @classmethod
    def from_json(cls, obj: Any, module: FiberModule, where: str = "$") -> "ModuleElement":
        _require(isinstance(obj, dict) and "vectors" in obj,
                 "element must be {\"vectors\": [[...], ...]}", where)
        raw = obj["vectors"]
        _require(isinstance(raw, list) and all(isinstance(v, list) for v in raw),
                 "vectors must be a list of lists", where + ".vectors")
        try:
            return cls(raw, module)
        except DimensionMismatch as exc:
            raise InputError(exc.message, path=where + ".vectors") from exc


def pointwise_norm(v: ModuleElement) -> Fn:
    """The fiber norm of each fiber vector, as a function on the space."""
    vals = [f.norm.norm(vec) for f, vec in zip(v.module.fibers, v.vectors)]
    return Fn(vals, v.module.space)


def module_distance(v: ModuleElement, w: ModuleElement) -> float:
    """d_V applied to the pointwise norm of the difference."""
    v._check(w)
    diff = pointwise_norm(v - w)
    return v.module.structure.d_V(diff, diff.zero())


def zero_indicator(v: ModuleElement) -> Idempotent:
    """Indicator of the atoms where the fiber vector vanishes."""
    mask = np.array([not vec.any() for vec in v.vectors])
    return Idempotent(v.module.space.indicator(mask))


@dataclass(frozen=True)
class AdmissibleFamily:
    """A partition of the unit with one element per part, ready to glue."""

    partition: FinitePartition
    elements: tuple[ModuleElement, ...]

    def __post_init__(self):
        one = self.partition.of.element.one()
        if not self.partition.of.element.equals(one):
            raise NotAPartition("glueing requires a partition of the unit")
        if len(self.elements) != len(self.partition.parts):
            raise NotAPartition("one element per partition part is required")
        for el in self.elements[1:]:
            self.elements[0]._check(el)

    def order_bound(self) -> Fn:
        """The sup of the pointwise norms of the restricted pieces (finite,
        so order-boundedness always holds; returned for inspection)."""
        pieces = [
            pointwise_norm(part.element * el)
            for part, el in zip(self.partition.parts, self.elements)
        ]
        out = pieces[0]
        for piece in pieces[1:]:
            out = out.join(piece)
        return out


def glue(family: AdmissibleFamily) -> ModuleElement:
    """The unique element v with u_n . v = u_n . v_n for every part u_n."""
    acc = family.elements[0].module.zero_element()
    for part, el in zip(family.partition.parts, family.elements):
        acc = acc + part.element * el
    return acc


# --------------------------------------------------------------------------
# Submodules and quotient norms
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Submodule:
    """A fiberwise-linear subspace: per atom, basis vectors as matrix rows."""

    module: FiberModule
    bases: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.bases) != len(self.module.fibers):
            raise DimensionMismatch("one basis per atom is required")
        fixed = []
        for b, fiber in zip(self.bases, self.module.fibers):
            arr = np.array(b, dtype=float)
            if arr.size == 0:
                arr = arr.reshape(0, fiber.dim)
            if arr.ndim != 2 or arr.shape[1] != fiber.dim:
                raise DimensionMismatch(
                    f"basis shape {arr.shape} does not match fiber dimension {fiber.dim}"
                )
            arr.setflags(write=False)
            fixed.append(arr)
        object.__setattr__(self, "bases", tuple(fixed))

    def contains(self, v: ModuleElement, tol: float = 1e-9) -> bool:
        for vec, b in zip(v.vectors, self.bases):
            if b.shape[0] == 0:
                if np.any(np.abs(vec) > tol):
                    return False
                continue
            coeff, *_ = np.linalg.lstsq(b.T, vec, rcond=None)
            if np.any(np.abs(b.T @ coeff - vec) > tol * max(1.0, float(np.abs(vec).max()))):
                return False
        return True


def _golden_section(g, lo: float, hi: float, xtol: float) -> float:
    """Argmin of a convex g on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    gc, gd = g(c), g(d)
    while b - a > xtol:
        if gc < gd:
            b, d, gd = d, c, gc
            c = b - invphi * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + invphi * (b - a)
            gd = g(d)
    return 0.5 * (a + b)


def _min_norm_over_span(norm: FiberNorm, v: np.ndarray, basis: np.ndarray) -> float:
    """min over t of norm(v + basis^T t), by line searches along convex cuts.

    Coordinate descent with golden-section line searches; to avoid the
    classical stalls of coordinate descent at nonsmooth points (l1 and
    l-infinity fibers), each sweep also searches along the offset toward the
    least-squares minimizer and along the all-ones direction.  Convergence
    tolerance 1e-10, at most 10^4 line searches; dims <= 3 are cross-checked
    against brute-force grids in the test suite.
    """
    k = basis.shape[0]
    if k == 0:
        return norm.norm(v)
    if isinstance(norm, GramNorm):
        g = norm.gram
        a = basis @ g @ basis.T
        rhs = -(basis @ g @ v)
        t = np.linalg.lstsq(a, rhs, rcond=None)[0]
        return norm.norm(v + basis.T @ t)

    t = np.zeros(k)
    t_ls = np.linalg.lstsq(basis.T, -v, rcond=None)[0]

    def phi(tt: np.ndarray) -> float:
        return norm.norm(v + basis.T @ tt)

    best = phi(t)
    searches = 0
    directions = [np.eye(k)[j] for j in range(k)] + [np.ones(k)]
    while searches < 10_000:
        prev = best
        for d in directions + [t_ls - t]:
            nd = float(np.linalg.norm(basis.T @ d))
            if nd == 0.0:
                continue
            radius = 2.0 * best / nd + 1.0

            def g1(s: float) -> float:
                return phi(t + s * d)

            s_star = _golden_section(g1, -radius, radius, 1e-12 * max(1.0, radius))
            searches += 1
            if g1(s_star) < best:
                t = t + s_star * d
                best = phi(t)
        if prev - best <= 1e-10 * max(1.0, prev):
            break
    return best


def quotient_norm(v: ModuleElement, n: Submodule) -> Fn:
    """Per atom, the fiber-norm distance from the fiber vector to the subspace.

    This is the pointwise norm of the class of v in the quotient module.
    """
    if not v.module.same_module(n.module):
        raise DimensionMismatch("element and submodule live in different modules")
    vals = [
        _min_norm_over_span(fiber.norm, vec, b)
        for fiber, vec, b in zip(v.module.fibers, v.vectors, n.bases)
    ]
    return Fn(vals, v.module.space)


# --------------------------------------------------------------------------
# Dimension theory
# --------------------------------------------------------------------------

def dimensional_decomposition(m: FiberModule) -> list[tuple[int, Idempotent]]:
    """Partition the unit by local dimension, ascending, nonempty parts only.

    On each returned part the module admits a local basis of exactly the
    stated size; at finite scale the local dimension at an atom is the fiber
    dimension, and no infinite-dimensional part can occur.
    """
    dims = np.array(m.dims)
    out = []
    for d in sorted(set(m.dims)):
        out.append((int(d), Idempotent(m.space.indicator(dims == d))))
    return out


def independence_check(vs: Sequence[ModuleElement], u: Idempotent) -> bool:
    """True iff the family is linearly independent on every atom inside u."""
    if len(vs) == 0:
        return True
    for el in vs[1:]:
        vs[0]._check(el)
    inside = u.element.values > 0.5
    for i, flag in enumerate(inside):
        if not flag:
            continue
        mat = np.stack([el.vectors[i] for el in vs])
        if matrix_rank(mat) < len(vs):
            return False
    return True
