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
from typing import Any, Callable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DominationViolated,
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


def quotient_norm(v: ModuleElement, n: Submodule) -> Fn:
    """Per atom, the fiber-norm distance from the fiber vector to the subspace.

    This is the pointwise norm of the class of v in the quotient module,
    min over t of |v + basis^T t|, computed by the gauge kernel
    ``_extension_value`` with gauge 1 and zero values on the basis: exact (a
    linear program or a closed form) for lp fibers with p in {1, 2, infinity},
    for image-lp fibers with those p and for gram fibers, line-search descent
    for every other fiber norm.
    """
    if not v.module.same_module(n.module):
        raise DimensionMismatch("element and submodule live in different modules")
    vals = [
        _extension_value(fiber.norm, 1.0, b, np.zeros(b.shape[0]), vec)
        for fiber, vec, b in zip(v.module.fibers, v.vectors, n.bases)
    ]
    return Fn(vals, v.module.space)


# --------------------------------------------------------------------------
# Minimizing a gauge over an affine subspace
# --------------------------------------------------------------------------

def _lp_conjugate(p: float) -> float:
    if p == 1.0:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


def _norm_subgradient(norm: FiberNorm, y: np.ndarray) -> np.ndarray:
    """A subgradient of the norm at y (the zero vector at y = 0).

    A callable fiber norm has no formula to differentiate and gets the zero
    vector too, which leaves the kernel's descent to coordinate directions.
    """
    n = norm.norm(y)
    if n == 0.0 or y.size == 0 or not isinstance(norm, (LpNorm, GramNorm, ImageLpNorm)):
        return np.zeros_like(y)
    if isinstance(norm, GramNorm):
        return norm.gram @ y / n
    if isinstance(norm, ImageLpNorm):
        return norm.matrix.T @ _norm_subgradient(LpNorm(norm.p), norm.matrix @ y)
    p = norm.p
    if p == 1.0:
        return np.sign(y)
    if p == math.inf:
        i = int(np.argmax(np.abs(y)))
        g = np.zeros_like(y)
        g[i] = np.sign(y[i])
        return g
    return np.sign(y) * np.abs(y) ** (p - 1.0) / n ** (p - 1.0)


def _sqrtm_spd(g: np.ndarray) -> np.ndarray:
    w, q = np.linalg.eigh(g)
    return q @ np.diag(np.sqrt(np.maximum(w, 0.0))) @ q.T


def _as_gram(norm: FiberNorm, dim: int) -> np.ndarray | None:
    if isinstance(norm, GramNorm):
        return norm.gram
    if isinstance(norm, LpNorm) and norm.p == 2.0:
        return np.eye(dim)
    if isinstance(norm, ImageLpNorm) and norm.p == 2.0:
        return norm.matrix.T @ norm.matrix
    return None


def _extension_value(norm: FiberNorm, g: float, rows: np.ndarray,
                     r: np.ndarray, e: np.ndarray) -> float:
    """inf over t of g * norm(e + rows^T t) - r.t: a gauge over an affine subspace.

    This is the one kernel behind quotient norms (g = 1, r = 0), each
    Hahn-Banach step (the value the extension takes at a new direction e,
    given the values r on ``rows``) and the exact domination test, which
    runs it on the dual side.  Minimax duality turns the infimum into
    max { w.e : rows @ w = r, dual_norm(w) <= g }, a linear objective over a
    compact convex set, so the value is always attained and never overshoots
    domination.  Polyhedral gauges (p = 1 or p = infinity, plain or through
    an image matrix) solve that program as an exact linear program; euclidean
    gauges (l2, image-l2 and gram) use the closed form for a linear
    functional over an affine slice of a ball.  Remaining gauges fall back to
    line-search descent on the primal, which returns an upper bound.
    """
    if g == 0.0 or e.size == 0:
        return 0.0
    if isinstance(norm, LpNorm) and norm.p in (1.0, math.inf):
        return _polyhedral_dual_program(rows, r, e, g, norm.p)
    if isinstance(norm, ImageLpNorm) and norm.p in (1.0, math.inf):
        return _polyhedral_dual_program(
            rows @ norm.matrix.T, r, norm.matrix @ e, g, norm.p
        )
    gram = _as_gram(norm, rows.shape[1])
    if gram is not None:
        return _ball_dual_program(gram, rows, r, e, g)
    kk = rows.shape[0]
    bt = rows.T

    def h(tt: np.ndarray) -> float:
        return g * norm.norm(bt @ tt + e) - float(r @ tt)

    def dirs(tt: np.ndarray) -> list[np.ndarray]:
        out = [np.eye(kk)[i] for i in range(kk)]
        out.append(rows @ _norm_subgradient(norm, bt @ tt + e) * g - r)
        return out

    _, val = _minimize_convex(h, kk, dirs)
    return val


def _polyhedral_dual_program(eq: np.ndarray, r: np.ndarray, obj: np.ndarray,
                             g: float, p: float) -> float:
    """max of obj.u over eq @ u = r and the polyhedral dual ball, as an LP.

    For p = 1 the dual ball is the box |u_i| <= g; for p = infinity it is
    sum |u_i| <= g, kept linear by splitting u into positive and negative
    parts.  Infeasibility certifies that no dominated extension exists.
    """
    # Imported here: scipy.optimize would double the package's import time.
    from scipy.optimize import linprog

    m = obj.size
    a_eq = eq if eq.shape[0] else None
    b_eq = r if eq.shape[0] else None
    if p == 1.0:
        res = linprog(-obj, A_eq=a_eq, b_eq=b_eq, bounds=[(-g, g)] * m,
                      method="highs")
    else:
        split_eq = np.hstack([a_eq, -a_eq]) if a_eq is not None else None
        res = linprog(np.concatenate([-obj, obj]),
                      A_ub=np.ones((1, 2 * m)), b_ub=np.array([g]),
                      A_eq=split_eq, b_eq=b_eq,
                      bounds=[(0.0, None)] * (2 * m), method="highs")
    if res.status == 2:
        raise DominationViolated("functional exceeds the gauge on the extension domain")
    if not res.success:
        raise RuntimeError(f"extension linear program failed: {res.message}")
    return float(-res.fun)


def _ball_dual_program(gram: np.ndarray, rows: np.ndarray, r: np.ndarray,
                       e: np.ndarray, g: float) -> float:
    """max of w.e over rows @ w = r and the gram dual ball, in closed form.

    Whitening by the gram square root turns the constraint into a euclidean
    ball; the minimum-norm particular solution is orthogonal to the kernel of
    the whitened rows, so the feasible slice is a centered ball of radius
    sqrt(g^2 - |particular|^2) inside that kernel.
    """
    s = _sqrtm_spd(gram)
    a = rows @ s
    c = s @ e
    if rows.shape[0] == 0:
        return g * float(np.linalg.norm(c))
    q0 = np.linalg.pinv(a) @ r
    rho2 = g * g - float(q0 @ q0)
    if rho2 < -1e-9 * max(1.0, g * g):
        raise DominationViolated("functional exceeds the gauge on the extension domain")
    _, sv, vh = np.linalg.svd(a, full_matrices=True)
    rank = int(np.sum(sv > 1e-12 * sv[0])) if sv.size else 0
    null = vh[rank:]
    return float(c @ q0) + math.sqrt(max(rho2, 0.0)) * float(np.linalg.norm(null @ c))


def _minimize_convex(phi: Callable[[np.ndarray], float], k: int,
                     directions: Callable[[np.ndarray], list[np.ndarray]],
                     max_searches: int = 10_000, tol: float = 1e-10) -> tuple[np.ndarray, float]:
    """Minimize a convex phi over R^k by golden-section line searches.

    Each line restriction of a convex function is unimodal, so golden
    section is exact up to the bracket; the bracket is grown geometrically
    to cover minimizers far from the current point (or to approximate an
    infimum attained only asymptotically, whose value a wide bracket already
    pins down to the tolerance).
    """
    t = np.zeros(k)
    best = phi(t)
    if k == 0:
        return t, best
    searches = 0
    while searches < max_searches:
        prev = best
        for d in directions(t):
            nd = float(np.linalg.norm(d))
            if nd == 0.0:
                continue
            d = d / nd

            def g(s: float) -> float:
                return phi(t + s * d)

            radius = 1.0
            while radius < 2.0 ** 40 and min(g(-radius), g(radius)) < best - 1e-15:
                radius *= 4.0
            s_star = _line_min(g, radius)
            searches += 1
            val = g(s_star)
            if val < best:
                best = val
                t = t + s_star * d
            if searches >= max_searches:
                break
        if prev - best <= tol * max(1.0, abs(prev)):
            break
    return t, best


def _line_min(g: Callable[[float], float], radius: float) -> float:
    """Argmin of a unimodal g on [-radius, radius], by staged golden sections.

    Re-bracketing keeps the final absolute tolerance small even when the
    initial bracket had to grow very wide.
    """
    lo, hi = -radius, radius
    for _ in range(3):
        width = hi - lo
        if width <= 4e-12:
            break
        s = _golden_section(g, lo, hi, max(1e-12, 1e-4 * width))
        step = 2e-4 * width
        lo, hi = s - step, s + step
    return 0.5 * (lo + hi)


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
