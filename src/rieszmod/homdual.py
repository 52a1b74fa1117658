"""Homomorphisms between fiber modules, dual modules, and extension theorems.

Homs are stored as one matrix per atom; the pointwise operator norm makes
Hom(M, N) itself a fiber module.  Duals are Hom into the scalar fibers of the
pairing space Z, with closed-form dual norms for lp and gram fibers.  The
Hahn-Banach extension first decides domination exactly, then iterates the
one-dimensional step over a deterministic basis completion.  Both, and the
dual norms of image-lp fibers, run the gauge kernel of ``modules``
(``_extension_value``): a linear program for polyhedral gauges, a closed
form for euclidean ones, convex line-search descent for the remaining
smooth gauges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DominationViolated,
    InconsistentGenerators,
    InputError,
    ModuleMismatch,
    UnsupportedHom,
)
from .modules import (
    Fiber,
    FiberModule,
    FiberNorm,
    GramNorm,
    ImageLpNorm,
    LpNorm,
    ModuleElement,
    Submodule,
    _as_gram,
    _extension_value,
    _lp_conjugate,
    _norm_subgradient,
    _sqrtm_spd,
    kernel_basis,
    matrix_rank,
)
from .spaces import DualSystem, FiniteFStructure, Fn, _require

#: Seed for the deterministic restarts used by the operator-norm ascent.
_ASCENT_SEED = 20240817


@dataclass(frozen=True)
class StructureHom:
    """A homomorphism of f-structures given by precomposition with an atom map.

    ``atom_map[t]`` is the index of the source atom that target atom ``t``
    reads from, so ``apply(f)(t) = f(atom_map[t])``.  Such maps preserve the
    unit, products, and lattice operations by construction.
    """

    source: FiniteFStructure
    target: FiniteFStructure
    atom_map: tuple[int, ...]

    def __post_init__(self):
        if len(self.atom_map) != self.target.space.n:
            raise DimensionMismatch("atom_map needs one source atom per target atom")
        if any(not 0 <= i < self.source.space.n for i in self.atom_map):
            raise InputError("atom_map index out of range")

    @classmethod
    def identity(cls, structure: FiniteFStructure) -> "StructureHom":
        return cls(structure, structure, tuple(range(structure.space.n)))

    def apply(self, f: Fn) -> Fn:
        if f.space != self.source.space:
            raise ModuleMismatch("argument lives on the wrong measure space")
        return Fn(f.values[list(self.atom_map)], self.target.space)

    def compose(self, other: "StructureHom") -> "StructureHom":
        """self after other (other: A -> B, self: B -> C)."""
        if other.target != self.source:
            raise ModuleMismatch("homs are not composable")
        return StructureHom(other.source, self.target,
                            tuple(other.atom_map[i] for i in self.atom_map))


class HomElement:
    """A module homomorphism: one fiber matrix per atom.

    With a structure hom attached, the matrix at target atom t maps the
    source fiber at ``atom_map[t]`` into the target fiber at t (a phi-linear
    map); otherwise source and target share the measure space.
    """

    __slots__ = ("matrices", "source", "target", "hom")

    def __init__(self, matrices: Sequence[np.ndarray | Sequence[Sequence[float]]],
                 source: FiberModule, target: FiberModule,
                 hom: StructureHom | None = None):
        amap = hom.atom_map if hom is not None else range(target.space.n)
        if hom is None and source.space != target.space:
            raise ModuleMismatch("source and target live on different spaces; pass a hom")
        if len(matrices) != target.space.n:
            raise DimensionMismatch("one matrix per target atom is required")
        fixed = []
        for t, m in enumerate(matrices):
            src_dim = source.fibers[amap[t]].dim
            tgt_dim = target.fibers[t].dim
            arr = np.array(m, dtype=float)
            if arr.size == 0:
                arr = arr.reshape(tgt_dim, src_dim)
            if arr.shape != (tgt_dim, src_dim):
                raise DimensionMismatch(
                    f"matrix at atom {t} has shape {arr.shape}, expected {(tgt_dim, src_dim)}"
                )
            arr.setflags(write=False)
            fixed.append(arr)
        self.matrices = tuple(fixed)
        self.source = source
        self.target = target
        self.hom = hom

    def _amap(self) -> Sequence[int]:
        return self.hom.atom_map if self.hom is not None else range(self.target.space.n)

    def __repr__(self) -> str:
        return f"HomElement({[m.tolist() for m in self.matrices]!r})"

    def apply(self, v: ModuleElement) -> ModuleElement:
        if not v.module.same_module(self.source):
            raise ModuleMismatch("argument lives in the wrong module")
        amap = self._amap()
        return ModuleElement(
            [m @ v.vectors[amap[t]] for t, m in enumerate(self.matrices)], self.target
        )

    def __add__(self, other: "HomElement") -> "HomElement":
        if not isinstance(other, HomElement):
            return NotImplemented
        return HomElement([a + b for a, b in zip(self.matrices, other.matrices)],
                          self.source, self.target, self.hom)

    def __sub__(self, other: "HomElement") -> "HomElement":
        if not isinstance(other, HomElement):
            return NotImplemented
        return HomElement([a - b for a, b in zip(self.matrices, other.matrices)],
                          self.source, self.target, self.hom)

    def __neg__(self) -> "HomElement":
        return HomElement([-a for a in self.matrices], self.source, self.target, self.hom)

    def scale(self, lam: float) -> "HomElement":
        return HomElement([a * float(lam) for a in self.matrices],
                          self.source, self.target, self.hom)

    def __rmul__(self, u: Fn) -> "HomElement":
        if not isinstance(u, Fn):
            return NotImplemented
        if u.space != self.target.space:
            raise ModuleMismatch("multiplier lives on a different measure space")
        return HomElement([u.values[t] * m for t, m in enumerate(self.matrices)],
                          self.source, self.target, self.hom)

    def compose(self, other: "HomElement") -> "HomElement":
        """self after other; only same-space homs compose here."""
        if self.hom is not None or other.hom is not None:
            raise UnsupportedHom("composition across structure homs is not implemented")
        if not other.target.same_module(self.source):
            raise ModuleMismatch("homs are not composable")
        return HomElement([a @ b for a, b in zip(self.matrices, other.matrices)],
                          other.source, self.target)

    @classmethod
    def identity(cls, m: FiberModule) -> "HomElement":
        return cls([np.eye(f.dim) for f in m.fibers], m, m)

    @classmethod
    def zero(cls, source: FiberModule, target: FiberModule,
             hom: StructureHom | None = None) -> "HomElement":
        amap = hom.atom_map if hom is not None else range(target.space.n)
        return cls(
            [np.zeros((target.fibers[t].dim, source.fibers[amap[t]].dim))
             for t in range(target.space.n)],
            source, target, hom,
        )

    def to_json(self) -> dict:
        return {"matrices": [[[float(x) for x in row] for row in m] for m in self.matrices]}

    @classmethod
    def from_json(cls, obj: Any, source: FiberModule, target: FiberModule,
                  where: str = "$") -> "HomElement":
        _require(isinstance(obj, dict) and "matrices" in obj,
                 "hom must be {\"matrices\": [[[...]], ...]}", where)
        try:
            return cls(obj["matrices"], source, target)
        except (DimensionMismatch, ValueError) as exc:
            raise InputError(str(getattr(exc, "message", exc)), path=where + ".matrices") from exc


# --------------------------------------------------------------------------
# Dual norms and operator norms
# --------------------------------------------------------------------------

def dual_vector_norm(norm: FiberNorm, a: np.ndarray) -> float:
    """sup { a.x : norm(x) <= 1 }, the dual norm of the row vector a.

    Closed forms for lp and gram fibers.  On an image-lp fiber x -> |A x|_p
    it is min { |u|_q : A^T u = a }, from the gauge kernel: exact for p in
    {1, 2, infinity}, line-search descent for other p.
    """
    if a.size == 0:
        return 0.0
    if isinstance(norm, LpNorm):
        return LpNorm(_lp_conjugate(norm.p)).norm(a)
    if isinstance(norm, GramNorm):
        return float(math.sqrt(max(0.0, float(a @ np.linalg.solve(norm.gram, a)))))
    return _min_dual_norm(norm, np.eye(a.size), a)


def _min_dual_norm(norm: FiberNorm, rows: np.ndarray, r: np.ndarray) -> float:
    """min { dual_norm(w) : rows @ w = r }, infinite when no w reaches r.

    The functional f(rows^T t) = r.t is dominated by g * norm exactly when
    this is at most g.  The dual norm is itself a minimum, dual_norm(w) =
    min { |u|_q : M u = w } with q the conjugate exponent and M = I (lp),
    A^T (image-lp through A) or G^(1/2) (gram G).  So the whole is the lq
    distance from one solution u0 of rows M u = r to the null space of
    rows M: the gauge kernel on the dual side.
    """
    if isinstance(norm, ImageLpNorm):
        factor, q = norm.matrix.T, _lp_conjugate(norm.p)
    elif isinstance(norm, GramNorm):
        factor, q = _sqrtm_spd(norm.gram), 2.0
    elif isinstance(norm, LpNorm):
        factor, q = np.eye(rows.shape[1]), _lp_conjugate(norm.p)
    else:
        raise UnsupportedHom("dual norms are implemented for lp, gram and image-lp fibers")
    a = rows @ factor
    u0 = np.linalg.lstsq(a, r, rcond=None)[0]
    if np.any(np.abs(a @ u0 - r) > 1e-9 * max(1.0, float(np.abs(r).max()))):
        return math.inf
    null = kernel_basis(a)
    return _extension_value(LpNorm(q), 1.0, null, np.zeros(null.shape[0]), u0)


def _operator_norm_ascent(src: FiberNorm, tgt: FiberNorm, a: np.ndarray) -> float:
    """max of tgt(A x) over src(x) = 1 by projected subgradient ascent.

    Deterministic: 32 restarts drawn from a fixed seed, tolerance 1e-8.
    The objective is a maximum of a convex function over the unit sphere, so
    every local ray maximum is global along its ray; restarts guard against
    sphere-level local maxima.
    """
    n = a.shape[1]
    if n == 0 or a.shape[0] == 0:
        return 0.0
    rng = np.random.default_rng(_ASCENT_SEED)
    starts = [np.eye(n)[i] for i in range(n)]
    starts += [rng.standard_normal(n) for _ in range(32)]
    best = 0.0
    for x0 in starts:
        s = src.norm(x0)
        if s == 0.0:
            continue
        x = x0 / s
        val = tgt.norm(a @ x)
        for k in range(1, 201):
            g = a.T @ _norm_subgradient(tgt, a @ x)
            step = 0.5 / math.sqrt(k)
            y = x + step * g
            sy = src.norm(y)
            if sy == 0.0:
                break
            y = y / sy
            vy = tgt.norm(a @ y)
            if vy > val:
                x, prev, val = y, val, vy
                if vy - prev <= 1e-8 * max(1.0, vy) and k > 20:
                    break
            else:
                x = y if vy == val else x
        best = max(best, val)
    return best


def _fiber_operator_norm(src: FiberNorm, src_dim: int,
                         tgt: FiberNorm, tgt_dim: int, a: np.ndarray) -> float:
    """Operator norm of the matrix a between two fiber norms.

    Closed forms: zero fibers; one-dimensional targets (dual norm of the
    row, from the gauge kernel on image-lp sources); l1 sources (max over
    columns); l-infinity sources (sign-pattern enumeration); gram-to-gram
    (whitened spectral norm).  Everything else falls back to the seeded
    ascent.
    """
    if src_dim == 0 or tgt_dim == 0 or not a.any():
        return 0.0
    if tgt_dim == 1 and isinstance(src, (LpNorm, GramNorm, ImageLpNorm)):
        return tgt.norm(np.ones(1)) * dual_vector_norm(src, a[0])
    if isinstance(src, LpNorm) and src.p == 1.0:
        return max(tgt.norm(a[:, j]) for j in range(src_dim))
    if isinstance(src, LpNorm) and src.p == math.inf and src_dim <= 16:
        best = 0.0
        for bits in range(2 ** (src_dim - 1)):
            signs = np.array(
                [1.0] + [1.0 if (bits >> i) & 1 == 0 else -1.0 for i in range(src_dim - 1)]
            )
            best = max(best, tgt.norm(a @ signs))
        return best
    g_src = _as_gram(src, src_dim)
    g_tgt = _as_gram(tgt, tgt_dim)
    if g_src is not None and g_tgt is not None:
        white = _sqrtm_spd(g_tgt) @ a @ np.linalg.inv(_sqrtm_spd(g_src))
        return float(np.linalg.norm(white, 2))
    return _operator_norm_ascent(src, tgt, a)


def hom_norm(t: HomElement) -> Fn:
    """The pointwise operator norm of a hom, as a function on the space.

    Atomwise this is sup { |T v| : |v| <= 1 } on the fiber, which coincides
    with the least pointwise bound w with |T v| <= w |v|.
    """
    amap = t._amap()
    vals = []
    for i, m in enumerate(t.matrices):
        src = t.source.fibers[amap[i]]
        tgt = t.target.fibers[i]
        vals.append(_fiber_operator_norm(src.norm, src.dim, tgt.norm, tgt.dim, m))
    return Fn(vals, t.target.space)


def _dual_fiber_norm(norm: FiberNorm) -> FiberNorm:
    if isinstance(norm, LpNorm):
        return LpNorm(_lp_conjugate(norm.p))
    if isinstance(norm, GramNorm):
        if norm.gram.size == 0:
            return GramNorm(norm.gram)
        return GramNorm(np.linalg.inv(norm.gram))
    raise UnsupportedHom(
        "dual fibers are implemented for lp and gram norms; generated-module"
        " fibers with p != 2 have no closed dual in this package"
    )


def z_module(system: DualSystem) -> FiberModule:
    """The pairing space Z realized as a module: scalar fibers with |.|"""
    structure = FiniteFStructure(system.space, system.base.u_kind, system.z_kind)
    return FiberModule(structure, tuple(Fiber(1, LpNorm(1.0)) for _ in range(system.space.n)))


def dual_module(m: FiberModule, system: DualSystem) -> FiberModule:
    """Hom(M, Z) as a W-normed module: dual fibers with dual norms."""
    structure = FiniteFStructure(system.space, m.structure.u_kind, system.w_kind)
    return FiberModule(
        structure, tuple(Fiber(f.dim, _dual_fiber_norm(f.norm)) for f in m.fibers)
    )


def dual_element(m: FiberModule, rows: Sequence[Sequence[float]],
                 system: DualSystem) -> HomElement:
    """A functional on m as a HomElement into the scalar Z fibers."""
    return HomElement([np.array(r, dtype=float).reshape(1, -1) for r in rows],
                      m, z_module(system))


def pairing(omega: HomElement, v: ModuleElement) -> Fn:
    """<omega, v> as a function on the space (omega a functional on v's module)."""
    out = omega.apply(v)
    return Fn([vec[0] if vec.size else 0.0 for vec in out.vectors], omega.target.space)


def kernel(t: HomElement) -> Submodule:
    """Per atom, the null space of the fiber matrix, as a submodule."""
    if t.hom is not None:
        raise UnsupportedHom("kernels across structure homs are not implemented")
    return Submodule(t.source, tuple(kernel_basis(m) for m in t.matrices))


# --------------------------------------------------------------------------
# Hahn-Banach
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Extension:
    """Result of a Hahn-Banach extension.

    ``functional`` is the extension as a row functional per atom;
    ``basis``/``values`` store the completed interpolation data, whose first
    rows are a maximal independent subset of the submodule basis (all of it
    when the basis is independent) with the given values (restriction is
    exact by construction in this representation).
    """

    functional: HomElement
    basis: tuple[np.ndarray, ...]
    values: tuple[np.ndarray, ...]


def hahn_banach_extend(n: Submodule, f_rows: Sequence[Sequence[float]], gauge: Fn) -> Extension:
    """Extend a dominated functional from a submodule to the whole module.

    ``f_rows[a]`` lists the values of the functional on the rows of
    ``n.bases[a]``; the gauge is p(v) = gauge(a) * |v| in each fiber.
    Domination of f by p on the submodule is decided exactly before any
    extension step: it holds iff the least dual norm of a row reproducing
    the values, ``_min_dual_norm``, is at most gauge(a) * (1 + 1e-9), and
    DominationViolated is raised otherwise, also for values that no linear
    functional takes on a rank-deficient basis.  The extension iterates the
    one-dimensional step over the standard-basis completion in index order,
    each new value being the infimum of p(v + z) - f(v) over the current
    domain, computed through the dual program over the gauge's dual ball
    (exact for lp and image-lp with p in {1, 2, infinity} and for gram
    gauges, convex descent otherwise).  Taking the infimum itself is the canonical
    tie-break among valid extensions.
    """
    m = n.module
    if gauge.space != m.space:
        raise ModuleMismatch("gauge lives on a different measure space")
    if np.any(gauge.values < 0.0):
        raise DominationViolated("gauge must be nonnegative")
    out_rows: list[np.ndarray] = []
    bases: list[np.ndarray] = []
    values: list[np.ndarray] = []
    for a, fiber in enumerate(m.fibers):
        b = np.array(n.bases[a], dtype=float)
        r = np.array(f_rows[a], dtype=float).reshape(-1)
        if r.shape[0] != b.shape[0]:
            raise DimensionMismatch(
                f"atom {a}: {b.shape[0]} basis rows but {r.shape[0]} functional values"
            )
        g_a = float(gauge.values[a])
        if r.size:
            need = _min_dual_norm(fiber.norm, b, r)
            if need > g_a * (1.0 + 1e-9):
                raise DominationViolated(
                    f"atom {a}: functional exceeds the gauge on the submodule"
                    f" (it needs a gauge of at least {need:.6g}, got {g_a:.6g})"
                )
        # Keep a maximal independent subset of the basis rows with their
        # values (consistent, as checked above), then complete it with unit
        # vectors whose values are the one-dimensional extension steps.
        cur_b: list[np.ndarray] = []
        cur_r: list[float] = []
        given = [(row, float(x)) for row, x in zip(b, r)]
        for row, val in given + [(e, None) for e in np.eye(fiber.dim)]:
            stacked = np.array(cur_b).reshape(len(cur_b), fiber.dim)
            if matrix_rank(np.vstack([stacked, row[None, :]])) == len(cur_b):
                continue
            if val is None:
                val = _extension_value(fiber.norm, g_a, stacked, np.array(cur_r), row)
            cur_b.append(row)
            cur_r.append(val)
        if fiber.dim == 0:
            out_rows.append(np.zeros((1, 0)))
            bases.append(np.zeros((0, 0)))
            values.append(np.zeros(0))
            continue
        full_b = np.stack(cur_b)
        full_r = np.array(cur_r)
        omega = np.linalg.solve(full_b, full_r)
        out_rows.append(omega.reshape(1, -1))
        bases.append(full_b)
        values.append(full_r)
    system = DualSystem.default(m.structure)
    functional = HomElement(out_rows, m, z_module(system))
    return Extension(functional, tuple(bases), tuple(values))


def norming_functional(v: ModuleElement, system: DualSystem | None = None) -> HomElement:
    """The functional omega with <omega, v> = |v| and |omega| = chi_{v != 0}.

    Closed forms per fiber kind: the sign vector for l1, the first maximal
    coordinate for l-infinity, the (p-1)-power profile for finite p, and the
    Riesz row Gv/|v| for gram fibers.  Zero fibers get the zero functional.
    """
    m = v.module
    if system is None:
        system = DualSystem.default(m.structure)
    rows = []
    for fiber, x in zip(m.fibers, v.vectors):
        nrm = fiber.norm.norm(x)
        if nrm == 0.0 or fiber.dim == 0:
            rows.append(np.zeros((1, fiber.dim)))
            continue
        norm = fiber.norm
        if isinstance(norm, GramNorm):
            rows.append((norm.gram @ x / nrm).reshape(1, -1))
            continue
        if isinstance(norm, ImageLpNorm):
            y = norm.matrix @ x
            u = _attaining_row(norm.p, y, LpNorm(norm.p).norm(y))
            rows.append((norm.matrix.T @ u).reshape(1, -1))
            continue
        rows.append(_attaining_row(norm.p, x, nrm).reshape(1, -1))
    return HomElement(rows, m, z_module(system))


def _attaining_row(p: float, x: np.ndarray, nrm: float) -> np.ndarray:
    if p == 1.0:
        return np.sign(x)
    if p == math.inf:
        i = int(np.argmax(np.abs(x)))
        row = np.zeros_like(x)
        row[i] = math.copysign(1.0, x[i])
        return row
    if p == 2.0:
        return x / nrm
    return np.sign(x) * np.abs(x) ** (p - 1.0) / nrm ** (p - 1.0)


# --------------------------------------------------------------------------
# Bidual
# --------------------------------------------------------------------------

def bidual_embed(m: FiberModule, system: DualSystem | None = None) -> HomElement:
    """The canonical map J: M -> M** defined by <J(v), omega> = <omega, v>.

    In fiber coordinates the double dual of a finite-dimensional space is the
    space itself, so J is the identity matrix per atom; the content is that
    the double-dual norm agrees with the original (tested independently).
    """
    if system is None:
        system = DualSystem.default(m.structure)
    dual = dual_module(m, system)
    inverted = DualSystem(
        FiniteFStructure(system.space, system.base.u_kind, system.w_kind),
        system.base.v_kind, system.z_kind,
    )
    bidual = dual_module(dual, inverted)
    return HomElement([np.eye(f.dim) for f in m.fibers], m, bidual)


def is_reflexive(m: FiberModule, system: DualSystem | None = None) -> bool:
    """True iff J is surjective: every bidual element has a preimage.

    Finite-dimensional fibers are always reflexive; the witness solves the
    fiber systems explicitly rather than citing the dimension count.
    """
    j = bidual_embed(m, system)
    rng = np.random.default_rng(_ASCENT_SEED + 2)
    for _ in range(8):
        target = [rng.standard_normal(f.dim) for f in j.target.fibers]
        for mat, y in zip(j.matrices, target):
            if mat.shape[0] != mat.shape[1]:
                return False
            x = np.linalg.solve(mat, y) if mat.size else np.zeros(0)
            if mat.size and not np.allclose(mat @ x, y, atol=1e-9):
                return False
    return True


# --------------------------------------------------------------------------
# Extension from generators
# --------------------------------------------------------------------------

def extend_from_generators(
    generators: Sequence[ModuleElement],
    images: Sequence[ModuleElement],
    target: FiberModule,
    phi: StructureHom | None = None,
) -> HomElement:
    """The unique hom sending each generator to its image.

    Per target atom t the fiber matrix solves T_t g_i[amap(t)] = img_i[t]
    for all i by least squares; a residual beyond 1e-9 (relative) means the
    images are inconsistent with linearity.  Directions outside the span of
    the generators are sent to zero, the canonical choice on the generated
    submodule's complement.
    """
    if len(generators) != len(images):
        raise InputError("one image per generator is required")
    if len(generators) == 0:
        raise InputError("extend_from_generators needs at least one generator")
    source = generators[0].module
    amap = phi.atom_map if phi is not None else range(target.space.n)
    matrices = []
    for t in range(target.space.n):
        s = amap[t]
        g = np.stack([gen.vectors[s] for gen in generators])
        img = np.stack([im.vectors[t] for im in images])
        if g.shape[1] == 0:
            if np.any(np.abs(img) > 1e-9):
                raise InconsistentGenerators(
                    f"atom {t}: zero source fiber with nonzero images"
                )
            matrices.append(np.zeros((target.fibers[t].dim, 0)))
            continue
        sol, *_ = np.linalg.lstsq(g, img, rcond=None)
        resid = g @ sol - img
        scale = max(1.0, float(np.abs(img).max()))
        if np.any(np.abs(resid) > 1e-9 * scale):
            raise InconsistentGenerators(
                f"atom {t}: generator images are not consistent with a linear map"
            )
        matrices.append(sol.T)
    return HomElement(matrices, source, target, phi)
