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
    RANK_RTOL,
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
    _FiberGroup,
    _finite_matrix,
    _lp_conjugate,
    _lp_rows,
    _matvec_rows,
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
        _require(isinstance(obj["matrices"], list), "matrices must be a list, one per atom",
                 where + ".matrices")
        matrices = [_finite_matrix(m, "hom matrix entries", f"{where}.matrices[{t}]")
                    for t, m in enumerate(obj["matrices"])]
        try:
            return cls(matrices, source, target)
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
    return float(_dual_norms(_FiberGroup.single(norm, a.size), a.reshape(1, -1))[0])


def _dual_norms(src: _FiberGroup, rows: np.ndarray) -> np.ndarray:
    """The dual norm of rows[i] under member i of the group, for every i."""
    if isinstance(src.proto, LpNorm):
        return _lp_rows(_lp_conjugate(src.proto.p), rows)
    if isinstance(src.proto, GramNorm):
        sol = np.linalg.solve(src.mats, rows[..., None])[..., 0]
        return np.sqrt(np.maximum(np.sum(rows * sol, axis=1), 0.0))
    return np.array([_min_dual_norm(norm, np.eye(row.size), row)
                     for norm, row in zip(src.norms, rows)], dtype=float)


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
    else:
        factor, q = np.eye(rows.shape[1]), _lp_conjugate(norm.p)
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


def _sign_vectors(d: int) -> np.ndarray:
    """The 2^(d-1) sign vectors with first entry +1, as rows."""
    bits = np.arange(2 ** (d - 1))[:, None] >> np.arange(d - 1)
    return np.hstack([np.ones((bits.shape[0], 1)), np.where(bits & 1, -1.0, 1.0)])


def _operator_norms(src: _FiberGroup, tgt: _FiberGroup, a: np.ndarray) -> np.ndarray:
    """Operator norm of each stacked matrix a[i], from member i of src to member i of tgt.

    Closed forms, each evaluated once for the whole stack: zero fibers and
    zero matrices; one-dimensional targets (dual norm of the row, from the
    gauge kernel on image-lp sources); l1 sources (max over columns);
    l-infinity sources (sign-pattern enumeration); euclidean sources and
    targets (whitened spectral norm).  Everything else falls back to the
    seeded ascent, one matrix at a time.
    """
    k = a.shape[0]
    if src.dim == 0 or tgt.dim == 0:
        return np.zeros(k)
    live = np.flatnonzero(a.reshape(k, -1).any(axis=1))
    if live.size < k:
        out = np.zeros(k)
        if live.size:
            out[live] = _operator_norms(src.take(live), tgt.take(live), a[live])
        return out
    if tgt.dim == 1:
        return tgt.norms_of(np.ones((k, 1))) * _dual_norms(src, a[:, 0, :])
    lp_src = src.proto.p if isinstance(src.proto, LpNorm) else None
    if lp_src == 1.0:
        return np.max([tgt.norms_of(a[:, :, j]) for j in range(src.dim)], axis=0)
    if lp_src == math.inf and src.dim <= 16:
        # Every sign vector at once, in chunks of at most 2^15 images.
        signs = _sign_vectors(src.dim)
        step = max(1, 2 ** 15 // k)
        best = np.zeros(k)
        for c in range(0, signs.shape[0], step):
            chunk = signs[c:c + step]
            images = np.swapaxes(a @ chunk.T, 1, 2).reshape(-1, tgt.dim)
            each = tgt.take(np.repeat(np.arange(k), chunk.shape[0])).norms_of(images)
            best = np.maximum(best, each.reshape(k, -1).max(axis=1))
        return best
    g_src = _as_gram(src.proto, src.dim, src.mats)
    g_tgt = _as_gram(tgt.proto, tgt.dim, tgt.mats)
    if g_src is not None and g_tgt is not None:
        white = _sqrtm_spd(g_tgt) @ a @ np.linalg.inv(_sqrtm_spd(g_src))
        return np.linalg.norm(white, 2, axis=(1, 2))
    return np.array([_operator_norm_ascent(s, t, m)
                     for s, t, m in zip(src.norms, tgt.norms, a)], dtype=float)


def hom_norm(t: HomElement) -> Fn:
    """The pointwise operator norm of a hom, as a function on the space.

    Atomwise this is sup { |T v| : |v| <= 1 } on the fiber, which coincides
    with the least pointwise bound w with |T v| <= w |v|.  Target atoms are
    grouped by the fiber groups of their source and target fibers, and each
    group runs one stacked closed form.
    """
    src_gid, src_pos = t.source._group_of
    tgt_gid, tgt_pos = t.target._group_of
    amap = np.asarray(t._amap(), dtype=np.intp)
    pair = src_gid[amap] * len(t.target._groups) + tgt_gid
    order = np.argsort(pair, kind="stable")
    out = np.zeros(t.target.space.n)
    for atoms in np.split(order, np.flatnonzero(np.diff(pair[order])) + 1):
        if atoms.size == 0:
            continue
        src = t.source._groups[src_gid[amap[atoms[0]]]].take(src_pos[amap[atoms]])
        tgt = t.target._groups[tgt_gid[atoms[0]]].take(tgt_pos[atoms])
        mats = np.stack([t.matrices[i] for i in atoms])
        out[atoms] = _operator_norms(src, tgt, mats)
    return Fn(out, t.target.space)


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
    return FiberModule(structure, (Fiber(1, LpNorm(1.0)),) * system.space.n)


def dual_module(m: FiberModule, system: DualSystem) -> FiberModule:
    """Hom(M, Z) as a W-normed module: dual fibers with dual norms."""
    structure = FiniteFStructure(system.space, m.structure.u_kind, system.w_kind)
    fibers = list(m.fibers)
    for g in m._groups:
        if isinstance(g.proto, LpNorm):
            # One shared dual fiber per lp group.
            dual = Fiber(g.dim, _dual_fiber_norm(g.proto))
            for a in g.atoms:
                fibers[a] = dual
        else:
            for a, norm in zip(g.atoms, g.norms):
                fibers[a] = Fiber(g.dim, _dual_fiber_norm(norm))
    return FiberModule(structure, tuple(fibers))


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

    Closed forms per fiber kind, one stacked evaluation per fiber group: the
    sign vector for l1, the first maximal coordinate for l-infinity, the
    (p-1)-power profile for finite p, the Riesz row Gv/|v| for gram fibers
    and A^T u for image-lp fibers x -> |A x|_p, u the row norming A x.  Zero
    fibers get the zero functional.
    """
    m = v.module
    if system is None:
        system = DualSystem.default(m.structure)
    flat = np.zeros(v.flat.size)
    for g in m._groups:
        x = v.flat[g.cols]
        nrm = g.norms_of(x)
        live = np.flatnonzero(nrm != 0.0)
        if g.dim == 0 or live.size == 0:
            continue
        x, nrm, mats = x[live], nrm[live], None if g.mats is None else g.mats[live]
        if isinstance(g.proto, GramNorm):
            rows = _matvec_rows(mats, x) / nrm[:, None]
        elif isinstance(g.proto, ImageLpNorm):
            u = _attaining_rows(g.proto.p, _matvec_rows(mats, x), nrm)
            rows = _matvec_rows(np.swapaxes(mats, 1, 2), u)
        else:
            rows = _attaining_rows(g.proto.p, x, nrm)
        flat[g.cols[live]] = rows
    return HomElement([flat[a:b].reshape(1, -1) for a, b in m._bounds], m, z_module(system))


def _attaining_rows(p: float, x: np.ndarray, nrm: np.ndarray) -> np.ndarray:
    """Per row, the unit dual row u with u.x = |x|_p = nrm (nrm > 0)."""
    if p == 1.0:
        return np.sign(x)
    if p == math.inf:
        rows = np.zeros_like(x)
        i = np.argmax(np.abs(x), axis=1)
        k = np.arange(x.shape[0])
        rows[k, i] = np.copysign(1.0, x[k, i])
        return rows
    if p == 2.0:
        return x / nrm[:, None]
    return np.sign(x) * np.abs(x) ** (p - 1.0) / nrm[:, None] ** (p - 1.0)


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
    """True iff J: M -> M** is surjective, certified exactly.

    J is surjective iff every fiber matrix of J is square and of full rank.
    For each fiber dimension the matrices are stacked and one batched
    singular-value decomposition checks that the smallest singular value
    exceeds ``RANK_RTOL`` times the largest (or 1), the package-wide rank
    threshold.  Finite-dimensional fibers always pass; the certificate
    checks the construction of J rather than citing the dimension count.
    """
    j = bidual_embed(m, system)
    if j.source.dims != j.target.dims:
        return False
    dims = j.target._dim_array
    for d in np.unique(dims[dims > 0]):
        stack = np.stack([j.matrices[a] for a in np.flatnonzero(dims == d)])
        s = np.linalg.svd(stack, compute_uv=False)
        if np.any(s[:, -1] <= RANK_RTOL * np.maximum(s[:, 0], 1.0)):
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
