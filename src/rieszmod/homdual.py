"""Homomorphisms between fiber modules, dual modules, and extension theorems.

Homs are stored as one flat vector of per-atom matrices; the pointwise
operator norm makes Hom(M, N) itself a fiber module.  Operator norms are closed forms where
duality gives one, and otherwise come from one batched nonlinear power
iteration per fiber group: a value attained at a unit vector, so a lower
bound that is not certified.  Duals are Hom into the scalar fibers of the
pairing space Z, with closed-form dual norms for lp and gram fibers.  The
Hahn-Banach extension is one solve of min { dual norm : restriction = f }
on every atom, whose value decides domination and whose minimiser is the
extension.  It, the dual norms of image-lp fibers and the power
iteration's maximisation step on image-lp balls run the batched lp gauge
kernel ``_kernels._lp_gauges`` in the lp coordinates of ``_lp_factor``: a
closed form for euclidean gauges, and otherwise one simplex or
damped-Newton call per group whose duality gap one certificate step
checks."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Sequence

import numpy as np

from ._kernels import _lp_conjugate, _lp_gauges, _matmul_rows, _matvec_rows, _shape_groups, _svd
from .errors import (
    DimensionMismatch,
    DominationViolated,
    InconsistentGenerators,
    InputError,
    InvalidStructure,
    ModuleMismatch,
    SolverFailed,
    SpaceMismatch,
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
    _check_grams,
    _FiberGroup,
    _finite_matrix,
    _gram_rows,
    _lp_factor,
    _lp_rows,
    _split_atoms,
    _stack_gram_norms,
    kernel_basis,
)
from .spaces import DualSystem, FiniteFStructure, Fn, _require

#: Step cap of the operator-norm power method; each start stops earlier,
#: once its value rises by at most ``_POWER_RTOL`` relative in one step.
_POWER_STEPS = 1000
_POWER_RTOL = 1e-13


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
        """f read along the atom map; a batch maps row by row."""
        if f.space != self.source.space:
            raise ModuleMismatch("argument lives on the wrong measure space")
        return Fn(f.values[..., list(self.atom_map)], self.target.space)

    def compose(self, other: "StructureHom") -> "StructureHom":
        """self after other (other: A -> B, self: B -> C)."""
        if other.target != self.source:
            raise ModuleMismatch("homs are not composable")
        return StructureHom(other.source, self.target,
                            tuple(other.atom_map[i] for i in self.atom_map))


def _spans(starts: np.ndarray, size: int) -> np.ndarray:
    """starts[i] + j for j < size, one row per start."""
    return starts[:, None] + np.arange(size)


def _shape_error(t: int, shape: tuple[int, ...], expected: tuple[int, int]) -> DimensionMismatch:
    return DimensionMismatch(f"matrix at atom {t} has shape {shape}, expected {expected}")


class _HomLayout:
    """Where the matrices of a hom from ``source`` to ``target`` sit in its
    flat vector.

    The matrix at target atom t has ``rows[t]`` rows (the target fiber's
    dimension) and ``cols[t]`` columns (the dimension of the source fiber at
    ``amap[t]``) and fills flat[offsets[t]:offsets[t + 1]] in row-major order.
    """

    def __init__(self, source: FiberModule, target: FiberModule, hom: "StructureHom | None"):
        if hom is None and source.space != target.space:
            raise ModuleMismatch("source and target live on different spaces; pass a hom")
        n = target.space.n
        self.amap = np.arange(n) if hom is None else np.asarray(hom.atom_map, dtype=np.intp)
        self.rows = target._dim_array
        self.cols = source._dim_array[self.amap]
        self.offsets = np.concatenate([[0], np.cumsum(self.rows * self.cols)]).astype(np.intp)
        self.source, self.target = source, target

    @cached_property
    def shapes(self) -> list[tuple[int, int]]:
        return list(zip(self.rows.tolist(), self.cols.tolist()))

    def take(self, atoms: np.ndarray) -> np.ndarray:
        """Indices into the flat vector of the matrices at target atoms
        sharing one shape, one row per atom."""
        return _spans(self.offsets[atoms], int(self.rows[atoms[0]] * self.cols[atoms[0]]))

    @cached_property
    def blocks(self) -> list[tuple[int, int, np.ndarray, np.ndarray, np.ndarray]]:
        """Per matrix shape (rows, cols) with both positive, the flat indices
        of the matrices and of the source and target coordinates they read
        and write, one row per target atom."""
        out = []
        for atoms in _split_atoms(self.rows, self.cols):
            r, c = int(self.rows[atoms[0]]), int(self.cols[atoms[0]])
            if r and c:
                out.append((r, c, self.take(atoms),
                            _spans(self.source._offsets[self.amap[atoms]], c),
                            _spans(self.target._offsets[atoms], r)))
        return out


class HomElement:
    """A module homomorphism: one fiber matrix per target atom, stored as one
    flat read-only vector.

    With a structure hom attached, the matrix at target atom t maps the
    source fiber at ``atom_map[t]`` into the target fiber at t (a phi-linear
    map); otherwise source and target share the measure space.  ``flat``
    concatenates the matrices in target-atom order, each in row-major order,
    as ``ModuleElement.flat`` concatenates vectors; ``matrices`` is the tuple
    of per-atom read-only views into it, built on first use.  ``apply`` runs
    one ``_matvec_rows`` per matrix shape, so each output vector has the bits
    of a one-row ``_matvec_rows`` on its own matrix, whatever the other
    atoms; ``compose`` runs one ``np.matmul`` per shape triple.
    """

    __slots__ = ("flat", "source", "target", "hom", "_layout", "_matrices")

    def __init__(self, matrices: Sequence[np.ndarray | Sequence[Sequence[float]]],
                 source: FiberModule, target: FiberModule,
                 hom: StructureHom | None = None):
        layout = _HomLayout(source, target, hom)
        if len(matrices) != target.space.n:
            raise DimensionMismatch("one matrix per target atom is required")
        parts = []
        for t, (m, shape) in enumerate(zip(matrices, layout.shapes)):
            arr = np.asarray(m, dtype=float)
            if arr.shape != shape and not (arr.size == 0 and shape[0] * shape[1] == 0):
                raise _shape_error(t, arr.shape, shape)
            parts.append(arr.reshape(-1))
        flat = np.concatenate(parts) if parts else np.zeros(0)
        self._set(flat, source, target, hom, layout)

    def _set(self, flat: np.ndarray, source: FiberModule, target: FiberModule,
             hom: StructureHom | None, layout: _HomLayout) -> None:
        flat.setflags(write=False)
        self.flat = flat
        self.source = source
        self.target = target
        self.hom = hom
        self._layout = layout
        self._matrices = None

    @classmethod
    def _from_flat(cls, flat: np.ndarray, source: FiberModule, target: FiberModule,
                   hom: StructureHom | None = None,
                   layout: _HomLayout | None = None) -> "HomElement":
        """Wrap a fresh flat vector of the hom layout (taken, not copied)."""
        el = cls.__new__(cls)
        el._set(flat, source, target, hom,
                layout if layout is not None else _HomLayout(source, target, hom))
        return el

    def _like(self, flat: np.ndarray) -> "HomElement":
        return HomElement._from_flat(flat, self.source, self.target, self.hom, self._layout)

    @property
    def matrices(self) -> tuple[np.ndarray, ...]:
        if self._matrices is None:
            flat, off = self.flat, self._layout.offsets.tolist()
            self._matrices = tuple([flat[a:b].reshape(shape) for a, b, shape
                                    in zip(off, off[1:], self._layout.shapes)])
        return self._matrices

    def _stack(self, atoms: np.ndarray) -> np.ndarray:
        """The matrices at target atoms sharing one shape, as a (k, rows, cols) stack."""
        lay = self._layout
        return self.flat[lay.take(atoms)].reshape(atoms.size, lay.rows[atoms[0]],
                                                  lay.cols[atoms[0]])

    def __repr__(self) -> str:
        return f"HomElement({[m.tolist() for m in self.matrices]!r})"

    def apply(self, v: ModuleElement) -> ModuleElement:
        """T v; a stack of elements (``ModuleElement._from_flat``) maps row by row."""
        if not v.module.same_module(self.source):
            raise ModuleMismatch("argument lives in the wrong module")
        out = np.zeros(v.flat.shape[:-1] + (int(self.target._offsets[-1]),))
        for r, c, mats, cols, rows in self._layout.blocks:
            out[..., rows] = _matvec_rows(self.flat[mats].reshape(-1, r, c), v.flat[..., cols])
        return ModuleElement._from_flat(out, self.target)

    def _check(self, other: "HomElement") -> None:
        mine, theirs = self._layout, other._layout
        if mine is not theirs and not (np.array_equal(mine.rows, theirs.rows)
                                       and np.array_equal(mine.cols, theirs.cols)):
            raise DimensionMismatch("homs have different fiber matrix shapes")

    def __add__(self, other: "HomElement") -> "HomElement":
        if not isinstance(other, HomElement):
            return NotImplemented
        self._check(other)
        return self._like(self.flat + other.flat)

    def __sub__(self, other: "HomElement") -> "HomElement":
        if not isinstance(other, HomElement):
            return NotImplemented
        self._check(other)
        return self._like(self.flat - other.flat)

    def __neg__(self) -> "HomElement":
        return self._like(-self.flat)

    def scale(self, lam: float) -> "HomElement":
        return self._like(self.flat * float(lam))

    def __rmul__(self, u: Fn) -> "HomElement":
        if not isinstance(u, Fn):
            return NotImplemented
        if u.space != self.target.space:
            raise ModuleMismatch("multiplier lives on a different measure space")
        if u.values.ndim != 1:
            raise SpaceMismatch(
                f"the module action takes one function, got a batch of shape {u.values.shape}"
            )
        return self._like(np.repeat(u.values, np.diff(self._layout.offsets)) * self.flat)

    def compose(self, other: "HomElement") -> "HomElement":
        """self after other; only same-space homs compose here."""
        if self.hom is not None or other.hom is not None:
            raise UnsupportedHom("composition across structure homs is not implemented")
        if not other.target.same_module(self.source):
            raise ModuleMismatch("homs are not composable")
        left, right = self._layout, other._layout
        out = _HomLayout(other.source, self.target, None)
        flat = np.zeros(int(out.offsets[-1]))
        for atoms in _split_atoms(left.rows, left.cols, right.cols):
            if out.rows[atoms[0]] and out.cols[atoms[0]]:
                flat[out.take(atoms)] = np.matmul(self._stack(atoms),
                                                  other._stack(atoms)).reshape(atoms.size, -1)
        return HomElement._from_flat(flat, other.source, self.target, None, out)

    @classmethod
    def identity(cls, m: FiberModule) -> "HomElement":
        return cls._eye(m, m)

    @classmethod
    def _eye(cls, source: FiberModule, target: FiberModule,
             hom: StructureHom | None = None) -> "HomElement":
        """The identity matrix at every target atom, whose source fiber (along
        hom) has the target fiber's dimension; built without a per-atom
        ``np.eye``."""
        layout = _HomLayout(source, target, hom)
        d = layout.rows
        if not np.array_equal(d, layout.cols):
            raise DimensionMismatch("identity matrices need equal source and target dimensions")
        atom = np.repeat(np.arange(d.size), d)
        k = np.arange(atom.size) - np.repeat(target._offsets[:-1], d)
        flat = np.zeros(int(layout.offsets[-1]))
        flat[layout.offsets[atom] + k * (d[atom] + 1)] = 1.0
        return cls._from_flat(flat, source, target, hom, layout)

    def _gather(self, atoms: Sequence[int], source: FiberModule,
                target: FiberModule) -> "HomElement":
        """The same-space hom from source to target whose matrix at atom s is
        this hom's matrix at ``atoms[s]``, gathered from the flat vector."""
        atoms = np.asarray(atoms, dtype=np.intp)
        mine = self._layout
        layout = _HomLayout(source, target, None)
        if atoms.size != target.space.n:
            raise DimensionMismatch("one matrix per target atom is required")
        rows, cols = mine.rows[atoms], mine.cols[atoms]
        bad = np.flatnonzero(((rows != layout.rows) | (cols != layout.cols))
                             & ((rows * cols > 0) | (layout.rows * layout.cols > 0)))
        if bad.size:
            t = int(bad[0])
            raise _shape_error(t, (int(rows[t]), int(cols[t])), layout.shapes[t])
        shift = np.repeat(mine.offsets[atoms] - layout.offsets[:-1], np.diff(layout.offsets))
        return HomElement._from_flat(self.flat[np.arange(shift.size) + shift],
                                     source, target, None, layout)

    @classmethod
    def zero(cls, source: FiberModule, target: FiberModule,
             hom: StructureHom | None = None) -> "HomElement":
        layout = _HomLayout(source, target, hom)
        return cls._from_flat(np.zeros(int(layout.offsets[-1])), source, target, hom, layout)

    def to_json(self) -> dict:
        return {"matrices": [m.tolist() for m in self.matrices]}

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

    Closed forms for lp, gram and image-l2 fibers.  On an image-lp fiber
    x -> |A x|_p it is min { |u|_q : A^T u = a }, from the gauge kernel.
    """
    if a.size == 0:
        return 0.0
    return float(_dual_norms(_FiberGroup.single(norm, a.size), a.reshape(1, -1))[0])


def _dual_norms(src: _FiberGroup, rows: np.ndarray) -> np.ndarray:
    """The dual norm of rows[i] under member i of the group, for every i."""
    if isinstance(src.proto, LpNorm):
        return _lp_rows(_lp_conjugate(src.proto.p), rows)
    gram = _as_gram(src.proto, src.dim, src.mats)
    if gram is not None:
        sol = np.linalg.solve(gram, rows[..., None])[..., 0]
        return np.sqrt(np.maximum(np.sum(rows * sol, axis=1), 0.0))
    return _min_dual_norms([(norm, np.eye(row.size), row) for norm, row in zip(src.norms, rows)])[0]


def _min_dual_norms(problems: Sequence[tuple[FiberNorm, np.ndarray, np.ndarray]]
                    ) -> tuple[np.ndarray, list[tuple[np.ndarray, float, np.ndarray] | None]]:
    """min { dual_norm(w) : rows @ w = r } per problem (norm, rows, r),
    infinite when no w reaches r, and per finite problem a minimiser w, a
    certified bound on its dual norm and a certificate x: a vector of the
    span of the rows with norm(x) <= 1, so w.x, the same for every w that
    restricts to r, is a lower bound on the minimum.

    In the lp coordinates of ``_lp_factor``, norm(x) = |M x|_p, so
    dual_norm(w) = min { |u|_q : M^T u = w } with q the conjugate exponent
    (M = I for lp fibers), the whole is min { |u|_q : rows M^T u = r }, and
    w = M^T u for its minimiser u.  One stacked ``_svd`` of rows M^T per
    shape gives the least-norm solution u0, so a direction that the null
    space counts as zero is never inverted into u0; a shifted SVD solves
    2^-shift (rows M^T u = r), and scales rows the same way.  The minimiser is
    the lq nearest point to 0 of u0 plus the null space of rows M^T, whose
    basis from the SVD is orthonormal: ``_lp_gauges``, one call for all
    problems.  The bound is |u|_q.  The gauge's dual point v lies in the
    row space of rows M^T and has |v|_p <= 1; x = rows^T l for the l with
    M rows^T l = v, so M x = v and w.x = u.v = u0.v, the gauge's dual
    value.  With rows = I, x is a maximiser of r.x over norm(x) <= 1.
    """
    out = np.full(len(problems), math.inf)
    found: list[tuple[np.ndarray, float, np.ndarray] | None] = [None] * len(problems)
    lp = [_lp_factor(norm) for norm, _, _ in problems]
    mats = [rows if m is None else rows @ m.T for (_, m), (_, rows, _) in zip(lp, problems)]
    live: list[int] = []
    factors = []
    dual = []
    for idx in _shape_groups(mats):
        us, ss, vts, ranks, shifts = _svd(np.stack([mats[i] for i in idx]))
        for i, u, sv, vt, rank, shift in zip(idx, us, ss, vts, ranks.tolist(), shifts.tolist()):
            (p, m), a, (_, rows, r) = lp[i], mats[i], problems[i]
            if shift:
                a, rows, r = (np.ldexp(x, -shift) for x in (a, rows, r))
            u0 = vt[:rank].T @ (u[:, :rank].T @ r / sv[:rank])
            if np.any(np.abs(a @ u0 - r) > 1e-9 * max(1.0, float(np.abs(r).max()))):
                continue
            live.append(i)
            factors.append((m, rows.T @ u[:, :rank], sv[:rank], vt[:rank]))
            dual.append((_lp_conjugate(p), vt[rank:], u0))
    if dual:
        gauges = _lp_gauges(dual)
        out[live] = gauges.value
        for i, (m, ru, sv, vt), y, bound, v in zip(live, factors, gauges.points,
                                                   gauges.upper, gauges.duals):
            found[i] = (y if m is None else m.T @ y, bound, ru @ (vt @ v / sv))
    return out, found


def _sign_vectors(d: int) -> np.ndarray:
    """The 2^(d-1) sign vectors with first entry +1, as rows."""
    bits = np.arange(2 ** (d - 1))[:, None] >> np.arange(d - 1)
    return np.hstack([np.ones((bits.shape[0], 1)), np.where(bits & 1, -1.0, 1.0)])


def _operator_norms(src: _FiberGroup, tgt: _FiberGroup, a: np.ndarray) -> np.ndarray:
    """Operator norm of each stacked matrix a[i], from member i of src to member i of tgt.

    Closed forms, each evaluated once for the whole stack: zero fibers and
    zero matrices; one-dimensional targets (dual norm of the row, from the
    gauge kernel on image-lp sources); l1 and l-infinity sources (of at most
    16 dimensions), the largest target norm of A s over the vertices s of
    the source ball; euclidean sources and targets (whitened spectral
    norm).  An image-lq target |B y|_q is the lq target of the matrix B A.
    By duality |A|_{X -> lq} is the largest dual norm X*(A^T s) over the
    vertices s of the lq* unit ball: for an l-infinity target, and for an
    l1 target of at most 16 rows when X* has a closed form.  Both vertex
    maxima run ``_vertex_norms``.  Everything else runs the power method,
    whose value is attained at a unit vector: a lower bound, not certified.
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
    if lp_src == 1.0 or (lp_src == math.inf and src.dim <= 16):
        return _vertex_norms(lambda pos, y: tgt.take(pos).norms_of(y), a,
                             np.eye(src.dim) if lp_src == 1.0 else _sign_vectors(src.dim))
    g_src = _as_gram(src.proto, src.dim, src.mats)
    g_tgt = _as_gram(tgt.proto, tgt.dim, tgt.mats)
    if g_src is not None and g_tgt is not None:
        # G = L L^T whitens by L^T, as in ``_lp_factor``: |L^T x|_2^2 = x^T G x.
        l_src, l_tgt = np.linalg.cholesky(g_src), np.linalg.cholesky(g_tgt)
        white = np.swapaxes(l_tgt, -1, -2) @ a @ np.linalg.inv(np.swapaxes(l_src, -1, -2))
        return np.linalg.norm(white, 2, axis=(1, 2))
    q = None if isinstance(tgt.proto, GramNorm) else tgt.proto.p
    if isinstance(tgt.proto, ImageLpNorm):
        a = _matmul_rows(tgt.mats, a)
    closed_dual = isinstance(src.proto, LpNorm) or g_src is not None
    if q == math.inf or (q == 1.0 and a.shape[1] <= 16 and closed_dual):
        m = a.shape[1]
        return _vertex_norms(lambda pos, w: _dual_norms(src.take(pos), w),
                             np.swapaxes(a, 1, 2), np.eye(m) if q == math.inf else _sign_vectors(m))
    return _power_norms(src, q, None if q is not None else tgt.mats, a)


def _vertex_norms(values: Callable, a: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """max over the rows s of ``vertices`` of values(i, a[i] @ s), per matrix a[i].

    ``values(pos, y)`` is the norm of row y[j] under member pos[j] of a
    fiber group.  A norm of a linear image is convex, so its maximum over a
    polytope is taken at a vertex; the vertices are the unit vectors (l1
    balls, up to sign) or the sign vectors (l-infinity balls, up to sign).
    ``_operator_norms`` maximises target norms of A s over the source ball
    (l1 and l-infinity sources) and source dual norms of A^T s over the
    ball dual to the target (l-infinity and l1 targets).  The images come
    from ``np.matmul``, one matrix at a time, in chunks of at most 2^12
    images (one vertex per matrix when the stack is larger).
    """
    k, m = a.shape[:2]
    step = max(1, 2 ** 12 // k)
    best = np.zeros(k)
    for c in range(0, vertices.shape[0], step):
        chunk = vertices[c:c + step]
        images = np.swapaxes(a @ chunk.T, 1, 2).reshape(-1, m)
        each = values(np.repeat(np.arange(k), chunk.shape[0]), images)
        best = np.maximum(best, each.reshape(k, -1).max(axis=1))
    return best


def _power_norms(src: _FiberGroup, q: float | None, grams: np.ndarray | None,
                 a: np.ndarray) -> np.ndarray:
    """max of |A x| over src(x) = 1 by the nonlinear power method, per matrix.

    The target is lq, or gram with the stacked ``grams`` when q is None.
    Each step is x <- LMO_src(A^T u), u the unit dual vector attaining the
    target norm at A x, then x is rescaled to the source unit sphere; the
    value never decreases (Boyd, LAA 9, 1974; Higham, Numer. Math. 62,
    1992).  The starts are the unit vectors, the rows of A and the right
    singular vectors of A.  Every start runs until its value rises by at
    most ``_POWER_RTOL`` relative, for at most ``_POWER_STEPS`` steps, and a
    matrix gets the best value of its starts.  Every kernel works row by
    row, so a value does not depend on the other matrices of the stack.
    """
    k, m, d = a.shape
    starts = np.concatenate([np.broadcast_to(np.eye(d), (k, d, d)), a,
                             np.linalg.svd(a, full_matrices=False)[2]], axis=1)
    s = starts.shape[1]
    owner = np.repeat(np.arange(k), s)
    mats, src = a[owner], src.take(owner)
    grams = None if grams is None else grams[owner]
    best = np.zeros(k * s)
    x = starts.reshape(-1, d)
    nrm = src.norms_of(x)
    act = np.flatnonzero(nrm > 0.0)
    x = x[act] / nrm[act, None]
    val = np.zeros(act.size)
    for step in range(_POWER_STEPS + 1):
        y = _matvec_rows(mats[act], x)
        new = _lp_rows(q, y) if grams is None else _gram_rows(grams[act], y)
        best[act] = np.maximum(best[act], new)
        go = new - val > _POWER_RTOL * new if step else new > 0.0
        act, y, val = act[go], y[go], new[go]
        if act.size == 0 or step == _POWER_STEPS:
            break
        if grams is None:
            u = _attaining_rows(q, y, val)
        else:
            u = _matvec_rows(grams[act], y) / val[:, None]
        live = src.take(act)
        x = _lmo(live, _matvec_rows(np.swapaxes(mats[act], 1, 2), u))
        x = x / live.norms_of(x)[:, None]
    return best.reshape(k, s).max(axis=1)


def _lmo(src: _FiberGroup, g: np.ndarray) -> np.ndarray:
    """Per row i, a maximiser of g[i].x over the unit ball of member i of
    src, up to a positive factor (g[i] != 0).

    Closed forms for lp sources (the vector norming g in the conjugate
    exponent) and euclidean ones (G^-1 g).  On an image-lp ball
    |B x|_p <= 1 it is the certificate x of the dual norm of g from
    ``_min_dual_norms``, at every p: g.x is the certified dual value, within
    the gauge kernel's gap of the dual norm, and B x = v the kernel's dual
    point.
    """
    if isinstance(src.proto, LpNorm):
        q = _lp_conjugate(src.proto.p)
        return _attaining_rows(q, g, _lp_rows(q, g))
    gram = _as_gram(src.proto, src.dim, src.mats)
    if gram is not None:
        return np.linalg.solve(gram, g[..., None])[..., 0]
    _, found = _min_dual_norms([(norm, np.eye(src.dim), row) for norm, row in zip(src.norms, g)])
    if any(f is None for f in found):   # B is not injective
        raise SolverFailed("operator-norm program: an image-lp unit ball is unbounded")
    return np.array([x for _, _, x in found])


def hom_norm(t: HomElement) -> Fn:
    """The pointwise operator norm of a hom, as a function on the space.

    Atomwise this is sup { |T v| : |v| <= 1 } on the fiber, which coincides
    with the least pointwise bound w with |T v| <= w |v|.  Target atoms are
    grouped by the fiber groups of their source and target fibers, and each
    group runs one stacked closed form or power iteration.
    """
    src_gid, src_pos = t.source._group_of
    tgt_gid, tgt_pos = t.target._group_of
    amap = t._layout.amap
    out = np.zeros(t.target.space.n)
    for atoms in _split_atoms(src_gid[amap], tgt_gid):
        src = t.source._groups[src_gid[amap[atoms[0]]]].take(src_pos[amap[atoms]])
        tgt = t.target._groups[tgt_gid[atoms[0]]].take(tgt_pos[atoms])
        out[atoms] = _operator_norms(src, tgt, t._stack(atoms))
    return Fn(out, t.target.space)


def z_module(system: DualSystem) -> FiberModule:
    """The pairing space Z realized as a module: scalar fibers with |.|"""
    structure = FiniteFStructure(system.space, system.base.u_kind, system.z_kind)
    return FiberModule(structure, (Fiber(1, LpNorm(1.0)),) * system.space.n)


def dual_module(m: FiberModule, system: DualSystem) -> FiberModule:
    """Hom(M, Z) as a W-normed module: dual fibers with dual norms.

    An lp fiber's dual is the conjugate exponent, one shared fiber per
    group; a euclidean group (gram or image-l2, its gram from ``_as_gram``)
    has the inverse grams as duals, from one stacked ``np.linalg.inv``
    validated by one ``_check_grams`` call.  The first image-lp fiber with
    p != 2 is refused; generated modules have them only at rank-deficient
    atoms (a graph's parallel edges).
    """
    a = min((g.atoms[0] for g in m._groups
             if isinstance(g.proto, ImageLpNorm) and g.proto.p != 2.0), default=None)
    if a is not None:
        raise UnsupportedHom(
            f"atom {a} ({m.space.atoms[a]!r}) has an image-l{m.fibers[a].norm.p:g} fiber:"
            " dual fibers are implemented for lp, gram and image-l2 norms, and a generated"
            " module has image-lp fibers only at rank-deficient atoms with p != 2"
        )
    structure = FiniteFStructure(system.space, m.structure.u_kind, system.w_kind)
    fibers = list(m.fibers)
    for g in m._groups:
        if isinstance(g.proto, LpNorm):
            dual = Fiber(g.dim, LpNorm(_lp_conjugate(g.proto.p)))
            for a in g.atoms:
                fibers[a] = dual
            continue
        gram = _as_gram(g.proto, g.dim, g.mats)
        singular = np.flatnonzero(_check_grams(gram)[1]) if isinstance(g.proto, ImageLpNorm) else ()
        if len(singular):
            raise InvalidStructure(f"atom {g.atoms[singular[0]]}: image-l2 matrix is not injective")
        norms, defect = _stack_gram_norms(np.linalg.inv(gram) if g.dim else gram)
        if defect is not None:
            raise InvalidStructure(defect[1])
        for a, norm in zip(g.atoms.tolist(), norms):
            fibers[a] = Fiber(g.dim, norm)
    return FiberModule(structure, tuple(fibers))


def dual_element(m: FiberModule, rows: Sequence[Sequence[float]],
                 system: DualSystem) -> HomElement:
    """A functional on m as a HomElement into the scalar Z fibers: row a
    of ``rows`` is the functional on the fiber at atom a."""
    return HomElement([np.asarray(r, dtype=float).reshape(1, -1) for r in rows],
                      m, z_module(system))


def pairing(omega: HomElement, v: ModuleElement) -> Fn:
    """<omega, v> as a function on the space (omega a functional on v's module)."""
    out = omega.apply(v)
    on = omega.target._dim_array > 0
    values = np.zeros(on.size)
    values[on] = out.flat[omega.target._offsets[:-1][on]]
    return Fn(values, omega.target.space)


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
    """Result of a Hahn-Banach extension: ``functional`` is the extension
    as a row functional per atom, the one of least dual norm."""

    functional: HomElement


def hahn_banach_extend(n: Submodule, f_rows: Sequence[Sequence[float]], gauge: Fn) -> Extension:
    """Extend a dominated functional from a submodule to the whole module.

    ``f_rows[a]`` lists the values of the functional on the rows B of
    ``n.bases[a]``; the gauge is p(v) = gauge(a) * |v| in each fiber.  One
    call of ``_min_dual_norms`` solves min { N*(w) : B w = f } on every
    atom, N* the dual fiber norm.  Its value, the need, decides domination,
    which holds iff the need is at most gauge(a) * (1 + 1e-9);
    DominationViolated is raised otherwise, also for values that no linear
    functional takes on a rank-deficient basis.  Its minimiser is the
    extension (Hahn-Banach in finite dimensions as minimum-norm
    interpolation): it restricts to f, and its dual norm, the need, is at
    most the gauge.  So the tie-break is the minimum-dual-norm extension,
    unique on euclidean fibers and on lp fibers with 1 < p < infinity; on
    l1 and l-infinity gauges (plain or image) it is the optimal vertex that
    the simplex of ``_kernels`` reaches by Bland's rule from the
    least-norm particular solution, which it keeps when no pivot improves
    on it: extending f(e1) = 1 from span{e1} in a two-dimensional l1 fiber
    under gauge 1 gives (1, 0).  Atoms without basis rows get the zero
    functional.  Each group of lp gauges of one exponent and shape costs
    one simplex or stacked Newton call, euclidean gauges a closed form.
    Every answer is checked: a restriction residual above 1e-9 (relative)
    or a dual-norm bound above gauge(a) * (1 + 1e-9) raises SolverFailed
    instead of returning a wrong extension.  Errors come in atom order: a
    domination failure on an atom beats a shape error on a later one.
    """
    m = n.module
    if gauge.space != m.space:
        raise ModuleMismatch("gauge lives on a different measure space")
    if not np.all(gauge.values >= 0.0):   # NaN fails every comparison
        raise DominationViolated("gauge must be nonnegative")
    gauges = [float(x) for x in gauge.values]
    given: list[tuple[np.ndarray, np.ndarray]] = []
    shape_error = None
    for a in range(m.space.n):
        b = np.array(n.bases[a], dtype=float)
        r = np.array(f_rows[a], dtype=float).reshape(-1)
        if r.shape[0] != b.shape[0]:
            shape_error = DimensionMismatch(
                f"atom {a}: {b.shape[0]} basis rows but {r.shape[0]} functional values"
            )
            break
        given.append((b, r))
    tested = [a for a, (_, r) in enumerate(given) if r.size]
    needs, found = _min_dual_norms([(m.fibers[a].norm, *given[a]) for a in tested])
    rows = [np.zeros((1, fiber.dim)) for fiber in m.fibers]
    for a, need, ext in zip(tested, needs, found):
        if need > gauges[a] * (1.0 + 1e-9):
            raise DominationViolated(
                f"atom {a}: functional exceeds the gauge on the submodule"
                f" (it needs a gauge of at least {need:.6g}, got {gauges[a]:.6g})"
            )
        w, bound, _ = ext
        b, r = given[a]
        residual = float(np.abs(b @ w - r).max())
        if residual > 1e-9 * max(1.0, float(np.abs(r).max())) or bound > gauges[a] * (1.0 + 1e-9):
            raise SolverFailed(
                f"atom {a}: the extension misses the functional by {residual:.3g} or has"
                f" dual norm {bound:.9g} over the gauge {gauges[a]:.9g}"
            )
        rows[a] = w.reshape(1, -1)
    if shape_error is not None:
        raise shape_error
    functional = HomElement(rows, m, z_module(DualSystem.default(m.structure)))
    return Extension(functional)


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
    return HomElement._from_flat(flat, m, z_module(system))


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
    return _bidual_embed(m, dual_module(m, system), system)


def _bidual_embed(m: FiberModule, dual: FiberModule, system: DualSystem) -> HomElement:
    """``bidual_embed`` from M* = dual_module(m, system), built once by the caller."""
    inverted = DualSystem(
        FiniteFStructure(system.space, system.base.u_kind, system.w_kind),
        system.base.v_kind, system.z_kind,
    )
    return HomElement._eye(m, dual_module(dual, inverted))


def is_reflexive(m: FiberModule, system: DualSystem | None = None) -> bool:
    """True iff J: M -> M** is surjective, certified exactly.

    J is surjective iff every fiber matrix of J is square and of full rank
    under the package-wide rank rule, decided with one singular-value call
    per fiber dimension on stacks sliced from J's flat vector.
    Finite-dimensional fibers always pass; the certificate checks the
    construction of J rather than citing the dimension count.
    """
    return _surjective(bidual_embed(m, system))


def _surjective(j: HomElement) -> bool:
    """The certificate of ``is_reflexive`` on the bidual embedding j."""
    lay = j._layout
    if not np.array_equal(lay.rows, lay.cols):
        return False
    return all(np.all(_svd(j._stack(atoms), compute_uv=False)[3] == lay.rows[atoms[0]])
               for atoms in _split_atoms(lay.rows))


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
        scale = max(1.0, float(np.abs(img).max(initial=0.0)))
        if np.any(np.abs(resid) > 1e-9 * scale):
            raise InconsistentGenerators(
                f"atom {t}: generator images are not consistent with a linear map"
            )
        matrices.append(sol.T)
    return HomElement(matrices, source, target, phi)
