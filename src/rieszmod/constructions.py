"""Generative constructions: modules from sublinear maps, and functors.

The central construction takes a sublinear map psi from R^d into nonnegative
functions, given per atom by a matrix as x -> ||M_a x||_p, and produces the
module it generates: per atom, the quotient of R^d by the null space of M_a,
normed by the seminorm itself.  The universal property, pushforwards along
structure homs, pullbacks, completion, and the dual-embedding isometry are
all built on top of it.
"""

from __future__ import annotations

import copy
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Sequence

import numpy as np

from .errors import (
    BoundViolated,
    CompressionViolated,
    InconsistentGenerators,
    InputError,
    InvalidStructure,
)
from .homdual import HomElement, StructureHom, dual_module, extend_from_generators
from .modules import (
    Fiber,
    FiberModule,
    ImageLpNorm,
    LpNorm,
    ModuleElement,
    _gram_norms,
    _split_atoms,
    kernel_basis,
    pointwise_norm,
    row_ranks,
)
from .spaces import (
    DualSystem,
    FiniteFStructure,
    FiniteMeasureSpace,
    Fn,
    Kind,
    _lp_rows,
    _number_type,
    _require,
)

# --------------------------------------------------------------------------
# Graphs and sublinear maps
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Graph:
    """An undirected weighted graph; vertices double as measure-space atoms."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        n = len(self.vertices)
        if len(set(self.vertices)) != n:
            raise InvalidStructure("duplicate vertex names")
        for u, v, w in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidStructure("edge endpoint out of range")
            if u == v:
                raise InvalidStructure("self-loops are not allowed")
            if w <= 0 or not math.isfinite(w):
                raise InvalidStructure("edge weights must be strictly positive and finite")

    def neighbors(self, i: int) -> list[tuple[int, float]]:
        return [(v if u == i else u, w) for u, v, w in self.edges if i in (u, v)]

    def to_json(self) -> dict:
        return {"vertices": list(self.vertices),
                "edges": [{"u": self.vertices[u], "v": self.vertices[v], "w": float(w)}
                          for u, v, w in self.edges]}

    @classmethod
    def from_json(cls, obj: Any, where: str = "$") -> "Graph":
        _require(isinstance(obj, dict) and "vertices" in obj and "edges" in obj,
                 "graph must be {\"vertices\": [...], \"edges\": [...]}", where)
        vertices = obj["vertices"]
        _require(isinstance(vertices, list) and all(isinstance(v, str) for v in vertices),
                 "vertices must be a list of strings", where + ".vertices")
        _require(isinstance(obj["edges"], list), "edges must be a list", where + ".edges")
        index = {name: i for i, name in enumerate(vertices)}
        edges = []
        for i, e in enumerate(obj["edges"]):
            here = f"{where}.edges[{i}]"
            _require(isinstance(e, dict) and "u" in e and "v" in e, "edge needs 'u' and 'v'", here)
            _require(e["u"] in index, f"unknown vertex {e['u']!r}", here + ".u")
            _require(e["v"] in index, f"unknown vertex {e['v']!r}", here + ".v")
            w = e.get("w", 1.0)
            _require(_number_type(type(w)), "edge weight must be a number", here + ".w")
            _require(0 < w <= sys.float_info.max,   # exact for JSON integers beyond the range
                     "edge weights must be strictly positive and finite", here + ".w")
            edges.append((index[e["u"]], index[e["v"]], float(w)))
        try:
            return cls(tuple(vertices), tuple(edges))
        except InvalidStructure as exc:
            raise InputError(exc.message, path=where) from exc


@dataclass(frozen=True, eq=False)
class SublinearMap:
    """The symmetric sublinear map x -> (||M_a x||_p)_a into nonnegative functions.

    ``matrices`` holds one real matrix M_a per atom, all with ``domain_dim``
    columns; a map of this form is sublinear by construction and its null
    spaces are exact.  The rows of all matrices are stored once, in one
    read-only stack, and ``matrices`` are views of it.  ``evaluate`` needs a
    space, which ``on`` binds in a copy of the map, as ``generate_module``
    does for each module it builds.  Matrices that are not 2-D, that
    disagree on the domain dimension or that hold NaN or an infinity are
    refused with InvalidStructure, naming the first faulty matrix.
    """

    matrices: tuple[np.ndarray, ...]
    p: float
    _space = None   # the space evaluate works on, bound by ``on``

    def __post_init__(self):
        mats = []
        for a, m in enumerate(self.matrices):
            try:
                arr = np.asarray(m, dtype=float)
            except (TypeError, ValueError) as exc:
                raise _refusal(mats, f"seminorm matrix {a} must be a matrix of numbers") from exc
            if arr.ndim != 2:
                raise _refusal(mats, f"seminorm matrix {a} must be 2-D, got shape {arr.shape}")
            mats.append(arr)
        same = len({m.shape[1] for m in mats}) == 1
        rows = np.concatenate(mats) if same else None
        if not same or not np.isfinite(rows).all():
            raise _refusal(mats, "all seminorm matrices must share the domain dimension")
        LpNorm(self.p)  # refuses an exponent outside [1, inf]
        self._store(rows, np.array([m.shape[0] for m in mats]))

    @classmethod
    def _trusted(cls, rows: np.ndarray, counts: np.ndarray, p: float) -> "SublinearMap":
        """Wrap a row stack without copying or checking it: only for finite 2-D
        stacks the library built and no one else holds, p in [1, inf]."""
        psi = cls.__new__(cls)
        object.__setattr__(psi, "p", p)
        psi._store(rows, counts)
        return psi

    def _store(self, rows: np.ndarray, counts: np.ndarray) -> None:
        rows.setflags(write=False)
        object.__setattr__(self, "matrices", _row_views(rows, counts))
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_counts", counts)

    @property
    def domain_dim(self) -> int:
        return self._rows.shape[1]

    @cached_property
    def _groups(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per row count, the atoms with that many rows and their row indices."""
        counts = self._counts
        starts = np.cumsum(counts) - counts
        return [(atoms, starts[atoms, None] + np.arange(counts[atoms[0]]))
                for atoms in _split_atoms(counts) if counts[atoms[0]]]

    def on(self, space: FiniteMeasureSpace) -> "SublinearMap":
        """This map with its evaluation bound to ``space``; self is unchanged."""
        if self._counts.size != space.n:
            raise InvalidStructure(f"sublinear map covers {self._counts.size} atoms,"
                                   f" space has {space.n}")
        bound = copy.copy(self)
        object.__setattr__(bound, "_space", space)
        return bound

    def evaluate(self, v: Sequence[float] | np.ndarray) -> Fn:
        """psi(v) on the bound space: one product with the row stack, then
        one ``_lp_rows`` call per row count.  Atoms without rows give 0."""
        if self._space is None:
            raise InvalidStructure("sublinear map is not bound to a space; see SublinearMap.on")
        y = self._rows @ np.asarray(v, dtype=float)
        out = np.zeros(self._counts.size)
        for atoms, rows in self._groups:
            out[atoms] = _lp_rows(self.p, y[rows])
        return Fn(out, self._space)


def _refusal(mats: list[np.ndarray], message: str) -> InvalidStructure:
    """The refusal of the first faulty matrix: a NaN or an infinity in one of
    ``mats``, the matrices read so far, comes before ``message``."""
    bad = [a for a, m in enumerate(mats) if not np.isfinite(m).all()]
    return InvalidStructure(f"seminorm matrix {bad[0]} has a NaN or infinite entry" if bad
                            else message)


def _row_views(rows: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per atom a, the view of its ``counts[a]`` consecutive rows of ``rows``."""
    ends = np.cumsum(counts).tolist()
    return tuple([rows[b - c:b] for b, c in zip(ends, counts.tolist())])


def graph_gradient(graph: Graph, p: float) -> SublinearMap:
    """The discrete upper gradient on a weighted graph.

    psi_p(f)(x) = (sum over neighbors y of w_xy |f(y) - f(x)|^p)^(1/p), the
    standard discrete model of a p-gradient; realized per vertex x by the
    matrix with rows w_xy^(1/p) (e_y - e_x).
    """
    if math.isnan(p) or p < 1.0:
        raise InvalidStructure(f"gradient exponent must lie in [1, inf], got {p!r}")
    n = len(graph.vertices)
    # Each edge gives a row to both its ends; a stable sort by owner puts
    # every vertex's rows in edge order, the order Graph.neighbors gives.
    ends = np.array([(u, v) for u, v, _ in graph.edges], dtype=np.intp).reshape(-1, 2)
    scales = np.repeat([1.0 if p == math.inf else w ** (1.0 / p) for *_, w in graph.edges], 2)
    order = np.argsort(ends.reshape(-1), kind="stable")
    owner, scale = ends.reshape(-1)[order], scales[order]
    at = np.arange(order.size)
    rows = np.zeros((order.size, n))
    rows[at, ends[:, ::-1].reshape(-1)[order]] = scale
    rows[at, owner] = -scale
    return SublinearMap._trusted(rows, np.bincount(owner, minlength=n), p)


def seminorm_family(matrices: Sequence[np.ndarray], p: float = 2.0) -> SublinearMap:
    """Per-atom seminorms x -> ||M_a x||_p given directly by their matrices."""
    return SublinearMap(tuple(matrices), p)


# --------------------------------------------------------------------------
# Generated modules
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratedModule:
    """The module generated by a sublinear map, with its generator map.

    ``lifts[a]`` is the coordinate matrix of the fiber at atom a: its rows
    span the directions the seminorm sees (its null space is exactly the
    seminorm's), so v and w land on the same fiber vector iff psi cannot
    tell them apart at that atom.  The rows are a maximal independent
    subset of the seminorm matrix's own rows, which keeps integer data
    exact.  ``kernels[a]`` spans the null directions; it is computed on
    first read.  The fiber norms evaluate the original seminorm through
    these coordinates, so the pointwise norm of a generator image
    reproduces psi.
    """

    module: FiberModule
    psi: SublinearMap
    lifts: tuple[np.ndarray, ...]

    @cached_property
    def kernels(self) -> tuple[np.ndarray, ...]:
        return tuple(kernel_basis(m) for m in self.psi.matrices)

    @cached_property
    def _rows(self) -> np.ndarray:
        """The lifts' rows in one stack; ``generate_module`` sets the one they view."""
        return np.concatenate(self.lifts)

    def generator_map(self, v: Sequence[float] | np.ndarray) -> ModuleElement:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.psi.domain_dim,):
            raise InputError(f"expected a vector of length {self.psi.domain_dim}")
        return ModuleElement._from_flat(self._rows @ v, self.module)

    def generator_images(self) -> list[ModuleElement]:
        return [self.generator_map(e) for e in np.eye(self.psi.domain_dim)]


def _lift_rows(mats: tuple[np.ndarray, ...]) -> list[list[int]]:
    """Per matrix, the rows its fiber keeps, in row order.

    One ``row_ranks`` call decides every rank r, and a matrix of full row
    rank keeps all its rows.  Else r steps of a pivoted Gram-Schmidt pick
    them: each takes the row of largest residual norm (the first on ties)
    and removes its direction from every residual.  So a tiny row does not
    displace a large one it depends on, which would make the other rows'
    coefficients, and a gram fiber's condition number, blow up.
    """
    ranks = row_ranks(mats)
    sel = [list(range(m.shape[0])) if r == m.shape[0] else [] for m, r in zip(mats, ranks)]
    for a, (m, r) in enumerate(zip(mats, ranks)):
        if 0 < r < m.shape[0]:
            _, e = np.frexp(np.abs(m).max())  # a power-of-two scale: squares cannot overflow
            res, picked = np.ldexp(m, -e), []
            for _ in range(r):
                j = int(np.argmax(np.einsum("kd,kd->k", res, res)))
                q = res[j] / np.linalg.norm(res[j])
                res -= np.outer(res @ q, q)
                picked.append(j)
            sel[a] = sorted(picked)
    return sel


def generate_module(psi: SublinearMap, structure: FiniteFStructure) -> GeneratedModule:
    """Build the module generated by psi over the given structure.

    Per atom: the fiber is the quotient of R^d by the null space of that
    atom's seminorm matrix, normed by the seminorm of a lifted
    representative.  The generator map's two defining properties (pointwise
    norm equal to psi, images spanning every fiber) then hold by
    construction; both are re-verified in the test suite.  The module's
    ``psi`` is a copy of psi bound to the structure's space; psi itself is
    left as it was.  The lifts are views of psi's own row stack when every
    atom keeps all its rows, else of one gather of the kept rows.  Fibers
    are in lowest terms: an atom that keeps all its r rows (rank 0
    included, and every atom of a graph without parallel edges) gets the
    shared ``Fiber(r, LpNorm(p))``.  A rank-deficient atom keeps a factor
    R with R lift = M_a: ``ImageLpNorm(R, p)``, or the gram R^T R at p = 2.
    """
    psi = psi.on(structure.space)
    sel = _lift_rows(psi.matrices)
    kept = np.array([len(s) for s in sel])
    if np.array_equal(kept, psi._counts):
        rows, lifts = psi._rows, psi.matrices
    else:
        starts = (np.cumsum(psi._counts) - psi._counts).tolist()
        rows = psi._rows[[start + i for start, s in zip(starts, sel) for i in s]]
        rows.setflags(write=False)
        lifts = _row_views(rows, kept)
    deficient = np.flatnonzero((kept > 0) & (kept < psi._counts)).tolist()
    kept = kept.tolist()
    lp = {r: Fiber(r, LpNorm(psi.p)) for r in set(kept)}
    fibers = [lp[r] for r in kept]
    # The factor R of a rank-deficient atom, R lift = M_a: kept rows get
    # exact basis rows, only the rest are solved.
    factors = []
    for a in deficient:
        m_a, s = psi.matrices[a], sel[a]
        factor = np.zeros((m_a.shape[0], len(s)))
        factor[s, range(len(s))] = 1.0
        rest = sorted(set(range(m_a.shape[0])).difference(s))
        factor[rest] = np.linalg.lstsq(lifts[a].T, m_a[rest].T, rcond=None)[0].T
        factors.append(factor)
    norms, defect = (_gram_norms([f.T @ f for f in factors]) if psi.p == 2.0
                     else ([ImageLpNorm(f, psi.p) for f in factors], None))
    if defect is not None:
        raise InvalidStructure(defect[1])
    for a, norm in zip(deficient, norms):
        fibers[a] = Fiber(kept[a], norm)
    gen = GeneratedModule(FiberModule(structure, tuple(fibers)), psi, lifts)
    object.__setattr__(gen, "_rows", rows)
    return gen


def universal_factor(
    gen: GeneratedModule,
    target: FiberModule,
    s: Callable[[np.ndarray], ModuleElement],
    b: Fn,
    phi: StructureHom | None = None,
) -> HomElement:
    """The unique hom F with F(generator of v) = s(v), given |s(v)| <= b phi(psi(v)).

    The domination bound is checked on a basis of the domain (BoundViolated
    on failure); it forces s to vanish on each atom's null directions, which
    is what makes the factor well defined.  The factor is
    ``extend_from_generators`` sending the generator images of the domain
    basis to their images under s.  Images it finds inconsistent with a
    linear map, which do not vanish on psi's null directions, raise
    BoundViolated.
    """
    d = gen.psi.domain_dim
    if phi is None and target.space != gen.module.space:
        raise InvalidStructure("target lives over a different space; pass the structure hom")
    basis_images = [s(e) for e in np.eye(d)]
    for e, e_img in zip(np.eye(d), basis_images):
        allowed = gen.psi.evaluate(e)
        allowed = phi.apply(allowed) if phi is not None else allowed
        lhs = pointwise_norm(e_img)
        bound = Fn(b.values * allowed.values, lhs.space)
        scale = max(1.0, bound.sup_abs, lhs.sup_abs)
        if np.any(lhs.values > bound.values + 1e-9 * scale):
            raise BoundViolated("images of the domain basis exceed the stated bound")
    try:
        return extend_from_generators(gen.generator_images(), basis_images, target, phi)
    except InconsistentGenerators as exc:
        raise BoundViolated(exc.message) from exc


# --------------------------------------------------------------------------
# Pushforward, pullback, completion, dual embedding
# --------------------------------------------------------------------------

def pushforward_module(phi: StructureHom, m: FiberModule) -> tuple[FiberModule, HomElement]:
    """Transport a module along a structure hom: fibers copy along the atom map.

    Returns the transported module together with the map v -> phi_* v, whose
    pointwise norm satisfies |phi_* v| = phi(|v|) exactly (fiber values are
    copied, not recomputed).
    """
    if m.structure != phi.source:
        raise InvalidStructure("module does not live over the hom's source structure")
    pm = FiberModule(phi.target, tuple(m.fibers[a] for a in phi.atom_map))
    return pm, HomElement._eye(m, pm, phi)


def pushforward_hom(phi: StructureHom, t: HomElement,
                    pm: FiberModule, pn: FiberModule) -> HomElement:
    """Transport a hom between modules along phi: matrices copy along the map."""
    return t._gather(phi.atom_map, pm, pn)


def complete(m: FiberModule) -> tuple[FiberModule, HomElement]:
    """The metric completion; finite modules are already complete, so identity.

    Exists to exercise the universal property: any isometric dense-range
    embedding into a complete module factors through it uniquely.
    """
    return m, HomElement.identity(m)


def pullback_module(
    point_map: Sequence[int],
    m: FiberModule,
    source_structure: FiniteFStructure,
) -> tuple[FiberModule, HomElement, float]:
    """Pull a module back along a point map of measure spaces.

    ``point_map[x]`` names the atom of m's space that source atom x lands on.
    Realized as the pushforward along the precomposition hom; also returns
    the compression constant max_t (pushforward mass at t) / (mass at t),
    which is finite whenever all weights are positive (CompressionViolated
    guards the degenerate configurations that cannot arise here).
    """
    hom = StructureHom(m.structure, source_structure, tuple(point_map))
    pushed = np.bincount(hom.atom_map, weights=source_structure.space.mu, minlength=m.space.n)
    c = float(np.max(pushed / m.space.mu))
    if not math.isfinite(c):
        raise CompressionViolated("no finite compression constant exists")
    pm, pf = pushforward_module(hom, m)
    return pm, pf, c


def dual_embed(phi: StructureHom, m: FiberModule,
               system: DualSystem | None = None) -> HomElement:
    """The canonical map from the pushforward of the dual into the dual of
    the pushforward.

    Both sides have, at target atom t, the dual fiber of m at the mapped
    atom, so the map is the identity matrix per atom; the content (pairing
    compatibility and pointwise-norm preservation) is verified by tests
    through independent dual-norm evaluation.
    """
    if system is None:
        system = DualSystem.default(m.structure)
    dual_src = dual_module(m, system)
    # phi's target space with the dual's kinds.
    like = dual_src.structure
    target = FiniteFStructure(phi.target.space, like.u_kind, like.v_kind)
    pushed_dual, _ = pushforward_module(StructureHom(like, target, phi.atom_map), dual_src)
    pm, _ = pushforward_module(phi, m)
    system_tgt = DualSystem(pm.structure, system.w_kind, system.z_kind)
    dual_of_pushed = dual_module(pm, system_tgt)
    return HomElement._eye(pushed_dual, dual_of_pushed)


def cotangent_module(graph: Graph, p: float,
                     weights: Sequence[float] | None = None) -> tuple[FiniteFStructure, GeneratedModule]:
    """The module generated by the graph p-gradient, with its differential.

    The measure space puts the given weights (default 1) on the vertices;
    the structure takes the sup distance on multipliers and the L^p distance
    on norms.  The generator map is the differential d, and |df| = psi_p(f).
    """
    if weights is None:
        weights = [1.0] * len(graph.vertices)
    space = FiniteMeasureSpace.make(graph.vertices, weights)
    v_kind = Kind("Linf") if p == math.inf else Kind("Lp", p)
    structure = FiniteFStructure(space, Kind("Linf"), v_kind)
    return structure, generate_module(graph_gradient(graph, p), structure)
