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
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Sequence

import numpy as np

from .errors import BoundViolated, CompressionViolated, InputError, InvalidStructure
from .homdual import HomElement, StructureHom, dual_module
from .modules import (
    Fiber,
    FiberModule,
    ImageLpNorm,
    LpNorm,
    ModuleElement,
    _gram_norms,
    _split_atoms,
    independent_rows,
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
                raise InvalidStructure("edge weights must be strictly positive")

    def neighbors(self, i: int) -> list[tuple[int, float]]:
        out = []
        for u, v, w in self.edges:
            if u == i:
                out.append((v, w))
            elif v == i:
                out.append((u, w))
        return out

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [
                {"u": self.vertices[u], "v": self.vertices[v], "w": float(w)}
                for u, v, w in self.edges
            ],
        }

    @classmethod
    def from_json(cls, obj: Any, where: str = "$") -> "Graph":
        _require(isinstance(obj, dict) and "vertices" in obj and "edges" in obj,
                 "graph must be {\"vertices\": [...], \"edges\": [...]}", where)
        vertices = obj["vertices"]
        _require(isinstance(vertices, list) and all(isinstance(v, str) for v in vertices),
                 "vertices must be a list of strings", where + ".vertices")
        index = {name: i for i, name in enumerate(vertices)}
        edges = []
        for i, e in enumerate(obj["edges"]):
            here = f"{where}.edges[{i}]"
            _require(isinstance(e, dict) and "u" in e and "v" in e, "edge needs 'u' and 'v'", here)
            _require(e["u"] in index, f"unknown vertex {e['u']!r}", here + ".u")
            _require(e["v"] in index, f"unknown vertex {e['v']!r}", here + ".v")
            w = e.get("w", 1.0)
            _require(isinstance(w, (int, float)), "edge weight must be a number", here + ".w")
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
    spaces are exact.  ``evaluate`` is the stacked evaluation of all atoms at
    once; it needs a space, which ``on`` binds in a copy of the map, as
    ``generate_module`` does for each module it builds.  Matrices that are
    not 2-D, that disagree on the domain dimension or that hold NaN or an
    infinity are refused with InvalidStructure.
    """

    matrices: tuple[np.ndarray, ...]
    p: float
    kind: str | None = None
    evaluate: _MatrixEval = field(init=False, repr=False)

    def __post_init__(self):
        fixed = []
        for a, m in enumerate(self.matrices):
            try:
                arr = np.array(m, dtype=float)
            except (TypeError, ValueError) as exc:
                raise InvalidStructure(f"seminorm matrix {a} must be a matrix of numbers") from exc
            if arr.ndim != 2:
                raise InvalidStructure(f"seminorm matrix {a} must be 2-D, got shape {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise InvalidStructure(f"seminorm matrix {a} has a NaN or infinite entry")
            arr.setflags(write=False)
            fixed.append(arr)
        if len({m.shape[1] for m in fixed}) != 1:
            raise InvalidStructure("all seminorm matrices must share the domain dimension")
        object.__setattr__(self, "matrices", tuple(fixed))
        object.__setattr__(self, "evaluate", _MatrixEval(self.matrices, LpNorm(self.p)))

    @property
    def domain_dim(self) -> int:
        return self.matrices[0].shape[1]

    def on(self, space: FiniteMeasureSpace) -> "SublinearMap":
        """This map with its evaluation bound to ``space``; self is unchanged."""
        bound = copy.copy(self)
        object.__setattr__(bound, "evaluate", self.evaluate.on(space))
        return bound


def graph_gradient(graph: Graph, p: float) -> SublinearMap:
    """The discrete upper gradient on a weighted graph.

    psi_p(f)(x) = (sum over neighbors y of w_xy |f(y) - f(x)|^p)^(1/p), the
    standard discrete model of a p-gradient; realized per vertex x by the
    matrix with rows w_xy^(1/p) (e_y - e_x).
    """
    if math.isnan(p) or p < 1.0:
        raise InvalidStructure(f"gradient exponent must lie in [1, inf], got {p!r}")
    n = len(graph.vertices)
    # One pass over the edges, in the row order Graph.neighbors gives.
    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for u, v, w in graph.edges:
        adjacency[u].append((v, w))
        adjacency[v].append((u, w))
    mats = []
    for x, nbrs in enumerate(adjacency):
        m = np.zeros((len(nbrs), n))
        for r, (y, w) in enumerate(nbrs):
            scale = 1.0 if p == math.inf else w ** (1.0 / p)
            m[r, y], m[r, x] = scale, -scale
        mats.append(m)
    return SublinearMap(tuple(mats), p, "graph_gradient")


def seminorm_family(matrices: Sequence[np.ndarray], p: float = 2.0) -> SublinearMap:
    """Per-atom seminorms x -> ||M_a x||_p given directly by their matrices."""
    return SublinearMap(tuple(matrices), p, "seminorm_family")


class _MatrixEval:
    """Evaluate a matrix-realized sublinear map on the space it is bound to.

    The per-atom matrices are stacked into one, so an evaluation is a single
    matrix-vector product followed by one ``_lp_rows`` call per row count:
    ``groups`` holds, per count, the atoms with that many rows and the
    indices of their stacked rows, one row per atom.  Atoms without rows
    evaluate to 0.
    """

    def __init__(self, mats: tuple[np.ndarray, ...], lp: LpNorm):
        counts = np.array([m.shape[0] for m in mats])
        starts = np.cumsum(counts) - counts
        self.n = len(mats)
        self.stacked = np.concatenate(mats, axis=0)
        self.groups = [(atoms, starts[atoms, None] + np.arange(counts[atoms[0]]))
                       for atoms in _split_atoms(counts) if counts[atoms[0]]]
        self.p = lp.p
        self.space: FiniteMeasureSpace | None = None

    def on(self, space: FiniteMeasureSpace) -> "_MatrixEval":
        """A copy bound to ``space``, sharing the stacked matrices."""
        if self.n != space.n:
            raise InvalidStructure(
                f"sublinear map covers {self.n} atoms, space has {space.n}"
            )
        bound = copy.copy(self)
        bound.space = space
        return bound

    def __call__(self, v: np.ndarray) -> Fn:
        if self.space is None:
            raise InvalidStructure("sublinear map is not bound to a space; see SublinearMap.on")
        y = self.stacked @ np.asarray(v, dtype=float)
        out = np.zeros(self.n)
        for atoms, rows in self.groups:
            out[atoms] = _lp_rows(self.p, y[rows])
        return Fn(out, self.space)


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

    def generator_map(self, v: Sequence[float] | np.ndarray) -> ModuleElement:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.psi.domain_dim,):
            raise InputError(f"expected a vector of length {self.psi.domain_dim}")
        return ModuleElement([c @ v for c in self.lifts], self.module)

    def generator_images(self) -> list[ModuleElement]:
        return [self.generator_map(e) for e in np.eye(self.psi.domain_dim)]


def _lift_rows(mats: tuple[np.ndarray, ...]) -> list[list[int]]:
    """Per matrix, the rows its fiber keeps, in row order.

    One ``row_ranks`` call decides every rank.  A matrix of full row rank
    keeps all its rows, as the greedy of ``independent_rows`` would: by
    interlacing, each leading block of rows is then of full row rank too.
    A rank-deficient one runs that greedy over its rows in the column-pivot
    order of a pivoted QR of its transpose, so a tiny row does not displace
    a large one it depends on (which would make the other rows'
    coefficients, and a gram fiber's condition number, blow up).
    """
    from scipy.linalg import qr

    ranks = row_ranks(mats)
    sel = [list(range(m.shape[0])) if r == m.shape[0] else [] for m, r in zip(mats, ranks)]
    short = [a for a, (m, r) in enumerate(zip(mats, ranks)) if 0 < r < m.shape[0]]
    orders = [qr(mats[a].T, pivoting=True, mode="r")[1] for a in short]
    kept = independent_rows([mats[a][order] for a, order in zip(short, orders)])
    for a, order, k in zip(short, orders, kept):
        sel[a] = sorted(order[k].tolist())
    return sel


def generate_module(psi: SublinearMap, structure: FiniteFStructure) -> GeneratedModule:
    """Build the module generated by psi over the given structure.

    Per atom: the fiber is the quotient of R^d by the null space of that
    atom's seminorm matrix, normed by the seminorm of a lifted
    representative.  The generator map's two defining properties (pointwise
    norm equal to psi, images spanning every fiber) then hold by
    construction; both are re-verified in the test suite.  The module's
    ``psi`` is a copy of psi bound to the structure's space; psi itself is
    left as it was.
    """
    psi = psi.on(structure.space)
    fibers: list[Fiber | None] = []
    lifts: list[np.ndarray] = []
    gram_atoms: list[int] = []
    grams: list[np.ndarray] = []
    for m_a, sel in zip(psi.matrices, _lift_rows(psi.matrices)):
        lift = m_a[sel]
        r = len(sel)
        if r == 0:
            fibers.append(Fiber(0, LpNorm(2.0)))
        else:
            # Express every seminorm row through the kept ones: the
            # fiber norm of coordinates x is then the lp norm of R x.
            # Kept rows get exact basis rows, only the rest are solved.  An
            # atom that keeps every row has R = I, whose gram is I too.
            full = r == m_a.shape[0]
            if full:
                factor = np.eye(r)
            else:
                factor = np.zeros((m_a.shape[0], r))
                factor[sel] = np.eye(r)
                rest = sorted(set(range(m_a.shape[0])).difference(sel))
                factor[rest] = np.linalg.lstsq(lift.T, m_a[rest].T, rcond=None)[0].T
            if psi.p == 2.0:
                # Validated below, one ``_check_grams`` call per size.
                gram_atoms.append(len(fibers))
                grams.append(factor if full else factor.T @ factor)
                fibers.append(None)
            else:
                fibers.append(Fiber(r, ImageLpNorm(factor, psi.p)))
        lifts.append(lift)
    norms, defect = _gram_norms(grams)
    if defect is not None:
        raise InvalidStructure(defect[1])
    for a, norm in zip(gram_atoms, norms):
        fibers[a] = Fiber(norm.gram.shape[0], norm)
    module = FiberModule(structure, tuple(fibers))
    return GeneratedModule(module, psi, tuple(lifts))


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
    is what makes the factor well defined.  The factor at each atom sends
    generator coordinates x to S_a lift_a^+ x (pseudoinverse retraction)
    where S_a stacks the images of the domain basis.
    """
    d = gen.psi.domain_dim
    if phi is None and target.space != gen.module.space:
        raise InvalidStructure("target lives over a different space; pass the structure hom")
    basis_images = [s(e) for e in np.eye(d)]
    amap = phi.atom_map if phi is not None else range(target.space.n)
    psi_on_basis = [gen.psi.evaluate(e) for e in np.eye(d)]
    for e_img, psi_e in zip(basis_images, psi_on_basis):
        allowed = phi.apply(psi_e) if phi is not None else psi_e
        lhs = pointwise_norm(e_img)
        bound = Fn(b.values * allowed.values, lhs.space)
        scale = max(1.0, bound.sup_abs, lhs.sup_abs)
        if np.any(lhs.values > bound.values + 1e-9 * scale):
            raise BoundViolated("images of the domain basis exceed the stated bound")
    matrices = []
    for t in range(target.space.n):
        a = amap[t]
        s_t = np.stack([img.vectors[t] for img in basis_images], axis=1)
        kern = gen.kernels[a]
        if kern.shape[0] and s_t.size:
            resid = s_t @ kern.T
            if np.any(np.abs(resid) > 1e-9 * max(1.0, float(np.abs(s_t).max()))):
                raise BoundViolated(
                    f"atom {t}: images do not vanish on psi's null directions"
                )
        matrices.append(s_t @ np.linalg.pinv(gen.lifts[a]))
    return HomElement(matrices, gen.module, target, phi)


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
    mu_src = source_structure.space.mu
    mu_tgt = m.space.mu
    pushed = np.zeros(m.space.n)
    for x, t in enumerate(hom.atom_map):
        pushed[t] += mu_src[x]
    c = float(np.max(pushed / mu_tgt))
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
    pushed_dual, _ = pushforward_module(
        StructureHom(dual_src.structure, _retarget(phi.target, dual_src.structure), phi.atom_map),
        dual_src,
    )
    pm, _ = pushforward_module(phi, m)
    system_tgt = DualSystem(pm.structure, system.w_kind, system.z_kind)
    dual_of_pushed = dual_module(pm, system_tgt)
    return HomElement._eye(pushed_dual, dual_of_pushed)


def _retarget(structure: FiniteFStructure, like: FiniteFStructure) -> FiniteFStructure:
    """The same space as ``structure`` with the kinds of ``like``."""
    return FiniteFStructure(structure.space, like.u_kind, like.v_kind)


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
    psi = graph_gradient(graph, p)
    return structure, generate_module(psi, structure)
