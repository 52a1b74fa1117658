"""Fiberwise normed modules over a finite f-structure.

A module is one finite-dimensional normed space per atom (a fiber); an
element is one vector per atom.  The pointwise norm collects the fiber norms
into a function on the space, and every module-level notion (distance,
glueing, quotients, dimensional decomposition) reduces to a per-fiber
computation plus the behaviour of the structure's V-distance.

An element stores its fiber vectors as one flat vector.  A module groups
its atoms by fiber signature (norm kind, exponent, dimension and matrix
shape), so a fiberwise map such as the pointwise norm costs one array
operation per group rather than a Python call per atom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Any, Callable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InputError,
    InvalidExponent,
    InvalidStructure,
    ModuleMismatch,
    NotAPartition,
    SolverFailed,
    SpaceMismatch,
)
from .order import FinitePartition, Idempotent
from .spaces import FiniteFStructure, Fn, _lp_rows, _require, _rescaled_rows

#: Relative singular-value cutoff for every rank decision in the package.
RANK_RTOL = 1e-9


def _svd_ranks(s: np.ndarray) -> np.ndarray:
    """The package's rank rule on singular values (descending along the last
    axis): how many exceed RANK_RTOL * (largest sigma or 1)."""
    return np.add.reduce(s > RANK_RTOL * np.maximum(s[..., :1], 1.0), axis=-1)


def row_ranks(mats: Sequence[np.ndarray]) -> list[int]:
    """The rank of every matrix, with the package-wide threshold
    RANK_RTOL * (largest sigma or 1).

    Matrices are grouped by shape and each group costs one stacked
    singular-value call; numpy runs LAPACK per matrix of the stack, so a
    matrix's singular values, and its rank, do not depend on the others.
    Empty matrices have rank 0.
    """
    ranks = [0] * len(mats)
    by_shape: dict[tuple[int, ...], list[int]] = {}
    for i, m in enumerate(mats):
        by_shape.setdefault(m.shape, []).append(i)
    for idx in by_shape.values():
        for i, r in zip(idx, _stack_ranks(np.stack([mats[i] for i in idx])).tolist()):
            ranks[i] = r
    return ranks


def _stack_ranks(stack: np.ndarray) -> np.ndarray:
    """The rank of every matrix of a (k, rows, cols) stack, by the rule of
    ``row_ranks``, with one singular-value call (none when empty)."""
    if stack.size == 0:
        return np.zeros(stack.shape[0], dtype=np.intp)
    return _svd_ranks(np.linalg.svd(stack, compute_uv=False))


def _split_atoms(*keys: np.ndarray) -> list[np.ndarray]:
    """The indices grouped by their tuple of nonnegative integer keys, each
    group ascending."""
    key = np.zeros(keys[0].size, dtype=np.intp)
    for k in keys:
        key = key * (int(k.max(initial=0)) + 1) + k
    order = np.argsort(key, kind="stable")
    return [part for part in np.split(order, np.flatnonzero(np.diff(key[order])) + 1)
            if part.size]


def matrix_rank(m: np.ndarray) -> int:
    """Rank with the package-wide threshold 1e-9 * (largest sigma or 1)."""
    return row_ranks([m])[0]


def independent_rows(mats: Sequence[np.ndarray]) -> list[list[int]]:
    """Per matrix, the indices of a maximal independent subset of its rows,
    greedy in row order: a row is kept when it raises the rank of the rows
    kept so far, until the rank reaches the column count.

    The matrices run in lockstep: step i tests row i of every matrix still
    short of full column rank, in one ``row_ranks`` call.
    """
    kept: list[list[int]] = [[] for _ in mats]
    for i in range(max((m.shape[0] for m in mats), default=0)):
        live = [j for j, m in enumerate(mats)
                if i < m.shape[0] and len(kept[j]) < m.shape[1]]
        if not live:
            break
        ranks = row_ranks([mats[j][kept[j] + [i]] for j in live])
        for j, r in zip(live, ranks):
            if r > len(kept[j]):
                kept[j].append(i)
    return kept


def row_space_basis(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the row space, as rows (possibly 0 rows)."""
    if m.size == 0:
        return np.zeros((0, m.shape[1] if m.ndim == 2 else 0))
    _, s, vt = np.linalg.svd(m, full_matrices=False)
    r = int(_svd_ranks(s))
    return vt[:r]


def kernel_basis(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space, as rows (possibly 0 rows)."""
    n = m.shape[1]
    if m.size == 0 or not np.any(m):
        return np.eye(n)
    _, s, vt = np.linalg.svd(m)
    r = int(_svd_ranks(s))
    return vt[r:]


# --------------------------------------------------------------------------
# Stacked fiber-norm kernels
# --------------------------------------------------------------------------
#
# Each kernel takes a stack x of k fiber vectors, one per row, and returns
# the k norms.  ``FiberNorm.norm`` runs the same kernel on a one-row stack,
# so a value has the same bits whether it is computed alone or in a group
# (numpy's array and scalar powers can differ in the last bit).

def _matvec_rows(mats: np.ndarray, x: np.ndarray) -> np.ndarray:
    """mats[i] @ x[i] for every i.

    Elementwise products and one reduction rather than BLAS or ``einsum``,
    whose summation order can change with the stack, so that a row's bits
    do not depend on the other rows.
    """
    return np.add.reduce(mats * x[:, None, :], axis=2)


def _matmul_rows(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """b[i] @ a[i] for every i (b may have one member for all), row by row
    as in ``_matvec_rows``."""
    return np.add.reduce(b[:, :, :, None] * a[:, None, :, :], axis=2)


def _gram_rows(grams: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sqrt(x[i]^T G[i] x[i]) for every i, under the range guard of ``_lp_rows``."""
    def sums_of(idx, rows: np.ndarray) -> np.ndarray:
        return np.add.reduce(rows * _matvec_rows(grams[idx], rows), axis=1)

    return _rescaled_rows(x, sums_of, lambda s: np.sqrt(np.maximum(s, 0.0)))


def _image_rows(p: float, mats: np.ndarray, x: np.ndarray) -> np.ndarray:
    """|A[i] x[i]|_p for every i."""
    return _lp_rows(p, _matvec_rows(mats, x))


def _one_row(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=float).reshape(1, -1)


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
        norm = _parse_norm(obj, where)
        if type(norm) is GramNorm:
            try:
                return GramNorm(norm.gram)
            except InvalidStructure as exc:
                raise InputError(exc.message, path=where + ".gram") from exc
        return norm


def _parse_norm(obj: Any, where: str) -> FiberNorm:
    """A fiber norm from JSON; a gram matrix is checked to be finite and
    square only, and the GramNorm carries it unvalidated (see ``_gram_norms``)."""
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
        g = _finite_matrix(obj["gram"], "gram matrix entries", where + ".gram")
        _require(g.ndim == 2 and g.shape[0] == g.shape[1], "gram matrix must be square",
                 where + ".gram")
        return GramNorm._trusted(g)
    if key == "image_lp":
        inner = obj["image_lp"]
        _require(isinstance(inner, dict) and "matrix" in inner and "p" in inner,
                 "image_lp needs 'matrix' and 'p'", where + ".image_lp")
        p = math.inf if inner["p"] == "inf" else float(inner["p"])
        return ImageLpNorm(_finite_matrix(inner["matrix"], "image matrix entries",
                                          where + ".image_lp.matrix"), p)
    raise InputError(f"unknown fiber norm kind {key!r}", path=where)


def _finite_matrix(raw: Any, what: str, where: str) -> np.ndarray:
    """A JSON number, vector or matrix as floats; NaN and infinities are
    refused at their entry."""
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what} must be numbers", path=where) from exc
    bad = np.argwhere(~np.isfinite(arr))
    if bad.shape[0]:
        raise InputError(f"{what} must be finite",
                         path=where + "".join(f"[{i}]" for i in bad[0]))
    return arr


@dataclass(frozen=True)
class LpNorm(FiberNorm):
    p: float

    def __post_init__(self):
        if math.isnan(self.p) or self.p < 1.0:
            raise InvalidExponent(f"fiber exponent must lie in [1, inf], got {self.p!r}")

    def norm(self, x: np.ndarray) -> float:
        return float(_lp_rows(self.p, _one_row(x))[0])

    def to_json(self) -> dict:
        return {"lp": "inf" if self.p == math.inf else float(self.p)}


#: The defects ``_check_grams`` reports, by code (0: none).
_GRAM_DEFECTS = (None, "gram matrix must be symmetric", "gram matrix must be positive definite")


def _check_grams(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The gram validation rule on a stack g of k square d x d matrices.

    A matrix passes when it is symmetric to within
    1e-12 * max(1, max |G|) + 1e-5 |G^T| entrywise, and its eigenvalues
    (``eigvalsh``, one call for the stack) satisfy
    lambda_min > RANK_RTOL * max(1, lambda_max) once a matrix that is not
    exactly symmetric is replaced by G/2 + G^T/2.  Returns a new stack of
    the replaced matrices and, per matrix, an index into ``_GRAM_DEFECTS``:
    symmetry is tested first.  LAPACK runs per matrix of the stack, so a
    matrix's verdict and bits do not depend on the others.
    """
    k, d = g.shape[0], g.shape[-1]
    if d == 0:
        return g.copy(), np.zeros(k, dtype=np.intp)
    mag = np.abs(g)
    gt = g.transpose(0, 2, 1)
    skew = g - gt
    top = np.maximum(np.maximum.reduce(mag.reshape(k, -1), axis=1), 1.0)
    tol = (1e-12 * top)[:, None, None] + 1e-5 * mag.transpose(0, 2, 1)
    symmetric = np.logical_and.reduce((np.abs(skew) <= tol).reshape(k, -1), axis=1)
    if skew.any():
        skewed = np.logical_or.reduce(skew.reshape(k, -1), axis=1)
        g = np.where(skewed[:, None, None], 0.5 * g + 0.5 * gt, g)
    else:
        g = g.copy()
    eig = np.linalg.eigvalsh(g)
    definite = eig[:, 0] > RANK_RTOL * np.maximum(eig[:, -1], 1.0)
    return g, np.where(symmetric, np.where(definite, 0, 2), 1)


def _gram_norms(grams: Sequence[np.ndarray]
                ) -> tuple[list["GramNorm"], tuple[int, str] | None]:
    """The GramNorm of every square matrix, validated by ``_check_grams``
    with one call per matrix size, and the position and defect message of
    the first matrix refused, or None when all pass (only then are the
    norms valid).  A norm's gram is a read-only view into a fresh stack.
    """
    sizes = np.fromiter((g.shape[0] for g in grams), dtype=np.intp, count=len(grams))
    fixed = [None] * len(grams)
    defect = None
    for idx in _split_atoms(sizes):
        stack, codes = _check_grams(np.stack([grams[i] for i in idx]))
        stack.setflags(write=False)
        bad = np.flatnonzero(codes)
        if bad.size and (defect is None or idx[bad[0]] < defect[0]):
            defect = int(idx[bad[0]]), _GRAM_DEFECTS[codes[bad[0]]]
        for i, g in zip(idx.tolist(), stack):
            fixed[i] = g
    return [GramNorm._trusted(g) for g in fixed], defect


@dataclass(frozen=True)
class GramNorm(FiberNorm):
    """Inner-product norm sqrt(x^T G x) for a symmetric positive-definite G;
    a G symmetric only to within tolerance is stored as (G + G^T) / 2.

    Construction is the one-matrix case of ``_check_grams``, the rule that
    modules built from JSON, dual modules and generated modules apply to all
    their grams of one size at once; the stored gram is a read-only copy
    with the same bits either way.
    """

    gram: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gram, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise InvalidStructure("gram matrix must be square")
        stack, defects = _check_grams(g[None])
        if defects[0]:
            raise InvalidStructure(_GRAM_DEFECTS[defects[0]])
        stack.setflags(write=False)
        object.__setattr__(self, "gram", stack[0])

    @classmethod
    def _trusted(cls, g: np.ndarray) -> "GramNorm":
        """Wrap a gram matrix without validating it."""
        norm = cls.__new__(cls)
        object.__setattr__(norm, "gram", g)
        return norm

    def norm(self, x: np.ndarray) -> float:
        return float(_gram_rows(self.gram[None], _one_row(x))[0])

    def check_dim(self, dim: int) -> None:
        if self.gram.shape != (dim, dim):
            raise DimensionMismatch(
                f"gram matrix is {self.gram.shape}, fiber dimension is {dim}"
            )

    def to_json(self) -> dict:
        return {"gram": self.gram.tolist()}

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
        return float(_image_rows(self.p, self.matrix[None], _one_row(x))[0])

    def check_dim(self, dim: int) -> None:
        if self.matrix.ndim != 2 or self.matrix.shape[1] != dim:
            raise DimensionMismatch(
                f"image matrix is {self.matrix.shape}, fiber dimension is {dim}"
            )

    def to_json(self) -> dict:
        return {
            "image_lp": {
                "matrix": self.matrix.tolist(),
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
    """A fiber of dimension ``dim`` normed by an ``LpNorm``, ``GramNorm`` or
    ``ImageLpNorm``; any other norm type, subclasses included, is refused."""

    dim: int
    norm: FiberNorm

    def __post_init__(self):
        if type(self.norm) not in (LpNorm, GramNorm, ImageLpNorm):
            raise InvalidStructure(
                f"fiber norms are LpNorm, GramNorm or ImageLpNorm, got {type(self.norm).__name__}"
            )
        if self.dim < 0:
            raise InvalidStructure("fiber dimension must be nonnegative")
        self.norm.check_dim(self.dim)

    def to_json(self) -> dict:
        return {"dim": self.dim, "norm": self.norm.to_json()}


def _signature(fiber: Fiber) -> tuple:
    """Fibers with equal signatures share one stacked kernel call."""
    norm, kind = fiber.norm, type(fiber.norm)
    if kind is LpNorm:
        return kind, norm.p, fiber.dim
    if kind is GramNorm:
        return kind, fiber.dim
    return kind, norm.p, fiber.dim, norm.matrix.shape[0]


class _FiberGroup:
    """Atoms whose fibers share a signature.

    ``atoms`` lists them in ascending order and ``cols`` gathers their
    coordinates from an element's flat vector, one row per atom.  ``mats``
    stacks their gram or image matrices (None for lp fibers); ``norms``
    keeps the fiber norms as an object array.
    """

    __slots__ = ("proto", "dim", "atoms", "cols", "mats", "norms", "norms_of")

    def __init__(self, norms: Sequence[FiberNorm], dim: int, atoms: np.ndarray,
                 cols: np.ndarray, mats: np.ndarray | None = None):
        if not isinstance(norms, np.ndarray):
            norms, objs = np.empty(len(norms), dtype=object), norms
            norms[:] = objs
        self.proto = norms[0]
        self.dim = dim
        self.atoms = atoms
        self.cols = cols
        self.norms = norms
        kind = type(self.proto)
        if mats is None and kind in (GramNorm, ImageLpNorm):
            mats = np.stack([n.gram if kind is GramNorm else n.matrix for n in norms])
        self.mats = mats
        #: norms_of(x): the fiber norms of the rows of x, row i under member i.
        if kind is LpNorm:
            self.norms_of = partial(_lp_rows, self.proto.p)
        elif kind is GramNorm:
            self.norms_of = partial(_gram_rows, mats)
        else:
            self.norms_of = partial(_image_rows, self.proto.p, mats)

    @classmethod
    def single(cls, norm: FiberNorm, dim: int) -> "_FiberGroup":
        """A group of one fiber, for per-fiber entry points."""
        Fiber(dim, norm)  # refuses any other norm kind
        return cls([norm], dim, np.zeros(1, dtype=np.intp), np.arange(dim)[None])

    def take(self, pos: np.ndarray) -> "_FiberGroup":
        """The members at positions ``pos``, in that order."""
        return _FiberGroup(self.norms[pos], self.dim, self.atoms[pos], self.cols[pos],
                           None if self.mats is None else self.mats[pos])


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

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.dim for f in self.fibers)

    # The flat layout and the fiber groups, computed once per module.
    @cached_property
    def _dim_array(self) -> np.ndarray:
        return np.array(self.dims, dtype=np.intp).reshape(-1)

    @cached_property
    def _offsets(self) -> np.ndarray:
        """Atom a owns flat[_offsets[a]:_offsets[a + 1]] of an element."""
        return np.concatenate([[0], np.cumsum(self._dim_array)]).astype(np.intp)

    @cached_property
    def _bounds(self) -> list[tuple[int, int]]:
        off = self._offsets.tolist()
        return list(zip(off[:-1], off[1:]))

    @cached_property
    def _groups(self) -> tuple[_FiberGroup, ...]:
        members: dict[tuple, list[int]] = {}
        for a, fiber in enumerate(self.fibers):
            members.setdefault(_signature(fiber), []).append(a)
        groups = []
        for atoms in members.values():
            idx = np.array(atoms, dtype=np.intp)
            dim = self.fibers[atoms[0]].dim
            cols = self._offsets[idx][:, None] + np.arange(dim)
            groups.append(_FiberGroup([self.fibers[a].norm for a in atoms], dim, idx, cols))
        return tuple(groups)

    @cached_property
    def _group_of(self) -> tuple[np.ndarray, np.ndarray]:
        """Per atom, the index of its group and its position inside it."""
        gid = np.zeros(len(self.fibers), dtype=np.intp)
        pos = np.zeros(len(self.fibers), dtype=np.intp)
        for i, g in enumerate(self._groups):
            gid[g.atoms] = i
            pos[g.atoms] = np.arange(g.atoms.size)
        return gid, pos

    def element(self, vectors: Sequence[Sequence[float]]) -> "ModuleElement":
        return ModuleElement(vectors, self)

    def zero_element(self) -> "ModuleElement":
        return ModuleElement._from_flat(np.zeros(int(self._offsets[-1])), self)

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
        # Gram matrices are validated together after the parse, one
        # ``_check_grams`` call per size.  Errors still come in fiber order:
        # the parse stops at its first error, of whatever type, which a gram
        # defect at that fiber or an earlier one beats (GramNorm ran before
        # Fiber).
        fibers: list[Fiber] = []
        gram_atoms: list[int] = []
        grams: list[np.ndarray] = []
        failure = None
        try:
            for i, f in enumerate(raw):
                here = f"{where}.fibers[{i}]"
                _require(isinstance(f, dict) and "dim" in f and "norm" in f,
                         "each fiber needs 'dim' and 'norm'", here)
                dim = f["dim"]
                # JSON integers may be written as 2.0; 2.7 and true are not dims.
                integral = isinstance(dim, int) or isinstance(dim, float) and dim.is_integer()
                _require(integral and not isinstance(dim, bool),
                         "fiber dim must be an integer", here + ".dim")
                norm = _parse_norm(f["norm"], here + ".norm")
                if type(norm) is GramNorm:
                    gram_atoms.append(i)
                    grams.append(norm.gram)
                try:
                    fibers.append(Fiber(int(dim), norm))
                except (InvalidStructure, DimensionMismatch) as exc:
                    raise InputError(exc.message, path=here) from exc
        except Exception as exc:   # any parse error, raised after the grams
            failure = exc
        norms, defect = _gram_norms(grams)
        if defect is not None:
            raise InputError(defect[1], path=f"{where}.fibers[{gram_atoms[defect[0]]}].norm.gram")
        if failure is not None:
            raise failure
        for a, gram_norm in zip(gram_atoms, norms):
            fibers[a] = Fiber(fibers[a].dim, gram_norm)
        try:
            return cls(structure, tuple(fibers))
        except InvalidStructure as exc:
            raise InputError(exc.message, path=where + ".fibers") from exc


class ModuleElement:
    """One fiber vector per atom, stored as one flat read-only vector.

    ``flat`` concatenates the fiber vectors in atom order.  ``vectors`` is
    the tuple of per-atom read-only views into it, built on first use.
    """

    __slots__ = ("flat", "module", "_vectors")

    def __init__(self, vectors: Sequence[Sequence[float] | np.ndarray], module: FiberModule):
        dims = module._dim_array
        if len(vectors) != dims.size:
            raise DimensionMismatch("one vector per atom is required")
        parts = [np.asarray(vec, dtype=float).reshape(-1) for vec in vectors]
        sizes = np.fromiter(map(len, parts), dtype=np.intp, count=dims.size)
        bad = np.flatnonzero(sizes != dims)
        if bad.size:
            a = bad[0]
            raise DimensionMismatch(
                f"fiber vector has length {sizes[a]}, fiber dimension is {dims[a]}"
            )
        flat = np.concatenate(parts) if parts else np.zeros(0)
        flat.setflags(write=False)
        self.flat = flat
        self.module = module
        self._vectors = None

    @classmethod
    def _from_flat(cls, flat: np.ndarray, module: FiberModule) -> "ModuleElement":
        """Wrap a fresh flat vector of the module's layout (taken, not copied)."""
        el = cls.__new__(cls)
        flat.setflags(write=False)
        el.flat = flat
        el.module = module
        el._vectors = None
        return el

    @property
    def vectors(self) -> tuple[np.ndarray, ...]:
        if self._vectors is None:
            flat = self.flat
            self._vectors = tuple([flat[a:b] for a, b in self.module._bounds])
        return self._vectors

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
        return ModuleElement._from_flat(self.flat + other.flat, self.module)

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        if not isinstance(other, ModuleElement):
            return NotImplemented
        self._check(other)
        return ModuleElement._from_flat(self.flat - other.flat, self.module)

    def __neg__(self) -> "ModuleElement":
        return ModuleElement._from_flat(-self.flat, self.module)

    def scale(self, lam: float) -> "ModuleElement":
        return ModuleElement._from_flat(self.flat * float(lam), self.module)

    def __rmul__(self, u: Fn) -> "ModuleElement":
        """Module action u . v: per atom, the scalar u(atom) times the vector."""
        if not isinstance(u, Fn):
            return NotImplemented
        if u.space != self.module.space:
            raise ModuleMismatch("multiplier lives on a different measure space")
        if u.values.ndim != 1:
            raise SpaceMismatch(
                f"the module action takes one function, got a batch of shape {u.values.shape}"
            )
        return ModuleElement._from_flat(
            np.repeat(u.values, self.module._dim_array) * self.flat, self.module
        )

    def pointwise_norm(self) -> Fn:
        return pointwise_norm(self)

    def is_zero(self) -> bool:
        return not self.flat.any()

    def to_json(self) -> dict:
        return {"vectors": [vec.tolist() for vec in self.vectors]}

    @classmethod
    def from_json(cls, obj: Any, module: FiberModule, where: str = "$") -> "ModuleElement":
        _require(isinstance(obj, dict) and "vectors" in obj,
                 "element must be {\"vectors\": [[...], ...]}", where)
        raw = obj["vectors"]
        _require(isinstance(raw, list) and all(isinstance(v, list) for v in raw),
                 "vectors must be a list of lists", where + ".vectors")
        try:
            el = cls(raw, module)
        except DimensionMismatch as exc:
            raise InputError(exc.message, path=where + ".vectors") from exc
        bad = np.flatnonzero(~np.isfinite(el.flat))
        if bad.size:
            atom = int(np.searchsorted(module._offsets, bad[0], side="right")) - 1
            raise InputError("fiber vector entries must be finite",
                             path=f"{where}.vectors[{atom}][{bad[0] - module._offsets[atom]}]")
        return el


def pointwise_norm(v: ModuleElement) -> Fn:
    """The fiber norm of each fiber vector, as a function on the space.

    One stacked kernel call per fiber group.
    """
    out = np.zeros(v.module.space.n)
    for g in v.module._groups:
        out[g.atoms] = g.norms_of(v.flat[g.cols])
    return Fn(out, v.module.space)


def module_distance(v: ModuleElement, w: ModuleElement) -> float:
    """d_V applied to the pointwise norm of the difference."""
    v._check(w)
    diff = pointwise_norm(v - w)
    return v.module.structure.d_V(diff, diff.zero())


def zero_indicator(v: ModuleElement) -> Idempotent:
    """Indicator of the atoms where the fiber vector vanishes."""
    nonzero = np.concatenate([[0], np.cumsum(v.flat != 0.0)])[v.module._offsets]
    return Idempotent._trusted(v.module.space.indicator(nonzero[1:] == nonzero[:-1]))


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

    def contains(self, v: ModuleElement) -> bool:
        """True iff every fiber vector lies in the span of its basis rows, to
        1e-9 (relative to max(1, max |vector|) where the basis is not empty)."""
        for vec, b in zip(v.vectors, self.bases):
            if b.shape[0] == 0:
                if np.any(np.abs(vec) > 1e-9):
                    return False
                continue
            coeff, *_ = np.linalg.lstsq(b.T, vec, rcond=None)
            if np.any(np.abs(b.T @ coeff - vec) > 1e-9 * max(1.0, float(np.abs(vec).max()))):
                return False
        return True


def quotient_norm(v: ModuleElement, n: Submodule) -> Fn:
    """Per atom, the fiber-norm distance from the fiber vector to the subspace.

    This is the pointwise norm of the class of v in the quotient module,
    min over t of |v + basis^T t|, computed by the gauge kernel
    ``_extension_values``.
    """
    if not v.module.same_module(n.module):
        raise DimensionMismatch("element and submodule live in different modules")
    return Fn(_extension_values([
        (fiber.norm, b, vec) for fiber, vec, b in zip(v.module.fibers, v.vectors, n.bases)
    ])[0], v.module.space)


# --------------------------------------------------------------------------
# Minimizing a gauge over an affine subspace
# --------------------------------------------------------------------------

def _lp_conjugate(p: float) -> float:
    if p == 1.0:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


def _as_gram(norm: FiberNorm, dim: int, mats: np.ndarray | None = None) -> np.ndarray | None:
    """The gram matrix of a euclidean fiber norm (l2, gram, image-l2), else None.

    Given ``mats``, the stacked gram or image matrices of a fiber group of
    norm's kind, the stacked gram matrices of the group.
    """
    if isinstance(norm, GramNorm):
        return norm.gram if mats is None else mats
    if isinstance(norm, LpNorm) and norm.p == 2.0:
        return np.eye(dim)
    if isinstance(norm, ImageLpNorm) and norm.p == 2.0:
        a = norm.matrix if mats is None else mats
        return np.swapaxes(a, -1, -2) @ a
    return None


def _lp_factor(norm: FiberNorm) -> tuple[float, np.ndarray | None]:
    """The fiber norm as x -> |M x|_p: (p, M), M None for an lp norm, A for
    an image-lp norm |A x|_p and, for a gram norm, the Cholesky factor L^T
    of G = L L^T (|L^T x|_2^2 = x^T G x; a quarter of the cost of G^(1/2)
    by ``eigh``).  The one place a fiber norm becomes lp coordinates."""
    if isinstance(norm, LpNorm):
        return norm.p, None
    if isinstance(norm, ImageLpNorm):
        return norm.p, norm.matrix
    return 2.0, np.linalg.cholesky(norm.gram).T


def _extension_values(problems: Sequence[tuple[FiberNorm, np.ndarray, np.ndarray]]
                      ) -> tuple[np.ndarray, list[np.ndarray]]:
    """min over t of norm(e + rows^T t) and a minimiser, per problem (norm, rows, e).

    The one kernel for "minimise a gauge over an affine subspace": a
    quotient norm is the distance from e to the span of the rows, and the
    domination test of ``hahn_banach_extend`` (like the dual norm of an
    image-lp fiber) is the lq distance from a particular solution to a null
    space.  In the lp coordinates of ``_lp_factor``, norm(x) = |M x|_p, the
    problem is the lp gauge of rows @ M^T and M e, which ``_lp_gauges``
    solves once the rows are replaced by an orthonormal basis of their span,
    cut by the package's rank rule (``row_space_basis``) for every exponent.
    Returns the values and, per problem, a minimiser y = M (e + rows^T t) in
    the lp coordinates.
    """
    lp = []
    for norm, rows, e in problems:
        p, m = _lp_factor(norm)
        if m is not None:
            rows, e = rows @ m.T, m @ e
        if e.any():
            rows = row_space_basis(rows)
        lp.append((p, rows, e))
    return _lp_gauges(lp)[:2]


def _lp_gauges(problems: Sequence[tuple[float, np.ndarray, np.ndarray]]
               ) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """min over t of |e + rows^T t|_p, a minimiser y = e + rows^T t and a
    dual point w (rows @ w = 0, |w|_q <= 1 for the conjugate q, w.e the
    value), per problem (p, rows, e), the rows orthonormal.

    Polyhedral gauges (p = 1 or infinity) share one ``_polyhedral_gauges``
    call; euclidean ones take the least-squares step y = e - rows^T rows e
    and w = y / |y|_2 in closed form, one problem at a time; the other lp
    gauges share one ``_lp_gauge_values`` solve per exponent and shape.
    """
    out = np.zeros(len(problems))
    points: list = [None] * len(problems)
    duals: list = [None] * len(problems)
    poly: list[int] = []
    smooth: dict[tuple, list[int]] = {}
    for i, (p, rows, e) in enumerate(problems):
        if not e.any():
            points[i] = duals[i] = np.zeros(e.size)
        elif p in (1.0, math.inf):
            poly.append(i)
        elif p == 2.0:
            points[i] = y = e - rows.T @ (rows @ e)
            out[i] = _lp_rows(2.0, y[None])[0]
            duals[i] = y / out[i] if out[i] > 0.0 else np.zeros(e.size)
        else:
            smooth.setdefault((p, *rows.shape), []).append(i)
    if poly:
        for i, answer in zip(poly, _polyhedral_gauges([problems[i] for i in poly])):
            out[i], points[i], duals[i] = answer
    for (p, *_), members in smooth.items():
        rows, e = (np.array(part) for part in zip(*(problems[i][1:] for i in members)))
        out[members], ys, ws = _lp_gauge_values(p, rows, e)
        for i, y, w in zip(members, ys, ws):
            points[i], duals[i] = y, w
    return out, points, duals


#: The simplex of ``_polyhedral_gauges``: at most ``_PIVOTS_PER_COLUMN``
#: lockstep pivots per tableau column; entries up to ``_PIVOT_TOL`` are not
#: pivots and reduced costs above -``_COST_TOL`` are not negative (the
#: tableau starts with entries of at most 1 and costs 0 or 1); and the
#: largest gap it certifies, relative to |e|_p.
_PIVOTS_PER_COLUMN = 10
_PIVOT_TOL = 1e-9
_COST_TOL = 1e-12
_SIMPLEX_GAP = 1e-10


def _polyhedral_gauges(blocks: Sequence[tuple[float, np.ndarray, np.ndarray]]
                       ) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """Per block (p, rows, e), p in {1, infinity}, the rows orthonormal and
    e != 0: (value, y, w) with y = e + rows^T t a minimiser of |y|_p, w a
    dual point and value = w.e, certified.

    The l1 and Chebyshev approximation problems (Barrodale & Roberts 1973;
    Barrodale & Phillips 1975) as primal linear programs over t = t+ - t-
    and nonnegative slacks, solved by a dense tableau simplex under Bland's
    rule (Bland 1977), which cannot cycle: the entering column is the first
    with a negative reduced cost, the leaving row the one of least ratio
    whose basic column comes first.  Blocks of one (p, k, m) pivot in
    lockstep, every update elementwise, so a block's bits do not depend on
    the stack.  The start is t = 0, so a minimiser at t = 0 is kept when the
    first optimal basis sits there.

    y is read back from t, so it lies on the affine set; w is read from the
    reduced costs of the slacks, projected onto the null space of the rows
    and scaled into the dual unit ball, so w.e never exceeds the minimum.
    SolverFailed is raised when |y|_p exceeds w.e by more than
    ``_SIMPLEX_GAP`` |e|_p, or a block is not optimal within the pivot
    budget.
    """
    groups: dict[tuple, list[int]] = {}
    for i, (p, rows, e) in enumerate(blocks):
        groups.setdefault((p, *rows.shape), []).append(i)
    out: list = [None] * len(blocks)
    for (p, *_), members in groups.items():
        r, e = (np.array(part) for part in zip(*(blocks[i][1:] for i in members)))
        rt = np.swapaxes(r, 1, 2)
        scale = np.maximum.reduce(np.abs(e), axis=1)
        t, w = _simplex(p, rt, e / scale[:, None])
        y = e + _matvec_rows(rt, t * scale[:, None])
        w -= _matvec_rows(rt, _matvec_rows(r, w))
        w /= np.maximum(1.0, _lp_rows(_lp_conjugate(p), w))[:, None]
        value = np.add.reduce(w * e, axis=1)
        n = _lp_rows(p, y)
        bad = np.flatnonzero(n - value > _SIMPLEX_GAP * _lp_rows(p, e))
        if bad.size:
            raise SolverFailed(f"l{p:g} simplex: primal value {n[bad[0]]:.17g} exceeds the"
                               f" dual value {value[bad[0]]:.17g} by more than {_SIMPLEX_GAP:g}")
        for i, v, y_i, w_i in zip(members, value.tolist(), y, w):
            out[i] = (v, y_i, w_i)
    return out


def _simplex(p: float, rt: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """t and the raw dual point w of min |e + rt t|_p per block (p in {1,
    infinity}, rt a (n, m, k) stack, |e|_inf = 1), by ``_polyhedral_gauges``'s
    simplex.

    The tableau holds the constraint rows, then the reduced costs; its
    last column is the right-hand side.  Columns: t+, t-, then for p = 1
    the parts u, v of e + rt t = u - v (cost 1 each, row i signed so that
    the part of e_i's sign starts basic at |e_i|), for p = infinity the
    bound s (cost 1) and the slacks of e + rt t <= s and -(e + rt t) <= s,
    with s pivoted in on the tightest row first.  The dual point is
    w = 1 - d_u for p = 1 and the reduced costs of the first slacks less
    those of the second for p = infinity.
    """
    n, m, k = rt.shape
    eye = np.broadcast_to(np.eye(m), (n, m, m))
    if p == 1.0:
        sign = np.where(e >= 0.0, 1.0, -1.0)[:, :, None]
        body = np.concatenate([-sign * rt, sign * rt, sign * eye, -sign * eye,
                               np.abs(e)[:, :, None]], axis=2)
        cost = np.concatenate([np.zeros(2 * k), np.ones(2 * m), [0.0]]) - np.add.reduce(body, axis=1)
        basis = 2 * k + np.arange(m) + np.where(sign[:, :, 0] > 0.0, 0, m)
    else:
        ones, zero = np.ones((n, m, 1)), np.zeros((n, m, m))
        body = np.concatenate([
            np.concatenate([rt, -rt, -ones, eye, zero, -e[:, :, None]], axis=2),
            np.concatenate([-rt, rt, -ones, zero, eye, e[:, :, None]], axis=2)], axis=1)
        cost = np.zeros((n, body.shape[2]))
        cost[:, 2 * k] = 1.0
        basis = np.broadcast_to(2 * k + 1 + np.arange(2 * m), (n, 2 * m)).copy()
    tab = np.concatenate([body, cost[:, None, :]], axis=1)
    if p == math.inf:
        _pivot(tab, basis, np.arange(n), np.argmin(tab[:, :-1, -1], axis=1), np.full(n, 2 * k))
    act = np.arange(n)
    budget = _PIVOTS_PER_COLUMN * (tab.shape[2] - 1)
    for step in range(budget + 1):
        neg = tab[act, -1, :-1] < -_COST_TOL
        live = neg.any(axis=1)
        act, neg = act[live], neg[live]
        if act.size == 0:
            break
        if step == budget:
            raise SolverFailed(f"l{p:g} simplex: {act.size} of {n} blocks not optimal after"
                               f" {budget} pivots")
        col = np.argmax(neg, axis=1)
        entries = tab[act, :-1, col]
        ok = entries > _PIVOT_TOL
        if not ok.any(axis=1).all():
            raise SolverFailed(f"l{p:g} simplex: an entering column has no pivot")
        ratio = np.where(ok, tab[act, :-1, -1] / np.where(ok, entries, 1.0), math.inf)
        tied = ratio == np.minimum.reduce(ratio, axis=1)[:, None]
        _pivot(tab, basis, act, np.argmin(np.where(tied, basis[act], tab.shape[2]), axis=1), col)
    x = np.zeros((n, tab.shape[2]))
    np.put_along_axis(x, basis, tab[:, :-1, -1], axis=1)
    d = tab[:, -1, :-1]
    if p == 1.0:
        w = 1.0 - d[:, 2 * k:2 * k + m]
    else:
        w = d[:, 2 * k + 1:2 * k + 1 + m] - d[:, 2 * k + 1 + m:]
    return x[:, :k] - x[:, k:2 * k], w


def _pivot(tab: np.ndarray, basis: np.ndarray, blocks: np.ndarray, rows: np.ndarray,
           cols: np.ndarray) -> None:
    """Pivot tableau blocks[i] on (rows[i], cols[i]), in place, elementwise."""
    t = tab[blocks]
    at = np.arange(blocks.size)
    prow = t[at, rows] / t[at, rows, cols][:, None]
    t -= t[at, :, cols][:, :, None] * prow[:, None, :]
    t[at, rows] = prow
    tab[blocks] = t
    basis[blocks, rows] = cols


#: Largest gap, relative to max(|e|_p, |y|_p), between the primal value
#: |y|_p and the dual value that ``_lp_gauge_values`` returns.
_GAP_RTOL = 1e-6


def _lp_gauge_values(p: float, c: np.ndarray, e: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """min over t of |e[i] + c[i]^T t|_p per problem i, certified
    (1 < p < infinity, the rows of each c[i] orthonormal).

    ``_newton`` from the least-squares point gives a primal point
    y = e + c^T t.  The value returned is w.e for a dual point w: the
    gradient of |.|_p at y, projected onto the null space of c and scaled
    by min(1, 1/|w|_q) into the dual ball.  So it never overshoots the
    minimum; SolverFailed is raised when |y|_p exceeds it by more than
    ``_GAP_RTOL``.  Products run row by row, so a value does not depend on
    the stack.  Returns the values, y and w.
    """
    ct = np.swapaxes(c, 1, 2)
    reg = 1e-12 * np.eye(c.shape[1])

    def at(rows: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        y = e[rows] + _matvec_rows(ct[rows], t)
        n = _lp_rows(p, y)
        return y, n, y / np.where(n > 0.0, n, 1.0)[:, None]

    def objective(rows: np.ndarray, t: np.ndarray) -> np.ndarray:
        return at(rows, t)[1]

    def derivatives(rows: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # The Hessian (p-1)/|y| c (diag |u|^(p-2) - j j^T) c^T, weights
        # floored at 1e-12 of the largest, plus 1e-12/|y| c c^T (= I), so
        # that a nearly flat direction (large p) still has a bounded step.
        _, n, u = at(rows, t)
        au = np.abs(u)
        cj = _matvec_rows(c[rows], np.sign(u) * au ** (p - 1.0))
        floor = 1e-12 * np.maximum.reduce(au, axis=1)
        floor[floor == 0.0] = 1.0
        weight = np.maximum(au, floor[:, None]) ** (p - 2.0)
        hess = _matmul_rows(c[rows] * weight[:, None, :], ct[rows]) - cj[:, :, None] * cj[:, None, :]
        hess = (p - 1.0) * hess + reg
        hess /= np.where(n > 0.0, n, 1.0)[:, None, None]
        return cj, hess

    scale = _lp_rows(p, e)
    t = _newton(-_matvec_rows(c, e), objective, derivatives, scale)
    y, n, u = at(np.arange(e.shape[0]), t)
    w = np.sign(u) * np.abs(u) ** (p - 1.0)
    w -= _matvec_rows(ct, _matvec_rows(c, w))
    w /= np.maximum(1.0, _lp_rows(_lp_conjugate(p), w))[:, None]
    value = np.add.reduce(w * e, axis=1)
    bad = np.flatnonzero(n - value > _GAP_RTOL * np.maximum(scale, n))
    if bad.size:
        raise SolverFailed(f"l{p:g} gauge kernel: primal value {n[bad[0]]:.9g} exceeds the"
                           f" dual value {value[bad[0]]:.9g} by more than {_GAP_RTOL:g}")
    return value, y, w


#: ``_newton``: step cap, and the Newton decrements, relative to a row's
#: scale, below which a step is taken in full and at which the row stops.
_NEWTON_STEPS = 100
_NEWTON_FULL = 1e-14
_NEWTON_RTOL = 1e-20


def _newton(x: np.ndarray, objective: Callable, derivatives: Callable,
            scale: np.ndarray) -> np.ndarray:
    """Minimise a convex objective from each row of x, in place, by damped Newton.

    ``objective(rows, z)`` is the objective of problems ``rows`` at points
    z, ``derivatives(rows, z)`` their gradients and positive definite
    Hessians.  A step is halved until the Armijo condition with fraction
    1/4 holds (Boyd & Vandenberghe, Convex Optimization, 9.5), or taken in
    full when the decrement and any rise are below ``_NEWTON_FULL``, where
    rounding hides the decrease.  A row stops at a decrement of ``_NEWTON_RTOL``, when a damped
    step fails, or after ``_NEWTON_STEPS`` steps; rows never mix.
    """
    act = np.arange(x.shape[0])
    fx = objective(act, x)
    for _ in range(_NEWTON_STEPS):
        grad, hess = derivatives(act, x[act])
        step = np.linalg.solve(hess, grad[..., None])[..., 0]
        dec = np.add.reduce(grad * step, axis=1)
        t = np.ones(act.size)
        fn = objective(act, x[act] - step)
        full = (dec <= _NEWTON_FULL * scale[act]) & (fn <= fx[act] + _NEWTON_FULL * scale[act])
        for _ in range(60):
            short = (fn > fx[act] - 0.25 * t * dec) & ~full
            if not short.any():
                break
            t[short] *= 0.5
            fn[short] = objective(act[short], x[act[short]] - t[short, None] * step[short])
        go = (dec > _NEWTON_RTOL * scale[act]) & (full | (fn < fx[act]))
        act, step, t, fn = act[go], step[go], t[go], fn[go]
        if act.size == 0:
            break
        x[act] -= t[:, None] * step
        fx[act] = fn
    return x


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
        out.append((int(d), Idempotent._trusted(m.space.indicator(dims == d))))
    return out


def independence_check(vs: Sequence[ModuleElement], u: Idempotent) -> bool:
    """True iff the family is linearly independent on every atom inside u."""
    if len(vs) == 0:
        return True
    for el in vs[1:]:
        vs[0]._check(el)
    inside = np.flatnonzero(u.element.values > 0.5)
    mats = [np.stack([el.vectors[i] for el in vs]) for i in inside]
    return all(r == len(vs) for r in row_ranks(mats))
