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
from itertools import chain
from typing import Any, Sequence

import numpy as np

from ._kernels import RANK_RTOL, _lp_gauges, _matvec_rows, _shape_groups, _svd
from .errors import (
    DimensionMismatch,
    InputError,
    InvalidExponent,
    InvalidStructure,
    ModuleMismatch,
    NotAPartition,
    SpaceMismatch,
)
from .order import FinitePartition, Idempotent
from .spaces import (
    FiniteFStructure,
    Fn,
    _integer,
    _lp_rows,
    _non_number_at,
    _number_type,
    _numbers,
    _require,
    _require_numbers,
    _rescaled_rows,
)

#: The largest fiber dimension a module read from JSON may declare, so that
#: the d x d blocks of its duals and homs (d^2 doubles) stay allocatable.
#: Modules built in the library, such as generated ones, are not capped.
MAX_FIBER_DIM = 4096


def row_ranks(mats: Sequence[np.ndarray]) -> list[int]:
    """The rank of every matrix by the package's rank rule (``_svd``), one
    stacked singular-value call per shape.  Empty matrices have rank 0."""
    ranks = [0] * len(mats)
    for idx in _shape_groups(mats):
        for i, r in zip(idx, _svd(np.stack([mats[i] for i in idx]), compute_uv=False)[3].tolist()):
            ranks[i] = r
    return ranks


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
    """Rank by the package's rank rule, RANK_RTOL * (largest sigma or 1)."""
    return row_ranks([m])[0]


def row_space_basis(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the row space, as rows (possibly 0 rows)."""
    _, _, vt, rank, _ = _svd(m[None], full_matrices=False)
    return vt[0, :rank[0]]


def kernel_basis(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space, as rows (possibly 0 rows)."""
    if m.size == 0 or not np.any(m):
        return np.eye(m.shape[1])
    _, _, vt, rank, _ = _svd(m[None])
    return vt[0, rank[0]:]


# --------------------------------------------------------------------------
# Stacked fiber-norm kernels
# --------------------------------------------------------------------------
#
# Each kernel takes a stack x of k fiber vectors, one per row, and returns
# the k norms.  ``FiberNorm.norm`` runs the same kernel on a one-row stack,
# so a value has the same bits whether it is computed alone or in a group
# (numpy's array and scalar powers can differ in the last bit).

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
        if type(norm) is list:
            norms, problem = _parse_grams([norm])
            if problem is not None:
                raise InputError(problem[1], path=where + ".gram" + problem[2])
            return norms[0]
        return norm


def _parse_norm(obj: Any, where: str) -> FiberNorm | list:
    """A fiber norm from JSON.  A gram matrix comes back as its JSON value,
    checked to be a square list of lists only: ``_parse_grams`` checks its
    entries and validates it, together with the other grams of its size."""
    _require(isinstance(obj, dict) and len(obj) == 1,
             "fiber norm must be {\"lp\": p}, {\"gram\": [[...]]}, or"
             " {\"image_lp\": {\"matrix\": [[...]], \"p\": p}}", where)
    key = next(iter(obj))
    if key == "lp":
        p = _exponent(obj["lp"], "lp exponent", where + ".lp")
        try:
            return LpNorm(p)
        except InvalidExponent as exc:
            raise InputError(exc.message, path=where + ".lp") from exc
    if key == "gram":
        g = obj["gram"]
        # A JSON [] has no rows to fix a width, so no gram is 0 x 0 here.
        if not (type(g) is list and g and all(type(r) is list and len(r) == len(g) for r in g)):
            _require_numbers(g, "gram matrix entries must be numbers", where + ".gram", 2)
            raise InputError("gram matrix must be square", path=where + ".gram")
        return g
    if key == "image_lp":
        inner = obj["image_lp"]
        _require(isinstance(inner, dict) and "matrix" in inner and "p" in inner,
                 "image_lp needs 'matrix' and 'p'", where + ".image_lp")
        p = _exponent(inner["p"], "image_lp p", where + ".image_lp.p")
        return ImageLpNorm(_finite_matrix(inner["matrix"], "image matrix entries",
                                          where + ".image_lp.matrix"), p)
    raise InputError(f"unknown fiber norm kind {key!r}", path=where)


def _exponent(raw: Any, what: str, where: str) -> float:
    """A JSON exponent: a number or "inf"."""
    if raw == "inf":
        return math.inf
    _require(_number_type(type(raw)), f"{what} must be a number or \"inf\"", where)
    return float(raw)


def _finite_matrix(raw: Any, what: str, where: str) -> np.ndarray:
    """A JSON number, vector or matrix as floats.  An entry that is not a
    JSON number (a bool or a string, say), NaN and the infinities are
    refused at their entry."""
    try:
        arr = np.asarray(raw, dtype=float)
        entries = [raw]
        for _ in range(arr.ndim):
            entries = chain.from_iterable(entries)
        numbers = _numbers(entries)
    except (TypeError, ValueError):  # ragged, or not numbers
        numbers = False
    if not numbers:
        raise InputError(f"{what} must be numbers", path=where + _non_number_at(raw))
    bad = np.argwhere(~np.isfinite(arr))
    if bad.shape[0]:
        raise InputError(f"{what} must be finite",
                         path=where + "".join(f"[{i}]" for i in bad[0]))
    return arr


def _parse_grams(raws: list[list]) -> tuple[list["GramNorm"], tuple[int, str, str] | None]:
    """The GramNorms of JSON gram matrices of one size (square lists of
    lists, from ``_parse_norm``): their entries are type-checked and
    converted as one list, checked finite as one stack, and validated by
    ``_stack_gram_norms``.

    Returns the norms of the matrices before the first one refused, and
    that one as (its position, the message, the path of the faulty entry
    below the matrix, "" for the matrix), or None when all pass.
    """
    k, d = len(raws), len(raws[0])
    entries = list(chain.from_iterable(chain.from_iterable(raws)))
    problem = None
    if not _numbers(entries):
        k = next(m for m, g in enumerate(raws) if not _numbers(chain.from_iterable(g)))
        problem = k, "gram matrix entries must be numbers", _non_number_at(raws[k], 2)
    stack = np.array(entries[:k * d * d], dtype=float).reshape(k, d, d)
    finite = np.isfinite(stack)
    if not finite.all():
        first = np.argwhere(~finite)[0].tolist()
        k = first[0]
        problem = k, "gram matrix entries must be finite", "".join(f"[{i}]" for i in first[1:])
    if not k:
        return [], problem
    norms, defect = _stack_gram_norms(stack[:k])
    if defect is not None:
        problem = defect[0], defect[1], ""
        norms = norms[:defect[0]]
    return norms, problem


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


def _stack_gram_norms(stack: np.ndarray) -> tuple[list["GramNorm"], tuple[int, str] | None]:
    """The GramNorm of every matrix of a (k, d, d) stack, validated by one
    ``_check_grams`` call, and the position and defect message of the first
    matrix refused, or None when all pass (only then are the norms valid).
    A norm's gram is a read-only view into a fresh stack.
    """
    fixed, codes = _check_grams(stack)
    fixed.setflags(write=False)
    bad = np.flatnonzero(codes)
    defect = (int(bad[0]), _GRAM_DEFECTS[codes[bad[0]]]) if bad.size else None
    return list(map(GramNorm._trusted, fixed)), defect


def _gram_norms(grams: Sequence[np.ndarray]
                ) -> tuple[list["GramNorm"], tuple[int, str] | None]:
    """``_stack_gram_norms`` for square matrices of any sizes, with one
    call per size; the defect reported is the first in the given order."""
    sizes = np.fromiter((g.shape[0] for g in grams), dtype=np.intp, count=len(grams))
    norms = [None] * len(grams)
    defect = None
    for idx in _split_atoms(sizes):
        some, bad = _stack_gram_norms(np.stack([grams[i] for i in idx]))
        if bad is not None and (defect is None or idx[bad[0]] < defect[0]):
            defect = int(idx[bad[0]]), bad[1]
        for i, norm in zip(idx.tolist(), some):
            norms[i] = norm
    return norms, defect


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
    """Composite norm x -> ||A x||_p, of the rank-deficient atoms of generated modules.

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
        """A module from JSON, in one pass over the fibers.

        Fibers with one lp exponent and dimension share one ``Fiber``.  The
        gram matrices of each size are converted as one stack and checked
        together after the pass (``_parse_grams``).  The error raised is the
        first in fiber order: the pass stops at its first error, of
        whatever type, and a faulty gram at an earlier fiber beats it; a
        gram is checked before its fiber's dimension.  Errors inside the
        pass carry paths relative to their fiber, which is named only when
        one is raised.
        """
        _require(isinstance(obj, dict), "module must be an object", where)
        for key in ("structure", "fibers"):
            _require(key in obj, f"module is missing {key!r}", f"{where}.{key}")
        structure = FiniteFStructure.from_json(obj["structure"], where + ".structure")
        raw = obj["fibers"]
        _require(isinstance(raw, list), "fibers must be a list", where + ".fibers")
        fibers: list[Fiber | None] = [None] * len(raw)
        lp_fibers: dict[tuple, Fiber] = {}
        grams: dict[int, tuple[list[int], list[int], list[list]]] = {}
        errors: list[tuple[int, Exception]] = []
        for i, f in enumerate(raw):
            try:
                if not (isinstance(f, dict) and "dim" in f and "norm" in f):
                    raise InputError("each fiber needs 'dim' and 'norm'", "")
                dim, norm = _integer(f["dim"], "fiber dim", ".dim"), f["norm"]
                if dim > MAX_FIBER_DIM:
                    raise InputError(f"fiber dim must be at most {MAX_FIBER_DIM}", ".dim")
                p = norm.get("lp") if type(norm) is dict and len(norm) == 1 else None
                # A key of the shared lp fibers; never a bool, as True == 1.
                if type(p) in (int, float, str):
                    fiber = lp_fibers.get((dim, p))
                    if fiber is None:
                        fiber = lp_fibers[dim, p] = Fiber(dim, _parse_norm(norm, ".norm"))
                    fibers[i] = fiber
                    continue
                parsed = _parse_norm(norm, ".norm")
                if type(parsed) is list:
                    atoms, dims, raws = grams.setdefault(len(parsed), ([], [], []))
                    atoms.append(i)
                    dims.append(dim)
                    raws.append(parsed)
                else:
                    fibers[i] = Fiber(dim, parsed)
            except Exception as exc:  # of any type: raised below, unless a gram is refused first
                errors.append((i, exc))
                break
        for atoms, dims, raws in grams.values():
            norms, problem = _parse_grams(raws)
            if problem is not None:
                errors.append((atoms[problem[0]], InputError(problem[1], ".norm.gram" + problem[2])))
            for a, dim, norm in zip(atoms, dims, norms):
                try:
                    fibers[a] = Fiber(dim, norm)
                except (InvalidStructure, DimensionMismatch) as exc:
                    errors.append((a, exc))
                    break
        if errors:
            i, exc = min(errors, key=lambda e: e[0])
            if isinstance(exc, (InputError, InvalidStructure, DimensionMismatch)):
                raise InputError(exc.message, path=f"{where}.fibers[{i}]{exc.path or ''}") from exc
            raise exc
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
        try:
            sizes = np.fromiter(map(len, vectors), dtype=np.intp, count=dims.size)
        except TypeError as exc:  # a scalar has no length
            raise DimensionMismatch("fiber vectors must be flat") from exc
        bad = np.flatnonzero(sizes != dims)
        if bad.size:
            a = bad[0]
            raise DimensionMismatch(
                f"fiber vector has length {sizes[a]}, fiber dimension is {dims[a]}"
            )
        flat = np.concatenate(vectors, axis=None, dtype=float) if dims.size else np.zeros(0)
        if flat.size != module._offsets[-1]:
            raise DimensionMismatch("fiber vectors must be flat")
        flat.setflags(write=False)
        self.flat = flat
        self.module = module
        self._vectors = None

    @classmethod
    def _from_flat(cls, flat: np.ndarray, module: FiberModule) -> "ModuleElement":
        """Wrap a fresh flat vector of the module's layout (taken, not copied).

        The only way to build a stack of S elements: an (S, N) ``flat``, one
        element per row, which ``pointwise_norm`` and ``HomElement.apply``
        take and map row by row; the other methods take single elements only.
        """
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
        _require_numbers(raw, "fiber vector entries must be numbers", where + ".vectors", 2)
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

    One stacked kernel call per fiber group.  A stack of S elements (see
    ``ModuleElement._from_flat``) gives an (S, n) batch, each row with the
    bits of its element's own call: a group's S * k rows go through one
    kernel call, its matrices repeated per element.
    """
    flat, groups = v.flat, v.module._groups
    if flat.ndim == 1:
        out = np.zeros(v.module.space.n)
        for g in groups:
            out[g.atoms] = g.norms_of(flat[g.cols])
        return Fn._trusted(out, v.module.space)
    s = flat.shape[0]
    out = np.zeros((s, v.module.space.n))
    for g in groups:
        k = g.atoms.size
        rows = flat[:, g.cols].reshape(s * k, g.dim)
        norms_of = g.norms_of if g.mats is None else g.take(np.tile(np.arange(k), s)).norms_of
        out[:, g.atoms] = norms_of(rows).reshape(s, k)
    return Fn._trusted(out, v.module.space)


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
    ``_extension_values``.  Its value, a certified lower bound, can round
    below 0 for v in the span, so it is clamped at 0.
    """
    if not v.module.same_module(n.module):
        raise DimensionMismatch("element and submodule live in different modules")
    return Fn(np.maximum(_extension_values([
        (fiber.norm, b, vec) for fiber, vec, b in zip(v.module.fibers, v.vectors, n.bases)
    ])[0], 0.0), v.module.space)


# --------------------------------------------------------------------------
# Minimizing a gauge over an affine subspace
# --------------------------------------------------------------------------

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
    cut by the package's rank rule for every exponent: one stacked thin
    ``_svd`` per rows shape.  Returns the values and, per problem, a
    minimiser y = M (e + rows^T t) in the lp coordinates, from the kernel's
    record.
    """
    lp, shapes = [], {}
    for norm, rows, e in problems:
        p, m = _lp_factor(norm)
        if m is not None:
            rows, e = rows @ m.T, m @ e
        if rows.size and e.any():
            shapes.setdefault(rows.shape, []).append(len(lp))
        lp.append((p, rows, e))
    for members in shapes.values():
        _, _, vt, ranks, _ = _svd(np.array([lp[i][1] for i in members]), full_matrices=False)
        for i, basis, rank in zip(members, vt, ranks.tolist()):
            lp[i] = (lp[i][0], basis[:rank], lp[i][2])
    gauges = _lp_gauges(lp)
    return gauges.value, gauges.points


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
