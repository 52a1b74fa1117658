"""Independent checkers for the benchmark's outputs.

Each checker recomputes what the library returned with plain numpy (or a
linear program of its own through scipy) from the inputs the benchmark
generated, or tests a property the answer must have, and raises
:class:`CheckFailed` on disagreement.  None of them calls back into the
library's algorithms: library objects are only read for their data.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Any, Sequence, Sized

import numpy as np
from scipy.optimize import linprog

from harness import CheckFailed

# --------------------------------------------------------------------------
# Fiber norms from the benchmark's own fiber descriptions
# --------------------------------------------------------------------------
# A fiber description is (kind, p, matrix): kind "lp" with exponent p, "gram"
# with its matrix, or "image" with matrix A and exponent p (x -> |A x|_p).

def lp(x: np.ndarray, p: float, axis: int = -1) -> np.ndarray | float:
    a = np.abs(np.asarray(x, dtype=float))
    if a.shape[axis] == 0:
        return np.zeros(a.shape[:axis] + a.shape[axis + 1:]) if a.ndim > 1 else 0.0
    if p == math.inf:
        return a.max(axis=axis)
    return (a ** p).sum(axis=axis) ** (1.0 / p)


def conjugate(p: float) -> float:
    """The exponent q with 1/p + 1/q = 1."""
    return math.inf if p == 1.0 else 1.0 if p == math.inf else p / (p - 1.0)


def whiten(gram: np.ndarray) -> np.ndarray:
    """Upper factor R with gram = R^T R, so that the gram norm is |R x|_2."""
    return np.linalg.cholesky(gram).T


def fiber_norm(desc: tuple, x: np.ndarray) -> float:
    kind, p, mat = desc
    if x.size == 0:
        return 0.0
    if kind == "lp":
        return float(lp(x, p))
    if kind == "gram":
        return float(np.linalg.norm(whiten(mat) @ x))
    return float(lp(mat @ x, p))


def dual_norm(desc: tuple, row: np.ndarray) -> float:
    """sup { row . x : norm(x) <= 1 } for lp and gram fibers."""
    kind, p, mat = desc
    if row.size == 0:
        return 0.0
    if kind == "lp":
        return float(lp(row, conjugate(p)))
    if kind == "gram":
        r = whiten(mat)
        return float(np.linalg.norm(np.linalg.solve(r.T, row)))
    raise ValueError("dual norms are checked for lp and gram fibers only")


def close(got: float, want: float, rtol: float, what: str) -> None:
    if not abs(got - want) <= rtol * max(1.0, abs(want)):
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


def same_count(got: Sized, want: int, what: str) -> None:
    """The output has one entry per atom: a short one is never checked vacuously."""
    if len(got) != want:
        raise CheckFailed(f"{what}: {len(got)} entries, expected {want}")


def vectors_equal(got: Sequence[np.ndarray], want: Sequence[np.ndarray], what: str) -> None:
    same_count(got, len(want), what)
    for i, (a, b) in enumerate(zip(got, want)):
        if a.shape != b.shape or not np.array_equal(a, b):
            raise CheckFailed(f"{what}: atom {i} differs")


def norms_match(got: np.ndarray, descs: Sequence[tuple], vectors: Sequence[np.ndarray],
                what: str, rtol: float = 1e-10) -> None:
    want = np.array([fiber_norm(d, x) for d, x in zip(descs, vectors)])
    got = np.asarray(got, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: shape {got.shape}, expected {want.shape}")
    bad = np.abs(got - want) > rtol * np.maximum(1.0, np.abs(want))
    if bad.any():
        i = int(np.argmax(bad))
        raise CheckFailed(f"{what}: atom {i} has {got[i]!r}, numpy gives {want[i]!r}")


# --------------------------------------------------------------------------
# Order and spaces layers
# --------------------------------------------------------------------------

def all_laws_pass(report: Any, count: int, what: str) -> None:
    """Every identity holds on every triple: they are theorems."""
    if len(report.laws) != count:
        raise CheckFailed(f"{what}: {len(report.laws)} laws, expected {count}")
    failed = [r.id for r in report.laws if not r.passed]
    if failed:
        raise CheckFailed(f"{what}: laws reported failing: {failed}")


def law_flagged(report: Any, law_id: str) -> None:
    """A deliberately corrupted distance must be caught by this law."""
    if law_id not in [r.id for r in report.laws if not r.passed]:
        raise CheckFailed(f"corrupted distance not flagged by {law_id}")


def masks_of(idempotents: Sequence[Any]) -> np.ndarray:
    vals = np.array([i.element.values for i in idempotents], dtype=float)
    if vals.size and not np.all((vals == 0.0) | (vals == 1.0)):
        raise CheckFailed("an idempotent has values other than 0 and 1")
    return vals.astype(bool).reshape(len(idempotents), -1)


def stone_expected(member: np.ndarray) -> tuple[np.ndarray, list[list[int]]]:
    """Atoms as masks (by first occurrence) and each generator's atom indices,
    from the unique membership columns."""
    uniq, first, inverse = np.unique(member.T, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    atoms = np.array([inverse.reshape(-1) == r for r in order])
    embedding = [[k for k, r in enumerate(order) if uniq[r][g]] for g in range(member.shape[0])]
    return atoms, embedding


def stone_matches(member: np.ndarray, atoms: np.ndarray, embedding: Sequence[Sequence[int]]) -> None:
    want_atoms, want_emb = stone_expected(member)
    if atoms.shape != want_atoms.shape or not np.array_equal(atoms, want_atoms):
        raise CheckFailed(f"stone atoms differ from the unique membership columns"
                          f" ({atoms.shape[0]} atoms, expected {want_atoms.shape[0]})")
    if [list(e) for e in embedding] != want_emb:
        raise CheckFailed("stone embedding differs from the membership columns")


def partition_matches(partition: Any, parts: np.ndarray, cover: np.ndarray) -> None:
    got = masks_of(partition.parts)
    if not np.array_equal(got, parts):
        raise CheckFailed("partition parts differ from the inputs")
    if parts.sum(axis=0).max(initial=0) > 1:
        raise CheckFailed("partition accepted overlapping parts")
    if not np.array_equal(parts.any(axis=0), cover):
        raise CheckFailed("partition parts do not cover the idempotent")


def refinement_expected(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    prods = [a & b for a in p for b in q]
    return np.array([m for m in prods if m.any()])


def refinement_matches(partition: Any, p: np.ndarray, q: np.ndarray) -> None:
    got = masks_of(partition.parts)
    want = refinement_expected(p, q)
    if got.shape != want.shape or not np.array_equal(got, want):
        raise CheckFailed("refined parts differ from the pairwise products")


_COMBINE = {"+": np.add, "*": np.multiply, "max": np.maximum, "min": np.minimum}


def combine_matches(simple: Any, p: np.ndarray, lam: np.ndarray,
                    q: np.ndarray, mu: np.ndarray, op: str) -> None:
    refinement_matches(simple.partition, p, q)
    u = lam @ p
    v = mu @ q
    want = _COMBINE[op](u, v)
    got = simple.value().values
    if not np.allclose(got, want, rtol=0.0, atol=1e-12):
        raise CheckFailed(f"simple_combine {op!r} disagrees with the pointwise {op!r}")


def cli_report(code: int, text: str, command: str) -> dict:
    """The parsed report of a CLI command that must have passed."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{command}: output is not JSON: {exc}") from exc
    if code != 0:
        raise CheckFailed(f"{command}: exit code {code}: {text[:200]}")
    if report.get("command") != command:
        raise CheckFailed(f"{command}: report names command {report.get('command')!r}")
    return report


def cli_laws_ok(out: tuple[int, str], samples: int) -> None:
    report = cli_report(*out, "laws")
    laws = report.get("laws", [])
    if report.get("law_count") != 18 or len(laws) != 18:
        raise CheckFailed(f"laws: {report.get('law_count')} laws, expected 18")
    if report.get("samples") != samples:
        raise CheckFailed(f"laws: ran {report.get('samples')} samples, asked for {samples}")
    if report.get("all_passed") is not True or not all(law["passed"] for law in laws):
        raise CheckFailed("laws: a law is reported failing")


def cli_stone_ok(out: tuple[int, str], member: np.ndarray) -> None:
    report = cli_report(*out, "stone")
    stone_matches(member, np.array(report["atoms"], dtype=bool), report["embedding"])


# --------------------------------------------------------------------------
# Module, constructions and duality layers, wide
# --------------------------------------------------------------------------

def edge_gradient(n: int, edges: Sequence[tuple[int, int, float]], f: np.ndarray,
                  p: float) -> np.ndarray:
    """(sum over edges at x of w |f(y) - f(x)|^p)^(1/p) per vertex x.

    At p = inf the weights drop out, as in the library's convention of
    scaling rows by w^(1/p).
    """
    e = np.array(edges, dtype=float).reshape(-1, 3)
    u, v, w = e[:, 0].astype(int), e[:, 1].astype(int), e[:, 2]
    diff = np.abs(f[v] - f[u])
    out = np.zeros(n)
    if p == math.inf:
        np.maximum.at(out, u, diff)
        np.maximum.at(out, v, diff)
        return out
    np.add.at(out, u, w * diff ** p)
    np.add.at(out, v, w * diff ** p)
    return out ** (1.0 / p)


def degrees(n: int, edges: Sequence[tuple[int, int, float]]) -> list[int]:
    deg = [0] * n
    for u, v, _ in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def library_fiber_desc(fiber: Any) -> tuple:
    """The data of a fiber norm the library built (generated modules)."""
    norm = fiber.norm
    if hasattr(norm, "gram"):
        return ("gram", 2.0, np.asarray(norm.gram))
    if hasattr(norm, "matrix"):
        return ("image", float(norm.p), np.asarray(norm.matrix))
    return ("lp", float(norm.p), None)


def gradient_matches(got: np.ndarray, n: int, edges: Sequence, f: np.ndarray, p: float,
                     what: str) -> None:
    want = edge_gradient(n, edges, f, p)
    same_count(got, n, what)
    bad = np.abs(np.asarray(got) - want) > 1e-9 * np.maximum(1.0, want)
    if bad.any():
        i = int(np.argmax(bad))
        raise CheckFailed(f"{what}: |df| at vertex {i} is {got[i]!r}, edge list gives {want[i]!r}")


def dims_match(got: Sequence[int], want: Sequence[int], what: str) -> None:
    if list(got) != list(want):
        raise CheckFailed(f"{what}: fiber dimensions differ from the vertex degrees")


def decomposition_expected(dims: Sequence[int]) -> list[tuple[int, np.ndarray]]:
    arr = np.asarray(dims)
    return [(int(d), arr == d) for d in np.unique(arr)]


def decomposition_matches(blocks: Sequence[tuple[int, np.ndarray]], dims: Sequence[int]) -> None:
    want = decomposition_expected(dims)
    if [d for d, _ in blocks] != [d for d, _ in want]:
        raise CheckFailed("decomposition dimensions differ from np.unique of the dims")
    for (d, got), (_, mask) in zip(blocks, want):
        if not np.array_equal(np.asarray(got, dtype=bool), mask):
            raise CheckFailed(f"decomposition part of dimension {d} differs")


def glue_round_trip(glued: Any, module: Any, labels: np.ndarray,
                    pieces: Sequence[Sequence[np.ndarray]]) -> None:
    """u_n . glue = u_n . v_n on every part u_n of the partition."""
    if glued.module is not module:
        raise CheckFailed("glue: the glued element lives in another module")
    same_count(glued.vectors, len(labels), "glue")
    for i, vec in enumerate(glued.vectors):
        if not np.array_equal(vec, pieces[labels[i]][i]):
            raise CheckFailed(f"glue: atom {i} does not restrict to its piece")


def operator_norm_closed(src: tuple, tgt: tuple, a: np.ndarray) -> float:
    """Operator norm for an l1, l-infinity (all sign vectors) or gram/l2 source."""
    d_src = a.shape[1]
    if d_src == 0 or a.shape[0] == 0:
        return 0.0
    kind, p, mat = src
    if kind == "lp" and p == 1.0:
        return max(fiber_norm(tgt, a[:, j]) for j in range(d_src))
    if kind == "lp" and p == math.inf:
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=d_src)))
        return max(fiber_norm(tgt, a @ s) for s in signs)
    r_src = np.eye(d_src) if kind == "lp" else whiten(mat)
    tk, tp, tmat = tgt
    if tk == "lp" and tp == 2.0:
        r_tgt = np.eye(a.shape[0])
    elif tk == "gram":
        r_tgt = whiten(tmat)
    else:
        raise ValueError("closed-form check needs an l2 or gram target for an l2/gram source")
    return float(np.linalg.svd(r_tgt @ a @ np.linalg.inv(r_src), compute_uv=False)[0])


def hom_norms_match(got: np.ndarray, srcs: Sequence[tuple], tgts: Sequence[tuple],
                    mats: Sequence[np.ndarray], what: str, rtol: float = 1e-9) -> None:
    same_count(got, len(mats), what)
    for i, (s, t, a) in enumerate(zip(srcs, tgts, mats)):
        close(float(got[i]), operator_norm_closed(s, t, a), rtol, f"{what} atom {i}")


def json_norm_desc(norm: dict) -> tuple:
    """A fiber description from a norm as the CLI prints it."""
    if "lp" in norm:
        return ("lp", math.inf if norm["lp"] == "inf" else float(norm["lp"]), None)
    if "gram" in norm:
        return ("gram", 2.0, np.array(norm["gram"], dtype=float))
    inner = norm["image_lp"]
    return ("image", math.inf if inner["p"] == "inf" else float(inner["p"]),
            np.array(inner["matrix"], dtype=float))


def dual_fibers_match(got: Sequence[tuple], descs: Sequence[tuple]) -> None:
    """Dual fibers carry the conjugate exponent or the inverse gram matrix."""
    same_count(got, len(descs), "dual fibers")
    for i, ((kind, p, g), (want_kind, want_p, mat)) in enumerate(zip(got, descs)):
        if want_kind == "lp":
            q = conjugate(want_p)
            if kind != "lp" or not math.isclose(p, q, rel_tol=1e-12):
                raise CheckFailed(f"dual fiber {i}: exponent {p}, expected {q}")
        elif kind != "gram" or not np.allclose(g @ mat, np.eye(len(mat)), atol=1e-9):
            raise CheckFailed(f"dual fiber {i}: gram is not the inverse")


def norming_ok(omega: Any, descs: Sequence[tuple], vectors: Sequence[np.ndarray]) -> None:
    """<omega, v> = |v| per atom and the dual norm of omega is 1 (0 where v = 0).

    For image fibers x -> |A x|_p the dual-norm bound is certified by a row
    u with |u|_q <= 1 and omega = A^T u: then omega.x = u.(A x) <= |A x|_p.
    """
    same_count(omega.matrices, len(descs), "norming functional")
    for i, (mat, desc, x) in enumerate(zip(omega.matrices, descs, vectors)):
        row = np.asarray(mat).reshape(-1)
        nrm = fiber_norm(desc, x)
        close(float(row @ x) if x.size else 0.0, nrm, 1e-10, f"<omega, v> at atom {i}")
        want = 1.0 if nrm > 0.0 else 0.0
        kind, p, a = desc
        if kind != "image":
            close(dual_norm(desc, row), want, 1e-10, f"dual norm of omega at atom {i}")
            continue
        if nrm == 0.0:
            if np.any(row != 0.0):
                raise CheckFailed(f"omega is nonzero at the zero atom {i}")
            continue
        y = a @ x
        if p == 1.0:
            u = np.sign(y)
        elif p == math.inf:
            u = np.zeros_like(y)
            k = int(np.argmax(np.abs(y)))
            u[k] = math.copysign(1.0, y[k])
        else:
            u = np.sign(y) * (np.abs(y) / lp(y, p)) ** (p - 1.0)
        if (lp(u, conjugate(p)) > 1.0 + 1e-12
                or not np.allclose(a.T @ u, row, atol=1e-10 * max(1.0, nrm))):
            raise CheckFailed(f"omega at image atom {i} is not certified by a unit dual row")


def pushforward_ok(pm: Any, fibers: Sequence[Any], amap: Sequence[int], pushed: Any,
                   v: Sequence[np.ndarray], descs: Sequence[tuple]) -> None:
    """|phi_* v| = phi(|v|): fibers and vectors copy along the atom map."""
    if tuple(pm.fibers) != tuple(fibers[a] for a in amap):
        raise CheckFailed("pushforward fibers are not copied along the atom map")
    same_count(pushed.vectors, len(amap), "pushforward")
    got = np.array([fiber_norm(descs[a], x) for a, x in zip(amap, pushed.vectors)])
    want = np.array([fiber_norm(descs[a], v[a]) for a in amap])
    if not np.array_equal(got, want):
        raise CheckFailed("|phi_* v| differs from phi(|v|)")


# --------------------------------------------------------------------------
# Solvers: quotient norms, operator norms, Hahn-Banach, projections
# --------------------------------------------------------------------------

def quotient_expected(desc: tuple, v: np.ndarray, basis: np.ndarray) -> float:
    """min over t of norm(v + basis^T t): a primal LP for l1 and l-infinity,
    least squares for l2 and gram fibers."""
    kind, p, mat = desc
    k, d = basis.shape
    if kind == "gram" or p == 2.0:
        r = whiten(mat) if kind == "gram" else np.eye(d)
        t = np.linalg.lstsq(r @ basis.T, -(r @ v), rcond=None)[0]
        return float(np.linalg.norm(r @ (v + basis.T @ t)))
    slack = d if p == 1.0 else 1
    c = np.concatenate([np.zeros(k), np.ones(slack)])
    s = np.eye(d) if p == 1.0 else np.ones((d, 1))
    a_ub = np.block([[basis.T, -s], [-basis.T, -s]])
    b_ub = np.concatenate([-v, v])
    res = linprog(c, A_ub=a_ub, b_ub=b_ub,
                  bounds=[(None, None)] * k + [(0.0, None)] * slack, method="highs")
    if not res.success:
        raise CheckFailed(f"reference LP failed: {res.message}")
    return float(res.fun)


def quotient_matches(got: Any, descs: Sequence[tuple], vs: Sequence[np.ndarray],
                     bases: Sequence[np.ndarray], rtol: float = 1e-8) -> None:
    same_count(got.values, len(descs), "quotient norm")
    for i, (desc, v, b) in enumerate(zip(descs, vs, bases)):
        close(float(got.values[i]), quotient_expected(desc, v, b), rtol,
              f"quotient norm at atom {i}")


def min_dual_norm(desc: tuple, basis: np.ndarray, r: np.ndarray) -> float:
    """min of the dual norm over rows w with basis @ w = r.

    The functional f(basis^T t) = r.t is dominated by g |.| exactly when this
    minimum is at most g.  An LP for l1 and l-infinity fibers, and the
    closed form sqrt(r^T (B G B^T)^-1 r) for gram and l2 fibers.
    """
    kind, p, mat = desc
    k, d = basis.shape
    if kind == "gram" or p == 2.0:
        g = mat if kind == "gram" else np.eye(d)
        return float(math.sqrt(r @ np.linalg.solve(basis @ g @ basis.T, r)))
    # Dual of l1 is l-infinity (minimize z with |w_i| <= z); dual of
    # l-infinity is l1 (w = w+ - w-).
    if p == 1.0:
        c = np.concatenate([np.zeros(d), [1.0]])
        a_ub = np.block([[np.eye(d), -np.ones((d, 1))], [-np.eye(d), -np.ones((d, 1))]])
        res = linprog(c, A_ub=a_ub, b_ub=np.zeros(2 * d),
                      A_eq=np.hstack([basis, np.zeros((k, 1))]), b_eq=r,
                      bounds=[(None, None)] * d + [(0.0, None)], method="highs")
    else:
        res = linprog(np.ones(2 * d), A_eq=np.hstack([basis, -basis]), b_eq=r,
                      bounds=[(0.0, None)] * (2 * d), method="highs")
    if not res.success:
        raise CheckFailed(f"reference LP failed: {res.message}")
    return float(res.fun)


def extension_ok(rows: Sequence[np.ndarray], descs: Sequence[tuple], bases: Sequence[np.ndarray],
                 values: Sequence[np.ndarray], gauge: Sequence[float]) -> None:
    """Exact restriction to the submodule and dual norm at most the gauge."""
    same_count(rows, len(descs), "extension")
    for i, (row, desc, b, r) in enumerate(zip(rows, descs, bases, values)):
        row = np.asarray(row, dtype=float).reshape(-1)
        if b.shape[0] and not np.allclose(b @ row, r, rtol=0.0,
                                          atol=1e-9 * max(1.0, float(np.abs(r).max()))):
            raise CheckFailed(f"extension does not restrict to the functional at atom {i}")
        dn = dual_norm(desc, row)
        # The repository's own domination tests allow 1e-8 absolute.
        if dn > gauge[i] * (1.0 + 1e-9) + 1e-8:
            raise CheckFailed(f"extension at atom {i} has dual norm {dn!r} > gauge {gauge[i]!r}")


def refused(out: Any, exc_type: type[BaseException], descs: Sequence[tuple],
            bases: Sequence[np.ndarray], values: Sequence[np.ndarray], gauge: np.ndarray) -> None:
    """An undominated problem, certified so by min_dual_norm, must raise."""
    excess = max(min_dual_norm(d, b, r) - g for d, b, r, g in zip(descs, bases, values, gauge))
    if excess <= 1e-6:
        raise CheckFailed("benchmark error: the refused problem is not certified infeasible")
    if not isinstance(out, exc_type):
        raise CheckFailed(f"undominated functional (excess {excess:.3g} over the gauge)"
                          f" was extended instead of refused")


def sign_enum_expected(tgt: tuple, a: np.ndarray) -> float:
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=a.shape[1])))
    images = signs @ a.T
    kind, p, mat = tgt
    if kind == "lp":
        return float(np.max(lp(images, p, axis=1)))
    r = whiten(mat)
    return float(np.max(np.linalg.norm(images @ r.T, axis=1)))


def sphere_sample_max(p: float, q: float, a: np.ndarray) -> float:
    """max of |A x|_q over a fixed 2e5-point sample of the l_p unit sphere:
    a lower bound on the l_p -> l_q operator norm."""
    x = np.random.default_rng(0).standard_normal((200_000, a.shape[1]))
    x /= lp(x, p, axis=1)[:, None]
    return float(np.max(lp(x @ a.T, q, axis=1)))


def ascent_ok(got: float, p: float, q: float, a: np.ndarray, lower: float) -> None:
    """An ascent operator norm lies between the sphere sample ``lower``
    (within the documented 1e-4) and the Hoelder bound |(|a_j|_q)_j|_p*."""
    upper = float(lp(lp(a, q, axis=0), conjugate(p)))
    if got > upper * (1.0 + 1e-12):
        raise CheckFailed(f"ascent hom norm {got!r} exceeds the Hoelder bound {upper!r}")
    if got < lower * (1.0 - 1e-4):
        raise CheckFailed(f"ascent hom norm {got!r} is more than 1e-4 below the"
                          f" sphere sample {lower!r}")


def box_kkt(x: np.ndarray, v: np.ndarray, gram: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
    """x in the box and the gradient G(x - v) points into the box's normal cone."""
    if np.any(x < lo) or np.any(x > hi):
        raise CheckFailed("box projection leaves the box")
    g = gram @ (x - v)
    tol = 1e-8 * max(1.0, float(np.abs(gram @ v).max()))
    inner = (x > lo) & (x < hi)
    if (np.any(np.abs(g[inner]) > tol) or np.any(g[x == lo] < -tol)
            or np.any(g[x == hi] > tol)):
        raise CheckFailed("box projection violates the KKT conditions")


def ball_kkt(x: np.ndarray, v: np.ndarray, gram: np.ndarray, c: np.ndarray, radius: float) -> None:
    r = whiten(gram)
    dist_v = float(np.linalg.norm(r @ (v - c)))
    if dist_v <= radius:
        if not np.array_equal(x, v):
            raise CheckFailed("ball projection moved a point inside the ball")
        return
    close(float(np.linalg.norm(r @ (x - c))), radius, 1e-10, "ball projection radius")
    # v - x = lam (x - c) with lam >= 0.
    lam = dist_v / radius - 1.0
    if not np.allclose(v - x, lam * (x - c), atol=1e-9 * max(1.0, dist_v)):
        raise CheckFailed("ball projection is not radial in the gram metric")


def subspace_kkt(x: np.ndarray, v: np.ndarray, gram: np.ndarray, basis: np.ndarray) -> None:
    t = np.linalg.lstsq(basis.T, x, rcond=None)[0]
    scale = max(1.0, float(np.abs(v).max()))
    if np.abs(basis.T @ t - x).max() > 1e-9 * scale:
        raise CheckFailed("subspace projection leaves the subspace")
    if np.abs(basis @ gram @ (v - x)).max() > 1e-9 * scale * max(1.0, float(np.abs(gram).max())):
        raise CheckFailed("subspace projection residual is not gram-orthogonal")


def variational_ok(x: np.ndarray, v: np.ndarray, gram: np.ndarray, feasible: np.ndarray,
                   members: Sequence[Any]) -> None:
    """x lies in every part and <v - x, y - x>_G <= 0 for feasible points y."""
    for ok in members:
        if not ok(x):
            raise CheckFailed("intersection projection leaves a part of the set")
    worst = float(np.max((feasible - x) @ gram @ (v - x)))
    if worst > 1e-7 * max(1.0, float(np.abs(v).max())) ** 2:
        raise CheckFailed(f"variational inequality fails by {worst:.3g}")


def in_box(lo: np.ndarray, hi: np.ndarray):
    return lambda x: bool(np.all(x >= lo - 1e-9) and np.all(x <= hi + 1e-9))


def in_ball(gram: np.ndarray, c: np.ndarray, radius: float):
    r = whiten(gram)
    return lambda x: float(np.linalg.norm(r @ (x - c))) <= radius * (1.0 + 1e-9)
