"""The lp gauge kernel: min over t of |e + rows^T t|_p, certified.

The quotient norm, the Hahn-Banach extension of least dual norm and the
dual norm of an image-lp fiber each minimise a gauge over an affine
subspace.  ``modules._lp_factor`` writes their fiber norms in lp
coordinates, and ``_lp_gauges`` answers the problems (p, rows, e) with one
record: a simplex for p in {1, infinity}, else one damped Newton objective
whose dual proposals are completed on the coordinates a minimiser drives to
zero, so that exponents near 1 (and, through the dual norms of image-lp
fibers, large ones) are certified too.  The simplex pivots a group's
tableaux in lockstep and in place, gathering the live ones only after some
block is optimal.  Its updates are elementwise and products run row by
row (``_matvec_rows``, ``_matmul_rows``), so an answer has the same bits
whatever else shares its stack.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import SolverFailed
from .spaces import _lp_rows


#: Relative singular-value cutoff of the package's one rank rule, which
#: ``_svd`` applies to every SVD that decides a rank, span or null space and
#: retries in range by a power of two; the ``lstsq`` solves keep LAPACK's.
RANK_RTOL = 1e-9


def _svd(stack: np.ndarray, full_matrices: bool = True, compute_uv: bool = True) -> tuple:
    """(u, s, vt, rank, shift) of a (k, rows, cols) stack by one stacked
    LAPACK call, which runs per matrix, so an answer does not depend on the
    stack; u and vt are None without ``compute_uv``.  rank counts the
    singular values above RANK_RTOL * max(sigma_1, 1).  The matrices whose
    sigma_1 overflows are redone in one more call, each scaled by the
    2^-shift that brings its largest entry into [1, 2): u and vt stay, s is
    2^-shift times the true one, and the rule stays relative.  shift is 0,
    and every bit kept, for the other matrices."""
    def svd(a: np.ndarray) -> tuple:
        out = np.linalg.svd(a, full_matrices=full_matrices, compute_uv=compute_uv)
        return tuple(out) if compute_uv else (None, out, None)

    u, s, vt = svd(stack)
    shift = np.zeros(len(stack), dtype=np.intp)
    if not np.maximum.reduce(s[:, :1], axis=None, initial=0.0) < math.inf:  # NaN fails it
        huge = np.flatnonzero(~(s[:, 0] < math.inf))
        shift[huge] = np.frexp(np.maximum.reduce(np.abs(stack[huge]), axis=(1, 2)))[1] - 1
        for whole, part in zip((u, s, vt), svd(np.ldexp(stack[huge], -shift[huge, None, None]))):
            if whole is not None:
                whole[huge] = part
    return u, s, vt, np.add.reduce(s > RANK_RTOL * np.maximum(s[:, :1], 1.0), axis=1), shift


def _shape_groups(mats: Sequence[np.ndarray]) -> list[list[int]]:
    """The indices of ``mats`` grouped by shape, in order of first use."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, m in enumerate(mats):
        groups.setdefault(m.shape, []).append(i)
    return list(groups.values())


def _matvec_rows(mats: np.ndarray, x: np.ndarray) -> np.ndarray:
    """mats[i] @ x[..., i, :] for every i, x a (k, cols) stack or an
    (S, k, cols) stack of S of them.

    Elementwise products and one reduction over the last axis rather than
    BLAS or ``einsum``, whose summation order can change with the stack, so
    that a row's bits do not depend on the other rows.
    """
    return np.add.reduce(mats * x[..., None, :], axis=-1)


def _matmul_rows(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """b[i] @ a[i] for every i (b may have one member for all), row by row
    as in ``_matvec_rows``."""
    return np.add.reduce(b[:, :, :, None] * a[:, None, :, :], axis=2)


def _lp_conjugate(p: float) -> float:
    if p == 1.0:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


class _Gauges(NamedTuple):
    """The answer of ``_lp_gauges``, per problem: ``value`` = w.e, a
    certified lower bound on the minimum; ``upper`` = |y|_p, the value at
    the minimiser y; the points y = e + rows^T t; and the dual points w,
    with rows @ w = 0 and |w|_q <= 1 for the conjugate q."""
    value: np.ndarray
    upper: np.ndarray
    points: list[np.ndarray]
    duals: list[np.ndarray]


def _lp_gauges(problems: Sequence[tuple[float, np.ndarray, np.ndarray]]) -> _Gauges:
    """min over t of |e + rows^T t|_p per problem (p, rows, e), the rows
    orthonormal, as one ``_Gauges`` record.

    A euclidean problem takes the least-squares step y = e - rows^T rows e
    and w = y / |y|_2 in closed form, one problem at a time; value and
    upper are both |y|_2.  The other problems are grouped by (p, rows
    shape), and each group makes one ``_simplex`` call (p in {1, infinity})
    or one ``_gauge_newton`` call, which proposes t and a dual direction w.
    The one certificate step (``_dual_points``) then projects w onto the
    null space of the rows and scales it into the dual unit ball, so
    value = w.e never
    exceeds the minimum, and raises SolverFailed when |y|_p exceeds it by
    more than the solver's tolerance (``_SIMPLEX_GAP``, ``_GAP_RTOL``)
    times |e|_p, the value at t = 0.
    """
    value, upper = np.zeros(len(problems)), np.zeros(len(problems))
    points: list = [None] * len(problems)
    duals: list = [None] * len(problems)
    groups: dict[tuple, list[int]] = {}
    for i, (p, rows, e) in enumerate(problems):
        if not e.any():
            points[i] = duals[i] = np.zeros(e.size)
        elif p == 2.0:
            points[i] = y = e - rows.T @ (rows @ e)
            value[i] = upper[i] = _lp_rows(2.0, y[None])[0]
            duals[i] = y / value[i] if value[i] > 0.0 else np.zeros(e.size)
        else:
            groups.setdefault((p, *rows.shape), []).append(i)
    for (p, *_), members in groups.items():
        r, e = (np.array(part) for part in zip(*(problems[i][1:] for i in members)))
        solve, gap = ((_simplex, _SIMPLEX_GAP) if p in (1.0, math.inf)
                      else (_gauge_newton, _GAP_RTOL))
        t, w = solve(p, r, e)
        y = e + _matvec_rows(np.swapaxes(r, 1, 2), t)
        w, v = _dual_points(p, r, e, w)
        n = _lp_rows(p, y)
        bad = n - v > gap * _lp_rows(p, e)
        if np.logical_or.reduce(bad):
            i = bad.argmax()
            raise SolverFailed(f"l{p:g} gauge kernel: primal value {n[i]:.17g} exceeds the"
                               f" dual value {v[i]:.17g} by more than {gap:g} |e|_p")
        value[members], upper[members] = v, n
        for i, y_i, w_i in zip(members, y, w):
            points[i], duals[i] = y_i, w_i
    return _Gauges(value, upper, points, duals)


def _dual_points(p: float, r: np.ndarray, e: np.ndarray, w: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The certificate step on raw dual directions w: each projected onto
    the null space of its rows and scaled into the dual unit ball, with
    its dual value w.e."""
    w = w - _matvec_rows(np.swapaxes(r, 1, 2), _matvec_rows(r, w))
    w /= np.maximum(1.0, _lp_rows(_lp_conjugate(p), w))[:, None]
    return w, np.add.reduce(w * e, axis=1)


#: ``_simplex``: at most ``_PIVOTS_PER_COLUMN`` lockstep pivots per tableau
#: column; entries up to ``_PIVOT_TOL`` are not pivots and reduced costs
#: above -``_COST_TOL`` are not negative (the tableau starts with entries
#: of at most 1 and costs 0 or 1); and the largest gap ``_lp_gauges``
#: certifies for it, relative to |e|_p.
_PIVOTS_PER_COLUMN = 10
_PIVOT_TOL = 1e-9
_COST_TOL = 1e-12
_SIMPLEX_GAP = 1e-10


def _simplex(p: float, r: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """t and a raw dual direction w for min |e + r^T t|_p per block (p in
    {1, infinity}, r an (n, k, m) stack, e != 0).

    The l1 and Chebyshev approximation problems (Barrodale & Roberts 1973;
    Barrodale & Phillips 1975) as primal linear programs over t = t+ - t-
    and nonnegative slacks, for e scaled to |e|_inf = 1, solved by a dense
    tableau simplex under Bland's rule (Bland 1977), which cannot cycle:
    the entering column is the first with a negative reduced cost, the
    leaving row the one of least ratio whose basic column comes first.
    The start is t = 0, so a minimiser at t = 0 is kept when the first
    optimal basis sits there.  SolverFailed is raised when a block is not
    optimal within the pivot budget.

    Blocks pivot in lockstep, in place: while every block is live each
    pivot updates the whole stack where it lies, and once some block is
    optimal it is written back and the live blocks are gathered into a
    smaller stack, which pivots in place in turn.  Every update is
    elementwise, so a block's bits do not depend on the stack.

    The tableau holds the constraint rows, then the reduced costs; its
    last column is the right-hand side.  Columns: t+, t-, then for p = 1
    the parts u, v of e + r^T t = u - v (cost 1 each, row i signed so that
    the part of e_i's sign starts basic at |e_i|), for p = infinity the
    bound s (cost 1) and the slacks of e + r^T t <= s and -(e + r^T t) <= s,
    with s pivoted in on the tightest row first.  The dual direction is
    w = 1 - d_u for p = 1 and the reduced costs of the first slacks less
    those of the second for p = infinity.
    """
    rt = r.swapaxes(1, 2)
    scale = np.maximum.reduce(np.abs(e), axis=1)
    e = e / scale[:, None]
    n, m, k = rt.shape
    eye = np.eye(m)
    if p == 1.0:
        tab = np.empty((n, m + 1, 2 * k + 2 * m + 1))
        pos = e >= 0.0
        sign = np.where(pos, 1.0, -1.0)[:, :, None]
        np.multiply(-sign, rt, out=tab[:, :m, :k])
        np.multiply(sign, rt, out=tab[:, :m, k:2 * k])
        np.multiply(sign, eye, out=tab[:, :m, 2 * k:2 * k + m])
        np.multiply(-sign, eye, out=tab[:, :m, 2 * k + m:-1])
        np.abs(e, out=tab[:, :m, -1])
        cost = np.zeros(tab.shape[2])
        cost[2 * k:-1] = 1.0
        np.subtract(cost, np.add.reduce(tab[:, :m], axis=1), out=tab[:, m])
        basis = 2 * k + np.arange(m) + np.where(pos, 0, m)
    else:
        tab = np.zeros((n, 2 * m + 1, 2 * k + 2 * m + 2))
        up, down = tab[:, :m], tab[:, m:-1]
        up[:, :, :k] = down[:, :, k:2 * k] = rt
        np.negative(rt, out=up[:, :, k:2 * k])
        np.negative(rt, out=down[:, :, :k])
        tab[:, :-1, 2 * k] = -1.0
        up[:, :, 2 * k + 1:2 * k + 1 + m] = down[:, :, 2 * k + 1 + m:-1] = eye
        np.negative(e, out=up[:, :, -1])
        down[:, :, -1] = e
        tab[:, -1, 2 * k] = 1.0
        basis = np.broadcast_to(2 * k + 1 + np.arange(2 * m), (n, 2 * m)).copy()
        leave, col = tab[:, :-1, -1].argmin(axis=1), np.full(n, 2 * k)
    width = tab.shape[2]
    budget = _PIVOTS_PER_COLUMN * (width - 1)
    work, bwork = tab, basis   # the live tableaux and bases: blocks act, at in work
    act = at = np.arange(n)
    infs = np.full(basis.shape, math.inf)   # the ratio of a row that is no pivot
    for step in range(-(p == math.inf), budget + 1):
        if step >= 0:
            neg = work[:, -1, :-1] < -_COST_TOL
            live = np.logical_or.reduce(neg, axis=1)
            if not np.logical_and.reduce(live):
                if work is not tab:
                    tab[act], basis[act] = work, bwork
                if not np.logical_or.reduce(live):
                    break
                work, bwork, act, neg = work[live], bwork[live], act[live], neg[live]
                at, infs = np.arange(act.size), infs[live]
            if step == budget:
                raise SolverFailed(f"l{p:g} simplex: {act.size} of {n} blocks not optimal after"
                                   f" {budget} pivots")
            col = neg.argmax(axis=1)
            entries = work[at, :-1, col]
            ok = entries > _PIVOT_TOL
            if not np.logical_and.reduce(np.logical_or.reduce(ok, axis=1)):
                raise SolverFailed(f"l{p:g} simplex: an entering column has no pivot")
            ratio = np.divide(work[:, :-1, -1], entries, out=infs.copy(), where=ok)
            tied = ratio == np.minimum.reduce(ratio, axis=1, keepdims=True)
            leave = np.where(tied, bwork, width).argmin(axis=1)
        prow = work[at, leave] / work[at, leave, col][:, None]
        work -= work[at, :, col][:, :, None] * prow[:, None, :]
        work[at, leave] = prow
        bwork[at, leave] = col
    x = np.zeros((n, width))
    x[np.arange(n)[:, None], basis] = tab[:, :-1, -1]
    d = tab[:, -1, :-1]
    if p == 1.0:
        w = 1.0 - d[:, 2 * k:2 * k + m]
    else:
        w = d[:, 2 * k + 1:2 * k + 1 + m] - d[:, 2 * k + 1 + m:]
    return (x[:, :k] - x[:, k:2 * k]) * scale[:, None], w


#: Largest gap, relative to |e|_p, that ``_lp_gauges`` certifies for
#: ``_gauge_newton``.
_GAP_RTOL = 1e-6

#: ``_newton``: step cap, and the Newton decrements, relative to a
#: problem's |e|_p, below which a step is taken in full and at which the
#: problem stops.
_NEWTON_STEPS = 100
_NEWTON_FULL = 1e-14
_NEWTON_RTOL = 1e-20

#: ``_gauge_newton``: the gap, relative to |e|_p, up to which the first
#: Newton point and its gradient are kept as they are.
_TIGHT_GAP = 1e-10


def _gauge_newton(p: float, c: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """t and a raw dual direction w for min |e[i] + c[i]^T t|_p per problem
    i (1 < p < infinity, the rows of each c[i] orthonormal, k of them).

    ``_newton`` from the least-squares point, and w = sign(u)|u|^(p-1), the
    gradient at u = y/|y|_p.  Near p = 1 a minimiser has exact zeros, where
    the gauge's kink stalls Newton and the gradient reads |u_i|^(p-1), far
    from 0 unless |u_i| is tiny (1e-70 at p = 1.05).  So where the gap of w
    exceeds ``_TIGHT_GAP``, for j = 1..k and Z the j smallest |u_i|,
    ``_newton`` reruns on the face y_Z = 0, where the gauge is smooth:
    t = t0 + N s, c_Z^T t0 = -e_Z and N an orthonormal null basis of c_Z^T
    (one stacked ``_svd`` of c_Z, whose entries are at most 1, so never
    shifted).  There w_S is the gradient and w_Z completes it, the
    least-squares solution of c_Z w_Z = -c_S w_S by the rank rule.
    The t of least |y|_p (none from a c_Z of rank below j) and the first w
    of largest certified value (``_dual_points``) are returned.
    """
    t = _newton(p, c, e, -_matvec_rows(c, e))
    top, u = _unit_points(p, c, e, t)
    w = np.sign(u) * np.abs(u) ** (p - 1.0)
    best = _dual_points(p, c, e, w)[1]
    loose = np.flatnonzero(top - best > _TIGHT_GAP * _lp_rows(p, e))
    c, ct, e = c[loose], np.swapaxes(c[loose], 1, 2), e[loose]
    order = np.argsort(np.abs(u[loose]), axis=1, kind="stable")
    for j in range(1, c.shape[1] + 1 if loose.size else 1):
        z = order[:, :j]
        vecs, sv, vt, rank, _ = _svd(np.take_along_axis(c, z[:, None, :], axis=2))
        inv = np.divide(1.0, sv, out=np.zeros_like(sv), where=np.arange(j) < rank[:, None])
        t0 = -_matvec_rows(vecs[:, :, :j], inv * _matvec_rows(vt, np.take_along_axis(e, z, axis=1)))
        null = np.swapaxes(vecs[:, :, j:], 1, 2)
        s = _newton(p, _matmul_rows(null, c), e + _matvec_rows(ct, t0),
                    _matvec_rows(null, t[loose] - t0))
        face = t0 + _matvec_rows(vecs[:, :, j:], s)
        nf, uf = _unit_points(p, c, e, face)
        closer = (nf < top[loose]) & (rank == j)
        t[loose[closer]], top[loose[closer]] = face[closer], nf[closer]
        cand = np.sign(uf) * np.abs(uf) ** (p - 1.0)
        np.put_along_axis(cand, z, 0.0, axis=1)
        coef = inv * _matvec_rows(np.swapaxes(vecs[:, :, :j], 1, 2), -_matvec_rows(c, cand))
        np.put_along_axis(cand, z, _matvec_rows(np.swapaxes(vt, 1, 2), coef), axis=1)
        value = _dual_points(p, c, e, cand)[1]
        better = value > best[loose]
        w[loose[better]], best[loose[better]] = cand[better], value[better]
    return t, w


def _unit_points(p: float, c: np.ndarray, e: np.ndarray, t: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """n = |y|_p and u = y / n (0 where n = 0), y = e + c^T t, per problem."""
    y = e + _matvec_rows(np.swapaxes(c, 1, 2), t)
    n = _lp_rows(p, y)
    return n, y / np.where(n > 0.0, n, 1.0)[:, None]


def _newton(p: float, c: np.ndarray, e: np.ndarray, t: np.ndarray) -> np.ndarray:
    """t minimising |e[i] + c[i]^T t|_p per problem by damped Newton from t,
    in place.  A step is halved until the Armijo condition with fraction
    1/4 holds (Boyd & Vandenberghe, Convex Optimization, 9.5), or taken in
    full when the decrement and any rise are below ``_NEWTON_FULL``, where
    rounding hides the decrease.  A problem stops at a decrement of
    ``_NEWTON_RTOL``, when a damped step fails, or after ``_NEWTON_STEPS``
    steps; problems never mix."""
    ct = np.swapaxes(c, 1, 2)
    reg = 1e-12 * np.eye(c.shape[1])
    scale = _lp_rows(p, e)
    act = np.arange(t.shape[0])
    ft = _unit_points(p, c, e, t)[0]
    for _ in range(_NEWTON_STEPS):
        # The gradient c j, j = sign(u)|u|^(p-1) at u = y/|y|_p, and the
        # Hessian (p-1)/|y| c (diag |u|^(p-2) - j j^T) c^T, weights floored
        # at 1e-12 of the largest, plus 1e-12/|y| c c^T (= I), so that a
        # nearly flat direction (large p) still has a bounded step.
        n, u = _unit_points(p, c[act], e[act], t[act])
        au = np.abs(u)
        grad = _matvec_rows(c[act], np.sign(u) * au ** (p - 1.0))
        floor = 1e-12 * np.maximum.reduce(au, axis=1)
        floor[floor == 0.0] = 1.0
        weight = np.maximum(au, floor[:, None]) ** (p - 2.0)
        hess = _matmul_rows(c[act] * weight[:, None, :], ct[act]) - grad[:, :, None] * grad[:, None, :]
        hess = (p - 1.0) * hess + reg
        hess /= np.where(n > 0.0, n, 1.0)[:, None, None]
        step = np.linalg.solve(hess, grad[..., None])[..., 0]
        dec = np.add.reduce(grad * step, axis=1)
        h = np.ones(act.size)
        fn = _unit_points(p, c[act], e[act], t[act] - step)[0]
        full = (dec <= _NEWTON_FULL * scale[act]) & (fn <= ft[act] + _NEWTON_FULL * scale[act])
        for _ in range(60):
            short = (fn > ft[act] - 0.25 * h * dec) & ~full
            if not short.any():
                break
            h[short] *= 0.5
            rows = act[short]
            fn[short] = _unit_points(p, c[rows], e[rows], t[rows] - h[short, None] * step[short])[0]
        go = (dec > _NEWTON_RTOL * scale[act]) & (full | (fn < ft[act]))
        act, step, h, fn = act[go], step[go], h[go], fn[go]
        if act.size == 0:
            break
        t[act] -= h[:, None] * step
        ft[act] = fn
    return t
