"""Shared builders for the test suite.

Everything here is deliberately plain: spaces with hand-picked weights,
modules with small fibers, and seeded random elements.  Tests that need a
specific oracle value construct their inputs inline instead.
"""

import math

import numpy as np
from scipy.optimize import linprog

from rieszmod import (
    RANK_RTOL,
    Fiber,
    FiberModule,
    FiniteFStructure,
    FiniteMeasureSpace,
    FinitePartition,
    Fn,
    GramNorm,
    Idempotent,
    ImageLpNorm,
    InputError,
    Kind,
    LpNorm,
    ModuleElement,
    PartitionMismatch,
    SimpleElement,
    pointwise_norm,
    positive_part,
)
from rieszmod.modules import _matvec_rows
from rieszmod.order import _SIMPLE_OPS, LAW_TABLE, RING_TOL, LawReport, LawResult, abs_value
from rieszmod.spaces import _METRIC_TOL, FSTRUCT_LAW_IDS, _space_constant


def make_space(n, weights=None, aux=None):
    names = [f"a{i}" for i in range(n)]
    if weights is None:
        weights = [1.0] * n
    return FiniteMeasureSpace.make(names, weights, aux)


def make_structure(n, v="l2", weights=None, u="Linf"):
    """An f-structure over n atoms; v is 'l1', 'l2', 'linf', 'l0' or a float p."""
    space = make_space(n, weights)
    if v == "linf":
        v_kind = Kind("Linf")
    elif v == "l0":
        v_kind = Kind("L0")
    elif v == "l1":
        v_kind = Kind("Lp", 1.0)
    elif v == "l2":
        v_kind = Kind("Lp", 2.0)
    else:
        v_kind = Kind("Lp", float(v))
    u_kind = Kind("Linf") if u == "Linf" else Kind("L0")
    return FiniteFStructure(space, u_kind, v_kind)


def lp_module(structure, dims, p=2.0):
    fibers = tuple(Fiber(d, LpNorm(p)) for d in dims)
    return FiberModule(structure, fibers)


def gram_module(structure, grams):
    fibers = tuple(Fiber(g.shape[0], GramNorm(g)) for g in grams)
    return FiberModule(structure, fibers)


def random_spd(rng, dim):
    a = rng.standard_normal((dim, dim))
    return a @ a.T + dim * np.eye(dim)


def random_element(rng, module, scale=1.0):
    return ModuleElement(
        [scale * rng.standard_normal(f.dim) for f in module.fibers], module
    )


def sampled_compat_constant(module, system, samples=32, seed=20240819):
    """The largest sampled ratio d_V(|v|, 0)^2 / d_Z(|v|^2, 0) over seeded
    Gaussian elements v: the sampling loop ``HilbertModule`` once used for
    ``compat_constant``, kept as a reference.  A sample only bounds the
    supremum from below.  Each round also draws the second element w that
    the loop's parallelogram test used, so the stream and the values match it.
    """
    rng = np.random.default_rng(seed)
    zero = module.space.zero_fn()
    worst = 0.0
    for _ in range(samples):
        v = ModuleElement([rng.standard_normal(f.dim) for f in module.fibers], module)
        ModuleElement([rng.standard_normal(f.dim) for f in module.fibers], module)
        nv = pointwise_norm(v)
        pair = system.d_Z(Fn(nv.values ** 2, module.space), zero)
        if pair > 0.0:
            worst = max(worst, module.structure.d_V(nv, zero) ** 2 / pair)
    return worst


def random_fn(rng, space, scale=1.0):
    return Fn(scale * rng.standard_normal(space.n), space)


def indicator(space, mask):
    return space.indicator(np.asarray(mask, dtype=bool))


def primal_lp_distance(p, v, basis):
    """min over t of |v + basis^T t|_p for p in {1, inf}, as a primal LP.

    Epigraph form over (t, s): for p = 1, |(v + basis^T t)_i| <= s_i and
    the sum of s is minimized; for p = inf one s bounds every coordinate.
    """
    k, d = basis.shape
    s_count = d if p == 1.0 else 1
    cost = np.concatenate([np.zeros(k), np.ones(s_count)])
    spread = np.eye(d) if p == 1.0 else np.ones((d, 1))
    a_ub = np.block([[basis.T, -spread], [-basis.T, -spread]])
    res = linprog(cost, A_ub=a_ub, b_ub=np.concatenate([-v, v]),
                  bounds=[(None, None)] * k + [(0.0, None)] * s_count, method="highs")
    assert res.success, res.message
    return float(res.fun)


def reference_need(norm, basis, r):
    """min { N*(w) : basis @ w = r }, N* the dual of the fiber norm N.

    An independent solve of the dual problem max { l.r : N(basis^T l) <= 1 }:
    a linear program for l1 and l-infinity gauges, plain or image, and
    otherwise BFGS on l.r / N(basis^T l), whose value at a near-optimal l
    is accurate to second order.
    """
    from scipy.optimize import minimize

    p = getattr(norm, "p", 2.0)
    if p in (1.0, math.inf):
        c = norm.matrix @ basis.T if isinstance(norm, ImageLpNorm) else basis.T
        (m, k), cost = c.shape, -np.asarray(r, dtype=float)
        if p == math.inf:   # -1 <= c l <= 1
            a_ub, b_ub, bounds = np.vstack([c, -c]), np.ones(2 * m), [(None, None)] * k
        else:   # s >= |c l| with sum s <= 1
            eye = np.eye(m)
            a_ub = np.block([[c, -eye], [-c, -eye], [np.zeros((1, k)), np.ones((1, m))]])
            b_ub = np.concatenate([np.zeros(2 * m), [1.0]])
            cost = np.concatenate([cost, np.zeros(m)])
            bounds = [(None, None)] * k + [(0.0, None)] * m
        res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
        assert res.success, res.message
        return float(-res.fun)

    def neg(l):
        return -float(l @ r) / norm.norm(basis.T @ l)

    l = np.linalg.lstsq(basis @ basis.T, r, rcond=None)[0]
    for _ in range(3):
        l = minimize(neg, l, method="BFGS", options={"gtol": 1e-13}).x
    return -neg(l)


def reference_dual_norm(norm, w):
    """N*(w) = sup { w.x : N(x) <= 1 }, by ``reference_need``."""
    return reference_need(norm, np.eye(w.size), w)


def assert_extension(norm, basis, r, g, w):
    """w extends r from the rows of basis, N*(w) <= g (1 + 1e-9), and N*(w)
    is the least dual norm of any extension, all to 1e-9 (relative)."""
    assert np.max(np.abs(basis @ w - r), initial=0.0) <= 1e-9 * max(1.0, np.abs(r).max(initial=0.0))
    dual = reference_dual_norm(norm, w)
    assert dual <= g * (1.0 + 1e-9)
    need = reference_need(norm, basis, r) if basis.shape[0] else 0.0
    assert abs(dual - need) <= 1e-9 * max(1.0, need)


def count_calls(monkeypatch, owner, name):
    """Count calls of ``owner.name`` from here on, in a one-entry list.

    The library looks its numpy functions up as attributes on each call
    (``np.linalg.svd``, ``np.linalg.eigvalsh``, ``np.eye``) and its own
    kernels as module globals, so patching the attribute sees every call.
    """
    calls = [0]
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def count_solver_calls(monkeypatch):
    """Count the library's linear-program solves: every l1 and l-infinity
    program of the library goes through one call of the simplex kernel
    ``modules._polyhedral_gauges``."""
    from rieszmod import modules

    return count_calls(monkeypatch, modules, "_polyhedral_gauges")


def count_svd_calls(monkeypatch):
    """Count ``numpy.linalg.svd`` calls from here on."""
    return count_calls(monkeypatch, np.linalg, "svd")


def sequential_hom_apply(h, v):
    """The vectors of h.apply(v), one target atom at a time: a reference for
    the flat hom, with the one-row ``_matvec_rows`` that every fiber
    product of the package runs."""
    amap = h.hom.atom_map if h.hom is not None else range(h.target.space.n)
    return [_matvec_rows(m[None], v.vectors[amap[t]][None])[0]
            for t, m in enumerate(h.matrices)]


def sequential_rank(m):
    """The package's rank rule on one matrix, one SVD per call: the rank
    test ``independent_rows`` once ran for every candidate row."""
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > RANK_RTOL * max(float(s[0]), 1.0)))


def sequential_independent_rows(m):
    """The greedy row choice of ``independent_rows`` on one matrix, one
    ``sequential_rank`` per candidate row: a reference for the lockstep
    version.  A row is kept when it raises the rank of the rows kept so far,
    until the rank reaches the column count."""
    kept = []
    for i in range(m.shape[0]):
        if len(kept) == m.shape[1]:
            break
        if sequential_rank(m[kept + [i]]) > len(kept):
            kept.append(i)
    return kept


def sequential_law_report(samples, law_ids=None, ring_tol=RING_TOL):
    """The law suite's report, computed one sample triple at a time.

    A reference for ``riesz_law_suite``: for each sample in order, each law
    that has not failed yet runs its checks on that one triple, and the first
    failing check fixes the counterexample at the atom where its sides differ
    most.
    """
    table = [e for e in LAW_TABLE if law_ids is None or e[0] in law_ids]
    laws = {law_id: {"id": law_id, "passed": True, "counterexample": None}
            for law_id, _, _ in table}
    for k, (u, v, w) in enumerate(samples):
        for law_id, klass, evaluate in table:
            if not laws[law_id]["passed"]:
                continue
            tol = 0.0 if klass == "lattice" else ring_tol
            for lhs, rhs, relation in evaluate(u, v, w):
                if relation == "eq":
                    ok = lhs.equals(rhs) if tol == 0.0 else lhs.deviation(rhs) <= tol
                else:
                    excess = positive_part(lhs - rhs)
                    ok = lhs.leq(rhs) if tol == 0.0 else excess.deviation(excess.zero()) <= tol
                if not ok:
                    atom = int(np.argmax(np.abs(lhs.values - rhs.values)))
                    laws[law_id] = {"id": law_id, "passed": False, "counterexample": {
                        "sample": k, "atom": atom,
                        "lhs": float(lhs.values[atom]), "rhs": float(rhs.values[atom])}}
                    break
    return {"laws": [laws[law_id] for law_id, _, _ in table]}


def sequential_fstructure_report(structure, samples, d_u=None, d_v=None):
    """The f-structure law report, computed one sample triple at a time.

    A reference for ``check_fstructure_laws``: its per-triple loop as it
    stood before the checks were batched, calling the distances on single
    functions.  Returns the report's JSON form.
    """
    du = d_u if d_u is not None else structure.d_U
    dv = d_v if d_v is not None else structure.d_V
    space = structure.space
    const = _space_constant(space)
    p_v = structure.v_kind.p if structure.v_kind.name == "Lp" else 1.0

    status = {law_id: LawResult(law_id, True, None) for law_id in FSTRUCT_LAW_IDS}

    def fail(law_id, k, lhs, rhs):
        if status[law_id].passed:
            status[law_id] = LawResult(
                law_id, False,
                {"sample": k, "atom": None, "lhs": float(lhs), "rhs": float(rhs)},
            )

    one = space.one_fn()
    zero = space.zero_fn()

    # Unit smallness: d_V(eps * 1, 0) decreases to ~0 along eps = 2^-k.
    seq = [dv(one.scale(2.0 ** -k), zero) for k in range(41)]
    ok_small = all(b <= a + _METRIC_TOL for a, b in zip(seq, seq[1:]))
    ok_small = ok_small and seq[-1] <= 1e-6 * max(1.0, seq[0])
    if not ok_small:
        fail("fstruct-unit-small", -1, seq[-1], 1e-6 * max(1.0, seq[0]))

    for k, (u, v, w) in enumerate(samples):
        scale = max(1.0, u.sup_abs, v.sup_abs, w.sup_abs)
        tol = _METRIC_TOL * scale

        # d(x, 0) = d(|x|, 0) for both distances.
        for dist in (du, dv):
            for x in (u, v):
                lhs, rhs = dist(x, zero), dist(abs_value(x), zero)
                if abs(lhs - rhs) > tol:
                    fail("fstruct-abs", k, lhs, rhs)

        # d(x + w, y + w) = d(x, y).
        for dist in (du, dv):
            lhs, rhs = dist(u + w, v + w), dist(u, v)
            if abs(lhs - rhs) > tol:
                fail("fstruct-translation", k, lhs, rhs)

        # 0 <= f <= g implies d(f, 0) <= d(g, 0).
        f = abs_value(u).meet(abs_value(v))
        g = abs_value(u)
        for dist in (du, dv):
            lhs, rhs = dist(f, zero), dist(g, zero)
            if lhs > rhs + tol:
                fail("fstruct-monotone", k, lhs, rhs)

        # Continuity of multiplication with an explicit local modulus.
        a, a2, b = u, v, w
        b2 = w + u.scale(0.5)
        eta = du(a, a2) + dv(b, b2)
        big = max(1.0, a.sup_abs, a2.sup_abs, b.sup_abs, b2.sup_abs, (a - a2).sup_abs)
        bound = const * big ** 2 * (eta + eta ** (1.0 / p_v))
        lhs = dv(a * b, a2 * b2)
        if lhs > bound + tol:
            fail("fstruct-mult-modulus", k, lhs, bound)

        # Glueing: over the disjoint blocks of a partition, the distance of
        # the glued element is at most the sum of the blockwise distances.
        mask = w.chi_pos()
        blocks = [mask, one - mask]
        pieces = [blocks[0] * abs_value(u), blocks[1] * abs_value(v)]
        glued = pieces[0].join(pieces[1])
        total = sum(dv(piece, zero) for piece in pieces)
        lhs = dv(glued, zero)
        if lhs > total + tol:
            fail("fstruct-glueing", k, lhs, total)

    return LawReport(tuple(status[law_id] for law_id in FSTRUCT_LAW_IDS)).to_json()


def sequential_refine(p, q):
    """``refine_partitions`` one pair of parts at a time: each product
    u_i * v_j is an ``Idempotent`` checked on its own and dropped when zero.
    A reference for the stacked kernel."""
    if not p.of.element.equals(q.of.element):
        raise PartitionMismatch("partitions cover different idempotents")
    parts = []
    for ui in p.parts:
        for vj in q.parts:
            prod = ui * vj
            if not prod.is_zero():
                parts.append(prod)
    return FinitePartition(tuple(parts), p.of)


def sequential_simple_combine(u, v, op):
    """``simple_combine`` one pair of parts at a time, as a reference."""
    if op not in _SIMPLE_OPS:
        raise ValueError(f"op must be one of {sorted(_SIMPLE_OPS)}, got {op!r}")
    f = _SIMPLE_OPS[op]
    coeffs = []
    parts = []
    for lam, ui in zip(u.coefficients, u.partition.parts):
        for mu, vj in zip(v.coefficients, v.partition.parts):
            prod = ui * vj
            if not prod.is_zero():
                coeffs.append(float(f(lam, mu)))
                parts.append(prod)
    return SimpleElement(tuple(coeffs), FinitePartition(tuple(parts), u.partition.of))


def sequential_stone_atoms(idempotents):
    """``stone_atoms`` with one dict lookup per atom and one checked
    ``Idempotent`` indicator per Stone atom, as a reference for generators
    on one space."""
    gens = [g if isinstance(g, Idempotent) else Idempotent(g) for g in idempotents]
    if len(gens) == 0:
        raise InputError("stone_atoms needs at least one idempotent")
    space = gens[0].element.space
    member = np.stack([g.element.values > 0.5 for g in gens])
    index = {}
    labels = np.array([index.setdefault(tuple(sig), len(index)) for sig in member.T.tolist()])
    signatures = list(index)
    atom_sets = [Idempotent(space.indicator(labels == k)) for k in range(len(signatures))]
    embedding = tuple(
        tuple(k for k, sig in enumerate(signatures) if sig[i])
        for i in range(len(gens))
    )
    return atom_sets, embedding
