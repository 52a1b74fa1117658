"""Command-line front end: JSON descriptions in, deterministic reports out.

Every command prints exactly one JSON document to standard output: keys
sorted, two-space indent, floats in their shortest round-trip form.  The
seed (flag, then RIESZMOD_SEED, then 0) fully determines any sampling, so
identical invocations are byte-identical.  Exit codes: 0 all checks passed,
1 a law or invariant failed (the report lists the failures), 2 input error
(a machine-readable {"error": {...}} document).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Any, Sequence

import numpy as np

from .constructions import Graph, cotangent_module, pushforward_module
from .errors import DominationViolated, InputError, RieszmodError
from .hilbert import ConvexSet, HilbertModule, project_convex
from .homdual import StructureHom, _bidual_embed, _surjective, dual_module, hahn_banach_extend
from .modules import (
    FiberModule,
    ModuleElement,
    Submodule,
    _finite_matrix,
    dimensional_decomposition,
    pointwise_norm,
)
from .order import LAW_IDS, RING_TOL, riesz_law_suite
from .spaces import DualSystem, FiniteFStructure, Fn, _integer, _require_numbers, stone_atoms

SCHEMA_VERSION = "1.0.0"

#: Which library-level checks each command instantiates; reports cite these
#: stable identifiers so harnesses can map failures back to the law tables.
_REFS = {
    "laws": list(LAW_IDS),
    "cotangent": ["graph-gradient", "generated-module", "pointwise-norm"],
    "project": ["hilbert-projection", "parallelogram", "pairing-compatibility"],
    "decompose": ["dimensional-decomposition", "local-dimension"],
    "dual": ["dual-module", "bidual-embedding"],
    "pushforward": ["pushforward-module", "pushforward-isometry"],
    "hahn-banach": ["hahn-banach-extension", "domination", "exact-restriction"],
    "stone": ["stone-atoms", "boolean-embedding"],
}


def _dumps(obj: Any) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\\n"``,
    byte for byte for str-keyed objects, without json's pure-Python indent encoder."""
    return _encode(obj, "\n", {}) + "\n"


def _encode(o: Any, nl: str, memo: dict) -> str:
    """o as JSON, nested under the line break and indent ``nl``.  A list
    that holds only ints, only finite floats or only strs is written with
    one join.  A dict is encoded once per depth: ``memo`` maps its id and
    len(nl) to its text, for the dicts of one ``_dumps`` call (which keeps
    them alive), so a dict shared by many fibers (``_module_json``) costs
    one encoding."""
    inner = nl + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        kinds = set(map(type, o))
        if kinds == {float}:
            text = ("," + inner).join(map(float.__repr__, o))
            if "n" not in text:  # no nan, inf or -inf: those raise below
                return "[" + inner + text + nl + "]"
        elif kinds == {int}:
            return "[" + inner + ("," + inner).join(map(int.__repr__, o)) + nl + "]"
        elif kinds == {str}:
            return "[" + inner + ("," + inner).join(map(encode_basestring_ascii, o)) + nl + "]"
        return "[" + inner + ("," + inner).join([_encode(x, inner, memo) for x in o]) + nl + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        key = id(o), len(nl)
        text = memo.get(key)
        if text is None:
            items = [encode_basestring_ascii(k) + ": " + _encode(v, inner, memo)
                     for k, v in sorted(o.items())]
            text = memo[key] = "{" + inner + ("," + inner).join(items) + nl + "}"
        return text
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if isinstance(o, bool):
        return "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if math.isfinite(o):
            return float.__repr__(o)
        raise ValueError(f"Out of range float values are not JSON compliant: {o!r}")
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _resolve_seed(flag: int | None) -> int:
    if flag is not None:
        return flag
    env = os.environ.get("RIESZMOD_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InputError(f"RIESZMOD_SEED must be an integer, got {env!r}",
                             path="$env.RIESZMOD_SEED") from exc
    return 0


def _load(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}", path=path) from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}", path=path) from exc


def _require_samples(samples: int) -> None:
    if samples < 1:
        raise InputError(f"--samples must be at least 1, got {samples}", path="$.samples")


def _parse_exponent(raw: str) -> float:
    if raw == "inf":
        return math.inf
    try:
        return float(raw)
    except ValueError as exc:
        raise InputError(f"exponent must be a number or 'inf', got {raw!r}",
                         path="$.p") from exc


def _parse_vector(raw: str, length: int, what: str) -> list[float]:
    try:
        values = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"{what} must be a JSON array: {exc}", path=f"$.{what}") from exc
    message = f"{what} must be a JSON array of {length} numbers"
    if not isinstance(values, list) or len(values) != length:
        raise InputError(message, path=f"$.{what}")
    _require_numbers(values, message, f"$.{what}", 1)
    return _finite_matrix(values, f"{what} entries", f"$.{what}").tolist()


def _report(command: str, seed: int, payload: dict) -> dict:
    out = {
        "command": command,
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "spec_refs": _REFS[command],
    }
    out.update(payload)
    return out


def _module_json(module: FiberModule) -> dict:
    """``module.to_json()`` with one fiber dict per distinct ``Fiber`` object,
    so that ``_dumps`` encodes a fiber shared by many atoms once."""
    shared = {id(f): f for f in module.fibers}
    dicts = {key: f.to_json() for key, f in shared.items()}
    return {"structure": module.structure.to_json(),
            "fibers": [dicts[id(f)] for f in module.fibers]}


def _exponent_json(p: float) -> Any:
    return "inf" if p == math.inf else float(p)


# --------------------------------------------------------------------------
# Command handlers (each returns exit code and report payload)
# --------------------------------------------------------------------------

def _cmd_laws(args: argparse.Namespace) -> tuple[int, dict]:
    _require_samples(args.samples)
    if not (math.isfinite(args.ring_tol) and args.ring_tol >= 0.0):
        raise InputError(f"--ring-tol must be finite and nonnegative, got {args.ring_tol!r}",
                         path="$.ring_tol")
    structure = FiniteFStructure.from_json(_load(args.structure))
    seed = _resolve_seed(args.seed)
    rng = np.random.default_rng(seed)
    space = structure.space
    triples = [
        tuple(Fn(rng.standard_normal(space.n), space) for _ in range(3))
        for _ in range(args.samples)
    ]
    suite = riesz_law_suite(triples, ring_tol=args.ring_tol)
    ok = all(r.passed for r in suite.laws)
    payload = {
        "all_passed": ok,
        "law_count": len(suite.laws),
        "laws": [r.to_json() for r in suite.laws],
        "ring_tol": args.ring_tol,
        "samples": args.samples,
    }
    return (0 if ok else 1), _report("laws", seed, payload)


def _cmd_cotangent(args: argparse.Namespace) -> tuple[int, dict]:
    graph = Graph.from_json(_load(args.graph))
    p = _parse_exponent(args.p)
    values = _parse_vector(args.fn, len(graph.vertices), "fn")
    _, gen = cotangent_module(graph, p)
    df = gen.generator_map(values)
    payload = {
        "fiber_dims": list(gen.module.dims),
        "fn": values,
        "p": _exponent_json(p),
        "vertices": list(graph.vertices),
        "|df|": pointwise_norm(df).to_json(),
    }
    return 0, _report("cotangent", _resolve_seed(args.seed), payload)


def _cmd_project(args: argparse.Namespace) -> tuple[int, dict]:
    module = FiberModule.from_json(_load(args.module))
    element = ModuleElement.from_json(_load(args.element), module)
    convex = ConvexSet.from_json(_load(args.set))
    hilbert = HilbertModule(module)
    projected = project_convex(element, convex)
    residual = pointwise_norm(element - projected)
    payload = {
        "compat_constant": hilbert.compat_constant,
        "distance": residual.to_json(),
        "projection": projected.to_json()["vectors"],
    }
    return 0, _report("project", _resolve_seed(args.seed), payload)


def _cmd_decompose(args: argparse.Namespace) -> tuple[int, dict]:
    module = FiberModule.from_json(_load(args.module))
    blocks = dimensional_decomposition(module)
    indicators = np.rint(np.stack([idem.element.values for _, idem in blocks])).astype(int)
    payload = {
        "decomposition": [
            {"D": row, "n": dim} for (dim, _), row in zip(blocks, indicators.tolist())
        ],
    }
    return 0, _report("decompose", _resolve_seed(args.seed), payload)


def _cmd_dual(args: argparse.Namespace) -> tuple[int, dict]:
    module = FiberModule.from_json(_load(args.module))
    system = DualSystem.default(module.structure)
    dual = dual_module(module, system)
    reflexive = _surjective(_bidual_embed(module, dual, system))
    payload = {
        "W": system.w_kind.to_json(),
        "Z": system.z_kind.to_json(),
        "dual": _module_json(dual),
        "reflexive": reflexive,
    }
    return (0 if reflexive else 1), _report("dual", _resolve_seed(args.seed), payload)


def _cmd_pushforward(args: argparse.Namespace) -> tuple[int, dict]:
    _require_samples(args.samples)
    module = FiberModule.from_json(_load(args.module))
    mapping = _load(args.map)
    if not isinstance(mapping, dict) or "target" not in mapping or "atom_map" not in mapping:
        raise InputError("map must be {\"target\": structure, \"atom_map\": [...]}",
                         path=args.map)
    target = FiniteFStructure.from_json(mapping["target"], "$.target")
    amap = mapping["atom_map"]
    if not isinstance(amap, list):
        raise InputError("atom_map must be a list of integers", path="$.atom_map")
    amap = tuple(_integer(i, "atom_map entry", f"$.atom_map[{k}]") for k, i in enumerate(amap))
    hom = StructureHom(module.structure, target, amap)
    pushed, forward = pushforward_module(hom, module)
    seed = _resolve_seed(args.seed)
    rng = np.random.default_rng(seed)
    # The samples are checked as (samples, coordinates) blocks of at most
    # 2^16 floats, each one draw: numpy's Generator gives the same stream as
    # one draw per sample.  Every map runs row by row, so a row has the bits
    # of its sample checked alone.
    n = int(module._offsets[-1])
    block = max(1, 2 ** 16 // max(n, 1))
    preserved = True
    for start in range(0, args.samples, block):
        v = ModuleElement._from_flat(
            rng.standard_normal((min(block, args.samples - start), n)), module)
        lhs = pointwise_norm(forward.apply(v))
        rhs = hom.apply(pointwise_norm(v))
        if not lhs.equals(rhs).all():
            preserved = False
            break
    payload = {
        "module": _module_json(pushed),
        "norm_preserved": preserved,
        "samples": args.samples,
    }
    return (0 if preserved else 1), _report("pushforward", seed, payload)


def _cmd_hahn_banach(args: argparse.Namespace) -> tuple[int, dict]:
    problem = _load(args.problem)
    if not isinstance(problem, dict):
        raise InputError("problem must be a JSON object", path=args.problem)
    for key in ("module", "basis", "functional", "gauge"):
        if key not in problem:
            raise InputError(f"problem is missing {key!r}", path=f"$.{key}")
    module = FiberModule.from_json(problem["module"], "$.module")
    if not isinstance(problem["basis"], list):
        raise InputError("basis must list one matrix per atom", path="$.basis")
    bases = tuple(_finite_matrix(b, "basis entries", f"$.basis[{a}]")
                  for a, b in enumerate(problem["basis"]))
    sub = Submodule(module, bases)
    functional = problem["functional"]
    if not isinstance(functional, list) or len(functional) != module.space.n:
        raise InputError(f"functional must list the values on each of the {module.space.n} atoms",
                         path="$.functional")
    functional = [_finite_matrix(r, "functional values", f"$.functional[{a}]")
                  for a, r in enumerate(functional)]
    _require_numbers(problem["gauge"], "gauge values must be numbers", "$.gauge")
    gauge = module.space.fn(problem["gauge"])
    if not np.all(np.isfinite(gauge.values)):
        raise InputError("gauge values must be finite", path="$.gauge")
    negative = np.flatnonzero(gauge.values < 0.0)
    if negative.size:
        raise InputError("gauge values must be nonnegative", path=f"$.gauge[{negative[0]}]")
    seed = _resolve_seed(args.seed)
    try:
        extension = hahn_banach_extend(sub, functional, gauge)
    except DominationViolated as exc:
        payload = {"failures": [{"code": exc.code, "message": exc.message}]}
        return 1, _report("hahn-banach", seed, payload)
    rows = [m[0] for m in extension.functional.matrices]
    payload = {
        "extension": [[float(x) for x in row] for row in rows],
        "restriction_values": [
            [float(row @ x) for x in b] for b, row in zip(bases, rows)
        ],
    }
    return 0, _report("hahn-banach", seed, payload)


def _cmd_stone(args: argparse.Namespace) -> tuple[int, dict]:
    structure = FiniteFStructure.from_json(_load(args.structure))
    data = _load(args.generators)
    if not isinstance(data, dict) or not isinstance(data.get("generators"), list):
        raise InputError("generators must be {\"generators\": [[0/1, ...], ...]}",
                         path=args.generators)
    space = structure.space
    _require_numbers(data["generators"], "generator values must be numbers", "$.generators")
    gens = [space.fn(g) for g in data["generators"]]
    atoms, embedding = stone_atoms(gens)
    payload = {
        "atoms": np.rint(np.stack([a.element.values for a in atoms])).astype(int).tolist(),
        "embedding": [list(e) for e in embedding],
    }
    return 0, _report("stone", _resolve_seed(args.seed), payload)


_HANDLERS = {
    "laws": _cmd_laws,
    "cotangent": _cmd_cotangent,
    "project": _cmd_project,
    "decompose": _cmd_decompose,
    "dual": _cmd_dual,
    "pushforward": _cmd_pushforward,
    "hahn-banach": _cmd_hahn_banach,
    "stone": _cmd_stone,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="rieszmod",
        description="Law suites and module constructions over finite measure spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, **kwargs: Any) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--seed", type=int, default=None,
                       help="sampling seed (default: RIESZMOD_SEED or 0)")
        return p

    p = add("laws", help="run the 18 lattice and ring identities on random triples")
    p.add_argument("--structure", required=True, help="f-structure JSON file")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--ring-tol", type=float, default=RING_TOL,
                   help="tolerance override for the product-mixed laws")

    p = add("cotangent", help="generate the graph p-gradient module and apply d")
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.add_argument("--p", required=True, help="gradient exponent (number or 'inf')")
    p.add_argument("--fn", required=True, help="vertex function as inline JSON array")

    p = add("project", help="project an element onto a fiberwise convex set")
    p.add_argument("--module", required=True, help="module JSON file (gram fibers)")
    p.add_argument("--element", required=True, help="element JSON file")
    p.add_argument("--set", required=True, help="convex set JSON file")

    p = add("decompose", help="partition the unit by local fiber dimension")
    p.add_argument("--module", required=True, help="module JSON file")

    p = add("dual", help="dual module under the canonical pairing, with reflexivity check")
    p.add_argument("--module", required=True, help="module JSON file")

    p = add("pushforward", help="transport a module along a structure hom")
    p.add_argument("--module", required=True, help="module JSON file")
    p.add_argument("--map", required=True,
                   help="JSON file {\"target\": structure, \"atom_map\": [...]}")
    p.add_argument("--samples", type=int, default=100)

    p = add("hahn-banach", help="extend a dominated functional from a submodule")
    p.add_argument("--problem", required=True,
                   help="JSON file {module, basis, functional, gauge}")

    p = add("stone", help="atoms of the Boolean algebra generated by idempotents")
    p.add_argument("--structure", required=True, help="f-structure JSON file")
    p.add_argument("--generators", required=True,
                   help="JSON file {\"generators\": [[0/1, ...], ...]}")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code, report = _HANDLERS[args.command](args)
        text = _dumps(report)
    except RieszmodError as exc:
        sys.stdout.write(_dumps(exc.to_json()))
        return 2
    except (ValueError, TypeError, OverflowError) as exc:
        # Malformed arrays and the like surface from numpy as ValueError, a
        # JSON integer beyond the float range as OverflowError, and a report
        # holding a NaN or an infinity from _dumps.
        err = InputError(str(exc))
        sys.stdout.write(_dumps(err.to_json()))
        return 2
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
