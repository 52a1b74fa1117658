"""The benchmark's workloads and the helpers they share.

The workloads ``lattice`` and ``modules`` each define ``build(seed, workdir)``
returning its job, a list of :class:`harness.Op`; ``fiberwise`` and
``solvers`` build the two halves of ``modules`` the same way.  Inputs are drawn from the
seed and built through the library's own constructors and ``from_json``;
operations are interleaved in a fixed order.
"""

from __future__ import annotations

import contextlib
import io
import json
import zlib
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np
import rieszmod as R
from rieszmod import cli

from harness import Op


def rng_for(workload: str, seed: int) -> np.random.Generator:
    """The input stream of one workload at one seed."""
    return np.random.default_rng([zlib.crc32(workload.encode()), seed])


def api(name: str, *args: Any, **kwargs: Any) -> Callable[[], Any]:
    """A call to ``rieszmod.<name>``, looked up when it runs so that the
    wrappers a traced round installs are the ones called."""
    def call() -> Any:
        return getattr(R, name)(*args, **kwargs)
    return call


def run_cli(argv: Sequence[str]) -> tuple[int, str]:
    """Run the in-process CLI and return (exit code, standard output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def write_json(workdir: Path, name: str, obj: Any) -> str:
    path = workdir / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def interleave(groups: Sequence[list[Op]]) -> list[Op]:
    """Merge per-kind op lists so each kind is spread evenly over the job."""
    keyed = []
    for g, ops in enumerate(groups):
        for i, op in enumerate(ops):
            keyed.append(((i + 0.5) / len(ops), g, op))
    keyed.sort(key=lambda item: item[:2])
    return [op for _, _, op in keyed]


def spd(rng: np.random.Generator, d: int) -> np.ndarray:
    """A well-conditioned symmetric positive-definite matrix (non-diagonal)."""
    a = rng.standard_normal((d, d))
    return a @ a.T + d * np.eye(d)


def norm_json(desc: tuple) -> dict:
    kind, p, mat = desc
    if kind == "lp":
        return {"lp": "inf" if p == float("inf") else p}
    if kind == "gram":
        return {"gram": mat.tolist()}
    return {"image_lp": {"matrix": mat.tolist(), "p": "inf" if p == float("inf") else p}}


def structure_json(n: int, weights: Sequence[float], prefix: str = "a") -> dict:
    """U = Linf and V = L2 over n named atoms; callers override U and V."""
    return {
        "space": {"atoms": [f"{prefix}{i}" for i in range(n)], "weights": [float(w) for w in weights]},
        "U": "Linf",
        "V": {"Lp": 2.0},
    }


def module_json(descs: Sequence[tuple], dims: Sequence[int], structure: dict) -> dict:
    return {
        "structure": structure,
        "fibers": [{"dim": int(d), "norm": norm_json(desc)} for desc, d in zip(descs, dims)],
    }
