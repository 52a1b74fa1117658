"""Workload ``modules``: the module, constructions, duality and Hilbert layers.

One job interleaves two halves.  The wide half (``fiberwise``) runs modules
of thousands of atoms with a cheap kernel per atom, where grouping atoms by
fiber signature would show.  The deep half (``solvers``) runs modules of
1-3 atoms with an LP, descent or iteration per atom, where an exact
dual-program kernel would show and where an atom-grouping change that
costs small modules would show as a slowdown.  The halves share one job,
not a workload each, so that each run can be long enough to average out
the host's speed drift within the benchmark's time budget.
"""

from __future__ import annotations

from pathlib import Path

from harness import Op
from workloads import fiberwise, interleave, solvers


def build(seed: int, workdir: Path) -> list[Op]:
    return interleave([fiberwise.build(seed, workdir), solvers.build(seed, workdir)])
