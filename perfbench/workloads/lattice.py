"""Workload ``lattice``: law suites and partition calculus on the order layer.

Law suites run over a 2-atom space, where per-object ``Fn`` overhead
dominates, and over a wide space, where array work does; a batched carrier
for the law suites would show here and on no other workload.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path

import numpy as np
import rieszmod as R

import checks
from harness import Op
from workloads import api, interleave, rng_for, run_cli, structure_json, write_json

N_WIDE = 300
TRIPLES = 10          # triples per law-suite call
PARTITION_PARTS = 60
REFINE_PARTS = 8
STONE_GENERATORS = 8
N_CLI_STONE = 60       # atoms of the stone command's structure (its report lists atoms x atoms)
CLI_SAMPLES = 10

def _corrupt_truncation(t: np.ndarray) -> np.ndarray:
    """t -> (t ^ 1) + 1/2 [t > 0]: d(eps 1, 0) never shrinks to 0."""
    return np.minimum(t, 1.0) + 0.5 * (t > 0.0)


def _corrupt_dv(f, g):
    return R.l0_distance(f, g, truncation=_corrupt_truncation)


def build(seed: int, workdir: Path) -> list[Op]:
    rng = rng_for("lattice", seed)
    small_json = structure_json(2, rng.uniform(0.5, 2.0, 2))
    wide_json = structure_json(N_WIDE, rng.uniform(0.5, 2.0, N_WIDE))
    small = R.FiniteFStructure.from_json(small_json)
    wide = R.FiniteFStructure.from_json(wide_json)
    fstructs = [
        small,
        R.FiniteFStructure.from_json({**small_json, "U": "L0", "V": "L0"}),
        R.FiniteFStructure.from_json({**wide_json, "V": "Linf"}),
        R.FiniteFStructure.from_json({**wide_json, "V": {"Lp": 3.0}}),
    ]
    corrupt_on = R.FiniteFStructure.from_json({**wide_json, "U": "L0", "V": "L0"})

    def triples(space, count):
        return [[tuple(R.Fn(rng.standard_normal(space.n), space) for _ in range(3))
                 for _ in range(TRIPLES)] for _ in range(count)]

    law_small = [Op("order.law_suite_n2_us", api("riesz_law_suite", t),
                    partial(checks.all_laws_pass, count=18, what="law suite, 2 atoms"),
                    units=TRIPLES)
                 for t in triples(small.space, 24)]
    law_wide = [Op("order.law_suite_wide_us", api("riesz_law_suite", t),
                   partial(checks.all_laws_pass, count=18, what=f"law suite, {N_WIDE} atoms"),
                   units=TRIPLES)
                for t in triples(wide.space, 24)]
    fstruct = []
    for i in range(16):
        st = fstructs[i % len(fstructs)]
        fstruct.append(Op("spaces.fstruct_laws_us",
                          api("check_fstructure_laws", st, triples(st.space, 1)[0]),
                          partial(checks.all_laws_pass, count=6, what="f-structure laws"),
                          units=TRIPLES))
    for t in triples(corrupt_on.space, 4):
        fstruct.append(Op("spaces.fstruct_laws_us",
                          api("check_fstructure_laws", corrupt_on, t, d_v=_corrupt_dv),
                          partial(checks.law_flagged, law_id="fstruct-unit-small"),
                          units=TRIPLES))

    space = wide.space
    one = R.Idempotent(space.one_fn())

    def labels(k):
        return rng.permutation(np.arange(N_WIDE) % k)

    def masks(lab, k):
        return np.array([lab == j for j in range(k)])

    def idempotents(m):
        return tuple(R.Idempotent(space.indicator(row)) for row in m)

    partitions = []
    for _ in range(8):
        m = masks(labels(PARTITION_PARTS), PARTITION_PARTS)
        partitions.append(Op("order.partition_ms", api("FinitePartition", idempotents(m), one),
                             partial(checks.partition_matches, parts=m, cover=np.ones(N_WIDE, bool))))

    refine = []
    for i in range(8):
        p, q = (masks(labels(REFINE_PARTS), REFINE_PARTS) for _ in range(2))
        pp = R.FinitePartition(idempotents(p), one)
        qq = R.FinitePartition(idempotents(q), one)
        if i % 2 == 0:
            refine.append(Op("order.refine_ms", api("refine_partitions", pp, qq),
                             partial(checks.refinement_matches, p=p, q=q)))
        else:
            kind = ("+", "*", "max", "min")[i // 2]
            lam, mu = rng.standard_normal(REFINE_PARTS), rng.standard_normal(REFINE_PARTS)
            u = R.SimpleElement(tuple(lam), pp)
            v = R.SimpleElement(tuple(mu), qq)
            refine.append(Op("order.refine_ms", api("simple_combine", u, v, kind),
                             partial(checks.combine_matches, p=p, lam=lam, q=q, mu=mu, op=kind)))

    stone = []
    gens_members = []
    for _ in range(8):
        member = rng.random((STONE_GENERATORS, N_WIDE)) < 0.5
        gens = [space.indicator(row) for row in member]
        gens_members.append(member)
        stone.append(Op("spaces.stone_atoms_ms", api("stone_atoms", gens),
                        partial(_check_stone, member=member)))

    small_file = write_json(workdir, "lattice-small.json", small_json)
    wide_file = write_json(workdir, "lattice-wide.json", wide_json)
    stone_file = write_json(workdir, "lattice-stone.json",
                            structure_json(N_CLI_STONE, rng.uniform(0.5, 2.0, N_CLI_STONE)))
    cli_laws = []
    for i in range(4):
        argv = ["laws", "--structure", (small_file, wide_file)[i % 2],
                "--samples", str(CLI_SAMPLES), "--seed", str(int(rng.integers(0, 2**31)))]
        cli_laws.append(Op("cli.laws_ms", partial(run_cli, argv),
                           partial(checks.cli_laws_ok, samples=CLI_SAMPLES)))
    cli_stone = []
    for i in range(4):
        member = gens_members[i][:, :N_CLI_STONE]
        gen_file = write_json(workdir, f"lattice-gens{i}.json",
                              {"generators": member.astype(float).tolist()})
        argv = ["stone", "--structure", stone_file, "--generators", gen_file]
        cli_stone.append(Op("cli.stone_ms", partial(run_cli, argv),
                            partial(checks.cli_stone_ok, member=member)))

    ops = interleave([law_small, law_wide, fstruct, partitions, refine, stone, cli_laws, cli_stone])
    return ops


def _check_stone(out, member):
    atoms, embedding = out
    checks.stone_matches(member, checks.masks_of(atoms), embedding)
