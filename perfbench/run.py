#!/usr/bin/env python3
"""Run one benchmark workload against the library in ``src/``.

    python3 perfbench/run.py --workload lattice --seed 0 --seconds 45 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; ``--trace 1`` reports the
per-layer metrics of a traced run instead, and writes its spans to
``perfbench/out/``.

Set-up time is measured from the start of a fresh interpreter, so this
process only orchestrates: it starts several child interpreters one after
another, each of which imports the library, builds the inputs and warms up
every operation kind; the last child then runs the timed job.  The reported
``setup_s`` is the median over the children, each child's time scaled by
the host factor of a calibration burst it runs right after set-up (see
``harness``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("lattice", "modules")

#: Child interpreters per untraced run; each one measures set-up once.
SETUP_SAMPLES = 3

#: Calibration kernel runs right after set-up, for the set-up's host factor.
SETUP_CALIBRATIONS = 500


def _args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "setup", "measure"), default="main",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    # Unwind on SIGTERM, so that this process stops and reaps its child and
    # a child removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = _args(argv)
    if not (SRC / "rieszmod" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no library source at {SRC / 'rieszmod'}; run from a checkout\n")
        return 2
    if args.role != "main":
        return _child(args)

    samples = 1 if args.trace else SETUP_SAMPLES
    setups = []
    report = None
    for i in range(samples):
        role = "measure" if i == samples - 1 else "setup"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--role", role]
        t0 = time.monotonic()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) as proc:
            try:
                stdout, stderr = proc.communicate(timeout=args.seconds + 120.0)
            except BaseException:
                # Let the child clean up its scratch directory, then reap it.
                proc.terminate()
                try:
                    proc.communicate(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
                sys.stderr.write(f"perfbench: {role} child stopped\n")
                raise
        sys.stderr.write(stderr)
        if proc.returncode != 0 or not stdout.strip():
            sys.stderr.write(f"perfbench: {role} child exited with {proc.returncode}\n")
            return 1
        child = json.loads(stdout.strip().splitlines()[-1])
        setups.append((child["ready"] - t0) * child["setup_factor"])
        report = child
    if not args.trace:
        report["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps({key: report[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def _child(args: argparse.Namespace) -> int:
    # The pools are also pinned in the benchmark's command; this covers a
    # direct invocation and must run before numpy loads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    t_import = time.perf_counter()
    import rieszmod.cli  # noqa: F401  (the import is what is timed)
    import_s = time.perf_counter() - t_import
    if not Path(rieszmod.cli.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"perfbench: imported rieszmod from {rieszmod.cli.__file__}\n")
        return 2

    import importlib

    import harness

    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tracer = harness.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        job = importlib.import_module(f"workloads.{args.workload}").build(args.seed, workdir)
        warm = harness.warm_up(job)
        if tracer is not None:
            tracer.uninstall()
        ready = time.monotonic()
        setup_factor = harness.host_factor(
            [harness.calibrate() for _ in range(SETUP_CALIBRATIONS)])
        if args.role == "setup":
            print(json.dumps({"ready": ready, "setup_factor": setup_factor}))
            return 0
        result, extra = harness.run_rounds(job, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not warm.correct:
        result.correct = False
        result.errors = warm.errors + result.errors
    for line in result.errors:
        sys.stderr.write(f"perfbench: FAILED {line}\n")
    factor = harness.host_factor(result.calibrations)
    sys.stderr.write(f"perfbench: host factor {factor:.4f} in the run, "
                     f"{setup_factor:.4f} after set-up\n")
    if tracer is None:
        metrics = harness.end_to_end(result)
    else:
        metrics = _per_layer(job, tracer, result, extra, import_s * setup_factor, factor, args)
    print(json.dumps({"correct": result.correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics, "ready": ready,
                      "setup_factor": setup_factor}))
    return 0


def _per_layer(job, tracer, result, extra, import_s, factor, args) -> dict:
    """Every per-layer metric named in BENCHMARK.json, from the traced rounds.

    A metric whose operation this workload does not run reads 0.  Times are
    scaled by the run's host factor; ``import_s`` comes scaled already.
    """
    spec = {m["name"]: m["unit"]
            for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    names = list(spec)
    rounds = extra["traced_rounds"]
    ops = {f"r{r}.{i}" for r in rounds for i in range(len(job))}
    values: dict[str, float] = {name: 0.0 for name in names}
    for layer, (self_s, calls) in tracer.layer_totals(ops).items():
        values[f"{layer}.self_s"] = self_s / len(rounds)
        values[f"{layer}.calls"] = calls / len(rounds)
    for metric, samples in extra["op_spans"].items():
        values[metric] = statistics.median(samples)
    values["modules.from_json_ms"] = 1e3 * sum(
        s[3] - s[2] for s in tracer.spans
        if s[5] == "setup" and s[0] == "modules.FiberModule.from_json")
    for metric, count in result.fault_counts.items():
        layer_kind = metric.rsplit("_", 1)[0].rsplit(".", 1)[0]
        key = f"{layer_kind}.failed"
        if key in values:
            values[key] += count / extra["rounds"]
    values["trace.overhead_s"] = extra["traced_job"] - extra["untraced_job"]
    for name in names:
        if spec[name].split("/")[0] in ("s", "ms", "us"):
            values[name] *= factor
    values["cli.import_s"] = import_s
    OUT.mkdir(parents=True, exist_ok=True)
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({
        "fields": ["name", "layer", "start", "end", "parent", "op"],
        "traced_rounds": rounds,
        "host_factor": factor,
        "spans": tracer.spans,
    }))
    unknown = set(values) - set(names)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return {name: {"value": values[name], "unit": spec[name]} for name in names}


if __name__ == "__main__":
    sys.exit(main())
