"""Benchmark of gradefactor: four workloads, every output checked independently.

    python3 benchmarks/run.py --workload graded-sweep --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from its
`src` directory.  The run makes its inputs from the seed, times a fixed
amount of work (set by --seconds, never bounded by a clock), checks every
output, and prints a report line and then, as the last line, one JSON
object: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  Timings are stated at the reference speed of probe.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from checker import CheckFailed, OpFailed
from probe import Probe
from tracer import TRACED_METRICS, Tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
SETUP_REPEATS = 9
SETUP_PROBE = ("interp",)  # starting an interpreter and importing is interpreter work


def import_program():
    if not (SRC / "gradefactor" / "__init__.py").is_file():
        raise SystemExit(f"error: no gradefactor sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gradefactor
    import gradefactor.cli

    return gradefactor


def measure_setup() -> tuple[float, float]:
    """Median time for a fresh interpreter to import gradefactor: raw and
    at reference speed.  An untimed first import writes the bytecode cache."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import gradefactor"
    command = [sys.executable, "-I", "-c", code]
    subprocess.run(command, check=True)
    probe = Probe(SETUP_PROBE)
    samples = probe.samples(2)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(command, check=True)
        times.append(time.perf_counter() - start)
        samples += probe.samples(2)
    raw = statistics.median(times)
    return raw, raw * probe.speed_factor(samples)


class Pass:
    """One pass over every op of a run, with its tallies.  Times are raw;
    `factor` states them at reference speed."""

    def __init__(self, probe: Probe) -> None:
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.failures: list[str] = []
        self.factors = 0
        self.cells_covered = 0
        self.op_raw: list[float] = []
        self.op_scaled: list[float] = []  # each op at the speed of the probes around it
        self.probes: list[float] = []
        self.chunk_raw: list[float] = []
        self.closure_us: list[float] = []
        self.layers: dict[str, float] = {}

    @property
    def factor(self) -> float:
        return self.probe.speed_factor(self.probes)

    @property
    def raw_wall(self) -> float:
        return sum(self.chunk_raw)


def closure_time_us(package, context: np.ndarray, chain, intents: list[np.ndarray]) -> float:
    """Mean raw time of one public down-then-up closure over the intents."""
    scale = package.Scale(chain.levels, chain.kind, chain.kind == "goguen")
    matrix = package.GradedMatrix(scale, context)
    sets = [package.FuzzySet(scale, intent) for intent in intents]
    start = time.perf_counter()
    for intent in sets:
        package.up(matrix, package.down(matrix, intent))
    return (time.perf_counter() - start) / len(sets) * 1e6


def run_pass(package, ops: list, sizes: dict, work: Path, label: str, *,
             tracer: Tracer | None = None, closures: bool = False) -> Pass:
    """Run the ops with probe samples after every sizes["per_probe"] of them,
    then check every op's output.

    A pass's total time is scaled by the mean of all its probe samples; one
    op's time by the mean of the samples just before and just after it,
    which for short ops follows the host's state better."""
    probe = Probe(sizes["probe"])
    probe.samples()  # warm the probe's arrays before the first sample
    tally = Pass(probe)
    per_probe, samples = sizes["per_probe"], sizes["samples"]
    before = probe.samples(samples)
    tally.probes += before
    outs = [work / f"{label}-{i}" for i in range(len(ops))]
    results = []
    if tracer is not None:
        tracer.install()
    try:
        for first in range(0, len(ops), per_probe):
            chunk_start = time.perf_counter()
            chunk, op_raw = ops[first:first + per_probe], []
            for op, out in zip(chunk, outs[first:first + per_probe]):
                start = time.perf_counter()
                try:
                    results.append((op.run(out), None))
                except Exception as exc:  # an op that raises has failed; record why
                    results.append((None, f"{op.kind}: {type(exc).__name__}: {exc}"))
                op_raw.append(time.perf_counter() - start)
            tally.chunk_raw.append(time.perf_counter() - chunk_start)
            after = probe.samples(samples)
            tally.probes += after
            local = probe.speed_factor(before + after)
            timed = [t for op, t in zip(chunk, op_raw) if op.latency]
            tally.op_raw += timed
            tally.op_scaled += [t * local for t in timed]
            before = after
    finally:
        if tracer is not None:
            tracer.uninstall()
            tally.layers = dict(tracer.totals)

    for op, out, (result, error) in zip(ops, outs, results):
        tally.attempted += 1
        if error is not None:
            tally.failed += 1
            tally.failures.append(error)
            continue
        try:
            outcome = op.check(result, out)
        except OpFailed as exc:
            tally.failed += 1
            tally.failures.append(f"{op.kind}: {exc}")
            continue
        except CheckFailed as exc:
            tally.problems.append(f"{op.kind}: {exc}")
            continue
        finally:
            shutil.rmtree(out, ignore_errors=True)
        tally.factors += outcome.factors
        tally.cells_covered += outcome.cells_covered
        if closures and outcome.closure and len(outcome.closure[2]):
            tally.closure_us.append(closure_time_us(package, *outcome.closure))
    return tally


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(package, workload: str, seed: int, seconds: float, trace: bool,
            sizes: dict = workloads.FULL) -> tuple[dict, dict]:
    """Run one workload; returns the result object and the report."""
    began = time.perf_counter()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    try:
        setup = None if trace else measure_setup()
        ops = workloads.build(package, workload, seed, seconds, work, sizes)
        plain = run_pass(package, ops, sizes[workload], work, "plain", closures=trace)
        traced = (run_pass(package, ops, sizes[workload], work, "traced", tracer=Tracer(package))
                  if trace else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only when no other run is using it
        except OSError:
            pass

    passes = [plain] + ([traced] if traced else [])
    problems = [p for t in passes for p in t.problems]
    if traced and (traced.factors, traced.cells_covered) != (plain.factors, plain.cells_covered):
        problems.append("the traced pass found other factors than the plain pass")
    result = {
        "correct": not problems,
        "attempted": sum(t.attempted for t in passes),
        "failed": sum(t.failed for t in passes),
    }
    if trace:
        layers = {}
        for name, unit in TRACED_METRICS.items():
            value = traced.layers.get(name, 0)
            layers[name] = metric(value * traced.factor if unit == "s" else int(value), unit)
        closure = statistics.median(plain.closure_us) * plain.factor if plain.closure_us else 0.0
        layers["concepts.closure_us"] = metric(closure, "us")
        layers["bench.probe_ms"] = metric(statistics.fmean(plain.probes) * 1e3, "ms")
        layers["bench.raw_wall_s"] = metric(plain.raw_wall, "s")
        layers["bench.trace_overhead_s"] = metric(traced.raw_wall - plain.raw_wall, "s")
        result["metrics"] = layers
    else:
        result["metrics"] = {
            "setup_s": metric(setup[1], "s"),
            "wall_s": metric(plain.raw_wall * plain.factor, "s"),
            "op_p50_ms": metric(statistics.median(plain.op_scaled) * 1e3, "ms"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "factors": metric(plain.factors, "count"),
            "cells_covered": metric(plain.cells_covered, "count"),
        }
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": workloads.rounds_for(workload, seconds, sizes),
        "ops_per_pass": len(ops),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": sorted(set(f for t in passes for f in t.failures)),
        "problems": problems,
        "probe_components": list(sizes[workload]["probe"]),
        "reference_probe_ms": plain.probe.reference_s * 1e3,
        "probe_ms_mean": statistics.fmean(plain.probes) * 1e3,
        "probe_samples": len(plain.probes),
        "probe_ms": [round(p * 1e3, 4) for p in plain.probes],
        "speed_factor": plain.factor,
        "raw_wall_s": plain.raw_wall,
        "scaled_wall_s": plain.raw_wall * plain.factor,
        "raw_op_p50_ms": statistics.median(plain.op_raw) * 1e3,
        "scaled_op_p50_ms": statistics.median(plain.op_scaled) * 1e3,
        "chunk_raw_s": [round(t, 6) for t in plain.chunk_raw],
        "setup_raw_s": setup[0] if setup else None,
        "setup_scaled_s": setup[1] if setup else None,
        "traced_raw_wall_s": traced.raw_wall if traced else None,
        "run_elapsed_s": time.perf_counter() - began,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    package = import_program()
    result, report = measure(package, args.workload, args.seed, args.seconds, bool(args.trace))
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
