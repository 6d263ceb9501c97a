"""dynopt's benchmark: evaluation throughput, failure share and per-layer cost.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid49 --seed 1 --seconds 30 --trace 0

One run builds the workload's inputs from ``--seed``, then runs a closed
loop of repeats, one optimizer run after another, until ``--seconds`` have
passed. A repeat runs every (case, optimizer) cell of the workload once,
writes the CSV tables into a scratch directory, reads them back with
``csvio.recompute_scores`` and checks them. ``--seed`` moves only the
landscapes: the optimizer seeds are fixed, so two seeds run the same plan
on different problems.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it wraps the program's layers in spans (see ``spans.py``), writes the spans
to ``.perfbench/`` and reports the per-layer metrics. The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` count optimizer runs, and ``metrics`` maps each metric name to
its value and unit. A run that raises is counted as failed and the loop
goes on; its evaluations still count.

This module imports only the standard library at load time, so that the
set-up probe can time the import of ``dynopt`` and numpy from scratch.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from clock import Clock
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
FULL_CONFIG = ROOT / "configs" / "full.cfg"

# Optimizer seeds stay fixed so that --seed changes the landscapes only.
OPTIMIZER_BASE_SEED = 12345
SETUP_SAMPLES = 7


@dataclass(frozen=True)
class Workload:
    cases: str
    num_change: int
    change_frequency: int
    trajectories: bool


# grid49: breadth and harness. Every case, short windows, so changes and
# instance builds are frequent and the per-eval trajectory files are
# written; the only workload with T7 cases, which crash at this version.
# hot-f1: the cheapest landscape with long windows, so the swarm update and
# the recorder do most of the work.
# hot-f6: the Weierstrass composition, so the landscape dominates. Its
# windows are shorter than hot-f1's so that a run stays near 0.3 s and the
# calibration samples bracket it closely (see clock.py).
WORKLOADS = {
    "grid49": Workload("", 3, 200, True),
    "hot-f1": Workload("F1(10):T1", 2, 5000, False),
    "hot-f6": Workload("F6:T1", 2, 1000, False),
}


# -- set-up ---------------------------------------------------------------------


@dataclass
class Setup:
    """A workload resolved against the program's own config layer."""

    name: str
    seed: int
    config: object  # dynopt.harness.ExperimentConfig
    cases: tuple
    weights: dict
    full_cells: dict  # (case_id, optimizer_id) -> evaluations in full.cfg


def resolve(name: str, seed: int) -> Setup:
    """Import dynopt and resolve the workload's config, cases and weights.

    This is the work ``setup_s`` times.
    """
    from dynopt.harness import ExperimentConfig, csvio
    from dynopt.overrides import parse_config_text

    work = WORKLOADS[name]
    pairs = {
        "cases": work.cases,
        "runs": 1,
        "num_change": work.num_change,
        "change_frequency": work.change_frequency,
        "seed": seed,
        "trace": work.trajectories,
    }
    config = ExperimentConfig.from_pairs(pairs)
    full = ExperimentConfig.from_pairs(
        parse_config_text(FULL_CONFIG.read_text(encoding="utf-8"))
    )
    per_cell = full.runs * full.budget()
    full_cells = {
        (case.case_id, opt): per_cell
        for case in full.selected_cases()
        for opt in full.optimizers
    }
    return Setup(
        name=name,
        seed=seed,
        config=config,
        cases=config.selected_cases(),
        weights=csvio.load_weight_table(config.weights),
        full_cells=full_cells,
    )


_SETUP_PROBE = """
import json, statistics, sys, time
sys.path[:0] = [{src!r}, {here!r}]
import clock, run
t0 = time.perf_counter()
run.resolve({name!r}, {seed!r})
elapsed = time.perf_counter() - t0
reference = statistics.median(clock.reference_kernel() for _ in range(3))
print(json.dumps(elapsed * clock.REF_SECONDS / reference))
"""


def measure_setup(name: str, seed: int) -> list[float]:
    """Calibrated seconds of ``resolve`` in fresh interpreters, one at a time."""
    code = _SETUP_PROBE.format(src=str(SRC), here=str(HERE), name=name, seed=seed)
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def environment() -> dict:
    """Python, numpy, usable cores and the CPU model, to name the machine."""
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


# -- the plan -------------------------------------------------------------------


@dataclass(frozen=True)
class RunSpec:
    case: object  # dynopt.harness.Case
    optimizer_id: str
    run_index: int
    problem_seed: int
    optimizer_seed: int


def plan(setup: Setup, repeat: int) -> list[RunSpec]:
    """The runs of one repeat: every cell once, with run index ``repeat``."""
    from dynopt.harness import optimizer_seed, problem_seed

    return [
        RunSpec(
            case=case,
            optimizer_id=opt,
            run_index=repeat,
            problem_seed=problem_seed(setup.seed, case.case_id, repeat),
            optimizer_seed=optimizer_seed(OPTIMIZER_BASE_SEED, case.case_id, opt, repeat),
        )
        for case in setup.cases
        for opt in setup.config.optimizers
    ]


def build_instance(setup: Setup, spec: RunSpec):
    from dynopt.gdbg import make_instance

    cfg = setup.config
    return make_instance(
        spec.case.function_id,
        spec.case.change_type,
        spec.problem_seed,
        {"dimension": cfg.dimension, "change_frequency": cfg.resolved_frequency()},
    )


# -- measuring ------------------------------------------------------------------


@dataclass
class RunRecord:
    spec: RunSpec
    evaluations: int
    changes: int
    start: float
    end: float
    trajectory: object | None  # dynopt.optimizers.Trajectory
    error: str | None
    seconds: float = 0.0  # calibrated, set once the measurement ends


def _span(tracer, name: str):
    return tracer.span(name) if tracer else contextlib.nullcontext()


def run_one(setup: Setup, spec: RunSpec, tracer=None) -> RunRecord:
    """Build the instance and run one optimizer on it; a crash is recorded."""
    from dynopt.optimizers import run

    cfg = setup.config
    start = perf_counter()
    with _span(tracer, "gdbg.build"):
        problem = build_instance(setup, spec)
    trajectory, error = None, None
    try:
        with _span(tracer, "optimizers.run"):
            trajectory = run(
                spec.optimizer_id,
                problem,
                cfg.budget(),
                spec.optimizer_seed,
                s_samples=cfg.samples_per_window,
                frequency=cfg.resolved_frequency(),
                collect_ratios=True,
                trace=cfg.trace,
                overrides=cfg.overrides_for(spec.optimizer_id),
            )
    except Exception as exc:  # a failed run is a result: record it, go on
        error = f"{spec.case.case_id}/{spec.optimizer_id}: {type(exc).__name__}: {exc}"
    return RunRecord(
        spec=spec,
        evaluations=problem.eval_count,
        changes=problem.t,
        start=start,
        end=perf_counter(),
        trajectory=trajectory,
        error=error,
    )


def assemble(setup: Setup, records: list[RunRecord]):
    """An ExperimentResult holding the cells whose run completed."""
    import numpy as np
    from dynopt.harness import CaseResult, ExperimentResult

    results = {}
    for rec in records:
        if rec.trajectory is None:
            continue
        t = rec.trajectory
        results[(rec.spec.case.case_id, rec.spec.optimizer_id)] = CaseResult(
            case=rec.spec.case,
            optimizer_id=rec.spec.optimizer_id,
            errors=np.array([t.e_last], dtype=float),
            r_last=np.array([t.r_last], dtype=float),
            samples=np.array([t.ratio_samples], dtype=float),
            trajectories=[t] if setup.config.trace else None,
        )
    return ExperimentResult(config=setup.config, results=results)


def write_tables(out: Path, setup: Setup, result) -> list[Path]:
    from dynopt.harness import csvio

    written = csvio.write_errors_tables(out, result)
    written += csvio.write_raw_tables(out, result)
    written += csvio.write_trajectories(out, result)
    written.append(csvio.write_scores(out, result.scores(), result.overall(setup.weights)))
    return written


def check_runs(setup: Setup, records: list[RunRecord]) -> list[str]:
    """Output checks on every completed run."""
    cfg = setup.config
    problems = []
    for rec in records:
        t = rec.trajectory
        if t is None:
            continue
        where = f"{rec.spec.case.case_id}/{rec.spec.optimizer_id}/run{rec.spec.run_index}"
        if t.evaluations != cfg.budget() or rec.evaluations != cfg.budget():
            problems.append(f"{where}: spent {t.evaluations} of {cfg.budget()} evaluations")
        if not (len(t.e_last) == len(t.r_last) == len(t.ratio_samples) == cfg.num_change):
            problems.append(f"{where}: closed {len(t.e_last)} windows, expected {cfg.num_change}")
        if not all(math.isfinite(e) and e >= 0.0 for e in t.e_last):
            problems.append(f"{where}: an error is negative or not finite")
        ratios = list(t.r_last) + [r for row in t.ratio_samples for r in row]
        if any(len(row) != cfg.samples_per_window for row in t.ratio_samples):
            problems.append(f"{where}: a window has the wrong number of ratio samples")
        if not all(0.0 < r <= 1.0 for r in ratios):
            problems.append(f"{where}: a ratio lies outside (0, 1]")
    return problems


def raw_digest(out: Path) -> str:
    """sha256 over the raw tables' names and bytes, in name order."""
    digest = hashlib.sha256()
    for path in sorted(out.glob("raw_*.csv")):
        digest.update(path.name.encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


@dataclass
class Measurement:
    records: list[RunRecord] = field(default_factory=list)
    repeats: int = 0
    # calibrated seconds; wall covers running, writing and re-scoring
    wall: float = 0.0
    write_s: float = 0.0
    read_s: float = 0.0
    raw_wall: float = 0.0  # the same intervals in plain wall seconds
    machine_factors: list[float] = field(default_factory=list)
    bytes_written: int = 0
    problems: list[str] = field(default_factory=list)
    raw_sha256: str = ""


def measure(setup: Setup, seconds: float, tracer=None) -> Measurement:
    """Closed loop of whole repeats until ``seconds`` have passed."""
    from dynopt.harness import csvio

    m = Measurement()
    clock = Clock()
    writes, reads = [], []
    scratch = OUT / f"{setup.name}-seed{setup.seed}-pid{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    started = perf_counter()
    clock.calibrate(force=True)
    try:
        while m.repeats == 0 or perf_counter() - started < seconds:
            out = scratch / f"repeat{m.repeats}"
            out.mkdir(parents=True)
            records = []
            for spec in plan(setup, m.repeats):
                clock.calibrate()
                if tracer:
                    tracer.run_id = len(m.records) + len(records)
                records.append(run_one(setup, spec, tracer))
            if tracer:
                tracer.run_id = None
            clock.calibrate()
            t0 = perf_counter()
            result = assemble(setup, records)
            with _span(tracer, "harness.csv.write"):
                written = write_tables(out, setup, result)
            t1 = perf_counter()
            with _span(tracer, "harness.csv.read"):
                reread = csvio.recompute_scores(out) if result.results else {}
            t2 = perf_counter()
            writes.append((t0, t1))
            reads.append((t1, t2))

            m.bytes_written += sum(p.stat().st_size for p in written)
            m.problems += check_runs(setup, records)
            in_memory = {opt: s for opt, s in result.scores().items() if s}
            if reread != in_memory:
                m.problems.append(f"repeat {m.repeats}: scores read back differ from memory")
            if m.repeats == 0:
                m.raw_sha256 = raw_digest(out)
            for rec in records:
                rec.trajectory = None  # checked; keep memory bounded by one repeat
            m.records += records
            m.repeats += 1
            shutil.rmtree(out)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    clock.calibrate(force=True)

    for rec in m.records:
        rec.seconds = clock.seconds(rec.start, rec.end)
    m.write_s = sum(clock.seconds(a, b) for a, b in writes)
    m.read_s = sum(clock.seconds(a, b) for a, b in reads)
    m.wall = sum(r.seconds for r in m.records) + m.write_s + m.read_s
    m.raw_wall = sum(b - a for a, b in writes + reads + [(r.start, r.end) for r in m.records])
    m.machine_factors = clock.factors
    return m


# -- metrics --------------------------------------------------------------------


def _rate_us(records: list[RunRecord]) -> float:
    evals = sum(r.evaluations for r in records)
    return sum(r.seconds for r in records) / evals * 1e6


def end_to_end(setup: Setup, m: Measurement, setup_samples: list[float]) -> dict:
    evals = sum(r.evaluations for r in m.records)
    per_run = [r.seconds / r.evaluations * 1e6 for r in m.records if r.evaluations]
    metrics = {
        "evals_per_s": (evals / m.wall, "1/s"),
    }
    by_opt = {}
    for opt in setup.config.optimizers:
        by_opt[opt] = [r for r in m.records if r.spec.optimizer_id == opt]
        metrics[f"{opt}.evals_per_s"] = (1e6 / _rate_us(by_opt[opt]), "1/s")
    metrics["run_us_per_eval_p50"] = (statistics.median(per_run), "us")
    metrics["run_us_per_eval_p90"] = (statistics.quantiles(per_run, n=10)[8], "us")
    metrics["setup_s"] = (statistics.median(setup_samples), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    ok = sum(r.error is None for r in m.records)
    metrics["run_ok_ratio"] = (ok / len(m.records), "ratio")
    # Cells the workload ran cost what they measured; any other cell of
    # full.cfg is charged at this workload's rate for its optimizer.
    by_cell: dict = {}
    for r in m.records:
        by_cell.setdefault((r.spec.case.case_id, r.spec.optimizer_id), []).append(r)
    cpu_us = sum(
        n * _rate_us(by_cell.get(cell) or by_opt[cell[1]])
        for cell, n in setup.full_cells.items()
    )
    metrics["projected_full_cpu_h"] = (cpu_us / 3.6e9, "h")
    return metrics


def per_layer(setup: Setup, m: Measurement, tracer) -> dict:
    evals = sum(r.evaluations for r in m.records)
    reps = m.repeats
    calibration = m.wall / m.raw_wall  # span times are plain wall seconds

    def per_call(name: str, scale: float) -> float:
        return tracer.self_seconds(name) * calibration / max(tracer.calls(name), 1) * scale

    metrics = {
        "gdbg.landscape.calls": (tracer.calls("gdbg.landscape") / reps, "count/repeat"),
        "gdbg.landscape.us_per_call": (per_call("gdbg.landscape", 1e6), "us"),
        "gdbg.landscape.share": (tracer.self_seconds("gdbg.landscape") / m.raw_wall, "ratio"),
        "gdbg.instance.us_per_call": (per_call("gdbg.instance", 1e6), "us"),
        "gdbg.change.calls": (tracer.calls("gdbg.change") / reps, "count/repeat"),
        "gdbg.change.ms_per_call": (per_call("gdbg.change", 1e3), "ms"),
        "gdbg.build.ms_per_instance": (per_call("gdbg.build", 1e3), "ms"),
        "optimizers.recorder.us_per_call": (per_call("optimizers.recorder", 1e6), "us"),
    }
    for opt in setup.config.optimizers:
        opt_evals = sum(r.evaluations for r in m.records if r.spec.optimizer_id == opt)
        name = f"optimizers.swarm.{opt}"
        metrics[f"{name}.us_per_eval"] = (
            tracer.self_seconds(name) * calibration / opt_evals * 1e6, "us")
        metrics[f"{name}.iterations"] = (tracer.calls(name) / reps, "count/repeat")
    real = sum(r.changes for r in m.records)
    metrics["optimizers.detect.hit_ratio"] = (
        tracer.counts["optimizers.detect"] / max(real, 1), "ratio")
    metrics["harness.csv.write_ms"] = (m.write_s / reps * 1e3, "ms")
    metrics["harness.csv.bytes_written"] = (m.bytes_written / reps, "bytes/repeat")
    metrics["harness.csv.read_ms"] = (m.read_s / reps * 1e3, "ms")
    metrics["trace.evals_per_s"] = (evals / m.wall, "1/s")
    return metrics


def install_tracer(setup: Setup):
    """Wrap each layer's entry points, in call order from the landscape up."""
    from dynopt.gdbg import CompositionProblem, GdbgInstance, PeakSet
    from dynopt.optimizers import BudgetedRecorder, PsoBaseline, Qcsso, SsaBaseline

    tracer = Tracer()
    tracer.wrap(PeakSet, "evaluate", "gdbg.landscape")
    tracer.wrap(CompositionProblem, "evaluate", "gdbg.landscape")
    tracer.wrap(GdbgInstance, "evaluate", "gdbg.instance")
    tracer.wrap(GdbgInstance, "advance_environment", "gdbg.change")
    tracer.wrap(BudgetedRecorder, "evaluate", "optimizers.recorder")
    swarms = {"qcsso": Qcsso, "ssa_baseline": SsaBaseline, "pso_baseline": PsoBaseline}
    for opt in setup.config.optimizers:
        tracer.wrap(swarms[opt], "iterate", f"optimizers.swarm.{opt}")
        tracer.count_true(swarms[opt], "detect_change", "optimizers.detect")
    return tracer


# -- command line ---------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dynopt").is_dir():
        print(f"perfbench: no dynopt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    setup_samples = [] if args.trace else measure_setup(args.workload, args.seed)
    setup = resolve(args.workload, args.seed)
    tracer = install_tracer(setup) if args.trace else None
    try:
        m = measure(setup, args.seconds, tracer)
    finally:
        if tracer:
            tracer.unpatch()

    if tracer:
        metrics = per_layer(setup, m, tracer)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write(spans_path)
        print(f"spans {len(tracer.spans)} kept, {tracer.dropped} dropped, in {spans_path}")
    else:
        metrics = end_to_end(setup, m, setup_samples)

    failed = [r for r in m.records if r.error]
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} repeats {m.repeats} "
          f"runs {len(m.records)} failed {len(failed)} "
          f"run_fail_ratio {len(failed) / len(m.records):.6f}")
    for message in sorted({r.error.split(": ", 1)[1] for r in failed})[:5]:
        print(f"failure {message}")
    print(f"raw_sha256 {m.raw_sha256} (repeat 0)")
    evals = sum(r.evaluations for r in m.records)
    print(f"wall evals_per_s {evals / m.raw_wall!r} wall_s {m.raw_wall!r} "
          f"machine_factor {statistics.median(m.machine_factors)!r} "
          f"samples {len(m.machine_factors)}")
    for problem in m.problems[:20]:
        print(f"check FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(json.dumps({
        "correct": not m.problems,
        "attempted": len(m.records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
