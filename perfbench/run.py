"""The repository benchmark: one workload per call, or all of them.

    python3 perfbench/run.py --workload campaign-large --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Runs the workload's operation closed-loop for ``--seconds`` (at least
once), checks every result, prints each metric with its unit, and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
operations untraced for half the time, then as many again with every
layer wrapped (see ``tracing.py``), and reports the per-layer metrics
and the tracing overhead.  Full results (and, traced, the spans) are
written under ``perfbench/out/``.  Exit code 1 means a check failed.

``--workload all`` runs each workload in a child process, one after
the other, so each keeps its own set-up and memory figures.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Spelled out rather than read from ``workloads.WORKLOADS``: importing
# that module imports numpy, which must wait for :func:`pin_environment`.
WORKLOAD_NAMES = ("campaign-large", "campaign-journaled", "service-sharded")

#: End-to-end metrics and their units.  ``setup_s``: median set-up
#: (imports, plus service construction on service-sharded) over fresh
#: interpreters.  ``campaigns_per_min``: campaigns finished per minute
#: of timed wall time (on campaign-journaled the timed time holds each
#: campaign's resume from its cut journal too).  ``label_accuracy``:
#: mean final labeling accuracy against ground truth.  ``peak_rss_mb``:
#: peak RSS of this process, plus its largest child on service-sharded.
#:
#: On a shared virtual machine the CPU speed can switch between a fast
#: and a slow state (1.7x apart on a 2-vCPU Xeon VM) for seconds to
#: minutes at a time, so a median over one run reads whichever state
#: held the run's majority and jumps between the two; so do the round
#: latencies, which are the shortest timed spans.  The one gated timing
#: is therefore a total over the run (throughput), which moves with the
#: share of time spent in each state instead.  The median and tail of
#: campaign and round latency and the mean round are printed beside it.
END_TO_END = {
    "setup_s": "s",
    "campaigns_per_min": "1/min",
    "label_accuracy": "ratio",
    "peak_rss_mb": "MB",
}

SETUP_REPEATS = 3


def pin_environment() -> None:
    """Make the numbers independent of the caller's shell: no chaos,
    kernel or supervision overrides, one BLAS/OpenMP thread."""
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS"):
        os.environ[name] = "1"


def unit_of(name: str) -> str:
    """The unit of a printed figure, from its name's suffix."""
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_mb", "MB"),
                         ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted(values)[max(1, math.ceil(len(values) * q / 100)) - 1]


def tail_percentile(count: int) -> int | None:
    """The highest whole percentile with at least ten samples beyond
    it, or None when there are too few samples for any."""
    for q in range(99, 49, -1):
        if count - math.ceil(count * q / 100) >= 10:
            return q
    return None


def measure_setup(workload_cls) -> float:
    """Median set-up time over fresh interpreters (interpreter start-up
    itself excluded)."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "started = time.perf_counter()\n"
        + "".join(f"import {name}\n" for name in workload_cls.imports)
        + workload_cls.setup_statements
        + "print(time.perf_counter() - started)\n"
    )
    samples = []
    for _ in range(SETUP_REPEATS):
        completed = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, cwd=ROOT, timeout=120,
        )
        samples.append(float(completed.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_for(workload, seconds: float, count: int | None = None) -> list:
    """Run operations for ``seconds`` (at least one), or exactly
    ``count`` of them."""
    samples = []
    started = time.perf_counter()
    while True:
        gc.collect()  # every operation starts from a settled heap
        samples.append(workload.run_once())
        if count is not None:
            if len(samples) >= count:
                return samples
        elif time.perf_counter() - started >= seconds:
            return samples


def end_to_end(workload, samples) -> tuple[dict, dict]:
    """The end-to-end metrics, plus the figures printed beside them."""
    campaigns = [value for s in samples for value in s["campaign_s"]]
    rounds = [value for s in samples for value in s["round_s"]]
    accuracy = [value for s in samples for value in s["accuracy"]]
    timed = sum(s["timed_s"] for s in samples)
    # Read before the set-up interpreters below become children too.
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.name == "service-sharded":
        rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": measure_setup(type(workload)),
        "campaigns_per_min": 60.0 * len(campaigns) / timed,
        "label_accuracy": statistics.fmean(accuracy),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    extra = {
        "operations": len(samples),
        "campaign_samples": len(campaigns),
        "campaign_s": statistics.median(campaigns),
        "round_samples": len(rounds),
        "round_p50_ms": 1e3 * percentile(rounds, 50),
        "round_mean_ms": 1e3 * statistics.fmean(rounds),
    }
    for label, values in (("campaign", campaigns), ("round", rounds)):
        q = tail_percentile(len(values))
        if q is not None:
            extra[f"{label}_p{q}_ms"] = 1e3 * percentile(values, q)
    if "resume_s" in samples[0]:
        extra["resume_s"] = statistics.median(s["resume_s"] for s in samples)
    if "journal_bytes" in samples[0]:
        extra["journal_mb"] = statistics.median(
            s["journal_bytes"] / len(s["campaign_s"]) for s in samples
        ) / 1e6
    if "refused" in samples[0]:
        extra["refused_by_ledger"] = sum(s["refused"] for s in samples)
    return metrics, extra


def traced(workload, seconds: float):
    """Untraced operations for half the time, then as many traced; the
    per-layer metrics come from the traced half."""
    import tracing

    untraced = run_for(workload, seconds / 2)
    tracer = tracing.Tracer()
    workload.tracer = tracer
    with tracing.patched(tracer):
        samples = run_for(workload, 0, count=len(untraced))
    workload.tracer = None
    errors = [
        f"traced run never called {name}"
        for name in tracing.missing_spans(tracer, workload.name)
    ]
    if [s["digest"] for s in samples] != [s["digest"] for s in untraced]:
        errors.append("traced results differ from untraced results")
    traced_s = statistics.median(s["timed_s"] for s in samples)
    untraced_s = statistics.median(s["timed_s"] for s in untraced)
    metrics = tracing.layer_metrics(tracer, len(samples))
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["resilient.resume_s"] = statistics.median(
        s.get("resume_s", 0.0) for s in untraced
    )
    metrics["serialization.journal_mb"] = statistics.median(
        s.get("journal_bytes", 0) / len(s["campaign_s"]) for s in untraced
    ) / 1e6
    metrics = {name: metrics[name] for name, _, _ in tracing.LAYER_METRICS}
    extra = {
        "operations": len(samples),
        "traced_s": traced_s,
        "untraced_s": untraced_s,
    }
    return untraced + samples, metrics, extra, errors, tracer


def run_workload(args) -> int:
    pin_environment()
    sys.path[:0] = [str(SRC), str(HERE), str(ROOT / "benchmarks")]
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported repro from {repro.__file__}, not {SRC}")
    from _writer import bench_environment

    import tracing
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = HERE / ".work" / f"{tag}-{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(workdir / "tmp")
    try:
        workload = workload_cls(args.seed, workdir)
        if args.trace:
            samples, metrics, extra, errors, tracer = traced(
                workload, args.seconds
            )
            units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
        else:
            samples = run_for(workload, args.seconds)
            errors = []
            metrics, extra = end_to_end(workload, samples)
            units = END_TO_END
        errors += [e for s in samples for e in s["errors"]]
        errors += workload.final_errors(samples)
        attempted = sum(s["attempted"] for s in samples)
        failed = sum(s.get("failed", 0) for s in samples) + len(errors)
        extra["failed_ratio"] = failed / attempted
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, value in metrics.items():
        print(f"{args.workload:20s} {name:26s} {value:14.6g} {units[name]}")
    for name, value in extra.items():
        print(f"{args.workload:20s} {name:26s} {value:14.6g} "
              f"{unit_of(name)}")
    for error in errors:
        print(f"CHECK FAILED: {error}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "result": result,
        "extra": extra,
        "errors": errors,
        "samples": {
            key: [value for s in samples for value in s[key]]
            for key in ("campaign_s", "round_s", "accuracy")
        },
        "environment": bench_environment(),
    }, indent=2))
    if args.trace:
        tracer.write(OUT / f"{tag}.spans.jsonl")
    print(json.dumps(result))
    return 0 if not errors else 1


def run_all(args) -> int:
    """Each workload in its own child process; one combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        lines = child.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            sys.stderr.write(child.stdout + child.stderr)
            return child.returncode or 1
        print("\n".join(lines[:-1]))
        status = status or child.returncode
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return status


def stop_children() -> None:
    """Stop and wait for every process this one started.

    Shard pools end their workers on close; this also covers a path
    out through an error, and the multiprocessing resource tracker,
    which the pools' shared memory starts and which would otherwise
    outlive this process."""
    if "multiprocessing" not in sys.modules:
        return
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
    for child in multiprocessing.active_children():
        child.join()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
