"""Benchmark of the knotcalc CLI: closed-loop jobs, answers checked, layers traced.

    python3 bench/run.py --workload deep-staircase --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0

One client in one process and one thread runs `knotcalc.cli.run(argv)`
in process, each job after the previous one ends.  The seed's job list is
generated before timing and run in whole passes, as many as fit in
--seconds (at least one).  Every reported time is scaled by the fixed
`calibrate.loop` timed right before it (see calibrate.py), because the
host's own speed drifts by up to 2x over minutes; the raw times are printed
too.  Every answer is checked against
`reference`, which does not use knotcalc.  The last line of standard output
is one JSON object; the exit status is 1 when any job failed or answered
wrongly, 2 when the knotcalc sources are missing.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every job twice,
untraced and then traced, and reports the per-layer metrics of the traced
runs (times are medians over passes, counts are per pass) and the tracing
overhead; it writes the spans to .bench_work/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path[:0] = [str(SRC), str(BENCH)]

import calibrate  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Set-up samples taken before each pass, so that their median spans the
# whole run rather than one moment of it.
SETUP_SAMPLES_PER_PASS = 3
# Percentile reported as job_tail_s.  It is fixed, so that it sits at the
# same place in the pass's job ranking whatever the number of passes; a run
# of three or more passes of 13-15 jobs leaves at least ten samples beyond it.
TAIL_PERCENT = 75

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _setup_samples(samples: list[float], loops: list[float]) -> None:
    """Append wall times from starting a Python process to knotcalc being
    importable, each after a calibration loop."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import knotcalc.cli; print('ready', flush=True)"
    for _ in range(SETUP_SAMPLES_PER_PASS):
        loops.append(calibrate.loop())
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              env=env, cwd=ROOT, text=True) as child:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - start)
            child.stdout.read()
            if child.wait() != 0 or line.strip() != "ready":
                raise RuntimeError("importing knotcalc failed in a child process")


def run_job(cli, job, argv) -> tuple[float, str | None]:
    """Run one job through the module *cli* in process; returns (wall seconds,
    failure or None).  `cli.run` is looked up on every call so that a tracer's
    wrapper is seen."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    except Exception:  # a crash is a failed job, not the end of the run
        return time.perf_counter() - start, traceback.format_exc(limit=3)
    wall = time.perf_counter() - start
    try:
        problem = reference.check(job.expect, code, out.getvalue())
    except (ValueError, KeyError, TypeError) as e:
        problem = f"unreadable output {out.getvalue()!r}: {e}"
    if problem and err.getvalue():
        problem += f" ({err.getvalue().strip()})"
    return wall, problem


def percentile(samples: list[float], percent: float) -> tuple[float, int]:
    """Nearest-rank percentile, as (value, rank)."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(percent / 100 * len(ordered)))
    return ordered[rank - 1], rank


def _measure(cli, workload: str, seed: int, seconds: float, traced: bool) -> dict:
    jobs = workloads.make_jobs(workload, seed)
    files = WORK / f"{workload}-{seed}-{os.getpid()}"
    files.mkdir(parents=True, exist_ok=True)
    argvs = []
    for job in jobs:
        for name, text in job.files.items():
            (files / name).write_text(text, encoding="utf-8")
        argvs.append([str(files / a) if a in job.files else a for a in job.argv])

    tracer = tracing.Tracer() if traced else None
    samples: list[float] = []
    loops: list[float] = []
    setup: list[float] = []
    setup_loops: list[float] = []
    traced_samples: list[float] = []
    layer_runs: list[dict] = []
    failures: list[str] = []
    passes = 0
    start = time.perf_counter()
    try:
        while True:
            # start a pass only if one of average length still fits
            elapsed = time.perf_counter() - start
            if passes and elapsed + elapsed / passes > seconds:
                break
            first = len(tracer.spans) if tracer else 0
            if tracer:
                tracer.counts.clear()
            else:
                _setup_samples(setup, setup_loops)
            for i, (job, argv) in enumerate(zip(jobs, argvs)):
                # traced runs repeat each job with spans on, right after the
                # untraced run, so the overhead compares neighbours in time
                for trace_job in (False, True) if tracer else (False,):
                    if trace_job:
                        tracer.job = f"{passes}.{i}"
                        tracer.install()
                    elif not tracer:
                        loops.append(calibrate.loop())
                    try:
                        wall, problem = run_job(cli, job, argv)
                    finally:
                        if trace_job:
                            tracer.remove()
                    (traced_samples if trace_job else samples).append(wall)
                    if problem:
                        failures.append(f"{' '.join(job.argv)}: {problem}")
            passes += 1
            if tracer:
                layer_runs.append(tracing.layer_metrics(tracer.spans, first, tracer.counts))
        loop_s = time.perf_counter() - start
    finally:
        shutil.rmtree(files, ignore_errors=True)

    result = {
        "jobs": len(jobs),
        "passes": passes,
        "attempted": len(samples) + len(traced_samples),
        "failures": failures,
        "samples": samples,
        "loops": loops,
        "setup": setup,
        "setup_loops": setup_loops,
        "loop_s": loop_s,
    }
    if traced:
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"spans-{workload}-{seed}.tsv")
        layers = {k: statistics.median(r[k] for r in layer_runs) for k in layer_runs[0]}
        layers["trace.overhead_ratio"] = sum(traced_samples) / sum(samples) - 1
        layers["trace.untraced_pass_s"] = sum(samples) / passes
        result["layers"] = layers
    return result


def _report(workload: str, seed: int, seconds: float, traced: bool) -> int:
    from knotcalc import cli

    res = _measure(cli, workload, seed, seconds, traced)
    samples, failures = res["samples"], res["failures"]
    n = len(samples)
    for line in failures[:10]:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"workload {workload} seed {seed}: {res['jobs']} jobs per pass, "
          f"{res['passes']} passes, {n} samples, closed loop with one client")
    print(f"fail_rate {len(failures) / res['attempted']:.6f} ({len(failures)} of {res['attempted']})")
    if traced:
        layers = res["layers"]
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in layers.items()}
        total = sum(layers[k] for k in tracing.SELF_TIME_METRICS)
        print("self-time shares of the traced runs:")
        for k in sorted(tracing.SELF_TIME_METRICS, key=lambda k: -layers[k]):
            print(f"  {k:28s} {layers[k]:10.4g} s  {100 * layers[k] / total:5.1f}%")
    else:
        scaled = calibrate.scaled(samples, res["loops"])
        setup = calibrate.scaled(res["setup"], res["setup_loops"])
        job_tail, rank = percentile(scaled, TAIL_PERCENT)
        metrics = {
            "jobs_per_s": n / sum(scaled),
            "job_p50_s": statistics.median(scaled),
            "job_tail_s": job_tail,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        print(f"job_p50_s is the median of {n} samples; job_tail_s is p{TAIL_PERCENT} "
              f"of {n} samples, with {n - rank} beyond it"
              + ("" if n - rank >= 10 else " (fewer than ten)")
              + f"; setup_s is the median of {len(setup)} samples")
        print(f"calibration loop: median {statistics.median(res['loops']):.6g} s against "
              f"{calibrate.REFERENCE_S} s; raw wall times: job_p50_s "
              f"{statistics.median(samples):.6g}, job_tail_s {percentile(samples, TAIL_PERCENT)[0]:.6g}, "
              f"jobs_per_s {n / res['loop_s']:.6g} (closed loop), "
              f"setup_s {statistics.median(res['setup']):.6g}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": res["attempted"],
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 1 if failures else 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "bytes" if name == "parsing.bytes" else "count"


def _run_all(args) -> int:
    """Run every workload in its own process and print a combined last line."""
    status, merged = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = child.stdout.splitlines() or [""]
        print("\n".join(lines[:-1]))
        status = status or child.returncode
        try:
            last = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"error: {workload} printed no result", file=sys.stderr)
            return status or 1
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for name, m in last["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(merged))
    return status or (0 if merged["correct"] else 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "knotcalc" / "cli.py").is_file():
        print(f"error: no knotcalc sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    return _report(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
