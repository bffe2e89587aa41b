"""mesosettle benchmark: one workload, timed end to end or traced per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload analytic --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): analytic, montecarlo, rcline.  Load is a
closed loop: one process, one client, each job starting when the previous
one has finished.  With --trace 0 the run repeats the workload's job list
("passes") for --seconds and reports end-to-end metrics as medians over
passes; setup_s is the median over fresh interpreter processes, each timed
from start until its first job is ready.  With --trace 1 each traced pass
follows an untraced pass on the same inputs: per-layer metrics come from
the traced passes, and the tracing overhead is the difference in wall_s.

Every job's output is checked (checks.py).  The last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}; a full report,
and in traced runs the spans, go to .bench_work/<workload>/.  Exit code 2
means the program could not be found or imported; no result is printed.
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
import time
from pathlib import Path

from checkout import MATH_THREADS, WORK, MissingProgram, use_checkout_src

SETUP_SAMPLES = 5
PROBE = Path(__file__).resolve().parent / "setup_probe.py"

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "analyze_s": "s",
    "sweep_s": "s",
    "compare_s": "s",
    "simulate_s": "s",
    "eye_s": "s",
    "rc_trials_s": "s",
    "sim_cycles_per_s": "cycles/s",
    "peak_rss_mb": "MB",
    "cli.self_s": "s",
    "cli.rows_written": "count",
    "markov.absorption_series_s": "s",
    "markov.series_terms": "count",
    "markov.terms_per_s": "1/s",
    "markov.absorption_stats_s": "s",
    "markov.stats_states": "count",
    "markov.self_s": "s",
    "jitter.build_chain_s": "s",
    "jitter.chain_states": "count",
    "jitter.position_profile_self_s": "s",
    "reduction.self_s": "s",
    "sim.run_monte_carlo_s": "s",
    "sim.trials": "count",
    "sim.cycles": "count",
    "sim.escaped_ratio": "ratio",
    "sim.run_trial_p50_s": "s",
    "sim.run_trial_p99_s": "s",
    "sim.lfilter_s": "s",
    "sim.rc_samples": "count",
    "sim.rc_ui_synth": "UI",
    "sim.rc_useful_ratio": "ratio",
    "sim.propagate_rc_s": "s",
    "sim.crossing_histogram_s": "s",
    "trace.overhead_s": "s",
}

# Metrics in the final JSON line: those every workload has.  The
# per-subcommand times, sim_cycles_per_s and the ratio metrics apply to
# some workloads only and are printed above it.
RESULT_END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
RESULT_LAYERS = (
    "cli.self_s",
    "cli.rows_written",
    "markov.absorption_series_s",
    "markov.series_terms",
    "markov.absorption_stats_s",
    "markov.stats_states",
    "markov.self_s",
    "jitter.build_chain_s",
    "jitter.chain_states",
    "jitter.position_profile_self_s",
    "reduction.self_s",
    "sim.run_monte_carlo_s",
    "sim.trials",
    "sim.cycles",
    "sim.lfilter_s",
    "sim.rc_samples",
    "sim.rc_ui_synth",
    "sim.propagate_rc_s",
    "sim.crossing_histogram_s",
    "trace.overhead_s",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "math_threads": min(MATH_THREADS, nproc),
        "load": "closed loop: 1 process, 1 client; each job starts when the previous one ends",
    }


def setup_samples(workload: str, workdir: Path) -> list[float]:
    """Seconds from starting a fresh interpreter until its first job is ready."""
    samples = []
    for i in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(PROBE), workload, str(workdir / f"probe{i}")],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            rc = proc.wait(timeout=60)
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited {rc} without becoming ready")
        samples.append(elapsed)
    return samples


def _median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    keys = [k for k in per_pass[0] if all(k in m for m in per_pass)]
    return {k: statistics.median(m[k] for m in per_pass) for k in keys}


def _digest_report(workload: str, passes, traced, refs) -> dict:
    """Digest changes against the seed commit (analytic) and across reruns.

    Passes on the same inputs must write the same bytes: every analytic pass,
    and each traced pass with the untraced pass before it.  A difference is
    reported, not counted as a failure.
    """
    first = {j.name: j.digests for j in passes[0].jobs}
    changed = []
    if workload == "analytic":
        for name, digests in first.items():
            expected = refs.analytic.get(name, {}).get("sha256", {})
            changed += [f"{name}/{f}" for f, d in digests.items() if expected.get(f) != d]
    pairs = [(passes[0], p) for p in passes[1:]] if workload == "analytic" else []
    pairs += list(zip(passes, traced))
    differ = [
        f"p{b.index}/{jb.name}"
        for a, b in pairs
        for ja, jb in zip(a.jobs, b.jobs)
        if ja.digests != jb.digests
    ]
    return {"pass0": first, "changed_vs_reference": changed, "reruns_differ": differ}


def _fmt(name: str, value) -> str:
    return f"  {name:32s} {value:.6g} {UNITS[name]}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["analytic", "montecarlo", "rcline"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        use_checkout_src()
    except (MissingProgram, ImportError) as exc:
        print(f"error: cannot load the program under test: {exc}", file=sys.stderr)
        return 2

    import checks
    import tracer as tracing
    import workloads

    workdir = WORK / args.workload
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    jobs = workloads.WORKLOADS[args.workload]()
    env = environment()

    setup = [] if args.trace else setup_samples(args.workload, workdir)
    prepared = workloads.prepare(jobs, workdir / "jobs")
    refs = checks.load_references(jobs)

    passes, traced, tracers = [], [], []

    def traced_pass(index: int) -> None:
        tr = tracing.Tracer()
        with tr.installed():
            traced.append(workloads.run_pass(prepared, args.seed, index, refs, tr))
        tracers.append(tr)

    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        index = len(passes)
        # a traced run alternates which side of each pair runs first, so
        # warm-up does not bias the overhead estimate
        if args.trace and index % 2:
            traced_pass(index)
        passes.append(workloads.run_pass(prepared, args.seed, index, refs))
        if args.trace and not index % 2:
            traced_pass(index)
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    all_passes = passes + traced
    attempted = sum(len(p.jobs) for p in all_passes)
    failed = sum(p.failed for p in all_passes)
    untraced = _median_metrics([p.metrics() for p in passes])

    print(f"mesosettle benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print("waiting: none; there are no queues or workers, so no layer waits")
    for p in all_passes:
        for j in p.jobs:
            if j.problems:
                print(f"FAILED p{p.index}/{j.name}: " + "; ".join(j.problems))

    report = {
        "args": vars(args),
        "environment": env,
        "passes": [
            {"index": p.index, "traced": k >= len(passes), "metrics": p.metrics(),
             "jobs": [vars(j) for j in p.jobs]}
            for k, p in enumerate(all_passes)
        ],
        "digests": _digest_report(args.workload, passes, traced, refs),
    }

    if args.trace:
        layers = [tracing.layer_metrics(tr.spans) for tr in tracers]
        for m, p in zip(layers, traced):
            m["cli.rows_written"] = sum(j.rows for j in p.jobs)
        overheads = [t.metrics()["wall_s"] - u.metrics()["wall_s"] for u, t in zip(passes, traced)]
        metrics = _median_metrics(layers)
        metrics["trace.overhead_s"] = statistics.median(overheads)
        wall = statistics.median(t.metrics()["wall_s"] for t in traced)
        print(f"per-layer (median over {len(traced)} traced passes; wall_s traced "
              f"{wall:.6g} s, untraced {untraced['wall_s']:.6g} s):")
        for name in sorted(metrics):
            print(_fmt(name, metrics[name]))
        if "sim.run_trial_p50_s" in metrics:
            print(f"  (run_trial percentiles over {metrics['sim.trials']:g} trials per pass)")
        for name, reason in tracing.RATIO_METRICS.items():
            if name not in metrics:
                print(f"  {name:32s} absent: {reason}")
        report["layers"] = metrics
        spans_path = workdir / "spans.json"
        spans_path.write_text(json.dumps([
            {"pass": k, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "job": s.job, "attrs": s.attrs}
            for k, tr in enumerate(tracers) for s in tr.spans
        ]))
        print(f"spans: {spans_path}")
        result_names = RESULT_LAYERS
    else:
        metrics = {"setup_s": statistics.median(setup), **untraced, "peak_rss_mb": peak_rss_mb}
        report["setup_samples_s"] = setup
        print(f"end-to-end (median over {len(passes)} passes; setup_s over {len(setup)} processes):")
        for name in ("setup_s", "wall_s", *workloads.SUBCOMMAND_METRICS.values(),
                     "sim_cycles_per_s", "peak_rss_mb"):
            if name in metrics:
                print(_fmt(name, metrics[name]))
        absent = [n for n in (*workloads.SUBCOMMAND_METRICS.values(), "sim_cycles_per_s")
                  if n not in metrics]
        print(f"  {'jobs_failed':32s} {failed} count, of {attempted} jobs attempted")
        if absent:
            print("  not applicable to this workload: " + ", ".join(absent))
        report["end_to_end"] = metrics
        result_names = RESULT_END_TO_END

    digests = report["digests"]
    print(f"digests: {sum(len(d) for d in digests['pass0'].values())} output files in pass 0; "
          f"changed vs seed-commit reference: {digests['changed_vs_reference'] or 'none'}; "
          f"reruns on the same inputs that differ: {digests['reruns_differ'] or 'none'}")
    report_path = workdir / "report.json"
    report_path.write_text(json.dumps(report, indent=1, default=str))
    print(f"report: {report_path}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": UNITS[n]} for n in result_names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
