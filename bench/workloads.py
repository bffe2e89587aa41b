"""Workload job lists and the closed-loop pass that runs them.

A workload is a fixed list of jobs.  A pass runs the list once, in order,
in this process: each job starts only when the previous one has finished
(one client, closed loop).  CLI jobs call ``mesosettle.cli.main`` with
``--quiet``; RC-line trial jobs call ``sim.run_monte_carlo``, because no
subcommand runs them.  The seed only generates inputs: every job's RNG
seed is derived from (workload seed, pass index, job index).
"""

from __future__ import annotations

import hashlib
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from mesosettle import cli, sim

import checks

SUBCOMMAND_METRICS = {
    "analyze": "analyze_s",
    "sweep": "sweep_s",
    "compare": "compare_s",
    "simulate": "simulate_s",
    "eye": "eye_s",
    "rc_trials": "rc_trials_s",
}

# RC trials use a 2% UI phase step.  Every trial then escapes inside the
# first synthesis chunk of the waveform, so a trial's cost does not depend
# on its seed and rcline runs stay steady across seeds.
RC_STEP_TAU = 0.02


@dataclass(frozen=True)
class Job:
    name: str
    kind: str  # a CLI subcommand, or "rc_trials"
    config: dict
    seeded: bool = False

    @property
    def runs_trials(self) -> bool:
        return self.kind in ("simulate", "rc_trials") or self.config.get("technique") == "training"


def analytic_jobs() -> list[Job]:
    """Chain algebra only: cdf propagation and dense solves, no sim calls.

    Birth-death chains (isi1, gaussian, combined) sit next to chains that
    are not birth-death (isi2, biased), and jobs that need every cdf term
    (analyze) next to jobs that need only the confidence index (sweep).
    """
    return [
        Job("analyze-isi1-w40", "analyze", {"model": "isi1", "width_steps": 40}),
        Job("analyze-isi1-w200", "analyze", {"model": "isi1", "width_steps": 200}),
        Job("analyze-isi2", "analyze", {"model": "isi2", "sub_windows_steps": [23, 43, 20]}),
        Job("analyze-gaussian", "analyze", {"model": "gaussian", "sigma_steps": 20}),
        Job("analyze-combined", "analyze", {"model": "combined", "sigma_steps": 5, "w_ab_steps": 40}),
        Job(
            "analyze-biased-w40",
            "analyze",
            {"model": "biased", "width_steps": 40, "mismatch_percent": 10},
        ),
        Job("sweep", "sweep", {"widths_steps": [2, 5, 40, 100, 200, 300]}),
        Job(
            "compare-mismatch-w40",
            "compare",
            {"technique": "mismatch", "width_steps": 40, "mismatch_percent": 10},
        ),
        Job(
            "compare-mismatch-w200",
            "compare",
            {"technique": "mismatch", "width_steps": 200, "mismatch_percent": 10},
        ),
        Job("compare-coarse-w5", "compare", {"technique": "coarse", "width_steps": 5}),
    ]


def montecarlo_jobs(scale: float = 1.0) -> list[Job]:
    """Trial walks: long vectorised trials, the per-crossing Python loop,
    mismatch, and many few-cycle coarse trials where per-trial overhead
    dominates.  ``scale`` shrinks trial counts for tests.
    """

    def n(trials: int) -> int:
        return max(2, int(round(trials * scale)))

    # Start positions stay in the middle half of the window, where escape
    # times are only mildly skewed and the mean's standard error is reliable
    # at a few hundred trials; near the edges rare long excursions dominate.
    # The width-200 job records no trajectory: its length, and so the peak
    # memory of writing it, would vary with the seed by tens of megabytes.
    return [
        Job(
            "simulate-w200",
            "simulate",
            {
                "width_steps": 200,
                "trials": n(300),
                "positions_steps": [50, 100, 150],
                "record_trajectory": False,
            },
            True,
        ),
        Job(
            "simulate-jitter-w40",
            "simulate",
            {
                "width_steps": 40,
                "trials": n(400),
                "positions_steps": [10, 20, 30],
                "jitter_sigma_steps": 0.75,
            },
            True,
        ),
        Job(
            "simulate-mismatch-w40",
            "simulate",
            {
                "width_steps": 40,
                "trials": n(400),
                "positions_steps": [10, 20, 30],
                "mismatch_percent": 10,
            },
            True,
        ),
        Job(
            "simulate-coarse-w20",
            "simulate",
            {
                "width_steps": 20,
                "trials": n(3334),
                "positions_steps": [5, 10, 15],
                "coarse": {"step_steps": 4, "duration_cycles": 1000},
            },
            True,
        ),
        Job(
            "compare-training-w40",
            "compare",
            {"technique": "training", "width_steps": 40, "trials": n(1000)},
            True,
        ),
    ]


def rcline_jobs() -> list[Job]:
    """RC waveform synthesis two ways: eye needs every sample, trials only
    the threshold crossings.  The chain algebra is unused.
    """
    jobs = [Job(f"eye-{ch}", "eye", {"channel": ch}, True) for ch in ("benign", "moderate", "heavy")]
    jobs += [
        Job(
            f"rc-trials-{ch}",
            "rc_trials",
            {"channel": ch, "trials": 2, "step_tau": RC_STEP_TAU, "max_cycles": 1_000_000},
            True,
        )
        for ch in ("benign", "moderate", "heavy")
    ]
    return jobs


WORKLOADS = {
    "analytic": analytic_jobs,
    "montecarlo": montecarlo_jobs,
    "rcline": rcline_jobs,
}


@dataclass(frozen=True)
class PreparedJob:
    job: Job
    config_path: Path
    outdir: Path


def prepare(jobs: list[Job], workdir: Path) -> list[PreparedJob]:
    """Write each job's YAML config; the program reads only these files."""
    prepared = []
    for job in jobs:
        jobdir = workdir / job.name
        jobdir.mkdir(parents=True, exist_ok=True)
        config_path = jobdir / "config.yaml"
        if job.kind != "rc_trials":
            config_path.write_text(yaml.safe_dump({"schema_version": cli.SCHEMA_VERSION, **job.config}))
        prepared.append(PreparedJob(job, config_path, jobdir / "out"))
    return prepared


def job_seed(seed: int, pass_index: int, job_index: int) -> int:
    state = np.random.SeedSequence([seed, pass_index, job_index]).generate_state(1, np.uint64)
    return int(state[0])


def _run(pj: PreparedJob, seed: int):
    job = pj.job
    if job.kind == "rc_trials":
        config = sim.TrialConfig(
            channel=sim.REFERENCE_CHANNELS[job.config["channel"]],
            source=sim.BitSource.bernoulli(),
            step_tau=job.config["step_tau"],
            max_cycles=job.config["max_cycles"],
        )
        return sim.run_monte_carlo(config, job.config["trials"], seed)
    argv = [job.kind, "--config", str(pj.config_path), "--out", str(pj.outdir), "--quiet"]
    if job.seeded:
        argv += ["--seed", str(seed)]
    return cli.main(argv)


def _write_trials(path: Path, result: sim.MonteCarloResult) -> None:
    rows = ["trial,escape_cycle,exit_side"]
    rows += [f"{k},{c},{s}" for k, (c, s) in enumerate(zip(result.escape_cycles, result.exit_sides))]
    path.write_text("\n".join(rows) + "\n")


def output_digests(outdir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.iterdir())
        if p.suffix in (".csv", ".json")
    }


def rows_written(outdir: Path) -> int:
    """Data rows in the CSV files a job wrote (headers excluded)."""
    total = 0
    for p in outdir.glob("*.csv"):
        with p.open("rb") as fh:
            total += max(sum(1 for _ in fh) - 1, 0)
    return total


@dataclass
class JobRecord:
    name: str
    kind: str
    seconds: float
    problems: list[str]
    cycles: int | None = None
    rows: int = 0
    digests: dict[str, str] = field(default_factory=dict)


@dataclass
class PassResult:
    index: int
    jobs: list[JobRecord]

    @property
    def failed(self) -> int:
        return sum(1 for j in self.jobs if j.problems)

    def metrics(self) -> dict[str, float]:
        """End-to-end metrics of this pass; inapplicable ones are absent."""
        out: dict[str, float] = {"wall_s": sum(j.seconds for j in self.jobs)}
        for j in self.jobs:
            key = SUBCOMMAND_METRICS[j.kind]
            out[key] = out.get(key, 0.0) + j.seconds
        trial_jobs = [j for j in self.jobs if j.cycles is not None]
        if trial_jobs:
            out["sim_cycles_per_s"] = sum(j.cycles for j in trial_jobs) / sum(
                j.seconds for j in trial_jobs
            )
        return out


def run_pass(
    prepared: list[PreparedJob],
    seed: int,
    pass_index: int,
    refs: checks.References,
    tracer=None,
) -> PassResult:
    """Run every job once, back to back, timing each around its entry point.

    Output cleanup, checks and digests happen outside the timed region.
    """
    records = []
    for j, pj in enumerate(prepared):
        if pj.outdir.exists():
            shutil.rmtree(pj.outdir)
        pj.outdir.mkdir(parents=True)
        seed_j = job_seed(seed, pass_index, j)
        job_id = f"p{pass_index}/{pj.job.name}"
        error = None
        result = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = _run(pj, seed_j)
            else:
                with tracer.span("job", job_id, kind=pj.job.kind):
                    result = _run(pj, seed_j)
        except Exception as exc:  # a failing job is counted, not fatal
            error = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if error is None and isinstance(result, sim.MonteCarloResult):
            _write_trials(pj.outdir / "trials.csv", result)
        problems = [error] if error else checks.check(pj.job, pj.outdir, result, refs)
        cycles = None
        if pj.job.runs_trials and not problems:
            cycles = checks.trial_cycles(pj.job, pj.outdir)
        records.append(
            JobRecord(
                name=pj.job.name,
                kind=pj.job.kind,
                seconds=seconds,
                problems=problems,
                cycles=cycles,
                rows=rows_written(pj.outdir) if pj.job.kind != "rc_trials" else 0,
                digests=output_digests(pj.outdir),
            )
        )
    return PassResult(pass_index, records)
