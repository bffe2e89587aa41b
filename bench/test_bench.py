"""Tests of the benchmark itself: output checks, tracer bindings and seeds.

Run from the root of a checkout:  python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from checkout import ROOT, use_checkout_src

use_checkout_src()

import mesosettle  # noqa: E402
from mesosettle import cli, jitter, reduction, sim  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

FAST_ANALYTIC = ("analyze-isi1-w40", "compare-mismatch-w40", "compare-coarse-w5")


def _pass(jobs, tmp_path, seed=1, refs=None, tr=None):
    prepared = workloads.prepare(jobs, tmp_path)
    refs = refs or checks.load_references(jobs)
    return workloads.run_pass(prepared, seed, 0, refs, tr)


def _fast_analytic():
    return [j for j in workloads.analytic_jobs() if j.name in FAST_ANALYTIC]


def test_analytic_jobs_pass_their_references(tmp_path):
    result = _pass(_fast_analytic(), tmp_path)
    assert [j.problems for j in result.jobs] == [[], [], []]


@pytest.mark.parametrize(
    "job, key, value",
    [
        ("analyze-isi1-w40", "n_at_confidence", 3143),
        ("compare-mismatch-w40", "center.reduction_mean", 0.2546),
        ("compare-coarse-w5", "cycles", 47),
    ],
)
def test_tampered_analytic_reference_raises_jobs_failed(tmp_path, job, key, value):
    jobs = _fast_analytic()
    refs = checks.load_references(jobs)
    refs.analytic[job]["summary"][key] = value
    result = _pass(jobs, tmp_path, refs=refs)
    assert result.failed == 1
    assert [j.name for j in result.jobs if j.problems] == [job]


def test_tampered_chain_mean_raises_jobs_failed(tmp_path):
    jobs = [j for j in workloads.montecarlo_jobs() if j.name == "simulate-mismatch-w40"]
    refs = checks.load_references(jobs)
    refs.chain_means["simulate-mismatch-w40"][20] *= 1.5
    assert _pass(jobs, tmp_path, refs=refs).failed == 1


@pytest.mark.parametrize("seed", [1, 2])
def test_montecarlo_checks_pass_at_two_seeds(tmp_path, seed):
    result = _pass(workloads.montecarlo_jobs(scale=0.1), tmp_path, seed=seed)
    assert {j.name: j.problems for j in result.jobs if j.problems} == {}
    assert all(j.cycles > 0 for j in result.jobs)


def test_seed_alone_determines_inputs(tmp_path):
    jobs = [j for j in workloads.montecarlo_jobs(scale=0.1) if j.name == "simulate-jitter-w40"]
    first = _pass(jobs, tmp_path / "a", seed=5).jobs[0].digests
    again = _pass(jobs, tmp_path / "b", seed=5).jobs[0].digests
    other = _pass(jobs, tmp_path / "c", seed=6).jobs[0].digests
    assert first == again
    assert first != other


def test_walk_chain_matches_isi1_closed_form_at_centre():
    # consecutive ISI-1 codes share bits, which moves the mean only off
    # centre; at the centre both chains give 2k(N-k)
    means = checks.walk_chain_means({"width_steps": 40})
    assert means[20] == pytest.approx(800.0, rel=1e-12)
    assert means[1] == pytest.approx(40.0, rel=1e-12)


def test_rc_trial_check_and_censored_cycles(tmp_path):
    job = workloads.rcline_jobs()[-1]
    censored = sim.MonteCarloResult(np.array([12, -1]), np.array([1, 0], dtype=np.int8))
    assert checks.check(job, tmp_path, censored, None) == ["1 RC trials did not escape"]
    workloads._write_trials(tmp_path / "trials.csv", censored)
    assert checks.trial_cycles(job, tmp_path) == 12 + job.config["max_cycles"]


def _bindings():
    return {(h.__name__, a): v for h in tracing.HOLDERS for a, v in vars(h).items()}


def test_tracer_spans_and_restored_bindings(tmp_path):
    originals = tracing.traced_functions()
    before = _bindings()
    sweep = workloads.Job("sweep", "sweep", {"widths_steps": [2, 5, 40]})
    (prepared,) = workloads.prepare([sweep], tmp_path)
    trial = sim.TrialConfig(
        channel=sim.ChannelModel.discrete(jitter.isi1_trace(20)),
        source=sim.BitSource.bernoulli(),
        window=jitter.WindowSpec(20),
    )
    tr = tracing.Tracer()
    with tr.installed():
        # every namespace holding a traced function now holds its wrapper
        assert reduction.absorption_stats is not originals["markov.absorption_stats"]
        assert jitter.absorption_stats is not originals["markov.absorption_stats"]
        assert mesosettle.absorption_series is not originals["markov.absorption_series"]
        assert sim.mismatch_substeps is not originals["jitter.mismatch_substeps"]
        assert sim.lfilter is not originals["sim.lfilter"]
        with tr.span("job", "sweep"):
            argv = ["sweep", "--config", str(prepared.config_path), "--out", str(prepared.outdir)]
            assert cli.main([*argv, "--quiet"]) == 0
        with tr.span("job", "trials"):
            sim.run_monte_carlo(trial, 10, 7)

    def count(name, job):
        return sum(1 for s in tr.spans if s.name == name and s.job == job)

    assert count("markov.absorption_series", "sweep") == 3
    assert count("sim.run_trial", "trials") == 10
    assert all(s.end >= s.start for s in tr.spans)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    metrics = tracing.layer_metrics(tr.spans)
    assert metrics["markov.series_terms"] == 7 + 48 + 3142
    assert metrics["sim.trials"] == 10


def test_result_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == set(run.RESULT_END_TO_END)
    assert {m["name"] for m in spec["per_layer"]} == set(run.RESULT_LAYERS)
    assert all(run.UNITS[m["name"]] == m["unit"] for m in spec["end_to_end"] + spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "analytic", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
