"""Output checks for every benchmark job.

analytic   pinned values, the isi1 closed form 2k(N-k), and every integer
           equal to the seed commit's output (references.json).
montecarlo each start position's mean within MC_TOLERANCE_SE standard
           errors of the exact chain mean of the simulated walk; training
           significant at p < 0.01 with treated < baseline.
rcline     crossing cluster counts 1/2/4, heavy window in [0.25, 0.35] UI,
           and every RC trial escapes.

A check returns a list of problems; an empty list means the job passed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve
from scipy.special import ndtr

from mesosettle import jitter, sim

REFERENCES = Path(__file__).resolve().parent / "references.json"

# Five standard errors: a two-sided normal tail of 6e-7 per position, so a
# correct simulator passes the few hundred position checks of a run.
MC_TOLERANCE_SE = 5.0
FLOAT_REL_TOL = 1e-12
EYE_CLUSTERS = {"benign": 1, "moderate": 2, "heavy": 4}
HEAVY_WINDOW_UI = (0.25, 0.35)


@dataclass
class References:
    """Expected analytic outputs, plus chain means for the Monte Carlo jobs."""

    analytic: dict
    chain_means: dict[str, dict[int, float]]


def load_references(jobs) -> References:
    """Read the analytic references and solve the chains the trial jobs need."""
    data = json.loads(REFERENCES.read_text())
    means = {job.name: walk_chain_means(job.config) for job in jobs if job.kind == "simulate"}
    return References(analytic=data["jobs"], chain_means=means)


def walk_chain_means(cfg: dict) -> dict[int, float]:
    """Exact mean escape cycles of the simulated ISI-1 walk per start position.

    The state is the sub-grid clock position, the previous and current bit,
    and, in coarse acquisition, the latched direction.  Consecutive ISI-1
    crossing codes share bits, so this chain, unlike the lazy walk of
    ``jitter.build_isi1_chain``, matches the simulator near the window
    edges too.  Start bits and the coarse direction are uniform, as in
    ``sim.run_trial``.
    """
    width = cfg["width_steps"]
    s_l, s_r = jitter.mismatch_substeps(cfg.get("mismatch_percent", 0))
    sigma = cfg.get("jitter_sigma_steps")
    coarse = cfg.get("coarse")
    g = width * s_r
    dirs = (-1, 1) if coarse else (0,)
    states = [(p, a, b, d) for p in range(1, g) for a in (0, 1) for b in (0, 1) for d in dirs]
    index = {s: i for i, s in enumerate(states)}
    rows, cols, vals = [], [], []
    for (p, a, b, d), i in index.items():
        for c in (0, 1):
            if coarse:
                # A (runt bit) latches right, B latches left, quiet keeps
                new_d = d if b == c else (1 if a != b else -1)
                moves = [(coarse["step_steps"] * s_r * new_d, new_d, 1.0)]
            elif b == c:
                moves = [(0, 0, 1.0)]
            else:
                crossing = 0.0 if a != b else float(g)
                if sigma:
                    p_left = float(ndtr((p - crossing) / (sigma * s_r)))
                else:
                    p_left = 1.0 if crossing < p else 0.0
                moves = [(s_r, 0, p_left), (-s_l, 0, 1.0 - p_left)]
            for step, new_d, pr in moves:
                q = p + step
                if pr > 0.0 and 0 < q < g:
                    rows.append(i)
                    cols.append(index[(q, b, c, new_d)])
                    vals.append(0.5 * pr)
    n = len(states)
    q_mat = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    mean = spsolve((sparse.identity(n, format="csr") - q_mat).tocsc(), np.ones(n))
    out = {}
    for pos in range(1, width):
        starts = [index[(pos * s_r, a, b, d)] for a in (0, 1) for b in (0, 1) for d in dirs]
        out[pos] = float(mean[starts].mean())
    return out


def _read_csv(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _lookup(summary: dict, dotted: str):
    value = summary
    for key in dotted.split("."):
        value = value[key]
    return value


def _same(expected, got) -> bool:
    if isinstance(expected, float) and isinstance(got, (int, float)):
        return math.isclose(got, expected, rel_tol=FLOAT_REL_TOL, abs_tol=0.0)
    return expected == got


def _check_analytic(job, outdir: Path, refs: References) -> list[str]:
    problems = []
    ref = refs.analytic.get(job.name)
    if ref is None:
        return [f"no reference for job {job.name}"]
    summary = json.loads((outdir / "summary.json").read_text())
    for key, expected in ref["summary"].items():
        try:
            got = _lookup(summary, key)
        except (KeyError, TypeError):
            problems.append(f"summary lacks {key}")
            continue
        if not _same(expected, got):
            problems.append(f"{key} = {got!r}, expected {expected!r}")
    for name, expected in ref["rows"].items():
        got = len(_read_csv(outdir / name))
        if got != expected:
            problems.append(f"{name} has {got} rows, expected {expected}")
    if job.config.get("model") == "isi1":
        n = job.config["width_steps"]
        k = n // 2
        got = summary["mean_cycles_at_initial"]
        if not math.isclose(got, 2 * k * (n - k), rel_tol=1e-9):
            problems.append(f"centre mean {got!r} != closed form 2k(N-k) = {2 * k * (n - k)}")
    return problems


def _check_simulate(job, outdir: Path, refs: References) -> list[str]:
    problems = []
    means = refs.chain_means[job.name]
    rows = _read_csv(outdir / "escape_stats.csv")
    if not rows:
        return ["escape_stats.csv is empty"]
    for row in rows:
        pos = int(row["position"])
        mean, stderr = float(row["mean"]), float(row["stderr"])
        if int(row["trials"]) != job.config["trials"]:
            problems.append(f"position {pos}: {row['trials']} trials, expected {job.config['trials']}")
        if not (math.isfinite(mean) and math.isfinite(stderr)):
            problems.append(f"position {pos}: mean {mean}, stderr {stderr}")
            continue
        ref = means[pos]
        if abs(mean - ref) > MC_TOLERANCE_SE * stderr:
            problems.append(
                f"position {pos}: mean {mean:.6g} is {abs(mean - ref) / stderr:.2f} SE "
                f"from chain mean {ref:.6g}"
            )
    return problems


def _check_training(outdir: Path) -> list[str]:
    s = json.loads((outdir / "summary.json").read_text())
    problems = []
    if not s["p_value"] < 0.01:
        problems.append(f"training p = {s['p_value']:.3g}, expected < 0.01")
    if not s["treated_mean"] < s["baseline_mean"]:
        problems.append(f"treated mean {s['treated_mean']} not below baseline {s['baseline_mean']}")
    return problems


def _check_eye(job, outdir: Path) -> list[str]:
    s = json.loads((outdir / "summary.json").read_text())
    channel = job.config["channel"]
    problems = []
    if s["n_clusters"] != EYE_CLUSTERS[channel]:
        problems.append(f"{s['n_clusters']} crossing clusters, expected {EYE_CLUSTERS[channel]}")
    lo, hi = HEAVY_WINDOW_UI
    if channel == "heavy" and not lo <= s["window_ui"] <= hi:
        problems.append(f"heavy window {s['window_ui']:.4f} UI outside [{lo}, {hi}]")
    return problems


def _check_rc_trials(job, result: sim.MonteCarloResult) -> list[str]:
    if result.n_trials != job.config["trials"]:
        return [f"{result.n_trials} trials, expected {job.config['trials']}"]
    stuck = int((~result.escaped_mask).sum())
    return [f"{stuck} RC trials did not escape"] if stuck else []


def check(job, outdir: Path, result, refs: References) -> list[str]:
    """Problems with one finished job's output; empty when it passed."""
    if job.kind == "rc_trials":
        return _check_rc_trials(job, result)
    if result != 0:
        return [f"exit code {result}"]
    if job.kind == "simulate":
        return _check_simulate(job, outdir, refs)
    if job.kind == "eye":
        return _check_eye(job, outdir)
    if job.config.get("technique") == "training":
        return _check_training(outdir)
    return _check_analytic(job, outdir, refs)


def trial_cycles(job, outdir: Path) -> int:
    """Simulated retiming cycles in a trial job, censored trials at max_cycles.

    The CLI outputs carry means over escaped trials only; no CLI job here
    sets max_cycles, so at its 1e6 default every trial escapes.
    """
    if job.kind == "rc_trials":
        cyc = np.array([int(r["escape_cycle"]) for r in _read_csv(outdir / "trials.csv")])
        return int(np.where(cyc < 0, job.config["max_cycles"], cyc).sum())
    if job.kind == "simulate":
        total = sum(float(r["mean"]) * int(r["trials"]) for r in _read_csv(outdir / "escape_stats.csv"))
        trajectory = outdir / "trajectory.csv"
        if trajectory.exists():
            total += len(_read_csv(trajectory)) - 1
        return int(round(total))
    s = json.loads((outdir / "summary.json").read_text())
    return int(round((s["baseline_mean"] + s["treated_mean"]) * s["trials"]))
