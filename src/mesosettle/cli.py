"""Command line front end.

Subcommands
    analyze   absorption statistics and cdf for a configured chain
    simulate  Monte Carlo escape statistics across starting positions
    eye       RC-ladder eye diagram and folded crossing histogram
    compare   settling-time reduction techniques
    sweep     cycles-at-confidence across window widths

All commands read a YAML config (--config) and write CSV plus a
summary.json into --out.  Runs are deterministic for a given config and
seed; files are written atomically and carry no timestamps, so a rerun
is byte-identical.

Exit codes: 0 ok, 2 bad config or usage, 3 numerical failure, 4 I/O.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np
import yaml

from . import jitter, markov, reduction, sim

SCHEMA_VERSION = 1

_MISSING = object()


class ConfigError(ValueError):
    pass


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    text = "%.12g" % float(v)
    return "" if text == "nan" else text  # a statistic over no escaped trial


def _number(v) -> float | None:
    """JSON value of a statistic; null where no escaped trial gave it."""
    v = float(v)
    return None if np.isnan(v) else v


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_csv(path: str, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_json(path: str, obj: dict) -> None:
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _pop(cfg: dict, key: str, default=_MISSING):
    if key in cfg:
        return cfg.pop(key)
    if default is _MISSING:
        raise ConfigError(f"missing required key {key!r}")
    return default


def _done(cfg: dict, context: str) -> None:
    if cfg:
        raise ConfigError(f"unknown {context} keys: {sorted(map(str, cfg))}")


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except yaml.YAMLError as e:
        raise ConfigError(f"malformed YAML: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a mapping")
    version = _int(cfg, "schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r}")
    return cfg


def _as_int(v, key: str, low: int | None = None) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{key} must be an integer, got {v!r}")
    if low is not None and v < low:
        raise ConfigError(f"{key} must be at least {low}, got {v!r}")
    return v


def _as_float(v, key: str) -> float:
    # the bound also rejects nan, the infinities and ints too large for a float
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise ConfigError(f"{key} must be a finite number, got {v!r}")
    return float(v)


# Typed readers: each pops `key` from `cfg` and checks its value.  Leaving
# out a key with a None default, or setting it to null, reads as None.
def _int(cfg: dict, key: str, default=_MISSING, low: int | None = None) -> int | None:
    v = _pop(cfg, key, default)
    return None if v is None and default is None else _as_int(v, key, low)


def _float(cfg: dict, key: str, default=_MISSING) -> float | None:
    v = _pop(cfg, key, default)
    return None if v is None and default is None else _as_float(v, key)


def _list(cfg: dict, key: str, item, count: int | None = None, default=_MISSING) -> list | None:
    """A nonempty list, of `count` entries if given, each checked by `item`."""
    v = _pop(cfg, key, default)
    if v is None and default is None:
        return None
    if not isinstance(v, (list, tuple)) or not v or count not in (None, len(v)):
        raise ConfigError(f"{key} must be a list of {count or 'one or more'} numbers, got {v!r}")
    return [item(x, key) for x in v]


def _confidence_from(cfg: dict) -> float:
    confidence = _float(cfg, "confidence", 0.99)
    if not 0.0 < confidence < 1.0:
        raise ConfigError(f"confidence must lie strictly in (0, 1), got {confidence!r}")
    return confidence


def _max_transitions(cfg: dict) -> int:
    return _int(cfg, "max_transitions", markov.DEFAULT_MAX_TRANSITIONS, 1)


def _trials(cfg: dict, args, default: int) -> int:
    """The config's trial count, overridden by --trials."""
    trials = _int(cfg, "trials", default, 1)
    return trials if args.trials is None else args.trials


def _require_seed(args) -> int:
    if args.seed is None:
        raise ConfigError("this command needs --seed")
    return args.seed


def _source_from(cfg: dict) -> sim.BitSource:
    kind = _pop(cfg, "source", "bernoulli")
    if kind == "bernoulli":
        return sim.BitSource.bernoulli(_float(cfg, "bit_probability", 0.5))
    if kind == "training":
        return sim.BitSource.training_biased()
    if kind == "alternating":
        return sim.BitSource.alternating()
    if kind == "explicit":
        bits = _pop(cfg, "pattern_bits")
        if not isinstance(bits, list):
            raise ConfigError(f"pattern_bits must be a list of bits, got {bits!r}")
        return sim.BitSource.explicit(bits)
    raise ConfigError(f"unknown source {kind!r}")


def _window_from(cfg: dict) -> jitter.WindowSpec:
    return jitter.WindowSpec(_int(cfg, "width_steps"), _int(cfg, "initial_offset_steps", None))


def _chain_from(cfg: dict) -> tuple[markov.AbsorbingChain, object, dict]:
    """Build (chain, initial position label, description) from config."""
    model = _pop(cfg, "model")
    desc: dict = {"model": model}
    if model == "isi1":
        window = _window_from(cfg)
        chain = jitter.build_isi1_chain(window)
        init = window.initial
        desc["width_steps"] = window.width_steps
    elif model == "isi2":
        subs = _list(cfg, "sub_windows_steps", _as_int, 3, None)
        if subs is None:
            pct = _list(cfg, "sub_windows_percent_ui", _as_float, 3)
            subs = jitter.sub_windows_to_steps(pct, _float(cfg, "step_percent_ui", 0.35))
        chain = jitter.build_isi2_chain(*subs)
        width = sum(subs)
        init = _int(cfg, "initial_offset_steps", width // 2)
        desc["sub_windows_steps"] = list(subs)
        desc["width_steps"] = width
    elif model == "gaussian":
        spec = jitter.GaussianJitterSpec(
            sigma_steps=_float(cfg, "sigma_steps"),
            truncation_sigmas=_float(cfg, "truncation_sigmas", 3.0),
            transition_probability=_float(cfg, "transition_probability", 0.5),
        )
        chain = jitter.build_gaussian_chain(spec)
        init = _int(cfg, "initial_offset_steps", 0)
        desc["sigma_steps"] = spec.sigma_steps
    elif model == "combined":
        spec = jitter.CombinedJitterSpec(
            sigma_steps=_float(cfg, "sigma_steps"),
            w_ab_steps=_int(cfg, "w_ab_steps"),
            trace_probabilities=tuple(
                _list(cfg, "trace_probabilities", _as_float, 3, [0.25, 0.25, 0.5])
            ),
        )
        chain = jitter.build_combined_chain(spec)
        init = _int(cfg, "initial_offset_steps", spec.w_ab_steps // 2)
        desc["sigma_steps"] = spec.sigma_steps
        desc["w_ab_steps"] = spec.w_ab_steps
    elif model == "biased":
        window = _window_from(cfg)
        desc["mismatch_percent"] = cfg.get("mismatch_percent")  # the summary keeps it as written
        chain = jitter.build_biased_chain(
            jitter.build_isi1_chain(window), _float(cfg, "mismatch_percent")
        )
        init = window.initial  # aligned on the tau grid
        desc["width_steps"] = window.width_steps
    else:
        raise ConfigError(f"unknown model {model!r}")
    return chain, init, desc


def cmd_analyze(args, outdir: str) -> dict:
    cfg = _load_config(args.config)
    confidence = _confidence_from(cfg)
    max_transitions = _max_transitions(cfg)
    chain, init, desc = _chain_from(cfg)
    _done(cfg, "analyze")
    p0 = jitter.start_distribution(chain, init)

    positions, mean, std = jitter.position_profile(chain)
    _write_csv(
        os.path.join(outdir, "mean_std.csv"),
        ["position_tau", "mean_cycles", "std_cycles"],
        zip(positions, mean, std),
    )

    series = markov.absorption_series(
        chain, p0, target_confidence=confidence, max_n=max_transitions
    )
    _write_csv(
        os.path.join(outdir, "absorption_cdf.csv"),
        ["n", "cdf", "pmf"],
        zip(range(series.cdf.size), series.cdf, series.pmf),
    )

    at = int(np.flatnonzero(positions == init)[0])
    return {
        "command": "analyze",
        **desc,
        "initial_position": float(init),
        "confidence": confidence,
        "n_at_confidence": series.n_transitions,
        "mean_cycles_at_initial": float(mean[at]),
        "std_cycles_at_initial": float(std[at]),
        "n_states": chain.n_states,
    }


def _trial_config_from(cfg: dict) -> tuple[sim.TrialConfig, dict]:
    window = _window_from(cfg)
    source = _source_from(cfg)
    mismatch = _float(cfg, "mismatch_percent", 0)
    max_cycles = _int(cfg, "max_cycles", 1_000_000)
    coarse = _pop(cfg, "coarse", None)
    if coarse is not None:
        if not isinstance(coarse, dict):
            raise ConfigError(f"coarse must be a mapping, got {coarse!r}")
        nested = {f"coarse.{k}": v for k, v in coarse.items()}
        coarse = sim.CoarseFirstSpec(
            _int(nested, "coarse.step_steps", 1), _int(nested, "coarse.duration_cycles")
        )
        _done(nested, "coarse")
    sigma = _float(cfg, "jitter_sigma_steps", None)
    jit = None if sigma is None else jitter.GaussianJitterSpec(sigma_steps=sigma)
    trace = jitter.isi1_trace(window.width_steps)
    config = sim.TrialConfig(
        channel=sim.ChannelModel.discrete(trace, jitter=jit),
        source=source,
        window=window,
        max_cycles=max_cycles,
        mismatch_percent=mismatch,
        coarse_first=coarse,
    )
    meta = {
        "window_steps": window.width_steps,
        "source": source.kind,
        "mismatch_percent": mismatch,
        "jitter_sigma_steps": sigma,
        "coarse": coarse is not None,
        "max_cycles": max_cycles,
    }
    return config, meta


def _default_positions(width: int) -> list[int]:
    if width <= 11:
        return list(range(1, width))
    pts = np.unique(np.round(np.linspace(1, width - 1, 10)).astype(int))
    return [int(p) for p in pts]


def cmd_simulate(args, outdir: str) -> dict:
    seed = _require_seed(args)
    cfg = _load_config(args.config)
    trials = _trials(cfg, args, 100)
    positions = _list(cfg, "positions_steps", _as_int, default=None)
    record = _pop(cfg, "record_trajectory", True)
    if not isinstance(record, bool):
        raise ConfigError(f"record_trajectory must be true or false, got {record!r}")
    if "initial_offset_steps" in cfg:
        raise ConfigError("simulate takes its start positions from positions_steps, "
                          "not initial_offset_steps")
    base_config, meta = _trial_config_from(cfg)
    _done(cfg, "simulate")
    if positions is None:
        positions = _default_positions(base_config.window.width_steps)
    configs = [replace(base_config, initial_position=p) for p in positions]
    rows = []
    for i, (pos, cfg_i) in enumerate(zip(positions, configs)):
        res = sim.run_monte_carlo(cfg_i, trials, (seed, i))
        # a position whose trials all hit max_cycles has no escape statistics
        stats = (None, None, None)
        if res.escaped_mask.any():
            stats = (res.mean_cycles, res.std_cycles, res.stderr_cycles)
        rows.append((pos, *stats, trials, res.n_escaped))
    _write_csv(
        os.path.join(outdir, "escape_stats.csv"),
        ["position", "mean", "std", "stderr", "trials", "escaped"],
        rows,
    )

    if record:
        tr = sim.run_trial(replace(configs[0], record_trajectory=True), (seed, 0, 0))
        traj = tr.trajectory
        _write_csv(
            os.path.join(outdir, "trajectory.csv"),
            ["cycle", "position_tau"],
            zip(range(traj.size), traj),
        )

    return {
        "command": "simulate",
        **meta,
        "seed": seed,
        "trials": trials,
        "positions": positions,
        "mean_cycles": [r[1] for r in rows],
    }


def _channel_from(cfg: dict) -> sim.ChannelModel:
    preset = _pop(cfg, "channel", None)
    if preset is not None:
        if not isinstance(preset, str) or preset not in sim.REFERENCE_CHANNELS:
            raise ConfigError(
                f"unknown channel preset {preset!r}; pick from {sorted(sim.REFERENCE_CHANNELS)}"
            )
        return sim.REFERENCE_CHANNELS[preset]
    return sim.ChannelModel.rc(
        r=_float(cfg, "r_per_section", 1.0),
        c=_float(cfg, "c_per_section_ui"),
        samples_per_ui=_int(cfg, "samples_per_ui"),
        sections=_int(cfg, "sections", 20),
    )


def cmd_eye(args, outdir: str) -> dict:
    seed = _require_seed(args)
    cfg = _load_config(args.config)
    channel = _channel_from(cfg)
    source = _source_from(cfg)
    bits_total = _int(cfg, "bits_total", 400)
    warmup_ui = _int(cfg, "warmup_ui", 30, 0)
    bins = _int(cfg, "histogram_bins", 100, 1)
    gap = _float(cfg, "cluster_gap_ui", 0.02)
    segments = _int(cfg, "overlay_segments", 40, 1)
    _done(cfg, "eye")
    if bits_total <= warmup_ui + 2:
        raise ConfigError("bits_total must exceed warmup_ui by at least 3")

    rng = np.random.default_rng(seed)
    bits = sim.generate_bits(source, bits_total, rng)
    wave = sim.propagate_rc(channel, bits)
    hist = sim.crossing_histogram(
        wave, channel.samples_per_ui, warmup_ui=warmup_ui, bins=bins, cluster_gap_ui=gap
    )
    overlay = sim.eye_traces(wave, channel.samples_per_ui, skip_ui=warmup_ui, n_segments=segments)

    spu = channel.samples_per_ui
    t_ui = np.arange(spu) / spu
    eye_rows = (
        (seg, t_ui[j], overlay[seg, j])
        for seg in range(overlay.shape[0])
        for j in range(spu)
    )
    _write_csv(os.path.join(outdir, "eye.csv"), ["segment", "time_ui", "value"], eye_rows)
    _write_csv(
        os.path.join(outdir, "crossings.csv"),
        ["bin_center", "count"],
        zip(hist.bin_centers, hist.counts),
    )
    return {
        "command": "eye",
        "seed": seed,
        "source": source.kind,
        "sections": channel.sections,
        "rc_per_section_ui": channel.section_tau_ui,
        "samples_per_ui": spu,
        "bits_total": bits_total,
        "n_crossings": int(hist.crossings_ui.size),
        "n_clusters": hist.n_clusters,
        "window_ui": float(hist.window_ui),
        "horizontal_eye_opening_ui": float(hist.eye_opening_ui),
        "cluster_centers_ui": [float(c) for c in hist.cluster_centers],
        "sub_gaps_ui": [float(g) for g in hist.sub_gaps_ui],
    }


def cmd_compare(args, outdir: str) -> dict:
    cfg = _load_config(args.config)
    technique = _pop(cfg, "technique")
    header = [
        "position",
        "baseline_mean",
        "treated_mean",
        "reduction_fraction",
        "baseline_std",
        "treated_std",
    ]
    if technique == "mismatch":
        width = _int(cfg, "width_steps")
        mismatch = _float(cfg, "mismatch_percent")
        _done(cfg, "compare")
        report = reduction.compare_mismatch(width, mismatch)
        center = report.at_position(width // 2)
        summary = {
            "command": "compare",
            "technique": "mismatch",
            "width_steps": width,
            "mismatch_percent": mismatch,
            "center": center,
            "max_reduction_mean": float(report.reduction_mean.max()),
        }
    elif technique == "training":
        seed = _require_seed(args)
        trials = _trials(cfg, args, 1000)
        config, meta = _trial_config_from(cfg)
        _done(cfg, "compare")
        report, baseline, treated = reduction.compare_training(config, trials, seed)
        summary = {
            "command": "compare",
            "technique": "training",
            **meta,
            "seed": seed,
            "trials": trials,
            "baseline_escaped": baseline.n_escaped,
            "treated_escaped": treated.n_escaped,
            "p_value": _number(report.p_value),
            "baseline_mean": _number(report.baseline_mean[0]),
            "treated_mean": _number(report.treated_mean[0]),
            "reduction_mean": _number(report.reduction_mean[0]),
        }
    elif technique == "coarse":
        window = _window_from(cfg)
        confidence = _confidence_from(cfg)
        period = _float(cfg, "divided_period_ns", 4.0)
        _done(cfg, "compare")
        est = reduction.coarse_first_confidence(window, confidence, period)
        return {
            "command": "compare",
            "technique": "coarse",
            "width_steps": window.width_steps,
            "confidence": confidence,
            "divided_period_ns": period,
            "cycles": est.cycles,
            "time_ns": est.time_ns,
        }
    else:
        raise ConfigError(f"unknown technique {technique!r}")

    rows = zip(
        report.positions,
        report.baseline_mean,
        report.treated_mean,
        report.reduction_mean,
        report.baseline_std,
        report.treated_std,
    )
    _write_csv(os.path.join(outdir, "reduction.csv"), header, rows)
    return summary


def cmd_sweep(args, outdir: str) -> dict:
    cfg = _load_config(args.config)
    widths = _list(cfg, "widths_steps", _as_int)
    confidence = _confidence_from(cfg)
    max_transitions = _max_transitions(cfg)
    _done(cfg, "sweep")
    windows = [jitter.WindowSpec(w) for w in widths]
    chains = [jitter.build_isi1_chain(window) for window in windows]

    rows = []
    for window, chain in zip(windows, chains):
        p0 = jitter.start_distribution(chain, window.initial)
        n = markov.transitions_for_confidence(chain, p0, confidence, max_n=max_transitions)
        rows.append((window.width_steps, n))
    _write_csv(os.path.join(outdir, "sweep.csv"), ["window_steps", "n_at_confidence"], rows)
    return {
        "command": "sweep",
        "confidence": confidence,
        "widths_steps": [r[0] for r in rows],
        "n_at_confidence": [r[1] for r in rows],
    }


_COMMANDS = {
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "eye": cmd_eye,
    "compare": cmd_compare,
    "sweep": cmd_sweep,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mesosettle",
        description="settling-time analysis of mesochronous clock-retiming loops",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True, help="YAML config path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="base RNG seed (u64)")
        p.add_argument("--trials", type=int, default=None, help="override trial count")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.seed is not None and not 0 <= args.seed < 2**64:
        print("error: --seed must fit in u64", file=sys.stderr)
        return 2
    if args.trials is not None and args.trials < 1:
        print("error: --trials must be positive", file=sys.stderr)
        return 2
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as e:
        print(f"error: cannot create output directory: {e}", file=sys.stderr)
        return 4
    try:
        summary = _COMMANDS[args.command](args, args.out)
        path = os.path.join(args.out, "summary.json")
        _write_json(path, summary)
    except (markov.ConfidenceNotReached, np.linalg.LinAlgError, FloatingPointError) as e:
        # LinAlgError is a ValueError: caught here first, it stays a numerical failure
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        # every parameter the library sees comes from the config or the command
        # line, so a value the library refuses is a config error
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 4
    if not args.quiet:
        print(f"wrote {path}")
    return 0

if __name__ == "__main__":
    sys.exit(main())
