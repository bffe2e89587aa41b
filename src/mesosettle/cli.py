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
from contextlib import contextmanager, suppress
from dataclasses import replace

import numpy as np
import yaml

from . import jitter, markov, reduction, sim

SCHEMA_VERSION = 1

_MISSING = object()

# fixed caps on sizes, checked before anything is allocated, so that the
# exit code never depends on the machine's memory: trials per start
# position (9 bytes of results each), eye waveform samples (8 bytes each,
# about 2.4 times that at peak), histogram bins and ladder sections (the
# ladder's n x n section matrix goes through eigh, which takes about 0.2 s
# at 1000 sections and 1.2 s at 2000 on a shared 2-core machine)
_MAX_TRIALS = 10**7
_MAX_EYE_SAMPLES = 2**26
_MAX_HISTOGRAM_BINS = 10**6
_MAX_SECTIONS = 1000
# states of one chain, counted in closed form before it is built: an isi1
# or isi2 chain at the cap takes about 0.8 GB at peak and 2 s to build and
# solve for its moments on the same machine
_MAX_CHAIN_STATES = 10**6


class ConfigError(ValueError):
    pass


def _number(v) -> float | None:
    """JSON value of a statistic; null where no escaped trial gave it."""
    v = float(v)
    return None if np.isnan(v) else v


# rows formatted and written at a time: the text held in memory stays flat
# however long the columns are
_CSV_CHUNK_ROWS = 4096


def _column(col) -> tuple[str, list]:
    """One column's %-format spec and the values it formats, by the dtype
    that np.asarray gives the column; a list of str passes as it is.

    Floats print as %.12g and NaN (a statistic over no escaped trial) as
    an empty cell; integers print in full, bools as 1 or 0, and text as it
    is.  A column that numpy can hold only as objects (None cells, or
    integers wider than 64 bits) goes a cell at a time by the same rules,
    with None as an empty cell.  A column with empty cells gives its cells
    as text, under %s.
    """
    if isinstance(col, list) and set(map(type, col)) <= {str}:
        return "%s", col
    a = np.asarray(col)
    if a.ndim != 1:
        raise TypeError(f"a column must be one-dimensional, got shape {a.shape}")
    kind = a.dtype.kind
    if kind in "biu":
        return "%d", a.tolist()
    if kind == "f":
        nan = np.flatnonzero(np.isnan(a)).tolist()
        if not nan:
            return "%.12g", a.tolist()
        cells = list(map("%.12g".__mod__, a.tolist()))
        for i in nan:
            cells[i] = ""
        return "%s", cells
    if kind == "U":
        return "%s", a.tolist()
    if kind != "O":
        raise TypeError(f"cannot write a column of {a.dtype}")
    cells = []
    for v in a.tolist():
        if v is None:
            cells.append("")
        elif type(v) is int:  # a Python int of any width; bool is not int here
            cells.append(str(v))
        else:
            one = np.asarray([v])
            if one.dtype.kind == "O":
                raise TypeError(f"cannot write a cell {v!r}")
            spec, (value,) = _column(one)
            cells.append(spec % value)
    return "%s", cells


@contextmanager
def _atomic_open(path: str):
    """A text file written at path + ".tmp" and moved onto path once
    complete; on failure the temporary file goes and path is untouched."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            yield fh
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise
    os.replace(tmp, path)


def _write_csv(path: str, header: list[str], columns) -> None:
    """A CSV of one array or sequence per column, formatted column-wise:
    each chunk of rows is one %-format of its columns' values, interleaved."""
    lengths = {len(col) for col in columns}
    if len(columns) != len(header) or len(lengths) > 1:
        raise ValueError(
            f"{os.path.basename(path)}: {len(header)} header names for columns of lengths "
            f"{[len(col) for col in columns]}"
        )
    n_rows = lengths.pop() if lengths else 0
    with _atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n_rows, _CSV_CHUNK_ROWS):
            hi = min(lo + _CSV_CHUNK_ROWS, n_rows)
            specs, values = zip(*(_column(col[lo:hi]) for col in columns))
            cells = [None] * ((hi - lo) * len(columns))
            for j, v in enumerate(values):
                cells[j :: len(columns)] = v
            fh.write((",".join(specs) + "\n") * (hi - lo) % tuple(cells))


def _write_json(path: str, obj: dict) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with _atomic_open(path) as fh:
        fh.write(text)


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


def _as_int(v, key: str, low: int | None = None, high: int | None = None) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{key} must be an integer, got {v!r}")
    if low is not None and v < low:
        raise ConfigError(f"{key} must be at least {low}, got {v!r}")
    if high is not None and v > high:
        raise ConfigError(f"{key} must be at most {high}, got {v!r}")
    return v


def _as_float(v, key: str) -> float:
    # the bound also rejects nan, the infinities and ints too large for a float
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise ConfigError(f"{key} must be a finite number, got {v!r}")
    return float(v)


# Typed readers: each pops `key` from `cfg` and checks its value.  Leaving
# out a key with a None default, or setting it to null, reads as None.
def _int(
    cfg: dict, key: str, default=_MISSING, low: int | None = None, high: int | None = None
) -> int | None:
    v = _pop(cfg, key, default)
    return None if v is None and default is None else _as_int(v, key, low, high)


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
    """The config's trial count, overridden by --trials; each is capped."""
    trials = _int(cfg, "trials", default, 1, _MAX_TRIALS)
    return trials if args.trials is None else _as_int(args.trials, "--trials", 1, _MAX_TRIALS)


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
        return sim.BitSource.explicit(_list(cfg, "pattern_bits", _as_int))
    raise ConfigError(f"unknown source {kind!r}")


def _cap_chain(states, what: str) -> None:
    """Refuse a chain of more than _MAX_CHAIN_STATES states before it is
    built: states is its count in closed form, what the keys that set it."""
    if not states <= _MAX_CHAIN_STATES:
        raise ConfigError(f"{what} makes a chain of more than {_MAX_CHAIN_STATES} states")


def _cap_biased(width: int, mismatch) -> None:
    """The biased chain's cap: W * s_R + 1 states, s_R the mismatch's sub-steps."""
    s_r = jitter.mismatch_substeps(mismatch)[1]
    _cap_chain(width * s_r + 1, f"width_steps {width} at mismatch_percent {mismatch}")


def _window_from(cfg: dict) -> jitter.WindowSpec:
    return jitter.WindowSpec(_int(cfg, "width_steps"), _int(cfg, "initial_offset_steps", None))


def _chain_from(cfg: dict) -> tuple[markov.AbsorbingChain, object, dict]:
    """Build (chain, initial position label, description) from config."""
    model = _pop(cfg, "model")
    desc: dict = {"model": model}
    if model == "isi1":
        window = _window_from(cfg)
        _cap_chain(window.width_steps + 1, f"width_steps {window.width_steps}")
        chain = jitter.build_isi1_chain(window)
        init = window.initial
        desc["width_steps"] = window.width_steps
    elif model == "isi2":
        key = "sub_windows_steps"
        subs = _list(cfg, key, _as_int, 3, None)
        if subs is None:
            key = "sub_windows_percent_ui"
            pct = _list(cfg, key, _as_float, 3)
            step = _float(cfg, "step_percent_ui", 0.35)
            try:
                subs = jitter.sub_windows_to_steps(pct, step)
            except OverflowError:
                # a ratio past the float range rounds to no step count
                raise ConfigError(f"{key} {pct} over step_percent_ui {step} overflows") from None
        width = sum(subs)
        _cap_chain(6 * (width - 1) + 2, f"{key} of {list(subs)} steps")
        chain = jitter.build_isi2_chain(*subs)
        init = _int(cfg, "initial_offset_steps", width // 2)
        desc["sub_windows_steps"] = list(subs)
        desc["width_steps"] = width
    elif model == "gaussian":
        spec = jitter.GaussianJitterSpec(
            sigma_steps=_float(cfg, "sigma_steps"),
            truncation_sigmas=_float(cfg, "truncation_sigmas", 3.0),
            transition_probability=_float(cfg, "transition_probability", 0.5),
        )
        # np.ceil keeps an overflowing product at inf, where the builder's int() raises
        _cap_chain(
            2 * np.ceil(spec.truncation_sigmas * spec.sigma_steps) + 1,
            f"sigma_steps {spec.sigma_steps} at truncation_sigmas {spec.truncation_sigmas}",
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
        _cap_chain(
            spec.w_ab_steps + 2 * np.ceil(3.0 * spec.sigma_steps) + 1,
            f"w_ab_steps {spec.w_ab_steps} at sigma_steps {spec.sigma_steps}",
        )
        chain = jitter.build_combined_chain(spec)
        init = _int(cfg, "initial_offset_steps", spec.w_ab_steps // 2)
        desc["sigma_steps"] = spec.sigma_steps
        desc["w_ab_steps"] = spec.w_ab_steps
    elif model == "biased":
        window = _window_from(cfg)
        desc["mismatch_percent"] = cfg.get("mismatch_percent")  # the summary keeps it as written
        mismatch = _float(cfg, "mismatch_percent")
        _cap_biased(window.width_steps, mismatch)
        chain = jitter.build_biased_chain(window, mismatch)
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
        [positions, mean, std],
    )

    series = markov.absorption_series(
        chain, p0, target_confidence=confidence, max_n=max_transitions
    )
    _write_csv(
        os.path.join(outdir, "absorption_cdf.csv"),
        ["n", "cdf", "pmf"],
        [np.arange(series.cdf.size), series.cdf, series.pmf],
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
    trace = jitter.isi1_trace(window.width_steps)
    config = sim.TrialConfig(
        channel=sim.ChannelModel.discrete(trace, sigma),
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
    results = [sim.run_monte_carlo(cfg_i, trials, (seed, i)) for i, cfg_i in enumerate(configs)]
    means = [res.mean_cycles for res in results]
    _write_csv(
        os.path.join(outdir, "escape_stats.csv"),
        ["position", "mean", "std", "stderr", "trials", "escaped"],
        [
            positions,
            means,
            [res.std_cycles for res in results],
            [res.stderr_cycles for res in results],
            [trials] * len(results),
            [res.n_escaped for res in results],
        ],
    )

    if record:
        tr = sim.run_trial(configs[0], (seed, 0, 0), record=True)
        traj = tr.trajectory
        _write_csv(
            os.path.join(outdir, "trajectory.csv"),
            ["cycle", "position_tau"],
            [np.arange(traj.size), traj],
        )

    return {
        "command": "simulate",
        **meta,
        "seed": seed,
        "trials": trials,
        "positions": positions,
        "mean_cycles": [_number(m) for m in means],
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
        sections=_int(cfg, "sections", 20, None, _MAX_SECTIONS),
    )


def cmd_eye(args, outdir: str) -> dict:
    seed = _require_seed(args)
    cfg = _load_config(args.config)
    channel = _channel_from(cfg)
    source = _source_from(cfg)
    bits_total = _int(cfg, "bits_total", 400)
    warmup_ui = _int(cfg, "warmup_ui", 30, 0)
    bins = _int(cfg, "histogram_bins", 100, 1, _MAX_HISTOGRAM_BINS)
    gap = _float(cfg, "cluster_gap_ui", 0.02)
    segments = _int(cfg, "overlay_segments", 40, 1)
    _done(cfg, "eye")
    if bits_total <= warmup_ui + 2:
        raise ConfigError("bits_total must exceed warmup_ui by at least 3")
    samples = bits_total * channel.samples_per_ui
    if samples > _MAX_EYE_SAMPLES:
        raise ConfigError(
            f"bits_total {bits_total} at samples_per_ui {channel.samples_per_ui} is {samples} "
            f"waveform samples, past the cap of {_MAX_EYE_SAMPLES}"
        )

    rng = np.random.default_rng(seed)
    bits = sim.generate_bits(source, bits_total, rng)
    wave = sim.propagate_rc(channel, bits)
    hist = sim.crossing_histogram(
        wave, channel.samples_per_ui, warmup_ui=warmup_ui, bins=bins, cluster_gap_ui=gap, bits=bits
    )
    overlay = sim.eye_traces(wave, channel.samples_per_ui, skip_ui=warmup_ui, n_segments=segments)

    spu = channel.samples_per_ui
    n_segments = overlay.shape[0]
    spec, times = _column(np.arange(spu) / spu)
    _write_csv(
        os.path.join(outdir, "eye.csv"),
        ["segment", "time_ui", "value"],
        [
            np.repeat(np.arange(n_segments), spu),
            [spec % t for t in times] * n_segments,
            overlay.ravel(),
        ],
    )
    _write_csv(
        os.path.join(outdir, "crossings.csv"),
        ["bin_center", "count"],
        [hist.bin_centers, hist.counts],
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
        _cap_biased(width, mismatch)
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
        _cap_chain(window.width_steps + 1, f"width_steps {window.width_steps}")
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

    columns = [
        report.positions,
        report.baseline_mean,
        report.treated_mean,
        report.reduction_mean,
        report.baseline_std,
        report.treated_std,
    ]
    _write_csv(os.path.join(outdir, "reduction.csv"), header, columns)
    return summary


def cmd_sweep(args, outdir: str) -> dict:
    cfg = _load_config(args.config)
    widths = _list(cfg, "widths_steps", _as_int)
    confidence = _confidence_from(cfg)
    max_transitions = _max_transitions(cfg)
    _done(cfg, "sweep")
    for w in widths:
        _cap_chain(w + 1, f"widths_steps entry {w}")
    windows = [jitter.WindowSpec(w) for w in widths]
    chains = [jitter.build_isi1_chain(window) for window in windows]

    ns = []
    for window, chain in zip(windows, chains):
        p0 = jitter.start_distribution(chain, window.initial)
        ns.append(markov.transitions_for_confidence(chain, p0, confidence, max_n=max_transitions))
    _write_csv(os.path.join(outdir, "sweep.csv"), ["window_steps", "n_at_confidence"], [widths, ns])
    return {
        "command": "sweep",
        "confidence": confidence,
        "widths_steps": widths,
        "n_at_confidence": ns,
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
    except (ValueError, MemoryError, OverflowError) as e:
        # every parameter the library sees comes from the config or the command
        # line, so a value or a size the library cannot take (an infinity
        # rounded to an integer among them) is a config error
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
