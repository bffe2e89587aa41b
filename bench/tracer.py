"""Outside-in tracing of mesosettle's layers.

The tracer replaces each traced public function with a wrapper that records
a span, in every namespace that holds the function: its defining module,
the ``mesosettle`` package, and the modules that import it by name
(``reduction`` and ``jitter`` do, and ``sim`` imports ``mismatch_substeps``).
It also wraps ``sim.lfilter``, the binding through which sim calls scipy.
``uninstall`` puts every original back.  Spans stay in memory until the
benchmark writes them out at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import mesosettle
from mesosettle import cli, jitter, markov, reduction, sim

MODULES = {"cli": cli, "markov": markov, "jitter": jitter, "sim": sim, "reduction": reduction}
HOLDERS = (mesosettle, *MODULES.values())


def traced_functions() -> dict[str, object]:
    """Span name -> original function, for every function the tracer wraps.

    ``cli`` contributes only ``main``: it dispatches subcommands through a
    private table, so the job span records the subcommand instead.
    ``loop`` is left out: no subcommand calls it and its cost is O(1).
    """
    out = {"cli.main": cli.main, "sim.lfilter": sim.lfilter}
    for modname, mod in MODULES.items():
        if modname == "cli":
            continue
        for name in mod.__all__:
            fn = getattr(mod, name)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                out[f"{modname}.{name}"] = fn
    return out


def _attrs(name: str, args, result) -> dict | None:
    """Work counts recorded at the layer boundary, from arguments and results."""
    if name == "markov.absorption_series":
        return {"terms": result.n_transitions}
    if name == "markov.absorption_stats":
        return {"states": int(result.mean.size)}
    if name.startswith("jitter.build_") and name.endswith("_chain"):
        return {"states": result.n_states}
    if name == "sim.run_trial":
        config = args[0]
        attrs = {
            "escaped": result.escaped,
            "cycles": result.escape_cycle if result.escaped else config.max_cycles,
        }
        if config.channel.kind == "rc_line":
            attrs["ui_samples"] = config.channel.samples_per_ui * config.channel.sections
        return attrs
    if name == "sim.lfilter":
        return {"samples": len(args[2])}
    return None


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str | None
    attrs: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _job: str | None = None
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def _open(self, name: str) -> Span:
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._job)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, job: str, **attrs):
        """A top-level span for one job; spans opened inside carry its id."""
        self._job = job
        span = self._open(name)
        span.attrs = attrs
        try:
            yield span
        finally:
            self._close(span)
            self._job = None

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            span.attrs = _attrs(name, args, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for name, fn in traced_functions().items():
            wrapper = self._wrap(name, fn)
            for holder in HOLDERS:
                for attr, value in list(vars(holder).items()):
                    if value is fn:
                        self._saved.append((holder, attr, fn))
                        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            holder, attr, fn = self._saved.pop()
            setattr(holder, attr, fn)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# Ratios and percentiles are undefined on a workload that never calls the
# layer they divide by; the run then reports them absent, with the reason.
RATIO_METRICS = {
    "markov.terms_per_s": "no absorption_series calls on this workload",
    "sim.escaped_ratio": "no run_trial calls on this workload",
    "sim.run_trial_p50_s": "no run_trial calls on this workload",
    "sim.run_trial_p99_s": "no run_trial calls on this workload",
    "sim.rc_useful_ratio": "no RC-line trials on this workload",
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer time, self time and work counts from one traced pass.

    Self time is a span's time minus the time its child spans cover.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.seconds

    def named(pred):
        return [(i, s) for i, s in enumerate(spans) if pred(s.name)]

    def total(pred) -> float:
        return sum(s.seconds for _, s in named(pred))

    def self_time(pred) -> float:
        return sum(s.seconds - covered[i] for i, s in named(pred))

    def count(pred, key) -> int:
        return sum(s.attrs[key] for _, s in named(pred) if s.attrs)

    def is_chain_build(n: str) -> bool:
        return n.startswith("jitter.build_") and n.endswith("_chain")

    # a trial that raised has no attrs; its job is already counted as failed
    trials = [s for s in spans if s.name == "sim.run_trial" and s.attrs]
    rc_trial_ids = {
        i for i, s in enumerate(spans) if s.name == "sim.run_trial" and s.attrs and "ui_samples" in s.attrs
    }
    rc_ui = 0.0
    for s in spans:
        if s.name != "sim.lfilter":
            continue
        p = s.parent
        while p is not None and p not in rc_trial_ids:
            p = spans[p].parent
        if p is not None:
            rc_ui += s.attrs["samples"] / spans[p].attrs["ui_samples"]

    out = {
        "cli.self_s": self_time(lambda n: n.startswith("cli.")),
        "markov.absorption_series_s": total(lambda n: n == "markov.absorption_series"),
        "markov.series_terms": count(lambda n: n == "markov.absorption_series", "terms"),
        "markov.absorption_stats_s": total(lambda n: n == "markov.absorption_stats"),
        "markov.stats_states": count(lambda n: n == "markov.absorption_stats", "states"),
        "markov.self_s": self_time(lambda n: n.startswith("markov.")),
        "jitter.build_chain_s": total(is_chain_build),
        "jitter.chain_states": count(is_chain_build, "states"),
        "jitter.position_profile_self_s": self_time(lambda n: n == "jitter.position_profile"),
        "reduction.self_s": self_time(lambda n: n.startswith("reduction.")),
        "sim.run_monte_carlo_s": total(lambda n: n == "sim.run_monte_carlo"),
        "sim.trials": len(trials),
        "sim.cycles": sum(s.attrs["cycles"] for s in trials),
        "sim.lfilter_s": total(lambda n: n == "sim.lfilter"),
        "sim.rc_samples": count(lambda n: n == "sim.lfilter", "samples"),
        "sim.rc_ui_synth": rc_ui,
        "sim.propagate_rc_s": total(lambda n: n == "sim.propagate_rc"),
        "sim.crossing_histogram_s": total(lambda n: n == "sim.crossing_histogram"),
    }
    if out["markov.series_terms"]:
        out["markov.terms_per_s"] = out["markov.series_terms"] / out["markov.absorption_series_s"]
    if trials:
        durations = sorted(s.seconds for s in trials)
        out["sim.escaped_ratio"] = sum(s.attrs["escaped"] for s in trials) / len(trials)
        out["sim.run_trial_p50_s"] = _percentile(durations, 0.50)
        out["sim.run_trial_p99_s"] = _percentile(durations, 0.99)
    if rc_ui:
        rc_cycles = sum(spans[i].attrs["cycles"] for i in rc_trial_ids)
        out["sim.rc_useful_ratio"] = rc_cycles / rc_ui
    return out


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(math.ceil(q * len(sorted_values)), 1) - 1]
