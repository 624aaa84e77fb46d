"""Per-layer metrics: in-memory spans around each orbit_embed module.

Every module binds the functions it imports at import time, so a wrapper
must replace each binding: :func:`install` finds every module attribute that
*is* the original function and rebinds it to one traced wrapper. Spans are
kept in flat lists with parent ids and written out only at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# span name -> (module, function). Suites are named after their config key.
SPANS = {
    "analysis.invariance": ("analysis", "check_invariance"),
    "analysis.separation": ("analysis", "separation_margin"),
    "analysis.lipschitz": ("analysis", "empirical_lipschitz"),
    "analysis.nonparallel": ("analysis", "nonparallel_falsification"),
    "analysis.sup_norm": ("analysis", "sup_norm_check"),
    "analysis.sweep": ("analysis", "lower_lipschitz_sweep"),
    "analysis.prime": ("analysis", "prime_case_report"),
    "embed.embed": ("embed", "embed"),
    "embed.measure": ("embed", "measure"),
    "embed.eval_invariants": ("embed", "eval_invariants"),
    "embed.eval_gradient": ("embed", "eval_gradient"),
    "embed.operator_norm": ("embed", "operator_norm"),
    "embed.make_pipeline": ("embed", "make_pipeline"),
    "embed.make_reducer": ("embed", "make_reducer"),
    "invariants.separating_set": ("invariants", "separating_set"),
    "invariants.pair_exponents": ("invariants", "pair_exponents"),
    "action.act": ("action", "act"),
    "action.orbit": ("action", "orbit"),
    "action.quotient_distance": ("action", "quotient_distance"),
    "action.dft": ("action", "dft"),
    "cli.load_config": ("cli", "load_config"),
    "cli.build_pipeline": ("cli", "build_pipeline"),
    "cli.load_signals": ("cli", "load_signals"),
    "cli.save_signals": ("cli", "save_signals"),
}

# Spans whose wrapped callees run inside them; they also report self time.
PARENT_SPANS = (
    "analysis.invariance", "analysis.separation", "analysis.lipschitz",
    "analysis.nonparallel", "analysis.sup_norm", "analysis.sweep",
    "analysis.prime", "embed.embed", "embed.measure",
    "action.quotient_distance", "cli.build_pipeline", "embed.make_pipeline",
    "invariants.separating_set",
)

# Per-call latency percentiles reported for these spans, in microseconds.
LATENCY_SPANS = ("embed.embed",)

# Per-layer metrics that do not come from one span: useful/attempted ratios
# from the suite reports, the command's file I/O, and the tracing cost.
DERIVED_METRICS = {
    "analysis.embed_calls_per_sample": ("calls/sample", "lower"),
    "analysis.separation.qualifying_ratio": ("ratio", "higher"),
    "analysis.nonparallel.qualifying_ratio": ("ratio", "higher"),
    "analysis.lipschitz.excluded_ratio": ("ratio", "lower"),
    "cli.bytes_read": ("B", "lower"),
    "cli.bytes_written": ("B", "lower"),
    "trace_overhead_ratio": ("ratio", "lower"),
}


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better), in report order."""
    metrics = {}
    for name in SPANS:
        metrics[f"{name}.calls"] = ("count", "lower")
        metrics[f"{name}.s"] = ("s", "lower")
        if name in PARENT_SPANS:
            metrics[f"{name}.self_s"] = ("s", "lower")
        if name in LATENCY_SPANS:
            metrics[f"{name}.p50_us"] = ("us", "lower")
            metrics[f"{name}.p99_us"] = ("us", "lower")
    metrics.update(DERIVED_METRICS)
    return metrics


class Recorder:
    """Flat span store: name, parent id, start and end (ns) per span."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self._stack = [-1]

    def wrap(self, name: str, fn):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return traced

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, and for LATENCY_SPANS
        the p50 and p99 of one call in microseconds."""
        child_ns = [0] * len(self.starts)
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        for parent, dur in zip(self.parents, durations):
            if parent >= 0:
                child_ns[parent] += dur
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in SPANS}
        per_call: dict[str, list[int]] = {name: [] for name in LATENCY_SPANS}
        for name, dur, child in zip(self.names, durations, child_ns):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += dur * 1e-9
            entry["self_s"] += (dur - child) * 1e-9
            if name in per_call:
                per_call[name].append(dur)
        for name, durs in per_call.items():
            out[name]["p50_us"] = percentile(durs, 50) * 1e-3
            out[name]["p99_us"] = percentile(durs, 99) * 1e-3
        return out

    def write(self, path) -> None:
        """Write one JSON line per span: id, parent, name, start and end ns."""
        with open(path, "w") as fh:
            for sid, row in enumerate(zip(self.parents, self.names, self.starts, self.ends)):
                fh.write(json.dumps([sid, *row]) + "\n")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def install(package: str = "orbit_embed") -> Recorder:
    """Wrap every function in SPANS wherever the package binds it.

    A function the package no longer defines is skipped; its span then
    reports zero calls.
    """
    importlib.import_module(f"{package}.cli")
    modules = [module for key, module in list(sys.modules.items())
               if key == package or key.startswith(package + ".")]
    recorder = Recorder()
    for name, (home, attr) in SPANS.items():
        original = getattr(sys.modules.get(f"{package}.{home}"), attr, None)
        if original is None:
            continue
        traced = recorder.wrap(name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
    return recorder
