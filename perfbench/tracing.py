"""Spans for the traced run, recorded from outside the package.

``install`` replaces the public names each layer boundary is called
through -- in the namespace of the module that calls them -- with
timing wrappers.  Spans stay in memory (name, start, end, parent, peak
RSS at end, tracer seconds) and are summarized once the workload has
finished.

A layer's self time is its span time minus the time of the spans it
caused and of the tracer's bookkeeping around them.  The CLI command
spans are opened by the worker around ``miotcore.cli.main``, so the self
times of all layers, the CLI's own time and ``trace_overhead_s`` add up
to the traced wall time of the command sequence.

``trace_overhead_s`` is the traced minus the untraced time of a rep,
measured inside the traced rep: the host seconds spent in the tracer's
own code (opening and closing spans, reading peak RSS, the observers)
between the span boundaries.  Differencing a traced rep against an
untraced one cannot resolve it: the tracer adds well under a millisecond
to a rep of several seconds, while consecutive reps on the same host
differ by up to a second.
"""

import functools
import importlib
import resource
import statistics
import time
from collections import defaultdict


def _len_of_result(counter):
    return lambda result, args: {counter: len(result)}


def _len_of_arg(counter):
    return lambda result, args: {counter: len(args[0])}


def _walk(result, args):
    samples, report = result
    return {
        "simulator.hop_completions": len(samples) * args[1].n_hops,
        "simulator.server_instances": len(report.rows),
        "simulator.mme_utilization": report.per_entity()["MME"],
    }


# layer -> (namespaces it is called through, observer of (result, args))
LAYERS = {
    "config.load_scenario": (("miotcore.cli:load_scenario",), None),
    "traffic.generate_requests": (
        ("miotcore.cli:generate_requests",),
        _len_of_result("traffic.generate_requests.requests")),
    "traffic.save_csv": (("miotcore.traffic:EventStream.save_csv",), None),
    "traffic.save_binary": (("miotcore.traffic:EventStream.save_binary",), None),
    "trace.parse_trace": (
        ("miotcore.cli:parse_trace",),
        lambda result, args: {"trace.parse_trace.rows": result[1].n_rows}),
    "trace.window_and_fit": (
        ("miotcore.cli:window_and_fit",),
        _len_of_result("trace.window_and_fit.windows")),
    "trace.save_window_report": (("miotcore.cli:save_window_report",), None),
    "arrivals.ks_distance": (
        ("miotcore.cli:ks_distance", "miotcore.trace:ks_distance"),
        _len_of_arg("arrivals.ks_distance.gaps")),
    "simulator.run_bearer_simulation": (("miotcore.cli:run_bearer_simulation",), _walk),
    "simulator.single_job_mode": (
        ("miotcore.cli:single_job_mode", "miotcore.autoscale:single_job_mode"),
        _len_of_arg("simulator.single_job_mode.jobs")),
    "simulator.save_csv": (
        ("miotcore.simulator:DelaySampleSet.save_csv",),
        _len_of_arg("simulator.save_csv.rows")),
    "delay.build_delay_model": (
        ("miotcore.cli:build_delay_model", "miotcore.autoscale:build_delay_model"), None),
    "delay.save_survival_csv": (("miotcore.cli:save_survival_csv",), None),
    "autoscale.run_scaling_loop": (("miotcore.cli:run_scaling_loop",), None),
    "autoscale.choose_multiplier": (("miotcore.autoscale:choose_multiplier",), None),
    "autoscale.predict_percentile": (("miotcore.autoscale:predict_percentile",), None),
    "autoscale.save_decision_log": (("miotcore.cli:save_decision_log",), None),
}

COMMANDS = ("generate", "validate-arrivals", "simulate", "predict", "scale")
IMPORTS = ("numpy", "scipy_stats", "yaml", "miotcore")
_LATENCY_LAYERS = ("delay.build_delay_model", "autoscale.choose_multiplier")
_RSS_LAYERS = ("trace.parse_trace", "simulator.run_bearer_simulation")


def _per_layer():
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.s", "s", "lower"), (f"{layer}.self_s", "s", "lower"),
                (f"{layer}.calls", "count", "lower")]
    for layer in _LATENCY_LAYERS:
        out += [(f"{layer}.p50_ms", "ms", "lower"), (f"{layer}.max_ms", "ms", "lower")]
    for layer in _RSS_LAYERS:
        out.append((f"{layer}.rss_peak_mb", "MiB", "lower"))
    for cmd in COMMANDS:
        out += [(f"cli.{cmd}.s", "s", "lower"), (f"cli.{cmd}.self_s", "s", "lower")]
    out += [
        ("traffic.generate_requests.requests", "count", "higher"),
        ("trace.parse_trace.rows", "count", "higher"),
        ("trace.window_and_fit.windows", "count", "higher"),
        ("arrivals.ks_distance.gaps", "count", "higher"),
        ("simulator.single_job_mode.jobs", "count", "higher"),
        ("simulator.save_csv.rows", "count", "higher"),
        ("simulator.hop_completions", "count", "higher"),
        ("simulator.hop_completions_per_s", "1/s", "higher"),
        ("simulator.server_instances", "count", "lower"),
        ("simulator.mme_utilization", "fraction", "higher"),
        ("delay.criticality_exponent.hits", "count", "higher"),
        ("delay.criticality_exponent.misses", "count", "lower"),
        ("cli.bytes_written", "bytes", "lower"),
    ]
    out += [(f"import.{name}.s", "s", "lower") for name in IMPORTS]
    out += [
        ("bench.traced_wall_s", "s", "lower"),
        ("bench.unattributed_s", "s", "lower"),
        ("trace_overhead_s", "s", "lower"),
    ]
    return tuple(out)


# every per-layer metric the traced run reports, as (name, unit, better)
PER_LAYER = _per_layer()


def timed_imports():
    """Import the package's heavy dependencies one by one, then the CLI.

    Returns seconds per step; ``miotcore`` is what the package's own
    modules add once numpy, scipy.stats and yaml are loaded.
    """
    out = {}
    t = time.perf_counter()
    for name, module in zip(IMPORTS, ("numpy", "scipy.stats", "yaml", "miotcore.cli")):
        importlib.import_module(module)
        now = time.perf_counter()
        out[f"import.{name}.s"] = now - t
        t = now
    return out


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        # [name, start, end, parent index, maxrss KiB, tracer seconds]
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []

    def begin(self, name):
        entered = time.perf_counter()
        idx = len(self.spans)
        span = [name, 0.0, None, self._stack[-1] if self._stack else -1, 0, 0.0]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        span[5] = span[1] - entered
        return idx

    def end(self, idx):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self._stack.pop()
        span[5] += time.perf_counter() - span[2]

    def wrap(self, layer, fn, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if observe is not None:
                t = time.perf_counter()
                for key, value in observe(result, args).items():
                    self.counts[key] += value
                self.spans[idx][5] += time.perf_counter() - t
            return result
        return traced


def _resolve(target):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def install(tracer, setattr=setattr):
    """Wrap every layer boundary; returns the targets that do not exist.

    ``setattr`` may be swapped for one that undoes itself, as pytest's
    ``monkeypatch.setattr`` does.
    """
    missing = []
    for layer, (targets, observe) in LAYERS.items():
        for target in targets:
            try:
                owner, attr = _resolve(target)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                missing.append(target)
                continue
            setattr(owner, attr, tracer.wrap(layer, fn, observe))
    return missing


def summarize(tracer, traced_wall_s, out_bytes):
    """Per-layer metrics of one traced rep."""
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _, cost in spans:
        if parent >= 0:
            child_s[parent] += end - start + cost
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    durations = defaultdict(list)
    rss = defaultdict(int)
    for i, (name, start, end, _, maxrss, _) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - child_s[i]
        calls[name] += 1
        durations[name].append(end - start)
        rss[name] = max(rss[name], maxrss)
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    for layer in LAYERS:
        out[f"{layer}.s"] = total[layer]
        out[f"{layer}.self_s"] = own[layer]
        out[f"{layer}.calls"] = calls[layer]
    for layer in _LATENCY_LAYERS:
        if durations[layer]:
            out[f"{layer}.p50_ms"] = 1e3 * statistics.median(durations[layer])
            out[f"{layer}.max_ms"] = 1e3 * max(durations[layer])
    for layer in _RSS_LAYERS:
        out[f"{layer}.rss_peak_mb"] = rss[layer] / 1024.0
    for cmd in COMMANDS:
        out[f"cli.{cmd}.s"] = total[f"cli.{cmd}"]
        out[f"cli.{cmd}.self_s"] = own[f"cli.{cmd}"]
    out.update(tracer.counts)
    walk_s = total["simulator.run_bearer_simulation"]
    if walk_s > 0.0:
        out["simulator.hop_completions_per_s"] = out["simulator.hop_completions"] / walk_s
    try:
        from miotcore.delay import criticality_exponent
        info = criticality_exponent.cache_info()
        out["delay.criticality_exponent.hits"] = info.hits
        out["delay.criticality_exponent.misses"] = info.misses
    except (ImportError, AttributeError):
        pass
    out["cli.bytes_written"] = out_bytes
    out["bench.traced_wall_s"] = traced_wall_s
    out["trace_overhead_s"] = sum(span[5] for span in spans)
    out["bench.unattributed_s"] = traced_wall_s - sum(own.values()) - out["trace_overhead_s"]
    return out
