"""One rep of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE [--traced]

Run from the run directory, which holds ``scenario.yaml`` (and the
diurnal ``trace.csv``), with the checkout's ``src`` on ``PYTHONPATH``.
Modes:

    rep      import miotcore.cli, run the workload's commands through
             ``miotcore.cli.main``, then check and digest the artifacts
    setup    import miotcore.cli and stop (a set-up time sample)
    prepare  build the workload's trace fixture from the seed

A fresh interpreter per rep keeps the ``criticality_exponent`` cache
and the traffic prefix cache cold, as they are for a user's command.
The worker writes ``result.json`` in the run directory; the time at
which ``miotcore.cli`` finished importing is ``ready_at``, on the
system-wide monotonic clock, so the parent can measure set-up from
before the interpreter started.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

from workloads import WORKLOADS


def _digests(out):
    digests = {}
    size = 0
    for name in sorted(os.listdir(out)) if os.path.isdir(out) else ():
        path = os.path.join(out, name)
        with open(path, "rb") as fh:
            data = fh.read()
        digests[name] = hashlib.sha256(data).hexdigest()
        size += len(data)
    return digests, size


def _versions():
    import platform

    import numpy
    import scipy
    import yaml

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "pyyaml": yaml.__version__}


def _prepare(workload, seed):
    from miotcore.trace import make_diurnal_trace

    d = workload.diurnal
    stream = make_diurnal_trace(d.base_rate_per_s, d.shape, d.window_length_s, seed=seed)
    stream.save_csv("trace.csv")
    return {"trace_rows": len(stream)}


def _run_commands(cli, workload, seed, tracer):
    """Run the commands; returns (seconds, exit codes, seconds per command,
    tracebacks)."""
    codes, command_s, errors = [], [], []
    start = time.perf_counter()
    for i in range(len(workload.commands)):
        argv = workload.argv(i, seed)
        sink = io.StringIO()
        t0 = time.perf_counter()
        span = tracer.begin(f"cli.{workload.command_name(i)}") if tracer else None
        try:
            with contextlib.redirect_stdout(sink):
                code = cli.main(argv)
        except Exception:
            code = None
            errors.append(traceback.format_exc())
        finally:
            if tracer:
                tracer.end(span)
        command_s.append(time.perf_counter() - t0)
        codes.append(code)
    return time.perf_counter() - start, codes, command_s, errors


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("rep", "setup", "prepare"), default="rep")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if args.traced:
        import tracing

        imports = tracing.timed_imports()
    import miotcore.cli as cli
    result = {"ready_at": time.monotonic()}

    if args.mode == "prepare":
        result.update(_prepare(workload, args.seed))
    elif args.mode == "rep":
        tracer = None
        if args.traced:
            tracer = tracing.Tracer()
            result["missing_layers"] = tracing.install(tracer)
        wall_s, codes, command_s, errors = _run_commands(cli, workload, args.seed, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        import checks

        verdicts = checks.check_rep(workload, codes)
        digests, out_bytes = _digests("out")
        result.update(
            wall_s=wall_s,
            command_s=command_s,
            codes=codes,
            errors=errors,
            peak_rss_mb=peak_rss_mb,
            verdicts=verdicts,
            digests=digests,
            bytes_written=out_bytes,
            versions=_versions(),
        )
        if tracer:
            layers = tracing.summarize(tracer, wall_s, out_bytes)
            layers.update(imports)
            result["layers"] = layers
            result["spans"] = tracer.spans
    with open("result.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
