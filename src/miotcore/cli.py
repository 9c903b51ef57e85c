"""Command-line entry point exposing every pipeline stage.

Subcommands:

    generate            synthesize a bearer-request stream from a scenario
    validate-arrivals   empirical inter-arrival CDF vs the exponential law
    simulate            per-message or single-job delay simulation
    predict             analytic delay model summary and percentile
    scale               closed-loop capacity scaling over a trace

Every command is deterministic given (config, seed) and writes its outputs
under one directory.  ``main`` loads the scenario, runs the command, and
once the command's artifacts are written records them in one
``<command>_manifest.json``: the command, the resolved configuration with
the command's own options under ``cli``, the seed, and the produced
files.  A command that exits non-zero writes no manifest.  Exit codes:
0 success, 2 configuration error, 3 I/O error, 4 overload/infeasible.
A warning, such as a load rule's "MME is not the bottleneck", goes to
stderr as one ``warning: <message>`` line, from the workers of
``simulate --jobs`` too.
"""

import argparse
import functools
import json
import math
import os
import sys
import warnings

import numpy as np

from . import __version__
from .arrivals import exponential_cdf, ks_distance, ks_report
from .autoscale import run_scaling_loop, save_decision_log
from .config import load_scenario, scenario_to_dict
from .csvio import write_csv
from .delay import (
    build_delay_model,
    delay_percentile,
    instance_loads,
    save_survival_csv,
)
from .errors import ConfigurationError, OverloadError, TraceFormatError
from .simulator import default_bearer_template, run_bearer_simulation, single_job_mode
from .trace import parse_trace, save_window_report, window_and_fit
from .traffic import generate_requests

OUT_DIR_ENV = "MIOTCORE_OUT_DIR"


def _out_dir(args):
    out = args.out or os.environ.get(OUT_DIR_ENV) or "miotcore_out"
    os.makedirs(out, exist_ok=True)
    return out


def _one_line_warnings():
    """Show every warning as one ``warning: <message>`` line on stderr,
    without the source path and line that Python's default form adds.  The
    line goes out in one write, so pool workers sharing an unbuffered
    stderr cannot split it."""
    warnings.showwarning = lambda message, *_: sys.stderr.write(f"warning: {message}\n")


def _write_manifest(args, scenario, outputs, extra):
    """Write the provenance record of a command next to its outputs."""
    config = scenario_to_dict(scenario)
    if extra:
        config["cli"] = extra
    doc = {
        "command": args.command,
        "config": config,
        "seed": args.seed,
        "artifact_version": __version__,
        "outputs": sorted(os.path.basename(p) for p in outputs),
    }
    path = os.path.join(_out_dir(args), f"{args.command}_manifest.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _replication_stream(scenario, rep_ss):
    """The EventStream of one replication, drawn from its child seed.

    The replication redraws the group offsets and the source randomness
    from its own child of the root seed, so replications are independent.
    """
    off_ss, gen_ss = rep_ss.spawn(2)
    population = scenario.population(np.random.default_rng(off_ss))
    return generate_requests(population, scenario.params, scenario.horizon_s, gen_ss)


def _replication_seeds(args, count=None):
    """The child seeds of the first ``count`` replications, all of
    --replications by default.  Child i does not depend on the count, so
    replication 0 is the same stream in every command."""
    return np.random.SeedSequence(args.seed).spawn(count or args.replications)


def _suffix(i, n):
    return "" if n == 1 else f"_r{i}"


def cmd_generate(args, scenario):
    out = _out_dir(args)
    outputs = []
    for i, rep_ss in enumerate(_replication_seeds(args)):
        stream = _replication_stream(scenario, rep_ss)
        csv_path = os.path.join(out, f"stream{_suffix(i, args.replications)}.csv")
        bin_path = os.path.join(out, f"stream{_suffix(i, args.replications)}.bin")
        stream.save_csv(csv_path)
        stream.save_binary(bin_path)
        outputs += [csv_path, bin_path]
        try:
            rate = stream.mean_rate()
        except ValueError:  # fewer than 2 requests, or all in one slot
            rate = float("nan")
        print(
            f"replication {i}: {len(stream)} requests over {scenario.horizon_s} s "
            f"(empirical rate {rate:.4f} /s, model rate {scenario.lambda_beta():.4f} /s)"
        )
    return outputs, None


def _empirical_cdf(sorted_values, grid):
    return np.searchsorted(sorted_values, grid, side="right") / sorted_values.size


def cmd_validate_arrivals(args, scenario):
    if args.stream:
        stream, report = parse_trace(args.stream)
        print(f"parsed {args.stream}: {report.text()}")
    else:
        stream = _replication_stream(scenario, _replication_seeds(args, 1)[0])
    gaps = stream.gaps()
    gaps.sort()
    if gaps.size < 2:
        error = TraceFormatError if args.stream else ConfigurationError
        raise error(f"the stream has {len(stream)} requests; "
                    "a KS test needs at least 3 (2 gaps)")
    out = _out_dir(args)
    lam = scenario.lambda_beta()
    model_cdf = functools.partial(exponential_cdf, lam)
    grid = np.linspace(0.0, 10.0 / lam, 512)
    curve_path = os.path.join(out, "arrival_cdf.csv")
    write_csv(curve_path, ["tau_s", "empirical_cdf", "model_cdf"],
              grid, _empirical_cdf(gaps, grid), model_cdf(grid))

    lines = [f"n_gaps: {gaps.size}", f"model_rate_per_s: {lam!r}"]
    lines += ks_report(ks_distance(gaps, model_cdf), gaps.size)
    report_path = os.path.join(out, "ks_report.txt")
    with open(report_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return [curve_path, report_path], {"stream": args.stream} if args.stream else None


def _simulate_one(scenario, rep_ss, single_job):
    stream = _replication_stream(scenario, rep_ss)
    if single_job:
        stream.source_ids = None  # the pass reads the times alone
        # refused at the walk's rate, n / horizon, over the routing's shares;
        # single_job_mode runs any load, as scale replays overloaded windows
        if len(stream) >= 2:
            instance_loads(scenario.instance_rates(len(stream) / scenario.horizon_s),
                           scenario.profiles)
        return single_job_mode(stream, scenario.profiles), None
    template = default_bearer_template(scenario.profiles)
    return run_bearer_simulation(
        stream,
        template,
        scenario.profiles,
        horizon_s=scenario.horizon_s,
        n_enb=scenario.n_enb,
        n_sgw=scenario.n_sgw,
    )


def cmd_simulate(args, scenario):
    out = _out_dir(args)
    reps = _replication_seeds(args)
    # a pool starts all its workers at once: no more than there is work
    # for, nor than there are CPUs this process may run on
    workers = min(args.jobs, args.replications, len(os.sched_getaffinity(0)))
    if workers > 1:
        # imported here: it costs every command's start-up ~15 ms
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers, initializer=_one_line_warnings) as pool:
            results = list(
                pool.map(_simulate_one, [scenario] * len(reps), reps,
                         [args.single_job] * len(reps))
            )
    else:
        results = [_simulate_one(scenario, rep, args.single_job) for rep in reps]

    outputs = []
    for i, (samples, report) in enumerate(results):
        tag = _suffix(i, args.replications)
        delays_path = os.path.join(out, f"delays{tag}.csv")
        samples.save_csv(delays_path)
        outputs.append(delays_path)
        if report is not None:
            util_path = os.path.join(out, f"utilization{tag}.txt")
            with open(util_path, "w") as fh:
                fh.write(report.text())
            outputs.append(util_path)
        if len(samples):
            print(
                f"replication {i}: n={len(samples)} "
                f"p50={samples.delay_percentile(0.5):.6f} "
                f"p90={samples.delay_percentile(0.9):.6f} "
                f"p99={samples.delay_percentile(0.99):.6f}"
            )
        else:
            print(f"replication {i}: no requests within the horizon")
    return outputs, {"single_job": bool(args.single_job)}


def cmd_predict(args, scenario):
    out = _out_dir(args)
    lam = scenario.lambda_beta()
    instance_loads(scenario.instance_rates(lam), scenario.profiles)
    model = build_delay_model(lam, scenario.profiles)
    tau_p = delay_percentile(args.percentile, model)
    lines = model.summary().splitlines()
    lines += [
        f"lambda_beta_per_s: {lam!r}",
        f"percentile: {args.percentile!r}",
        f"tau_p_s: {tau_p!r}",
    ]
    model_path = os.path.join(out, "model.txt")
    with open(model_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    hi = delay_percentile(max(args.percentile, 0.9999), model)
    grid = np.linspace(model.K, hi, 512)
    survival_path = os.path.join(out, "survival.csv")
    save_survival_csv(survival_path, model, grid)
    return [model_path, survival_path], {"percentile": args.percentile}


def cmd_scale(args, scenario):
    if not args.trace:
        raise ConfigurationError("--trace PATH is required for the scale command")
    out = _out_dir(args)
    stream, report = parse_trace(args.trace)
    print(f"parsed {args.trace}: {report.text()}")
    windows = window_and_fit(stream, args.window_length)
    records = run_scaling_loop(windows, scenario.profiles, scenario.policy,
                               scenario.instance_rates(1.0))
    windows_path = os.path.join(out, "trace_windows.csv")
    save_window_report(windows_path, windows)
    log_path = os.path.join(out, "decisions.csv")
    save_decision_log(log_path, records)
    target = scenario.policy.target_delay_s
    for rec in records:
        if not rec.decision.feasible:
            mark = "infeasible"  # no multiplier meets the target, whatever the replay
        elif rec.empirical_percentile_s <= target:
            mark = "ok"
        else:
            mark = "OVER TARGET"
        times = (rec.decision.predicted_delay_s, rec.empirical_percentile_s)
        predicted, empirical = (f"{x:.6f}s" if math.isfinite(x) else str(x) for x in times)
        print(
            f"window t={rec.window_start_s:>10.1f}s rate={rec.decision.lambda_beta:9.3f}/s "
            f"multiplier={rec.decision.multiplier:3.1f} "
            f"predicted={predicted} empirical={empirical} [{mark}]"
        )
    return [windows_path, log_path], {"trace": args.trace, "window_length_s": args.window_length}


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="YAML scenario file")
    common.add_argument("--seed", type=int, default=0, metavar="U64",
                        help="root seed (default 0)")
    common.add_argument("--out", metavar="DIR",
                        help=f"output directory (default ${OUT_DIR_ENV} or ./miotcore_out)")
    common.add_argument("--replications", type=int, default=1, metavar="N",
                        help="independent replications (default 1)")
    common.add_argument("--jobs", type=int, default=1, metavar="J",
                        help="parallel workers for replications (default 1)")

    parser = argparse.ArgumentParser(
        prog="miotcore",
        description="Bearer-request traffic, delay analysis, and capacity scaling tools",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[common],
                       help="synthesize a bearer-request stream")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("validate-arrivals", parents=[common],
                       help="inter-arrival CDF vs the exponential law")
    p.add_argument("--stream", metavar="PATH",
                   help="existing stream CSV (default: generate from config)")
    p.set_defaults(func=cmd_validate_arrivals)

    p = sub.add_parser("simulate", parents=[common],
                       help="simulate bearer-instantiation delays")
    p.add_argument("--single-job", action="store_true", dest="single_job",
                   help="single-job mode (one MME job plus constant offset)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("predict", parents=[common],
                       help="analytic delay model and percentile")
    p.add_argument("--percentile", type=float, default=0.99,
                   help="probability for the reported percentile (default 0.99)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("scale", parents=[common],
                       help="closed-loop capacity scaling over a trace")
    p.add_argument("--trace", metavar="PATH", help="request-trace CSV to replay")
    p.add_argument("--window-length", type=float, default=3600.0, metavar="SECONDS",
                   dest="window_length", help="fit window length (default 3600)")
    p.set_defaults(func=cmd_scale)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    # the one-line form holds while a command runs: a library caller that
    # only imports the package keeps Python's
    with warnings.catch_warnings():
        _one_line_warnings()
        try:
            if args.replications < 1 or args.jobs < 1:
                raise ConfigurationError("--replications and --jobs must be at least 1")
            if not args.config:
                raise ConfigurationError("--config PATH is required for this command")
            scenario = load_scenario(args.config)
            outputs, extra = args.func(args, scenario)
            _write_manifest(args, scenario, outputs, extra)
            return 0
        except ConfigurationError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return 2
        except TraceFormatError as exc:
            print(f"input error: {exc}", file=sys.stderr)
            return 3
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return 3
        except OverloadError as exc:
            hint = ""
            if exc.min_capacity_multiplier is not None:
                hint = (
                    f" (minimum feasible capacity multiplier "
                    f"~ {exc.min_capacity_multiplier:.3f})"
                )
            print(f"overload: {exc}{hint}", file=sys.stderr)
            return 4
        except ValueError as exc:
            print(f"invalid parameter: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
