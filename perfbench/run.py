"""Run one benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every rep is a fresh interpreter
(``worker.py``) that imports ``miotcore.cli`` from ``src/`` and runs the
workload's commands through ``miotcore.cli.main``; reps repeat until
``--seconds`` is used up.  The seed makes the inputs: it is the CLI's
``--seed`` and the seed of any trace fixture.

Runs are long, and ``wall_s`` is a mean over reps, because the host's
speed drifts: on the 2-vCPU virtual machine the baseline was recorded
on, one rep of ``stock_walk`` took from 3.0 to 6.9 s, the speed
changing over seconds to minutes, with process CPU time tracking wall
time.  In the baseline's two ten-seed sets per workload the quartile
spread of ``wall_s`` was 0.08-0.14 of its median, and one set's median
was 0.81-1.14 times the other's.

With ``--trace 0`` the end-to-end metrics are, every time in host
seconds:

    setup_s           interpreter start until miotcore.cli is imported;
                      the median over the run's reps and, to at least
                      five samples, set-up-only starts
    wall_s            the workload's command sequence, set-up excluded;
                      the mean over the run's reps
    peak_rss_mb       peak resident memory of a rep's process; the
                      median over the reps
    throughput_per_s  units of work of the workload's main command
                      (requests for simulate, windows for scale) per
                      second of that command, over all the run's reps

With ``--trace 1`` every rep is traced and the metrics are those of
``tracing.PER_LAYER``, each the median over the reps; ``trace_overhead_s``
is measured inside each traced rep (see ``tracing``).

Every command's artifacts are checked; a command that exits non-zero or
fails its check is a failed operation.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record of the run -- every rep, the artifact
sha256 digests, the library versions and the CPU count -- is written to
``.perfbench_out/results/<workload>-seed<N>-trace<T>.json``.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
MIN_REPS = 3           # reps per run, however short --seconds is
MIN_SETUP_SAMPLES = 5  # set-up samples per run, topped up with set-up-only starts
RUN_LIMIT_S = 170.0    # a run must exit within 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
)


class Run:
    """The reps of one benchmark run and the processes that make them."""

    def __init__(self, root, workload, seed, trace):
        self.workload = workload
        self.seed = seed
        self.root = root
        self.dir = os.path.join(root, OUT_DIR, f"{workload.name}-seed{seed}-trace{trace}")
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.started = time.monotonic()

    def spawn(self, mode, traced=False):
        """Run the worker once; returns (result, host seconds to ready or None).

        A worker that fails or times out gives ``{"error": ...}``.
        """
        result_path = os.path.join(self.dir, "result.json")
        if os.path.exists(result_path):
            os.remove(result_path)
        shutil.rmtree(os.path.join(self.dir, "out"), ignore_errors=True)
        argv = [sys.executable, os.path.join(HERE, "worker.py"),
                "--workload", self.workload.name, "--seed", str(self.seed),
                "--mode", mode] + (["--traced"] if traced else [])
        timeout = max(5.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        spawned_at = time.monotonic()
        try:
            proc = subprocess.run(argv, cwd=self.dir, env=self.env, timeout=timeout,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True)
        except subprocess.TimeoutExpired:
            return {"error": f"worker timed out after {timeout:.0f} s"}, None
        if proc.returncode != 0 or not os.path.exists(result_path):
            return {"error": f"worker exit {proc.returncode}: {proc.stderr[-2000:]}"}, None
        with open(result_path) as fh:
            result = json.load(fh)
        return result, result["ready_at"] - spawned_at

    def prepare(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.workload.write_scenario(os.path.join(self.dir, "scenario.yaml"))
        # the first import in a fresh checkout compiles the package; keep
        # that out of the set-up samples
        if not os.path.isdir(os.path.join(self.root, "src", "miotcore", "__pycache__")):
            self.spawn("setup")
        if self.workload.diurnal is not None:
            result, _ = self.spawn("prepare")
            if "error" in result:
                raise RuntimeError(f"fixture: {result['error']}")


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _throughput(workload, reps):
    """Units of work of the main command per host second of it, over ``reps``."""
    units = sum(r["verdicts"][workload.main]["count"] for r in reps)
    seconds = sum(r["command_s"][workload.main] for r in reps)
    return units / seconds if seconds > 0 else 0.0


def measure(run, seconds, traced_run):
    """Make reps until ``seconds`` are used; returns (reps, set-up samples)."""
    deadline = time.monotonic() + seconds
    reps, setups, rep_s = [], [], []
    while True:
        t0 = time.monotonic()
        result, setup_s = run.spawn("rep", traced_run)
        rep_s.append(time.monotonic() - t0)
        reps.append(result)
        # the tracer's imports make a traced rep's set-up no sample
        if setup_s is not None and not traced_run:
            setups.append(setup_s)
        if "error" in result:
            break
        if len(reps) >= MIN_REPS and time.monotonic() + _median(rep_s) > deadline:
            break
    if not traced_run:
        while len(setups) < MIN_SETUP_SAMPLES and "error" not in reps[-1]:
            _, setup_s = run.spawn("setup")
            if setup_s is None:
                break
            setups.append(setup_s)
    return reps, setups


def summarize(workload, reps, setups, traced_run):
    """(record, final line) for the run."""
    n_ops = len(workload.commands)
    attempted = failed = 0
    failures = []
    digests = None
    correct = True
    for rep in reps:
        attempted += n_ops
        if "error" in rep:
            failed += n_ops
            correct = False
            failures.append(rep["error"])
            continue
        bad = [v for v in rep["verdicts"] if not v["ok"]]
        failed += len(bad)
        failures += [f"{v['command']}: {v['why']}" for v in bad] + rep["errors"]
        if digests is None:
            digests = rep["digests"]
        elif rep["digests"] != digests:
            correct = False
            failures.append("artifacts differ between reps of the same seed")
    correct = correct and failed == 0
    good = [r for r in reps if "error" not in r]
    if traced_run:
        from tracing import PER_LAYER

        metrics = {name: {"value": _median([r["layers"][name] for r in good]), "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        values = {
            "setup_s": _median(setups),
            "wall_s": _mean([r["wall_s"] for r in good]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in good]),
            "throughput_per_s": _throughput(workload, good),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    record = {
        "workload": workload.name,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "failures": failures,
        "digests": digests,
        "setup_samples": setups,
        "reps": reps,
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "versions": good[0]["versions"] if good else None,
        },
        **line,
    }
    return record, line


def _print_table(workload, record):
    m = record["metrics"]
    n_reps = len(record["reps"])
    print(f"{workload.name}: {n_reps} reps, {len(record['setup_samples'])} set-up samples, "
          f"{record['failed']}/{record['attempted']} operations failed "
          f"(failed_ratio {record['failed_ratio']:.4f} fraction)")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    for name, value in m.items():
        alias = f" ({workload.throughput_name})" if name == "throughput_per_s" else ""
        print(f"  {name:<22} {value['value']:14.6g} {value['unit']}{alias}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # subprocess.run kills and reaps the running worker on any exception
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "miotcore", "cli.py")):
        print("perfbench: src/miotcore not found; run from the repository root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run = Run(root, workload, args.seed, args.trace)
    run.prepare()
    traced_run = bool(args.trace)
    reps, setups = measure(run, args.seconds, traced_run)
    record, line = summarize(workload, reps, setups, traced_run)

    results = os.path.join(root, OUT_DIR, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as fh:
        json.dump(record, fh, indent=1)
    _print_table(workload, record)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
