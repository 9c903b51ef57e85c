"""Run every workload over ten seeds, twice, and record the baseline.

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

Run from the repository root.  Each (workload, seed) is one ``run.py``
run of ``run_seconds`` from BENCHMARK.json, one after another: seeds
1-10 of every workload, then the same again as a second set.  For every
end-to-end metric and set the record holds the per-seed values, their
median and quartiles, and the spread: the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) over the median,
to compare with the metric's bound; ``second_over_first`` is the second
set's median over the first's.  One traced run per workload (seed 1)
adds the per-layer medians, and one run on seed 9001, used nowhere else,
shows the checks pass on an unseen seed.  The artifact sha256 digests of
every seed and the machine (CPU count; Python, numpy, scipy versions)
are recorded, so a later change can show byte-identical outputs on the
same seeds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(".perfbench_out", "results")
SEEDS = range(1, 11)
SETS = 2
TRACE_SEED = 1
EXTRA_SEED = 9001


def _run(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(RESULTS, f"{workload}-seed{seed}-trace{trace}.json")) as fh:
        record = json.load(fh)
    return line, record


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of a list of values."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def _ten_seeds(name, seconds, bounds, doc):
    """One set: runs on SEEDS; returns (per-seed entries, summary)."""
    per_seed = {}
    for seed in SEEDS:
        line, record = _run(name, seed, seconds, 0)
        doc.setdefault("machine", record["machine"])
        per_seed[str(seed)] = {
            "correct": line["correct"],
            "attempted": line["attempted"],
            "failed": line["failed"],
            "metrics": {k: v["value"] for k, v in line["metrics"].items()},
            "reps": len(record["reps"]),
            "digests": record["digests"],
        }
        print(f"{name} seed {seed}: correct={line['correct']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in line["metrics"].items()),
              flush=True)
    summary = {}
    for metric, bound in bounds.items():
        med, q1, q3, sp = spread([s["metrics"][metric] for s in per_seed.values()])
        summary[metric] = {"median": med, "q1": q1, "q3": q3, "spread": sp, "bound": bound}
        print(f"  {name} {metric}: median {med:.6g} spread {sp:.4f} "
              f"(bound {bound}, a third {bound / 3:.4f})", flush=True)
    return per_seed, summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join("perfbench", "baseline.json"))
    args = parser.parse_args(argv)

    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    doc = {"run_seconds": seconds, "seeds": list(SEEDS), "workloads": {n: {} for n in names}}
    for _ in range(SETS):
        for name in names:
            per_seed, summary = _ten_seeds(name, seconds, bounds, doc)
            doc["workloads"][name].setdefault("sets", []).append(
                {"seeds": per_seed, "summary": summary})
    for name in names:
        entry = doc["workloads"][name]
        first, last = entry["sets"][0], entry["sets"][-1]
        entry["second_over_first"] = {
            m: last["summary"][m]["median"] / first["summary"][m]["median"] for m in bounds}
        entry["digests_agree"] = all(
            s["seeds"][seed]["digests"] == first["seeds"][seed]["digests"]
            for s in entry["sets"] for seed in first["seeds"])
        print(f"{name}: second set over first "
              + " ".join(f"{m}={r:.4f}" for m, r in entry["second_over_first"].items())
              + f"; digests agree: {entry['digests_agree']}", flush=True)

        line, _ = _run(name, TRACE_SEED, seconds, 1)
        entry["per_layer"] = {"seed": TRACE_SEED, "correct": line["correct"],
                              "metrics": {k: v["value"] for k, v in line["metrics"].items()}}
        print(f"  {name} traced seed {TRACE_SEED}: correct={line['correct']} "
              f"trace_overhead_s={line['metrics']['trace_overhead_s']['value']:.6g}",
              flush=True)
        line, record = _run(name, EXTRA_SEED, seconds, 0)
        entry["extra_seed"] = {"seed": EXTRA_SEED, "correct": line["correct"],
                               "attempted": line["attempted"], "failed": line["failed"],
                               "digests": record["digests"]}
        print(f"  {name} extra seed {EXTRA_SEED}: correct={line['correct']} "
              f"failed={line['failed']}/{line['attempted']}", flush=True)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
