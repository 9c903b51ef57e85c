"""Tests of the benchmark's own output checks and metric lists.

    python3 -m pytest -q perfbench

Each check test runs a shortened workload through the real CLI, shows
that its artifacts pass, then corrupts one artifact and shows that the
run's failed_ratio rises above 0.
"""

import dataclasses
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from miotcore import cli  # noqa: E402


def _run_workload(workload, seed=3):
    workload.write_scenario("scenario.yaml")
    if workload.diurnal is not None:
        from miotcore.trace import make_diurnal_trace

        d = workload.diurnal
        make_diurnal_trace(d.base_rate_per_s, d.shape, d.window_length_s,
                           seed=seed).save_csv("trace.csv")
    return [cli.main(workload.argv(i, seed)) for i in range(len(workload.commands))]


def _failed_ratio(workload, codes):
    """failed_ratio of a one-rep run whose artifacts are in ./out."""
    n = len(workload.commands)
    rep = {"verdicts": checks.check_rep(workload, codes), "errors": [], "digests": {},
           "wall_s": 1.0, "peak_rss_mb": 1.0,
           "command_s": [1.0] * n,
           "versions": {}}
    record, line = run.summarize(workload, [rep], [1.0], traced_run=False)
    assert line["failed"] == round(record["failed_ratio"] * n)
    return record["failed_ratio"]


def _drop_last_line(path):
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(lines[:-1])


@pytest.fixture
def in_tmp(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _short_io_scale():
    """io_scale over a 60 s stream and a four-window trace."""
    full = workloads.IO_SCALE
    diurnal = dataclasses.replace(full.diurnal, shape=(0.2, 1.5, 2.0, 1.7),
                                  window_length_s=2.0)
    commands = full.commands[:3] + (("scale", "--trace", "trace.csv",
                                     "--window-length", "2.0"),)
    return dataclasses.replace(full, horizon_s=60.0, diurnal=diurnal, commands=commands)


def test_truncated_delays_csv_fails_the_single_job_check(in_tmp):
    workload = _short_io_scale()
    codes = _run_workload(workload)
    assert codes == [0, 0, 0, 0]
    assert _failed_ratio(workload, codes) == 0.0
    _drop_last_line(os.path.join("out", "delays.csv"))
    assert _failed_ratio(workload, codes) == 0.25


def test_decision_log_missing_a_row_fails_the_scale_check(in_tmp):
    workload = _short_io_scale()
    codes = _run_workload(workload)
    assert codes == [0, 0, 0, 0]
    assert _failed_ratio(workload, codes) == 0.0
    _drop_last_line(os.path.join("out", "decisions.csv"))
    assert _failed_ratio(workload, codes) == 0.25


def test_nonzero_exit_is_a_failed_operation(in_tmp):
    workload = _short_io_scale()
    codes = _run_workload(workload)
    assert _failed_ratio(workload, codes[:2] + [4] + codes[3:]) > 0.0


def test_traced_self_times_add_up_to_the_traced_wall(in_tmp, monkeypatch):
    workload = dataclasses.replace(_short_io_scale(), commands=workloads.IO_SCALE.commands[:3],
                                   main=2)
    workload.write_scenario("scenario.yaml")
    tracer = tracing.Tracer()
    assert tracing.install(tracer, setattr=monkeypatch.setattr) == []
    wall_s, codes, _, _ = worker._run_commands(cli, workload, 3, tracer)
    assert codes == [0, 0, 0]
    layers = tracing.summarize(tracer, wall_s, 0)
    assert 0.0 <= layers["bench.unattributed_s"] < 0.01 * wall_s
    assert 0.0 < layers["trace_overhead_s"] < 0.01 * wall_s
    own = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert own + layers["trace_overhead_s"] + layers["bench.unattributed_s"] == pytest.approx(
        wall_s)
    assert layers["cli.generate.s"] + layers["cli.validate-arrivals.s"] + layers[
        "cli.simulate.s"] <= wall_s
    n = layers["trace.parse_trace.rows"]
    assert n > 0
    assert layers["simulator.single_job_mode.jobs"] == layers["simulator.save_csv.rows"] == n
    assert layers["arrivals.ks_distance.gaps"] == n - 1


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(
        tracing.PER_LAYER)

