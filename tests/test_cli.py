"""Command-line entry point: artifacts, manifests, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import example, given, strategies as st

from miotcore.cli import OUT_DIR_ENV, _one_line_warnings, main
from miotcore.config import DEFAULT_ENTITY_PROFILES, load_scenario
from miotcore.simulator import message_count
from miotcore.trace import make_diurnal_trace
from miotcore.traffic import EventStream

SMALL_SCENARIO = {
    "traffic": {"period_s": 10.0, "q_total": 200, "n_groups": 10,
                "horizon_s": 50.0},
}
# rho is about 2.3 at the rate of the model and of a generated stream alike
OVERLOADED_SCENARIO = {
    "traffic": {"period_s": 10.0, "q_total": 20_000, "horizon_s": 20.0},
    "entities": {"capacity_scale": 0.5},
}


@pytest.fixture
def cfg(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(SMALL_SCENARIO))
    return str(path)


def run(argv):
    return main(argv)


def test_generate_writes_stream_and_manifest(tmp_path, cfg, capsys):
    out = tmp_path / "gen"
    assert run(["generate", "--config", cfg, "--out", str(out), "--seed", "3"]) == 0
    assert (out / "stream.csv").exists()
    assert (out / "stream.bin").exists()
    manifest = json.loads((out / "generate_manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["seed"] == 3
    assert sorted(manifest["outputs"]) == ["stream.bin", "stream.csv"]
    assert manifest["config"]["traffic"]["q_total"] == 200
    assert "replication 0:" in capsys.readouterr().out
    header = (out / "stream.csv").read_text().splitlines()[0]
    assert header == "timestamp_s,source_id"


def test_generate_prints_nan_for_requests_in_one_slot(tmp_path):
    # both requests of this run fall in the slot at 1.2 s: a span of 0 s has
    # no empirical rate, so it prints nan, and no numpy warning
    config = tmp_path / "one-slot.yaml"
    config.write_text(yaml.safe_dump({"traffic": {
        "period_s": 10.0, "q_total": 2, "n_groups": 1, "slot_delta_s": 0.1,
        "tx_probability": 1.0, "horizon_s": 10.0}}))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "miotcore.cli", "generate", "--config", str(config),
         "--out", str(tmp_path / "out"), "--seed", "1298"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0
    assert done.stderr == ""
    assert done.stdout == ("replication 0: 2 requests over 10.0 s "
                           "(empirical rate nan /s, model rate 0.2000 /s)\n")
    assert (tmp_path / "out" / "stream.csv").read_text().splitlines()[1:] == [
        "1.2000000000000002,0", "1.2000000000000002,1"]


def test_generate_is_deterministic_per_seed(tmp_path, cfg):
    a, b, c = (tmp_path / d for d in ("a", "b", "c"))
    assert run(["generate", "--config", cfg, "--out", str(a), "--seed", "9"]) == 0
    assert run(["generate", "--config", cfg, "--out", str(b), "--seed", "9"]) == 0
    assert run(["generate", "--config", cfg, "--out", str(c), "--seed", "10"]) == 0
    assert (a / "stream.csv").read_bytes() == (b / "stream.csv").read_bytes()
    assert (a / "stream.csv").read_bytes() != (c / "stream.csv").read_bytes()
    assert (a / "generate_manifest.json").read_bytes() == \
        (b / "generate_manifest.json").read_bytes()


def test_generate_replications_and_out_dir_env(tmp_path, cfg, monkeypatch):
    out = tmp_path / "from_env"
    monkeypatch.setenv(OUT_DIR_ENV, str(out))
    assert run(["generate", "--config", cfg, "--replications", "2"]) == 0
    for name in ("stream_r0.csv", "stream_r0.bin", "stream_r1.csv",
                 "stream_r1.bin", "generate_manifest.json"):
        assert (out / name).exists(), name
    # replications draw independent offsets and noise
    assert (out / "stream_r0.csv").read_bytes() != \
        (out / "stream_r1.csv").read_bytes()


def test_validate_arrivals_generated_stream(tmp_path, cfg):
    out = tmp_path / "val"
    assert run(["validate-arrivals", "--config", cfg, "--out", str(out)]) == 0
    report = (out / "ks_report.txt").read_text()
    assert "n_gaps:" in report and "ks_distance:" in report
    lines = (out / "arrival_cdf.csv").read_text().splitlines()
    assert lines[0] == "tau_s,empirical_cdf,model_cdf"
    assert len(lines) == 513
    assert (out / "validate-arrivals_manifest.json").exists()


def test_validate_arrivals_tests_the_first_generated_replication(tmp_path, cfg):
    # one seeding path: replication 0 is the same stream in every command,
    # whatever --replications is
    gen, own, parsed = (tmp_path / d for d in ("gen", "own", "parsed"))
    assert run(["generate", "--config", cfg, "--out", str(gen), "--seed", "3",
                "--replications", "2"]) == 0
    assert run(["validate-arrivals", "--config", cfg, "--out", str(own), "--seed", "3"]) == 0
    assert run(["validate-arrivals", "--config", cfg, "--out", str(parsed),
                "--stream", str(gen / "stream_r0.csv")]) == 0
    for name in ("ks_report.txt", "arrival_cdf.csv"):
        assert (own / name).read_bytes() == (parsed / name).read_bytes()


def test_validate_arrivals_spawns_only_the_seed_it_tests(tmp_path, cfg, monkeypatch):
    # --replications is accepted and ignored: a large value costs no spawn
    spawned = []

    class RecordingSeedSequence(np.random.SeedSequence):
        def spawn(self, n_children):
            spawned.append(n_children)
            return super().spawn(n_children)

    monkeypatch.setattr(np.random, "SeedSequence", RecordingSeedSequence)
    assert run(["validate-arrivals", "--config", cfg, "--out", str(tmp_path / "val"),
                "--seed", "3", "--replications", "200000"]) == 0
    assert spawned[0] == 1


def test_validate_arrivals_rejects_periodic_stream(tmp_path, cfg):
    # 200 equally spaced requests: nothing like the exponential model
    trace = tmp_path / "periodic.csv"
    trace.write_text("timestamp_s\n" + "\n".join(
        repr(0.125 * k) for k in range(200)) + "\n")
    out = tmp_path / "val2"
    assert run(["validate-arrivals", "--config", cfg, "--out", str(out),
                "--stream", str(trace)]) == 0
    report = (out / "ks_report.txt").read_text()
    assert "ks_verdict_01pct: fail" in report
    # 20 gaps are too few for the asymptotic critical value
    short = tmp_path / "short.csv"
    short.write_text("timestamp_s\n" + "\n".join(repr(0.125 * k) for k in range(21)) + "\n")
    assert run(["validate-arrivals", "--config", cfg, "--out", str(out),
                "--stream", str(short)]) == 0
    report = (out / "ks_report.txt").read_text().splitlines()
    assert report[0] == "n_gaps: 20"
    assert report[3] == "low_confidence: fewer than 50 gaps, significance not assessed"


def test_simulate_full_and_single_job(tmp_path, cfg, capsys):
    out = tmp_path / "sim"
    assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "delays.csv").exists()
    assert (out / "utilization.txt").exists()
    assert json.loads((out / "simulate_manifest.json").read_text())[
        "config"]["cli"] == {"single_job": False}
    assert "p99=" in capsys.readouterr().out

    single = tmp_path / "sim_single"
    assert run(["simulate", "--config", cfg, "--out", str(single),
                "--single-job"]) == 0
    assert (single / "delays.csv").exists()
    assert not (single / "utilization.txt").exists()

    lines = (out / "delays.csv").read_text().splitlines()
    assert lines[0] == "request_id,arrival_s,completion_s,delay_s"
    assert len(lines) > 100


def test_simulate_parallel_replications_match_serial(tmp_path, cfg):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    base = ["simulate", "--config", cfg, "--replications", "2", "--seed", "4",
            "--single-job"]
    assert run(base + ["--out", str(serial)]) == 0
    assert run(base + ["--out", str(parallel), "--jobs", "2"]) == 0
    for name in ("delays_r0.csv", "delays_r1.csv", "simulate_manifest.json"):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records its size, starts no process,
    and runs the workers' initializer in this one."""

    sizes = []

    def __init__(self, max_workers, initializer):
        self.sizes.append(max_workers)
        initializer()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_simulate_pool_is_no_larger_than_the_replications(tmp_path, cfg, monkeypatch):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    base = ["simulate", "--config", cfg, "--replications", "2", "--seed", "4"]
    assert run(base + ["--out", str(tmp_path / "serial")]) == 0
    assert _SerialPool.sizes == []
    assert run(base + ["--out", str(tmp_path / "pooled"), "--jobs", "64"]) == 0
    assert _SerialPool.sizes == [2]
    serial = sorted(p.name for p in (tmp_path / "serial").iterdir())
    assert serial == sorted(p.name for p in (tmp_path / "pooled").iterdir())
    for name in serial:
        assert (tmp_path / "serial" / name).read_bytes() == (
            tmp_path / "pooled" / name).read_bytes(), name
    # nor larger than the CPUs the process may run on: --jobs 5000 over
    # 5000 replications would otherwise start 5000 processes at once
    many = ["simulate", "--config", cfg, "--replications", "5", "--seed", "4",
            "--jobs", "5000"]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert run(many + ["--out", str(tmp_path / "three")]) == 0
    assert _SerialPool.sizes == [2, 3]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert run(many + ["--out", str(tmp_path / "one")]) == 0
    assert _SerialPool.sizes == [2, 3]
    for name in sorted(p.name for p in (tmp_path / "three").iterdir()):
        assert (tmp_path / "three" / name).read_bytes() == (
            tmp_path / "one" / name).read_bytes(), name


def test_predict_writes_model_and_survival(tmp_path, cfg):
    out = tmp_path / "pred"
    assert run(["predict", "--config", cfg, "--out", str(out)]) == 0
    model = (out / "model.txt").read_text()
    for token in ("rho:", "gamma_per_s:", "psi:", "tau_p_s:",
                  "lambda_beta_per_s:", "percentile: 0.99"):
        assert token in model
    lines = (out / "survival.csv").read_text().splitlines()
    assert lines[0] == "tau_s,survival"
    assert len(lines) == 513
    assert (out / "predict_manifest.json").exists()


def test_scale_replays_trace(tmp_path, cfg, capsys):
    stream = make_diurnal_trace(5.0, shape=(0.5, 1.0), window_length_s=100.0,
                                seed=2)
    trace = tmp_path / "trace.csv"
    stream.save_csv(trace)
    out = tmp_path / "scale"
    assert run(["scale", "--config", cfg, "--out", str(out),
                "--trace", str(trace), "--window-length", "100"]) == 0
    decisions = (out / "decisions.csv").read_text().splitlines()
    assert decisions[0] == ("window_start_s,lambda_hat,multiplier,predicted_p,"
                            "empirical_p,feasible")
    assert len(decisions) == 3  # two fitted windows
    windows = (out / "trace_windows.csv").read_text().splitlines()
    assert windows[0].startswith("window_start_s,")
    printed = capsys.readouterr().out
    assert "multiplier=1.0" in printed and "[ok]" in printed


# one group of 10^4 sources, all at one offset, behind 2 eNBs: each
# period's requests arrive in one Beta(3, 4)-shaped wave
ONE_GROUP_SCENARIO = {
    "traffic": {"period_s": 10.0, "q_total": 10_000, "n_groups": 1, "horizon_s": 40.0},
    "topology": {"n_enb": 2}}


def test_scale_sees_the_trace_cluster(tmp_path, capsys):
    # each 10 s window fits about 632 /s, where the model predicts a p99 of
    # about 13 ms at multiplier 1; the window's own requests come in one
    # wave and take several times the 0.1 s target.  A Poisson replay at the
    # fitted rate would read about 12.5 ms [ok] in every window
    config = tmp_path / "one_group.yaml"
    config.write_text(yaml.safe_dump(ONE_GROUP_SCENARIO))
    assert run(["generate", "--config", str(config), "--seed", "1",
                "--out", str(tmp_path / "gen")]) == 0
    out = tmp_path / "scale"
    assert run(["scale", "--config", str(config), "--out", str(out), "--window-length", "10",
                "--trace", str(tmp_path / "gen" / "stream.csv")]) == 0
    rows = [row.split(",") for row in (out / "decisions.csv").read_text().splitlines()[1:]]
    assert len(rows) == 4
    for row in rows:
        assert (row[2], row[5]) == ("1.0", "1")
        assert float(row[3]) < 0.1 < float(row[4])
    printed = capsys.readouterr().out.splitlines()[2:]
    assert len(printed) == 4 and all(line.endswith("[OVER TARGET]") for line in printed)


def test_scale_refuses_a_trace_with_no_fitted_window(tmp_path, cfg, capsys):
    # one request, and two at one instant: no window has a rate to price
    for i, times in enumerate(([3.0], [3.0, 3.0])):
        trace = tmp_path / f"trace{i}.csv"
        EventStream(np.array(times)).save_csv(trace)
        out = tmp_path / f"scale{i}"
        capsys.readouterr()
        assert run(["scale", "--config", cfg, "--out", str(out), "--trace", str(trace),
                    "--window-length", "100"]) == 2
        err = capsys.readouterr().err
        assert err == ("configuration error: trace yields no windows with a fitted rate; "
                       "nothing to replay\n")
        assert not (out / "trace_windows.csv").exists()
        assert not (out / "decisions.csv").exists()


# the stock scenario with the SGW at capacity 2000, 1.5 ms a bearer, scaling
# the MME alone: past about 667 /s the SGW overloads at every multiplier
SGW_SCENARIO = {
    "traffic": {"period_s": 10.0, "q_total": 10_000, "horizon_s": 200.0},
    "entities": {"profiles": [
        {"entity": p.entity, "ops_per_bearer": p.ops_per_bearer,
         "capacity": 2000.0 if p.entity == "SGW" else p.capacity}
        for p in DEFAULT_ENTITY_PROFILES.values()]},
    "scaling": {"scope": "mme", "target_delay_s": 0.1}}


def test_scale_prices_every_entity_as_predict_does(tmp_path, capsys):
    # the windows at t = 40-70 s fit 954, 1258, 1069 and 772 /s, which load
    # the SGW to 1.43-1.89: predict exits 4 at such a rate, and the
    # controller calls every multiplier infeasible there; the MME-only
    # replay cannot see it and meets the target, yet each such window
    # reads [infeasible], not [ok]
    config = tmp_path / "sgw.yaml"
    config.write_text(yaml.safe_dump(SGW_SCENARIO))
    trace = tmp_path / "trace.csv"
    make_diurnal_trace(632.0, window_length_s=10.0, seed=1).save_csv(trace)
    out = tmp_path / "scale"
    assert run(["scale", "--config", str(config), "--out", str(out), "--trace", str(trace),
                "--window-length", "10"]) == 0
    rows = [row.split(",") for row in (out / "decisions.csv").read_text().splitlines()[1:]]
    assert [(r[0], r[2], r[3], r[5]) for r in rows[4:]] == [
        (t, "2.5", "inf", "0") for t in ("40.0", "50.0", "60.0", "70.0")]
    assert [r[5] for r in rows[:4]] == ["1"] * 4
    printed, err = capsys.readouterr()
    assert printed.splitlines()[1:] == [
        "window t=       0.0s rate=  124.449/s multiplier=1.0 predicted=0.008871s "
        "empirical=0.008955s [ok]",
        "window t=      10.0s rate=  229.082/s multiplier=1.0 predicted=0.009513s "
        "empirical=0.009265s [ok]",
        "window t=      20.0s rate=  372.330/s multiplier=1.0 predicted=0.010585s "
        "empirical=0.011414s [ok]",
        "window t=      30.0s rate=  641.320/s multiplier=1.0 predicted=0.014194s "
        "empirical=0.015319s [ok]",
        "window t=      40.0s rate=  954.323/s multiplier=2.5 predicted=inf "
        "empirical=0.008172s [infeasible]",
        "window t=      50.0s rate= 1257.632/s multiplier=2.5 predicted=inf "
        "empirical=0.008977s [infeasible]",
        "window t=      60.0s rate= 1068.802/s multiplier=2.5 predicted=inf "
        "empirical=0.008328s [infeasible]",
        "window t=      70.0s rate=  771.936/s multiplier=2.5 predicted=inf "
        "empirical=0.008102s [infeasible]"]
    # the SGW tops the MME at every window and multiplier priced: one line
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning: MME is not the bottleneck: SGW")
    config.write_text(yaml.safe_dump({**SGW_SCENARIO, "traffic": {
        "period_s": 10.0, "q_total": 15_100, "horizon_s": 200.0}}))
    assert run(["predict", "--config", str(config), "--out", str(tmp_path / "p")]) == 4
    assert capsys.readouterr().err.startswith("overload: SGW overloaded: rho=1.43")


@pytest.mark.parametrize("last_s", ["1e308", "150.0"])
def test_scale_refuses_a_trace_span_of_too_many_windows(tmp_path, cfg, capsys, last_s):
    # in 1 ms windows, 1e308 s is an infinite window count and 150 s is
    # 149,001 windows, past trace.MAX_WINDOWS: exit 2 before any is built,
    # though the first window has a rate to replay
    trace = tmp_path / "span.csv"
    trace.write_text(f"timestamp_s\n1.0\n1.0005\n{last_s}\n")
    out = tmp_path / "scale"
    assert run(["scale", "--config", cfg, "--out", str(out), "--trace", str(trace),
                "--window-length", "1e-3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "windows" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (out / "trace_windows.csv").exists()
    assert not (out / "decisions.csv").exists()


@pytest.mark.parametrize("field, value", [("horizon_s", 1e9), ("q_total", 10**9),
                                          ("regular_rate_epsilon", 1e4)])
def test_generate_refuses_too_many_expected_requests(tmp_path, capsys, field, value):
    # a 1e9 s horizon used to run until killed, and 10^9 sources to exit 1
    # with a traceback from allocating their state: each exits 2 before any
    # draw or allocation
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump({"traffic": {**SMALL_SCENARIO["traffic"], field: value}}))
    out = tmp_path / "gen"
    assert run(["generate", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: traffic:") and "requests, need <=" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (out / "stream.csv").exists()


def test_generate_refuses_too_many_alarm_draws(tmp_path, capsys, monkeypatch):
    # one request expected per period, but 10^9 sources to hold and draw
    # for; should the bound let it through, fail before generating
    def no_generation(*args):
        raise AssertionError("generation started")

    monkeypatch.setattr("miotcore.cli.generate_requests", no_generation)
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(
        {"traffic": {"period_s": 10.0, "q_total": 10**9, "tx_probability": 1e-9}}))
    out = tmp_path / "gen"
    assert run(["generate", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: traffic:") and "alarm draws, need <=" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [("period_s", math.inf), ("offsets_s", [1.0, math.nan])],
                         ids=["period_s", "offsets_s"])
def test_non_finite_config_float_exits_2(tmp_path, capsys, field, value):
    # an infinite period used to exit 1 (OverflowError), a NaN offset to run as phase 0
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(
        {"traffic": {**SMALL_SCENARIO["traffic"], "n_groups": 2, field: value}}))
    out = tmp_path / "gen"
    assert run(["generate", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: traffic.{field}: expected a finite number")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("option, message", [
    ("--percentile", "p must be in (0, 1)"),
    ("--window-length", "window_length_s must be positive and finite"),
], ids=["percentile", "window-length"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_float_option_exits_2(tmp_path, cfg, capsys, option, message, value):
    # an infinite window length used to fail only through TraceWindow,
    # whose start and end were both 0 * inf = nan
    trace = tmp_path / "trace.csv"
    EventStream(0.5 * np.arange(1, 200)).save_csv(trace)
    command = ["predict"] if option == "--percentile" else ["scale", "--trace", str(trace)]
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(command + ["--config", cfg, "--out", str(out), option, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid parameter: {message}")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not list(out.iterdir())


@pytest.mark.parametrize("n_rows", [1, 2])
def test_validate_arrivals_refuses_a_stream_of_fewer_than_2_gaps(
        tmp_path, cfg, capsys, n_rows):
    # a KS test of one gap or none used to exit 0 with nan in every
    # empirical_cdf row, or ks_distance: nan
    trace = tmp_path / "short.csv"
    EventStream(0.5 * np.arange(1, n_rows + 1)).save_csv(trace)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(["validate-arrivals", "--config", cfg, "--out", str(out),
                "--stream", str(trace)]) == 3
    err = capsys.readouterr().err
    assert err == (f"input error: the stream has {n_rows} requests; "
                   "a KS test needs at least 3 (2 gaps)\n")
    assert not out.exists()


def test_validate_arrivals_refuses_a_generated_stream_of_fewer_than_2_gaps(
        tmp_path, capsys):
    path = tmp_path / "one_source.yaml"
    path.write_text(yaml.safe_dump(
        {"traffic": {"period_s": 10.0, "q_total": 1, "n_groups": 1, "horizon_s": 10.0}}))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(["validate-arrivals", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: the stream has ")
    assert err.count("\n") == 1 and "Warning" not in err
    assert not out.exists()


def test_source_id_outside_int64_is_a_malformed_row(tmp_path, cfg, capsys):
    trace = tmp_path / "ids.csv"
    trace.write_text("timestamp_s,source_id\n1.0,99999999999999999999\n" + "".join(
        f"{0.5 * k!r},{k}\n" for k in range(1, 200)))
    for argv in (["validate-arrivals", "--stream", str(trace)],
                 ["scale", "--trace", str(trace), "--window-length", "100"]):
        assert run(argv + ["--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert "valid=199 malformed_rejected=1" in capsys.readouterr().out


# 10^4 sources at a regular rate of 0.05 /s add 500 /s to the alarms'
# 632.1 /s: the MME's load is 1.02 over the model and the stream alike
REGULAR_STREAM_SCENARIO = {"traffic": {"period_s": 10.0, "q_total": 10_000,
                                       "horizon_s": 20.0, "regular_rate_epsilon": 0.05}}


def test_predict_prices_the_regular_stream(tmp_path, capsys):
    config = tmp_path / "regular.yaml"
    config.write_text(yaml.safe_dump(REGULAR_STREAM_SCENARIO))
    errors = []
    for argv in (["predict"], ["simulate", "--single-job"]):
        assert run(argv + ["--config", str(config), "--seed", "1",
                           "--out", str(tmp_path / "out")]) == 4
        errors.append(capsys.readouterr().err)
    assert errors[0].startswith("overload: MME overloaded: rho=1.01891 >= 1 at rate=1132.12")
    assert errors[1].startswith("overload: MME overloaded: rho=1.02091 >= 1 at rate=1134.35")


def test_exit_codes(tmp_path, cfg, capsys):
    # 2: missing or invalid configuration
    assert run(["generate"]) == 2
    bad_cfg = tmp_path / "bad.yaml"
    bad_cfg.write_text(yaml.safe_dump({"traffic": {"period_s": 10.0}}))
    assert run(["generate", "--config", str(bad_cfg)]) == 2
    assert run(["scale", "--config", cfg]) == 2  # --trace required
    # counts below 1 are refused before any output is written
    for flag, value in (("--replications", "0"), ("--replications", "-1"),
                        ("--jobs", "0")):
        out = tmp_path / f"counts{flag}{value}"
        assert run(["generate", "--config", cfg, flag, value, "--out", str(out)]) == 2
        assert not out.exists()
    # 3: unreadable input data
    assert run(["validate-arrivals", "--config", cfg,
                "--stream", str(tmp_path / "ghost.csv")]) == 3
    # 4: infeasible scenario, with a capacity hint on stderr; one rule,
    # delay.instance_loads, refuses it for the model, the walk and the
    # single-job pass alike, so neither simulation runs a queue that grows
    # without bound
    over_cfg = tmp_path / "over.yaml"
    over_cfg.write_text(yaml.safe_dump(OVERLOADED_SCENARIO))
    capsys.readouterr()
    codes, errors = {}, {}
    for argv in (["predict"], ["simulate"], ["simulate", "--single-job"]):
        label = " ".join(argv)
        codes[label] = run(argv + ["--config", str(over_cfg), "--out", str(tmp_path / "o")])
        errors[label] = capsys.readouterr().err
    assert codes == {"predict": 4, "simulate": 4, "simulate --single-job": 4}
    for label, err in errors.items():
        assert err.startswith("overload: MME overloaded: rho="), label
        assert "minimum feasible capacity multiplier" in err, label


# rho is 0.57 on the stock MME, 0.76 with 3 encryption operations per
# bearer and 1.08 with 8
ENCRYPTED_TRAFFIC = {"period_s": 10.0, "q_total": 10_000, "horizon_s": 20.0}


def test_every_command_reads_one_mme(tmp_path, capsys):
    # encryption_ops is MME work in the profile every command reads, so the
    # walk, the single-job pass and the model refuse the same scenarios
    labels = {"simulate": ["simulate"], "simulate --single-job": ["simulate", "--single-job"],
              "predict": ["predict"]}
    for ops, expected in ((8.0, 4), (3.0, 0)):
        config = tmp_path / f"encrypted-{ops}.yaml"
        config.write_text(yaml.safe_dump(
            {"traffic": ENCRYPTED_TRAFFIC, "topology": {"encryption_ops": ops}}))
        codes, errors = {}, {}
        for label, argv in labels.items():
            out = tmp_path / f"{label}-{ops}"
            codes[label] = run(argv + ["--config", str(config), "--out", str(out)])
            errors[label] = capsys.readouterr().err
        assert codes == dict.fromkeys(labels, expected), ops
        for label, err in errors.items():
            assert err.startswith("overload: MME overloaded: rho=") == (expected == 4), label
    assert (tmp_path / "predict-3.0" / "model.txt").read_text().startswith("D_s: 0.0012\n")


# one group of 10^4 sources behind one eNB, the default of one per group:
# that eNB carries every request, at 632 /s x 2 ms = 1.26, while the MME is
# at 0.57
ONE_GROUP_TRAFFIC = {"period_s": 10.0, "q_total": 10_000, "n_groups": 1, "horizon_s": 20.0}


def test_every_command_refuses_an_overloaded_enb(tmp_path, capsys):
    # the load rule reads every entity's busiest server instance, not only
    # the MME: the walk from its routed counts, predict and the single-job
    # pass from the routing's even shares
    labels = {"simulate": ["simulate"], "simulate --single-job": ["simulate", "--single-job"],
              "predict": ["predict"]}
    config = tmp_path / "one-enb.yaml"
    config.write_text(yaml.safe_dump({"traffic": ONE_GROUP_TRAFFIC}))
    errors = {}
    for label, argv in labels.items():
        assert run(argv + ["--config", str(config), "--out", str(tmp_path / "o")]) == 4, label
        errors[label] = capsys.readouterr().err
        assert errors[label].startswith("overload: eNB overloaded: rho="), label
    # predict refuses the eNB's load at the model's rate, lambda_beta x 2 ms
    rho = load_scenario(str(config)).lambda_beta() * 0.002
    assert errors["predict"].startswith(f"overload: eNB overloaded: rho={rho:.6g} >= 1")
    assert f"capacity multiplier ~ {rho:.3f})" in errors["predict"]
    # the traffic itself is valid
    for argv in (["generate"], ["validate-arrivals"]):
        assert run(argv + ["--config", str(config), "--out", str(tmp_path / "g")]) == 0, argv
    # two eNBs at 0.63 each run, past the MME's 0.57
    config.write_text(yaml.safe_dump({"traffic": ONE_GROUP_TRAFFIC, "topology": {"n_enb": 2}}))
    for label, argv in labels.items():
        code = run(argv + ["--config", str(config), "--out", str(tmp_path / label)])
        assert code == 0, label
        assert capsys.readouterr().err.startswith("warning: MME is not the bottleneck: eNB"), label


def test_scale_sizes_the_busiest_enb(tmp_path, capsys):
    # one group of 10^4 sources behind its one default eNB: at multiplier 1
    # that eNB runs at 1.28, so the controller picks 2.0 in every window
    config = tmp_path / "one-enb.yaml"
    config.write_text(yaml.safe_dump({"traffic": ONE_GROUP_TRAFFIC, "scaling": {"scope": "all"}}))
    trace = tmp_path / "trace.csv"
    make_diurnal_trace(632.0, shape=(1.0, 1.0), window_length_s=10.0, seed=3).save_csv(trace)
    out = tmp_path / "scale"
    assert run(["scale", "--config", str(config), "--out", str(out), "--trace", str(trace),
                "--window-length", "10"]) == 0
    rows = [row.split(",") for row in (out / "decisions.csv").read_text().splitlines()[1:]]
    assert [(r[2], r[5]) for r in rows] == [("2.0", "1")] * 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: MME is not the bottleneck: eNB")


@pytest.mark.parametrize("argv", [
    ["predict"], ["simulate", "--single-job"], ["simulate"],
    ["simulate", "--jobs", "2", "--replications", "2"],
], ids=["predict", "simulate-single-job", "simulate", "simulate-jobs-2"])
def test_a_command_warns_in_one_line(tmp_path, argv):
    # one group behind its one eNB loads that eNB past the MME, at 0.025
    # against 0.011: each command prints the warning as one line, with no
    # source path or source line, from the pool's workers too
    config = tmp_path / "one-enb.yaml"
    config.write_text(yaml.safe_dump({"traffic": {"period_s": 10.0, "q_total": 200,
                                                  "n_groups": 1, "horizon_s": 20.0}}))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "miotcore.cli", *argv, "--config", str(config),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stderr.splitlines()
    assert lines, argv
    for line in lines:
        assert line.startswith("warning: MME is not the bottleneck: eNB has the largest "
                               "per-instance load, "), line


def test_a_warning_goes_to_stderr_in_one_write(monkeypatch):
    # pool workers share one unbuffered stderr, where a line written in two
    # calls, text then newline, can interleave with another worker's line
    writes = []
    monkeypatch.setattr(sys, "stderr", SimpleNamespace(write=writes.append))
    with warnings.catch_warnings():
        _one_line_warnings()
        warnings.simplefilter("always")
        warnings.warn("A")
        warnings.warn("B")
    assert writes == ["warning: A\n", "warning: B\n"]


def test_every_command_refuses_a_message_count_other_than_the_stock_one(tmp_path, capsys):
    rows = [{"entity": p.entity, "ops_per_bearer": p.ops_per_bearer, "capacity": p.capacity}
            for p in DEFAULT_ENTITY_PROFILES.values()]
    rows[0]["messages_per_bearer"] = 2
    config = tmp_path / "scenario.yaml"
    config.write_text(yaml.safe_dump({**SMALL_SCENARIO, "entities": {"profiles": rows}}))
    trace = _trace_file(tmp_path)
    for argv in (["generate"], ["validate-arrivals"], ["simulate"], ["simulate", "--single-job"],
                 ["predict"], ["scale", "--trace", trace, "--window-length", "100"]):
        assert run(argv + ["--config", str(config), "--out", str(tmp_path / "out")]) == 2, argv
        assert capsys.readouterr().err == (
            "configuration error: entities.profiles[0].messages_per_bearer: "
            "expected 3 at UE, got 2\n"), argv
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("latency, expected", [(1e-3, 2), (0.0, 0)])
def test_every_command_refuses_a_link_latency_other_than_0(tmp_path, capsys, latency, expected):
    # no command models link delay: a nonzero latency used to reach the walk
    # alone, which added 18 link crossings that predict and scale left out
    config = tmp_path / "scenario.yaml"
    config.write_text(yaml.safe_dump({**SMALL_SCENARIO, "topology": {"link_latency_s": latency}}))
    trace = _trace_file(tmp_path)
    for i, argv in enumerate((["generate"], ["validate-arrivals"], ["simulate"],
                              ["simulate", "--single-job"], ["predict"],
                              ["scale", "--trace", trace, "--window-length", "100"])):
        code = run(argv + ["--config", str(config), "--out", str(tmp_path / f"out-{i}")])
        err = capsys.readouterr().err
        assert code == expected, (argv, err)
        assert ("topology.link_latency_s" in err) == (expected == 2), argv


def test_every_command_refuses_an_offset_outside_the_period(tmp_path, capsys):
    # predict used to run on these offsets, and the other commands refused
    # them only when drawing the stream, without naming the key
    config = tmp_path / "scenario.yaml"
    config.write_text(yaml.safe_dump({"traffic": {
        "period_s": 10.0, "q_total": 10_000, "n_groups": 2, "horizon_s": 20.0,
        "offsets_s": [15.0, -1.0]}}))
    trace = _trace_file(tmp_path)
    for argv in (["generate"], ["validate-arrivals"], ["simulate"], ["simulate", "--single-job"],
                 ["predict"], ["scale", "--trace", trace, "--window-length", "100"]):
        assert run(argv + ["--config", str(config), "--out", str(tmp_path / "out")]) == 2, argv
        assert capsys.readouterr().err == (
            "configuration error: traffic.offsets_s: each offset must lie in "
            "[0, period_s=10.0), got 15.0\n"), argv
    assert not (tmp_path / "out").exists()


def test_every_command_refuses_a_horizon_shorter_than_the_period(tmp_path, capsys):
    # the generator needs one period; every command, predict included,
    # refuses a shorter horizon when it loads the scenario, and names the key
    config = tmp_path / "scenario.yaml"
    config.write_text(yaml.safe_dump({"traffic": {
        "period_s": 10.0, "q_total": 200, "n_groups": 10, "horizon_s": 5.0}}))
    trace = _trace_file(tmp_path)
    for argv in (["generate"], ["validate-arrivals"], ["simulate"], ["simulate", "--single-job"],
                 ["predict"], ["scale", "--trace", trace, "--window-length", "100"]):
        assert run(argv + ["--config", str(config), "--out", str(tmp_path / "out")]) == 2, argv
        assert capsys.readouterr().err == (
            "configuration error: traffic.horizon_s: must be at least "
            "period_s=10.0, got 5.0\n"), argv
    assert not (tmp_path / "out").exists()


def test_omitted_message_counts_are_the_stock_ones(tmp_path, monkeypatch):
    # six rows without messages_per_bearer run the default template, with
    # the bytes of the same rows that write the counts out
    monkeypatch.chdir(tmp_path)
    omitted = [{"entity": p.entity, "ops_per_bearer": p.ops_per_bearer, "capacity": p.capacity}
               for p in DEFAULT_ENTITY_PROFILES.values()]
    written = [{**row, "messages_per_bearer": message_count(row["entity"])} for row in omitted]
    digests = []
    for label, rows in (("written", written), ("omitted", omitted)):
        Path(f"{label}.yaml").write_text(yaml.safe_dump(
            {**SMALL_SCENARIO, "entities": {"profiles": rows}}))
        assert run(["simulate", "--config", f"{label}.yaml", "--out", label]) == 0
        digests.append({path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                        for path in Path(label).iterdir()})
    assert sorted(digests[0]) == ["delays.csv", "simulate_manifest.json", "utilization.txt"]
    assert digests[0] == digests[1]


def test_cli_start_up_loads_no_scipy(tmp_path, cfg):
    # scipy's import costs more than a whole predict and no command needs
    # it; the process pool is only for --jobs > 1
    script = textwrap.dedent("""
        import sys

        def heavy_modules():
            return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")
                    or m == "concurrent.futures.process"]

        from miotcore.cli import main
        assert not heavy_modules(), heavy_modules()[:3]
        cfg, out = sys.argv[1:]
        assert main(["validate-arrivals", "--config", cfg, "--out", out]) == 0
        assert main(["predict", "--config", cfg, "--out", out]) == 0
        assert not heavy_modules(), heavy_modules()[:3]
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", script, cfg, str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "ks_report.txt").exists()
    assert (tmp_path / "out" / "model.txt").exists()


def _trace_file(tmp_path):
    trace = tmp_path / "trace.csv"
    make_diurnal_trace(5.0, shape=(0.5, 1.0), window_length_s=100.0, seed=2).save_csv(trace)
    return str(trace)


@pytest.mark.parametrize("argv", [
    ["generate"], ["validate-arrivals"], ["validate-arrivals", "--stream", "TRACE"],
    ["simulate"], ["simulate", "--single-job"], ["predict"],
    ["scale", "--trace", "TRACE", "--window-length", "100"],
], ids=["generate", "validate-arrivals", "validate-arrivals-stream", "simulate",
        "simulate-single-job", "predict", "scale"])
def test_no_command_imports_numpy_ma(tmp_path, cfg, argv):
    # numpy.ma costs 0.6 MiB resident and 12-16 ms; np.unique without
    # return_inverse imports it, and so does np.quantile through np.unique
    script = textwrap.dedent("""
        import sys
        from miotcore.cli import main
        assert main(sys.argv[1:]) == 0
        assert "numpy.ma" not in sys.modules
    """)
    trace = _trace_file(tmp_path)
    argv = [trace if a == "TRACE" else a for a in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script, *argv, "--config", cfg, "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("names", [
    ["eNB"],
    ["UE", "eNB", "MME", "HSS", "SGW"],
    ["UE", "eNB", "MME", "HSS", "SGW", "PGW", "MME"],
    ["UE", "eNB", "MME", "HSS", "SGW", "PGW", "AMF"],
], ids=["eNB-only", "no-PGW", "MME-twice", "unknown-AMF"])
def test_every_command_refuses_a_profile_list_that_is_not_the_six_entities(
        tmp_path, capsys, names):
    # each command used to read the list its own way: generate and
    # validate-arrivals ran, predict counted an unknown entity in K
    stock = DEFAULT_ENTITY_PROFILES
    doc = {**SMALL_SCENARIO, "entities": {"profiles": [
        {"entity": name, "ops_per_bearer": 1.0, "capacity": 1e4,
         "messages_per_bearer": message_count(name) if name in stock else 1}
        for name in names]}}
    config = tmp_path / "scenario.yaml"
    config.write_text(yaml.safe_dump(doc))
    trace = _trace_file(tmp_path)
    for argv in (["generate"], ["validate-arrivals"], ["simulate"], ["predict"],
                 ["scale", "--trace", trace, "--window-length", "100"]):
        code = run(argv + ["--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2, argv
        assert "entities.profiles: need one profile for each of" in capsys.readouterr().err
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


# Golden artifacts: the stock profiles in the stock order, and the same rows
# listed in reverse with every capacity doubled and the controller scaling
# the MME alone, whose target takes it to 1.5 on the busiest window and,
# through the hysteresis, keeps it there on the next.
_REVERSED_ROWS = [
    {"entity": "PGW", "ops_per_bearer": 1.0, "capacity": 10000.0, "messages_per_bearer": 1},
    {"entity": "SGW", "ops_per_bearer": 3.0, "capacity": 10000.0, "messages_per_bearer": 3},
    {"entity": "HSS", "ops_per_bearer": 1.0, "capacity": 10000.0, "messages_per_bearer": 1},
    {"entity": "MME", "ops_per_bearer": 9.0, "capacity": 10000.0, "messages_per_bearer": 9},
    {"entity": "eNB", "ops_per_bearer": 2.0, "capacity": 1000.0, "messages_per_bearer": 2},
    {"entity": "UE", "ops_per_bearer": 3.0, "capacity": 1000.0, "messages_per_bearer": 3},
]
GOLDEN_SCENARIOS = {
    "stock-order": SMALL_SCENARIO,
    "encrypted-mme": {**SMALL_SCENARIO, "topology": {"encryption_ops": 3.0}},
    "reversed-mme-scope": {
        **SMALL_SCENARIO,
        "entities": {"capacity_scale": 2.0, "profiles": _REVERSED_ROWS},
        "scaling": {"target_delay_s": 0.0035, "multipliers": [1.0, 1.5, 4.0],
                    "scope": "mme"},
    },
}
_GOLDEN_COMMANDS = {
    "generate": ["generate"], "validate-arrivals": ["validate-arrivals"],
    "simulate": ["simulate"], "simulate-single-job": ["simulate", "--single-job"],
    "predict": ["predict"],
    "scale": ["scale", "--trace", "trace.csv", "--window-length", "100"]}


def _golden_digests(name):
    """sha256 of every file the commands write for a golden scenario, run in
    the working directory, so that every path a manifest records is relative."""
    Path("scenario.yaml").write_text(yaml.safe_dump(GOLDEN_SCENARIOS[name]))
    make_diurnal_trace(40.0, shape=(0.5, 2.0, 1.0), window_length_s=100.0,
                       seed=2).save_csv("trace.csv")
    digests = {}
    for label, argv in _GOLDEN_COMMANDS.items():
        out = Path(label)
        assert run(argv + ["--config", "scenario.yaml", "--out", label, "--seed", "5"]) == 0
        for path in sorted(out.iterdir()):
            digests[f"{label}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


# frozen from the commands as they stood before profiles became one mapping
# by entity name; every artifact, manifests included, must keep its bytes.
# encrypted-mme was frozen when encryption_ops became MME work that every
# command reads: its manifests record the MME row at 12 operations per
# bearer.  The manifests alone were re-frozen when they began to record the
# resolved scenario only: profile rows of entity, ops_per_bearer and
# capacity, and a topology of n_enb, resolved to one eNB per group here, and
# n_sgw.  The decision logs alone were re-frozen when scale began to replay
# each window's own requests in place of Poisson draws at its fitted rate
GOLDEN_DIGESTS = {
    "encrypted-mme": {
        "generate/generate_manifest.json":
            "c6bb87c953ec237be5883518cd49c1dc49c0a4d2e8659ad5449118d40de6d203",
        "generate/stream.bin":
            "9d2a0b55b641360a7fc324210caba35ffec9eef18c5188c6411cc26da63b4f33",
        "generate/stream.csv":
            "ad56f8627a76e238d69f6d53e8e0b04e308144afdd796b9e2c8c59b945a74b33",
        "predict/model.txt":
            "8938c3b23245bd4fde9100f89766953d213c2d4900e3b43020b2d549946aea62",
        "predict/predict_manifest.json":
            "bd8ef9b741eb0aa0ad3e17a6732a192bfeb0f80f393089d376916f29196401be",
        "predict/survival.csv":
            "0bb5152960263f491dd8d58ed19ffc0567dc04dc7700ca90dca89e4a64e56c6f",
        "scale/decisions.csv":
            "b73b232b510dba6f3cf4bbcf2211e3f8c282200be0d7ed05778b862524c63d10",
        "scale/scale_manifest.json":
            "ae3c1d2ab38a515daadeb1790a153f865831dc9803af689d82abf74d07c99564",
        "scale/trace_windows.csv":
            "cf271c472e8869e184219e15ea201702c5123762b02a13882d8d46fdd29a1d6d",
        "simulate-single-job/delays.csv":
            "10036d305c1394c8f3f5c21fbe27371bd45cb232d77ce62c485173ff5b9d6701",
        "simulate-single-job/simulate_manifest.json":
            "09f49ac02666f94cb00b3b13c570760c143b52291647c1046f5651283e1f992e",
        "simulate/delays.csv":
            "c72b5b5e13ba7fb0eb54269a3a1c20f9e0cc05591618695c976165530cabc8f0",
        "simulate/simulate_manifest.json":
            "336a2ac5b55395c3aac29543d62426a1c64caa0f79366f815018b555aea4973f",
        "simulate/utilization.txt":
            "1fe4839057948d773043e52e97006951f74fead23ab84d1f8b2b3bc35c5caf48",
        "validate-arrivals/arrival_cdf.csv":
            "6b3bfd9c9e01759533723f29c9f704108ac58a3777692436ba0a35fca20be448",
        "validate-arrivals/ks_report.txt":
            "b029ad77d89b60b1974fcf86ea4179006ffd95c18686f0c5ff4a0e89ee234e40",
        "validate-arrivals/validate-arrivals_manifest.json":
            "92149fe9f6164d060e8fa2b198da53a4c713db8835c67d3ff811d0cf5435ff7f",
    },
    "reversed-mme-scope": {
        "generate/generate_manifest.json":
            "b2ce782e535ca972fa2e770343deb6747d1899aa502def8a196ddbcab693999d",
        "generate/stream.bin":
            "9d2a0b55b641360a7fc324210caba35ffec9eef18c5188c6411cc26da63b4f33",
        "generate/stream.csv":
            "ad56f8627a76e238d69f6d53e8e0b04e308144afdd796b9e2c8c59b945a74b33",
        "predict/model.txt":
            "7a3d4713a398a9cf790b84ea1e8674d199861f3936ef47b326c285511b9f2b95",
        "predict/predict_manifest.json":
            "5efe0f3145ffb926101dbc54e6a5fea16d87fbacc2a74b54549c3d2a250c9e84",
        "predict/survival.csv":
            "72744aba8e8455bcdd3c39ca5c0e439697b57968c931fb818ffdb9138f542399",
        "scale/decisions.csv":
            "a4c37011f6d1c58e4ff4f87e1267016f95282f66cd02567652ff471a5a9787c4",
        "scale/scale_manifest.json":
            "1018050d288dfa9e01aeec084295fc8f59b52e71f9966a16c3827f777a12d461",
        "scale/trace_windows.csv":
            "cf271c472e8869e184219e15ea201702c5123762b02a13882d8d46fdd29a1d6d",
        "simulate-single-job/delays.csv":
            "33e363b864c143f90830e5c92e009c35700c010f563f1356dbffffa21882a803",
        "simulate-single-job/simulate_manifest.json":
            "cf806b74f6b79a087043a96b04b768db72cf6a97f48035a979d9e5006592c64e",
        "simulate/delays.csv":
            "861852651e2640bc1936d233d725663ef5450e2d1b80e438c3992e5ffe3829e7",
        "simulate/simulate_manifest.json":
            "29c64bc31d84b8a5577ef571d98180f461b7aacbb53ad36abe84a7ca43ce633c",
        "simulate/utilization.txt":
            "f29c8450c82035ad19b93bc44bdd34ebf92a58bc743baf0d86ac2eba64ca3957",
        "validate-arrivals/arrival_cdf.csv":
            "6b3bfd9c9e01759533723f29c9f704108ac58a3777692436ba0a35fca20be448",
        "validate-arrivals/ks_report.txt":
            "b029ad77d89b60b1974fcf86ea4179006ffd95c18686f0c5ff4a0e89ee234e40",
        "validate-arrivals/validate-arrivals_manifest.json":
            "9b6598067f432bfb578797c065a004a5011ff837cd0032255b6acbdc22aab781",
    },
    "stock-order": {
        "generate/generate_manifest.json":
            "466f3974de0b0b8e636924e3fab099a6e84eb143c2f611fc1381aaf2800a312c",
        "generate/stream.bin":
            "9d2a0b55b641360a7fc324210caba35ffec9eef18c5188c6411cc26da63b4f33",
        "generate/stream.csv":
            "ad56f8627a76e238d69f6d53e8e0b04e308144afdd796b9e2c8c59b945a74b33",
        "predict/model.txt":
            "618d5ca5472028a0e620d69d413dc6b2ecca746a25e02a4a0d1301d2ae2e504a",
        "predict/predict_manifest.json":
            "35b4197997897e699611ecf051ea9e5783914dab511c814da681803529106771",
        "predict/survival.csv":
            "0f229ed8fb8576f149e25dec8801179bad08caae94c53a85e5186ba8246a2033",
        "scale/decisions.csv":
            "4ca7c0e6a3da9169b9e13d1e7f61a95160a41659f8a575eab48a394245d3cf2e",
        "scale/scale_manifest.json":
            "55e0da7c99438163db8790bfcf5ac7ff0c79ba34afd2a4a30fc6fcc6d508155b",
        "scale/trace_windows.csv":
            "cf271c472e8869e184219e15ea201702c5123762b02a13882d8d46fdd29a1d6d",
        "simulate-single-job/delays.csv":
            "a6d1b331814bff4c2cd51f598efe35781eef00160c7e5ff0f2405195d9835c2c",
        "simulate-single-job/simulate_manifest.json":
            "ec0501fb983e4a7abb7fad1e0665f396dbae3a457c83a2a7bbe92290126523c5",
        "simulate/delays.csv":
            "c9a71f687fc90dcb27a4b2cdfcc441b6429128ab69eab049a69f008c9a81f9b1",
        "simulate/simulate_manifest.json":
            "31b65fed99e3fd80a9ed6d8e6ff643dc82f30a4308eb6ec64beeed05362c9a29",
        "simulate/utilization.txt":
            "635b4bb1cf9128c7a82efbd31c901088e4dd0f0894c1a73d52339b13175ddb46",
        "validate-arrivals/arrival_cdf.csv":
            "6b3bfd9c9e01759533723f29c9f704108ac58a3777692436ba0a35fca20be448",
        "validate-arrivals/ks_report.txt":
            "b029ad77d89b60b1974fcf86ea4179006ffd95c18686f0c5ff4a0e89ee234e40",
        "validate-arrivals/validate-arrivals_manifest.json":
            "200c84e803758b2685adaae5ac1f2d27b1891d8f4d4549f2fdb092013975e521",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
def test_every_artifact_matches_its_golden_digest(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    assert _golden_digests(name) == GOLDEN_DIGESTS[name]


def test_argparse_surface():
    with pytest.raises(SystemExit) as exc_info:
        run(["--version"])
    assert exc_info.value.code == 0
    with pytest.raises(SystemExit) as exc_info:
        run([])  # a subcommand is required
    assert exc_info.value.code == 2


# Scenario documents near the valid ones: each field is mostly a small
# valid value or absent, now and then out of range, non-finite or of the
# wrong type, and the document is sized so that one example runs every
# command in milliseconds.
_ODD = st.sampled_from([0, -1.0, math.nan, math.inf, 2.5, "x", [1.0], True])


def _mostly(valid):
    return st.integers(0, 23).flatmap(
        lambda k: _ODD if k == 0 else st.none() if k == 1 else valid)


def _fields(draw, **fields):
    """A block holding some of ``fields``, each drawn from its strategy."""
    return {name: draw(_mostly(strategy)) for name, strategy in fields.items()
            if draw(st.booleans())}


@st.composite
def _scenario(draw):
    n_groups = draw(st.integers(1, 6))
    period_s = draw(st.sampled_from([0.5, 1.0, 2.0]))
    traffic = {"period_s": draw(_mostly(st.just(period_s))),
               "q_total": draw(_mostly(st.integers(1, 6).map(lambda k: k * n_groups))),
               "n_groups": draw(_mostly(st.just(n_groups)))}
    traffic.update(_fields(
        draw, slot_delta_s=st.sampled_from([1e-3, 2e-3, 5e-3]),
        alarm_rate_lambda=st.floats(0.1, 3.0), regular_rate_epsilon=st.floats(0.0, 0.5),
        tx_probability=st.floats(0.05, 1.0),
        offsets_s=st.lists(st.floats(0.0, period_s, exclude_max=True),
                           min_size=n_groups, max_size=n_groups),
        horizon_s=st.floats(period_s, 3.0 * period_s)))
    doc = {"traffic": traffic}
    # the stock profiles, each value perturbed; a capacity scale of 1e-4
    # overloads the MME
    profiles = [
        {"entity": p.entity, "ops_per_bearer": draw(_mostly(st.floats(0.1, 10.0))),
         "capacity": draw(_mostly(st.floats(10.0, 2e4))),
         "messages_per_bearer": message_count(p.entity)}
        for p in DEFAULT_ENTITY_PROFILES.values() if draw(st.integers(0, 23))]
    blocks = {
        "entities": dict(capacity_scale=st.sampled_from([1e-4, 1e-2, 0.5, 1.0, 3.0]),
                         profiles=st.just(profiles)),
        "topology": dict(n_enb=st.integers(1, 4), n_sgw=st.integers(1, 3),
                         encryption_ops=st.floats(0.0, 3.0)),
        "scaling": dict(target_delay_s=st.floats(1e-3, 0.5),
                        percentile=st.floats(0.5, 0.999),
                        multipliers=st.lists(st.floats(1.0, 4.0, exclude_min=True), max_size=2,
                                             unique=True).map(lambda m: [1.0] + sorted(m)),
                        hysteresis=st.floats(0.0, 0.5),
                        scope=st.sampled_from(["all", "mme"]))}
    for name, fields in blocks.items():
        if draw(st.booleans()):
            doc[name] = _fields(draw, **fields)
    return doc


@given(doc=st.one_of(_scenario(), st.sampled_from(
           [None, [], "x", {"other": {}}, {"traffic": {"period_s": 1.0, "q_total": 1, "x": 1}}])),
       percentile=st.sampled_from(["0.5", "0.99", "1.5"]),
       window=st.sampled_from(["1", "5", "0"]), replications=st.sampled_from(["1", "2"]))
# each of these once exited 1: an OverflowError in the config loader, and
# a StopIteration from simulate --single-job looking for the MME
@example(doc={"traffic": {"period_s": 0.5, "q_total": 1, "n_groups": math.inf}},
         percentile="0.5", window="1", replications="1")
@example(doc={"traffic": {"period_s": 0.5, "q_total": 1, "n_groups": 1},
              "entities": {"profiles": [{"entity": "eNB", "ops_per_bearer": 1.0,
                                         "capacity": 10.0, "messages_per_bearer": 2}]}},
         percentile="0.5", window="1", replications="1")
def test_every_command_exits_with_a_documented_code(doc, percentile, window, replications):
    # 0 success, 2 configuration, 3 input, 4 overload: never 1, never a traceback
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = tmp / "scenario.yaml"
        config.write_text(yaml.safe_dump(doc))
        trace = tmp / "trace.csv"
        EventStream(0.25 * np.arange(1, 40)).save_csv(trace)
        common = ["--config", str(config), "--out", str(tmp / "out"),
                  "--replications", replications]
        for argv in (["generate"], ["validate-arrivals"],
                     ["validate-arrivals", "--stream", str(trace)],
                     ["simulate"], ["simulate", "--single-job"],
                     ["predict", "--percentile", percentile],
                     ["scale", "--trace", str(trace), "--window-length", window]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = run(argv + common)
            assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
            assert "Traceback" not in err.getvalue(), argv
