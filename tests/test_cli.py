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
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, strategies as st

from miotcore.cli import OUT_DIR_ENV, main
from miotcore.config import DEFAULT_ENTITY_PROFILES, load_scenario
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
    for name in ("delays_r0.csv", "delays_r1.csv"):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records its size, starts no process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

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


def test_scale_labels_window_without_arrivals(tmp_path, cfg, capsys):
    # two events 99 s apart fit a rate of 1/99 per s; at seed 0 the
    # window's Poisson draw is empty, so there is no empirical percentile
    trace = tmp_path / "trace.csv"
    EventStream(np.array([0.0, 99.0])).save_csv(trace)
    out = tmp_path / "scale"
    assert run(["scale", "--config", cfg, "--out", str(out), "--seed", "0",
                "--trace", str(trace), "--window-length", "100"]) == 0
    row = (out / "decisions.csv").read_text().splitlines()[1].split(",")
    assert row[4] == "nan"
    printed = capsys.readouterr().out
    assert "[no data]" in printed and "OVER TARGET" not in printed


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


def test_scale_refuses_a_window_of_too_many_arrivals(tmp_path, cfg, capsys, monkeypatch):
    # about 2 requests/s over 100 s windows: 200 expected arrivals, past a
    # cap of 100, so exit 2 before any window is replayed or written
    monkeypatch.setattr("miotcore.autoscale.MAX_WINDOW_ARRIVALS", 100)
    trace = tmp_path / "trace.csv"
    EventStream(0.5 * np.arange(1, 200)).save_csv(trace)
    out = tmp_path / "scale"
    assert run(["scale", "--config", cfg, "--out", str(out), "--trace", str(trace),
                "--window-length", "100"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "more than 100" in err
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
        with pytest.warns(UserWarning, match="MME is not the bottleneck: eNB"):
            code = run(argv + ["--config", str(config), "--out", str(tmp_path / label)])
        assert code == 0, label


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


def test_omitted_message_counts_are_the_stock_ones(tmp_path, monkeypatch):
    # six rows without messages_per_bearer run the default template, with
    # the bytes of the same rows that write the counts out
    monkeypatch.chdir(tmp_path)
    omitted = [{"entity": p.entity, "ops_per_bearer": p.ops_per_bearer, "capacity": p.capacity}
               for p in DEFAULT_ENTITY_PROFILES.values()]
    written = [{**row, "messages_per_bearer": DEFAULT_ENTITY_PROFILES[row["entity"]]
                .messages_per_bearer} for row in omitted]
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
         "messages_per_bearer": stock[name].messages_per_bearer if name in stock else 1}
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
# bearer and encryption_ops 0.0
GOLDEN_DIGESTS = {
    "encrypted-mme": {
        "generate/generate_manifest.json":
            "68014308b0c7b4eb6f661c75f239cc0c3912047b16c17d79ce1f925046e30dcb",
        "generate/stream.bin":
            "9d2a0b55b641360a7fc324210caba35ffec9eef18c5188c6411cc26da63b4f33",
        "generate/stream.csv":
            "ad56f8627a76e238d69f6d53e8e0b04e308144afdd796b9e2c8c59b945a74b33",
        "predict/model.txt":
            "8938c3b23245bd4fde9100f89766953d213c2d4900e3b43020b2d549946aea62",
        "predict/predict_manifest.json":
            "d197d6314f4b05676b43eeb788966a2194ab51ad4bd0f82b80e6a6b38ac704cd",
        "predict/survival.csv":
            "0bb5152960263f491dd8d58ed19ffc0567dc04dc7700ca90dca89e4a64e56c6f",
        "scale/decisions.csv":
            "2103a5bbf4b6c954d54be7daa734b170366bf6b1d0ef0ac9e5b0bb72e9686e8c",
        "scale/scale_manifest.json":
            "b16fc11920ac24eb99c7aa46dfd38e48b6e728d06d7623142535a9eb5a1ae70e",
        "scale/trace_windows.csv":
            "cf271c472e8869e184219e15ea201702c5123762b02a13882d8d46fdd29a1d6d",
        "simulate-single-job/delays.csv":
            "10036d305c1394c8f3f5c21fbe27371bd45cb232d77ce62c485173ff5b9d6701",
        "simulate-single-job/simulate_manifest.json":
            "5a2f7ba43c284ba6d6f2e5522c694d50f06d48e3e9905fb6f1a66551d56e7341",
        "simulate/delays.csv":
            "c72b5b5e13ba7fb0eb54269a3a1c20f9e0cc05591618695c976165530cabc8f0",
        "simulate/simulate_manifest.json":
            "579ede565d607784fbcb54f1b78ed6e9d5e5707eb9f88c66beed04fa300af753",
        "simulate/utilization.txt":
            "1fe4839057948d773043e52e97006951f74fead23ab84d1f8b2b3bc35c5caf48",
        "validate-arrivals/arrival_cdf.csv":
            "6b3bfd9c9e01759533723f29c9f704108ac58a3777692436ba0a35fca20be448",
        "validate-arrivals/ks_report.txt":
            "b029ad77d89b60b1974fcf86ea4179006ffd95c18686f0c5ff4a0e89ee234e40",
        "validate-arrivals/validate-arrivals_manifest.json":
            "928c0f7f1f7a721a54b3e4d74379cfd877d3523fcca38dd3f7c8f7ad33ce9ba1",
    },
    "reversed-mme-scope": {
        "generate/generate_manifest.json":
            "c09880291bc4178321c9a88dc21ae4cec65ae5cf99fc14b672cacf91b84ec54e",
        "generate/stream.bin":
            "9d2a0b55b641360a7fc324210caba35ffec9eef18c5188c6411cc26da63b4f33",
        "generate/stream.csv":
            "ad56f8627a76e238d69f6d53e8e0b04e308144afdd796b9e2c8c59b945a74b33",
        "predict/model.txt":
            "7a3d4713a398a9cf790b84ea1e8674d199861f3936ef47b326c285511b9f2b95",
        "predict/predict_manifest.json":
            "ba1b9473447dc5b2acbae209dfb424df10e5ce685b678ed49e9b6951404a52b9",
        "predict/survival.csv":
            "72744aba8e8455bcdd3c39ca5c0e439697b57968c931fb818ffdb9138f542399",
        "scale/decisions.csv":
            "84027c9e07558ffb0c3e7598a133cbddecf9fe33544ed1d2296e97078e8b1efe",
        "scale/scale_manifest.json":
            "51595e86604a0f0d62c02d0aa34341cd16bb2674965b8e28255f21ee499cb10e",
        "scale/trace_windows.csv":
            "cf271c472e8869e184219e15ea201702c5123762b02a13882d8d46fdd29a1d6d",
        "simulate-single-job/delays.csv":
            "33e363b864c143f90830e5c92e009c35700c010f563f1356dbffffa21882a803",
        "simulate-single-job/simulate_manifest.json":
            "b9b24308eb09c77ab5f8d6ca8aad7cbf08955e1c93dd3e90f4f3b67f753a80b7",
        "simulate/delays.csv":
            "861852651e2640bc1936d233d725663ef5450e2d1b80e438c3992e5ffe3829e7",
        "simulate/simulate_manifest.json":
            "44e5a44f7513e54c5d27cbd8c41c2ae7302f6fccc616664ee2cbd26f74448af3",
        "simulate/utilization.txt":
            "f29c8450c82035ad19b93bc44bdd34ebf92a58bc743baf0d86ac2eba64ca3957",
        "validate-arrivals/arrival_cdf.csv":
            "6b3bfd9c9e01759533723f29c9f704108ac58a3777692436ba0a35fca20be448",
        "validate-arrivals/ks_report.txt":
            "b029ad77d89b60b1974fcf86ea4179006ffd95c18686f0c5ff4a0e89ee234e40",
        "validate-arrivals/validate-arrivals_manifest.json":
            "e2765c3a5821d7b3422e9385c661e4ff645d614c457df9db9070f1bdbb189828",
    },
    "stock-order": {
        "generate/generate_manifest.json":
            "d06fa23b6c10e11227afda5e7eb50209f5802f64030b3d617c80eb7cd0f308d2",
        "generate/stream.bin":
            "9d2a0b55b641360a7fc324210caba35ffec9eef18c5188c6411cc26da63b4f33",
        "generate/stream.csv":
            "ad56f8627a76e238d69f6d53e8e0b04e308144afdd796b9e2c8c59b945a74b33",
        "predict/model.txt":
            "618d5ca5472028a0e620d69d413dc6b2ecca746a25e02a4a0d1301d2ae2e504a",
        "predict/predict_manifest.json":
            "7251a5e6a1536e261199f559e0491485208844a9c3341e7f27a9aaca2bd358b7",
        "predict/survival.csv":
            "0f229ed8fb8576f149e25dec8801179bad08caae94c53a85e5186ba8246a2033",
        "scale/decisions.csv":
            "06bd4d6b8f77a01bcf4d138b030077a0e3a57e1ab6625a0fecaeccbd56c31179",
        "scale/scale_manifest.json":
            "fd221e62a0e44475bad612c625ae766ad2f9025379cdb7f97fccf6603ef1fb96",
        "scale/trace_windows.csv":
            "cf271c472e8869e184219e15ea201702c5123762b02a13882d8d46fdd29a1d6d",
        "simulate-single-job/delays.csv":
            "a6d1b331814bff4c2cd51f598efe35781eef00160c7e5ff0f2405195d9835c2c",
        "simulate-single-job/simulate_manifest.json":
            "2cbb873ba4aa742f4cdddda60ad70dcc8f8ebc0ad3a3d08bfb3593f366d93b1e",
        "simulate/delays.csv":
            "c9a71f687fc90dcb27a4b2cdfcc441b6429128ab69eab049a69f008c9a81f9b1",
        "simulate/simulate_manifest.json":
            "ab8be03df9ff9573b1d7d6b0da447189e1fc335354c09ab77261eca51f077552",
        "simulate/utilization.txt":
            "635b4bb1cf9128c7a82efbd31c901088e4dd0f0894c1a73d52339b13175ddb46",
        "validate-arrivals/arrival_cdf.csv":
            "6b3bfd9c9e01759533723f29c9f704108ac58a3777692436ba0a35fca20be448",
        "validate-arrivals/ks_report.txt":
            "b029ad77d89b60b1974fcf86ea4179006ffd95c18686f0c5ff4a0e89ee234e40",
        "validate-arrivals/validate-arrivals_manifest.json":
            "c8fd93041a751c2902e4ecb8537883043b77d59c3633a5d158428fbdfaabc050",
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
         "messages_per_bearer": p.messages_per_bearer}
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
