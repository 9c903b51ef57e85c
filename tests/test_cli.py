"""Command-line entry point: artifacts, manifests, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import yaml

from miotcore.cli import OUT_DIR_ENV, main
from miotcore.trace import make_diurnal_trace
from miotcore.traffic import EventStream

SMALL_SCENARIO = {
    "traffic": {"period_s": 10.0, "q_total": 200, "n_groups": 10,
                "horizon_s": 50.0},
}
OVERLOADED_SCENARIO = {
    "traffic": {"period_s": 10.0, "q_total": 20_000, "horizon_s": 20.0},
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
    # 4: infeasible scenario, with a capacity hint on stderr
    over_cfg = tmp_path / "over.yaml"
    over_cfg.write_text(yaml.safe_dump(OVERLOADED_SCENARIO))
    capsys.readouterr()
    assert run(["predict", "--config", str(over_cfg),
                "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert "overload" in err
    assert "minimum feasible capacity multiplier" in err
    # the full walk refuses to run an MME queue that grows without bound
    assert run(["simulate", "--config", str(over_cfg),
                "--out", str(tmp_path / "s")]) == 4
    err = capsys.readouterr().err
    assert "overload" in err
    assert "minimum feasible capacity multiplier" in err


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


def test_argparse_surface():
    with pytest.raises(SystemExit) as exc_info:
        run(["--version"])
    assert exc_info.value.code == 0
    with pytest.raises(SystemExit) as exc_info:
        run([])  # a subcommand is required
    assert exc_info.value.code == 2
