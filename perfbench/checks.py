"""Output checks: one per CLI command, run on the artifacts it wrote.

An operation is one command plus its check.  ``check_rep`` returns one
verdict per operation; an operation fails when its command exited
non-zero or its check raised :class:`CheckFailed`.  The checks read the
artifacts as files, independently of the code that wrote them.
"""

import csv
import math
import os
import struct

import numpy as np

from workloads import (
    KS_MAX,
    MME_SERVICE_S,
    PERIOD_S,
    NON_MME_DELAY_S,
    P99_REL_TOL,
    SCALE_P99_FACTOR,
    SCALING,
    STOCK_PROFILES,
    TX_PROBABILITY,
)

# relative slack on exact lower bounds, far above float rounding
_REL_EPS = 1e-9
# observed request counts stay well inside +-5% of Q p H / T
_COUNT_TOL = 0.05
# utilization.txt prints six decimals
_UTIL_TOL = 1e-6


class CheckFailed(Exception):
    """An artifact is missing, malformed or wrong."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _read_csv(path, header):
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CheckFailed(f"cannot read {os.path.basename(path)}: {exc}") from None
    _require(rows and rows[0] == header,
             f"{os.path.basename(path)}: header is not {','.join(header)}")
    body = rows[1:]
    bad = [i for i, r in enumerate(body) if len(r) != len(header)]
    _require(not bad, f"{os.path.basename(path)}: row {bad[:1]} has the wrong field count")
    return body


def _floats(texts, what):
    try:
        out = np.array(texts, dtype=float)
    except ValueError:
        raise CheckFailed(f"{what}: non-numeric value") from None
    _require(np.all(np.isfinite(out)), f"{what}: non-finite value")
    return out


def _read_key_values(path):
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise CheckFailed(f"cannot read {os.path.basename(path)}: {exc}") from None
    out = {}
    for line in lines:
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def _check_count(n, workload):
    expected = workload.expected_requests()
    _require(abs(n - expected) <= _COUNT_TOL * expected,
             f"{n} requests, expected about {expected:.0f}")


def _read_delays(out):
    body = _read_csv(os.path.join(out, "delays.csv"),
                     ["request_id", "arrival_s", "completion_s", "delay_s"])
    _require(body, "delays.csv: no rows")
    ids = [r[0] for r in body]
    _require(ids == [str(i) for i in range(len(body))],
             "delays.csv: request ids are not 0..n-1 in order")
    arrivals_txt = [r[1] for r in body]
    arrivals = _floats(arrivals_txt, "delays.csv arrival_s")
    completions = _floats([r[2] for r in body], "delays.csv completion_s")
    delays = _floats([r[3] for r in body], "delays.csv delay_s")
    _require(np.all(np.diff(arrivals) >= 0.0), "delays.csv: arrivals out of order")
    _require(np.all(completions >= arrivals), "delays.csv: completion before arrival")
    return arrivals_txt, arrivals, delays


def check_walk(workload, out, state):
    """Full walk: every request within the horizon completes, no delay is
    shorter than the uncontended path, and the MME utilization equals
    the dispatched MME work n*D over the horizon."""
    _, arrivals, delays = _read_delays(out)
    n = arrivals.size
    _check_count(n, workload)
    _require(arrivals[-1] <= workload.horizon_s, "delays.csv: arrival past the horizon")
    n_hops = sum(m for _, _, _, m in STOCK_PROFILES)
    floor = NON_MME_DELAY_S + MME_SERVICE_S + (n_hops - 1) * workload.link_latency_s
    _require(delays.min() >= floor * (1.0 - _REL_EPS),
             f"delay {delays.min()!r} below the uncontended path {floor!r}")
    util = {}
    try:
        with open(os.path.join(out, "utilization.txt")) as fh:
            for line in fh:
                fields = dict(f.split("=", 1) for f in line.split() if "=" in f)
                if "entity" in fields:
                    util[fields["entity"]] = float(fields["utilization"])
    except (OSError, ValueError, KeyError) as exc:
        raise CheckFailed(f"utilization.txt unreadable: {exc}") from None
    _require(set(util) == {p[0] for p in STOCK_PROFILES},
             f"utilization.txt lists {sorted(util)}")
    expected = n * MME_SERVICE_S / workload.horizon_s
    _require(abs(util["MME"] - expected) <= _UTIL_TOL,
             f"MME utilization {util['MME']} != n*D/horizon {expected:.6f}")
    state["sim_p99"] = float(np.quantile(delays, 0.99))
    return n


def check_predict(workload, out, state):
    """The analytic p99 lies within the criterion-5 tolerance of the
    simulated p99, and the survival curve is a non-increasing probability."""
    model = _read_key_values(os.path.join(out, "model.txt"))
    try:
        rho = float(model["rho"])
        tau_p = float(model["tau_p_s"])
    except (KeyError, ValueError):
        raise CheckFailed("model.txt lacks rho or tau_p_s") from None
    lam = workload.q_total * TX_PROBABILITY / PERIOD_S
    _require(math.isclose(rho, lam * MME_SERVICE_S, rel_tol=1e-9),
             f"model rho {rho} != lambda*D")
    _require(math.isfinite(tau_p) and tau_p > NON_MME_DELAY_S, f"tau_p_s {tau_p}")
    sim = state.get("sim_p99")
    _require(sim is not None, "no simulated p99 to compare with")
    _require(abs(sim / tau_p - 1.0) <= P99_REL_TOL,
             f"simulated p99 {sim:.6f} vs predicted {tau_p:.6f}")
    body = _read_csv(os.path.join(out, "survival.csv"), ["tau_s", "survival"])
    _require(len(body) == 512, f"survival.csv has {len(body)} rows")
    surv = _floats([r[1] for r in body], "survival.csv")
    _require(np.all((surv >= 0.0) & (surv <= 1.0)), "survival outside [0, 1]")
    _require(np.all(np.diff(surv) <= 0.0), "survival increases")
    return 1


def check_generate(workload, out, state):
    """stream.csv is sorted within the horizon and stream.bin carries the
    same timestamps bit for bit."""
    body = _read_csv(os.path.join(out, "stream.csv"), ["timestamp_s", "source_id"])
    times = _floats([r[0] for r in body], "stream.csv")
    n = times.size
    _check_count(n, workload)
    _require(np.all(np.diff(times) >= 0.0), "stream.csv: timestamps out of order")
    _require(times[0] >= 0.0 and times[-1] <= workload.horizon_s,
             "stream.csv: timestamp outside [0, horizon]")
    ids = np.array([r[1] for r in body], dtype=np.int64)
    _require(ids.min() >= 0 and ids.max() < workload.q_total, "stream.csv: bad source id")
    try:
        with open(os.path.join(out, "stream.bin"), "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckFailed(f"cannot read stream.bin: {exc}") from None
    _require(len(raw) >= 8, "stream.bin: truncated header")
    (count,) = struct.unpack("<Q", raw[:8])
    _require(count == n and len(raw) == 8 + 8 * n,
             f"stream.bin: {count} records in {len(raw)} bytes, stream.csv has {n}")
    _require(np.array_equal(np.frombuffer(raw[8:], dtype="<f8"), times),
             "stream.bin and stream.csv differ")
    state["stream_txt"] = [r[0] for r in body]
    return n


def check_validate(workload, out, state):
    """The KS distance of the stream's gaps stays within the criterion-1
    bound, over exactly the generated stream's gaps."""
    report = _read_key_values(os.path.join(out, "ks_report.txt"))
    try:
        n_gaps = int(report["n_gaps"])
        d = float(report["ks_distance"])
    except (KeyError, ValueError):
        raise CheckFailed("ks_report.txt lacks n_gaps or ks_distance") from None
    stream = state.get("stream_txt")
    _require(stream is not None, "no generated stream to compare with")
    _require(n_gaps == len(stream) - 1, f"n_gaps {n_gaps}, stream has {len(stream)} rows")
    _require(d <= KS_MAX, f"KS distance {d} above {KS_MAX}")
    body = _read_csv(os.path.join(out, "arrival_cdf.csv"),
                     ["tau_s", "empirical_cdf", "model_cdf"])
    _require(len(body) == 512, f"arrival_cdf.csv has {len(body)} rows")
    emp = _floats([r[1] for r in body], "arrival_cdf.csv")
    _require(np.all(np.diff(emp) >= 0.0) and emp[0] >= 0.0 and emp[-1] <= 1.0,
             "empirical CDF is not a CDF")
    return n_gaps


def check_single_job(workload, out, state):
    """One delays.csv row per generated request, with the same arrival
    text, and every delay at least K + D."""
    arrivals_txt, _, delays = _read_delays(out)
    stream = state.get("stream_txt")
    _require(stream is not None, "no generated stream to compare with")
    _require(len(arrivals_txt) == len(stream),
             f"delays.csv has {len(arrivals_txt)} rows, stream has {len(stream)}")
    _require(arrivals_txt == stream, "delays.csv arrivals differ from stream.csv")
    floor = NON_MME_DELAY_S + MME_SERVICE_S
    _require(delays.min() >= floor * (1.0 - _REL_EPS),
             f"delay {delays.min()!r} below K + D = {floor!r}")
    return len(arrivals_txt)


def check_scale(workload, out, state):
    """One decision per fitted window; the controller uses exactly the
    listed multipliers, scales down at least once, and every feasible
    window's empirical p99 meets the criterion-7 bound."""
    windows = _read_csv(os.path.join(out, "trace_windows.csv"),
                        ["window_start_s", "n_events", "lambda_hat", "ks_stat",
                         "ks_pass_1pct"])
    _require(len(windows) == len(workload.diurnal.shape),
             f"{len(windows)} windows, trace has {len(workload.diurnal.shape)}")
    try:
        with open("trace.csv") as fh:
            n_trace = sum(1 for _ in fh) - 1
    except OSError as exc:
        raise CheckFailed(f"cannot read trace.csv: {exc}") from None
    _require(sum(int(w[1]) for w in windows) == n_trace,
             "window event counts do not sum to the trace length")
    fitted = [w[0] for w in windows if w[2]]
    rows = _read_csv(os.path.join(out, "decisions.csv"),
                     ["window_start_s", "lambda_hat", "multiplier", "predicted_p",
                      "empirical_p", "feasible"])
    _require(len(rows) == len(fitted),
             f"{len(rows)} decisions for {len(fitted)} fitted windows")
    _require([r[0] for r in rows] == fitted, "decision windows differ from fitted windows")
    mults = [float(r[2]) for r in rows]
    _require(set(mults) == set(SCALING["multipliers"]),
             f"multipliers used {sorted(set(mults))}")
    _require(any(b < a for a, b in zip(mults, mults[1:])), "the controller never scales down")
    limit = SCALE_P99_FACTOR * SCALING["target_delay_s"]
    for r in rows:
        if r[5] == "1":
            _require(float(r[4]) <= limit,
                     f"window {r[0]}: empirical p99 {r[4]} above {limit}")
    return len(rows)


def _check_for(command):
    if command[0] == "simulate":
        return check_single_job if "--single-job" in command else check_walk
    return {
        "predict": check_predict,
        "generate": check_generate,
        "validate-arrivals": check_validate,
        "scale": check_scale,
    }[command[0]]


def check_rep(workload, codes, out="out"):
    """Verdicts for one rep, run from its directory.

    ``codes`` holds each command's exit code (None if it raised).  Returns
    a list of ``{"command", "ok", "count", "why"}`` dicts, one per command;
    ``count`` is the units of work the check saw.
    """
    state = {}
    verdicts = []
    for i, command in enumerate(workload.commands):
        check = _check_for(command)
        count, why = 0, ""
        try:
            count = check(workload, out, state)
        except CheckFailed as exc:
            why = str(exc)
        except Exception as exc:  # a malformed artifact the parsing did not foresee
            why = f"check raised {exc!r}"
        ok = codes[i] == 0 and not why
        if codes[i] != 0:
            why = f"exit code {codes[i]}" + (f"; {why}" if why else "")
        verdicts.append({"command": " ".join(command), "ok": ok, "count": count,
                         "why": why})
    return verdicts
