"""Capacity scaling controller: predictions, thresholds, hysteresis, loop."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from miotcore.autoscale import (
    MAX_FEASIBLE_LOAD,
    LoopRecord,
    ScalingDecision,
    ScalingPolicy,
    choose_multiplier,
    predict_percentile,
    run_scaling_loop,
    save_decision_log,
    scaled_profiles,
)
from miotcore.config import DEFAULT_ENTITY_PROFILES, scenario_from_dict
from miotcore.delay import (
    EntityProfile,
    build_delay_model,
    constant_delay_K,
    delay_percentile,
    instance_loads,
)
from miotcore.errors import ConfigurationError, NumericalError, OverloadError
from miotcore.trace import make_diurnal_trace, window_and_fit
from miotcore.traffic import EventStream

# an MME ten times slower than stock (D = 9 ms) so the interesting decision
# thresholds sit at cheap-to-solve loads
PROFILES = {**DEFAULT_ENTITY_PROFILES, "MME": EntityProfile("MME", 9.0, 1000.0)}
D = 9.0e-3
POLICY = ScalingPolicy()  # target 0.1 s at p99, steps 1.0 / 2.0 / 2.5
# the stock routing's busiest-instance shares of the rate: one device of
# 10^4, one eNB of 100, and one instance of each other entity
SHARES = {**dict.fromkeys(PROFILES, 1.0), "UE": 1e-4, "eNB": 0.01}


def test_policy_validation():
    with pytest.raises(ConfigurationError):
        ScalingPolicy(target_delay_s=0.0)
    with pytest.raises(ConfigurationError):
        ScalingPolicy(percentile=1.0)
    with pytest.raises(ConfigurationError):
        ScalingPolicy(multipliers=(2.0, 2.5))
    with pytest.raises(ConfigurationError):
        ScalingPolicy(multipliers=(1.0, 1.0))
    with pytest.raises(ConfigurationError):
        ScalingPolicy(hysteresis=1.0)
    with pytest.raises(ConfigurationError, match="scope must be 'all' or 'mme'"):
        ScalingPolicy(scope="sgw")
    assert ScalingPolicy(multipliers=[1, 2]).multipliers == (1.0, 2.0)


def test_scaled_profiles_scope():
    doubled = scaled_profiles(PROFILES, 2.0)
    assert list(doubled) == list(PROFILES)  # same keys, same order
    assert all(doubled[n].capacity == 2.0 * p.capacity for n, p in PROFILES.items())
    assert all(doubled[n].ops_per_bearer == p.ops_per_bearer
               for n, p in PROFILES.items())
    mme_only = ScalingPolicy(scope="mme")
    partial = scaled_profiles(PROFILES, 2.0, mme_only)
    assert list(partial) == list(PROFILES)
    for name, p in PROFILES.items():
        if name == "MME":
            assert partial[name].capacity == 2.0 * p.capacity
        else:
            assert partial[name] is p
    # scaling only the MME leaves the constant offset untouched
    assert constant_delay_K(partial) == constant_delay_K(PROFILES)
    with pytest.raises(ConfigurationError):
        scaled_profiles(PROFILES, 0.0)


def test_predict_percentile_decreases_with_capacity():
    lam = 100.0  # rho 0.9 at the unit multiplier
    p1 = predict_percentile(lam, 1.0, PROFILES, POLICY, SHARES)
    p2 = predict_percentile(lam, 2.0, PROFILES, POLICY, SHARES)
    p64 = predict_percentile(lam, 64.0, PROFILES, POLICY, SHARES)
    assert p1 > p2 > p64
    assert p64 < 2e-3  # vast capacity: only the shrunken constant remains
    # overload at the unit multiplier is signalled as inf, not an exception
    assert predict_percentile(300.0, 1.0, PROFILES, POLICY, SHARES) == math.inf
    # loads beyond 0.995 are treated as out of the model's resolution
    assert predict_percentile(110.9, 1.0, PROFILES, POLICY, SHARES) == math.inf
    # a mapping without the MME fails on the lookup, naming it
    with pytest.raises(KeyError, match="MME"):
        predict_percentile(lam, 1.0, {n: p for n, p in PROFILES.items() if n != "MME"},
                           POLICY, SHARES)


def test_max_feasible_load_binds_on_any_entity():
    # a slow SGW at the busiest-instance load 0.996 while the MME is near
    # 0.3: the bound holds for every entity, not for the MME alone
    lam = 0.3 / D
    for sgw_load, infeasible in ((0.996, True), (0.99, False)):
        profiles = {**PROFILES, "SGW": EntityProfile("SGW", 3.0, 3.0 * lam / sgw_load)}
        rates = {n: lam * s for n, s in SHARES.items()}
        with pytest.warns(UserWarning, match="MME is not the bottleneck: SGW"):
            loads = instance_loads(rates, profiles)
        assert loads["SGW"] == pytest.approx(sgw_load) and loads["MME"] == pytest.approx(0.3)
        with pytest.warns(UserWarning, match="SGW"):
            predicted = predict_percentile(lam, 1.0, profiles, POLICY, SHARES)
        assert (predicted == math.inf) == infeasible, (sgw_load, predicted)


def _outcome(fn, *args):
    """What a call gives: its value, or its error's type and text."""
    try:
        return fn(*args)
    except (NumericalError, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def _scenario(draw):
    n_groups = draw(st.integers(1, 4))
    rows = [{"entity": p.entity, "ops_per_bearer": draw(st.floats(0.1, 10.0)),
             "capacity": draw(st.floats(10.0, 2e4))} for p in DEFAULT_ENTITY_PROFILES.values()]
    return scenario_from_dict({
        "traffic": {"period_s": 10.0, "q_total": n_groups * draw(st.integers(1, 5000)),
                    "n_groups": n_groups, "horizon_s": 20.0},
        "entities": {"profiles": draw(st.sampled_from([rows, None]))},
        "topology": {"n_enb": draw(st.integers(1, 4)), "n_sgw": draw(st.integers(1, 3))},
        "scaling": {"scope": draw(st.sampled_from(["all", "mme"])),
                    "percentile": draw(st.sampled_from([0.5, 0.99, 0.999]))}})


@settings(max_examples=200)
@given(sc=_scenario())
def test_the_controller_prices_multiplier_1_as_predict_does(sc):
    # predict refuses what instance_loads refuses over the routing's rates,
    # then prices the model at lambda_beta; at multiplier 1 the controller
    # reads the same loads from the routing's shares of the rate
    lam = sc.lambda_beta()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        priced = _outcome(predict_percentile, lam, 1.0, sc.profiles, sc.policy,
                          sc.instance_rates(1.0))
        try:
            loads = instance_loads(sc.instance_rates(lam), sc.profiles)
        except OverloadError:
            assert priced == math.inf
            return
        predicted = _outcome(lambda: delay_percentile(sc.policy.percentile,
                                                      build_delay_model(lam, sc.profiles)))
    if max(loads.values()) < MAX_FEASIBLE_LOAD:
        assert priced == predicted
    else:
        assert priced == math.inf


def test_choose_multiplier_thresholds():
    low = choose_multiplier(40.0, PROFILES, POLICY, SHARES)
    assert low.multiplier == 1.0 and low.feasible
    assert low.predicted_delay_s <= POLICY.target_delay_s
    assert predict_percentile(40.0, 1.0, PROFILES, POLICY, SHARES) == low.predicted_delay_s

    mid = choose_multiplier(100.0, PROFILES, POLICY, SHARES)
    assert mid.multiplier == 2.0 and mid.feasible
    assert predict_percentile(100.0, 1.0, PROFILES, POLICY, SHARES) > POLICY.target_delay_s

    high = choose_multiplier(200.0, PROFILES, POLICY, SHARES)
    assert high.multiplier == 2.5 and high.feasible

    over = choose_multiplier(300.0, PROFILES, POLICY, SHARES)
    assert over.multiplier == 2.5 and not over.feasible
    assert over.predicted_delay_s == math.inf


def test_choose_multiplier_monotone_in_rate():
    rates = [20.0, 40.0, 72.0, 100.0, 150.0, 200.0, 260.0]
    mults = [choose_multiplier(r, PROFILES, POLICY, SHARES).multiplier for r in rates]
    assert all(a <= b for a, b in zip(mults, mults[1:]))
    assert mults[0] == 1.0 and mults[-1] == 2.5


def test_scale_down_hysteresis_prevents_flapping():
    # rho 0.63: the unit-multiplier prediction sits just inside the target
    # but above target * (1 - hysteresis)
    lam_band = 0.63 / D
    in_band = predict_percentile(lam_band, 1.0, PROFILES, POLICY, SHARES)
    assert 0.9 * POLICY.target_delay_s < in_band <= POLICY.target_delay_s

    fresh = choose_multiplier(lam_band, PROFILES, POLICY, SHARES)
    assert fresh.multiplier == 1.0

    held_up = choose_multiplier(
        lam_band, PROFILES, POLICY, SHARES,
        previous=choose_multiplier(100.0, PROFILES, POLICY, SHARES))
    assert held_up.multiplier == 2.0  # sticky: 1.0 does not beat 0.09 s

    receded = choose_multiplier(
        30.0, PROFILES, POLICY, SHARES,
        previous=held_up)
    assert receded.multiplier == 1.0  # well clear of the band: scale down

    # hysteresis only binds on the way down, never on the way up
    up = choose_multiplier(100.0, PROFILES, POLICY, SHARES, previous=fresh)
    assert up.multiplier == 2.0


def _windows(shape, length=50.0, seed=5):
    """Fitted windows of a diurnal trace at ``shape`` requests/s per window."""
    return window_and_fit(make_diurnal_trace(1.0, shape, length, seed), length)


def test_run_scaling_loop_records_and_determinism():
    # the empty third window has no fitted rate: it is skipped
    windows = _windows((40.0, 100.0, 0.0, 40.0))
    records = run_scaling_loop(windows, PROFILES, POLICY, SHARES)
    assert [r.decision.multiplier for r in records] == [1.0, 2.0, 1.0]
    assert [r.window_start_s for r in records] == [0.0, 50.0, 150.0]
    fitted = [w for w in windows if w.rate_hat is not None]
    assert [r.decision.lambda_beta for r in records] == [w.rate_hat for w in fitted]
    for rec in records:
        assert math.isfinite(rec.empirical_percentile_s)
        assert rec.empirical_percentile_s < POLICY.target_delay_s
    # a pure function of the windows: no draw, no seed
    again = run_scaling_loop(windows, PROFILES, POLICY, SHARES)
    assert [r.empirical_percentile_s for r in again] == \
        [r.empirical_percentile_s for r in records]


def test_run_scaling_loop_replays_each_windows_own_requests():
    # a fixed trace whose replay has a closed form.  Window 0: a request
    # every 25 ms, 40/s, so each one finds the MME idle: D + K.  Window 1:
    # bursts of 5 simultaneous requests every 50 ms, about 100/s, at
    # multiplier 2: the burst shares the server, all 5 finish at 5 D/2,
    # and the next burst finds it idle.  Window 2 holds one request, no fit.
    # A Poisson replay at window 1's rate would give no such 5-job plateau.
    even = 0.025 * np.arange(2000)
    bursts = 50.0 + np.repeat(0.05 * np.arange(1000), 5)
    stream = EventStream(np.concatenate([even, bursts, [125.0]]))
    windows = window_and_fit(stream, 50.0)
    assert [w.n_events for w in windows] == [2000, 5000, 1]
    records = run_scaling_loop(windows, PROFILES, POLICY, SHARES)
    assert [r.window_start_s for r in records] == [0.0, 50.0]
    assert [r.decision.multiplier for r in records] == [1.0, 2.0]
    k_unit = constant_delay_K(PROFILES)
    k_double = constant_delay_K(scaled_profiles(PROFILES, 2.0))
    assert records[0].empirical_percentile_s == pytest.approx(D + k_unit, rel=1e-12)
    assert records[1].empirical_percentile_s == pytest.approx(
        5 * D / 2 + k_double, rel=1e-12)


def test_run_scaling_loop_warns_once_a_call():
    # an SGW slower than the MME tops the MME's load at every window and
    # multiplier priced; the loop shows the first of those warnings alone,
    # on the line that called it
    profiles = {**PROFILES, "SGW": EntityProfile("SGW", 3.0, 3.0 / 9.5e-3)}
    windows = _windows((40.0, 100.0, 40.0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        records = run_scaling_loop(windows, profiles, POLICY, SHARES)
    assert [r.decision.multiplier for r in records] == [1.0, 2.0, 1.0]
    assert [str(w.message).split(",")[0] for w in caught] == [
        "MME is not the bottleneck: SGW has the largest per-instance load"]
    assert caught[0].filename == __file__


def test_run_scaling_loop_input_validation():
    # no window with a fitted rate: nothing to replay
    for windows in ([], window_and_fit(EventStream([3.0]), 10.0),
                    window_and_fit(EventStream([3.0, 3.0]), 10.0)):
        with pytest.raises(ConfigurationError, match="no windows with a fitted rate"):
            run_scaling_loop(windows, PROFILES, POLICY, SHARES)
    single = run_scaling_loop(_windows((40.0,), length=30.0), PROFILES, POLICY, SHARES)
    assert len(single) == 1


def test_save_decision_log(tmp_path):
    records = [
        LoopRecord(
            window_start_s=0.0,
            decision=ScalingDecision(40.0, 1.0, 0.05, True),
            empirical_percentile_s=0.048,
        )
    ]
    path = tmp_path / "decisions.csv"
    save_decision_log(path, records)
    lines = path.read_text().splitlines()
    assert lines[0] == ("window_start_s,lambda_hat,multiplier,predicted_p,"
                        "empirical_p,feasible")
    assert lines[1].startswith("0.0,40.0,1.0,0.05,0.048")
