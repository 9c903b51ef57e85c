"""Capacity scaling controller: predictions, thresholds, hysteresis, loop."""

import math

import pytest

from miotcore.autoscale import (
    LoopRecord,
    ScalingDecision,
    ScalingPolicy,
    choose_multiplier,
    predict_percentile,
    run_scaling_loop,
    save_decision_log,
    scaled_profiles,
)
from miotcore.config import DEFAULT_ENTITY_PROFILES
from miotcore.delay import EntityProfile, constant_delay_K
from miotcore.errors import ConfigurationError

# an MME ten times slower than stock (D = 9 ms) so the interesting decision
# thresholds sit at cheap-to-solve loads
PROFILES = {**DEFAULT_ENTITY_PROFILES, "MME": EntityProfile("MME", 9.0, 1000.0)}
D = 9.0e-3
POLICY = ScalingPolicy()  # target 0.1 s at p99, steps 1.0 / 2.0 / 2.5


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
    p1 = predict_percentile(lam, 1.0, PROFILES, POLICY)
    p2 = predict_percentile(lam, 2.0, PROFILES, POLICY)
    p64 = predict_percentile(lam, 64.0, PROFILES, POLICY)
    assert p1 > p2 > p64
    assert p64 < 2e-3  # vast capacity: only the shrunken constant remains
    # overload at the unit multiplier is signalled as inf, not an exception
    assert predict_percentile(300.0, 1.0, PROFILES, POLICY) == math.inf
    # loads beyond 0.995 are treated as out of the model's resolution
    assert predict_percentile(110.9, 1.0, PROFILES, POLICY) == math.inf
    # a mapping without the MME fails on the lookup, naming it
    with pytest.raises(KeyError, match="MME"):
        predict_percentile(lam, 1.0, {n: p for n, p in PROFILES.items() if n != "MME"},
                           POLICY)


def test_choose_multiplier_thresholds():
    low = choose_multiplier(40.0, PROFILES, POLICY)
    assert low.multiplier == 1.0 and low.feasible
    assert low.predicted_delay_s <= POLICY.target_delay_s
    assert predict_percentile(40.0, 1.0, PROFILES, POLICY) == low.predicted_delay_s

    mid = choose_multiplier(100.0, PROFILES, POLICY)
    assert mid.multiplier == 2.0 and mid.feasible
    assert predict_percentile(100.0, 1.0, PROFILES, POLICY) > POLICY.target_delay_s

    high = choose_multiplier(200.0, PROFILES, POLICY)
    assert high.multiplier == 2.5 and high.feasible

    over = choose_multiplier(300.0, PROFILES, POLICY)
    assert over.multiplier == 2.5 and not over.feasible
    assert over.predicted_delay_s == math.inf


def test_choose_multiplier_monotone_in_rate():
    rates = [20.0, 40.0, 72.0, 100.0, 150.0, 200.0, 260.0]
    mults = [choose_multiplier(r, PROFILES, POLICY).multiplier for r in rates]
    assert all(a <= b for a, b in zip(mults, mults[1:]))
    assert mults[0] == 1.0 and mults[-1] == 2.5


def test_scale_down_hysteresis_prevents_flapping():
    # rho 0.63: the unit-multiplier prediction sits just inside the target
    # but above target * (1 - hysteresis)
    lam_band = 0.63 / D
    in_band = predict_percentile(lam_band, 1.0, PROFILES, POLICY)
    assert 0.9 * POLICY.target_delay_s < in_band <= POLICY.target_delay_s

    fresh = choose_multiplier(lam_band, PROFILES, POLICY)
    assert fresh.multiplier == 1.0

    held_up = choose_multiplier(
        lam_band, PROFILES, POLICY,
        previous=choose_multiplier(100.0, PROFILES, POLICY))
    assert held_up.multiplier == 2.0  # sticky: 1.0 does not beat 0.09 s

    receded = choose_multiplier(
        30.0, PROFILES, POLICY,
        previous=held_up)
    assert receded.multiplier == 1.0  # well clear of the band: scale down

    # hysteresis only binds on the way down, never on the way up
    up = choose_multiplier(100.0, PROFILES, POLICY, previous=fresh)
    assert up.multiplier == 2.0


def test_run_scaling_loop_records_and_determinism():
    series = [(0.0, 40.0), (50.0, 100.0), (100.0, 40.0)]
    records = run_scaling_loop(series, PROFILES, POLICY, 50.0, seed=5)
    assert [r.decision.multiplier for r in records] == [1.0, 2.0, 1.0]
    assert [r.window_start_s for r in records] == [0.0, 50.0, 100.0]
    for rec in records:
        assert rec.decision.lambda_beta in (40.0, 100.0)
        assert math.isfinite(rec.empirical_percentile_s)
        assert rec.empirical_percentile_s < POLICY.target_delay_s
    again = run_scaling_loop(series, PROFILES, POLICY, 50.0, seed=5)
    assert [r.empirical_percentile_s for r in again] == \
        [r.empirical_percentile_s for r in records]
    other = run_scaling_loop(series, PROFILES, POLICY, 50.0, seed=6)
    assert [r.empirical_percentile_s for r in other] != \
        [r.empirical_percentile_s for r in records]


def test_run_scaling_loop_draws_are_pinned():
    # exact values pin the replay's Poisson draws: a change in how a
    # window is sampled shows here before it moves any artifact
    records = run_scaling_loop([(0.0, 40.0), (50.0, 100.0), (100.0, 40.0)],
                               PROFILES, POLICY, 50.0, seed=5)
    assert [r.empirical_percentile_s for r in records] == [
        0.04417925695050522, 0.029439114642914196, 0.043452028477574345]


def test_run_scaling_loop_input_validation():
    with pytest.raises(ValueError):
        run_scaling_loop([], PROFILES, POLICY, 10.0)
    with pytest.raises(ValueError):
        run_scaling_loop([(0.0, 10.0), (0.0, 12.0)], PROFILES, POLICY, 10.0)
    with pytest.raises(ValueError):
        run_scaling_loop([(0.0, -1.0)], PROFILES, POLICY, window_length_s=10.0)
    single = run_scaling_loop([(0.0, 40.0)], PROFILES, POLICY,
                              window_length_s=30.0, seed=1)
    assert len(single) == 1


def test_run_scaling_loop_refuses_a_window_past_max_arrivals(monkeypatch):
    # the second window expects 100/s * 50 s = 5000 arrivals; it is refused
    # before the first window draws any
    monkeypatch.setattr("miotcore.autoscale.MAX_WINDOW_ARRIVALS", 4000)

    def no_draws(*args):
        raise AssertionError("drew arrivals before refusing the window")

    monkeypatch.setattr("miotcore.autoscale.poisson_arrivals", no_draws)
    with pytest.raises(ConfigurationError, match="expects 5000.0 arrivals"):
        run_scaling_loop([(0.0, 40.0), (50.0, 100.0)], PROFILES, POLICY, 50.0)


def test_run_scaling_loop_refuses_a_window_length_that_is_not_positive_and_finite(
        monkeypatch):
    # 0 used to give a record with a NaN percentile, -5 a math domain error,
    # NaN and infinity a window that "expects nan arrivals"
    def no_draws(*args):
        raise AssertionError("drew arrivals before refusing the window length")

    monkeypatch.setattr("miotcore.autoscale.poisson_arrivals", no_draws)
    for length in (0.0, -5.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="window_length_s must be positive and finite"):
            run_scaling_loop([(0.0, 40.0)], PROFILES, POLICY, length)


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
