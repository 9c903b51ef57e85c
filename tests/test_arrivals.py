"""First-alarm and inter-request laws: exact CDFs, limits, KS helpers."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy import special, stats

from miotcore.arrivals import (
    KS_CRITICAL_C,
    KS_MIN_SAMPLES,
    KS_SIGNIFICANCE,
    ArrivalRates,
    ErlangMixture,
    arrival_rates,
    bearer_request_rate,
    falpha_exponential,
    falpha_q_discrete,
    falpha_system_discrete,
    fbeta_closed_form,
    fbeta_mixture,
    ks_critical_value,
    ks_distance,
    ks_report,
)
from miotcore.traffic import SourcePopulation, TrafficParams, beta_pmf

SMALL = TrafficParams(period_s=10.0, slot_delta_s=0.05)  # 200 slots


def _hazard(params):
    return beta_pmf(np.arange(1, params.n_slots + 1), params)


def _brute_single_cdf(m_values, k, offset, params, forced_regular=False):
    """Direct product over slots: P(alpha <= m) = 1 - prod (1 - f)."""
    f = _hazard(params)
    n = params.n_slots
    s = (k + offset) % n
    out = []
    for m in m_values:
        start = 2 if forced_regular else 1
        surv = 1.0
        for j in range(start, m + 1):
            surv *= 1.0 - f[(s + j - 1) % n]
        out.append(1.0 - surv)
    return np.array(out)


def test_bearer_request_rate_values():
    # lambda_beta = Q (1 - e^-1) / T
    assert bearer_request_rate(10_000, 10.0) == pytest.approx(
        632.1205588285577, rel=1e-13)
    assert bearer_request_rate(15_000, 10.0) == pytest.approx(
        948.1808382428365, rel=1e-13)
    assert bearer_request_rate(100, 10.0, tx_probability=0.5) == 5.0
    with pytest.raises(ValueError):
        bearer_request_rate(0, 10.0)
    with pytest.raises(ValueError):
        bearer_request_rate(10, 0.0)


def test_falpha_q_discrete_matches_direct_product():
    m_values = [1, 2, 3, 10, 37, 80, 120, 199, 200, 350]
    for k, offset in [(0, 0), (5, 0), (0, 63), (57, 120)]:
        direct = _brute_single_cdf(m_values, k, offset, SMALL)
        fast = falpha_q_discrete(np.array(m_values), k, offset, SMALL)
        assert np.allclose(fast, direct, rtol=0.0, atol=1e-12)
        forced = falpha_q_discrete(
            np.array(m_values), k, offset, SMALL, forced_regular=True)
        direct_f = _brute_single_cdf(m_values, k, offset, SMALL,
                                     forced_regular=True)
        assert np.allclose(forced, direct_f, rtol=0.0, atol=1e-12)


def test_falpha_q_discrete_properties():
    m = np.arange(1, 3 * SMALL.n_slots)
    cdf = falpha_q_discrete(m, 17, 0, SMALL)
    assert np.all(np.diff(cdf) >= 0.0)
    assert np.all((cdf >= 0.0) & (cdf <= 1.0))
    # one expected alarm per period: three periods out the CDF is ~ 1 - e^-3
    assert cdf[-1] > 0.93
    assert falpha_q_discrete(1, 17, 0, SMALL) == pytest.approx(
        _hazard(SMALL)[18 - 1], rel=1e-12)
    with pytest.raises(ValueError):
        falpha_q_discrete(0, 0, 0, SMALL)
    with pytest.raises(ValueError):
        falpha_q_discrete(np.array([1.5]), 0, 0, SMALL)
    with pytest.raises(ValueError):
        falpha_q_discrete(1, SMALL.n_slots, 0, SMALL)


def test_forced_regular_identity_and_bound():
    # F - F_forced = f(s+1) (1 - F_forced): the forced variant only removes
    # the very first slot's hazard
    f = _hazard(SMALL)
    m = np.arange(1, 2 * SMALL.n_slots)
    for k in (0, 79, 150):
        s = k % SMALL.n_slots
        plain = falpha_q_discrete(m, k, 0, SMALL)
        forced = falpha_q_discrete(m, k, 0, SMALL, forced_regular=True)
        identity = f[(s + 1) - 1] * (1.0 - forced)
        assert np.allclose(plain - forced, identity, rtol=0.0, atol=1e-12)
        assert np.all(plain - forced >= -1e-15)
        assert np.max(plain - forced) <= 2.0 * f.max()


def test_falpha_system_matches_direct_product():
    pop = SourcePopulation(group_size=2, n_groups=2, offsets_s=(0.0, 3.7))
    m = np.array([1, 5, 20, 60, 150, 200, 400])
    offs_slots = [int(w / SMALL.slot_delta_s) % SMALL.n_slots
                  for w in pop.offsets_s]
    for k in (0, 33):
        direct_surv = np.ones(len(m))
        for off in offs_slots:
            per_src = 1.0 - _brute_single_cdf(m, k, off, SMALL)
            direct_surv *= per_src ** pop.group_size
        fast = falpha_system_discrete(m, k, pop, SMALL)
        assert np.allclose(fast, 1.0 - direct_surv, rtol=0.0, atol=1e-12)
        # the merged first alarm is no later than any single source's
        single = falpha_q_discrete(m, k, offs_slots[0], SMALL)
        assert np.all(fast >= single - 1e-15)


def test_falpha_system_transmitter_group_is_forced():
    pop = SourcePopulation(group_size=3, n_groups=2, offsets_s=(0.0, 5.0))
    m = np.arange(1, 300)
    plain = falpha_system_discrete(m, 10, pop, SMALL)
    forced = falpha_system_discrete(m, 10, pop, SMALL, transmitter_group=0)
    assert np.all(plain - forced >= -1e-15)
    assert np.max(plain - forced) <= 2.0 * _hazard(SMALL).max()
    no_offsets = SourcePopulation(group_size=3, n_groups=2)
    with pytest.raises(ValueError):
        falpha_system_discrete(m, 0, no_offsets, SMALL)


def test_arrival_rates_hand_values():
    from miotcore.traffic import beta_pdf

    rates = arrival_rates(0.0, (2.5, 5.0), 10, 10.0)
    assert rates.lambda_alpha == 1.0
    assert rates.lambda_beta == pytest.approx(
        (1.0 - math.exp(-1.0)) * 1.0, rel=1e-13)
    expect = 5 * (beta_pdf(2.5, 10.0) + beta_pdf(5.0, 10.0))
    assert rates.lambda_alpha_given_t == pytest.approx(expect, rel=1e-12)
    # clock positions wrap modulo the period
    wrapped = arrival_rates(10.0, (2.5, 5.0), 10, 10.0)
    assert wrapped.lambda_alpha_given_t == pytest.approx(expect, rel=1e-12)
    with pytest.raises(ValueError):
        arrival_rates(0.0, (2.5, 5.0, 7.5), 10, 10.0)  # 10 % 3 != 0
    with pytest.raises(ValueError):
        ArrivalRates(0.0, 1.0, 1.0)


def test_falpha_exponential_form():
    tau = np.linspace(0.0, 0.05, 7)
    offs = (0.0, 1.0, 4.0, 9.0)
    got = falpha_exponential(tau, 3.0, offs, 400, 10.0)
    lam = arrival_rates(3.0, offs, 400, 10.0).lambda_alpha_given_t
    assert np.allclose(got, 1.0 - np.exp(-lam * tau), rtol=0.0, atol=1e-14)
    assert falpha_exponential(0.0, 3.0, offs, 400, 10.0) == 0.0
    with pytest.raises(ValueError):
        falpha_exponential(-0.1, 3.0, offs, 400, 10.0)


def test_erlang_mixture_weights_and_truncation():
    mix = ErlangMixture(stage_rate=1000.0)
    w = mix.weights()
    assert len(w) == 100
    p = mix.success_probability
    assert w[0] == pytest.approx(p)
    assert w[1] == pytest.approx(p * (1 - p))
    assert w.sum() == pytest.approx(1.0 - (1 - p) ** 100, rel=1e-14)
    assert mix.truncation_bound == pytest.approx((1 - p) ** 100 / p, rel=1e-12)
    assert mix.truncation_bound < 1e-40
    with pytest.raises(ValueError):
        ErlangMixture(stage_rate=0.0)
    with pytest.raises(ValueError):
        ErlangMixture(stage_rate=1.0, success_probability=1.0)
    with pytest.raises(ValueError):
        ErlangMixture(stage_rate=1.0, z_max=0)


@pytest.mark.parametrize("p, z_max", [(0.05, 300), (1.0 - math.exp(-1.0), 100), (0.5, 1)])
def test_fbeta_mixture_erlang_cdf_matches_gammainc(p, z_max):
    # with p = 0.05 stage 300 still weighs 1e-8, so every stage's numpy
    # Erlang CDF is seen; x runs from 0 to 2e300 without overflow
    mix = ErlangMixture(stage_rate=2.0, success_probability=p, z_max=z_max)
    tau = np.concatenate(([0.0], np.logspace(-9, 8, 400), [1e300]))
    z = np.arange(1, z_max + 1, dtype=np.float64)
    want = mix.weights() @ special.gammainc(z[:, None], mix.stage_rate * tau[None, :])
    got = fbeta_mixture(tau, mix)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - want)) < 1e-13
    assert got[0] == 0.0
    assert fbeta_mixture(0.0, mix) == 0.0


def test_fbeta_mixture_equals_closed_form():
    # geometric thinning of Poisson alarm epochs: the Erlang mixture
    # collapses to Exp(p * lambda_alpha) exactly
    q_total, period = 10_000, 10.0
    lam_alpha = q_total / period
    mix = ErlangMixture(stage_rate=lam_alpha)
    lam_beta = bearer_request_rate(q_total, period)
    tau = np.linspace(0.0, 10.0 / lam_beta, 101)
    got = fbeta_mixture(tau, mix)
    want = fbeta_closed_form(tau, q_total, period)
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)
    assert got[0] == 0.0
    assert np.all(np.diff(got) > 0.0)
    with pytest.raises(ValueError):
        fbeta_mixture(np.array([-1.0]), mix)


def test_ks_distance_exact_small_sample():
    # order statistics 1, 2, 3 against CDF x/4: the largest one-sided gap
    # is 0.25 (at the first and last points)
    d = ks_distance([1.0, 2.0, 3.0], lambda x: np.asarray(x) / 4.0)
    assert d == pytest.approx(0.25, abs=1e-15)
    with pytest.raises(ValueError):
        ks_distance([1.0], lambda x: x)


def test_ks_distance_discriminates():
    rng = np.random.default_rng(12)
    model = lambda x: -np.expm1(-2.0 * np.asarray(x))
    good = rng.exponential(0.5, size=5000)
    assert ks_distance(good, model) < ks_critical_value(5000)
    lattice = np.full(5000, 0.5)  # all mass at one point
    assert ks_distance(lattice, model) > 10 * ks_critical_value(5000)


def test_ks_critical_value_formula():
    # c(0.01) = 1.6276 (the asymptotic Kolmogorov quantile)
    assert ks_critical_value(100) == pytest.approx(0.16276, abs=2e-5)
    assert ks_critical_value(400) == pytest.approx(
        ks_critical_value(100) / 2.0, rel=1e-12)
    for n in (KS_MIN_SAMPLES, 51, 100, 4_999, 400_000):
        assert ks_critical_value(n) == KS_CRITICAL_C / math.sqrt(n)
    with pytest.raises(ValueError):
        ks_critical_value(KS_MIN_SAMPLES - 1)


def test_ks_critical_constant_is_kolmogi_at_the_significance():
    assert special.kolmogi(KS_SIGNIFICANCE) == KS_CRITICAL_C


@given(n=st.integers(2, 5_000), seed=st.integers(0, 2**32 - 1),
       form=st.sampled_from(["unsorted", "ties", "list"]))
@example(n=2, seed=0, form="unsorted")
@example(n=5_000, seed=1, form="ties")
@example(n=2, seed=2, form="list")
def test_ks_distance_equals_scipy_statistic_exactly(n, seed, form):
    # the numpy statistic repeats scipy.stats.ks_1samp's arithmetic, so the
    # two agree bit for bit, whatever the sample order, ties or input type
    model = lambda x: -np.expm1(-2.0 * np.asarray(x))
    sample = np.random.default_rng(seed).exponential(0.5, size=n)
    if form == "ties":
        sample = np.round(sample, 1)
    elif form == "list":
        sample = sample.tolist()
    assert ks_distance(sample, model) == stats.kstest(sample, model).statistic


def test_ks_report_text():
    rng = np.random.default_rng(5)
    sample = rng.exponential(1.0, size=200)
    d = ks_distance(sample, lambda x: -np.expm1(-np.asarray(x)))
    crit = ks_critical_value(200)
    assert ks_report(d, 200) == [f"ks_distance: {d:.6f}",
                                 f"ks_critical_01pct: {crit:.6f}",
                                 "ks_verdict_01pct: pass"]
    assert ks_report(1.01 * crit, 200)[-1] == "ks_verdict_01pct: fail"
    # below KS_MIN_SAMPLES the asymptotic critical value is not trusted
    assert ks_report(d, KS_MIN_SAMPLES - 1) == [
        f"ks_distance: {d:.6f}",
        f"low_confidence: fewer than {KS_MIN_SAMPLES} gaps, significance not assessed"]
    assert ks_report(float("nan"), 1)[0] == "ks_distance: nan"

