"""First-alarm and inter-request laws: exact CDFs, limits, KS helpers."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy import special, stats

from conftest import one_device_law
from erlang_mixture import ErlangMixture, fbeta_mixture
from miotcore import arrivals
from miotcore.arrivals import (
    KS_CRITICAL_C,
    KS_MIN_SAMPLES,
    bearer_request_rate,
    exponential_cdf,
    falpha_system_discrete,
    ks_critical_value,
    ks_distance,
    ks_report,
    ks_verdict,
)
from miotcore.traffic import SourcePopulation, TrafficParams, beta_pmf, generate_requests

SMALL = TrafficParams(period_s=10.0, slot_delta_s=0.05)  # 200 slots


def _hazard(params):
    return beta_pmf(np.arange(1, params.n_slots + 1), params.n_slots)


def _brute_single_cdf(m_values, k, offset, params, forced=False):
    """Direct product over slots: P(alpha <= m) = 1 - prod (1 - f)."""
    f = _hazard(params)
    n = params.n_slots
    s = (k + offset) % n
    out = []
    for m in m_values:
        start = 2 if forced else 1
        surv = 1.0
        for j in range(start, m + 1):
            surv *= 1.0 - f[(s + j - 1) % n]
        out.append(1.0 - surv)
    return np.array(out)


def test_bearer_request_rate_values():
    # lambda_beta = Q (1 - e^-1) / T
    p = TrafficParams().tx_probability
    assert bearer_request_rate(10_000, 10.0, p) == pytest.approx(
        632.1205588285577, rel=1e-13)
    assert bearer_request_rate(15_000, 10.0, p) == pytest.approx(
        948.1808382428365, rel=1e-13)
    assert bearer_request_rate(100, 10.0, tx_probability=0.5) == 5.0
    with pytest.raises(ValueError):
        bearer_request_rate(0, 10.0, p)
    with pytest.raises(ValueError):
        bearer_request_rate(10, 0.0, p)


def test_one_device_law_matches_direct_product():
    m_values = [1, 2, 3, 10, 37, 80, 120, 199, 200, 350]
    for k, offset in [(0, 0), (5, 0), (0, 63), (57, 120)]:
        for forced in (False, True):
            fast = one_device_law(np.array(m_values), k, offset, SMALL, forced)
            direct = _brute_single_cdf(m_values, k, offset, SMALL, forced)
            assert np.allclose(fast, direct, rtol=0.0, atol=1e-12)


def test_one_device_law_properties():
    m = np.arange(1, 3 * SMALL.n_slots)
    cdf = one_device_law(m, 17, 0, SMALL)
    assert np.all(np.diff(cdf) >= 0.0)
    assert np.all((cdf >= 0.0) & (cdf <= 1.0))
    # one expected alarm per period: three periods out the CDF is ~ 1 - e^-3
    assert cdf[-1] > 0.93
    assert one_device_law(1, 17, 0, SMALL) == pytest.approx(
        _hazard(SMALL)[18 - 1], rel=1e-12)
    with pytest.raises(ValueError):
        one_device_law(0, 0, 0, SMALL)
    with pytest.raises(ValueError):
        one_device_law(np.array([1.5]), 0, 0, SMALL)
    with pytest.raises(ValueError):
        one_device_law(1, SMALL.n_slots, 0, SMALL)


def _assert_forced_slot_identity(plain, forced, first_hazard):
    # F - F_forced = f(s+1) (1 - F_forced): forcing the transmitter's next
    # slot Regular only removes that slot's hazard
    identity = first_hazard * (1.0 - forced)
    assert np.allclose(plain - forced, identity, rtol=0.0, atol=1e-12)
    assert np.all(plain - forced >= -1e-15)
    assert np.max(plain - forced) <= 2.0 * _hazard(SMALL).max()


def test_forced_slot_identity_and_bound():
    f = _hazard(SMALL)
    m = np.arange(1, 2 * SMALL.n_slots)
    for k in (0, 79, 150):
        _assert_forced_slot_identity(one_device_law(m, k, 0, SMALL),
                                     one_device_law(m, k, 0, SMALL, forced=True),
                                     f[k % SMALL.n_slots])


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
        single = one_device_law(m, k, offs_slots[0], SMALL)
        assert np.all(fast >= single - 1e-15)


def test_falpha_system_transmitter_group_is_forced():
    # the one-device identity holds for the merged law too, with s + 1 the
    # slot after the transmitter group's own phase
    pop = SourcePopulation(group_size=3, n_groups=2, offsets_s=(0.0, 5.0))
    f = _hazard(SMALL)
    m = np.arange(1, 300)
    for k in (10, 150):
        plain = falpha_system_discrete(m, k, pop, SMALL)
        for g, off in enumerate((0, 100)):
            forced = falpha_system_discrete(m, k, pop, SMALL, transmitter_group=g)
            _assert_forced_slot_identity(plain, forced, f[(k + off) % SMALL.n_slots])


def test_offsets_outside_the_period_are_refused():
    # an offset of 12 s on a 10 s period is an error, not 2 s, for the
    # exact law and the generator alike
    m = np.arange(1, 50)
    for offsets in ((12.0,), (10.0,), (2.0, 10.5)):
        pop = SourcePopulation(group_size=2, n_groups=len(offsets), offsets_s=offsets)
        with pytest.raises(ValueError, match=r"offsets must lie in \[0, period_s\)"):
            falpha_system_discrete(m, 0, pop, SMALL)
        with pytest.raises(ValueError, match=r"offsets must lie in \[0, period_s\)"):
            generate_requests(pop, SMALL, 20.0, seed=0)
    inside = SourcePopulation(group_size=2, n_groups=2, offsets_s=(0.0, 9.99))
    assert falpha_system_discrete(m, 0, inside, SMALL).shape == m.shape


def test_single_source_offsets_outside_the_grid_are_refused():
    # N + 5, -195, N and -1 slots are errors on the 200-slot grid, not
    # slot 5 again, for the device's plain and forced laws alike: the
    # population refuses a negative offset, the law one past the period
    m = np.arange(1, 50)
    for bad in (SMALL.n_slots + 5, -195, SMALL.n_slots, -1):
        for forced in (False, True):
            with pytest.raises(ValueError, match="offsets must "):
                one_device_law(m, 0, bad, SMALL, forced)
    # in range the laws are bit for bit those computed before offsets were
    # checked, when a separate one-source law took its offset in slots
    m = np.arange(1, 3 * SMALL.n_slots)
    digest = hashlib.sha256()
    for k in (0, 17, 199):
        for offset in (0, 5, 120, 199):
            for forced in (False, True):
                digest.update(one_device_law(m, k, offset, SMALL, forced).tobytes())
    assert digest.hexdigest() == (
        "cc56ae1893e1f6b4962e837c33cf6d50887a1170d0491e731b2908561d086f7e")


# the finite-Q population of the differential tests: Q = 10 sources, each
# alarm a request, so the exact laws describe the generated stream itself
DIFF_POP = SourcePopulation(group_size=5, n_groups=2, offsets_s=(2.5, 6.0))


def _discrete_ks(lags, cdf):
    """sup_m |ECDF(m) - F(m)| for integer lags, with cdf[i] = F(i + 1).

    Both CDFs are steps at the integers, so their largest gap is at an
    integer; ks_distance would also compare F(m) with the ECDF just below
    m, which on a coarse grid reads a whole slot's jump of F as a gap.
    """
    assert lags.min() >= 1 and lags.max() <= cdf.size
    ecdf = np.cumsum(np.bincount(lags, minlength=cdf.size + 1)[1:]) / lags.size
    return float(np.max(np.abs(ecdf - cdf)))


def _request_slots(stream, params):
    return np.rint(stream.timestamps / params.slot_delta_s).astype(np.int64)


def test_generator_matches_the_exact_system_law_at_finite_q():
    # the lag from clock slot k to the next request, once per period, is
    # distributed as falpha_system_discrete(., k); the same sample must
    # reject the law of a clock half a period away and of mirrored offsets
    params = TrafficParams(period_s=10.0, slot_delta_s=1e-3, tx_probability=1.0)
    n_periods, n = 4000, params.n_slots
    stream = generate_requests(DIFF_POP, params, n_periods * params.period_s, seed=123)
    slots = _request_slots(stream, params)
    mirrored = SourcePopulation(group_size=5, n_groups=2, offsets_s=(7.5, 4.0))
    m = np.arange(1, 3 * n)
    crit = ks_critical_value(n_periods - 1)
    for k in (0, 3000, 7000):
        anchors = np.arange(n_periods - 1) * n + k
        lags = slots[np.searchsorted(slots, anchors, side="right")] - anchors
        d = _discrete_ks(lags, falpha_system_discrete(m, k, DIFF_POP, params))
        assert d < crit, (k, d, crit)  # 0.0091, 0.0119, 0.0118 < 0.0257
        if k == 3000:
            late = falpha_system_discrete(m, k + 500, DIFF_POP, params)
            assert _discrete_ks(lags, late) > crit  # 0.072
            wrong = falpha_system_discrete(m, k, mirrored, params)
            assert _discrete_ks(lags, wrong) > crit  # 0.120


def test_generator_matches_the_exact_law_after_a_transmission():
    # pooled over the requests of group g, the lag to the next request in a
    # later slot follows the phase-weighted mixture of the law with one
    # source of g forced Regular; the plain law and the other group's
    # forced law must both fail on the same sample
    params = TrafficParams(period_s=10.0, slot_delta_s=0.1, tx_probability=1.0)
    n_periods, n = 20_000, params.n_slots
    stream = generate_requests(DIFF_POP, params, n_periods * params.period_s, seed=123)
    slots = _request_slots(stream, params)
    group = stream.source_ids // DIFF_POP.group_size
    m = np.arange(1, 3 * n)
    laws = {tg: np.array([falpha_system_discrete(m, k, DIFF_POP, params,
                                                 transmitter_group=tg)
                          for k in range(n)])
            for tg in (0, 1, None)}
    for g in (0, 1):
        at = slots[group == g]
        nxt = np.searchsorted(slots, at, side="right")
        keep = nxt < slots.size  # the last requests have no successor
        at, lags = at[keep], slots[nxt[keep]] - at[keep]
        weights = np.bincount(at % n, minlength=n) / at.size
        crit = ks_critical_value(lags.size)
        d = {tg: _discrete_ks(lags, weights @ law) for tg, law in laws.items()}
        assert d[g] < crit, (g, d, crit)  # 0.0018-0.0022 < 0.0052
        assert d[None] > crit and d[1 - g] > crit, (g, d, crit)  # 0.0148, 0.009


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
    lam_beta = bearer_request_rate(q_total, period, mix.success_probability)
    tau = np.linspace(0.0, 10.0 / lam_beta, 101)
    got = fbeta_mixture(tau, mix)
    want = exponential_cdf(lam_beta, tau)
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)
    assert got[0] == 0.0
    assert np.all(np.diff(got) > 0.0)
    assert exponential_cdf(2.0, 0.5) == pytest.approx(-math.expm1(-1.0), rel=1e-15)
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


def _one_shot_ks(samples, model_cdf):
    """The KS distance as one pass over one sorted copy of the samples."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = x.size
    cdf = model_cdf(x)
    d_plus = float(np.max(np.arange(1.0, n + 1) / n - cdf))
    d_minus = float(np.max(cdf - np.arange(0.0, n) / n))
    return d_plus if d_plus > d_minus else d_minus


@pytest.mark.parametrize("extra", [-1, 0, 1, "3x+7"])
@pytest.mark.parametrize("form", ["sorted", "shuffled", "nan"])
def test_chunked_ks_distance_equals_the_one_pass_formula_bit_for_bit(extra, form):
    # chunk maxima, and samples left unsorted when already in order, give
    # the float one pass over a sorted copy gives, at sizes around the
    # chunk; a NaN makes both NaN (whose sign bit numpy's max does not fix)
    chunk = arrivals._KS_CHUNK
    n = 3 * chunk + 7 if extra == "3x+7" else chunk + extra
    rng = np.random.default_rng(n)
    sample = np.sort(rng.exponential(0.5, size=n))
    if form != "sorted":
        rng.shuffle(sample)
    if form == "nan":
        sample[rng.integers(n)] = np.nan
    model = lambda x: exponential_cdf(2.0, x)
    got = ks_distance(sample, model)
    want = _one_shot_ks(sample, model)
    if form == "nan":
        assert math.isnan(got) and math.isnan(want)
    else:
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


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
    assert special.kolmogi(0.01) == KS_CRITICAL_C


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


def test_ks_verdict_is_the_one_pass_rule():
    # pass up to and including c/sqrt(n), fail above, no verdict below
    # KS_MIN_SAMPLES; ks_report and the window report both read it
    for n in (KS_MIN_SAMPLES, 200):
        crit = ks_critical_value(n)
        assert ks_verdict(crit, n) is True
        assert ks_verdict(math.nextafter(crit, 1.0), n) is False
    assert ks_verdict(0.0, KS_MIN_SAMPLES - 1) is None
    assert ks_verdict(float("nan"), 200) is False

