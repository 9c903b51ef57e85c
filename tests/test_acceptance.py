"""End-to-end acceptance criteria for the bearer-traffic and delay toolkit.

One test per criterion, each printing a single summary line when it
passes.  The criteria tie the generator, the analytic laws, the
simulator, and the controller to each other:

1. merged inter-request gaps converge to Exp(Q(1-e^-1)/T);
2. the truncated Erlang inter-request mixture equals the closed form;
3. forcing a Regular slot after a transmission moves the exact
   first-alarm CDF by at most twice the peak hazard, vanishing with the
   slot grid;
4. simulated M/D/1-PS mean sojourns match D/(1-rho);
5. the fitted exponential tail reproduces simulated delay percentiles
   at the stock operating point;
6. delay percentiles are insensitive to eNB/S-GW fan-out;
7. the threshold controller keeps the simulated p99 under target on a
   rising load ramp where the unscaled system fails;
8. per-window exponential fits recover a synthetic diurnal profile and
   the fitted rates are exactly scale-equivariant.
"""

import numpy as np

from conftest import drawn_population, one_device_law, poisson_stream
from erlang_mixture import ErlangMixture, fbeta_mixture
from miotcore.arrivals import (
    bearer_request_rate,
    exponential_cdf,
    ks_critical_value,
    ks_distance,
)
from miotcore.autoscale import ScalingPolicy, run_scaling_loop
from miotcore.config import DEFAULT_ENTITY_PROFILES
from miotcore.delay import (
    build_delay_model,
    delay_percentile,
)
from miotcore.simulator import (
    _ps_sojourns_equal_work,
    default_bearer_template,
    run_bearer_simulation,
    single_job_mode,
)
from miotcore.trace import make_diurnal_trace, window_and_fit
from miotcore.traffic import EventStream, TrafficParams, beta_pmf, generate_requests

PERIOD_S = 10.0
LAMBDA_BETA_10K = 632.1205588285577  # Q = 10^4 sources
D_MME = 9.0e-4


def test_criterion_1_merged_gaps_are_exponential():
    """Budget: under a minute; both runs take a few seconds."""
    params = TrafficParams()
    for n_groups, horizon, bound in ((10, 3200.0, 0.05), (100, 320.0, 0.02)):
        rng = np.random.default_rng(1)
        pop = drawn_population(50, n_groups, PERIOD_S, rng)
        stream = generate_requests(pop, params, horizon, rng)
        gaps = stream.gaps()
        assert gaps.size >= 100_000
        lam = bearer_request_rate(pop.q_total, PERIOD_S, params.tx_probability)
        ks = ks_distance(gaps, lambda x: exponential_cdf(lam, x))
        assert ks <= bound, (n_groups, ks)
        print(f"CRITERION 1 PASS: {n_groups} groups x 50 sources, "
              f"{gaps.size} gaps, KS vs Exp({lam:.2f}/s) = {ks:.4f} "
              f"<= {bound}")


def test_criterion_2_erlang_mixture_matches_closed_form():
    """Budget: well under a second."""
    q_total = 10_000
    lam_alpha = q_total / PERIOD_S
    mix = ErlangMixture(stage_rate=lam_alpha, z_max=100)
    lam_beta = bearer_request_rate(q_total, PERIOD_S, mix.success_probability)
    tau = np.linspace(0.0, 10.0 / lam_beta, 1000)
    gap = np.max(np.abs(fbeta_mixture(tau, mix) - exponential_cdf(lam_beta, tau)))
    assert gap <= 1e-9
    assert mix.truncation_bound <= 1e-9
    print(f"CRITERION 2 PASS: 100-stage Erlang mixture vs "
          f"1-exp(-lambda_beta tau) on 1000 points: max gap {gap:.2e} <= 1e-9")


def test_criterion_3_forced_slot_perturbs_cdf_by_at_most_peak_hazard():
    """Budget: about a second for all three grids."""
    sups = []
    for n_slots in (1_000, 10_000, 100_000):
        params = TrafficParams(period_s=PERIOD_S,
                               slot_delta_s=PERIOD_S / n_slots)
        f_max = float(beta_pmf(np.arange(1, n_slots + 1), n_slots).max())
        m = np.arange(1, n_slots + 1)
        sup = 0.0
        # probe the quietest and the densest reference slots
        for k in (0, int(0.4 * n_slots) - 1):
            plain = one_device_law(m, k, 0, params)
            forced = one_device_law(m, k, 0, params, forced=True)
            sup = max(sup, float(np.max(np.abs(plain - forced))))
        assert sup <= 2.0 * f_max, n_slots
        sups.append(sup)
    assert sups[0] > sups[1] > sups[2]
    print(f"CRITERION 3 PASS: sup|F - F_forced| = "
          f"{', '.join(f'{s:.2e}' for s in sups)} for N=1e3,1e4,1e5; "
          f"each <= 2 max f and shrinking")


def test_criterion_4_ps_mean_sojourn_matches_formula():
    """Budget: under two minutes; runs in a few seconds."""
    outcomes = []
    for rho in (0.3, 0.5, 0.8):
        stream = poisson_stream(rho / D_MME, 1_000_000, seed=int(rho * 1000))
        mean = float(_ps_sojourns_equal_work(stream.timestamps, D_MME).mean())
        want = D_MME / (1.0 - rho)
        err = mean / want - 1.0
        assert abs(err) <= 0.02, (rho, err)
        outcomes.append(f"rho={rho}: {err:+.2%}")
    print(f"CRITERION 4 PASS: 10^6-job mean sojourn vs D/(1-rho) within 2% "
          f"({'; '.join(outcomes)})")


def test_criterion_5_tail_model_matches_simulation_at_stock_load():
    """Budget: under three minutes; ~25 s dominated by the full walk."""
    model = build_delay_model(LAMBDA_BETA_10K, DEFAULT_ENTITY_PROFILES)
    tau90 = delay_percentile(0.90, model)
    tau99 = delay_percentile(0.99, model)

    # survival of the single-job queue at the model's own percentiles
    stream = poisson_stream(LAMBDA_BETA_10K, 1_000_000, seed=31)
    jobs = single_job_mode(stream, DEFAULT_ENTITY_PROFILES)
    s90 = float(np.mean(jobs.delays_s > tau90))
    s99 = float(np.mean(jobs.delays_s > tau99))
    assert abs(s90 / 0.10 - 1.0) <= 0.10, s90
    assert abs(s99 / 0.01 - 1.0) <= 0.10, s99

    # the full 19-message walk agrees with the analytic percentile
    rng = np.random.default_rng(41)
    pop = drawn_population(100, 100, PERIOD_S, rng)
    full_stream = generate_requests(pop, TrafficParams(), 316.3, rng)
    assert len(full_stream) >= 190_000
    samples, _ = run_bearer_simulation(
        full_stream, default_bearer_template(DEFAULT_ENTITY_PROFILES),
        DEFAULT_ENTITY_PROFILES, n_enb=100)
    p99 = samples.delay_percentile(0.99)
    err = p99 / tau99 - 1.0
    assert abs(err) <= 0.10, err
    print(f"CRITERION 5 PASS: rho={model.rho:.3f}: survival at p90/p99 off by "
          f"{s90 / 0.10 - 1.0:+.1%}/{s99 / 0.01 - 1.0:+.1%}; full-sim p99 "
          f"{p99:.6f} vs analytic {tau99:.6f} ({err:+.1%}), all within 10%")


def test_criterion_6_fanout_leaves_percentiles_unchanged():
    """Budget: under three minutes; two ~14 s walks over a shared stream."""
    rng = np.random.default_rng(21)
    pop = drawn_population(100, 150, PERIOD_S, rng)  # Q = 15,000
    stream = generate_requests(pop, TrafficParams(), 158.0, rng)
    template = default_bearer_template(DEFAULT_ENTITY_PROFILES)
    wide, _ = run_bearer_simulation(
        stream, template, DEFAULT_ENTITY_PROFILES, n_enb=150, n_sgw=1)
    narrow, _ = run_bearer_simulation(
        stream, template, DEFAULT_ENTITY_PROFILES, n_enb=50, n_sgw=4)
    p99_wide = wide.delay_percentile(0.99)
    p99_narrow = narrow.delay_percentile(0.99)
    diff = abs(p99_wide - p99_narrow) / p99_wide
    assert diff < 0.02, (p99_wide, p99_narrow)
    print(f"CRITERION 6 PASS: Q=15,000, p99 {p99_wide:.6f} (150 eNB/1 SGW) vs "
          f"{p99_narrow:.6f} (50 eNB/4 SGW): {diff:.2%} < 2%")


def test_criterion_7_controller_holds_target_on_rising_ramp():
    """Budget: under five minutes; ~5 s of solves plus window replays."""
    q_ramp = [8000, 12000, 16000, 20000, 26000, 32000, 38000, 42000]
    p = TrafficParams().tx_probability
    # window i holds Poisson requests at Q_i * p / T over [40 i, 40 (i + 1))
    trace = make_diurnal_trace(bearer_request_rate(1, PERIOD_S, p), q_ramp, 40.0, seed=7)
    windows = window_and_fit(trace, 40.0)
    policy = ScalingPolicy()  # 0.1 s target at p99, steps 1.0 / 2.0 / 2.5
    limit = policy.target_delay_s * 1.15
    # the stock routing's busiest-instance shares: one device of 10^4, one
    # eNB of 100 and one instance of each other entity
    shares = {**dict.fromkeys(DEFAULT_ENTITY_PROFILES, 1.0), "UE": 1e-4, "eNB": 0.01}

    records = run_scaling_loop(windows, DEFAULT_ENTITY_PROFILES, policy, shares)
    mults = [r.decision.multiplier for r in records]
    assert all(a <= b for a, b in zip(mults, mults[1:])), mults
    assert set(mults) == {1.0, 2.0, 2.5}, mults
    assert all(r.decision.feasible for r in records)
    worst = max(r.empirical_percentile_s for r in records)
    assert worst <= limit, worst

    # the fixed unit-capacity baseline loses the high-load windows
    baseline = ScalingPolicy(multipliers=(1.0,))
    fixed = run_scaling_loop(windows, DEFAULT_ENTITY_PROFILES, baseline, shares)
    worst_fixed = max(r.empirical_percentile_s for r in fixed)
    assert worst_fixed > limit, worst_fixed
    assert not all(r.decision.feasible for r in fixed)
    print(f"CRITERION 7 PASS: ramp Q=8k..42k -> multipliers {mults} "
          f"(monotone through 1.0/2.0/2.5), worst window p99 {worst:.4f} s "
          f"<= {limit:.3f} s; fixed x1.0 baseline reaches {worst_fixed:.1f} s")


def test_criterion_8_diurnal_windows_fit_and_scale():
    """Budget: under a minute; runs in a couple of seconds."""
    stream = make_diurnal_trace(3.0, seed=13)  # 8 windows of 3600 s
    windows = window_and_fit(stream, 3600.0)
    assert len(windows) == 8
    passing = sum(
        1 for w in windows
        if w.ks_statistic <= ks_critical_value(w.n_events - 1))
    assert passing >= 7, passing

    doubled = window_and_fit(EventStream(2.0 * stream.timestamps), 7200.0)
    for a, b in zip(windows, doubled):
        assert b.rate_hat == a.rate_hat / 2.0  # bitwise, not approximate
    print(f"CRITERION 8 PASS: {passing}/8 diurnal windows pass the 1% KS fit; "
          f"doubling timestamps exactly halves every fitted rate")
