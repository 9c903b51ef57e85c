"""Tail delay model: criticality exponent, gamma/psi fit, survival inverse.

The g(rho) reference values below were computed independently with a
five-times-finer backward march (2500 grid points per service time) and
are frozen here as regression oracles; the march of scripts/gen_g_table.py
runs at 500 points per service time and must stay within 5e-5 relative.
The g table that the model reads is checked against that march itself.
"""

import math
import time
import warnings

import numpy as np
import pytest

from conftest import poisson_stream
from miotcore.delay import (
    ENTITY_MME,
    ENTITY_NAMES,
    DelayModelParams,
    EntityProfile,
    build_delay_model,
    constant_delay_K,
    delay_percentile,
    delay_survival,
    g_table_node_rhos,
    instance_loads,
    psi_coefficient,
    save_survival_csv,
    tail_exponent,
)
from miotcore._g_table import H
from miotcore.config import DEFAULT_ENTITY_PROFILES, scenario_from_dict
from miotcore.errors import ConfigurationError, NumericalError, OverloadError
from miotcore.simulator import single_job_mode

from gen_g_table import criticality_exponent

# independently marched blow-up points g(rho) of the virtual-time cluster
# fixed point; gamma = g(rho) / D
G_TABLE = {
    0.10: 2.8114091,
    0.15: 2.2918090,
    0.20: 1.9227311,
    0.25: 1.6375435,
    0.30: 1.4061504,
    0.35: 1.2123124,
    0.40: 1.0462386,
    0.45: 0.9015576,
    0.50: 0.7738840,
    0.55: 0.6600668,
    0.60: 0.5577632,
    0.65: 0.4651828,
    0.70: 0.3809257,
    0.75: 0.3038756,
    0.80: 0.2331277,
    0.85: 0.1679383,
    0.90: 0.1076883,
    0.95: 0.0518565,
}

# g(rho) above the g table from the march of scripts/gen_g_table.py,
# frozen because the march there takes 30 s to 2 min per load
G_ABOVE_TABLE = {
    0.996: 0.004011522550502545,
    0.998: 0.0020028768698733797,
    0.999: 0.0010007187393420843,
}

# stock scenario: Q = 10^4 sources, T = 10 s, MME at 10^4 ops/s
LAMBDA_BETA = 632.1205588285577
D_MME = 9.0e-4
RHO = 0.5689085029457019
GAMMA = 689.0347124848943
PSI = 1.5352746797748187
K_CONST = 0.0055
P99 = 0.012805697963087257

RHO_STAR = 2.0 - math.sqrt(2.0)


def test_entity_profile_validation():
    good = EntityProfile("MME", 9.0, 10_000.0)
    assert good.per_bearer_delay == pytest.approx(9.0e-4, rel=1e-15)
    with pytest.raises(ConfigurationError):
        EntityProfile("MME", 0.0, 10_000.0)
    with pytest.raises(ConfigurationError):
        EntityProfile("MME", 9.0, 0.0)


def test_constant_delay_default_profiles(profiles):
    # K = 3/1000 + 2/1000 + 1/10^4 + 3/10^4 + 1/10^4 = 5.5 ms
    assert constant_delay_K(profiles) == pytest.approx(K_CONST, rel=1e-14)
    # a mapping that lacks an entity names it, never giving a smaller K
    with pytest.raises(ConfigurationError, match="HSS"):
        constant_delay_K({n: p for n, p in profiles.items() if n != "HSS"})


def test_instance_loads_and_overload(profiles):
    loads = instance_loads({"MME": LAMBDA_BETA, "eNB": LAMBDA_BETA / 100}, profiles)
    assert loads["MME"] == pytest.approx(RHO, rel=1e-14)
    assert loads["eNB"] == pytest.approx(LAMBDA_BETA / 100 * 2e-3, rel=1e-14)
    # the largest load is refused, naming its entity, whatever the entity
    for name, rate, rho in (("MME", 1200.0, 1.08), ("eNB", 750.0, 1.5),
                            ("UE", 400.0, 1.2)):
        with pytest.raises(OverloadError, match=f"^{name} overloaded: rho=") as info:
            instance_loads({"MME": 500.0, name: rate}, profiles)
        assert info.value.min_capacity_multiplier == pytest.approx(rho, rel=1e-12)
    for rate in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="HSS: rate"):
            instance_loads({"MME": 10.0, "HSS": rate}, profiles)


def _scenario_loads(**topology):
    """Per-instance loads of the stock entities at the model's rate, with
    a slow UE and eNB (25 ms per bearer each) and 100 sources in 1 group."""
    rows = [{"entity": e, "ops_per_bearer": 25.0 if e in ("UE", "eNB") else p.ops_per_bearer,
             "capacity": p.capacity} for e, p in DEFAULT_ENTITY_PROFILES.items()]
    sc = scenario_from_dict({
        "traffic": {"period_s": 10.0, "q_total": 100, "n_groups": 1},
        "entities": {"profiles": rows}, "topology": topology})
    return instance_loads(sc.instance_rates(sc.lambda_beta()), sc.profiles)


def test_mme_dominance_warning(profiles):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        instance_loads({name: LAMBDA_BETA for name in ("MME", "HSS", "SGW", "PGW")},
                       profiles)
    slow_hss = {**profiles, "HSS": EntityProfile("HSS", 10.0, 10_000.0)}
    with pytest.warns(UserWarning, match="MME is not the bottleneck: HSS"):
        instance_loads({"MME": LAMBDA_BETA, "HSS": LAMBDA_BETA}, slow_hss)
    # a UE serves one device's share, so a slow UE is no bottleneck; an eNB
    # that serves every device is, and n_enb spreads it
    with pytest.warns(UserWarning, match="MME is not the bottleneck: eNB") as caught:
        loads = _scenario_loads(n_enb=1)
    assert len(caught) == 1
    assert loads["UE"] == pytest.approx(LAMBDA_BETA / 10_000 * 0.025, rel=1e-12)
    assert loads["eNB"] == pytest.approx(100 * loads["UE"], rel=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loads = _scenario_loads(n_enb=100)
    assert loads["eNB"] == pytest.approx(loads["UE"], rel=1e-12)
    assert max(loads, key=loads.get) == "MME"


def test_criticality_exponent_against_fine_march():
    for rho, g_ref in G_TABLE.items():
        assert criticality_exponent(rho) == pytest.approx(g_ref, rel=5e-5), rho


def test_criticality_exponent_structural_identity():
    # gamma = lambda_beta exactly at rho = 2 - sqrt(2), i.e. g(rho*) = rho*
    assert criticality_exponent(RHO_STAR) == pytest.approx(RHO_STAR, abs=5e-5)
    with pytest.raises(OverloadError):
        criticality_exponent(1.0)
    with pytest.raises(OverloadError):
        criticality_exponent(0.0)


def test_closed_form_gamma_consistency(profiles):
    gamma = tail_exponent(RHO) / D_MME
    assert gamma == pytest.approx(GAMMA, rel=1e-9)
    # gamma solves the characteristic gamma * D - g(rho) = 0 of the march
    assert abs(gamma * D_MME - criticality_exponent(RHO)) < 1e-8
    for rho in (0.0, 1.0, 2000.0 * D_MME, math.nan):
        with pytest.raises(OverloadError):
            tail_exponent(rho)
    with pytest.raises(OverloadError):
        build_delay_model(2000.0, profiles)
    with pytest.raises(ValueError):
        build_delay_model(0.0, profiles)


def test_g_table_matches_march_off_nodes():
    # off-node loads up to rho 0.95; above 0.95 one march takes from 5 s
    # to over 30 s
    for rho in (0.1, 0.3, 0.5, RHO, 0.7, 0.8, 0.9, 0.95):
        assert tail_exponent(rho) == pytest.approx(
            criticality_exponent(rho), rel=1e-11), rho


def test_g_table_nodes_equal_march():
    # drift guard: the committed table was generated from this march
    nodes = g_table_node_rhos(len(H))
    assert nodes[-1] == pytest.approx(1e-6, rel=1e-13)
    assert nodes[0] == pytest.approx(0.995, rel=1e-15)
    for j in (87, 60, 44, 32, 24):
        assert nodes[j] <= 0.95
        assert criticality_exponent(nodes[j]) / (1.0 - nodes[j]) == H[j], nodes[j]


def test_light_piece_matches_march_off_nodes():
    # light loads, near the table's floor at rho = 1e-6
    for rho in (2e-6, 3e-5, 4e-4, 5e-3):
        assert tail_exponent(rho) == pytest.approx(
            criticality_exponent(rho), rel=1e-12), rho


def test_g_above_the_table_holds_q():
    # g = u * (1 + u * q) with u = 1 - rho and q held at its last node
    for rho, g in G_ABOVE_TABLE.items():
        assert tail_exponent(rho) == pytest.approx(g, rel=1e-5), rho
    u = 1.0 - math.nextafter(1.0, 0.0)
    assert tail_exponent(1.0 - u) == pytest.approx(u, rel=1e-15)


def test_g_below_the_floor_is_held():
    # g falls as rho rises, so the held value over-predicts delay
    floor = tail_exponent(1e-6)
    for rho in (1e-7, 1e-8, 1e-300, 5e-324):
        assert tail_exponent(rho) == floor, rho
    for rho in (1e-7, 1e-8):
        assert floor <= criticality_exponent(rho), rho


def test_g_continuous_at_piece_joints():
    # the table meets its two holds
    for joint in (1e-6, 0.995):
        below = tail_exponent(joint * (1.0 - 1e-13))
        above = tail_exponent(joint * (1.0 + 1e-13))
        assert above == pytest.approx(below, rel=1e-11), joint


def test_build_delay_model_at_extreme_loads_reads_the_table(profiles):
    # a march costs 0.3 s per load below rho 0.01 and minutes near 1;
    # the table answers in microseconds at every load
    for rho in (1e-5, 0.9999):
        start = time.perf_counter()
        model = build_delay_model(rho / D_MME, profiles)
        assert time.perf_counter() - start < 0.05, rho
        assert model.gamma == pytest.approx(tail_exponent(model.rho) / D_MME, rel=1e-15)
        assert model.psi > 0.0 and math.isfinite(delay_percentile(0.99, model))


def test_gamma_monotone_decreasing_in_load(profiles):
    rhos = [0.1, 0.2, 0.3, 0.45, RHO, 0.7, 0.8, 0.9]
    gammas = [build_delay_model(r / D_MME, profiles).gamma for r in rhos]
    assert all(a > b for a, b in zip(gammas, gammas[1:]))
    # eyeball anchors at the ends of the operating range
    assert gammas[0] == pytest.approx(3123.8, rel=2e-3)
    assert gammas[-1] == pytest.approx(119.65, rel=2e-3)


def test_psi_coefficient_hand_value_and_degenerate_denominator():
    # psi = (1-rho)(lambda-gamma) / (2 lambda (1-rho) - gamma rho (2-rho))
    assert psi_coefficient(100.0, 0.5, 30.0) == pytest.approx(
        35.0 / 77.5, rel=1e-14)
    with pytest.raises(NumericalError):
        psi_coefficient(100.0, 0.5, 400.0 / 3.0)
    with pytest.raises(OverloadError):
        psi_coefficient(100.0, 1.0, 30.0)


def test_build_delay_model_stock_scenario(profiles):
    model = build_delay_model(LAMBDA_BETA, profiles)
    assert model.D == pytest.approx(D_MME, rel=1e-15)
    assert model.rho == pytest.approx(RHO, rel=1e-14)
    assert model.K == pytest.approx(K_CONST, rel=1e-14)
    assert model.gamma == pytest.approx(GAMMA, rel=1e-9)
    assert model.psi == pytest.approx(PSI, rel=1e-9)
    assert model.tau0 == pytest.approx(6.221882609704e-4, rel=1e-8)
    assert model.validity_threshold == pytest.approx(
        K_CONST + 6.221882609704e-4, rel=1e-8)
    text = model.summary()
    for token in ("D_s:", "rho:", "psi:", "gamma_per_s:", "K_s:", "tau0_s:"):
        assert token in text


def test_psi_smooth_through_gamma_lambda_crossing(profiles):
    # at rho* = 2 - sqrt(2) the raw psi ratio is 0/0; the model must still
    # produce a finite value ~ 1.5 varying smoothly through the crossing
    mme = profiles[ENTITY_MME]
    lam_star = RHO_STAR / mme.per_bearer_delay
    psis = [build_delay_model(lam_star * (1.0 + e), profiles).psi
            for e in (-4e-3, -1e-3, 0.0, 1e-3, 4e-3)]
    assert all(1.40 < p < 1.65 for p in psis)
    assert max(psis) - min(psis) < 0.05
    assert psis[2] == pytest.approx(1.50, abs=0.02)


def test_delay_model_params_validation():
    with pytest.raises(ValueError):
        DelayModelParams(D=0.0, rho=0.5, psi=1.2, gamma=100.0, K=0.0)
    with pytest.raises(OverloadError):
        DelayModelParams(D=1e-3, rho=1.2, psi=1.2, gamma=100.0, K=0.0)
    with pytest.raises(ValueError):
        DelayModelParams(D=1e-3, rho=0.5, psi=0.0, gamma=100.0, K=0.0)
    with pytest.raises(ValueError):
        DelayModelParams(D=1e-3, rho=0.5, psi=1.2, gamma=0.0, K=0.0)
    with pytest.raises(ValueError):
        DelayModelParams(D=1e-3, rho=0.5, psi=1.2, gamma=100.0, K=-1.0)


def test_survival_and_percentile_inverse(profiles):
    model = build_delay_model(LAMBDA_BETA, profiles)
    for p in (0.5, 0.9, 0.99, 0.999):
        tau_p = delay_percentile(p, model)
        assert delay_survival(tau_p, model) == pytest.approx(1.0 - p, abs=1e-12)
    assert delay_percentile(0.99, model) == pytest.approx(P99, rel=1e-9)
    # strictly increasing in p
    taus = [delay_percentile(p, model) for p in (0.5, 0.9, 0.99, 0.999)]
    assert all(a < b for a, b in zip(taus, taus[1:]))
    with pytest.raises(ValueError):
        delay_percentile(0.0, model)
    with pytest.raises(ValueError):
        delay_percentile(1.0, model)


# Relative error a single 10^6-job run may show between the model's
# percentile and the single-job queue's, set before the seeds were.  A
# per-run bound holds only where one run's spread is well inside it: at
# rho 0.8 and above single runs read -1.3% to -23% at p99 and p99.9, so
# those loads need a bound on the mean over replications instead.
TAIL_RTOL = 0.03
TAIL_POINTS = {0.1: (0.9, 0.99, 0.999), 0.3: (0.9, 0.99, 0.999),
               0.57: (0.9, 0.99, 0.999), 0.7: (0.9, 0.99)}


def test_tail_model_matches_the_single_job_queue_across_loads(profiles):
    # delay_percentile is what predict reports and single_job_mode the
    # exact M/D/1-PS queue with the same K that simulate --single-job runs
    d_mme = profiles[ENTITY_MME].per_bearer_delay
    k_const = constant_delay_K(profiles)
    residuals = {}
    for seed, (rho, ps) in enumerate(TAIL_POINTS.items(), start=1):
        model = build_delay_model(rho / d_mme, profiles)
        stream = poisson_stream(rho / d_mme, 1_000_000, seed=seed)
        samples = single_job_mode(stream, profiles[ENTITY_MME], k_const)
        for p in ps:
            residuals[rho, p] = delay_percentile(p, model) / samples.delay_percentile(p) - 1.0
    assert all(abs(r) <= TAIL_RTOL for r in residuals.values()), residuals


def test_percentile_below_tail_region_rejected():
    shallow = DelayModelParams(D=1e-3, rho=0.5, psi=0.5, gamma=700.0, K=0.0)
    with pytest.raises(ValueError, match="simulator"):
        delay_percentile(0.2, shallow)


def test_survival_clamp_and_vectorization(profiles):
    model = build_delay_model(LAMBDA_BETA, profiles)
    with pytest.warns(UserWarning, match="clamped"):
        low = delay_survival(0.5 * model.validity_threshold, model)
    assert low == 1.0
    tau = np.linspace(model.validity_threshold, 0.05, 64)
    surv = delay_survival(tau, model)
    assert surv.shape == tau.shape
    assert np.all(np.diff(surv) < 0.0)
    assert np.all((surv > 0.0) & (surv <= 1.0))
    expected = model.psi * np.exp(-model.gamma * (tau - model.K))
    assert np.allclose(surv, np.minimum(expected, 1.0), rtol=1e-13)
    with pytest.raises(ValueError):
        delay_survival(-1e-9, model)


def test_percentile_increases_with_rate(profiles):
    lams = [r / D_MME for r in (0.1, 0.3, RHO, 0.8, 0.9)]
    taus = [delay_percentile(0.99, build_delay_model(lam, profiles))
            for lam in lams]
    assert all(a < b for a, b in zip(taus, taus[1:]))


def test_survival_increases_with_load_at_fixed_delay(profiles):
    # at any fixed tau = K + m * D inside the validity region, more load
    # means more survival mass beyond tau
    rhos = [0.2, 0.35, 0.5, 0.65, 0.8, 0.9]
    models = [build_delay_model(r / D_MME, profiles) for r in rhos]
    for m in (0.8, 1.0, 1.5, 2.0, 3.0, 5.0):
        tau = K_CONST + m * D_MME
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            vals = [delay_survival(tau, mod) for mod in models]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:])), m


def test_build_delay_model_requires_mme(profiles):
    without = {n: p for n, p in profiles.items() if n != ENTITY_MME}
    with pytest.raises(KeyError, match=ENTITY_MME):
        build_delay_model(LAMBDA_BETA, without)
    assert set(ENTITY_NAMES) == {"UE", "eNB", "MME", "HSS", "SGW", "PGW"}


def test_save_survival_csv(tmp_path, profiles):
    model = build_delay_model(LAMBDA_BETA, profiles)
    path = tmp_path / "survival.csv"
    grid = np.linspace(0.0, 0.03, 16)  # includes clamped points
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # writer must swallow clamp warnings
        save_survival_csv(path, model, grid)
    lines = path.read_text().splitlines()
    assert lines[0] == "tau_s,survival"
    assert len(lines) == 17
    first = [float(x) for x in lines[1].split(",")]
    assert first == [0.0, 1.0]
