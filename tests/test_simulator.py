"""Event-driven PS simulator: exact schedules, invariants, procedure walks."""

import hashlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import by_name, poisson_stream, with_mme_ops
from miotcore.autoscale import ScalingPolicy, scaled_profiles
from miotcore.cli import _replication_stream
from miotcore.config import DEFAULT_ENTITY_PROFILES, scenario_from_dict
from miotcore.delay import EntityProfile, constant_delay_K
from miotcore.errors import ConfigurationError, OverloadError
from miotcore.simulator import (
    DelaySampleSet,
    MessageHop,
    ProcedureTemplate,
    _ps_sojourns_equal_work,
    _quantile_linear,
    default_bearer_template,
    run_bearer_simulation,
    single_job_mode,
)
from miotcore.traffic import EventStream

D_MME = 9.0e-4
K_CONST = 0.0055
# the stock profiles in reverse order: their K sums to exactly K_CONST,
# where the stock order's sum is 0.0055000000000000005
REVERSED_PROFILES = dict(reversed(DEFAULT_ENTITY_PROFILES.items()))


def test_message_hop_and_template_validation():
    with pytest.raises(ConfigurationError):
        MessageHop("MME", 0.0)
    with pytest.raises(ConfigurationError):
        ProcedureTemplate(hops=())
    with pytest.raises(ConfigurationError):
        ProcedureTemplate(hops=("MME",))
    template = ProcedureTemplate(hops=(MessageHop("MME", 1.0), MessageHop("UE", 2.0)))
    assert template.n_hops == 2
    assert template.entities() == ("MME", "UE")
    assert template.work_by_entity() == {"MME": 1.0, "UE": 2.0}


def test_template_validate_against_profiles():
    hops = (MessageHop("MME", 4.0), MessageHop("MME", 5.0),
            MessageHop("UE", 3.0))
    template = ProcedureTemplate(hops=hops)
    profiles = by_name(EntityProfile("MME", 9.0, 10_000.0),
                       EntityProfile("UE", 3.0, 1000.0))
    template.validate_against(profiles)
    short = by_name(EntityProfile("MME", 8.0, 10_000.0),
                    EntityProfile("UE", 3.0, 1000.0))
    with pytest.raises(ConfigurationError):
        template.validate_against(short)
    with pytest.raises(ConfigurationError):
        template.validate_against({"MME": profiles["MME"]})  # UE profile missing


def test_default_bearer_template_shape():
    template = default_bearer_template(DEFAULT_ENTITY_PROFILES)
    # one hop per protocol message: 3 UE + 2 eNB + 9 MME + 1 HSS + 3 SGW + 1 PGW
    assert template.n_hops == 19
    counts = {}
    for hop in template.hops:
        counts[hop.entity] = counts.get(hop.entity, 0) + 1
    assert counts == {"UE": 3, "eNB": 2, "MME": 9, "HSS": 1, "SGW": 3, "PGW": 1}
    # per-entity work sums to the profile totals (equal split per message)
    for prof in DEFAULT_ENTITY_PROFILES.values():
        assert template.work_by_entity()[prof.entity] == pytest.approx(
            prof.ops_per_bearer, rel=1e-12)
    # the walk ends with the connection release toward the device
    assert template.hops[-1].entity == "UE"
    template.validate_against(DEFAULT_ENTITY_PROFILES)


def test_stock_profiles_built_by_hand_walk_the_default_template():
    # a profile is work and capacity alone: the template takes each entity's
    # message count from its own plan, so these six walk as the stock ones
    profiles = by_name(
        EntityProfile("UE", 3.0, 1000.0), EntityProfile("eNB", 2.0, 1000.0),
        EntityProfile("MME", 9.0, 10000.0), EntityProfile("HSS", 1.0, 10000.0),
        EntityProfile("SGW", 3.0, 10000.0), EntityProfile("PGW", 1.0, 10000.0))
    template = default_bearer_template(profiles)
    assert template == default_bearer_template(DEFAULT_ENTITY_PROFILES)
    samples, _ = run_bearer_simulation(poisson_stream(50.0, 200, seed=1), template,
                                       profiles, n_enb=10)
    assert len(samples) == 200
    # no request is faster than its work alone, K + D = 6.4 ms
    assert samples.delays_s.min() >= K_CONST + D_MME - 1e-12


def _walk(arrivals, hops, capacity):
    """Walk one request per arrival time, each from its own device, through
    ``hops`` with entity capacities ``capacity``.

    Returns the request completion times and the MME server's stats.
    """
    template = ProcedureTemplate(hops=hops)
    profiles = {name: EntityProfile(name, work, capacity[name])
                for name, work in template.work_by_entity().items()}
    samples, report = run_bearer_simulation(
        EventStream(np.array(arrivals)), template, profiles, horizon_s=10.0)
    (mme,) = (row for row in report.rows if row.entity == "MME")
    return samples.completions_s.tolist(), mme


# Each request visits the MME twice, hop a (work 1) then hop b (work 2), at
# capacity 1, so staggered requests put jobs of unequal work on the server
# at once: one request's b beside a later request's a.
_TWO_VISITS = (MessageHop("MME", 1.0), MessageHop("MME", 2.0))
_MME_AT_1 = {"MME": 1.0}


def test_ps_single_job_completes_at_work_over_capacity():
    done, mme = _walk([0.0], (MessageHop("MME", 2.0),), {"MME": 4.0})
    assert done == [0.5]
    assert (mme.busy_s, mme.served_work, mme.job_seconds) == (0.5, 2.0, 0.5)


def test_ps_two_equal_jobs_share_equally():
    done, mme = _walk([0.0, 0.0], (MessageHop("MME", 1.0),), {"MME": 1.0})
    assert done == [2.0, 2.0]
    assert (mme.busy_s, mme.job_seconds) == (2.0, 4.0)


def test_ps_unequal_jobs_work_conserving_schedule():
    # request 0's a runs alone until 1 s, when its b (work 2) and request
    # 1's a (work 1) enter together, in either order of the tie.  Two-way
    # sharing ends the short job after 2 s, at 3, with 1 unit of b left;
    # request 1's b (work 2) then shares with it, which ends request 0 at
    # 3 + 2 = 5, and request 1's b serves its last unit alone until 6.
    # Work conservation pins the last finish at the total work, 6; the
    # job-seconds are the four sojourns, 1 + 4 + 2 + 3
    done, mme = _walk([0.0, 1.0], _TWO_VISITS, _MME_AT_1)
    assert done == [5.0, 6.0]
    assert (mme.busy_s, mme.job_seconds, mme.served_work) == (6.0, 1.0 + 4.0 + 2.0 + 3.0, 6.0)


def test_ps_partial_advance_residuals_are_fair():
    # requests 0, 1 and 2 arrive at 0, 0.5 and 1 s.  At 1 s request 0's a
    # has had 0.5 + 0.25 of service and request 1's a 0.25, so three-way
    # sharing of residuals 0.25, 0.75 and 1 ends 0's a at 1 + 0.75 = 1.75.
    # Its b (work 2) joins 1's a (0.5 left) and 2's a (0.75 left): 1's a
    # ends at 1.75 + 1.5 = 3.25, and 1's b joins 2's a (0.25 left) and 0's
    # b (1.5 left): 2's a ends at 3.25 + 0.75 = 4.  Then 0's b (1.25 left),
    # 1's b (1.75 left) and 2's b (2) share: 0's b ends at 4 + 3.75 = 7.75,
    # 1's b after 0.5 more at half rate, at 8.75, and 2's b alone at 9
    done, mme = _walk([0.0, 0.5, 1.0], _TWO_VISITS, _MME_AT_1)
    assert done == [7.75, 8.75, 9.0]
    assert (mme.busy_s, mme.served_work) == (9.0, 9.0)
    # the six sojourns, a's then b's
    assert mme.job_seconds == 1.75 + 2.75 + 3.0 + 6.0 + 5.5 + 5.0


def test_ps_staggered_arrival_schedule():
    # at t=1 job a has 1 unit left; sharing until a leaves at t=3, then b
    # alone finishes its remaining 1 unit at t=4 (total work 4, no idling)
    done, mme = _walk([0.0, 1.0], (MessageHop("MME", 2.0),), {"MME": 1.0})
    assert done == [3.0, 4.0]
    assert mme.busy_s == 4.0


def test_ps_server_input_errors():
    # A capacity or hop work of 0 and decreasing arrival times are refused
    # where they are built (test_entity_profile_validation,
    # test_message_hop_and_template_validation and
    # test_event_stream_validation_and_roundtrips).  The walk still checks
    # each server's clock on every admission, which a stream that skips
    # EventStream's check reaches: both requests come from device 0.
    stream = SimpleNamespace(timestamps=np.array([1.0, 0.5]), source_ids=np.array([0, 0]))
    template = ProcedureTemplate(hops=(MessageHop("UE", 1.0),))
    with pytest.raises(ValueError, match="time moved backwards"):
        run_bearer_simulation(stream, template, by_name(EntityProfile("UE", 1.0, 1.0)),
                              horizon_s=10.0)


def test_idle_request_takes_constant_plus_service_time():
    template = default_bearer_template(DEFAULT_ENTITY_PROFILES)
    stream = EventStream(np.array([1.0]), np.array([7]))
    samples, report = run_bearer_simulation(
        stream, template, DEFAULT_ENTITY_PROFILES, horizon_s=1.0)
    assert len(samples) == 1
    delay = samples.delays_s[0]
    assert delay == pytest.approx(D_MME + K_CONST, abs=1e-12)
    # breakdown attributes every second of the delay to some entity
    total = sum(cols[0] for cols in samples.breakdown.values())
    assert total == pytest.approx(delay, abs=1e-12)
    for prof in DEFAULT_ENTITY_PROFILES.values():
        assert samples.breakdown[prof.entity][0] == pytest.approx(
            prof.ops_per_bearer / prof.capacity, abs=1e-12)


def test_encryption_ops_adds_mme_work():
    # config adds encryption_ops to the MME's profile, which the default
    # template spreads over the nine MME hops
    stream = EventStream(np.array([0.0]), np.array([0]))
    plain, _ = run_bearer_simulation(
        stream, default_bearer_template(DEFAULT_ENTITY_PROFILES),
        DEFAULT_ENTITY_PROFILES, horizon_s=1.0)
    profiles = with_mme_ops(DEFAULT_ENTITY_PROFILES, 5.0)
    template = default_bearer_template(profiles)
    assert [h.work for h in template.hops if h.entity == "MME"] == [14.0 / 9] * 9
    heavy, _ = run_bearer_simulation(stream, template, profiles, horizon_s=1.0)
    assert heavy.delays_s[0] - plain.delays_s[0] == pytest.approx(
        5.0 / 10_000.0, abs=1e-12)


def test_busy_run_invariants():
    # moderate load: work conservation, determinism, Little's law at the MME
    rate = 400.0
    n_req = 20_000
    stream = poisson_stream(rate, n_req, seed=101,
                            source_ids=np.arange(n_req) % 500)
    template = default_bearer_template(DEFAULT_ENTITY_PROFILES)
    samples, report = run_bearer_simulation(
        stream, template, DEFAULT_ENTITY_PROFILES, n_enb=5, n_sgw=2)
    again, _ = run_bearer_simulation(
        stream, template, DEFAULT_ENTITY_PROFILES, n_enb=5, n_sgw=2)
    assert np.array_equal(samples.completions_s, again.completions_s)

    assert np.all(samples.delays_s > 0.0)
    for cols in samples.breakdown.values():
        assert np.all(cols >= -1e-15)
    total = sum(cols for cols in samples.breakdown.values())
    assert np.allclose(total, samples.delays_s, rtol=0.0, atol=1e-9)

    # every dispatched op was served: sum of served work == n * O_X
    served = {}
    for row in report.rows:
        served[row.entity] = served.get(row.entity, 0.0) + row.served_work
    for prof in DEFAULT_ENTITY_PROFILES.values():
        assert served[prof.entity] == pytest.approx(
            len(samples) * prof.ops_per_bearer, rel=1e-9)

    # MME utilization ~ rho, and mean jobs in system ~ rate * mean sojourn
    horizon = float(stream.timestamps[-1])
    rho = rate * D_MME
    mme_rows = [r for r in report.rows if r.entity == "MME"]
    assert len(mme_rows) == 1
    assert mme_rows[0].utilization == pytest.approx(rho, rel=0.02)
    l_mme = mme_rows[0].job_seconds / horizon
    w_mme = samples.breakdown["MME"].mean()
    assert l_mme == pytest.approx((len(samples) / horizon) * w_mme, rel=0.02)

    per_entity = report.per_entity()
    assert per_entity["MME"] == pytest.approx(rho, rel=0.02)
    text = report.text()
    assert f"horizon_s={horizon!r}" in text
    assert any(line.startswith("entity=MME instances=1") for line in text.splitlines())
    # fan-out produced the requested instance counts
    assert sum(1 for r in report.rows if r.entity == "eNB") == 5
    assert sum(1 for r in report.rows if r.entity == "SGW") == 2


@given(rho=st.floats(0.3, 0.98), n_jobs=st.integers(1, 5_000),
       seed=st.integers(0, 2**32 - 1))
def test_one_hop_walk_matches_equal_work_oracle(rho, n_jobs, seed):
    # a one-hop MME template turns the walk into a single M/D/1-PS queue,
    # whose sojourns the equal-work pass computes independently
    mme = EntityProfile("MME", 9.0, 10_000.0)
    template = ProcedureTemplate(hops=(MessageHop("MME", 9.0),))
    rate = rho / D_MME
    stream = poisson_stream(rate, n_jobs, seed)
    # a horizon covering n_jobs / rate keeps the load estimate at rho
    horizon = max(float(stream.timestamps[-1]), n_jobs / rate)
    samples, report = run_bearer_simulation(
        stream, template, by_name(mme), horizon_s=horizon)
    oracle = _ps_sojourns_equal_work(stream.timestamps, D_MME)
    assert len(samples) == n_jobs
    assert np.max(np.abs(samples.delays_s - oracle)) <= 1e-9
    assert np.array_equal(samples.breakdown["MME"], samples.delays_s)
    (row,) = report.rows
    assert row.served_work == pytest.approx(n_jobs * 9.0, rel=1e-12)


def test_fanned_out_walk_with_encryption_is_deterministic():
    n_req = 3_000
    stream = poisson_stream(400.0, n_req, seed=17,
                            source_ids=np.arange(n_req) % 40)
    profiles = with_mme_ops(DEFAULT_ENTITY_PROFILES, 2.0)
    template = default_bearer_template(profiles)
    kwargs = dict(n_enb=3, n_sgw=2)
    samples, report = run_bearer_simulation(stream, template, profiles, **kwargs)
    again, again_report = run_bearer_simulation(stream, template, profiles, **kwargs)
    assert np.array_equal(samples.completions_s, again.completions_s)
    assert samples.breakdown.keys() == again.breakdown.keys()
    for name, col in samples.breakdown.items():
        assert np.array_equal(col, again.breakdown[name])
    assert report == again_report
    total = sum(cols for cols in samples.breakdown.values())
    assert np.allclose(total, samples.delays_s, rtol=0.0, atol=1e-9)
    # no request beats its dedicated service, and the extra MME work is
    # served
    floor = D_MME + 2.0 / 10_000.0 + K_CONST
    assert np.all(samples.delays_s >= floor - 1e-12)
    served = sum(r.served_work for r in report.rows if r.entity == "MME")
    assert served == pytest.approx(n_req * (9.0 + 2.0), rel=1e-9)
    assert sum(1 for r in report.rows if r.entity == "eNB") == 3
    assert sum(1 for r in report.rows if r.entity == "SGW") == 2


def test_horizon_cuts_late_arrivals():
    stream = EventStream(np.array([0.1, 0.2, 5.0]), np.array([0, 1, 2]))
    template = default_bearer_template(DEFAULT_ENTITY_PROFILES)
    samples, report = run_bearer_simulation(
        stream, template, DEFAULT_ENTITY_PROFILES, horizon_s=1.0)
    assert len(samples) == 2
    assert report.horizon_s == 1.0


def test_overload_raises_with_capacity_hint():
    # ten eNBs share the requests, each at a tenth of the MME's rate and a
    # load near 0.3, so the MME is the busiest server instance
    n_req = 3000
    stream = poisson_stream(1500.0, n_req, seed=3)
    template = default_bearer_template(DEFAULT_ENTITY_PROFILES)
    with pytest.raises(OverloadError, match="MME overloaded") as info:
        run_bearer_simulation(stream, template, DEFAULT_ENTITY_PROFILES, n_enb=10)
    horizon = float(stream.timestamps[-1])
    assert info.value.min_capacity_multiplier == pytest.approx(
        n_req / horizon * D_MME, rel=1e-12)
    # the encryption work counts: 900 req/s load the MME to 0.81 without
    # it and to 1.35 with 6 extra operations per request in its profile
    stream = poisson_stream(900.0, n_req, seed=3)
    run_bearer_simulation(stream, template, DEFAULT_ENTITY_PROFILES,
                          horizon_s=n_req / 900.0, n_enb=10)
    heavy = with_mme_ops(DEFAULT_ENTITY_PROFILES, 6.0)
    with pytest.raises(OverloadError, match="MME overloaded") as info:
        run_bearer_simulation(stream, default_bearer_template(heavy), heavy,
                              horizon_s=n_req / 900.0, n_enb=10)
    assert info.value.min_capacity_multiplier == pytest.approx(900.0 * 15.0 / 10_000.0)
    # one eNB carries all 900 req/s at 2 ms each, load 1.8, while the MME
    # stays at 0.81
    with pytest.raises(OverloadError, match="eNB overloaded") as info:
        run_bearer_simulation(stream, template, DEFAULT_ENTITY_PROFILES,
                              horizon_s=n_req / 900.0, n_enb=1)
    assert info.value.min_capacity_multiplier == pytest.approx(900.0 * 2e-3)


def test_overload_estimate_spans_the_horizon():
    # five requests 0.1 ms apart in a 100 s horizon load the MME to 4.5e-5,
    # however dense the burst itself is
    stream = EventStream(1.0 + 1.0e-4 * np.arange(5), np.arange(5))
    template = default_bearer_template(DEFAULT_ENTITY_PROFILES)
    samples, report = run_bearer_simulation(
        stream, template, DEFAULT_ENTITY_PROFILES, horizon_s=100.0)
    assert len(samples) == 5
    assert report.per_entity()["MME"] == pytest.approx(5 * D_MME / 100.0)


def test_overload_rule_reads_only_a_visited_mme():
    # an MME that the template never visits builds no queue, whatever its
    # profile: at 1 request/s and D = 9 s it would load its server to 9
    template = ProcedureTemplate(hops=(MessageHop("UE", 1.0),))
    profiles = by_name(EntityProfile("UE", 1.0, 1000.0), EntityProfile("MME", 9.0, 1.0))
    stream = EventStream(np.array([1.0, 2.0, 3.0]), np.arange(3))
    samples, report = run_bearer_simulation(stream, template, profiles, horizon_s=3.0)
    assert np.allclose(samples.delays_s, 1e-3, rtol=1e-12)
    assert [entity for entity, *_ in report.servers] == ["UE"]
    with pytest.raises(OverloadError, match="MME overloaded"):
        run_bearer_simulation(stream, ProcedureTemplate(hops=(MessageHop("MME", 9.0),)),
                              profiles, horizon_s=3.0)


def test_simulation_input_validation():
    template = default_bearer_template(DEFAULT_ENTITY_PROFILES)
    stream = EventStream(np.array([0.0]))
    with pytest.raises(ConfigurationError):
        run_bearer_simulation(stream, "nope", DEFAULT_ENTITY_PROFILES)
    with pytest.raises(ConfigurationError):
        run_bearer_simulation(stream, template, DEFAULT_ENTITY_PROFILES, n_enb=0)


def test_single_job_mode_idle_and_errors(profiles):
    stream = EventStream(np.array([0.0, 10.0]))
    samples = single_job_mode(stream, profiles)
    assert np.allclose(samples.delays_s, D_MME + K_CONST, atol=1e-12)
    assert np.allclose(samples.breakdown["MME"], D_MME, atol=1e-12)
    assert np.allclose(samples.breakdown["other"], K_CONST, atol=1e-15)
    with pytest.raises(ConfigurationError, match="missing entity profiles: HSS"):
        single_job_mode(stream, {n: p for n, p in profiles.items() if n != "HSS"})


@pytest.mark.parametrize("mapping", ["reversed", "mme_scaled"])
def test_single_job_mode_is_the_mme_sojourn_plus_k_of_the_mapping(mapping):
    # K is summed in the mapping's own order, and under scope "mme" a
    # multiplier shortens the MME's job and leaves K as it was: scale's
    # replay prices every window this way
    stream = poisson_stream(0.6 / D_MME, 2000, seed=5)
    if mapping == "reversed":
        profiles, k_const = REVERSED_PROFILES, K_CONST
        assert k_const != constant_delay_K(DEFAULT_ENTITY_PROFILES)
    else:
        profiles = scaled_profiles(DEFAULT_ENTITY_PROFILES, 2.5, ScalingPolicy(scope="mme"))
        k_const = constant_delay_K(DEFAULT_ENTITY_PROFILES)
    assert k_const == constant_delay_K(profiles)
    times = stream.timestamps
    sojourns = _ps_sojourns_equal_work(times, profiles["MME"].per_bearer_delay)
    samples = single_job_mode(stream, profiles)
    assert np.array_equal(samples.completions_s, (sojourns + k_const) + times)
    assert np.array_equal(samples.breakdown["MME"], sojourns)
    assert np.array_equal(samples.breakdown["other"], np.full(len(stream), k_const))


def test_single_job_mean_sojourn_matches_ps_formula():
    # M/D/1-PS mean sojourn is D / (1 - rho), insensitive to the job-size
    # distribution beyond its mean
    rho = 0.5
    stream = poisson_stream(rho / D_MME, 200_000, seed=77)
    sojourns = _ps_sojourns_equal_work(stream.timestamps, D_MME)
    assert sojourns.mean() == pytest.approx(
        D_MME / (1.0 - rho), rel=0.025)


# sha256 of single_job_mode on the streams below, recorded before the pass
# moved from indexing numpy arrays to a deque of the jobs in service
_SINGLE_JOB_SHA256 = {
    0.3: "b373656ab4eda30a3897cb5bbb6abde09fb330bf575cf4ce37c47f39e0f0929d",
    0.57: "326728cfb557761bd14d055e869540237ecc6968c780ec80378ecc4609fcabd6",
    0.98: "24e522531d5b727d1bd293f373d3ceb5b82b3d4e6b3769475d5db798fe0067e4",
}


@pytest.mark.parametrize("rho", sorted(_SINGLE_JOB_SHA256))
def test_single_job_mode_matches_its_golden_digest(rho):
    # 5000 Poisson arrivals from nearly idle to nearly saturated: the pass
    # must give every completion and sojourn bit for bit
    stream = poisson_stream(rho / D_MME, 5000, seed=11)
    samples = single_job_mode(stream, REVERSED_PROFILES)
    digest = hashlib.sha256(np.ascontiguousarray(samples.completions_s, "<f8").tobytes())
    digest.update(np.ascontiguousarray(samples.breakdown["MME"], "<f8").tobytes())
    assert digest.hexdigest() == _SINGLE_JOB_SHA256[rho]


def test_single_job_matches_full_simulation_rate_limit(profiles):
    # as load -> 0 both modes produce the deterministic floor D + K
    stream = EventStream(np.array([0.0, 50.0, 120.0]))
    single = single_job_mode(stream, profiles)
    template = default_bearer_template(DEFAULT_ENTITY_PROFILES)
    full, _ = run_bearer_simulation(
        stream, template, DEFAULT_ENTITY_PROFILES, horizon_s=120.0)
    assert np.allclose(single.delays_s, full.delays_s, atol=1e-12)


def test_delay_sample_set_access_and_csv(tmp_path):
    samples = DelaySampleSet(
        arrivals_s=np.array([0.0, 1.0]),
        completions_s=np.array([0.5, 1.25]),
        breakdown={"MME": np.array([0.5, 0.25])},
    )
    assert len(samples) == 2
    assert samples.delays_s.tolist() == [0.5, 0.25]
    assert samples.breakdown["MME"][1] == 0.25
    with pytest.raises(ValueError):
        DelaySampleSet(arrivals_s=[0.0, 1.0], completions_s=[0.5])
    assert samples.delay_percentile(0.5) == pytest.approx(0.375)
    with pytest.raises(ValueError):
        samples.delay_percentile(0.0)
    path = tmp_path / "delays.csv"
    samples.save_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "request_id,arrival_s,completion_s,delay_s"
    assert lines[1] == "0,0.0,0.5,0.5"
    assert lines[2] == "1,1.0,1.25,0.25"


# finite values that stress the lerp: signed zeros, subnormals, values
# whose differences overflow, and exact ties
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300, 1.7e308, -1.7e308, 1.0]


@settings(max_examples=300)
@given(n=st.integers(1, 2049), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1.0, 1e300, 1e-310, 5e-324]),
       distinct=st.sampled_from([None, 1, 3, 40]),
       head=st.lists(st.one_of(st.sampled_from(_EDGE_VALUES),
                               st.floats(allow_nan=False, allow_infinity=False)), max_size=8),
       p=st.one_of(st.sampled_from([1e-12, 1.0 - 1e-12, 0.5, 0.99]),
                   st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
@example(n=2049, seed=0, scale=1.0, distinct=3, head=[], p=1.0 - 1e-12)
@example(n=1, seed=0, scale=1.0, distinct=None, head=[-0.0], p=1e-12)
@example(n=2, seed=0, scale=1.0, distinct=None, head=[1.7e308, -1.7e308], p=0.5)
def test_quantile_helper_is_np_quantile_bit_for_bit(n, seed, scale, distinct, head, p):
    # the helper keeps numpy.ma out of simulate and scale; np.quantile,
    # which imports it through np.unique, is its oracle
    body = np.random.default_rng(seed).standard_normal(n)
    if distinct is not None:  # a few values, many ties
        body = np.floor(body * distinct / 4.0)
    values = np.concatenate([np.array(head, dtype=float), body * scale])[:n]
    with np.errstate(all="ignore"):  # lerp overflow, as in the helper
        want = np.quantile(values, p)
    got = _quantile_linear(values.copy(), p)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_quantile_helper_of_values_with_a_nan_is_nan():
    # as np.quantile: a NaN anywhere, wherever the partition puts it
    for values in ([1.0, np.nan, 2.0], [np.nan], [3.0, 1.0, 2.0, np.nan, 0.5]):
        assert np.isnan(_quantile_linear(np.array(values), 0.25))
        assert np.isnan(np.quantile(values, 0.25))


def test_walk_memory_over_the_stock_stream_is_bounded():
    # the stock stream simulate --seed 1 draws (10^4 sources in 100 groups,
    # T = 10 s, 40 s), walked over its first 4 s: tracemalloc slows this
    # walk 30-50 times, so the whole 40 s (25,234 requests, 42-53 s traced)
    # is left to the benchmark record; there the traced peak fell from
    # 6.73 to 3.85 MiB, and here from 1.09 to 0.65 MiB
    scenario = scenario_from_dict({"traffic": {"period_s": 10.0, "q_total": 10_000,
                                               "n_groups": 100, "horizon_s": 40.0},
                                   "topology": {"n_enb": 100}})
    stream = _replication_stream(scenario, np.random.SeedSequence(1).spawn(1)[0])
    template = default_bearer_template(scenario.profiles)
    tracemalloc.start()
    try:
        samples, report = run_bearer_simulation(stream, template, scenario.profiles,
                                                horizon_s=4.0, n_enb=100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(samples) == 2594
    # one UE per device, 100 eNBs, and one each of MME, HSS, SGW and PGW
    assert len(report.rows) == np.unique(stream.source_ids[:2594]).size + 104
    assert peak <= 0.8 * 2**20

