"""Two-state source model: hazard shape, alarm search, stream generation."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from miotcore import traffic
from miotcore.traffic import (
    EventStream,
    SourcePopulation,
    TrafficParams,
    _prefix,
    _slots_from_targets,
    beta_pmf,
    cumulative_hazard,
    generate_requests,
    poisson_arrivals,
    slot_phases,
)


def test_params_defaults_and_tx_probability():
    params = TrafficParams()
    assert params.n_slots == 1_000_000
    assert params.tx_probability == pytest.approx(1.0 - math.exp(-1.0), abs=0.0)
    explicit = TrafficParams(tx_probability=0.5)
    assert explicit.tx_probability == 0.5


def test_params_validation():
    with pytest.raises(ValueError):
        TrafficParams(period_s=-1.0)
    with pytest.raises(ValueError):
        TrafficParams(period_s=10.0, slot_delta_s=0.5)  # n_slots = 20 < 100
    with pytest.raises(ValueError):
        TrafficParams(tx_probability=0.0)
    with pytest.raises(ValueError):
        TrafficParams(regular_rate_epsilon=-0.1)


def test_population_validation():
    pop = SourcePopulation(group_size=50, n_groups=10)
    assert pop.q_total == 500
    with pytest.raises(ValueError):
        SourcePopulation(group_size=0, n_groups=10)
    with pytest.raises(ValueError):
        SourcePopulation(group_size=50, n_groups=2, offsets_s=(0.0,))
    with pytest.raises(ValueError):
        SourcePopulation(group_size=50, n_groups=1, offsets_s=(-1.0,))


def test_beta_pmf_values_and_normalization():
    n_slots = 1000
    # f(n) = 60 (n d/T)^2 (1 - n d/T)^3 (d/T); at the midpoint x = 1/2 the
    # polynomial is 60 / 32 = 1.875
    assert beta_pmf(500, n_slots) == pytest.approx(1.875 / n_slots, rel=1e-12)
    assert beta_pmf(0, n_slots) == 0.0
    assert beta_pmf(n_slots, n_slots) == 0.0
    grid = beta_pmf(np.arange(1, n_slots + 1), n_slots)
    # Riemann sum of a Beta(3, 4) density: mass 1 up to O(1/N) discretization
    assert abs(grid.sum() - 1.0) < 2.0 / n_slots
    # mode of x^2 (1-x)^3 is at x = 2/5
    assert abs(np.argmax(grid) + 1 - 0.4 * n_slots) <= 1
    with pytest.raises(ValueError):
        beta_pmf(-1, n_slots)
    with pytest.raises(ValueError):
        beta_pmf(n_slots + 1, n_slots)


def test_beta_pmf_is_the_beta_3_4_density_times_the_slot_fraction():
    params = TrafficParams(period_s=10.0, slot_delta_s=1e-3)
    n = np.array([1, 370, 4000, 9999])
    want = stats.beta(3, 4).pdf(n / params.n_slots) / params.n_slots
    assert np.allclose(beta_pmf(n, params), want, rtol=1e-12, atol=0.0)
    assert beta_pmf(370, 1000) == pytest.approx(stats.beta(3, 4).pdf(0.37) / 1000, rel=1e-12)


def test_slot_phases_truncate_and_refuse_offsets_outside_the_period():
    params = TrafficParams(period_s=10.0, slot_delta_s=1e-3)
    got = slot_phases((0.0, 2.5, 6.0, 9.9995), params)
    assert got.dtype == np.int64
    assert got.tolist() == [0, 2500, 6000, 9999]
    for bad in (10.0, 12.0, -0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="offsets must lie in"):
            slot_phases((1.0, bad), params)


def test_cumulative_hazard_wraps_the_period_and_is_the_prefix_within_it():
    params = TrafficParams(period_s=10.0, slot_delta_s=0.05)  # 200 slots
    prefix, phi = _prefix(params)
    y = np.arange(params.n_slots)
    # within one period H is the prefix itself, bit for bit
    assert cumulative_hazard(y, params).tobytes() == prefix[:-1].tobytes()
    h = -np.log1p(-beta_pmf(np.arange(1, params.n_slots + 1), params))
    direct = np.cumsum(np.tile(h, 3))  # hazard of slots 1..y over 3 periods
    for a, b in ((0, 7), (150, 260), (199, 401), (37, 600)):
        assert cumulative_hazard(b, params) - cumulative_hazard(a, params) == \
            pytest.approx(direct[b - 1] - (direct[a - 1] if a else 0.0), abs=1e-12)
    assert cumulative_hazard(np.int64(2 * params.n_slots), params) == 2 * phi


def test_params_refuse_a_slot_grid_past_max_slots():
    # checked before anything is allocated: 1e-12 s slots would be 10^13
    # slots, an 80 TB prefix
    for period_s, slot_delta_s in ((10.0, 1e-12), (1e300, 1e-300), (10.0, 0.99e-6)):
        with pytest.raises(ValueError, match="slot grid too fine"):
            TrafficParams(period_s=period_s, slot_delta_s=slot_delta_s)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            TrafficParams(period_s=bad)
        with pytest.raises(ValueError, match="positive and finite"):
            TrafficParams(slot_delta_s=bad)
    assert TrafficParams(period_s=10.0, slot_delta_s=1e-6).n_slots == traffic.MAX_SLOTS


def _one_shot_prefix(params):
    """The cumulative hazard as one cumsum over the whole grid."""
    h = -np.log1p(-beta_pmf(np.arange(1, params.n_slots + 1), params))
    return np.concatenate(([0.0], np.cumsum(h)))


@pytest.mark.parametrize("chunks, extra", [(0, 100), (1, -1), (1, 0), (1, 1), (3, 7)])
def test_chunked_prefix_equals_one_cumsum_bit_for_bit(chunks, extra):
    n_slots = chunks * traffic._PREFIX_CHUNK + extra
    params = TrafficParams(period_s=float(n_slots), slot_delta_s=1.0)
    assert params.n_slots == n_slots
    prefix, phi = _prefix.__wrapped__(params)
    assert prefix.tobytes() == _one_shot_prefix(params).tobytes()
    assert phi == prefix[-1]


def test_stock_prefix_matches_its_golden_digest():
    # sha256 of the stock grid's prefix as one whole-grid cumsum built it
    prefix, _ = _prefix(TrafficParams())
    assert hashlib.sha256(prefix.tobytes()).hexdigest() == (
        "e7e5b54d7a88e3b4dffb2cc7ee40c29d235c47c1ef7fb587e90a0187f182dcc6")


def test_prefix_scratch_memory_is_bounded():
    # the stock grid's prefix is 7.6 MiB; a whole-grid build peaked at
    # 38.2 MiB, the chunked one at 10.6 MiB
    tracemalloc.start()
    try:
        prefix, _ = _prefix.__wrapped__(TrafficParams())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= prefix.nbytes + 4 * 2**20


def test_prefix_cache_is_bounded():
    # every distinct parameter set is a new cache key; the cache keeps a
    # few and recomputes an evicted grid to the same prefix sums
    grids = [TrafficParams(period_s=10.0 + i, slot_delta_s=0.1) for i in range(20)]
    first = [_prefix(p)[0].copy() for p in grids]
    assert _prefix.cache_info().currsize <= 8
    for params, prefix in zip(grids, first):
        again, phi = _prefix(params)
        assert np.array_equal(again, prefix)
        assert phi == prefix[-1]
    assert _prefix.cache_info().currsize <= 8


def test_slots_from_targets_is_an_exact_inverse_transform():
    # cumulative hazard 2 at slot 50 of 100 and none elsewhere: a target
    # in (2k, 2k + 2] is first reached at slot 50 of period k
    prefix = np.concatenate(([0.0], np.cumsum(np.where(np.arange(1, 101) == 50, 2.0, 0.0))))
    targets = np.array([1e-9, 1.0, 2.0 + 1e-9, 3.9, 5.0])
    slots = _slots_from_targets(prefix, 2.0, 100, targets)
    assert slots.tolist() == [50, 50, 150, 150, 250]


def test_generate_requests_deterministic_and_sorted():
    pop = SourcePopulation(group_size=20, n_groups=5)
    params = TrafficParams(period_s=10.0, slot_delta_s=1e-4)
    a = generate_requests(pop, params, 200.0, seed=42)
    b = generate_requests(pop, params, 200.0, seed=42)
    assert np.array_equal(a.timestamps, b.timestamps)
    assert np.array_equal(a.source_ids, b.source_ids)
    c = generate_requests(pop, params, 200.0, seed=43)
    assert not np.array_equal(a.timestamps, c.timestamps)
    assert np.all(np.diff(a.timestamps) >= 0.0)
    assert np.all(a.timestamps <= 200.0)
    assert a.source_ids.min() >= 0 and a.source_ids.max() < pop.q_total


def test_generate_requests_rate_law():
    # E[events] = Q * tx * horizon / T within a few sigma
    pop = SourcePopulation(group_size=100, n_groups=10)
    params = TrafficParams()
    horizon = 400.0
    stream = generate_requests(pop, params, horizon, seed=3)
    expect = pop.q_total * params.tx_probability * horizon / params.period_s
    assert abs(len(stream) - expect) < 5.0 * math.sqrt(expect)
    assert stream.mean_rate() == pytest.approx(
        pop.q_total * params.tx_probability / params.period_s, rel=0.05)


def test_generate_requests_alarm_self_exclusion():
    # a source that alarms at slot s is Regular at s+1: consecutive events
    # of one source are >= 2 slots apart
    pop = SourcePopulation(group_size=1, n_groups=1, offsets_s=(0.0,))
    params = TrafficParams(period_s=10.0, slot_delta_s=1e-3, tx_probability=1.0)
    stream = generate_requests(pop, params, 5000.0, seed=11)
    slots = np.rint(stream.timestamps / params.slot_delta_s).astype(np.int64)
    assert len(slots) > 300
    assert np.all(np.diff(slots) >= 2)


def test_generate_requests_phase_histogram_matches_beta():
    # with all offsets zero the request phases t mod T reproduce the
    # Beta(3, 4) density; chi-square GOF at the 1% level on >= 1e5 events
    pop = SourcePopulation(group_size=2000, n_groups=1, offsets_s=(0.0,))
    params = TrafficParams(period_s=10.0, slot_delta_s=1e-4)
    stream = generate_requests(pop, params, 800.0, seed=5)
    assert len(stream) >= 100_000
    phases = np.mod(stream.timestamps, params.period_s) / params.period_s
    n_bins = 40
    counts, edges = np.histogram(phases, bins=n_bins, range=(0.0, 1.0))
    cdf = stats.beta(3, 4).cdf(edges)
    expected = len(phases) * np.diff(cdf)
    _, p_value = stats.chisquare(counts, expected)
    assert p_value > 0.01


def test_generate_requests_regular_rate_adds_uniform_events():
    pop = SourcePopulation(group_size=100, n_groups=1, offsets_s=(0.0,))
    base = TrafficParams(period_s=10.0, slot_delta_s=1e-4)
    noisy = TrafficParams(period_s=10.0, slot_delta_s=1e-4,
                          regular_rate_epsilon=0.05)
    horizon = 300.0
    n_base = len(generate_requests(pop, base, horizon, seed=9))
    n_noisy = len(generate_requests(pop, noisy, horizon, seed=9))
    extra = 0.05 * pop.q_total * horizon
    assert abs((n_noisy - n_base) - extra) < 5.0 * math.sqrt(extra)


def test_generate_requests_offset_shifts_phases():
    params = TrafficParams(period_s=10.0, slot_delta_s=1e-3)
    at_zero = SourcePopulation(1000, 1, offsets_s=(0.0,))
    at_four = SourcePopulation(1000, 1, offsets_s=(4.0,))
    s0 = generate_requests(at_zero, params, 100.0, seed=21)
    s4 = generate_requests(at_four, params, 100.0, seed=21)
    # same seed, shifted hazard: mean phases differ by ~ -4 mod 10
    m0 = np.mod(s0.timestamps, 10.0).mean()
    m4 = np.mod(s4.timestamps + 4.0, 10.0).mean()
    assert abs(m0 - m4) < 0.1


def test_generate_requests_rejects_bad_horizon_and_offsets():
    params = TrafficParams()
    with pytest.raises(ValueError):
        generate_requests(SourcePopulation(1, 1), params, 5.0, seed=0)
    bad = SourcePopulation(1, 1, offsets_s=(10.0,))  # must be < period
    with pytest.raises(ValueError):
        generate_requests(bad, params, 20.0, seed=0)


def test_poisson_arrivals_window_and_count():
    rng = np.random.default_rng(21)
    for rate, start, end in ((40.0, 0.0, 50.0), (3.0, 7200.0, 10800.0), (0.5, 2.0, 3.0)):
        times = poisson_arrivals(rate, start, end, rng)
        assert np.all(np.diff(times) >= 0.0)
        assert times.size == 0 or (times[0] >= start and times[-1] < end)
        mean = rate * (end - start)
        assert abs(times.size - mean) <= 5.0 * math.sqrt(mean)


def test_poisson_arrivals_continues_across_chunks():
    class Lattice:  # gaps of exactly 1/8 s, whatever the rate
        def exponential(self, scale, size):
            return np.full(size, 0.125)

    # rate 1/s over 3 s asks for 16 gaps a chunk; 23 arrivals need two
    times = poisson_arrivals(1.0, 2.0, 5.0, Lattice())
    assert np.array_equal(times, 2.0 + 0.125 * np.arange(1, 24))


def test_event_stream_validation_and_roundtrips(tmp_path):
    with pytest.raises(ValueError):
        EventStream(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        EventStream(np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        EventStream(np.array([1.0, 2.0]), source_ids=np.array([1]))

    stream = EventStream(np.array([0.5, 1.25, 1.25, 3.0]),
                         np.array([3, 1, 2, 0]))
    assert len(stream) == 4
    assert np.array_equal(stream.gaps(), np.array([0.75, 0.0, 1.75]))
    # (n - 1) gaps over the observed span of 2.5 s
    assert stream.mean_rate() == pytest.approx(3 / 2.5)

    # the binary form carries timestamps only (length-prefixed f64)
    bin_path = tmp_path / "events.bin"
    stream.save_binary(bin_path)
    again = EventStream.load_binary(bin_path)
    assert np.array_equal(again.timestamps, stream.timestamps)
    assert again.source_ids is None
    assert bin_path.stat().st_size == 8 + 8 * len(stream)

    csv_path = tmp_path / "events.csv"
    stream.save_csv(csv_path)
    header = csv_path.read_text().splitlines()[0]
    assert header == "timestamp_s,source_id"
    bare = EventStream(np.array([0.125, 2.5]))
    bare.save_csv(csv_path)
    assert csv_path.read_text().splitlines() == ["timestamp_s", "0.125", "2.5"]
