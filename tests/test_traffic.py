"""Two-state source model: hazard shape, alarm search, stream generation."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from conftest import drawn_population
from miotcore import traffic
from miotcore.traffic import (
    MAX_ALARM_DRAWS,
    MAX_EXPECTED_REQUESTS,
    EventStream,
    SourcePopulation,
    TrafficParams,
    _slots_from_targets,
    beta_pmf,
    cumulative_hazard,
    generate_requests,
    hazard_table,
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
    pop = SourcePopulation(group_size=50, n_groups=10, offsets_s=(0.0,) * 10)
    assert pop.q_total == 500
    with pytest.raises(TypeError):  # the offsets are drawn by whoever builds one
        SourcePopulation(group_size=50, n_groups=10)
    with pytest.raises(ValueError):
        SourcePopulation(group_size=0, n_groups=10, offsets_s=(0.0,) * 10)
    with pytest.raises(ValueError):
        SourcePopulation(group_size=50, n_groups=2, offsets_s=(0.0,))
    # an offset outside [0, T) is refused where it is read, by slot_phases
    early = SourcePopulation(group_size=50, n_groups=1, offsets_s=(-1.0,))
    with pytest.raises(ValueError, match="offsets must lie in"):
        generate_requests(early, TrafficParams(), 10.0, seed=0)


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
    assert np.allclose(beta_pmf(n, params.n_slots), want, rtol=1e-12, atol=0.0)
    assert beta_pmf(370, 1000) == pytest.approx(stats.beta(3, 4).pdf(0.37) / 1000, rel=1e-12)


def test_slot_phases_truncate_and_refuse_offsets_outside_the_period():
    params = TrafficParams(period_s=10.0, slot_delta_s=1e-3)
    got = slot_phases((0.0, 2.5, 6.0, 9.9995), params)
    assert got.dtype == np.int64
    assert got.tolist() == [0, 2500, 6000, 9999]
    for bad in (10.0, 12.0, -0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="offsets must lie in"):
            slot_phases((1.0, bad), params)


def _one_shot_prefix(params):
    """The cumulative hazard P[0..N] as one cumsum over the whole grid."""
    h = -np.log1p(-beta_pmf(np.arange(1, params.n_slots + 1), params.n_slots))
    return np.concatenate(([0.0], np.cumsum(h)))


def _full_prefix(table):
    """P[0..N] rebuilt from a table: H(y) for y = 0..N is the prefix."""
    return cumulative_hazard(np.arange(table.n_slots + 1), table)


def test_cumulative_hazard_wraps_the_period_and_is_the_prefix_within_it():
    params = TrafficParams(period_s=10.0, slot_delta_s=0.05)  # 200 slots
    table = hazard_table(params)
    prefix = _one_shot_prefix(params)
    y = np.arange(params.n_slots)
    # within one period H is the prefix itself, bit for bit
    assert cumulative_hazard(y, table).tobytes() == prefix[:-1].tobytes()
    h = -np.log1p(-beta_pmf(np.arange(1, params.n_slots + 1), params.n_slots))
    direct = np.cumsum(np.tile(h, 3))  # hazard of slots 1..y over 3 periods
    for a, b in ((0, 7), (150, 260), (199, 401), (37, 600)):
        assert cumulative_hazard(b, table) - cumulative_hazard(a, table) == \
            pytest.approx(direct[b - 1] - (direct[a - 1] if a else 0.0), abs=1e-12)
    assert cumulative_hazard(np.int64(2 * params.n_slots), table) == 2 * table.phi


@pytest.mark.parametrize("n_slots", [199, 200, 201, 202])
def test_cumulative_hazard_of_scalar_slots_on_odd_and_even_grids(n_slots):
    # a scalar slot, at a checkpoint or between, reads the prefix as an
    # array slot does, on grids of every n_slots % 4: Python int, numpy
    # int and 0-d array each give one float64
    params = TrafficParams(period_s=float(n_slots), slot_delta_s=1.0)
    prefix = _one_shot_prefix(params)
    table = hazard_table(params)
    for y in (0, 1, 2, 3, 4, 5, n_slots - 3, n_slots - 2, n_slots - 1, n_slots,
              n_slots + 1, 3 * n_slots + 5, 3 * n_slots + 6):
        want = (y // n_slots) * prefix[-1] + prefix[y % n_slots]
        for slot in (y, np.int64(y), np.array(y)):
            got = cumulative_hazard(slot, table)
            assert type(got) is np.float64
            assert got == want
    grid = np.arange(2 * n_slots).reshape(2, n_slots)  # any shape
    assert cumulative_hazard(grid, table).shape == (2, n_slots)
    assert cumulative_hazard(grid[0], table).tobytes() == prefix[:-1].tobytes()


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


@pytest.mark.parametrize("chunks, extra", [
    (0, 100), (0, 101), (0, 102), (0, 103),
    (1, -1), (1, 0), (1, 1), (1, 2), (3, 7),
])
def test_chunked_prefix_equals_one_cumsum_bit_for_bit(chunks, extra):
    # every n_slots % 4, with chunk edges before, at and past the grid's end
    n_slots = chunks * traffic._PREFIX_CHUNK + extra
    params = TrafficParams(period_s=float(n_slots), slot_delta_s=1.0)
    assert params.n_slots == n_slots
    table = hazard_table(params)
    assert table.checkpoints.size == n_slots // traffic._STRIDE + 1
    prefix = _full_prefix(table)
    assert prefix.tobytes() == _one_shot_prefix(params).tobytes()
    assert table.phi == prefix[-1]


def test_stock_prefix_matches_its_golden_digest():
    # sha256 of the stock grid's prefix as one whole-grid cumsum built it,
    # here rebuilt whole from the checkpoint table
    prefix = _full_prefix(hazard_table(TrafficParams()))
    assert hashlib.sha256(prefix.tobytes()).hexdigest() == (
        "e7e5b54d7a88e3b4dffb2cc7ee40c29d235c47c1ef7fb587e90a0187f182dcc6")


def test_prefix_scratch_memory_is_bounded():
    # the stock grid's full prefix is 7.6 MiB; a whole-grid build peaked
    # at 38.2 MiB, 65,536-slot chunks at 10.6 MiB, 16,384-slot ones at
    # 8.4 MiB, the even-slot table (3.8 MiB) at 4.7 MiB, and the table of
    # every 4th slot (1.9 MiB) at 2.8 MiB
    tracemalloc.start()
    try:
        table = hazard_table(TrafficParams())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= table.checkpoints.nbytes + 2**20


def test_generate_requests_keeps_no_hazard_table():
    # the 900,000-slot table (1.7 MiB) lives for the call alone: once the
    # stream is returned, traced memory is back within the stream's own
    # arrays of where it started
    params = TrafficParams(period_s=9.0, slot_delta_s=1e-5)
    rng = np.random.default_rng(4)
    population = drawn_population(10, 10, params.period_s, rng)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        stream = generate_requests(population, params, 20.0, rng)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(stream) > 0
    own = stream.timestamps.nbytes + stream.source_ids.nbytes
    assert held - start <= own + 2**20


def test_slots_from_targets_is_an_exact_inverse_transform():
    # a target in (P[k-1], P[k]] of period m is first reached at slot k of
    # that period, m * N + k: at P[k] itself, just past P[k-1], and between,
    # on grids of every n_slots % 4
    for n_slots in (100, 101, 102, 103):
        params = TrafficParams(period_s=float(n_slots), slot_delta_s=1.0)
        prefix = _one_shot_prefix(params)
        table = hazard_table(params)
        # slot N, at x = 1, has no hazard, so P[N-1] is already phi, which
        # a target reads as the start of the next period
        k = np.arange(1, n_slots - 1)
        assert np.all(prefix[k] > prefix[k - 1])
        assert _slots_from_targets(table, prefix[k]).tolist() == k.tolist()
        above = np.nextafter(prefix[k - 1], np.inf)
        assert _slots_from_targets(table, above).tolist() == k.tolist()
        middle = 0.5 * (prefix[k - 1] + prefix[k])
        for m in (1, 3):
            got = _slots_from_targets(table, middle + m * table.phi)
            assert got.tolist() == (m * n_slots + k).tolist()


def test_slots_from_targets_equals_the_unsorted_search():
    # the checkpoint search, sorted and scattered back, must give the
    # indices one unsorted np.searchsorted over the whole prefix gives, on
    # ties, exact prefix values and their neighbours, 0 and whole periods
    # among them, on grids of every n_slots % 4; some whole periods m * phi
    # leave a residual just above phi (m = 517 on the 1000-slot grid),
    # which the whole prefix's search puts at slot N + 1
    for period_s in (1.0, 0.999, 1.001, 1.002):
        params = TrafficParams(period_s=period_s, slot_delta_s=1e-3)
        assert params.n_slots == round(1000 * period_s)
        prefix = _one_shot_prefix(params)
        phi = prefix[-1]
        rng = np.random.default_rng(8)
        exact = prefix[rng.integers(0, prefix.size, 200)]
        targets = np.concatenate([
            rng.uniform(0.0, 5.0 * phi, 2000),
            exact, exact + 3.0 * phi, np.nextafter(exact, np.inf), np.nextafter(exact, -np.inf),
            np.repeat(rng.uniform(0.0, phi, 5), 40),
            [0.0, phi, 2.0 * phi, 7.0 * phi, prefix[1], prefix[-2], np.nextafter(phi, np.inf)],
            np.arange(1, 600) * phi,
        ])
        targets = targets[targets >= 0.0]
        rng.shuffle(targets)
        periods = np.floor_divide(targets, phi).astype(np.int64)
        residual = targets - periods * phi
        want = periods * params.n_slots + np.maximum(np.searchsorted(prefix, residual), 1)
        got = _slots_from_targets(hazard_table(params), targets)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


def test_generate_requests_matches_its_golden_digest():
    # sha256 of the timestamps then the source ids, frozen from the
    # generator that draws the regular-rate requests as one Poisson stream
    # at Q * epsilon on the slot grid
    params = TrafficParams(period_s=2.0, slot_delta_s=1e-4, regular_rate_epsilon=0.05)
    population = SourcePopulation(5, 8, offsets_s=tuple(0.25 * i for i in range(8)))
    stream = generate_requests(population, params, 20.0, seed=11)
    assert len(stream) == 335
    digest = hashlib.sha256(stream.timestamps.tobytes() + stream.source_ids.tobytes())
    assert digest.hexdigest() == (
        "7ba558181e1777280687a542a3618a96c24720f53c4bf87294865902da586369")


def test_generate_requests_without_regular_rate_matches_its_golden_digest():
    # the same run at epsilon = 0, frozen from the generator that merged
    # float times and ids with np.lexsort: the alarm-only stream keeps its
    # bytes through the int64 key sort
    params = TrafficParams(period_s=2.0, slot_delta_s=1e-4)
    population = SourcePopulation(5, 8, offsets_s=tuple(0.25 * i for i in range(8)))
    stream = generate_requests(population, params, 20.0, seed=11)
    assert len(stream) == 284
    digest = hashlib.sha256(stream.timestamps.tobytes() + stream.source_ids.tobytes())
    assert digest.hexdigest() == (
        "a33196af15c4e2941bb993015ec8fbd66b9969d557765896adc2a42c512a7545")


@given(group_size=st.integers(1, 20),
       offsets_s=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=6),
       epsilon=st.one_of(st.just(0.0), st.floats(0.01, 0.5)),
       delta=st.sampled_from([1e-3, 1e-4]),
       horizon_s=st.floats(1.0, 5.0),
       seed=st.integers(0, 2**32 - 1))
def test_generate_requests_sorts_by_time_then_source_on_the_slot_grid(
        group_size, offsets_s, epsilon, delta, horizon_s, seed):
    # alarm and regular-rate requests alike sit on whole slots of a 1 s
    # period, ordered by (time, source id)
    params = TrafficParams(period_s=1.0, slot_delta_s=delta, regular_rate_epsilon=epsilon)
    population = SourcePopulation(group_size, len(offsets_s), tuple(offsets_s))
    stream = generate_requests(population, params, horizon_s, seed)
    t, ids = stream.timestamps, stream.source_ids
    assert np.array_equal(np.lexsort((ids, t)), np.arange(len(t)))
    assert np.array_equal(t, np.rint(t / delta).astype(np.int64) * delta)
    assert np.all((ids >= 0) & (ids < population.q_total))
    assert np.all((t >= 0.0) & (t <= horizon_s))


def test_generate_requests_refuses_too_many_expected_requests(monkeypatch):
    # Q * (p * H / T + epsilon * H) past MAX_EXPECTED_REQUESTS: refused
    # before the population's offsets, the hazard table or any draw
    # fail before the Q-long phase array, should a bound ever let a run through
    def no_phases(offsets_s, params):
        raise AssertionError("per-source state was built")

    monkeypatch.setattr(traffic, "slot_phases", no_phases)
    params = TrafficParams(period_s=10.0, tx_probability=0.5)
    q_total = 2 * MAX_EXPECTED_REQUESTS // 10  # p * H / T = 5 at H = 100
    with pytest.raises(ValueError, match="expect"):
        generate_requests(SourcePopulation(q_total, 1, (0.0,)), params, 100.0 + 1e-9, seed=0)
    with pytest.raises(ValueError, match="expect"):
        generate_requests(SourcePopulation(1, 1, (0.0,)), TrafficParams(regular_rate_epsilon=1.0),
                          float(MAX_EXPECTED_REQUESTS), seed=0)
    with pytest.raises(ValueError, match="expect"):
        generate_requests(SourcePopulation(1, 1, (0.0,)), params, math.nan, seed=0)
    traffic.check_expected_requests(q_total, params, 100.0)  # exactly at the bound
    # a tiny tx_probability expects few requests, but the generator still
    # draws Q * H / T alarms and holds state for all Q sources
    rare = TrafficParams(period_s=10.0, tx_probability=1e-9)
    for q_total, horizon_s in ((10**9, 10.0), (MAX_ALARM_DRAWS // 10, 100.0 + 1e-9)):
        with pytest.raises(ValueError, match="alarm draws, need <="):
            generate_requests(SourcePopulation(q_total, 1, (0.0,)), rare, horizon_s, seed=0)
    traffic.check_expected_requests(MAX_ALARM_DRAWS // 10, rare, 100.0)  # at the bound


def test_generate_requests_deterministic_and_sorted():
    pop = SourcePopulation(group_size=20, n_groups=5, offsets_s=(0.0, 1.5, 4.0, 6.5, 9.0))
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
    params = TrafficParams()
    rng = np.random.default_rng(3)
    pop = drawn_population(100, 10, params.period_s, rng)
    horizon = 400.0
    stream = generate_requests(pop, params, horizon, rng)
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
        generate_requests(SourcePopulation(1, 1, (0.0,)), params, 5.0, seed=0)
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
    # one event, or two in one slot, span no time and have no rate
    for times in ([1.25], [1.25, 1.25]):
        with pytest.raises(ValueError, match="need >= 2 events over a positive span"):
            EventStream(np.array(times)).mean_rate()

    # the binary form carries timestamps only: a little-endian u64 count,
    # then that many little-endian f64 seconds
    bin_path = tmp_path / "events.bin"
    stream.save_binary(bin_path)
    raw = bin_path.read_bytes()
    assert np.frombuffer(raw[:8], dtype="<u8")[0] == len(stream)
    assert np.array_equal(np.frombuffer(raw[8:], dtype="<f8"), stream.timestamps)

    csv_path = tmp_path / "events.csv"
    stream.save_csv(csv_path)
    header = csv_path.read_text().splitlines()[0]
    assert header == "timestamp_s,source_id"
    bare = EventStream(np.array([0.125, 2.5]))
    bare.save_csv(csv_path)
    assert csv_path.read_text().splitlines() == ["timestamp_s", "0.125", "2.5"]
