"""Two-state Markov traffic sources with a Beta(3,4) alarm hazard.

Each source idles in a Regular state and occasionally jumps to an Alarm
state; the per-slot transition probability follows the sampled Beta(3,4)
shape over a period of T seconds, so every source visits Alarm roughly
once per period.  On each Alarm visit the source emits a bearer request
with a fixed probability and is back in Regular one slot later.
"""

import math
import struct
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .csvio import write_csv

# P(at least one packet during an alarm visit) for unit per-slot packet rate
TX_PROBABILITY_DEFAULT = 1.0 - math.exp(-1.0)

# the finest slot grid a parameter set may ask for: its cumulative hazard
# table is one float64 per even slot, 40 MB at this size
MAX_SLOTS = 10**7

# the most requests a generation call may expect, Q * (p * H / T + epsilon * H):
# the stream is a float64 time and an int64 source id per request, 160 MB at
# this size (its merge holds about twice that), and a walk of it about 88
# bytes a request beside its per-server state (80 of per-request arrays,
# 8 of int32 routes to the UE and eNB servers), 0.9 GB
MAX_EXPECTED_REQUESTS = 10**7

# the most alarm draws a generation call may make, Q * H / T, whatever p:
# the generator holds about 100 bytes per live source (92-100 traced at 10^5
# and 4 * 10^5 sources), and Q <= Q * H / T, so 2 GB at this size
# (at p = 0.5 it admits what MAX_EXPECTED_REQUESTS admits)
MAX_ALARM_DRAWS = 2 * 10**7

# slots per step of the cumulative-hazard build; bounds its scratch memory
# to about 0.9 MiB traced
_PREFIX_CHUNK = 1 << 14


@dataclass(frozen=True)
class TrafficParams:
    """Slot grid and per-source rates of the two-state source model.

    n_slots = round(period_s / slot_delta_s) defines the hazard grid, at
    most MAX_SLOTS slots; the default tx_probability is
    1 - exp(-alarm_rate_lambda), the chance of at least one packet from a
    Poisson packet count during an alarm visit.
    """

    period_s: float = 10.0
    slot_delta_s: float = 1e-5
    alarm_rate_lambda: float = 1.0
    regular_rate_epsilon: float = 0.0
    tx_probability: Optional[float] = None

    def __post_init__(self):
        if not 0.0 < self.period_s < math.inf:
            raise ValueError("period_s must be positive and finite")
        if not 0.0 < self.slot_delta_s < math.inf:
            raise ValueError("slot_delta_s must be positive and finite")
        ratio = self.period_s / self.slot_delta_s
        if not math.isfinite(ratio) or round(ratio) > MAX_SLOTS:
            raise ValueError(
                f"slot grid too fine: period_s / slot_delta_s = {ratio!r}, "
                f"need <= {MAX_SLOTS} slots")
        if self.n_slots < 100:
            raise ValueError(
                f"slot grid too coarse: n_slots={self.n_slots}, need >= 100")
        if not 0.0 <= self.regular_rate_epsilon < math.inf:
            raise ValueError("regular_rate_epsilon must be non-negative and finite")
        if self.tx_probability is None:
            object.__setattr__(
                self, "tx_probability", 1.0 - math.exp(-self.alarm_rate_lambda))
        if not 0.0 < self.tx_probability <= 1.0:
            raise ValueError("tx_probability must be in (0, 1]")

    @property
    def n_slots(self) -> int:
        return round(self.period_s / self.slot_delta_s)


@dataclass(frozen=True)
class SourcePopulation:
    """Groups of phase-aligned sources; all members of a group share one offset."""

    group_size: int
    n_groups: int
    offsets_s: tuple  # one per group, seconds in [0, T)

    def __post_init__(self):
        if self.group_size < 1 or self.n_groups < 1:
            raise ValueError("group_size and n_groups must be >= 1")
        if len(self.offsets_s) != self.n_groups:
            raise ValueError("need one offset per group")
        if not all(0.0 <= w < math.inf for w in self.offsets_s):
            raise ValueError("offsets must be non-negative and finite")

    @property
    def q_total(self) -> int:
        return self.group_size * self.n_groups


class EventStream:
    """Sorted bearer-request timestamps with optional per-event source ids."""

    def __init__(self, timestamps, source_ids=None):
        self.timestamps = np.asarray(timestamps, dtype=np.float64)
        if self.timestamps.ndim != 1:
            raise ValueError("timestamps must be one-dimensional")
        if len(self.timestamps) > 1 and np.any(np.diff(self.timestamps) < 0):
            raise ValueError("timestamps must be non-decreasing")
        if source_ids is not None:
            source_ids = np.asarray(source_ids, dtype=np.int64)
            if source_ids.shape != self.timestamps.shape:
                raise ValueError("source_ids must match timestamps")
        self.source_ids = source_ids

    def __len__(self):
        return len(self.timestamps)

    def gaps(self) -> np.ndarray:
        return np.diff(self.timestamps)

    def mean_rate(self) -> float:
        if len(self) < 2:
            raise ValueError("need >= 2 events for a rate")
        return (len(self) - 1) / (self.timestamps[-1] - self.timestamps[0])

    def save_csv(self, path):
        if self.source_ids is None:
            write_csv(path, ["timestamp_s"], self.timestamps)
        else:
            write_csv(path, ["timestamp_s", "source_id"], self.timestamps, self.source_ids)

    def save_binary(self, path):
        """Length-prefixed stream: little-endian u64 count, then f64 seconds."""
        with open(path, "wb") as fh:
            fh.write(struct.pack("<Q", len(self.timestamps)))
            fh.write(self.timestamps.astype("<f8").tobytes())


def poisson_arrivals(rate, start_s, end_s, rng):
    """Poisson arrival times at ``rate`` over [start_s, end_s), sorted.

    Gaps are drawn in chunks sized to cover the expected count with a
    six-sigma margin, so one draw usually suffices.
    """
    times = []
    t = start_s
    mean_n = rate * (end_s - start_s)
    chunk = max(16, int(mean_n + 6.0 * math.sqrt(mean_n + 1.0)))
    while True:
        gaps = rng.exponential(1.0 / rate, chunk)
        cum = t + np.cumsum(gaps)
        inside = cum[cum < end_s]
        times.append(inside)
        if inside.size < cum.size:
            break
        t = float(cum[-1])
    return np.concatenate(times)


def beta_pmf(n, params):
    """Per-slot alarm probability 60*(n*d/T)^2 * (1-n*d/T)^3 * (d/T).

    `params` is a TrafficParams or a bare slot count N (d/T = 1/N either
    way).  The grid values sum to ~1 over one period, so each source
    visits Alarm about once every T seconds.
    """
    n_slots = params.n_slots if isinstance(params, TrafficParams) else int(params)
    n_arr = np.asarray(n)
    if np.any(n_arr < 0) or np.any(n_arr > n_slots):
        raise ValueError(f"slot index out of [0, {n_slots}]")
    x = n_arr / n_slots
    out = 60.0 * x**2 * (1.0 - x) ** 3 / n_slots
    return float(out) if np.isscalar(n) else out


class HazardTable(NamedTuple):
    """The cumulative slot hazard of one period, kept at its even slots.

    ``even[m]`` is P[2m], the hazard -ln(1-f) summed over slots 1..2m, for
    2m <= N; ``phi`` is the period total P[N].  An odd slot's P[2m+1] is
    rebuilt on demand as ``even[m] + h(2m+1)``, the one float add the
    running sum made there, so every rebuilt value equals the full
    prefix's bit for bit.
    """

    even: np.ndarray
    phi: float
    n_slots: int


def _slot_hazard(slots, n_slots):
    """-ln(1-f) of each slot in a 1-d int64 array: the summand of P."""
    return -np.log1p(-beta_pmf(slots, n_slots))


def hazard_table(params: TrafficParams) -> HazardTable:
    """The cumulative hazard -ln(1-f) over one period, as a HazardTable.

    Built afresh on every call, for its caller alone: one float64 per
    even slot (3.8 MiB at the stock 10^6 slots) that nothing keeps once
    the caller drops it.  Every f is at most 2.0736/N, so -ln(1-f) is
    finite and phi is about 1.  The sum runs _PREFIX_CHUNK slots at a
    time, each chunk's first term carrying the sum so far, which adds in
    the same left-to-right order as one cumsum over the whole grid.
    """
    n_slots = params.n_slots
    even = np.empty(n_slots // 2 + 1)
    even[0] = 0.0
    run = np.empty(_PREFIX_CHUNK)
    total = 0.0
    # every chunk starts at an odd slot, so its even slots sit at odd offsets
    for lo in range(1, n_slots + 1, _PREFIX_CHUNK):
        hi = min(lo + _PREFIX_CHUNK, n_slots + 1)
        h = _slot_hazard(np.arange(lo, hi), n_slots)
        h[0] += total
        part = np.cumsum(h, out=run[:hi - lo])
        even[(lo + 1) // 2:(hi + 1) // 2] = part[1::2]
        total = float(part[-1])
    return HazardTable(even, total, n_slots)


def _prefix_at(table: HazardTable, slots):
    """P[slots] for int64 slots in [0, N], any shape, odd ones rebuilt."""
    slots = np.asarray(slots)
    flat = slots.reshape(-1)
    out = table.even[flat >> 1]
    odd = np.flatnonzero(flat & 1)
    out[odd] += _slot_hazard(flat[odd], table.n_slots)
    return out.reshape(slots.shape)[()]


def slot_phases(offsets_s, params: TrafficParams) -> np.ndarray:
    """Slot phase of each group offset: offset / slot_delta_s, truncated, mod N.

    Offsets must lie in [0, period_s); any other value, NaN included,
    raises ValueError rather than wrapping round the period.
    """
    offs = np.asarray(offsets_s, dtype=np.float64)
    if not np.all((offs >= 0.0) & (offs < params.period_s)):
        raise ValueError("offsets must lie in [0, period_s)")
    return (offs / params.slot_delta_s).astype(np.int64) % params.n_slots


def cumulative_hazard(y, table: HazardTable):
    """Cumulative -ln(1-f) over absolute slots 1..y, across period wraps.

    H(y) = (y // N) * phi + P[y % N] for integer y >= 0, with P the
    table's prefix; H(b) - H(a) is the hazard of slots a+1..b.  Over
    y = 0..N it is the full prefix P[0..N] itself, bit for bit.
    """
    n_slots = table.n_slots
    return (y // n_slots) * table.phi + _prefix_at(table, y % n_slots)


def _slots_from_targets(table: HazardTable, targets):
    """Smallest absolute slots y with cumulative hazard(y) >= targets."""
    even, phi, n_slots = table
    periods = np.floor_divide(targets, phi).astype(np.int64)
    residual = targets - periods * phi
    # sorted keys walk the table in order, where unsorted ones each miss
    # the cache: the slots are found in that order, then scattered back
    order = np.argsort(residual)
    r = residual[order]
    j = np.searchsorted(even, r, side="left")
    # P[2j-2] < r <= P[2j]: the first slot is the odd 2j-1 when
    # P[2j-1] = P[2j-2] + h(2j-1) reaches r, else 2j; past the table's end
    # (r > phi at even N) it is N+1, as the search over the full prefix gives
    y = 2 * j
    odd = y - 1
    past = odd > n_slots
    y[past] = odd[past]
    k = np.flatnonzero((j > 0) & ~past)
    k = k[even[j[k] - 1] + _slot_hazard(odd[k], n_slots) >= r[k]]
    y[k] = odd[k]
    np.maximum(y, 1, out=y)
    slots = np.empty_like(y)
    slots[order] = y
    return periods * n_slots + slots


def check_expected_requests(q_total, params: TrafficParams, horizon_s):
    """Raise ValueError when q_total sources over horizon_s are expected to
    emit more than MAX_EXPECTED_REQUESTS requests, Q * (p * H / T + epsilon * H),
    or to draw more than MAX_ALARM_DRAWS alarms, Q * H / T."""
    draws = q_total * horizon_s / params.period_s
    expected = (draws * params.tx_probability
                + q_total * params.regular_rate_epsilon * horizon_s)
    for count, bound, what in ((expected, MAX_EXPECTED_REQUESTS, "requests"),
                               (draws, MAX_ALARM_DRAWS, "alarm draws")):
        if not count <= bound:
            raise ValueError(f"{q_total} sources over {horizon_s!r} s expect "
                             f"{count:.4g} {what}, need <= {bound}")


def generate_requests(population: SourcePopulation, params: TrafficParams,
                      horizon_s: float, seed) -> EventStream:
    """Simulate all sources over [0, horizon] and merge their requests.

    Every source alternates Regular/Alarm per the slot hazard; an alarm at
    slot s forces Regular at s+1, so the next alarm is at s+2 or later.
    Each alarm emits one request with probability tx_probability.  The
    merged stream is sorted by (time, source id) and is a pure function of
    (population, params, horizon, seed).  Raises ValueError, before any
    draw, when more than MAX_EXPECTED_REQUESTS requests or MAX_ALARM_DRAWS
    alarm draws are expected.
    """
    if horizon_s < params.period_s:
        raise ValueError("horizon must cover at least one period")
    check_expected_requests(population.q_total, params, horizon_s)
    rng = np.random.default_rng(seed)
    delta = params.slot_delta_s

    phase = np.repeat(slot_phases(population.offsets_s, params), population.group_size)
    table = hazard_table(params)

    q_total = population.q_total
    # cumulative hazard consumed so far, in shifted (per-source) coordinates
    base = cumulative_hazard(phase, table)
    alive = np.ones(q_total, dtype=bool)

    times, ids = [], []
    while alive.any():
        idx = np.flatnonzero(alive)
        wait = rng.exponential(size=idx.size)
        y_alarm = _slots_from_targets(table, base[idx] + wait)
        t_alarm = (y_alarm - phase[idx]) * delta
        expired = t_alarm > horizon_s
        alive[idx[expired]] = False
        live = ~expired
        if not live.any():
            continue
        y_live = y_alarm[live]
        emit = rng.random(size=len(y_live)) < params.tx_probability
        times.append(t_alarm[live][emit])
        ids.append(idx[live][emit])
        # forced Regular at the slot after the alarm: hazard resumes at +2
        base[idx[live]] = cumulative_hazard(y_live + 1, table)
    del table  # released before the merge: the alarm draws are done

    if params.regular_rate_epsilon > 0.0:
        counts = rng.poisson(params.regular_rate_epsilon * horizon_s, size=q_total)
        total = int(counts.sum())
        times.append(rng.uniform(0.0, horizon_s, size=total))
        ids.append(np.repeat(np.arange(q_total), counts))

    t_all = np.concatenate(times) if times else np.empty(0)
    id_all = np.concatenate(ids) if ids else np.empty(0, dtype=np.int64)
    del times, ids
    # reassigned one at a time, so at most one array is held in both orders
    order = np.lexsort((id_all, t_all))
    t_all = t_all[order]
    id_all = id_all[order]
    return EventStream(t_all, id_all)
