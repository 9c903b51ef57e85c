"""Two-state Markov traffic sources with a Beta(3,4) alarm hazard.

Each source idles in a Regular state and occasionally jumps to an Alarm
state; the per-slot transition probability follows the sampled Beta(3,4)
shape over a period of T seconds, so every source visits Alarm roughly
once per period.  On each Alarm visit the source emits a bearer request
with a fixed probability and is back in Regular one slot later.  Every
request time is a whole number of slots; at a regular rate epsilon the Q
sources add one Poisson stream at Q * epsilon with uniform sources.
"""

import math
import struct
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .csvio import write_csv

# the finest slot grid a parameter set may ask for: its cumulative hazard
# table is one float64 per _STRIDE slots, 20 MB at this size
MAX_SLOTS = 10**7

# the most requests a generation call may expect, Q * (p * H / T + epsilon * H):
# the stream is a float64 time and an int64 source id per request, 160 MB at
# this size (its merge holds 1.5 times that), a single-job pass over it 16
# bytes a request beside the times (sojourn and completion), 160 MB, and a
# walk of it about 88 bytes a request beside its per-server state (80 of
# per-request arrays, 8 of int32 routes to the UE and eNB servers), 0.9 GB
MAX_EXPECTED_REQUESTS = 10**7

# the most alarm draws a generation call may make, Q * H / T, whatever p:
# the generator holds about 100 bytes per live source (92-100 traced at 10^5
# and 4 * 10^5 sources), and Q <= Q * H / T, so 2 GB at this size
# (at p = 0.5 it admits what MAX_EXPECTED_REQUESTS admits)
MAX_ALARM_DRAWS = 2 * 10**7

# slots per step of the cumulative-hazard build; bounds its scratch memory
# to about 0.9 MiB traced
_PREFIX_CHUNK = 1 << 14

# the hazard table keeps the cumulative hazard of every _STRIDE-th slot;
# a slot in between costs up to _STRIDE - 1 hazard evaluations to rebuild
_STRIDE = 4


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
    offsets_s: tuple  # one per group, seconds in [0, T): slot_phases refuses any other

    def __post_init__(self):
        if self.group_size < 1 or self.n_groups < 1:
            raise ValueError("group_size and n_groups must be >= 1")
        if len(self.offsets_s) != self.n_groups:
            raise ValueError("need one offset per group")

    @property
    def q_total(self) -> int:
        return self.group_size * self.n_groups


class EventStream:
    """Sorted bearer-request timestamps with optional per-event source ids."""

    def __init__(self, timestamps, source_ids=None):
        self.timestamps = np.asarray(timestamps, dtype=np.float64)
        if self.timestamps.ndim != 1:
            raise ValueError("timestamps must be one-dimensional")
        if np.any(self.timestamps[1:] < self.timestamps[:-1]):
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
        """(n - 1) gaps over the observed span, which must be positive."""
        if len(self) < 2 or self.timestamps[-1] == self.timestamps[0]:
            raise ValueError("need >= 2 events over a positive span for a rate")
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
            # no copy unless the times are strided or not little-endian
            fh.write(np.ascontiguousarray(self.timestamps, dtype="<f8"))


def poisson_arrivals(rate, start_s, end_s, rng):
    """Poisson arrival times at ``rate`` over [start_s, end_s), sorted.

    Gaps are drawn in chunks sized to cover the expected count with a
    six-sigma margin, so one draw usually suffices; a zero rate draws none.
    """
    if rate == 0.0:
        return np.empty(0)
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


def beta_pmf(n, n_slots):
    """Per-slot alarm probability 60*(n*d/T)^2 * (1-n*d/T)^3 * (d/T).

    ``n_slots`` is the slot count N of one period, so d/T = 1/N.  The grid
    values sum to ~1 over one period, so each source visits Alarm about
    once every T seconds.
    """
    n_arr = np.asarray(n)
    if np.any(n_arr < 0) or np.any(n_arr > n_slots):
        raise ValueError(f"slot index out of [0, {n_slots}]")
    x = n_arr / n_slots
    out = 60.0 * x**2 * (1.0 - x) ** 3 / n_slots
    return float(out) if np.isscalar(n) else out


class HazardTable(NamedTuple):
    """The cumulative slot hazard of one period, kept at every _STRIDE-th slot.

    ``checkpoints[m]`` is P[4m], the hazard -ln(1-f) summed over slots
    1..4m, for 4m <= N; ``phi`` is the period total P[N].  A slot 4m+i in
    between (i = 1..3) is rebuilt on demand by adding h(4m+1) .. h(4m+i)
    to ``checkpoints[m]`` one at a time, the float adds the running sum
    made there, so every rebuilt value equals the full prefix's bit for
    bit.
    """

    checkpoints: np.ndarray
    phi: float
    n_slots: int


def _slot_hazard(slots, n_slots):
    """-ln(1-f) of each slot in a 1-d int64 array: the summand of P."""
    return -np.log1p(-beta_pmf(slots, n_slots))


def hazard_table(params: TrafficParams) -> HazardTable:
    """The cumulative hazard -ln(1-f) over one period, as a HazardTable.

    Built afresh on every call, for its caller alone: one float64 per
    _STRIDE slots (1.9 MiB at the stock 10^6 slots) that nothing keeps
    once the caller drops it.  Every f is at most 2.0736/N, so -ln(1-f) is
    finite and phi is about 1.  The sum runs _PREFIX_CHUNK slots at a
    time, each chunk's first term carrying the sum so far, which adds in
    the same left-to-right order as one cumsum over the whole grid.
    """
    n_slots = params.n_slots
    checkpoints = np.empty(n_slots // _STRIDE + 1)
    checkpoints[0] = 0.0
    run = np.empty(_PREFIX_CHUNK)
    total = 0.0
    # every chunk starts at a slot 1 past a multiple of _STRIDE, so its
    # checkpoint slots sit at offsets _STRIDE - 1, 2 * _STRIDE - 1, ...
    for lo in range(1, n_slots + 1, _PREFIX_CHUNK):
        hi = min(lo + _PREFIX_CHUNK, n_slots + 1)
        h = _slot_hazard(np.arange(lo, hi), n_slots)
        h[0] += total
        part = np.cumsum(h, out=run[:hi - lo])
        checkpoints[(lo + _STRIDE - 1) // _STRIDE:(hi + _STRIDE - 1) // _STRIDE] = \
            part[_STRIDE - 1::_STRIDE]
        total = float(part[-1])
    return HazardTable(checkpoints, total, n_slots)


def _prefix_at(table: HazardTable, slots):
    """P[slots] for int64 slots in [0, N], any shape, in-between ones rebuilt.

    Slot 4m+i adds h(4m+1), then h(4m+2), ... h(4m+i) to P[4m], the
    float adds the running sum made there.
    """
    slots = np.asarray(slots)
    flat = slots.reshape(-1)
    m, i = np.divmod(flat, _STRIDE)
    out = table.checkpoints[m]
    for step in range(1, _STRIDE):
        k = np.flatnonzero(i >= step)
        out[k] += _slot_hazard(_STRIDE * m[k] + step, table.n_slots)
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
    checkpoints, phi, n_slots = table
    periods = np.floor_divide(targets, phi).astype(np.int64)
    residual = targets - periods * phi
    # sorted keys walk the table in order, where unsorted ones each miss
    # the cache: the slots are found in that order, then scattered back
    order = np.argsort(residual)
    r = residual[order]
    j = np.searchsorted(checkpoints, r, side="left")
    # P[4j-4] < r <= P[4j]: the first slot is 4j-3 plus the number of
    # slots 4j-3 .. 4j-1 whose P, rebuilt one add at a time, falls short
    # of r, else 4j; past the table's end (r above its last checkpoint) it
    # is N+1 when no slot up to N reaches r, as the search over the full
    # prefix gives.  A slot past N adds slot N's zero hazard, so it never
    # reaches r.
    y = np.minimum(_STRIDE * j, n_slots + 1)
    k = np.flatnonzero(j > 0)
    first = _STRIDE * (j[k] - 1) + 1
    run = checkpoints[j[k] - 1]
    r = r[k]
    short = np.zeros(k.size, dtype=np.int64)
    for step in range(_STRIDE - 1):
        run += _slot_hazard(np.minimum(first + step, n_slots), n_slots)
        short += run < r
    hit = short < _STRIDE - 1
    y[k[hit]] = (first + short)[hit]
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
    Each alarm emits one request with probability tx_probability; a
    regular rate epsilon adds one Poisson(Q * epsilon) stream of uniform
    sources on the slot grid.  The requests, keyed slot * Q + source and
    sorted in place, come out in (time, source id) order, a pure function
    of (population, params, horizon, seed).  Raises ValueError, before any
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

    # key = step * Q + source, step the request's slot from 0: Q * H / T <=
    # MAX_ALARM_DRAWS and T / delta <= MAX_SLOTS keep it below about 2e14
    keys = []
    while alive.any():
        idx = np.flatnonzero(alive)
        wait = rng.exponential(size=idx.size)
        y_alarm = _slots_from_targets(table, base[idx] + wait)
        steps = y_alarm - phase[idx]
        expired = steps * delta > horizon_s
        alive[idx[expired]] = False
        live = ~expired
        idx, y_alarm, steps = idx[live], y_alarm[live], steps[live]
        emit = rng.random(size=idx.size) < params.tx_probability
        keys.append(steps[emit] * q_total + idx[emit])
        # forced Regular at the slot after the alarm: hazard resumes at +2
        base[idx] = cumulative_hazard(y_alarm + 1, table)
    del table  # released before the merge: the alarm draws are done

    # Q Poisson(epsilon) sources are one Poisson(Q * epsilon) stream whose
    # sources are i.i.d. uniform; its times are floored onto the slot grid
    t = poisson_arrivals(q_total * params.regular_rate_epsilon, 0.0, horizon_s, rng)
    keys.append((t / delta).astype(np.int64) * q_total + rng.integers(q_total, size=t.size))
    key = np.concatenate(keys)
    del keys, t
    key.sort()  # step * delta rises with step: this is (time, source) order
    return EventStream((key // q_total) * delta, key % q_total)
