"""Event-driven simulation of the bearer-instantiation message flow.

Every network entity (UE, eNB, MME, HSS, SGW, PGW) is modeled as an
egalitarian processor-sharing server: with k jobs in service each job
receives capacity C/k.  The engine uses the exact virtual-time
construction -- the server's virtual clock advances at rate C/k, and a
job of size ``work`` entering at virtual time V finishes at virtual time
V + work -- so completion instants carry no time-discretization error.

A bearer request walks an ordered list of message hops.  Hop n+1 enters
its entity's server the moment hop n completes, except for one optional
"marked" hop (the radio-connection release toward the device) which is
dispatched concurrently when its predecessor completes; the request is
complete when both the sequential chain and the marked hop have
finished.

The event core merges two sources in time order: request arrivals,
read by a pointer into the sorted stream (an arrival wins every time
tie), and one pending completion per busy server, whose queue entry is
updated in place when an admission moves that server's next completion,
so the queue never holds a stale entry.  Messages between entities take
no time: as in the paper's model, a request's delay is service and
queueing alone.  The processor-sharing arithmetic runs inline in that
loop, over per-server state kept in flat lists indexed by server id.  A
job admitted to an idle server -- the common case for the per-device UE
servers and the eNBs -- accrues no clock and needs no heap work.

``single_job_mode`` collapses the whole procedure into one deterministic
job at the MME plus a constant offset, which is the exact simulation
counterpart of the analytic delay model in :mod:`miotcore.delay`.
"""

import itertools
import math
from array import array
from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Optional

import numpy as np

from .csvio import write_csv
from .delay import EntityProfile, instance_loads
from .errors import ConfigurationError

_INF = float("inf")
_WORK_TOL = 1e-9

# the entity of each step of the procedure, in order
_DEFAULT_HOP_PLAN = (
    "UE",   # attach request
    "eNB",  # attach forward
    "MME",  # attach processing
    "HSS",  # authentication vectors
    "MME",  # authentication check
    "UE",   # authentication response
    "MME",  # security setup
    "MME",  # identity check
    "SGW",  # session create
    "PGW",  # session create
    "SGW",  # session confirm
    "MME",  # session complete
    "eNB",  # bearer setup
    "MME",  # bearer confirm
    "MME",  # data notify
    "SGW",  # data forward
    "MME",  # data complete
    "MME",  # bearer release
    "UE",   # RRC connection release
)


@dataclass(frozen=True)
class MessageHop:
    """One control message: processed at ``entity``, costing ``work`` operations."""

    entity: str
    work: float

    def __post_init__(self):
        if not self.entity:
            raise ConfigurationError("hop entity must be a non-empty name")
        if not (self.work > 0.0):
            raise ConfigurationError(
                f"hop work must be positive, got {self.work!r} for entity {self.entity!r}"
            )


@dataclass(frozen=True)
class ProcedureTemplate:
    """Ordered message hops of one bearer instantiation.

    ``marked_index`` names the single out-of-band hop that does not block
    the sequential chain: it is dispatched when its predecessor in the
    ordered list completes, runs concurrently with the remainder of the
    chain, and only the request completion time waits for it.  It must
    have a predecessor (``1 <= marked_index``), so every request enters
    the walk at hop 0, on the chain.
    """

    hops: tuple
    marked_index: Optional[int] = None

    def __post_init__(self):
        hops = tuple(self.hops)
        object.__setattr__(self, "hops", hops)
        if not hops:
            raise ConfigurationError("procedure template must contain at least one hop")
        for hop in hops:
            if not isinstance(hop, MessageHop):
                raise ConfigurationError("template hops must be MessageHop instances")
        if self.marked_index is not None:
            idx = int(self.marked_index)
            if not 1 <= idx < len(hops):
                raise ConfigurationError(
                    f"marked_index {self.marked_index} out of range for {len(hops)} hops"
                )
            object.__setattr__(self, "marked_index", idx)

    @property
    def n_hops(self):
        return len(self.hops)

    def entities(self):
        """Entity names appearing in the template, in first-appearance order."""
        seen = []
        for hop in self.hops:
            if hop.entity not in seen:
                seen.append(hop.entity)
        return tuple(seen)

    def work_by_entity(self):
        totals = {}
        for hop in self.hops:
            totals[hop.entity] = totals.get(hop.entity, 0.0) + hop.work
        return totals

    def validate_against(self, profiles):
        """Check per-entity hop work sums against the profiles by entity name.

        For every entity appearing in the template there must be a profile,
        and the sum of hop works at that entity must equal the profile's
        ops_per_bearer to within a 1e-9 relative tolerance.
        """
        for entity, total in self.work_by_entity().items():
            if entity not in profiles:
                raise ConfigurationError(
                    f"template references entity {entity!r} with no profile"
                )
            expected = profiles[entity].ops_per_bearer
            if abs(total - expected) > _WORK_TOL * max(1.0, abs(expected)):
                raise ConfigurationError(
                    f"template work at {entity!r} sums to {total!r}, "
                    f"profile expects {expected!r}"
                )


def message_count(entity, declared=None):
    """Messages per bearer at ``entity``, its hops in the default plan: the
    only split the default template makes, so any other ``declared`` is refused."""
    count = _DEFAULT_HOP_PLAN.count(entity)
    if declared is not None and declared != count:
        raise ConfigurationError(
            f"messages_per_bearer: expected {count} at {entity}, got {declared}")
    return count


def default_bearer_template(profiles):
    """Build the default 19-hop bearer-instantiation template.

    The hop order follows the control-plane procedure (attach and
    authentication, session establishment across SGW and PGW, data
    forwarding, release), with the radio-connection release toward the
    device as the final, marked hop.  Each entity's per-bearer operations
    are split equally over its hops, so per-entity totals match the
    profiles by construction.  Every profile must declare its entity's
    ``message_count``.
    """
    hops = []
    for entity in _DEFAULT_HOP_PLAN:
        prof = profiles[entity]
        count = message_count(entity, prof.messages_per_bearer)
        hops.append(MessageHop(entity, prof.ops_per_bearer / count))
    return ProcedureTemplate(tuple(hops), marked_index=len(hops) - 1)


def _quantile_linear(values, p):
    """``np.quantile(values, p)`` of a non-empty 1-d float64 array, bit for bit.

    numpy's default 'linear' method, without the ``np.unique`` call that
    imports ``numpy.ma`` (0.6 MiB resident): the virtual index v = (n-1)*p
    with neighbours floor(v) and floor(v)+1 (both the last index when
    v >= n-1), a partition at the same indices, and numpy's lerp, which
    switches to b - (b-a)*(1-t) at t >= 0.5.  A NaN anywhere gives NaN.
    ``values`` is partitioned in place, where np.quantile partitions a copy.
    """
    n = values.size
    v = (n - 1) * p
    lo = math.floor(v)
    hi = lo + 1
    if v >= n - 1:
        lo = hi = -1
    values.partition(sorted({0, -1, lo, hi}))
    if math.isnan(values[-1]):
        return float(values[-1])
    a = float(values[lo])
    b = float(values[hi])
    t = v - lo
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


class DelaySampleSet:
    """Arrival and completion times of the completed bearer requests.

    Request i is row i of the arrays ``arrivals_s``, ``completions_s`` and
    ``delays_s``.  ``breakdown`` maps entity name to a column of the time
    each request spent being served (or queued) there; for the marked
    out-of-band hop only the span extending beyond both the sequential
    chain and the hop's own dispatch is attributed, so a request's
    breakdown sums to its delay.
    """

    def __init__(self, arrivals_s, completions_s, breakdown=None):
        self.arrivals_s = np.asarray(arrivals_s, dtype=float)
        self.completions_s = np.asarray(completions_s, dtype=float)
        if self.arrivals_s.ndim != 1 or self.completions_s.shape != self.arrivals_s.shape:
            raise ValueError("arrivals_s and completions_s must be aligned vectors")
        n = len(self.arrivals_s)
        if np.any(self.completions_s < self.arrivals_s):
            raise ValueError("completion precedes arrival")
        self.breakdown = {}
        for name, col in (breakdown or {}).items():
            col = np.asarray(col, dtype=float)
            if col.shape != (n,):
                raise ValueError(f"breakdown column {name!r} must have length {n}")
            self.breakdown[name] = col

    def __len__(self):
        return len(self.arrivals_s)

    @property
    def delays_s(self):
        return self.completions_s - self.arrivals_s

    def delay_percentile(self, p):
        """Empirical delay quantile at probability p in (0, 1)."""
        if not 0.0 < p < 1.0:
            raise ValueError(f"p must lie in (0, 1), got {p!r}")
        if not len(self):
            raise ValueError("no samples")
        return _quantile_linear(self.delays_s, p)

    def save_csv(self, path):
        write_csv(path, ["request_id", "arrival_s", "completion_s", "delay_s"],
                  range(len(self)), self.arrivals_s, self.completions_s, self.delays_s)


@dataclass(frozen=True, slots=True)
class ServerStats:
    """Per server-instance accounting over one simulation run."""

    entity: str
    instance: int
    capacity: float
    busy_s: float
    served_work: float
    job_seconds: float
    utilization: float


@dataclass(frozen=True, eq=False)
class UtilizationReport:
    """Busy-time accounting per entity, with per-instance rows available.

    ``servers`` holds one ``(entity, capacity, instances, busy_s,
    served_work, job_seconds)`` group per entity with servers, in name
    order: the instance numbers ascending, and one float64 entry per
    instance in each array.  ``rows`` builds one ServerStats per instance
    from them on every access, so a report holds no object per server.
    Two reports are equal when their horizons and rows are.
    """

    horizon_s: float
    servers: tuple

    def __eq__(self, other):
        if not isinstance(other, UtilizationReport):
            return NotImplemented
        return self.horizon_s == other.horizon_s and self.rows == other.rows

    @property
    def rows(self):
        """One ServerStats per server instance, by entity name, then instance."""
        h = self.horizon_s
        return tuple(
            ServerStats(entity, instance, capacity, busy, served, jobsec,
                        busy / h if h > 0 else 0.0)
            for entity, capacity, *columns in self.servers
            for instance, busy, served, jobsec in zip(*(c.tolist() for c in columns))
        )

    def per_entity(self):
        """Mean utilization per entity name (busy time over horizon, averaged
        across that entity's server instances)."""
        out = {}
        for entity, _, instances, busy_s, _, _ in self.servers:
            busy = 0.0
            for b in busy_s.tolist():  # in row order, as the rows add
                busy += b
            out[entity] = busy / (instances.size * self.horizon_s) if self.horizon_s > 0 else 0.0
        return out

    def text(self):
        lines = [f"horizon_s={self.horizon_s!r}"]
        per = self.per_entity()
        for entity, _, instances, *_ in self.servers:
            lines.append(
                f"entity={entity} instances={instances.size} utilization={per[entity]:.6f}"
            )
        return "\n".join(lines) + "\n"


def _route_divisor(entity, n_enb, n_sgw):
    """How a request's source key picks the entity's server instance.

    The instance is ``key % divisor``; divisor 0 means the key itself (one
    server per device), and divisor 1 a single shared instance.
    """
    if entity == "eNB":
        return n_enb
    if entity == "SGW":
        return n_sgw
    if entity == "UE":
        return 0
    return 1


def run_bearer_simulation(
    stream,
    template,
    profiles,
    horizon_s=None,
    n_enb=1,
    n_sgw=1,
):
    """Simulate every bearer request in ``stream`` walking ``template``.

    Each hop is a job on its entity's PS server; hop n+1 is dispatched the
    instant hop n completes, and the marked hop (if any) is dispatched
    concurrently when its template predecessor completes.  Requests arriving
    after ``horizon_s`` are ignored; everything dispatched runs to
    completion, and utilization is busy time divided by ``horizon_s``.

    Fan-out: requests are routed to ``n_enb`` eNB instances and ``n_sgw``
    SGW instances by source id (by request index when the stream carries no
    source ids); each device's UE processing runs on its own server; MME,
    HSS and PGW are single instances at the profile capacities.

    Delays are purely computational: a message reaches its next entity
    the instant it is sent, and each hop costs exactly its template work,
    so the profiles alone set every entity's per-bearer work, the MME's
    included.

    Raises :class:`OverloadError` before the first event when a server
    instance that the template visits and two or more requests use has
    load >= 1 (``delay.instance_loads`` at each entity's busiest instance,
    ``count / horizon_s``): its queue would grow for as long as the stream.

    Returns ``(samples, report)``: a :class:`DelaySampleSet` ordered by
    request index and a :class:`UtilizationReport`.
    """
    if not isinstance(template, ProcedureTemplate):
        raise ConfigurationError("template must be a ProcedureTemplate")
    template.validate_against(profiles)
    if n_enb < 1 or n_sgw < 1:
        raise ConfigurationError("n_enb and n_sgw must be at least 1")

    arrivals = np.asarray(stream.timestamps, dtype=float)
    if horizon_s is None:
        horizon_s = float(arrivals[-1]) if arrivals.size else 0.0
    n_req = int(np.searchsorted(arrivals, horizon_s, side="right"))
    arrivals = arrivals[:n_req]

    hops = template.hops
    n_hops = len(hops)
    marked = template.marked_index
    works = [float(h.work) for h in hops]
    entity_order = template.entities()
    col_of = {name: j for j, name in enumerate(entity_order)}
    n_cols = len(entity_order)

    chain = [i for i in range(n_hops) if i != marked]
    next_hop = [-1] * n_hops
    for pos in range(len(chain) - 1):
        next_hop[chain[pos]] = chain[pos + 1]
    marked_trigger = None if marked is None else marked - 1

    # Every request walks every hop, so the server instances are known up
    # front.  Each entity's servers take consecutive ids from ``first``, in
    # the order of its sorted ``instances``, and ``route[entity][req]`` is
    # the server a request's hops there use: an int32 array, read through
    # a memoryview, and for a single-instance entity one int32 repeated
    # with stride 0, which takes no memory per request.
    if stream.source_ids is not None:
        keys = np.asarray(stream.source_ids[:n_req], dtype=np.int64)
    else:
        keys = np.arange(n_req)
    servers = []  # (entity, first, instances)
    route = {}
    s_cap = []
    rates = {}
    for entity in entity_order:
        div = _route_divisor(entity, n_enb, n_sgw)
        instances, inverse, counts = np.unique(
            keys % div if div else keys, return_inverse=True, return_counts=True)
        if counts.max(initial=0) >= 2 and horizon_s > 0.0:  # its busiest instance
            rates[entity] = int(counts.max()) / horizon_s
        first = len(s_cap)
        if instances.size == 1:
            sids = np.broadcast_to(np.int32(first), (n_req,))
        else:
            sids = inverse.astype(np.int32)
            sids += first
        route[entity] = memoryview(sids)
        servers.append((entity, first, instances))
        s_cap += [float(profiles[entity].capacity)] * instances.size
    del keys, inverse, sids, counts
    if rates:
        instance_loads(rates, profiles)
    hop_route = [route[h.entity] for h in hops]

    # Per-server PS state, one list slot per server: clock, virtual clock,
    # accounting, and a heap of (virtual finish, ticket, request, hop, work)
    # for the jobs in service, None while the server is idle.  A job of
    # work w admitted at virtual time V finishes at virtual time V + w; the
    # virtual clock advances at capacity / k with k jobs in service, and
    # snaps to a job's virtual finish when it completes, so rounding does
    # not accumulate.
    n_srv = len(s_cap)
    s_t = [0.0] * n_srv
    s_v = [0.0] * n_srv
    s_busy = [0.0] * n_srv
    s_served = [0.0] * n_srv
    s_jobsec = [0.0] * n_srv
    s_jobs = [None] * n_srv
    s_entry = [None] * n_srv  # the server's queue entry while it is busy

    # per-request scratch state, flat: the current chain hop's dispatch,
    # the later of the chain's end and the marked hop's dispatch (all the
    # results need of either), and the marked hop's end.  The breakdown is
    # column-major, one n_req-long run per entity, so each column is a view.
    seq_start = array("d", [0.0]) * n_req
    late = array("d", [0.0]) * n_req
    marked_end = array("d", [0.0]) * n_req
    breakdown = array("d", [0.0]) * (n_cols * n_req)
    hop_at = [col_of[h.entity] * n_req for h in hops]  # a hop's column start

    # The event queue holds at most one entry per server, [time, ticket,
    # sid], kept current as the server's next completion moves.
    # Arrivals are merged from the sorted stream and win every time tie;
    # other ties go to the lower ticket, and one ticket sequence also
    # orders admissions within a server.
    events = [[_INF, _INF, None]]  # sentinel: never popped
    ticket = itertools.count().__next__

    def dispatch(t, req, hop):
        sid = hop_route[hop][req]
        work = works[hop]
        dt = t - s_t[sid]
        if dt < 0.0:
            raise ValueError(f"time moved backwards: {s_t[sid]!r} -> {t!r}")
        s_t[sid] = t
        n = ticket()
        jobs = s_jobs[sid]
        virtual = s_v[sid]
        if jobs:
            k = len(jobs)
            virtual += dt * s_cap[sid] / k
            s_v[sid] = virtual
            s_busy[sid] += dt
            s_jobsec[sid] += k * dt
            heappush(jobs, (virtual + work, n, req, hop, work))
            head = jobs[0][0] - virtual
            t_next = t + (head if head > 0.0 else 0.0) * (k + 1) / s_cap[sid]
        else:
            # idle: the job runs alone, with no service to accrue
            vf = virtual + work
            s_jobs[sid] = [(vf, n, req, hop, work)]
            t_next = t + (vf - virtual) / s_cap[sid]
        if hop != marked:
            seq_start[req] = t
        elif t > late[req]:
            late[req] = t
        entry = s_entry[sid]
        if entry is None:
            s_entry[sid] = entry = [t_next, n, sid]
            heappush(events, entry)
        else:
            entry[0] = t_next
            entry[1] = n
            heapify(events)

    # what a completed chain hop dispatches: the marked hop if it is the
    # trigger, then its successor in the chain
    successors = [
        ((marked,) if hop == marked_trigger else ()) + ((nxt,) if nxt >= 0 else ())
        for hop, nxt in enumerate(next_hop)
    ]

    arr = array("d", arrivals.tobytes())
    arr.append(_INF)
    i = 0
    while True:
        entry = events[0]
        t = arr[i]
        if t <= entry[0]:
            if t == _INF:
                break
            dispatch(t, i, 0)  # hop 0 is never the marked hop
            i += 1
            continue
        heappop(events)
        t = entry[0]
        sid = entry[2]
        # The entry's time is the head job's finish, so that job completes
        # now; with k jobs in service, so does every job whose finish rounds
        # to t.  All of them complete before any successor is dispatched.
        s_entry[sid] = None
        jobs = s_jobs[sid]
        k = len(jobs)
        dt = t - s_t[sid]
        s_t[sid] = t
        s_busy[sid] += dt
        s_jobsec[sid] += k * dt
        if k == 1:
            done = jobs
            jobs = None
        else:
            cap = s_cap[sid]
            done = [heappop(jobs)]
            k -= 1
            while k:
                head = jobs[0][0] - done[-1][0]
                if t + (head if head > 0.0 else 0.0) * k / cap > t:
                    break
                done.append(heappop(jobs))
                k -= 1
            if not k:
                jobs = None
        s_jobs[sid] = jobs  # None once the server is idle
        s_v[sid] = done[-1][0]
        for _vf, _n, req, hop, work in done:
            s_served[sid] += work
            if hop == marked:
                marked_end[req] = t
                continue
            breakdown[hop_at[hop] + req] += t - seq_start[req]
            for nxt in successors[hop]:
                dispatch(t, req, nxt)
            if next_hop[hop] < 0 and t > late[req]:
                late[req] = t
        if jobs and s_entry[sid] is None:
            # jobs are left and no successor re-entered the server: queue
            # it again, after its successors, as their tickets come first
            head = jobs[0][0] - s_v[sid]
            entry[0] = t + (head if head > 0.0 else 0.0) * len(jobs) / s_cap[sid]
            entry[1] = ticket()
            s_entry[sid] = entry
            heappush(events, entry)

    # Only the per-request times and the server accounting outlive the
    # loop: the routes, job heaps, queue entries, arrival copy and chain
    # hop starts go before the samples are built.
    del dispatch, route, hop_route, s_jobs, s_entry, s_t, s_v, events, arr, seq_start
    completions = np.frombuffer(late, dtype=float)
    breakdown = np.frombuffer(breakdown, dtype=float).reshape(n_cols, n_req)
    if marked is not None:
        marked_end = np.frombuffer(marked_end, dtype=float)
        # the marked entity gets only its span beyond both the chain and its
        # own dispatch
        breakdown[col_of[hops[marked].entity]] += np.maximum(0.0, marked_end - completions)
        # a hop ends after its dispatch, so this is max(chain end, marked end)
        np.maximum(completions, marked_end, out=completions)

    samples = DelaySampleSet(
        arrivals_s=arrivals,
        completions_s=completions,
        breakdown={name: breakdown[j] for name, j in col_of.items()},
    )
    del breakdown, late, marked_end

    groups = []
    for entity, first, instances in sorted(servers, key=lambda srv: srv[0]):
        if instances.size:
            span = slice(first, first + instances.size)
            groups.append((entity, s_cap[first], instances, np.array(s_busy[span]),
                           np.array(s_served[span]), np.array(s_jobsec[span])))
    report = UtilizationReport(horizon_s=float(horizon_s), servers=tuple(groups))
    return samples, report


def _ps_sojourns_equal_work(arrivals, service_s):
    """Sojourn times in a single PS server fed equal-size jobs.

    With equal job sizes virtual-finish order equals arrival order, so the
    exact virtual-time dynamics reduce to one linear pass: ``service_s`` is
    the job size expressed in seconds of dedicated service (work / capacity).
    The jobs in service are a FIFO of virtual finishes, so the pass holds
    only those beside the completion instants it returns.
    """
    arrivals = np.ascontiguousarray(arrivals, dtype=float)
    done = array("d")
    vfs = deque()
    v = 0.0
    t = 0.0
    for a in memoryview(arrivals):
        while vfs:
            t_c = t + (vfs[0] - v) * len(vfs)
            if t_c > a:
                break
            t = t_c
            v = vfs.popleft()
            done.append(t)
        k = len(vfs)
        if k:
            v += (a - t) / k
        t = a
        vfs.append(v + service_s)
    while vfs:
        t = t + (vfs[0] - v) * len(vfs)
        v = vfs.popleft()
        done.append(t)
    sojourns = np.frombuffer(done, dtype=float)
    sojourns -= arrivals
    return sojourns


def single_job_mode(stream, profile_mme, constant_delay_s):
    """Simulate each bearer request as one deterministic job at the MME.

    The request's delay is its sojourn in an M/D/1-PS queue with job size
    ``profile_mme.ops_per_bearer`` at capacity ``profile_mme.capacity``,
    plus the constant non-MME contribution ``constant_delay_s``.  This is
    the exact stochastic counterpart of the analytic delay model, useful to
    separate tail-approximation error from the single-job modeling step.

    Returns a :class:`DelaySampleSet` with breakdown columns ``MME`` (the
    sojourn) and ``other`` (the constant offset).
    """
    if not isinstance(profile_mme, EntityProfile):
        raise ConfigurationError("profile_mme must be an EntityProfile")
    if constant_delay_s < 0.0:
        raise ConfigurationError(
            f"constant_delay_s must be non-negative, got {constant_delay_s!r}"
        )
    arrivals = np.asarray(stream.timestamps, dtype=float)
    service_s = profile_mme.per_bearer_delay
    sojourns = _ps_sojourns_equal_work(arrivals, service_s)
    # arrival + (sojourn + K), added in that order into one buffer
    completions = sojourns + constant_delay_s
    completions += arrivals
    n = arrivals.shape[0]
    return DelaySampleSet(
        arrivals_s=arrivals,
        completions_s=completions,
        breakdown={
            "MME": sojourns,
            # one read-only float repeated with stride 0, not n copies of it
            "other": np.broadcast_to(float(constant_delay_s), (n,)),
        },
    )
