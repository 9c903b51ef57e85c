"""Exact oracles for the whole bearer walk.

Three independent views of ``run_bearer_simulation`` on the default
19-hop template:

* a degenerate reduction: with every non-MME server infinitely fast the
  walk is one M/D/1-PS queue at the MME, which ``single_job_mode``
  computes by its own linear pass;
* a reference walker written from the processor-sharing definition alone
  (no heap, no idle fast path, no pending-entry map), which must agree
  with the walk bit for bit on contended eNB, SGW and MME servers, with
  extra MME work, on the default template and on templates Hypothesis
  draws;
* a golden digest of a walk over a generated stream, which pins how the
  walk orders events that fall at the same instant.
"""

import dataclasses
import hashlib
import itertools
import tracemalloc

import numpy as np
from hypothesis import given, strategies as st

from conftest import poisson_stream, with_mme_ops
from miotcore.config import DEFAULT_ENTITY_PROFILES
from miotcore.delay import ENTITY_NAMES, EntityProfile
from miotcore.simulator import (
    MessageHop,
    ProcedureTemplate,
    default_bearer_template,
    run_bearer_simulation,
    single_job_mode,
)
from miotcore.traffic import EventStream, SourcePopulation, TrafficParams, generate_requests

_INF = float("inf")


def _instance(entity, key, n_enb, n_sgw):
    if entity == "UE":
        return key
    if entity == "eNB":
        return key % n_enb
    if entity == "SGW":
        return key % n_sgw
    return 0


def reference_walk(stream, template, profiles, n_enb=1, n_sgw=1):
    """Walk every request of ``stream`` through ``template`` by brute force.

    Each server is ``[t_now, virtual, jobs, scheduled]`` with ``jobs``
    mapping a job to its virtual finish, updated only at that server's own
    arrivals and completions.  The next event is found by scanning, every
    step.  A completed hop admits the request's next hop at once.  Events at
    one instant run in the walk's order: a request arrival first, then the
    server completion scheduled first, a server's completion counting as
    scheduled at its latest admission or, when jobs outlast a completion,
    after that completion's successors.  A server completes every job due
    at the instant before any successor starts.  Returns ``(completions,
    breakdown)`` with the walk's column conventions.
    """
    capacity = {name: p.capacity for name, p in profiles.items()}
    hops = template.hops
    works = [h.work for h in hops]
    columns = template.entities()
    col = [columns.index(h.entity) for h in hops]

    arrivals = stream.timestamps
    n = len(arrivals)
    keys = list(range(n)) if stream.source_ids is None else stream.source_ids.tolist()
    hop_start = [0.0] * n
    completions = [0.0] * n
    breakdown = [[0.0] * len(columns) for _ in range(n)]
    servers = {}  # (entity, instance) -> [t_now, virtual, {job: virtual finish}, scheduled]
    order = itertools.count()

    def admit(t, req, hop):
        entity = hops[hop].entity
        srv = servers.setdefault(
            (entity, _instance(entity, keys[req], n_enb, n_sgw)), [0.0, 0.0, {}, None])
        t_now, virtual, jobs, _ = srv
        if jobs:
            virtual += (t - t_now) * capacity[entity] / len(jobs)
        jobs[(req, hop)] = virtual + works[hop]
        srv[0], srv[1], srv[3] = t, virtual, next(order)
        hop_start[req] = t

    def next_completion(name, srv):
        t_now, virtual, jobs, _ = srv
        job = min(jobs, key=jobs.get)
        return t_now + max(0.0, jobs[job] - virtual) * len(jobs) / capacity[name[0]], job

    i = 0
    while True:
        t_arr = arrivals[i] if i < n else _INF
        pending = [(next_completion(name, srv)[0], srv[3], name, srv)
                   for name, srv in servers.items() if srv[2]]
        t, _, name, event = min(pending, default=(_INF, 0, None, None))
        if t_arr == t == _INF:
            break
        if t_arr <= t:
            admit(t_arr, i, 0)
            i += 1
            continue
        done = []
        while event[2]:
            t_c, job = next_completion(name, event)
            if t_c > t:
                break
            event[0], event[1] = t, event[2].pop(job)
            done.append(job)
        event[3] = None
        for req, hop in done:
            breakdown[req][col[hop]] += t - hop_start[req]
            if hop + 1 < len(hops):
                admit(t, req, hop + 1)
            else:
                completions[req] = t
        if event[2] and event[3] is None:
            event[3] = next(order)

    breakdown = np.array(breakdown).reshape(n, len(columns))
    return np.array(completions), {name: breakdown[:, j].copy() for j, name in enumerate(columns)}


def _with_capacity(profiles, capacities):
    return {name: dataclasses.replace(p, capacity=capacities.get(name, p.capacity))
            for name, p in profiles.items()}


@given(rho=st.floats(0.3, 0.98), n_req=st.integers(2, 1000),
       n_enb=st.integers(1, 4), n_sgw=st.integers(1, 3),
       encryption_ops=st.sampled_from([0.0, 1.0, 3.0]),
       seed=st.integers(0, 2**32 - 1))
def test_walk_with_instant_non_mme_servers_is_the_single_job_queue(
        rho, n_req, n_enb, n_sgw, encryption_ops, seed):
    # at capacity 1e300 every non-MME hop ends at t + w/C == t, so the nine
    # MME visits of a request join into one job of the MME's ops, with the
    # encryption work config adds to them
    fast = with_mme_ops(_with_capacity(DEFAULT_ENTITY_PROFILES, {
        name: 1e300 for name in DEFAULT_ENTITY_PROFILES if name != "MME"}), encryption_ops)
    mme = fast["MME"]
    rate = rho * mme.capacity / mme.ops_per_bearer
    stream = poisson_stream(rate, n_req, seed, source_ids=np.arange(n_req) % 7)
    horizon = max(float(stream.timestamps[-1]), n_req / rate)
    walk, _ = run_bearer_simulation(
        stream, default_bearer_template(fast), fast, horizon_s=horizon,
        n_enb=n_enb, n_sgw=n_sgw)
    single = single_job_mode(stream, fast)
    assert len(walk) == n_req
    assert np.max(np.abs(walk.completions_s - single.completions_s)) <= 1e-9
    assert np.max(np.abs(walk.breakdown["MME"] - walk.delays_s)) <= 1e-9


def _assert_walks_agree(stream, template, profiles, horizon_s=None, **kwargs):
    samples, _ = run_bearer_simulation(stream, template, profiles, horizon_s, **kwargs)
    completions, cols = reference_walk(stream, template, profiles, **kwargs)
    assert np.array_equal(samples.completions_s, completions)
    assert samples.breakdown.keys() == cols.keys()
    for name, col in cols.items():
        assert np.array_equal(samples.breakdown[name], col), name


def test_contended_walks_match_the_reference_walker():
    n_req = 1000
    # MME at 0.88, SGW at 0.60 and each of three eNBs at 0.53; the MME
    # carries 2 extra operations per request, as config adds encryption_ops
    profiles = with_mme_ops(_with_capacity(DEFAULT_ENTITY_PROFILES, {"SGW": 4000.0}), 2.0)
    stream = poisson_stream(800.0, n_req, seed=5, source_ids=np.arange(n_req) % 40)
    _assert_walks_agree(stream, default_bearer_template(profiles), profiles, n_enb=3)
    # a completion admits its successor at once, so consecutive MME hops
    # re-enter the server they just left
    profiles = _with_capacity(DEFAULT_ENTITY_PROFILES, {"SGW": 3500.0})
    stream = poisson_stream(700.0, n_req, seed=6, source_ids=np.arange(n_req) % 25)
    _assert_walks_agree(stream, default_bearer_template(profiles), profiles, n_enb=2)


@st.composite
def _drawn_walk(draw):
    """A template, its profiles, a stream of at most 200 requests with tied
    times, and the walk's fan-out."""
    entities = draw(st.lists(st.sampled_from(ENTITY_NAMES), min_size=1, max_size=8))
    mme_ops = draw(st.sampled_from([9.0, 11.0, 12.5, 17.0]))
    # the MME's ops split evenly over its hops, as the default template
    # splits them; every other hop's work is its own
    works = [mme_ops / entities.count(e) if e == "MME"
             else draw(st.sampled_from([0.5, 1.0, 2.0, 3.0])) for e in entities]
    template = ProcedureTemplate(tuple(map(MessageHop, entities, works)))
    capacity = {e: draw(st.sampled_from([500.0, 2000.0, 10_000.0])) for e in set(entities)}
    profiles = {e: EntityProfile(e, mme_ops if e == "MME" else total, capacity[e])
                for e, total in template.work_by_entity().items()}
    template.validate_against(profiles)
    # a size drawn first, so that long streams are as likely as short ones
    n = draw(st.integers(1, 200))
    gaps = draw(st.lists(st.sampled_from([0.0, 0.0, 1e-4, 5e-4, 1e-3, 4e-3]),
                         min_size=n, max_size=n))
    ids = draw(st.lists(st.integers(0, 11), min_size=n, max_size=n))
    stream = EventStream(np.cumsum(gaps), ids)
    # a horizon that keeps every server instance below rho 0.5, even one
    # that serves all n requests, so the walk refuses nothing
    d_max = max(prof.per_bearer_delay for prof in profiles.values())
    horizon = max(float(stream.timestamps[-1]), 2.0 * n * d_max)
    kwargs = dict(horizon_s=horizon, n_enb=draw(st.integers(1, 3)),
                  n_sgw=draw(st.integers(1, 3)))
    return stream, template, profiles, kwargs


@given(case=_drawn_walk())
def test_drawn_walks_match_the_reference_walker(case):
    stream, template, profiles, kwargs = case
    _assert_walks_agree(stream, template, profiles, **kwargs)


# sha256 of the walk below, recorded before the event core was rewritten
_STOCK_WALK_SHA256 = "f16bb9ebb43f33f577d1df9a93f4aa4b414dccf72e50e6c7c5c82ceaef8ef6ca"


def _walk_sha256(samples, report):
    digest = hashlib.sha256(np.ascontiguousarray(samples.completions_s, "<f8").tobytes())
    for name in sorted(samples.breakdown):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(samples.breakdown[name], "<f8").tobytes())
    digest.update(repr(report.rows).encode())
    return digest.hexdigest()


def _stock_stream():
    """The stream `simulate --seed 0` makes at Q=10^4 over 40 s."""
    off_ss, gen_ss = np.random.SeedSequence(0).spawn(1)[0].spawn(2)
    params = TrafficParams()
    offsets = np.random.default_rng(off_ss).uniform(0.0, params.period_s, 100)
    population = SourcePopulation(100, 100, tuple(float(x) for x in offsets))
    return generate_requests(population, params, 40.0, gen_ss)


def test_stock_walk_with_tied_event_times_matches_its_golden_digest():
    # The stock stream walked for its first 2 s (1166 requests) with 100
    # eNBs.  The generator's 1e-5 s slot grid makes events coincide, and a
    # walk that breaks such ties in another order moves completions by
    # ulps.  A reference walker that broke ties between servers in dict
    # order differed from this walk in 39 of the first 568 completions, by
    # up to 5.6e-15 s; reference_walk runs simultaneous events in the
    # walk's order and agrees with every bit.
    stream = _stock_stream()
    template = default_bearer_template(DEFAULT_ENTITY_PROFILES)
    samples, report = run_bearer_simulation(
        stream, template, DEFAULT_ENTITY_PROFILES, horizon_s=2.0, n_enb=100)
    assert len(samples) == 1166
    assert _walk_sha256(samples, report) == _STOCK_WALK_SHA256
    cut = EventStream(stream.timestamps[:1166], stream.source_ids[:1166])
    _assert_walks_agree(cut, template, DEFAULT_ENTITY_PROFILES, horizon_s=2.0, n_enb=100)


def test_stock_walk_traced_peak_is_bounded():
    # The same 2 s cut: the walk frees its routes, job heaps and queue
    # entries before it builds its samples, and its per-request scratch
    # before its report rows.  Its traced peak was 0.86 MiB with all of
    # them alive at once, and is 0.56 MiB.
    stream = _stock_stream()
    template = default_bearer_template(DEFAULT_ENTITY_PROFILES)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        samples, _ = run_bearer_simulation(
            stream, template, DEFAULT_ENTITY_PROFILES, horizon_s=2.0, n_enb=100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(samples) == 1166
    assert peak - start <= 0.7 * 2**20
