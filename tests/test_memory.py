"""Scratch memory of the generator, the stream checks and the single-job pass."""

import functools
import tracemalloc

import numpy as np

from conftest import drawn_population, poisson_stream
from miotcore.arrivals import exponential_cdf, ks_distance
from miotcore.simulator import single_job_mode
from miotcore.traffic import TrafficParams, generate_requests

MIB = 2**20


def _traced_peak(call):
    """(result, traced peak above the start) of call()."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - start


def test_ks_single_job_and_binary_write_hold_no_stream_sized_copy(tmp_path, profile_mme):
    # each bound is below one more array of the input's length: the KS
    # distance of 2e5 sorted samples (1.5 MiB) traced 0.5 MiB, where one
    # pass over a sorted copy traced 6.1 MiB; the single-job pass over
    # 1e5 requests its two 0.76 MiB output arrays and 0.11 MiB more, where
    # a delays temporary added 0.76 MiB; the binary write 5 KiB, where a
    # copy of the times traced 1.5 MiB
    sample = np.sort(np.random.default_rng(3).exponential(1.0, 200_000))
    _, peak = _traced_peak(
        lambda: ks_distance(sample, functools.partial(exponential_cdf, 1.0)))
    assert peak <= 1 * MIB

    stream = poisson_stream(600.0, 100_000, seed=4)
    samples, peak = _traced_peak(lambda: single_job_mode(stream, profile_mme, 0.01))
    assert samples.arrivals_s is stream.timestamps
    own = samples.completions_s.nbytes + samples.breakdown["MME"].nbytes
    assert peak <= own + MIB // 2

    _, peak = _traced_peak(lambda: stream.save_binary(tmp_path / "stream.bin"))
    assert peak <= 64 * 1024


def test_generate_requests_merges_one_key_per_request():
    # the stock grid, 100 groups of 100 over 300 s: about 190,000 requests,
    # 2.9 MiB as a stream.  One int64 key per request, sorted in place and
    # decoded, traced 4.71 MiB; float times and int64 ids merged through
    # np.lexsort and two reindexing copies traced 5.99 MiB
    params = TrafficParams()
    rng = np.random.default_rng(1)
    population = drawn_population(100, 100, params.period_s, rng)
    stream, peak = _traced_peak(lambda: generate_requests(population, params, 300.0, rng))
    assert len(stream) > 180_000
    assert peak <= 5.3 * MIB
