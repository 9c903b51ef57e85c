"""Shared fixtures: the stock entity profiles, seeded arrival helpers and
the first-alarm law of one device.

scripts/ goes on the import path, so that tests can take the criticality
march, the oracle of the g table, from scripts/gen_g_table.py, and so does
the repository root, so that they can read the benchmark's scenarios from
perfbench/workloads.py.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from miotcore.arrivals import falpha_system_discrete
from miotcore.config import DEFAULT_ENTITY_PROFILES
from miotcore.traffic import EventStream, SourcePopulation

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "scripts"), str(ROOT)]

# Property tests replay the same examples on every run and carry no time
# limit per example, so a slow or busy host cannot make them flake.
settings.register_profile(
    "tier1", deadline=None, derandomize=True, database=None, max_examples=25)
settings.load_profile("tier1")


@pytest.fixture
def profiles():
    return DEFAULT_ENTITY_PROFILES


@pytest.fixture
def profile_mme(profiles):
    return profiles["MME"]


def by_name(*profiles):
    """The profiles mapping the library reads: entity name -> EntityProfile."""
    return {p.entity: p for p in profiles}


def with_mme_ops(profiles, extra):
    """``profiles`` with ``extra`` operations per bearer added at the MME, as
    config adds ``topology.encryption_ops``."""
    mme = profiles["MME"]
    return {**profiles, "MME": dataclasses.replace(
        mme, ops_per_bearer=mme.ops_per_bearer + extra)}


def drawn_population(group_size, n_groups, period_s, rng):
    """A SourcePopulation whose group offsets are i.i.d. Uniform[0, T) draws
    from ``rng``.  Passing the same ``rng`` on to generate_requests as its
    seed draws the offsets and then the stream from one generator."""
    offsets = rng.uniform(0.0, period_s, n_groups)
    return SourcePopulation(group_size, n_groups, tuple(float(x) for x in offsets))


def one_device_law(m, k, offset, params, forced=False):
    """The exact first-alarm law of one device whose phase is ``offset`` slots.

    The device is a one-source population.  Its offset in seconds lies
    mid-slot, because slot_phases truncates.  With ``forced`` the slot
    right after slot k + offset cannot alarm: the device has just
    transmitted.
    """
    population = SourcePopulation(1, 1, ((offset + 0.5) * params.slot_delta_s,))
    return falpha_system_discrete(m, k, population, params,
                                  transmitter_group=0 if forced else None)


def poisson_stream(rate_per_s, n_events, seed, source_ids=None):
    """Sorted Poisson EventStream with n_events arrivals at the given rate."""
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(1.0 / rate_per_s, size=n_events))
    if source_ids is None:
        return EventStream(times)
    return EventStream(times, source_ids)
