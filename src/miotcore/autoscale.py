"""Threshold-based capacity scaling driven by the analytic delay model.

The controller watches the bearer-request rate, predicts the delay
percentile from the analytic model at each available capacity multiplier,
and picks the smallest multiplier whose prediction meets the target.  A
multiplier that overloads any entity's busiest server instance, by the
rule ``predict`` applies over the routing's shares, is infeasible.  A
hysteresis band (a fraction of the target) makes scale-down decisions
sticky so the controller does not flap on a noisy rate series.  The
closed loop replays a measured rate series window by window: decide from
the model, then simulate the window and record the empirical percentile.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .csvio import write_csv
from .delay import (
    ENTITY_MME,
    build_delay_model,
    constant_delay_K,
    delay_percentile,
    instance_loads,
)
from .errors import ConfigurationError, OverloadError
from .simulator import single_job_mode
from .traffic import EventStream, poisson_arrivals

# the most arrivals a replay window may expect (rate * window length);
# each one costs a few float64 slots in the draw and the single-job pass
MAX_WINDOW_ARRIVALS = 10**7

# the busiest-instance load, of any entity, from which the controller calls a
# multiplier infeasible: past it a PS mean sojourn, D/(1-rho), exceeds 200 D
MAX_FEASIBLE_LOAD = 0.995


@dataclass(frozen=True)
class ScalingPolicy:
    """Scaling targets and the capacity steps available to the controller.

    ``scope`` names the entities whose capacity a multiplier scales:
    "all" scales every entity together, "mme" the MME alone, bottleneck or not.
    ``hysteresis`` is the fraction of the target by which a smaller
    multiplier must beat the target before the controller scales down.
    """

    target_delay_s: float = 0.1
    percentile: float = 0.99
    multipliers: tuple = (1.0, 2.0, 2.5)
    hysteresis: float = 0.1
    scope: str = "all"

    def __post_init__(self):
        if not 0.0 < self.target_delay_s < math.inf:
            raise ConfigurationError("target_delay_s must be positive and finite")
        if not 0.0 < self.percentile < 1.0:
            raise ConfigurationError(
                f"percentile must lie in (0, 1), got {self.percentile!r}"
            )
        mults = tuple(float(m) for m in self.multipliers)
        object.__setattr__(self, "multipliers", mults)
        if not mults or mults[0] != 1.0:
            raise ConfigurationError("multipliers must start at 1.0")
        if not (all(a < b for a, b in zip(mults, mults[1:])) and mults[-1] < math.inf):
            raise ConfigurationError("multipliers must be finite and strictly ascending")
        if not 0.0 <= self.hysteresis < 1.0:
            raise ConfigurationError("hysteresis must lie in [0, 1)")
        if self.scope not in ("all", "mme"):
            raise ConfigurationError(f"scope must be 'all' or 'mme', got {self.scope!r}")


@dataclass(frozen=True)
class ScalingDecision:
    """One controller decision for a given input rate.

    ``feasible`` is False when no listed multiplier meets the target; the
    decision then carries the largest multiplier as the best effort.
    """

    lambda_beta: float
    multiplier: float
    predicted_delay_s: float
    feasible: bool


def scaled_profiles(profiles, multiplier, policy=None):
    """Profiles, same keys in the same order, with capacities multiplied
    within the policy's scope (every entity's without a policy)."""
    if not multiplier > 0.0:
        raise ConfigurationError("multiplier must be positive")
    mme_only = policy is not None and policy.scope == "mme"
    return {name: prof if mme_only and name != ENTITY_MME
            else replace(prof, capacity=prof.capacity * multiplier)
            for name, prof in profiles.items()}


def predict_percentile(lambda_beta, multiplier, profiles, policy, shares):
    """Model-predicted delay percentile with capacities scaled by ``multiplier``.

    ``shares`` maps each entity to its busiest instance's share of the rate,
    ``Scenario.instance_rates(1.0)``.  Returns the percentile in seconds, or
    ``math.inf`` as the infeasibility signal when ``instance_loads`` refuses
    those rates or their largest load is MAX_FEASIBLE_LOAD or above: the
    controller's policy, not a limit of the model, which answers below 1.
    """
    profs = scaled_profiles(profiles, multiplier, policy)
    try:
        loads = instance_loads({n: lambda_beta * s for n, s in shares.items()}, profs)
    except OverloadError:
        return math.inf
    if max(loads.values()) >= MAX_FEASIBLE_LOAD:
        return math.inf
    return delay_percentile(policy.percentile, build_delay_model(lambda_beta, profs))


def choose_multiplier(lambda_beta, profiles, policy, shares, previous=None):
    """Smallest listed multiplier whose predicted percentile meets the target.

    Each is priced by ``predict_percentile`` over ``shares``.  With a
    ``previous`` decision, a candidate smaller than the previous multiplier
    must beat ``target * (1 - hysteresis)``, so the controller scales down
    only once the load has genuinely receded.  When no multiplier is
    feasible the largest is returned with ``feasible=False``.
    """
    prev_mult = previous.multiplier if previous is not None else None
    feasible = False
    for mult in policy.multipliers:
        limit = policy.target_delay_s
        if prev_mult is not None and mult < prev_mult:
            limit *= 1.0 - policy.hysteresis
        predicted = predict_percentile(lambda_beta, mult, profiles, policy, shares)
        if predicted <= limit:
            feasible = True
            break
    # without a break the loop ends at the largest multiplier, predicted
    return ScalingDecision(
        lambda_beta=float(lambda_beta),
        multiplier=mult,
        predicted_delay_s=predicted,
        feasible=feasible,
    )


@dataclass(frozen=True)
class LoopRecord:
    """One closed-loop window: the decision plus the simulated outcome."""

    window_start_s: float
    decision: ScalingDecision
    empirical_percentile_s: float


def run_scaling_loop(rate_series, profiles, policy, shares, window_length_s, seed=0):
    """Replay a rate series through the controller, simulating each window.

    ``rate_series`` is an ordered list of (window_start_s, rate) pairs,
    each window ``window_length_s`` long.  Per window the controller
    decides a multiplier over ``shares``, with hysteresis against the
    previous decision, then the window is simulated in single-job mode at
    that multiplier -- Poisson arrivals at the rate over the window, job
    size O_MME at the scaled capacity plus the scaled constant offset --
    and the empirical percentile is recorded: an audit of the MME alone,
    so an overload elsewhere shows only in ``feasible``.  The decisions'
    first warning is shown once.  Windows start empty (capacity changes
    take effect at window boundaries at no cost).  Deterministic for fixed
    (series, seed).  A window expecting more than MAX_WINDOW_ARRIVALS
    arrivals raises ConfigurationError before any window is drawn.
    """
    series = [(float(s), float(r)) for s, r in rate_series]
    if not series:
        raise ValueError("rate series must be non-empty")
    starts = [s for s, _ in series]
    if any(b <= a for a, b in zip(starts, starts[1:])):
        raise ValueError("window starts must be strictly increasing")
    length = float(window_length_s)
    if not 0.0 < length < math.inf:
        raise ValueError(f"window_length_s must be positive and finite, got {length!r}")
    for start, rate in series:
        if not rate > 0.0:
            raise ValueError(f"window at {start!r} has non-positive rate {rate!r}")
        if not rate * length <= MAX_WINDOW_ARRIVALS:
            raise ConfigurationError(
                f"window at {start!r} expects {rate * length!r} arrivals "
                f"({rate!r}/s over {length!r} s), more than {MAX_WINDOW_ARRIVALS}"
            )

    # each window and multiplier priced past the MME warns, its loads in the text
    decisions, previous = [], None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _, rate in series:
            previous = choose_multiplier(rate, profiles, policy, shares, previous)
            decisions.append(previous)
    if caught:
        warnings.warn(caught[0].message, stacklevel=2)

    child_seeds = np.random.SeedSequence(seed).spawn(len(series))
    records = []
    for (start, rate), child, decision in zip(series, child_seeds, decisions):
        profs = scaled_profiles(profiles, decision.multiplier, policy)
        mme = profs[ENTITY_MME]
        offset = constant_delay_K(profs)
        rng = np.random.default_rng(child)
        arrivals = poisson_arrivals(rate, 0.0, length, rng)
        if arrivals.size:
            samples = single_job_mode(EventStream(arrivals, None), mme, offset)
            empirical = samples.delay_percentile(policy.percentile)
        else:
            empirical = math.nan
        records.append(LoopRecord(start, decision, empirical))
    return records


def save_decision_log(path, records):
    """Write the closed-loop decision log CSV.

    Columns: window_start_s, lambda_hat, multiplier, predicted_p,
    empirical_p, feasible.
    """
    write_csv(path,
              ["window_start_s", "lambda_hat", "multiplier", "predicted_p",
               "empirical_p", "feasible"],
              [rec.window_start_s for rec in records],
              [rec.decision.lambda_beta for rec in records],
              [rec.decision.multiplier for rec in records],
              [rec.decision.predicted_delay_s for rec in records],
              [rec.empirical_percentile_s for rec in records],
              [int(rec.decision.feasible) for rec in records])
