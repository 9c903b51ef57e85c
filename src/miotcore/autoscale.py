"""Threshold-based capacity scaling driven by the analytic delay model.

The controller watches the bearer-request rate, predicts the delay
percentile from the analytic model at each available capacity multiplier,
and picks the smallest multiplier whose prediction meets the target.  A
multiplier that overloads any entity's busiest server instance, by the
rule ``predict`` applies over the routing's shares, is infeasible.  A
hysteresis band (a fraction of the target) makes scale-down decisions
sticky so the controller does not flap on a noisy rate series.  The
closed loop walks a trace's fitted windows: decide from the model at the
window's fitted rate, then replay the window's own requests at the chosen
capacity and record the empirical percentile.
"""

import math
import warnings
from dataclasses import dataclass, replace

from .csvio import write_csv
from .delay import (
    ENTITY_MME,
    build_delay_model,
    delay_percentile,
    instance_loads,
)
from .errors import ConfigurationError, OverloadError
from .simulator import single_job_mode
from .traffic import EventStream

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


def run_scaling_loop(windows, profiles, policy, shares):
    """Replay a trace's fitted windows through the controller.

    ``windows`` are ``trace.window_and_fit``'s, in order; a window without a
    fitted rate (fewer than 2 requests over a positive span) is skipped.
    Per window the controller decides a multiplier from ``rate_hat`` over
    ``shares``, with hysteresis against the previous decision, then the
    window's own requests, timed from its start, pass in single-job mode at
    that multiplier -- ``single_job_mode`` over the profiles the policy's
    scope scales -- and the empirical percentile is recorded: an audit of
    the MME alone, so an overload elsewhere shows only in ``feasible``.  The
    decisions' first warning is shown once.  Windows start empty (capacity
    changes take effect at window boundaries at no cost).  Raises
    ConfigurationError when no window has a fitted rate.
    """
    fitted = [win for win in windows if win.rate_hat is not None]
    if not fitted:
        raise ConfigurationError("trace yields no windows with a fitted rate; nothing to replay")

    # each window and multiplier priced past the MME warns, its loads in the text
    decisions, previous = [], None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for win in fitted:
            previous = choose_multiplier(win.rate_hat, profiles, policy, shares, previous)
            decisions.append(previous)
    if caught:
        warnings.warn(caught[0].message, stacklevel=2)

    records = []
    for win, decision in zip(fitted, decisions):
        samples = single_job_mode(EventStream(win.timestamps - win.start_s),
                                  scaled_profiles(profiles, decision.multiplier, policy))
        records.append(LoopRecord(win.start_s, decision,
                                  samples.delay_percentile(policy.percentile)))
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
