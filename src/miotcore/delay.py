"""Analytical delay model for bearer instantiation.

The MME serves one deterministic job per bearer request under egalitarian
processor sharing, so its sojourn tail is exponential, P(v > tau) ~
psi * exp(-gamma * tau); every other entity contributes a constant delay
K.  As in the M/D/1-PS sojourn tail of Egorova, Zwart and Boxma (PEIS
2006), gamma = g(rho) / D with g a function of the load alone.  g is the
criticality of the queue itself: in virtual time the companions of a job
form a self-exciting cluster whose moment generating function stays finite
exactly up to the decay exponent.  A backward march locates that exponent
in 0.3 s to a minute per load, so the model reads g from a table that
scripts/gen_g_table.py generates from the march; the march lives in that
script, which is also the tests' oracle for the table.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._g_table import H
from .csvio import write_csv
from .errors import ConfigurationError, NumericalError, OverloadError

ENTITY_MME = "MME"
ENTITY_NAMES = ("UE", "eNB", "MME", "HSS", "SGW", "PGW")

# Domain of the g table.  h(rho) = g(rho)/(1-rho) falls smoothly from 15.9
# at rho 1e-6 through 3.1 at 0.1 to 1.007 at 0.99 and is interpolated on
# one Chebyshev piece in t = logit(rho) = log(rho) - log1p(-rho).
_G_RHO_FLOOR = 1e-6
_G_RHO_MAX = 0.995


@dataclass(frozen=True)
class EntityProfile:
    """Per-bearer work and capacity of one EPC entity.

    ops_per_bearer and capacity share units (messages or CPU operations);
    their ratio is the entity's per-bearer delay in seconds.  How the
    simulator's default template splits that work over messages is its
    own plan (``simulator.message_count``), not part of the profile.
    """

    entity: str
    ops_per_bearer: float
    capacity: float

    def __post_init__(self):
        if not 0.0 < self.ops_per_bearer < math.inf:
            raise ConfigurationError(
                f"{self.entity}: ops_per_bearer must be positive and finite")
        if not 0.0 < self.capacity < math.inf:
            raise ConfigurationError(
                f"{self.entity}: capacity must be positive and finite")

    @property
    def per_bearer_delay(self) -> float:
        return self.ops_per_bearer / self.capacity


@dataclass(frozen=True)
class DelayModelParams:
    """Fitted tail model P(d > tau) = psi * exp(-gamma * (tau - K)).

    D is the deterministic MME service time, rho = lambda_beta * D the
    MME load; K the constant non-MME delay.  The approximation is valid
    for tau >= K + tau0 with tau0 = max(0, ln(psi)/gamma).
    """

    D: float
    rho: float
    psi: float
    gamma: float
    K: float

    def __post_init__(self):
        if self.D <= 0.0:
            raise ValueError("D must be positive")
        _check_load(self.rho)
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        if self.psi <= 0.0:
            raise ValueError("psi must be positive")
        if self.K < 0.0:
            raise ValueError("K must be >= 0")

    @property
    def tau0(self) -> float:
        """Validity threshold of the MME sojourn tail, seconds."""
        return max(0.0, math.log(self.psi) / self.gamma)

    @property
    def validity_threshold(self) -> float:
        """Smallest total delay tau the survival model may be queried at."""
        return self.K + self.tau0

    def summary(self) -> str:
        return "\n".join([
            f"D_s: {self.D!r}",
            f"rho: {self.rho!r}",
            f"psi: {self.psi!r}",
            f"gamma_per_s: {self.gamma!r}",
            f"K_s: {self.K!r}",
            f"tau0_s: {self.tau0!r}",
        ])


def constant_delay_K(profiles) -> float:
    """Constant non-MME delay K = sum over X != MME of O_X / C_X.

    Summed in the mapping's order; a mapping that lacks any of those
    entities raises ConfigurationError naming it.
    """
    missing = [n for n in ENTITY_NAMES if n != ENTITY_MME and n not in profiles]
    if missing:
        raise ConfigurationError(f"missing entity profiles: {', '.join(missing)}")
    return sum(p.per_bearer_delay for n, p in profiles.items() if n != ENTITY_MME)


def _check_load(rho):
    """Refuse a load outside (0, 1); from rho >= 1 up, rho is the least
    capacity multiplier that would restore stability."""
    if not 0.0 < rho < 1.0:
        raise OverloadError(f"rho={rho:.6g} outside (0, 1)",
                            min_capacity_multiplier=rho if rho >= 1.0 else None)


def instance_loads(rates, profiles):
    """Load rate_X * O_X / C_X of each entity's busiest server instance,
    from ``rates``, entity name to that instance's request rate.

    The one refusal of load: a largest load >= 1 is refused, naming its
    entity, with itself as the least multiplier that restores stability.
    Below 1, a load above the MME's warns; the scaling loop shows it once.
    """
    loads = {}
    for name, rate in rates.items():
        if not 0.0 < rate < math.inf:
            raise ValueError(f"{name}: rate must be positive and finite, got {rate!r}")
        loads[name] = rate * profiles[name].per_bearer_delay
    top = max(loads, key=loads.get)
    rho = loads[top]
    if rho >= 1.0:
        raise OverloadError(
            f"{top} overloaded: rho={rho:.6g} >= 1 at rate={rates[top]:.6g}, "
            f"D={profiles[top].per_bearer_delay:.6g}; any capacity multiplier > "
            f"{rho:.6g} restores stability", min_capacity_multiplier=rho)
    if loads.get(ENTITY_MME, rho) < rho:
        warnings.warn(f"MME is not the bottleneck: {top} has the largest per-instance "
                      f"load, {rho:.6g} against the MME's {loads[ENTITY_MME]:.6g}; the "
                      f"single-queue tail model degrades", stacklevel=2)
    return loads


def _lobatto(lo, hi, n):
    """The n Chebyshev-Lobatto points of [lo, hi], from hi down to lo."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return [mid + half * math.cos(math.pi * j / (n - 1)) for j in range(n)]


def _logit(rho) -> float:
    return math.log(rho) - math.log1p(-rho)


# the interpolation variable t = logit(rho) at the two ends of the table
_T_ENDS = (_logit(_G_RHO_FLOOR), _logit(_G_RHO_MAX))


def g_table_node_rhos(n):
    """Loads at the n nodes of the g table, from 0.995 down to 1e-6."""
    return [1.0 / (1.0 + math.exp(-t)) for t in _lobatto(*_T_ENDS, n)]


# the table's nodes in t, each with its Chebyshev-Lobatto barycentric
# weight and its value of h
_G_TABLE = tuple(zip(
    _lobatto(*_T_ENDS, len(H)),
    [(-1.0) ** j * (0.5 if j in (0, len(H) - 1) else 1.0) for j in range(len(H))],
    H))

# above the table q(u) = (h - 1)/u, u = 1 - rho, is held at its value at
# the last node: q falls only from 0.7206 at rho 0.995 to 0.7186 at 0.999
_Q_HOLD = (H[0] - 1.0) / (1.0 - _G_RHO_MAX)


def tail_exponent(rho) -> float:
    """g(rho) of the M/D/1-PS sojourn tail, gamma = g(rho) / D.

    Barycentric interpolation of the g table on [1e-6, 0.995], within
    1e-11 relative of the march of scripts/gen_g_table.py.  Above 0.995,
    g = u*(1 + u*q) with u = 1 - rho and q held at its last node: within
    3e-6 of the march at rho 0.996 to 0.999, an error of order u that
    vanishes as rho -> 1.  Below 1e-6, g is held at its value at 1e-6;
    g falls as rho rises, so the held value over-predicts delay.
    """
    _check_load(rho)
    if rho > _G_RHO_MAX:
        u = 1.0 - rho
        return u * (1.0 + u * _Q_HOLD)
    rho = max(rho, _G_RHO_FLOOR)
    t = _logit(rho)
    # second-kind barycentric formula: O(n), stable on Chebyshev nodes
    num = den = 0.0
    for node, weight, value in _G_TABLE:
        if t == node:
            return value * (1.0 - rho)
        w = weight / (t - node)
        num += w * value
        den += w
    return num / den * (1.0 - rho)


def psi_coefficient(lambda_beta, rho, gamma) -> float:
    """Tail prefactor psi = (1-rho)(lambda_beta-gamma) / (2 lambda_beta (1-rho) - gamma rho (2-rho))."""
    _check_load(rho)
    num = (1.0 - rho) * (lambda_beta - gamma)
    den = 2.0 * lambda_beta * (1.0 - rho) - gamma * rho * (2.0 - rho)
    scale = 2.0 * lambda_beta * (1.0 - rho) + abs(gamma * rho * (2.0 - rho))
    if abs(den) < 1e-12 * scale:
        raise NumericalError(
            f"psi denominator vanishes (lambda_beta={lambda_beta:.6g}, "
            f"rho={rho:.6g}, gamma={gamma:.6g})")
    return num / den


def build_delay_model(lambda_beta, profiles) -> DelayModelParams:
    """Assemble DelayModelParams from a rate and the profiles by entity name.

    gamma crosses lambda_beta at rho = 2 - sqrt(2), where the psi
    numerator and denominator vanish together; at that removable point
    psi is evaluated by averaging the two sides.
    """
    rho = instance_loads({ENTITY_MME: lambda_beta}, profiles)[ENTITY_MME]
    d_service = profiles[ENTITY_MME].per_bearer_delay
    k_const = constant_delay_K(profiles)
    gamma = tail_exponent(rho) / d_service
    # near the gamma = lambda_beta crossing the psi numerator and
    # denominator vanish together; the raw ratio is ill-conditioned there,
    # so psi is taken as the average of two clean nearby evaluations.
    # Outside that band |den| / scale stays above 2.8e-4 (measured for rho
    # from 1e-9 to 1 - 1e-6), far from psi_coefficient's 1e-12 refusal.
    if abs(rho - gamma * d_service) >= 1e-3:
        psi = psi_coefficient(lambda_beta, rho, gamma)
    else:
        psi = 0.5 * (_psi_nearby(rho - 2e-3, d_service)
                     + _psi_nearby(rho + 2e-3, d_service))
    return DelayModelParams(D=d_service, rho=rho, psi=psi, gamma=gamma, K=k_const)


def _psi_nearby(rho, D) -> float:
    return psi_coefficient(rho / D, rho, tail_exponent(rho) / D)


def delay_survival(tau, params: DelayModelParams):
    """P(total delay > tau) = psi * exp(-gamma * (tau - K)).

    Valid for tau >= K + tau0; below that threshold the survival is
    clamped to 1 and a warning is issued.
    """
    tau_arr = np.asarray(tau, dtype=np.float64)
    if np.any(tau_arr < 0.0):
        raise ValueError("tau must be >= 0")
    raw = params.psi * np.exp(-params.gamma * (tau_arr - params.K))
    below = tau_arr < params.validity_threshold
    if np.any(below):
        warnings.warn(
            f"survival clamped to 1 below the validity threshold "
            f"{params.validity_threshold:.6g} s", stacklevel=2)
    out = np.where(below, 1.0, np.minimum(raw, 1.0))
    return float(out) if np.ndim(tau) == 0 else out


def delay_percentile(p, params: DelayModelParams) -> float:
    """tau_p = K + (ln psi - ln(1-p)) / gamma, the inverse of delay_survival."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    if params.psi < 1.0 and p < 1.0 - params.psi:
        raise ValueError(
            f"p={p:.6g} lies below the tail validity region (needs p >= "
            f"{1.0 - params.psi:.6g}); use the simulator for bulk percentiles")
    return params.K + (math.log(params.psi) - math.log1p(-p)) / params.gamma


def save_survival_csv(path, params: DelayModelParams, tau_grid):
    """Write the survival curve as CSV with header tau_s,survival."""
    tau_arr = np.asarray(tau_grid, dtype=np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        vals = delay_survival(tau_arr, params)
    write_csv(path, ["tau_s", "survival"], tau_arr, vals)
