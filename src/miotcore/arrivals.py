"""Inter-arrival analysis for merged bearer-request streams.

Starting from the generator's own slot hazard (traffic.slot_phases and
traffic.cumulative_hazard), this module evaluates the exact conditional
CDF of the lag to the next alarm, per source and for the merged system,
and the Erlang-mixture inter-request law with its exponential closed
form, plus Kolmogorov-Smirnov tooling to compare models against sampled
gaps.  tests/test_arrivals.py checks the exact system law against
generate_requests streams at finite Q.

Everything here is numpy and the standard library only; scipy serves
the tests alone, as the oracle of the Erlang CDF and the KS statistic.
"""

import math
from dataclasses import dataclass

import numpy as np

from .traffic import (
    TX_PROBABILITY_DEFAULT,
    TrafficParams,
    cumulative_hazard,
    slot_phases,
)

# asymptotic two-sided KS critical values need a healthy sample
KS_MIN_SAMPLES = 50

# the significance of every KS verdict the package reports
KS_SIGNIFICANCE = 0.01

# the Kolmogorov quantile at KS_SIGNIFICANCE: scipy.special.kolmogi(0.01)
KS_CRITICAL_C = 1.6276236115189504


@dataclass(frozen=True)
class ErlangMixture:
    """Geometric mixture of Erlang stages for the inter-request time.

    A request happens on an alarm with probability success_probability,
    so the number of alarm epochs between two requests is geometric and
    the inter-request time is an Erlang(z, stage_rate) mixture truncated
    at z_max stages.
    """

    stage_rate: float
    success_probability: float = TX_PROBABILITY_DEFAULT
    z_max: int = 100

    def __post_init__(self):
        if self.stage_rate <= 0.0:
            raise ValueError("stage_rate must be positive")
        if not 0.0 < self.success_probability < 1.0:
            raise ValueError("success_probability must be in (0, 1)")
        if self.z_max < 1:
            raise ValueError("z_max must be >= 1")

    def weights(self) -> np.ndarray:
        """P(z stages) = p*(1-p)^(z-1) for z = 1..z_max."""
        z = np.arange(1, self.z_max + 1)
        p = self.success_probability
        return p * (1.0 - p) ** (z - 1)

    @property
    def truncation_bound(self) -> float:
        """Upper bound on the CDF mass ignored beyond z_max stages."""
        p = self.success_probability
        return (1.0 - p) ** self.z_max / p


def bearer_request_rate(q_total, period_s,
                        tx_probability=TX_PROBABILITY_DEFAULT) -> float:
    """Merged request rate lambda_beta = Q * tx_probability / T."""
    if q_total < 1 or period_s <= 0.0:
        raise ValueError("need q_total >= 1 and period_s > 0")
    return q_total * tx_probability / period_s


def _as_lags(m) -> np.ndarray:
    m_arr = np.asarray(m)
    if not np.issubdtype(m_arr.dtype, np.integer):
        raise ValueError("lag m must be integer slots")
    if np.any(m_arr < 1):
        raise ValueError("lag m must be >= 1")
    return m_arr.astype(np.int64)


def _survival_exponent(m, start_slot, params: TrafficParams):
    """Cumulative hazard over slots start+1 .. start+m (wrapping).

    m is an int64 array and start_slot an int, as _as_lags and the callers
    make them.
    """
    return (cumulative_hazard(m + start_slot, params)
            - cumulative_hazard(start_slot, params))


def falpha_q_discrete(m, k, offset, params: TrafficParams,
                      forced_regular=False):
    """Exact CDF of the first-alarm lag for one source.

    P(alpha_q <= m) = 1 - prod_{j=1..m} (1 - f(mod(s+j, N))) with
    s = mod(k + offset, N); evaluated through the cumulative hazard so
    grids of m cost one lookup each.  With forced_regular=True the slot
    right after the transmission cannot alarm and the product starts at
    j = 2.
    """
    m_arr = _as_lags(m)
    if not 0 <= k < params.n_slots:
        raise ValueError(f"slot k out of [0, {params.n_slots})")
    s = (int(k) + int(offset)) % params.n_slots
    if forced_regular:
        expo = _survival_exponent(m_arr - 1, s + 1, params)
    else:
        expo = _survival_exponent(m_arr, s, params)
    out = -np.expm1(-expo)
    return float(out) if np.ndim(m) == 0 else out


def falpha_system_discrete(m, k, population, params: TrafficParams,
                           transmitter_group=None):
    """Exact CDF of the merged first-alarm lag across all Q sources.

    Combines per-source survivals through the minimum identity
    1 - prod_q (1 - F_q(m | s_q(k, w_q))); sources of a group share an
    offset so each group contributes its survival to the group_size
    power.  If transmitter_group is given, one source of that group is
    treated as the transmitter whose next slot is forced Regular.
    """
    if population.offsets_s is None:
        raise ValueError("population must carry explicit offsets")
    m_arr = _as_lags(m)
    if not 0 <= k < params.n_slots:
        raise ValueError(f"slot k out of [0, {params.n_slots})")
    offs = slot_phases(population.offsets_s, params)
    total = np.zeros(m_arr.shape, dtype=np.float64)
    for g, off in enumerate(offs):
        s = (int(k) + int(off)) % params.n_slots
        expo = _survival_exponent(m_arr, s, params)
        count = population.group_size
        if transmitter_group is not None and g == transmitter_group:
            forced = _survival_exponent(m_arr - 1, s + 1, params)
            total = total + forced + (count - 1) * expo
        else:
            total = total + count * expo
    out = -np.expm1(-total)
    return float(out) if np.ndim(m) == 0 else out


def fbeta_mixture(tau, mix: ErlangMixture):
    """Erlang-mixture CDF of the inter-request time.

    sum_{z=1..z_max} ErlangCDF(z, stage_rate)(tau) * p * (1-p)^(z-1);
    the mass ignored beyond z_max is bounded by mix.truncation_bound.
    With x = stage_rate * tau, the integer-shape Erlang CDF is
    1 - sum_{j<z} e^-x x^j / j!, each term taken through its logarithm
    so that no large x overflows.
    """
    tau_arr = np.asarray(tau, dtype=np.float64)
    if np.any(tau_arr < 0.0):
        raise ValueError("tau must be >= 0")
    x = mix.stage_rate * tau_arr.reshape(1, -1)
    j = np.arange(mix.z_max, dtype=np.float64)[:, None]
    log_fact = np.cumsum(np.log(np.maximum(j, 1.0)), axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_terms = j * np.log(x) - x - log_fact
    log_terms[0] = -x[0]  # j = 0, where 0 * log(0) is nan at x = 0
    stage_cdf = 1.0 - np.cumsum(np.exp(log_terms), axis=0)
    out = (mix.weights() @ stage_cdf).reshape(tau_arr.shape)
    return float(out) if np.ndim(tau) == 0 else out


def exponential_cdf(rate, tau):
    """Exponential CDF 1 - exp(-rate * tau) at tau >= 0.

    At rate lambda_beta = Q * tx_probability / T it is the closed-form
    inter-request law, the large-Q limit of the merged stream.
    """
    return -np.expm1(-rate * np.asarray(tau, dtype=np.float64))


def ks_distance(samples, model_cdf) -> float:
    """Two-sided Kolmogorov-Smirnov distance of samples vs a model CDF.

    sup over the sample points of |empirical CDF - model CDF|: with the
    order statistics x_(1..n) and F = model_cdf(x), the larger of
    D+ = max(i/n - F) and D- = max(F - (i-1)/n), the same arithmetic as
    scipy.stats.ks_1samp (which is the tests' oracle).
    """
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = x.size
    if n < 2:
        raise ValueError("need >= 2 samples")
    cdf = model_cdf(x)
    d_plus = float(np.max(np.arange(1.0, n + 1) / n - cdf))
    d_minus = float(np.max(cdf - np.arange(0.0, n) / n))
    return d_plus if d_plus > d_minus else d_minus


def ks_critical_value(n) -> float:
    """Asymptotic two-sided KS critical value at 1% significance, c/sqrt(n).

    c = KS_CRITICAL_C solves Q(c) = KS_SIGNIFICANCE for the Kolmogorov
    survival function Q.
    """
    if n < KS_MIN_SAMPLES:
        raise ValueError(f"KS significance needs n >= {KS_MIN_SAMPLES}, got {n}")
    return KS_CRITICAL_C / math.sqrt(n)


def ks_report(distance, n) -> list:
    """Report lines of a KS distance over n samples at 1% significance.

    ks_distance, ks_critical_01pct and ks_verdict_01pct (pass/fail); with
    fewer than KS_MIN_SAMPLES samples the asymptotic critical value is
    not trusted, and a low_confidence line replaces the last two.
    """
    lines = [f"ks_distance: {distance:.6f}"]
    if n < KS_MIN_SAMPLES:
        return lines + [f"low_confidence: fewer than {KS_MIN_SAMPLES} gaps, "
                        "significance not assessed"]
    crit = ks_critical_value(n)
    verdict = "pass" if distance <= crit else "fail"
    return lines + [f"ks_critical_01pct: {crit:.6f}", f"ks_verdict_01pct: {verdict}"]

