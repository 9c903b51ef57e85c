"""Inter-arrival analysis for merged bearer-request streams.

Starting from the generator's own slot hazard (traffic.slot_phases,
traffic.hazard_table and traffic.cumulative_hazard), this module
evaluates one exact law, the conditional CDF of the lag to the next
alarm of a source population (a single device is a population of one
source), and the exponential closed form of the inter-request law, plus
Kolmogorov-Smirnov tooling to compare models against sampled gaps.
tests/test_arrivals.py checks the exact law against generate_requests
streams at finite Q; the Erlang-mixture law that the closed form sums
lives in the tests, as their oracle.

Everything here is numpy and the standard library only; scipy serves
the tests alone, as the oracle of the Erlang CDF and the KS statistic.
"""

import math

import numpy as np

from .traffic import TrafficParams, cumulative_hazard, hazard_table, slot_phases

# asymptotic two-sided KS critical values need a healthy sample
KS_MIN_SAMPLES = 50

# the Kolmogorov quantile at 1%, the significance of every KS verdict
# the package reports: scipy.special.kolmogi(0.01)
KS_CRITICAL_C = 1.6276236115189504

# order statistics per step of ks_distance; bounds its scratch memory to
# a few arrays of this length
_KS_CHUNK = 1 << 14


def bearer_request_rate(q_total, period_s, tx_probability) -> float:
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


def _survival_exponent(m, start_slot, table):
    """Cumulative hazard over slots start+1 .. start+m (wrapping).

    m is an int64 array and start_slot an int, as _as_lags and the callers
    make them; table is the hazard_table of the law's parameters.
    """
    return (cumulative_hazard(m + start_slot, table)
            - cumulative_hazard(start_slot, table))


def falpha_system_discrete(m, k, population, params: TrafficParams,
                           transmitter_group=None):
    """Exact CDF of the merged first-alarm lag across all Q sources.

    Combines per-source survivals through the minimum identity
    1 - prod_q (1 - F_q(m | s_q(k, w_q))); sources of a group share an
    offset so each group contributes its survival to the group_size
    power.  If transmitter_group is given, one source of that group is
    treated as the transmitter whose next slot is forced Regular.  A
    one-source population, SourcePopulation(1, 1, (w,)), gives that one
    device's law, and with transmitter_group=0 its law after a transmission.
    It is a first-alarm law: a regular rate epsilon is not in it.
    """
    m_arr = _as_lags(m)
    if not 0 <= k < params.n_slots:
        raise ValueError(f"slot k out of [0, {params.n_slots})")
    offs = slot_phases(population.offsets_s, params)
    table = hazard_table(params)
    count = population.group_size
    total = np.zeros(m_arr.shape, dtype=np.float64)
    for g, off in enumerate(offs):
        s = (int(k) + int(off)) % params.n_slots
        expo = _survival_exponent(m_arr, s, table)
        if g == transmitter_group:
            forced = _survival_exponent(m_arr - 1, s + 1, table)
            total = total + forced + (count - 1) * expo
        else:
            total = total + count * expo
    out = -np.expm1(-total)
    return float(out) if np.ndim(m) == 0 else out


def exponential_cdf(rate, tau):
    """Exponential CDF 1 - exp(-rate * tau) at tau >= 0.

    At rate lambda_beta = Q * tx_probability / T it is the closed-form
    inter-request law, the large-Q limit of the merged stream.
    """
    return -np.expm1(-rate * np.asarray(tau, dtype=np.float64))


def _sorted(x):
    """x itself when it is non-decreasing and NaN-free, else np.sort(x).

    The order is checked _KS_CHUNK values at a time; a NaN fails the
    check, so np.sort puts it last, as it would anyway.
    """
    for lo in range(0, x.size - 1, _KS_CHUNK):
        part = x[lo:lo + _KS_CHUNK + 1]
        if not np.all(part[1:] >= part[:-1]):
            return np.sort(x)
    return x


def ks_distance(samples, model_cdf) -> float:
    """Two-sided Kolmogorov-Smirnov distance of samples vs a model CDF.

    sup over the sample points of |empirical CDF - model CDF|: with the
    order statistics x_(1..n) and F = model_cdf(x), the larger of
    D+ = max(i/n - F) and D- = max(F - (i-1)/n), the same arithmetic as
    scipy.stats.ks_1samp (which is the tests' oracle).  Samples already
    in order are not copied, and both maxima run over _KS_CHUNK order
    statistics at a time, the max of the chunk maxima being the max of
    one pass.  model_cdf must act elementwise.
    """
    x = _sorted(np.asarray(samples, dtype=np.float64))
    n = x.size
    if n < 2:
        raise ValueError("need >= 2 samples")
    d_plus = d_minus = -np.inf
    for lo in range(0, n, _KS_CHUNK):
        cdf = model_cdf(x[lo:lo + _KS_CHUNK])
        i = np.arange(float(lo), lo + cdf.size)
        # np.maximum, unlike max(), keeps a NaN whichever side it is on
        d_plus = np.maximum(d_plus, np.max((i + 1.0) / n - cdf))
        d_minus = np.maximum(d_minus, np.max(cdf - i / n))
    d_plus, d_minus = float(d_plus), float(d_minus)
    return d_plus if d_plus > d_minus else d_minus


def ks_critical_value(n) -> float:
    """Asymptotic two-sided KS critical value at 1% significance, c/sqrt(n).

    c = KS_CRITICAL_C solves Q(c) = 0.01 for the Kolmogorov survival
    function Q.
    """
    if n < KS_MIN_SAMPLES:
        raise ValueError(f"KS significance needs n >= {KS_MIN_SAMPLES}, got {n}")
    return KS_CRITICAL_C / math.sqrt(n)


def ks_verdict(distance, n):
    """KS verdict over n samples at 1% significance: True (pass), False
    (fail), or None below KS_MIN_SAMPLES, where c/sqrt(n) is not trusted."""
    return None if n < KS_MIN_SAMPLES else bool(distance <= ks_critical_value(n))


def ks_report(distance, n) -> list:
    """Report lines of a KS distance over n samples at 1% significance.

    ks_distance, ks_critical_01pct and ks_verdict_01pct (pass/fail); where
    ks_verdict gives none, a low_confidence line replaces the last two.
    """
    lines = [f"ks_distance: {distance:.6f}"]
    verdict = ks_verdict(distance, n)
    if verdict is None:
        return lines + [f"low_confidence: fewer than {KS_MIN_SAMPLES} gaps, "
                        "significance not assessed"]
    return lines + [f"ks_critical_01pct: {ks_critical_value(n):.6f}",
                    f"ks_verdict_01pct: {'pass' if verdict else 'fail'}"]

