"""The Erlang-mixture inter-request law: criterion 2's oracle.

Between two requests of the merged stream lie a geometric number of
alarm epochs, so the inter-request time is a geometric mixture of Erlang
stages.  The mixture sums to the exponential closed form that the
package uses (arrivals.exponential_cdf); the tests check that it does.
"""

from dataclasses import dataclass

import numpy as np

from miotcore.traffic import TrafficParams


@dataclass(frozen=True)
class ErlangMixture:
    """Geometric mixture of Erlang stages for the inter-request time.

    A request happens on an alarm with probability success_probability,
    so the number of alarm epochs between two requests is geometric and
    the inter-request time is an Erlang(z, stage_rate) mixture truncated
    at z_max stages.
    """

    stage_rate: float
    success_probability: float = TrafficParams().tx_probability
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

