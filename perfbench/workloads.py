"""The benchmark's two workloads: scenarios, command sequences, fixtures.

Every workload is a fixed-seed batch job run through the public CLI
(``miotcore.cli.main``) with ``--jobs 1 --replications 1``.  Scenarios
pin every value the program would otherwise default, so a change to a
package default does not silently change the benchmark's input.

This module imports nothing from ``miotcore`` or numpy: ``run.py``
uses it before any interpreter that loads the package is started.
"""

import json
import math
from dataclasses import dataclass
from typing import Optional

# the stock EPC profile: (entity, ops per bearer, capacity, messages per bearer)
STOCK_PROFILES = (
    ("UE", 3.0, 1000.0, 3),
    ("eNB", 2.0, 1000.0, 2),
    ("MME", 9.0, 10000.0, 9),
    ("HSS", 1.0, 10000.0, 1),
    ("SGW", 3.0, 10000.0, 3),
    ("PGW", 1.0, 10000.0, 1),
)
PERIOD_S = 10.0
MME_SERVICE_S = 9.0 / 10000.0
# K: the constant non-MME part of every request's delay
NON_MME_DELAY_S = sum(ops / cap for name, ops, cap, _ in STOCK_PROFILES if name != "MME")
TX_PROBABILITY = 1.0 - math.exp(-1.0)

SCALING = {
    "target_delay_s": 0.1,
    "percentile": 0.99,
    "multipliers": [1.0, 2.0, 2.5],
    "hysteresis": 0.1,
    "scope": "all",
}

# Acceptance tolerances the output checks apply.
P99_REL_TOL = 0.10        # criterion 5: simulated vs predicted p99
KS_MAX = 0.02             # criterion 1: KS distance bound for 100 groups
SCALE_P99_FACTOR = 1.15   # criterion 7: feasible window p99 over the target


@dataclass(frozen=True)
class DiurnalTrace:
    """Set-up fixture: a trace CSV made by ``trace.make_diurnal_trace``."""

    base_rate_per_s: float
    shape: tuple
    window_length_s: float


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``commands`` are CLI argument lists without the options every command
    gets (``--config``, ``--seed``, ``--out``, ``--jobs``,
    ``--replications``).  ``main`` indexes the command whose throughput
    ``throughput_per_s`` reports; ``throughput_name`` is that metric's
    name for this workload.
    """

    name: str
    q_total: int
    horizon_s: float
    n_enb: int
    n_sgw: int
    link_latency_s: float
    commands: tuple
    main: int
    throughput_name: str
    diurnal: Optional[DiurnalTrace] = None

    def scenario(self):
        """Scenario mapping for ``--config``; JSON is valid YAML."""
        return {
            "traffic": {
                "period_s": PERIOD_S,
                "q_total": self.q_total,
                "n_groups": 100,
                "slot_delta_s": 1.0e-5,
                "alarm_rate_lambda": 1.0,
                "regular_rate_epsilon": 0.0,
                "horizon_s": self.horizon_s,
            },
            "entities": {
                "capacity_scale": 1.0,
                "profiles": [
                    {"entity": e, "ops_per_bearer": o, "capacity": c,
                     "messages_per_bearer": m}
                    for e, o, c, m in STOCK_PROFILES
                ],
            },
            "topology": {
                "n_enb": self.n_enb,
                "n_sgw": self.n_sgw,
                "link_latency_s": self.link_latency_s,
                "encryption_ops": 0.0,
            },
            "scaling": dict(SCALING),
        }

    def write_scenario(self, path):
        with open(path, "w") as fh:
            json.dump(self.scenario(), fh, indent=1)
            fh.write("\n")

    def argv(self, i, seed):
        """Full CLI argument list of command ``i``, run from the rep directory."""
        return list(self.commands[i]) + [
            "--config", "scenario.yaml", "--seed", str(seed), "--out", "out",
            "--jobs", "1", "--replications", "1",
        ]

    def command_name(self, i):
        return self.commands[i][0]

    def expected_requests(self):
        """Mean number of bearer requests within the horizon: Q p H / T."""
        return self.q_total * TX_PROBABILITY * self.horizon_s / PERIOD_S


# The PS event core does ~90% of the work, most of it on 9.6k nearly idle
# per-device UE servers and 100 eNBs; MME rho ~0.57.
STOCK_WALK = Workload(
    name="stock_walk",
    q_total=10_000,
    horizon_s=40.0,
    n_enb=100,
    n_sgw=1,
    link_latency_s=0.0,
    commands=(("simulate",), ("predict",)),
    main=0,
    throughput_name="walk_req_per_s",
)

# The package's default eight-window diurnal shape, pinned.  At the base
# rate below the MME load at unit capacity runs 0.21 -> 2.1 -> 1.26, so
# the controller uses 1.0, 2.0 and 2.5 and scales down from 2.5 to 2.0
# through the hysteresis band.
_DIURNAL = DiurnalTrace(
    base_rate_per_s=1.05 / MME_SERVICE_S,
    shape=(0.2, 0.35, 0.6, 1.0, 1.5, 2.0, 1.7, 1.2),
    window_length_s=10.0,
)

# Everything but the event core, at the stock scenario: the generator,
# the CSV and binary writers and readers, the KS test and the single-job
# pass over a 300 s stream (about 40% of the time), then the scaling loop
# over the diurnal trace, where the delay layer's criticality march takes
# most of the rest.  One workload holds both so that each run can be 60 s
# long; see run.py on why runs are that long.
IO_SCALE = Workload(
    name="io_scale",
    q_total=10_000,
    horizon_s=300.0,
    n_enb=100,
    n_sgw=1,
    link_latency_s=0.0,
    commands=(
        ("generate",),
        ("validate-arrivals", "--stream", "out/stream.csv"),
        ("simulate", "--single-job"),
        ("scale", "--trace", "trace.csv", "--window-length", repr(_DIURNAL.window_length_s)),
    ),
    main=3,
    throughput_name="scale_windows_per_s",
    diurnal=_DIURNAL,
)

WORKLOADS = {w.name: w for w in (STOCK_WALK, IO_SCALE)}
