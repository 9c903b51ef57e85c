"""YAML scenario configuration shared by the CLI, simulator, and tests.

A scenario file is a nested key/value document with four optional blocks
(``traffic`` is the only one with required fields):

    traffic:
      period_s: 10.0            # required
      q_total: 10000            # required
      n_groups: 100
      slot_delta_s: ...         # these four are TrafficParams fields; an
      alarm_rate_lambda: ...    # omitted one takes that class's default
      regular_rate_epsilon: ...
      tx_probability: ...
      offsets_s: null           # fixed per-group offsets in [0, period_s);
                                # default Uniform[0, T)
      horizon_s: 1000.0         # default 100 * period_s; at least period_s
    entities:
      capacity_scale: 1.0       # multiplies every capacity below
      profiles:                 # default: the six-entity EPC profile below; a
                                # list holds one row for each of UE, eNB, MME,
                                # HSS, SGW and PGW, and no other entity
        - {entity: MME, ops_per_bearer: 9.0, capacity: 10000.0}
                                # a row may also give messages_per_bearer, but
                                # only the stock count, simulator.message_count
    topology:
      n_enb: null               # default: one per source group; few groups load few eNBs
      n_sgw: 1
      link_latency_s: 0.0       # omitted or 0: the model has no link term
      encryption_ops: 0.0       # extra MME operations per bearer
    scaling:                    # ScalingPolicy fields, with its defaults
      target_delay_s: ...
      percentile: ...
      multipliers: [...]
      hysteresis: ...
      scope: ...                # "all" or "mme"

A resolved Scenario holds only what some command reads, each value once:
its profiles are one dict from entity name to EntityProfile, in the file's
order, with capacity_scale applied and encryption_ops added to the MME's
ops_per_bearer, so every command reads one MME; every library function
that takes ``profiles`` reads such a mapping by name.  ``n_enb`` is
resolved to a count.  ``scenario_to_dict`` writes these resolved values,
so reading the dict back gives an equal scenario.  It writes none of
messages_per_bearer, link_latency_s and encryption_ops, which a file may
still give: the first two only at their one accepted value, the last
already added to the MME's row.
"""

import math
from dataclasses import asdict, dataclass, replace
from typing import Optional

import yaml

from .arrivals import bearer_request_rate
from .autoscale import ScalingPolicy, scaled_profiles
from .delay import ENTITY_MME, ENTITY_NAMES, EntityProfile
from .errors import ConfigurationError
from .simulator import _route_divisor, message_count
from .traffic import SourcePopulation, TrafficParams, check_expected_requests

DEFAULT_ENTITY_PROFILES = {e: EntityProfile(e, ops, cap) for e, ops, cap in (
    ("UE", 3.0, 1000.0), ("eNB", 2.0, 1000.0), ("MME", 9.0, 10000.0),
    ("HSS", 1.0, 10000.0), ("SGW", 3.0, 10000.0), ("PGW", 1.0, 10000.0))}
DEFAULT_N_GROUPS = 100

@dataclass(frozen=True)
class Scenario:
    """Fully resolved scenario: traffic, entity profiles, topology, scaling.

    ``profiles`` already carry ``capacity_scale`` and ``encryption_ops``,
    and ``n_enb`` is a count, ``n_groups`` where the file gives none.
    There is no link latency: every command prices a bearer as service and
    queueing alone.
    """

    params: TrafficParams
    q_total: int
    n_groups: int
    offsets_s: Optional[tuple]
    horizon_s: float
    profiles: dict
    n_enb: int
    n_sgw: int
    policy: ScalingPolicy

    @property
    def group_size(self):
        return self.q_total // self.n_groups

    def instance_rates(self, rate):
        """Each entity's share of ``rate`` at its busiest server instance when
        the walk's routing spreads the Q sources evenly: ceil(Q / n) / Q."""
        q, n_enb = self.q_total, self.n_enb
        return {name: rate * (math.ceil(q / (_route_divisor(name, n_enb, self.n_sgw) or q)) / q)
                for name in self.profiles}

    def lambda_beta(self):
        """Merged bearer-request rate Q * tx_probability / T."""
        return bearer_request_rate(
            self.q_total, self.params.period_s, self.params.tx_probability
        )

    def population(self, rng):
        """Source population with per-group offsets (sampled if not fixed).

        Offsets default to i.i.d. Uniform[0, T) per group, drawn from
        ``rng``; a scenario with fixed ``offsets_s`` ignores the rng.
        """
        if self.offsets_s is not None:
            offsets = self.offsets_s
        else:
            offsets = tuple(
                float(x) for x in rng.uniform(0.0, self.params.period_s, self.n_groups)
            )
        return SourcePopulation(
            group_size=self.group_size,
            n_groups=self.n_groups,
            offsets_s=offsets,
        )


def _block(doc, name):
    block = doc.get(name, {})
    if block is None:
        block = {}
    if not isinstance(block, dict):
        raise ConfigurationError(f"{name}: must be a mapping")
    return dict(block)


def _take(block, field, path, default=None, required=False, convert=None):
    value = block.pop(field, None)
    if value is None:
        if required:
            raise ConfigurationError(f"{path}.{field}: required")
        return default
    if convert is None:
        return value
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{path}.{field}: {exc}") from exc


def _given(block, path, converters):
    """The fields of ``converters`` that the block sets, each converted,
    by name: a dataclass takes its own defaults for the rest."""
    values = {field: _take(block, field, path, convert=convert)
              for field, convert in converters.items()}
    return {field: value for field, value in values.items() if value is not None}


def _reject_unknown(block, path):
    if block:
        fields = ", ".join(map(str, sorted(block, key=str)))
        raise ConfigurationError(f"{path}: unknown field(s) {fields}")


def _finite(value):
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"expected a finite number, got {value!r}")
    return out


def _int_strict(value):
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def scenario_from_dict(doc):
    """Build a validated Scenario from a parsed configuration mapping."""
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigurationError("configuration root must be a mapping")
    unknown = set(doc) - {"traffic", "entities", "topology", "scaling"}
    if unknown:
        raise ConfigurationError(f"unknown top-level block(s): {', '.join(sorted(unknown))}")

    tr = _block(doc, "traffic")
    period_s = _take(tr, "period_s", "traffic", required=True, convert=_finite)
    q_total = _take(tr, "q_total", "traffic", required=True, convert=_int_strict)
    n_groups = _take(tr, "n_groups", "traffic", default=DEFAULT_N_GROUPS, convert=_int_strict)
    traffic_fields = _given(tr, "traffic", dict.fromkeys(
        ("slot_delta_s", "alarm_rate_lambda", "regular_rate_epsilon", "tx_probability"),
        _finite))
    offsets = _take(tr, "offsets_s", "traffic")
    horizon_s = _take(tr, "horizon_s", "traffic", default=100.0 * period_s, convert=_finite)
    _reject_unknown(tr, "traffic")

    try:
        params = TrafficParams(period_s=period_s, **traffic_fields)
    except ValueError as exc:
        raise ConfigurationError(f"traffic: {exc}") from exc
    if q_total < 1:
        raise ConfigurationError("traffic.q_total: must be >= 1")
    if n_groups < 1:
        raise ConfigurationError("traffic.n_groups: must be >= 1")
    if q_total % n_groups:
        raise ConfigurationError(
            f"traffic.q_total: {q_total} is not divisible by n_groups={n_groups}"
        )
    if offsets is not None:
        try:
            offsets = tuple(_finite(x) for x in offsets)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"traffic.offsets_s: {exc}") from exc
        if len(offsets) != n_groups:
            raise ConfigurationError(
                f"traffic.offsets_s: need one offset per group "
                f"({len(offsets)} given, n_groups={n_groups})"
            )
        # the range traffic.slot_phases takes, for every command alike
        outside = [x for x in offsets if not 0.0 <= x < period_s]
        if outside:
            raise ConfigurationError(
                f"traffic.offsets_s: each offset must lie in [0, period_s={period_s!r}), "
                f"got {outside[0]!r}")
    # the generator's own floor, for every command alike
    if not horizon_s >= period_s:
        raise ConfigurationError(
            f"traffic.horizon_s: must be at least period_s={period_s!r}, "
            f"got {horizon_s!r}")
    try:
        check_expected_requests(q_total, params, horizon_s)
    except ValueError as exc:
        raise ConfigurationError(f"traffic: {exc}") from exc

    en = _block(doc, "entities")
    capacity_scale = _take(en, "capacity_scale", "entities", default=1.0, convert=_finite)
    raw_profiles = _take(en, "profiles", "entities")
    _reject_unknown(en, "entities")
    if raw_profiles is None:
        profiles = DEFAULT_ENTITY_PROFILES
    else:
        if not isinstance(raw_profiles, list) or not raw_profiles:
            raise ConfigurationError("entities.profiles: must be a non-empty list")
        rows = []  # (declared message count, profile)
        for i, row in enumerate(raw_profiles):
            if not isinstance(row, dict):
                raise ConfigurationError(f"entities.profiles[{i}]: must be a mapping")
            row = dict(row)
            path = f"entities.profiles[{i}]"
            entity = _take(row, "entity", path, required=True, convert=str)
            ops = _take(row, "ops_per_bearer", path, required=True, convert=_finite)
            cap = _take(row, "capacity", path, required=True, convert=_finite)
            msgs = _take(row, "messages_per_bearer", path, convert=_int_strict)
            _reject_unknown(row, path)
            try:
                rows.append((msgs, EntityProfile(entity, ops, cap)))
            except ConfigurationError as exc:
                raise ConfigurationError(f"{path}: {exc}") from exc
        # every command reads the same six: the walk, the model's K and the
        # MME lookup each need all of them, and none reads another
        names = [p.entity for _, p in rows]
        if sorted(names) != sorted(ENTITY_NAMES):
            raise ConfigurationError(
                f"entities.profiles: need one profile for each of "
                f"{', '.join(ENTITY_NAMES)}, got {', '.join(names)}")
        # the walk splits an entity's work over its stock count alone
        for i, (msgs, p) in enumerate(rows):
            count = message_count(p.entity)
            if msgs not in (None, count):
                raise ConfigurationError(f"entities.profiles[{i}].messages_per_bearer: "
                                         f"expected {count} at {p.entity}, got {msgs}")
        profiles = {p.entity: p for _, p in rows}
    try:
        profiles = scaled_profiles(profiles, capacity_scale)
    except ConfigurationError as exc:
        raise ConfigurationError(f"entities.capacity_scale: {exc}") from exc

    topo = _block(doc, "topology")
    n_enb = _take(topo, "n_enb", "topology", default=n_groups, convert=_int_strict)
    n_sgw = _take(topo, "n_sgw", "topology", default=1, convert=_int_strict)
    link_latency_s = _take(topo, "link_latency_s", "topology", default=0.0, convert=_finite)
    encryption_ops = _take(topo, "encryption_ops", "topology", default=0.0, convert=_finite)
    _reject_unknown(topo, "topology")
    if n_enb < 1:
        raise ConfigurationError("topology.n_enb: must be >= 1")
    if n_sgw < 1:
        raise ConfigurationError("topology.n_sgw: must be >= 1")
    if link_latency_s != 0.0:  # the delay model has no link term
        raise ConfigurationError(f"topology.link_latency_s: expected 0, got {link_latency_s!r}")
    if encryption_ops < 0.0:
        raise ConfigurationError("topology.encryption_ops: must be >= 0")
    mme = profiles[ENTITY_MME]
    try:
        profiles = {**profiles, ENTITY_MME: replace(
            mme, ops_per_bearer=mme.ops_per_bearer + encryption_ops)}
    except ConfigurationError as exc:
        raise ConfigurationError(f"topology.encryption_ops: {exc}") from exc

    sc = _block(doc, "scaling")
    scaling_fields = _given(sc, "scaling", {
        "target_delay_s": _finite, "percentile": _finite,
        "multipliers": lambda ms: tuple(_finite(m) for m in ms),
        "hysteresis": _finite, "scope": str})
    _reject_unknown(sc, "scaling")
    try:
        policy = ScalingPolicy(**scaling_fields)
    except ConfigurationError as exc:
        # each of the policy's messages opens with the field it refuses
        raise ConfigurationError(f"scaling.{exc}") from exc

    return Scenario(
        params=params,
        q_total=q_total,
        n_groups=n_groups,
        offsets_s=offsets,
        horizon_s=horizon_s,
        profiles=profiles,
        n_enb=n_enb,
        n_sgw=n_sgw,
        policy=policy,
    )


def load_scenario(path):
    """Parse and validate a YAML scenario file."""
    try:
        with open(path, "rb") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path!r}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"config {path!r} is not valid YAML: {exc}") from exc
    return scenario_from_dict(doc)


def scenario_to_dict(scenario):
    """Plain-dict form of a resolved scenario (manifest serialization).

    The profiles are the resolved rows, which already carry capacity_scale
    and encryption_ops, and n_enb is the resolved count, so reading the
    dict back gives an equal scenario.
    """
    return {
        "traffic": {**asdict(scenario.params), "q_total": scenario.q_total,
                    "n_groups": scenario.n_groups,
                    "offsets_s": list(scenario.offsets_s) if scenario.offsets_s else None,
                    "horizon_s": scenario.horizon_s},
        "entities": {"profiles": [asdict(p) for p in scenario.profiles.values()]},
        "topology": {"n_enb": scenario.n_enb, "n_sgw": scenario.n_sgw},
        "scaling": {**asdict(scenario.policy), "multipliers": list(scenario.policy.multipliers)},
    }
