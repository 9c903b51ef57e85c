"""Scenario configuration: defaults, field-level validation, round trips."""

import copy
import math
import re

import numpy as np
import pytest
import yaml
from hypothesis import given, strategies as st

from miotcore.autoscale import ScalingPolicy
from miotcore.config import (
    DEFAULT_ENTITY_PROFILES,
    DEFAULT_N_GROUPS,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from miotcore.delay import EntityProfile
from miotcore.errors import ConfigurationError
from miotcore.simulator import default_bearer_template, message_count
from miotcore.traffic import SourcePopulation, TrafficParams, generate_requests
from perfbench.workloads import STOCK_WALK

MINIMAL = {"traffic": {"period_s": 10.0, "q_total": 1000}}

# every field of a scenario set, each float field to a valid float
FULL = {
    "traffic": {"period_s": 10.0, "q_total": 4, "n_groups": 2,
                "slot_delta_s": 1e-3, "alarm_rate_lambda": 1.0,
                "regular_rate_epsilon": 0.5, "tx_probability": 0.5,
                "offsets_s": [1.0, 6.0], "horizon_s": 100.0},
    "entities": {"capacity_scale": 1.0,
                 "profiles": [{"entity": p.entity, "ops_per_bearer": p.ops_per_bearer,
                               "capacity": p.capacity,
                               "messages_per_bearer": message_count(p.entity)}
                              for p in DEFAULT_ENTITY_PROFILES.values()]},
    "topology": {"n_enb": 2, "n_sgw": 1, "link_latency_s": 0.0,
                 "encryption_ops": 1.0},
    "scaling": {"target_delay_s": 0.1, "percentile": 0.99,
                "multipliers": [1.0, 2.0], "hysteresis": 0.1, "scope": "all"},
}


def _float_paths(node, path=()):
    """Key/index paths of every float in ``node``, list entries included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, float):
            yield path + (key,)
        elif isinstance(value, (dict, list)):
            yield from _float_paths(value, path + (key,))


def _dotted(path):
    """The name an error gives ``path``, as ``a.b[0].c``; a list entry is its list."""
    if isinstance(path[-1], int):
        path = path[:-1]
    out = path[0]
    for key in path[1:]:
        out += f"[{key}]" if isinstance(key, int) else f".{key}"
    return out


def test_minimal_document_fills_defaults():
    sc = scenario_from_dict(MINIMAL)
    assert sc.params.period_s == 10.0
    assert sc.q_total == 1000
    assert sc.n_groups == DEFAULT_N_GROUPS
    assert sc.group_size == 10
    assert sc.offsets_s is None
    assert sc.horizon_s == 1000.0
    assert sc.profiles == DEFAULT_ENTITY_PROFILES
    assert sc.n_enb == DEFAULT_N_GROUPS  # one eNB per group
    assert sc.n_sgw == 1
    assert sc.policy.target_delay_s == 0.1
    assert sc.policy.multipliers == (1.0, 2.0, 2.5)
    assert sc.lambda_beta() == pytest.approx(63.21205588285577, rel=1e-13)


@given(group_size=st.integers(1, 100), n_groups=st.integers(1, 4),
       periods=st.integers(1, 4), period_s=st.sampled_from([1.0, 10.0]),
       tx_probability=st.floats(0.2, 1.0), regular_per_period=st.floats(0.1, 2.0),
       seed=st.integers(0, 2**32 - 1))
def test_generated_count_matches_lambda_beta(group_size, n_groups, periods, period_s,
                                             tx_probability, regular_per_period, seed):
    # over whole periods each source alarms in each slot n with the
    # probability f(n) of the Beta pmf, whose N slots sum to 1 within 2 / N,
    # and transmits with probability p; the regular stream is Poisson at
    # Q * epsilon.  So the count's mean is lambda_beta * H, up to that
    # Riemann term per source and period, and its variance is at most the
    # mean: five Poisson sigmas bound it
    q_total = group_size * n_groups
    n_slots = 1000
    sc = scenario_from_dict({"traffic": {
        "period_s": period_s, "q_total": q_total, "n_groups": n_groups,
        "slot_delta_s": period_s / n_slots, "tx_probability": tx_probability,
        "regular_rate_epsilon": regular_per_period / period_s,
        "horizon_s": periods * period_s}})
    rng = np.random.default_rng(seed)
    stream = generate_requests(sc.population(rng), sc.params, sc.horizon_s, rng)
    mean = sc.lambda_beta() * sc.horizon_s
    bound = 5.0 * math.sqrt(mean) + q_total * periods * 2.0 / n_slots
    assert abs(len(stream) - mean) <= bound, (len(stream), mean, bound)


def test_population_offsets_drawn_or_fixed():
    sc = scenario_from_dict(MINIMAL)
    pop = sc.population(np.random.default_rng(0))
    assert pop.q_total == 1000
    assert len(pop.offsets_s) == DEFAULT_N_GROUPS
    assert all(0.0 <= w < 10.0 for w in pop.offsets_s)
    # a different generator draws different phases
    other = sc.population(np.random.default_rng(1))
    assert pop.offsets_s != other.offsets_s

    doc = {"traffic": {"period_s": 10.0, "q_total": 4, "n_groups": 2,
                       "offsets_s": [1.0, 6.0]}}
    fixed = scenario_from_dict(doc)
    pop = fixed.population(np.random.default_rng(0))
    assert pop.offsets_s == (1.0, 6.0)


def test_required_fields_and_unknown_keys():
    with pytest.raises(ConfigurationError, match="traffic.period_s: required"):
        scenario_from_dict({"traffic": {"q_total": 100}})
    with pytest.raises(ConfigurationError, match="traffic.q_total: required"):
        scenario_from_dict({"traffic": {"period_s": 10.0}})
    with pytest.raises(ConfigurationError, match="unknown top-level"):
        scenario_from_dict({**MINIMAL, "extra": {}})
    with pytest.raises(ConfigurationError, match=r"unknown field\(s\) phase"):
        scenario_from_dict({"traffic": {**MINIMAL["traffic"], "phase": 1}})
    with pytest.raises(ConfigurationError, match="not divisible"):
        scenario_from_dict({"traffic": {"period_s": 10.0, "q_total": 1001}})
    with pytest.raises(ConfigurationError, match="offsets_s"):
        scenario_from_dict({"traffic": {"period_s": 10.0, "q_total": 100,
                                        "n_groups": 4, "offsets_s": [0.0]}})
    with pytest.raises(ConfigurationError, match="q_total"):
        scenario_from_dict({"traffic": {"period_s": 10.0, "q_total": "many"}})
    with pytest.raises(ConfigurationError):
        scenario_from_dict({"traffic": {**MINIMAL["traffic"],
                                        "horizon_s": -5.0}})
    with pytest.raises(ConfigurationError):
        scenario_from_dict("not a mapping")


def test_full_document_is_valid():
    sc = scenario_from_dict(FULL)
    assert sc.offsets_s == (1.0, 6.0)
    assert sc.policy.multipliers == (1.0, 2.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("path", list(_float_paths(FULL)),
                         ids=lambda p: "/".join(map(str, p)))
def test_non_finite_float_is_refused(path, value):
    doc = copy.deepcopy(FULL)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(ConfigurationError,
                       match="^" + re.escape(f"{_dotted(path)}: expected a finite number")):
        scenario_from_dict(doc)


# library callers that skip scenario_from_dict reach these checks directly;
# each used to let NaN through, as every comparison with NaN is false.  An
# offset is refused where it is read, by traffic.slot_phases
_OUTSIDE = r"offsets must lie in \[0, period_s\)"


@pytest.mark.parametrize("build, error, match", [
    (lambda: EntityProfile("MME", math.nan, 1e4), ConfigurationError, "finite"),
    (lambda: EntityProfile("MME", math.inf, 1e4), ConfigurationError, "finite"),
    (lambda: EntityProfile("MME", 9.0, math.nan), ConfigurationError, "finite"),
    (lambda: EntityProfile("MME", 9.0, math.inf), ConfigurationError, "finite"),
    (lambda: ScalingPolicy(multipliers=(1.0, math.nan)), ConfigurationError, "finite"),
    (lambda: ScalingPolicy(multipliers=(1.0, math.inf)), ConfigurationError, "finite"),
    (lambda: ScalingPolicy(target_delay_s=math.inf), ConfigurationError, "finite"),
    (lambda: TrafficParams(regular_rate_epsilon=math.nan), ValueError, "finite"),
    (lambda: TrafficParams(regular_rate_epsilon=math.inf), ValueError, "finite"),
    (lambda: generate_requests(SourcePopulation(1, 2, offsets_s=(1.0, math.nan)),
                               TrafficParams(), 10.0, seed=0), ValueError, _OUTSIDE),
    (lambda: generate_requests(SourcePopulation(1, 2, offsets_s=(1.0, math.inf)),
                               TrafficParams(), 10.0, seed=0), ValueError, _OUTSIDE),
], ids=["ops-nan", "ops-inf", "capacity-nan", "capacity-inf", "multiplier-nan",
        "multiplier-inf", "target-inf", "epsilon-nan", "epsilon-inf",
        "offset-nan", "offset-inf"])
def test_library_constructor_refuses_non_finite(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_slot_grid_past_max_slots_is_refused():
    with pytest.raises(ConfigurationError, match="traffic: slot grid too fine"):
        scenario_from_dict({"traffic": {**MINIMAL["traffic"], "slot_delta_s": 1e-12}})


def test_explicit_null_means_default():
    # config states no default of its own for a TrafficParams or a
    # ScalingPolicy field: an omitted or null field takes its class's default
    sc = scenario_from_dict(MINIMAL)
    assert sc.params == TrafficParams(period_s=10.0)
    assert sc.policy == ScalingPolicy()
    doc = {"traffic": {**MINIMAL["traffic"], "tx_probability": None,
                       "offsets_s": None}}
    sc = scenario_from_dict(doc)
    assert sc.params.tx_probability == pytest.approx(1 - np.exp(-1.0))
    assert sc.offsets_s is None


def test_capacity_scale_and_custom_profiles():
    doc = {
        "traffic": MINIMAL["traffic"],
        "entities": {
            "capacity_scale": 2.0,
            "profiles": [
                {"entity": "MME", "ops_per_bearer": 9.0, "capacity": 5000.0,
                 "messages_per_bearer": 9},
                {"entity": "UE", "ops_per_bearer": 3.0, "capacity": 1000.0},
            ] + [{"entity": name, "ops_per_bearer": 1.0, "capacity": 1e4}
                 for name in ("eNB", "HSS", "SGW", "PGW")],
        },
    }
    sc = scenario_from_dict(doc)
    assert list(sc.profiles) == ["MME", "UE", "eNB", "HSS", "SGW", "PGW"]  # file order
    assert sc.profiles["MME"].capacity == 10_000.0  # 5000 * 2
    # an omitted count is the stock one, which the default template takes
    default_bearer_template(sc.profiles)
    with pytest.raises(ConfigurationError, match=r"entities.profiles\[0\]"):
        scenario_from_dict({
            "traffic": MINIMAL["traffic"],
            "entities": {"profiles": [{"entity": "MME"}]},
        })
    with pytest.raises(ConfigurationError, match="capacity_scale"):
        scenario_from_dict({
            "traffic": MINIMAL["traffic"],
            "entities": {"capacity_scale": 0.0},
        })
    # a scale that overflows a capacity is refused under its own name
    with pytest.raises(ConfigurationError, match=re.escape(
            "entities.capacity_scale: UE: capacity must be positive and finite")):
        scenario_from_dict({
            "traffic": MINIMAL["traffic"],
            "entities": {"capacity_scale": 1e306},
        })


def test_topology_and_scaling_blocks():
    doc = {
        "traffic": MINIMAL["traffic"],
        "topology": {"n_enb": 4, "n_sgw": 2, "link_latency_s": 0.0,
                     "encryption_ops": 2.0},
        "scaling": {"target_delay_s": 0.05, "percentile": 0.9,
                    "multipliers": [1.0, 3.0], "hysteresis": 0.2,
                    "scope": "mme"},
    }
    sc = scenario_from_dict(doc)
    assert sc.n_enb == 4
    assert sc.n_sgw == 2
    # the extra MME work is in the MME's profile, which every command reads
    assert sc.profiles["MME"].ops_per_bearer == 11.0
    assert {name: p for name, p in sc.profiles.items() if name != "MME"} == {
        name: p for name, p in DEFAULT_ENTITY_PROFILES.items() if name != "MME"}
    # the MME's row holds the encryption work; link latency is only ever 0
    assert scenario_to_dict(sc)["topology"] == {"n_enb": 4, "n_sgw": 2}
    # no command models link delay, so only 0 is accepted
    with pytest.raises(ConfigurationError,
                       match=r"^topology\.link_latency_s: expected 0, got 0\.001$"):
        scenario_from_dict({"traffic": MINIMAL["traffic"],
                            "topology": {"link_latency_s": 1e-3}})
    assert sc.policy.target_delay_s == 0.05
    assert sc.policy.multipliers == (1.0, 3.0)
    assert sc.policy.scope == "mme"
    assert scenario_to_dict(sc)["scaling"]["scope"] == "mme"
    with pytest.raises(ConfigurationError, match=r"^scaling\.scope must be"):
        scenario_from_dict({"traffic": MINIMAL["traffic"],
                            "scaling": {"scope": "everything"}})
    with pytest.raises(ConfigurationError, match=r"^scaling\.percentile must"):
        scenario_from_dict({"traffic": MINIMAL["traffic"],
                            "scaling": {"percentile": 1.5}})
    with pytest.raises(ConfigurationError, match="topology.n_enb"):
        scenario_from_dict({"traffic": MINIMAL["traffic"],
                            "topology": {"n_enb": 0}})
    with pytest.raises(ConfigurationError, match=r"^topology\.encryption_ops: must be >= 0$"):
        scenario_from_dict({"traffic": MINIMAL["traffic"],
                            "topology": {"encryption_ops": -1}})
    # work that overflows the MME's ops is refused under its own name
    with pytest.raises(ConfigurationError, match=r"^topology\.encryption_ops: MME: ops_per"):
        scenario_from_dict({"traffic": MINIMAL["traffic"], "entities": {"profiles": [
            {**row, "ops_per_bearer": 1e308} for row in FULL["entities"]["profiles"]]},
            "topology": {"encryption_ops": 1e308}})


@pytest.mark.parametrize("index", range(len(DEFAULT_ENTITY_PROFILES)))
def test_message_counts_other_than_the_stock_ones_are_refused(index):
    # the walk splits an entity's work over its stock count alone, so config
    # refuses any other for every command, and names the count it expects
    rows = copy.deepcopy(FULL["entities"]["profiles"])
    row = rows[index]
    stock = row["messages_per_bearer"]
    row["messages_per_bearer"] = stock + 1
    with pytest.raises(ConfigurationError, match="^" + re.escape(
            f"entities.profiles[{index}].messages_per_bearer: expected {stock} at "
            f"{row['entity']}, got {stock + 1}") + "$"):
        scenario_from_dict({"traffic": MINIMAL["traffic"], "entities": {"profiles": rows}})
    # the stock count, given or omitted, is the one the profile keeps
    del row["messages_per_bearer"]
    sc = scenario_from_dict({"traffic": MINIMAL["traffic"], "entities": {"profiles": rows}})
    assert sc.profiles == DEFAULT_ENTITY_PROFILES


def test_scenario_dict_round_trip():
    doc = {
        "traffic": {"period_s": 10.0, "q_total": 500, "n_groups": 10,
                    "horizon_s": 300.0},
        "topology": {"n_sgw": 3},
        "scaling": {"target_delay_s": 0.2},
    }
    sc = scenario_from_dict(doc)
    written = scenario_to_dict(sc)
    assert scenario_from_dict(written) == sc
    # the manifest writes resolved values only: the eNB count one per group,
    # and each profile as its three fields
    assert written["topology"] == {"n_enb": 10, "n_sgw": 3}
    assert type(written["topology"]["n_enb"]) is int
    assert [sorted(row) for row in written["entities"]["profiles"]] == \
        [["capacity", "entity", "ops_per_bearer"]] * len(DEFAULT_ENTITY_PROFILES)
    # the scaled capacities and the MME's ops with the encryption work
    doc = {"traffic": doc["traffic"], "entities": {"capacity_scale": 2.0},
           "topology": {"encryption_ops": 2.0}}
    sc = scenario_from_dict(doc)
    assert sc.profiles["MME"] == EntityProfile("MME", 11.0, 20_000.0)
    written = scenario_to_dict(sc)
    assert written["topology"] == {"n_enb": 10, "n_sgw": 1}
    assert scenario_from_dict(written) == sc
    assert scenario_from_dict(scenario_to_dict(scenario_from_dict(FULL))) == \
        scenario_from_dict(FULL)


def test_the_benchmark_scenario_reads_back_from_its_manifest():
    # the benchmark's scenario gives every key a manifest no longer writes: a
    # message count in each profile row, link_latency_s and encryption_ops
    doc = STOCK_WALK.scenario()
    assert all("messages_per_bearer" in row for row in doc["entities"]["profiles"])
    assert {"link_latency_s", "encryption_ops"} <= set(doc["topology"])
    sc = scenario_from_dict(doc)
    assert scenario_from_dict(scenario_to_dict(sc)) == sc


@pytest.mark.parametrize("offsets, named", [
    ([15.0, -1.0], 15.0), ([1.0, -1.0], -1.0), ([1.0, 10.0], 10.0)])
def test_offsets_outside_the_period_are_refused_at_load(offsets, named):
    # traffic.slot_phases takes offsets in [0, period_s) only, so config
    # refuses any other, for every command, under the key's name
    doc = {"traffic": {"period_s": 10.0, "q_total": 4, "n_groups": 2, "offsets_s": offsets}}
    with pytest.raises(ConfigurationError, match="^" + re.escape(
            f"traffic.offsets_s: each offset must lie in [0, period_s=10.0), got {named!r}")
            + "$"):
        scenario_from_dict(doc)


def test_load_scenario_yaml(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(MINIMAL))
    sc = load_scenario(path)
    assert sc.q_total == 1000
    with pytest.raises(ConfigurationError, match="cannot read"):
        load_scenario(tmp_path / "absent.yaml")
    bad = tmp_path / "bad.yaml"
    # unbalanced, not UTF-8, a control character
    for text in (b"traffic: [unbalanced", b"traffic: {period_s: 10.0}\n\xff\xfe", b"\x00"):
        bad.write_bytes(text)
        with pytest.raises(ConfigurationError, match="not valid YAML"):
            load_scenario(bad)
