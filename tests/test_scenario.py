"""Scenario config tests: strict validation, defaults, derived adversary roles."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leobft import netsim, pipeline
from leobft.model import MAX_OPERATORS, UsageTensor
from leobft.netsim import AdversaryStrategy
from leobft.pipeline import PropertyViolation
from leobft.scenario import (
    ConfigError,
    load_scenario,
    parse_scenario,
)


def base_config():
    return {
        "profile": "approx",
        "seed": 7,
        "network": {
            "operators": 4,
            "max_faulty": 1,
            "epsilon": 0.05,
            "zeta": 0.1,
            "alpha": 0.5,
            "rssi_threshold": 0.5,
        },
        "tensor": {"regions": 2, "subbands": 2, "period": 0},
        "events": [
            {"region": 0, "subband": 1, "operator": 2, "truth": 0.8},
        ],
    }


class TestParsing:
    def test_minimal_config_parses(self):
        sc = parse_scenario(base_config())
        assert sc.profile == "approx"
        assert sc.network.n_operators == 4
        assert sc.dims == (2, 2, 4)
        assert sc.adversary is None
        assert sc.aggregation == "median"
        assert sc.frame_bytes is None

    def test_defaults(self):
        cfg = base_config()
        del cfg["seed"]
        del cfg["network"]["zeta"]
        del cfg["network"]["alpha"]
        del cfg["tensor"]["period"]
        sc = parse_scenario(cfg)
        assert sc.seed == 0
        assert sc.network.zeta == 0.1
        assert sc.network.alpha == 0.5
        assert sc.period == 0

    def test_unknown_key_anywhere_is_fatal(self):
        cfg = base_config()
        cfg["extra"] = 1
        with pytest.raises(ConfigError, match="extra"):
            parse_scenario(cfg)
        cfg = base_config()
        cfg["network"]["max_fautly"] = 1
        with pytest.raises(ConfigError, match="max_fautly"):
            parse_scenario(cfg)
        cfg = base_config()
        cfg["events"][0]["regionn"] = 0
        with pytest.raises(ConfigError, match="regionn"):
            parse_scenario(cfg)

    def test_profile_validated(self):
        cfg = base_config()
        cfg["profile"] = "fuzzy"
        with pytest.raises(ConfigError):
            parse_scenario(cfg)

    def test_network_bounds_checked(self):
        cfg = base_config()
        cfg["network"]["max_faulty"] = 2
        with pytest.raises(ConfigError):
            parse_scenario(cfg)

    def test_event_ranges_checked(self):
        for key, bad in [("region", 2), ("subband", -1), ("operator", 5), ("operator", 0)]:
            cfg = base_config()
            cfg["events"][0][key] = bad
            with pytest.raises(ConfigError):
                parse_scenario(cfg)

    def test_negative_period_rejected(self):
        cfg = base_config()
        cfg["tensor"]["period"] = -1
        with pytest.raises(ConfigError, match="period must be >= 0"):
            parse_scenario(cfg)

    def test_event_truth_must_be_finite(self):
        cfg = base_config()
        cfg["events"][0]["truth"] = float("nan")
        with pytest.raises(ConfigError):
            parse_scenario(cfg)

    def test_events_must_be_non_empty(self):
        cfg = base_config()
        cfg["events"] = []
        with pytest.raises(ConfigError):
            parse_scenario(cfg)

    def test_bool_is_not_an_int(self):
        cfg = base_config()
        cfg["network"]["operators"] = True
        with pytest.raises(ConfigError):
            parse_scenario(cfg)

    def test_operator_count_is_bounded(self):
        # exact runs grow as N^3 (fault-free relays): see model.MAX_OPERATORS
        cfg = base_config()
        cfg["network"]["operators"] = MAX_OPERATORS
        assert parse_scenario(cfg).network.n_operators == MAX_OPERATORS
        cfg["network"]["operators"] = MAX_OPERATORS + 1
        with pytest.raises(ConfigError, match="n_operators=%d is more than %d"
                           % (MAX_OPERATORS + 1, MAX_OPERATORS)):
            parse_scenario(cfg)

    def test_int_promotes_to_float(self):
        cfg = base_config()
        cfg["network"]["epsilon"] = 0
        cfg["events"][0]["truth"] = 1
        sc = parse_scenario(cfg)
        assert sc.network.epsilon == 0.0
        assert sc.events[0].truth == 1.0

    def test_frame_bytes_validation(self):
        cfg = base_config()
        cfg["frame_bytes"] = 200
        assert parse_scenario(cfg).frame_bytes == 200
        cfg["frame_bytes"] = 0
        with pytest.raises(ConfigError):
            parse_scenario(cfg)
        cfg["frame_bytes"] = None
        assert parse_scenario(cfg).frame_bytes is None

    def test_aggregation_validated(self):
        cfg = base_config()
        cfg["aggregation"] = "trimmed-stride"
        assert parse_scenario(cfg).aggregation == "trimmed-stride"
        cfg["aggregation"] = "mode"
        with pytest.raises(ConfigError):
            parse_scenario(cfg)

    def test_not_an_object_rejected(self):
        with pytest.raises(ConfigError):
            parse_scenario([1, 2, 3])

    @pytest.mark.parametrize("key, value", [
        ("epsilon", float("nan")), ("epsilon", float("inf")), ("epsilon", 1e308),
        ("epsilon", 8.9e307),
        ("epsilon", 10**400), ("zeta", float("nan")), ("alpha", float("inf")),
        ("rssi_threshold", float("nan")), ("rssi_threshold", -float("inf")),
    ])
    def test_non_finite_network_values_rejected(self, key, value):
        cfg = base_config()
        cfg["network"][key] = value
        with pytest.raises(ConfigError, match=key):
            parse_scenario(cfg)

    def test_huge_int_truth_rejected(self):
        cfg = base_config()
        cfg["events"][0]["truth"] = 10**400
        with pytest.raises(ConfigError, match="truth"):
            parse_scenario(cfg)

    @pytest.mark.parametrize("truth", [1.7e308, -1.7e308, 1.0000001e100, -2 * 10**100])
    def test_truth_past_the_magnitude_bound_rejected(self, truth):
        cfg = base_config()
        cfg["events"][0]["truth"] = truth
        with pytest.raises(ConfigError, match="truth must be a number of magnitude"):
            parse_scenario(cfg)

    def test_truth_at_the_magnitude_bound_accepted(self):
        cfg = base_config()
        cfg["events"][0]["truth"] = -netsim.MAX_MAGNITUDE
        assert parse_scenario(cfg).events[0].truth == -1e100


# integers past the float range are valid JSON and must not reach float()
SCALAR = (st.none() | st.booleans() | st.integers() | st.integers(2**1023, 2**1100)
          | st.floats() | st.text(max_size=8))
JSON = st.recursive(
    SCALAR,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=4),
    max_leaves=12)


def _full_config():
    cfg = base_config()
    cfg["adversary"] = {"behavior": "equivocate", "operators": [1],
                        "params": {"delta": 1.0, "values": [0.5, 1.0], "bits": [0, 1]},
                        "rotate": False,
                        "vote_policy": "honest", "proposal": "honest"}
    cfg["frame_bytes"] = 64
    cfg["aggregation"] = "median"
    cfg["record_transcript"] = False
    return cfg


def _paths(node, prefix=()):
    """Every key path inside a nested dict/list config."""
    for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


# the numbers that form spreads, and values at and past the magnitude bound
NUMBER_PATHS = [("events", 0, "truth"), ("adversary", "params", "delta"),
                ("adversary", "params", "values", 0), ("adversary", "params", "values", 1)]
EXTREMES = st.sampled_from([1.7976931348623157e308, -1.7976931348623157e308, 1e100, -1e100])


@st.composite
def mutated_configs(draw):
    """A valid config with values, anywhere in it, replaced.

    Half of the configs get one to three values replaced. The other half
    first get the truth and every value the adversary lies with set to the
    largest floats or to the magnitude bound, so that extremes of opposite
    signs often meet in one spread, and then zero to three values replaced.
    """
    cfg = _full_config()
    extremes = draw(st.booleans())
    if extremes:
        for path in NUMBER_PATHS:
            node = cfg
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = draw(EXTREMES)
    for _ in range(draw(st.integers(0 if extremes else 1, 3))):
        path = draw(st.sampled_from(list(_paths(cfg))))
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = draw(SCALAR | JSON)
    return cfg


class TestParseFuzz:
    @given(JSON)
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_json_raises_only_config_error(self, obj):
        try:
            parse_scenario(obj)
        except ConfigError:
            pass

    @given(mutated_configs())
    @settings(max_examples=400, deadline=None)
    def test_mutated_config_raises_only_config_error(self, cfg):
        try:
            sc = parse_scenario(cfg)
        except ConfigError:
            return
        # a config that parses must also run: to completion, or to a
        # PropertyViolation, never to another exception (the mutations can
        # pick the largest floats, whose spreads would overflow)
        if sc.network.n_operators <= 10:
            try:
                pipeline.run_scenario(sc)
            except PropertyViolation:
                pass


class TestAdversaryConfig:
    def _with_adv(self, **adv):
        cfg = base_config()
        cfg["adversary"] = {"behavior": "crash", "operators": [2], **adv}
        return cfg

    def test_adversary_parses(self):
        sc = parse_scenario(self._with_adv())
        assert sc.adversary.behavior == "crash"
        assert sc.adversary.controlled == frozenset({2})

    def test_unknown_behavior_rejected(self):
        cfg = self._with_adv()
        cfg["adversary"]["behavior"] = "jam"
        with pytest.raises(ConfigError):
            parse_scenario(cfg)

    def test_operators_validated(self):
        cfg = self._with_adv()
        cfg["adversary"]["operators"] = [5]
        with pytest.raises(ConfigError):
            parse_scenario(cfg)
        cfg["adversary"]["operators"] = [2, 2]
        with pytest.raises(ConfigError):
            parse_scenario(cfg)
        cfg["adversary"]["operators"] = [True]
        with pytest.raises(ConfigError):
            parse_scenario(cfg)

    @pytest.mark.parametrize("profile", ["binary", "exact", "approx"])
    @pytest.mark.parametrize("operators", [[1, 2], [1, 2, 3, 4]])
    def test_more_than_f_operators_rejected(self, profile, operators):
        # the guarantees cover the honest operators only when at most f misbehave
        cfg = self._with_adv(behavior="value-liar", operators=operators)
        cfg["profile"] = profile
        with pytest.raises(ConfigError, match="more than max_faulty 1"):
            parse_scenario(cfg)
        cfg["adversary"]["operators"] = operators[:1]
        assert parse_scenario(cfg).adversary.controlled == frozenset(operators[:1])

    @pytest.mark.parametrize("profile", ["binary", "exact", "approx"])
    def test_rotation_rejected_only_in_exact_profile(self, profile):
        # Dolev-Strong agreement holds only for a fixed faulty set
        cfg = self._with_adv(rotate=True)
        cfg["profile"] = profile
        if profile == "exact":
            with pytest.raises(ConfigError, match="exact profile needs a static adversary"):
                parse_scenario(cfg)
            cfg["adversary"]["rotate"] = False
        assert parse_scenario(cfg).adversary.rotate is cfg["adversary"]["rotate"]

    def test_vote_policy_and_proposal_validated(self):
        cfg = self._with_adv(vote_policy="repeat")
        with pytest.raises(ConfigError):
            parse_scenario(cfg)
        cfg = self._with_adv(proposal="spam")
        with pytest.raises(ConfigError):
            parse_scenario(cfg)

    def test_every_known_param_accepted(self):
        params = {"offset": 3, "value": 1.5, "delta": 0.5, "threshold": 0.0,
                  "epsilon": 1.0, "values": [1, 2.5], "range": [-1.0, 1.0],
                  "bits": [1, 0], "bit": 0, "fake_halt": True}
        assert set(params) == set(netsim.PARAM_TYPES)
        sc = parse_scenario(self._with_adv(params=params))
        assert sc.adversary.params == params

    def test_misspelt_param_rejected(self):
        with pytest.raises(ConfigError, match="offest"):
            parse_scenario(self._with_adv(params={"offest": 5}))

    @pytest.mark.parametrize("params", [
        {"value": -1.7e308},
        {"offset": 1.0000001e100},
        {"delta": 10**101},
        {"values": [0.0, 1.7e308]},
        {"range": [-1.7e308, 1.7e308]},
        {"threshold": -1e300},
        {"epsilon": 1e200},
    ])
    def test_param_past_the_magnitude_bound_rejected(self, params):
        with pytest.raises(ConfigError, match="magnitude at most 1e"):
            parse_scenario(self._with_adv(params=params))

    def test_opposite_extremes_run(self):
        # truth and lie at opposite ends of the allowed range: the first
        # spread, 2e100, is finite, so the approx run halves it for hundreds
        # of rounds and completes
        cfg = self._with_adv(behavior="value-liar", params={"value": -netsim.MAX_MAGNITUDE})
        cfg["events"][0]["truth"] = netsim.MAX_MAGNITUDE
        cfg["adversary"]["operators"] = [1]
        outcome = pipeline.run_scenario(parse_scenario(cfg)).outcomes[0]
        assert outcome.rounds > 300
        assert [outcome.outputs[op] for op in (2, 3, 4)] == [1e100] * 3

    def test_honest_run_at_the_epsilon_bound(self):
        # measurements spread over (0, 2e100); averaging them stays finite
        cfg = base_config()
        cfg["network"]["epsilon"] = cfg["events"][0]["truth"] = netsim.MAX_MAGNITUDE
        outcome = pipeline.run_scenario(parse_scenario(cfg)).outcomes[0]
        assert outcome.rounds > 300
        assert all(0.0 < v < 2e100 for v in outcome.outputs.values())

    @pytest.mark.parametrize("params", [
        {"offset": "ten"},
        {"offset": True},
        {"value": float("nan")},
        {"delta": float("inf")},
        {"values": [1.0]},
        {"range": [0.0, "1"]},
        {"range": 5},
        {"bits": [0, 2]},
        {"bits": [True, False]},
        {"bit": 1.0},
        {"fake_halt": 1},
    ])
    def test_mistyped_param_rejected(self, params):
        with pytest.raises(ConfigError, match="adversary param"):
            parse_scenario(self._with_adv(params=params))

    def test_corrupt_tensor_reads_offset(self):
        sc = parse_scenario(self._with_adv(behavior="value-liar", params={"offset": 3}))
        liar = sc.adversary
        empty = UsageTensor(0, (1, 1, 4))
        assert (liar.controlled, liar.proposal, liar.vote_policy,
                liar.corrupt_tensor(empty).get((0, 0, 0))) == (
            frozenset({2}), "corrupt", "honest", 3.0)
        default = parse_scenario(self._with_adv()).adversary
        assert default.corrupt_tensor(empty).get((0, 0, 0)) == netsim.DEFAULT_OFFSET

    def test_parsed_strategy_mirrors_config(self):
        sc = parse_scenario(self._with_adv(rotate=True, params={"offset": 3.0}))
        strategy = sc.adversary
        assert strategy.behavior == netsim.CRASH
        assert strategy.controlled == frozenset({2})
        assert strategy.rotate is True
        assert strategy.params == {"offset": 3.0}

    def test_vote_policy_derived_from_behavior(self):
        assert AdversaryStrategy("crash", frozenset({2})).vote_policy == "crash"
        assert AdversaryStrategy("value-liar", frozenset({2})).vote_policy == "honest"
        pinned = AdversaryStrategy("crash", frozenset({2}), vote_policy="approve-all")
        assert pinned.vote_policy == "approve-all"


class TestLoadScenario:
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config()))
        sc = load_scenario(path)
        assert sc.seed == 7

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_scenario(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_scenario(path)
