"""Scenario config tests: strict validation, defaults, derived adversary roles."""

import json

import pytest

from leobft import netsim
from leobft.scenario import (
    AdversaryConfig,
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


class TestAdversaryConfig:
    def _with_adv(self, **adv):
        cfg = base_config()
        cfg["adversary"] = {"behavior": "crash", "operators": [2], **adv}
        return cfg

    def test_adversary_parses(self):
        sc = parse_scenario(self._with_adv())
        assert sc.adversary.behavior == "crash"
        assert sc.adversary.operators == (2,)

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

    def test_ledger_adversary_reads_offset(self):
        sc = parse_scenario(self._with_adv(behavior="value-liar", params={"offset": 3}))
        liar = sc.adversary.ledger_adversary()
        assert (liar.controlled, liar.proposal, liar.vote_policy, liar.offset) == (
            frozenset({2}), "corrupt", "honest", 3.0)
        default = parse_scenario(self._with_adv()).adversary.ledger_adversary()
        assert default.offset == netsim.DEFAULT_OFFSET

    def test_message_strategy_mirrors_config(self):
        sc = parse_scenario(self._with_adv(rotate=True, params={"offset": 3.0}))
        strategy = sc.adversary.message_strategy()
        assert strategy.behavior == netsim.CRASH
        assert strategy.controlled == frozenset({2})
        assert strategy.rotate is True
        assert strategy.params == {"offset": 3.0}

    def test_proposal_style_derived_from_behavior(self):
        cases = {
            "crash": "crash",
            "bad-proposer": "corrupt",
            "equivocate": "equivocate",
            "value-liar": "corrupt",
            "random-values": "corrupt",
            "boundary-attacker": "honest",
        }
        for behavior, style in cases.items():
            adv = AdversaryConfig(behavior=behavior, operators=(2,))
            assert adv.proposal_style() == style
        override = AdversaryConfig(behavior="crash", operators=(2,), proposal="honest")
        assert override.proposal_style() == "honest"

    def test_vote_policy_derived_from_behavior(self):
        assert AdversaryConfig("crash", (2,)).effective_vote_policy() == "crash"
        assert AdversaryConfig("value-liar", (2,)).effective_vote_policy() == "honest"
        pinned = AdversaryConfig("crash", (2,), vote_policy="approve-all")
        assert pinned.effective_vote_policy() == "approve-all"


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
