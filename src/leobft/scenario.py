"""Scenario configuration: one JSON file, strictly validated.

Unknown keys anywhere in the file are rejected so that a typo like
"max_fautly" fails loudly instead of silently running with a default.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from . import ledger, netsim
from .model import NetworkParams

PROFILES = ("binary", "exact", "approx")
AGGREGATIONS = ("median", "trimmed-stride")
VOTE_POLICIES = ("honest", "approve-all", "reject-all", "crash")
PROPOSAL_STYLES = ("honest", "corrupt", "equivocate", "crash")


class ConfigError(ValueError):
    pass


def _require_mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError("%s must be an object" % where)
    return obj


def _check_keys(obj: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError("unknown key(s) %s in %s" % (", ".join(map(repr, unknown)), where))


_REQUIRED = object()


def _get(obj: dict, key: str, kind, where: str, default=_REQUIRED):
    if key not in obj:
        if default is _REQUIRED:
            raise ConfigError("missing required key %r in %s" % (key, where))
        return default
    value = obj[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError("key %r in %s must be %s" % (key, where, kind.__name__))
    return value


@dataclass(frozen=True)
class EventConfig:
    region: int
    subband: int
    operator: int  # target operator id, 1-based
    truth: float


@dataclass(frozen=True)
class AdversaryConfig:
    behavior: str
    operators: Tuple[int, ...]
    params: dict = field(default_factory=dict)
    rotate: bool = False
    vote_policy: Optional[str] = None  # None: derived from behavior
    proposal: Optional[str] = None  # None: derived from behavior

    def message_strategy(self) -> netsim.AdversaryStrategy:
        return netsim.AdversaryStrategy(
            behavior=self.behavior,
            controlled=frozenset(self.operators),
            params=dict(self.params),
            rotate=self.rotate,
        )

    def proposal_style(self) -> str:
        if self.proposal is not None:
            return self.proposal
        return {
            netsim.CRASH: "crash",
            netsim.BAD_PROPOSER: "corrupt",
            netsim.EQUIVOCATE: "equivocate",
            netsim.VALUE_LIAR: "corrupt",
            netsim.RANDOM_VALUES: "corrupt",
            netsim.BOUNDARY_ATTACKER: "honest",
        }[self.behavior]

    def effective_vote_policy(self) -> str:
        if self.vote_policy is not None:
            return self.vote_policy
        return "crash" if self.behavior == netsim.CRASH else "honest"

    def ledger_adversary(self) -> ledger.LedgerAdversary:
        """How the controlled operators propose, vote and answer retrieval."""
        return ledger.LedgerAdversary(
            controlled=frozenset(self.operators),
            proposal=self.proposal_style(),
            vote_policy=self.effective_vote_policy(),
            offset=float(self.params.get("offset", netsim.DEFAULT_OFFSET)),
        )


@dataclass(frozen=True)
class Scenario:
    profile: str
    seed: int
    network: NetworkParams
    dims: Tuple[int, int, int]  # (regions, subbands, operators)
    period: int
    events: Tuple[EventConfig, ...]
    adversary: Optional[AdversaryConfig]
    frame_bytes: Optional[int]
    aggregation: str
    record_transcript: bool


def parse_scenario(obj) -> Scenario:
    root = _require_mapping(obj, "scenario")
    _check_keys(root, {"profile", "seed", "network", "tensor", "events", "adversary",
                       "frame_bytes", "aggregation", "record_transcript"}, "scenario")

    profile = _get(root, "profile", str, "scenario")
    if profile not in PROFILES:
        raise ConfigError("profile must be one of %s" % (PROFILES,))
    seed = _get(root, "seed", int, "scenario", default=0)

    net = _require_mapping(_get(root, "network", dict, "scenario"), "network")
    _check_keys(net, {"operators", "max_faulty", "epsilon", "zeta", "alpha",
                      "rssi_threshold"}, "network")
    try:
        network = NetworkParams(
            n_operators=_get(net, "operators", int, "network"),
            max_faulty=_get(net, "max_faulty", int, "network"),
            epsilon=_get(net, "epsilon", float, "network"),
            zeta=_get(net, "zeta", float, "network", default=0.1),
            alpha=_get(net, "alpha", float, "network", default=0.5),
            rssi_threshold=_get(net, "rssi_threshold", float, "network"),
        )
    except ValueError as err:
        raise ConfigError(str(err)) from err

    tensor = _require_mapping(_get(root, "tensor", dict, "scenario"), "tensor")
    _check_keys(tensor, {"regions", "subbands", "period"}, "tensor")
    regions = _get(tensor, "regions", int, "tensor")
    subbands = _get(tensor, "subbands", int, "tensor")
    period = _get(tensor, "period", int, "tensor", default=0)
    if regions < 1 or subbands < 1:
        raise ConfigError("tensor dims must be >= 1")
    if period < 0:
        raise ConfigError("period must be >= 0")
    dims = (regions, subbands, network.n_operators)

    raw_events = _get(root, "events", list, "scenario")
    if not raw_events:
        raise ConfigError("events must be a non-empty list")
    events: List[EventConfig] = []
    for i, raw in enumerate(raw_events):
        where = "events[%d]" % i
        ev = _require_mapping(raw, where)
        _check_keys(ev, {"region", "subband", "operator", "truth"}, where)
        event = EventConfig(
            region=_get(ev, "region", int, where),
            subband=_get(ev, "subband", int, where),
            operator=_get(ev, "operator", int, where),
            truth=_get(ev, "truth", float, where),
        )
        if not (0 <= event.region < regions):
            raise ConfigError("%s: region out of range" % where)
        if not (0 <= event.subband < subbands):
            raise ConfigError("%s: subband out of range" % where)
        if not (1 <= event.operator <= network.n_operators):
            raise ConfigError("%s: operator out of range" % where)
        if not (event.truth == event.truth and abs(event.truth) != float("inf")):
            raise ConfigError("%s: truth must be finite" % where)
        events.append(event)

    adversary = None
    raw_adv = root.get("adversary")
    if raw_adv is not None:
        adv = _require_mapping(raw_adv, "adversary")
        _check_keys(adv, {"behavior", "operators", "params", "rotate", "vote_policy",
                          "proposal"}, "adversary")
        behavior = _get(adv, "behavior", str, "adversary")
        if behavior not in netsim.BEHAVIORS:
            raise ConfigError("adversary behavior must be one of %s" % (netsim.BEHAVIORS,))
        raw_ops = _get(adv, "operators", list, "adversary")
        ops = []
        for op in raw_ops:
            if not isinstance(op, int) or isinstance(op, bool):
                raise ConfigError("adversary operators must be ints")
            if not (1 <= op <= network.n_operators):
                raise ConfigError("adversary operator %d out of range" % op)
            ops.append(op)
        if len(set(ops)) != len(ops):
            raise ConfigError("adversary operators must be distinct")
        vote_policy = adv.get("vote_policy")
        if vote_policy is not None and vote_policy not in VOTE_POLICIES:
            raise ConfigError("vote_policy must be one of %s" % (VOTE_POLICIES,))
        proposal = adv.get("proposal")
        if proposal is not None and proposal not in PROPOSAL_STYLES:
            raise ConfigError("proposal must be one of %s" % (PROPOSAL_STYLES,))
        params = _get(adv, "params", dict, "adversary", default={})
        _check_keys(params, set(netsim.PARAM_TYPES), "adversary params")
        for key, value in params.items():
            kind, ok = netsim.PARAM_TYPES[key]
            if not ok(value):
                raise ConfigError("adversary param %r must be %s" % (key, kind))
        adversary = AdversaryConfig(
            behavior=behavior,
            operators=tuple(sorted(ops)),
            params=params,
            rotate=_get(adv, "rotate", bool, "adversary", default=False),
            vote_policy=vote_policy,
            proposal=proposal,
        )

    frame_bytes = root.get("frame_bytes")
    if frame_bytes is not None:
        if not isinstance(frame_bytes, int) or isinstance(frame_bytes, bool) or frame_bytes < 1:
            raise ConfigError("frame_bytes must be a positive int or null")

    aggregation = _get(root, "aggregation", str, "scenario", default="median")
    if aggregation not in AGGREGATIONS:
        raise ConfigError("aggregation must be one of %s" % (AGGREGATIONS,))

    record_transcript = _get(root, "record_transcript", bool, "scenario", default=False)

    return Scenario(
        profile=profile,
        seed=seed,
        network=network,
        dims=dims,
        period=period,
        events=tuple(events),
        adversary=adversary,
        frame_bytes=frame_bytes,
        aggregation=aggregation,
        record_transcript=record_transcript,
    )


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as err:
        raise ConfigError("cannot read config: %s" % err) from err
    except json.JSONDecodeError as err:
        raise ConfigError("config is not valid JSON: %s" % err) from err
    return parse_scenario(obj)
