"""Scenario configuration: one JSON file, strictly validated.

Unknown keys anywhere in the file are rejected so that a typo like
"max_fautly" fails loudly instead of silently running with a default.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import List, Optional, Tuple

from . import netsim
from .model import MAX_MAGNITUDE, NetworkParams

PROFILES = ("binary", "exact", "approx")
AGGREGATIONS = ("median", "trimmed-stride")


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
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError("key %r in %s is too large for a float" % (key, where)) from None
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
class Scenario:
    profile: str
    seed: int
    network: NetworkParams
    dims: Tuple[int, int, int]  # (regions, subbands, operators)
    period: int
    events: Tuple[EventConfig, ...]
    adversary: Optional[netsim.AdversaryStrategy]
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
        if not abs(event.truth) <= MAX_MAGNITUDE:
            raise ConfigError("%s: truth must be a number of magnitude at most %g"
                              % (where, MAX_MAGNITUDE))
        events.append(event)

    adversary = None
    raw_adv = root.get("adversary")
    if raw_adv is not None:
        adv = _require_mapping(raw_adv, "adversary")
        _check_keys(adv, {"behavior", "operators", "params", "rotate", "vote_policy",
                          "proposal"}, "adversary")
        behavior = _get(adv, "behavior", str, "adversary")
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
        if len(ops) > network.max_faulty:
            raise ConfigError("adversary controls %d operators, more than max_faulty %d"
                              % (len(ops), network.max_faulty))
        params = _get(adv, "params", dict, "adversary", default={})
        _check_keys(params, set(netsim.PARAM_TYPES), "adversary params")
        for key, value in params.items():
            kind, ok = netsim.PARAM_TYPES[key]
            if not ok(value):
                raise ConfigError("adversary param %r must be %s" % (key, kind))
        rotate = _get(adv, "rotate", bool, "adversary", default=False)
        if rotate and profile == "exact":
            raise ConfigError("the exact profile needs a static adversary: Dolev-Strong "
                              "agreement holds only for a fixed faulty set")
        try:
            adversary = netsim.AdversaryStrategy(
                behavior=behavior,
                controlled=frozenset(ops),
                params=params,
                rotate=rotate,
                proposal=adv.get("proposal"),
                vote_policy=adv.get("vote_policy"),
            )
        except ValueError as err:
            raise ConfigError(str(err)) from err

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
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as err:
        raise ConfigError("cannot read config: %s" % err) from err
    except UnicodeDecodeError as err:
        raise ConfigError("config is not UTF-8: %s" % err) from err
    except json.JSONDecodeError as err:
        raise ConfigError("config is not valid JSON: %s" % err) from err
    except ValueError as err:  # what json.load raises past int's digit limit
        raise ConfigError("config has an integer of more than %d digits"
                          % sys.get_int_max_str_digits()) from err
    except RecursionError as err:
        raise ConfigError("config nests arrays or objects too deeply") from err
    return parse_scenario(obj)
