"""Approximate agreement over real-valued measurements.

Every round an operator broadcasts its value, collects one value per
operator (its own included, 0.0 for silent peers, the recorded final value
for halted ones) and replaces its value with

    u_f(V) = mean( select_f( reduce_f(V) ) )

where reduce_f drops the f smallest and f largest entries and select_f keeps
the smallest remaining entry and every f-th one after it. With N >= 3f+1 the
honest spread shrinks by at least c = floor((N-1)/f) - 1 per round, so
ceil(log_c(spread/zeta)) rounds bring it below zeta. Each operator computes
its horizon from its own first-round spread, then announces its final value
in a halt notice and goes quiet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from . import netsim
from .model import NetworkParams


def reduce_extremes(values: Sequence[float], f: int) -> List[float]:
    """Sorted values with the f smallest and f largest removed."""
    if f < 0:
        raise ValueError("f must be >= 0")
    if len(values) <= 2 * f:
        raise ValueError("need more than 2f values, got %d with f=%d" % (len(values), f))
    ordered = sorted(values)
    return ordered[f: len(ordered) - f] if f else ordered


def stride_select(ordered: Sequence[float], f: int) -> List[float]:
    """The smallest element and every f-th element after it."""
    if f <= 0:
        raise ValueError("stride selection needs f >= 1")
    return list(ordered[::f])


def averaging_function(values: Sequence[float], f: int) -> float:
    """u_f: mean of the stride selection of the trimmed multiset.

    With f == 0 there is nothing to trim and this is the plain mean.
    """
    if f == 0:
        if not values:
            raise ValueError("cannot average an empty multiset")
        return sum(values) / len(values)
    return _mean(stride_select(reduce_extremes(values, f), f))


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def shrink_factor(n: int, f: int) -> int:
    """Per-round convergence factor c = floor((n-1)/f) - 1."""
    if f <= 0:
        raise ValueError("shrink factor is undefined for f == 0")
    return (n - 1) // f - 1


def round_count(delta: float, zeta: float, c: int) -> int:
    """Rounds needed to shrink a spread of delta below zeta: ceil(log_c(delta/zeta)).

    Computed as the smallest h >= 0 with delta <= zeta * c**h, which avoids
    floating-point log edge cases and returns 0 whenever delta <= zeta.
    """
    if zeta <= 0:
        raise ValueError("zeta must be > 0")
    if c < 2:
        raise ValueError("convergence factor must be >= 2")
    if not math.isfinite(delta) or delta < 0:
        raise ValueError("spread must be finite and >= 0")
    h = 0
    while delta > zeta * c**h:
        h += 1
    return h


class ApproxOperator:
    # A halted operator keeps repeating its halt notice while peers are still
    # running: a per-round rotating adversary can swallow any single round's
    # traffic, so a one-shot notice could be lost forever and peers would fall
    # back to the default value instead of the sender's final one.
    HALT_KINDS: frozenset = frozenset({netsim.KIND_HALTED})

    def __init__(self, operator_id: int, params: NetworkParams, initial_value: float,
                 default_value: float = 0.0):
        self.operator_id = operator_id
        self.params = params
        self.v = float(initial_value)
        self.initial_value = float(initial_value)
        self.default_value = default_value
        self.exchanges = 0
        self.horizon: Optional[int] = None
        self.first_spread: Optional[float] = None
        self.halted = False
        self.output: Optional[float] = None
        self._announce_halt = False
        self._final_values: Dict[int, float] = {}  # sticky values of halted peers

    def outgoing(self, round_no: int) -> List[netsim.Outbound]:
        me = self.operator_id
        if self.halted or self._announce_halt:
            return [(netsim.BROADCAST, netsim.Message(me, netsim.KIND_HALTED, (self.v,)))]
        return [(netsim.BROADCAST, netsim.Message(me, netsim.KIND_VAL, (self.v,)))]

    def _peer_value(self, sender: int, msgs: List[netsim.Message]) -> float:
        for msg in msgs:
            if msg.kind == netsim.KIND_HALTED and sender not in self._final_values:
                self._final_values[sender] = float(msg.body[0])
        if sender in self._final_values:
            return self._final_values[sender]
        val_msgs = [m for m in msgs if m.kind == netsim.KIND_VAL]
        if len(val_msgs) == 1:
            return float(val_msgs[0].body[0])
        return self.default_value  # absent or duplicated sender

    def deliver(self, round_no: int, inbox: Dict[int, List[netsim.Message]]) -> None:
        if self.halted:
            return
        if self._announce_halt:
            self.halted = True
            self.output = self.v
            return
        values = [self._peer_value(s, inbox[s]) for s in sorted(inbox)]
        f = self.params.max_faulty
        self.v = averaging_function(values, f)
        self.exchanges += 1
        if self.exchanges == 1:
            self.first_spread = max(values) - min(values)
            if f == 0:
                self.horizon = 1
            else:
                c = shrink_factor(self.params.n_operators, f)
                self.horizon = max(1, round_count(self.first_spread, self.params.zeta, c))
        if self.exchanges >= self.horizon:
            self._announce_halt = True


@dataclass
class ApproxResult:
    outputs: Dict[int, Optional[float]]
    horizons: Dict[int, Optional[int]]
    first_spreads: Dict[int, Optional[float]]
    rounds: int
    # values_by_round[r] holds every operator's state value after bus round r;
    # index 0 is the initial state. controlled_by_round[r] is the adversary
    # set active in bus round r.
    values_by_round: List[Dict[int, float]]
    controlled_by_round: List[frozenset]
    bus: netsim.RoundBus


def run_approx(params: NetworkParams, initial_values: Dict[int, float], *,
               seed: int = 0,
               adversary: Optional[netsim.AdversaryStrategy] = None,
               frame_bytes: Optional[int] = None,
               record_transcript: bool = False,
               max_rounds: int = 10_000) -> ApproxResult:
    """Run one approximate agreement instance until all honest operators halt."""
    ids = sorted(initial_values)
    if len(ids) != params.n_operators:
        raise ValueError("expected %d initial values, got %d" % (params.n_operators, len(ids)))

    bus = netsim.RoundBus(ids, seed=seed, frame_bytes=frame_bytes,
                          record_transcript=record_transcript)
    for op in ids:
        bus.register(ApproxOperator(op, params, initial_values[op]))
    bus.bind_adversary(adversary)

    def snapshot() -> Dict[int, float]:
        return {
            op: (bus.participants[op].output if bus.participants[op].halted
                 else bus.participants[op].v)
            for op in ids
        }

    values_by_round = [snapshot()]
    controlled_by_round: List[frozenset] = []

    honest = netsim.honest_ids(ids, adversary)

    while not all(bus.participants[op].halted for op in honest):
        if bus.round >= max_rounds:
            raise netsim.HarnessError("approximate agreement exceeded %d rounds" % max_rounds)
        controlled_by_round.append(
            adversary.controlled_at(bus.round, ids) if adversary else frozenset()
        )
        bus.run_round()
        values_by_round.append(snapshot())

    machines = {op: bus.participants[op] for op in ids}
    return ApproxResult(
        outputs={op: m.output for op, m in machines.items()},
        horizons={op: m.horizon for op, m in machines.items()},
        first_spreads={op: m.first_spread for op, m in machines.items()},
        rounds=bus.round,
        values_by_round=values_by_round,
        controlled_by_round=controlled_by_round,
        bus=bus,
    )
