"""Approximate agreement over real-valued measurements.

Every round an operator broadcasts its value, reads one value per operator
from that round's inbox alone (its own included: a sender's lone value or
halt notice, else 0.0) and replaces its value with

    u_f(V) = mean( select_f( reduce_f(V) ) )

where reduce_f drops the f smallest and f largest entries and select_f keeps
the smallest remaining entry and every f-th one after it. With N >= 3f+1 the
honest spread shrinks by at least c = floor((N-1)/f) - 1 per round, so
ceil(log_c(spread/zeta)) rounds bring it below zeta, against an adversary
that may pick a different set of at most f liars every round: no value
outlives its round. Each operator computes its horizon from its own
first-round spread, then repeats its final value in a halt notice every
round.

An operator resends its last value message object while its value stays
the same, sign included, so the bus sizes that message once. The operators
of one instance derive each distinct first spread's horizon once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import netsim
from .model import NetworkParams


MAX_ROUNDS = 10_000  # the round cap of one instance

# the kinds that carry a sender's value for the round they are read in
_VALUE_KINDS = (netsim.KIND_VAL, netsim.KIND_HALTED)


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
        return _mean(values, min(values), max(values))
    kept = stride_select(reduce_extremes(values, f), f)
    return _mean(kept, kept[0], kept[-1])


def _mean(values: Sequence[float], lo: float, hi: float) -> float:
    """sum / len kept within [lo, hi], the range of `values`.

    The rounded quotient can fall just outside that range (for some x,
    (x + x + x) / 3 < x); the mean of a multiset cannot. Only a sum of finite
    values that overflowed is recomputed, so every other sum keeps its result.
    """
    n = len(values)
    total = sum(values)
    if math.isinf(total) and all(map(math.isfinite, values)):
        # terms scaled by 1/(2n) keep fsum's exact total inside the float range
        mean = 2 * math.fsum(v / (2 * n) for v in values)
    else:
        mean = total / n
    return lo if mean < lo else hi if mean > hi else mean


def shrink_factor(n: int, f: int) -> int:
    """Per-round convergence factor c = floor((n-1)/f) - 1."""
    if f <= 0:
        raise ValueError("shrink factor is undefined for f == 0")
    return (n - 1) // f - 1


def round_count(delta: float, zeta: float, c: int) -> int:
    """Rounds needed to shrink a spread of delta below zeta: ceil(log_c(delta/zeta)).

    Computed as the smallest h >= 0 with delta <= zeta * c**h, which avoids
    floating-point log edge cases and returns 0 whenever delta <= zeta. Once
    c**h is past the float range the comparison is made exactly.
    """
    if zeta <= 0:
        raise ValueError("zeta must be > 0")
    if c < 2:
        raise ValueError("convergence factor must be >= 2")
    if not math.isfinite(delta) or delta < 0:
        raise ValueError("spread must be finite and >= 0")
    h = 0
    while not _covers(delta, zeta, c**h):
        h += 1
    return h


def _covers(delta: float, zeta: float, power: int) -> bool:
    try:
        return delta <= zeta * power
    except OverflowError:  # power does not fit in a float
        return Fraction(delta) <= Fraction(zeta) * power


class ApproxOperator:
    """One operator's approximate-agreement state machine.

    Operators built with one netsim.RoundMemo (run_approx gives every
    operator of an instance the same one) average once per shared inbox, and
    derive a horizon once per distinct first spread; without one, each
    operator computes its own. An operator keeps its last value message and
    resends that object while v keeps its value and sign: 0.0 and -0.0 are
    equal but encode to different lengths, and a NaN equals nothing, so each
    gets a new message.
    """

    # A halted operator keeps repeating its halt notice while peers are still
    # running: peers read each sender from the current round only, so a
    # one-shot notice would count for one round and the default value after.
    HALT_KINDS: frozenset = frozenset({netsim.KIND_HALTED})

    def __init__(self, operator_id: int, params: NetworkParams, initial_value: float,
                 memo: Optional[netsim.RoundMemo] = None):
        self.operator_id = operator_id
        self.params = params
        self.v = float(initial_value)
        self.exchanges = 0
        self.horizon: Optional[int] = None
        self.first_spread: Optional[float] = None
        self.halted = False
        self.output: Optional[float] = None
        self._announce_halt = False
        # built on the first announcing round, when v stops changing
        self._halt_notice: Optional[netsim.Message] = None
        self._value_msg: Optional[netsim.Message] = None  # the last value sent
        self._memo = netsim.RoundMemo() if memo is None else memo
        self.history = [self.v]  # v at the start and after each bus round

    def outgoing(self, round_no: int) -> List[netsim.Outbound]:
        me = self.operator_id
        if self.halted or self._announce_halt:
            if self._halt_notice is None:
                self._halt_notice = netsim.Message(me, netsim.KIND_HALTED, (self.v,))
            return [(netsim.BROADCAST, self._halt_notice)]
        v, msg = self.v, self._value_msg
        # a new message unless v keeps its value and sign (a NaN never does)
        if msg is None or msg.body[0] != v or (
                v == 0.0 and math.copysign(1.0, v) != math.copysign(1.0, msg.body[0])):
            msg = self._value_msg = netsim.Message(me, netsim.KIND_VAL, (v,))
        return [(netsim.BROADCAST, msg)]

    def _average(self, round_no: int,
                 inbox: Mapping[int, Sequence[netsim.Message]]) -> Tuple[List[float], float]:
        """(values, average) of this round's inbox, taken from the memo when a
        peer already read the same inbox object; a private inbox is one
        receiver's own object, so it never hits."""
        held = self._memo.of_round(round_no)
        entry = held.get(id(inbox))
        if entry is None:
            # a sender's lone value or halt notice, else 0.0, as in
            # ledger.retrieve_approx for an absent or duplicated sender
            values = [float(msgs[0].body[0]) if len(msgs) == 1 and msgs[0].kind in _VALUE_KINDS
                      else 0.0 for msgs in inbox.values()]
            entry = held[id(inbox)] = (
                inbox, values, averaging_function(values, self.params.max_faulty))
        return entry[1], entry[2]

    def deliver(self, round_no: int, inbox: Mapping[int, Sequence[netsim.Message]]) -> None:
        """Take one round's values; inbox (read-only) lists senders in id order."""
        if self._announce_halt and not self.halted:
            self.halted = True
            self.output = self.v
        elif not self.halted:
            values, self.v = self._average(round_no, inbox)
            self.exchanges += 1
            if self.exchanges == 1:
                self.first_spread = max(values) - min(values)
                self.horizon = self._horizon(self.first_spread)
            if self.exchanges >= self.horizon:
                self._announce_halt = True
        self.history.append(self.v)

    def _horizon(self, spread: float) -> int:
        """max(1, round_count(spread, zeta, c)), or 1 with f == 0; kept in the
        memo's lasting table, so operators that read one shared inbox, and
        so share a first spread, derive it once."""
        f = self.params.max_faulty
        if f == 0:
            return 1
        horizons = self._memo.lasting
        horizon = horizons.get(spread)
        if horizon is None:
            c = shrink_factor(self.params.n_operators, f)
            # equal spreads give equal horizons, 0.0 and -0.0 included
            horizon = horizons[spread] = max(1, round_count(spread, self.params.zeta, c))
        return horizon


def fault_free_messages(n: int, h: int) -> int:
    """Messages of one run_approx among n honest operators with horizon h: n
    broadcasts to n in each of the h exchange rounds and in the halt round."""
    return n * n * (h + 1)


@dataclass
class ApproxResult:
    outputs: Dict[int, Optional[float]]
    horizons: Dict[int, Optional[int]]
    first_spreads: Dict[int, Optional[float]]
    rounds: int
    bus: netsim.RoundBus

    @cached_property
    def values_by_round(self) -> List[Dict[int, float]]:
        """[r] holds every operator's state value after bus round r; [0] the initial state."""
        machines = self.bus.participants
        return [{op: m.history[r] for op, m in machines.items()} for r in range(self.rounds + 1)]

    @cached_property
    def controlled_by_round(self) -> List[frozenset]:
        """[r] is the adversary set active in bus round r."""
        adversary, ids = self.bus.adversary, self.bus.operator_ids
        return [adversary.controlled_at(r, ids) if adversary else frozenset()
                for r in range(self.rounds)]


def run_approx(params: NetworkParams, initial_values: Dict[int, float], *,
               seed: int = 0,
               adversary: Optional[netsim.AdversaryStrategy] = None,
               frame_bytes: Optional[int] = None,
               record_transcript: bool = False) -> ApproxResult:
    """Run one approximate agreement instance until every honest operator
    halts; a run past MAX_ROUNDS rounds raises netsim.HarnessError."""
    memo = netsim.RoundMemo()
    bus = netsim.run_instance(
        initial_values, lambda op, value: ApproxOperator(op, params, value, memo),
        params.n_operators, adversary, max_rounds=MAX_ROUNDS, seed=seed,
        frame_bytes=frame_bytes, record_transcript=record_transcript)
    machines = bus.participants
    return ApproxResult(
        outputs={op: m.output for op, m in machines.items()},
        horizons={op: m.horizon for op, m in machines.items()},
        first_spreads={op: m.first_spread for op, m in machines.items()},
        rounds=bus.round,
        bus=bus,
    )
