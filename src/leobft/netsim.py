"""Synchronous round bus with byte accounting and Byzantine fault injection.

All protocol traffic moves in lockstep rounds: every participant hands its
outgoing messages to the bus, the bus delivers them, and only then does the
round counter advance, so a message sent in round r is readable in round r
and never earlier or later. Inboxes carry an entry for every registered
operator; an empty list is the explicit "absent this round" marker.

Adversarial operators keep an honestly-updating state machine, but whatever
it wants to send is substituted according to the bound strategy. Strategies
may only sign through keys their operators own.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import auth

BROADCAST = -1

# message kinds understood by the fault-injection library
KIND_BIT = "bit"        # binary agreement step bit, body = (bit,)
KIND_CERT = "cert"      # binary halt certificate, body = (bit, tag)
KIND_VAL = "val"        # approximate agreement value, body = (value,)
KIND_HALTED = "halted"  # approximate agreement halt notice, body = (value,)
KIND_BCAST = "bcast"    # authenticated broadcast relay, body = (SignedMessage,)

CRASH = "crash"
EQUIVOCATE = "equivocate"
RANDOM_VALUES = "random-values"
VALUE_LIAR = "value-liar"
BOUNDARY_ATTACKER = "boundary-attacker"
BAD_PROPOSER = "bad-proposer"

BEHAVIORS = (CRASH, EQUIVOCATE, RANDOM_VALUES, VALUE_LIAR, BOUNDARY_ATTACKER, BAD_PROPOSER)

# how far a value liar, a corrupt proposer and a lying responder shift a value
DEFAULT_OFFSET = 10.0


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _bit(x) -> bool:
    return type(x) is int and x in (0, 1)


def _pair(item: Callable[[object], bool]) -> Callable[[object], bool]:
    return lambda x: isinstance(x, (list, tuple)) and len(x) == 2 and all(map(item, x))


_NUMBER = ("a finite number", _number)
_NUMBERS = ("a pair of finite numbers", _pair(_number))

# every strategy param a behaviour reads: key -> (what it must be, check)
PARAM_TYPES: Dict[str, Tuple[str, Callable[[object], bool]]] = {
    "offset": _NUMBER, "value": _NUMBER, "delta": _NUMBER,
    "threshold": _NUMBER, "epsilon": _NUMBER,
    "values": _NUMBERS, "range": _NUMBERS,
    "bits": ("a pair of bits (0 or 1)", _pair(_bit)),
    "bit": ("a bit (0 or 1)", _bit),
    "fake_halt": ("a bool", lambda x: isinstance(x, bool)),
}


class HarnessError(AssertionError):
    """An honest participant broke a harness rule (a bug, not a protocol event)."""


@dataclass(frozen=True)
class Message:
    sender: int
    kind: str
    body: tuple

    def canonical_bytes(self) -> bytes:
        parts: list = [self.kind, self.sender]
        for part in self.body:
            if hasattr(part, "canonical_bytes"):
                parts.append(part.canonical_bytes())
            else:
                parts.append(part)
        return auth.encode(*parts)


Outbound = Tuple[int, Message]  # (destination operator or BROADCAST, message)


@dataclass
class AdversaryStrategy:
    """Which operators misbehave and how.

    controlled: operator ids the adversary owns (at most f for the guarantees
    to hold; the bus does not enforce this so tests can exceed it on purpose).
    rotate: if true, the controlled set changes every round, cycling through
    all operators in id order with the same cardinality.
    """

    behavior: str
    controlled: frozenset
    params: dict = field(default_factory=dict)
    rotate: bool = False

    def __post_init__(self) -> None:
        if self.behavior not in BEHAVIORS:
            raise ValueError("unknown adversary behavior %r" % self.behavior)
        self.controlled = frozenset(self.controlled)

    def controlled_at(self, round_no: int, all_ids: Sequence[int]) -> frozenset:
        if not self.rotate or not self.controlled:
            return self.controlled
        ids = sorted(all_ids)
        k = len(self.controlled)
        start = round_no % len(ids)
        return frozenset(ids[(start + i) % len(ids)] for i in range(k))


def honest_ids(operator_ids: Sequence[int],
               adversary: Optional[AdversaryStrategy]) -> List[int]:
    """Operators whose outputs the agreement guarantees cover, in the given order.

    A rotating adversary substitutes different operators each round, so every
    state machine still updates honestly and all of them count.
    """
    if adversary is None or adversary.rotate:
        return list(operator_ids)
    return [op for op in operator_ids if op not in adversary.controlled]


class _AdversaryContext:
    def __init__(self, all_ids: Sequence[int], rng: random.Random, participant):
        self.all_ids = sorted(all_ids)
        self.rng = rng
        self.participant = participant

    def split_recipients(self, recipients: Sequence[int]) -> Tuple[List[int], List[int]]:
        ordered = sorted(recipients)
        half = len(ordered) // 2
        return ordered[:half], ordered[half:]


def _lie_values(strategy: AdversaryStrategy, base: float, recipients: Sequence[int],
                ctx: _AdversaryContext) -> List[Tuple[int, float]]:
    """(recipient, value) pairs sent instead of base by one of the four value lies.

    Shared by approximate-agreement values and own-origin broadcasts; crash
    and bad-proposer never reach it.
    """
    behavior, params = strategy.behavior, strategy.params
    if behavior == EQUIVOCATE:
        delta = float(params.get("delta", 1.0))
        lo, hi = params.get("values", (base - delta, base + delta))
        lows, highs = ctx.split_recipients(recipients)
        return [(r, float(lo)) for r in lows] + [(r, float(hi)) for r in highs]
    if behavior == RANDOM_VALUES:
        lo, hi = params.get("range", (-100.0, 100.0))
        return [(r, ctx.rng.uniform(lo, hi)) for r in recipients]
    if behavior == BOUNDARY_ATTACKER:
        mid = float(params.get("threshold", 0.0))
        eps = float(params.get("epsilon", 1.0))
        return [(r, mid + eps * (2 * ctx.rng.random() - 1)) for r in recipients]
    # VALUE_LIAR
    value = float(params.get("value", base + params.get("offset", DEFAULT_OFFSET)))
    return [(r, value) for r in recipients]


def _substitute(strategy: AdversaryStrategy, op: int, round_no: int,
                intended: List[Outbound], ctx: _AdversaryContext) -> List[Outbound]:
    """Replace an operator's honest outbox according to the strategy."""
    behavior = strategy.behavior
    params = strategy.params
    if behavior == CRASH:
        return []
    if behavior == BAD_PROPOSER:
        # corrupts ledger proposals, not protocol traffic
        return intended

    out: List[Outbound] = []
    for dest, msg in intended:
        recipients = ctx.all_ids if dest == BROADCAST else [dest]

        if msg.kind in (KIND_BIT, KIND_CERT):
            original = int(msg.body[0])
            if behavior == EQUIVOCATE:
                lows, highs = ctx.split_recipients(recipients)
                b0, b1 = params.get("bits", (0, 1))
                out.extend((r, Message(op, KIND_BIT, (b0,))) for r in lows)
                out.extend((r, Message(op, KIND_BIT, (b1,))) for r in highs)
            elif behavior == RANDOM_VALUES or behavior == BOUNDARY_ATTACKER:
                out.extend(
                    (r, Message(op, KIND_BIT, (ctx.rng.randint(0, 1),)))
                    for r in recipients
                )
            elif behavior == VALUE_LIAR:
                lie = params.get("bit", 1 - original)
                out.extend((r, Message(op, KIND_BIT, (lie,))) for r in recipients)

        elif msg.kind in (KIND_VAL, KIND_HALTED):
            original_value = float(msg.body[0])
            if params.get("fake_halt"):
                if round_no == 0:
                    value = float(params.get("value", original_value))
                    out.extend((r, Message(op, KIND_HALTED, (value,))) for r in recipients)
                continue
            out.extend((r, Message(op, KIND_VAL, (value,)))
                       for r, value in _lie_values(strategy, original_value, recipients, ctx))

        elif msg.kind == KIND_BCAST:
            signed: auth.SignedMessage = msg.body[0]
            own_origin = signed.signers == (op,)
            if own_origin and hasattr(ctx.participant, "make_own_broadcast"):
                base = float(ctx.participant.initial_value)
                out.extend((r, ctx.participant.make_own_broadcast(value))
                           for r, value in _lie_values(strategy, base, recipients, ctx))
            else:
                # relayed chains cannot be forged, only withheld or split
                if behavior == EQUIVOCATE:
                    keep, _ = ctx.split_recipients(recipients)
                    out.extend((r, msg) for r in keep)
                elif behavior == RANDOM_VALUES:
                    out.extend((r, msg) for r in recipients if ctx.rng.random() < 0.5)
                else:
                    out.extend((r, msg) for r in recipients)
        else:
            out.extend((r, msg) for r in recipients)
    return out


class RoundBus:
    """Lockstep message bus for one protocol instance."""

    def __init__(self, operator_ids: Sequence[int], seed: int = 0,
                 frame_bytes: Optional[int] = None, record_transcript: bool = False):
        self.operator_ids = sorted(operator_ids)
        self.seed = seed
        self.frame_bytes = frame_bytes
        self.round = 0
        self.participants: Dict[int, object] = {}
        self.adversary: Optional[AdversaryStrategy] = None
        self.originated = {op: 0 for op in self.operator_ids}
        self.delivered = {op: 0 for op in self.operator_ids}
        self.received = {op: 0 for op in self.operator_ids}
        self.transcript: Optional[List[Tuple[int, int, int, str, int]]] = (
            [] if record_transcript else None
        )

    def register(self, participant) -> None:
        op = participant.operator_id
        if op not in self.originated:
            raise ValueError("operator %d is not on this bus" % op)
        self.participants[op] = participant

    def bind_adversary(self, strategy: Optional[AdversaryStrategy]) -> None:
        self.adversary = strategy

    def _message_size(self, msg: Message) -> int:
        size = len(msg.canonical_bytes())
        if self.frame_bytes is not None:
            size = max(size, self.frame_bytes)
        return size

    def run_round(self) -> Dict[int, Dict[int, List[Message]]]:
        round_no = self.round
        controlled = (
            self.adversary.controlled_at(round_no, self.operator_ids)
            if self.adversary else frozenset()
        )

        inboxes: Dict[int, Dict[int, List[Message]]] = {
            rcv: {snd: [] for snd in self.operator_ids} for rcv in self.operator_ids
        }

        for op in self.operator_ids:
            participant = self.participants[op]
            intended = list(participant.outgoing(round_no))
            if op in controlled:
                rng = random.Random(auth.derive_seed(self.seed, "adv", op, round_no))
                ctx = _AdversaryContext(self.operator_ids, rng, participant)
                outbound = _substitute(self.adversary, op, round_no, intended, ctx)
            else:
                outbound = intended
                if getattr(participant, "halted", False):
                    allowed = getattr(participant, "HALT_KINDS", frozenset())
                    for _, msg in outbound:
                        if msg.kind not in allowed:
                            raise HarnessError(
                                "operator %d sent %r after halting" % (op, msg.kind)
                            )

            for dest, msg in outbound:
                if msg.sender != op:
                    raise HarnessError("operator %d forged sender %d" % (op, msg.sender))
                recipients = self.operator_ids if dest == BROADCAST else [dest]
                size = self._message_size(msg)
                self.originated[op] += size
                for rcv in recipients:
                    inboxes[rcv][op].append(msg)
                    if rcv != op:
                        self.delivered[op] += size
                        self.received[rcv] += size
                    if self.transcript is not None:
                        self.transcript.append((round_no, op, rcv, msg.kind, size))

        for op in self.operator_ids:
            self.participants[op].deliver(round_no, inboxes[op])

        self.round += 1
        return inboxes

    def run_until(self, done: Callable[[], bool], max_rounds: int) -> int:
        """Run rounds until done() or the cap; returns rounds executed."""
        start = self.round
        while not done():
            if self.round - start >= max_rounds:
                raise HarnessError("round cap %d exceeded" % max_rounds)
            self.run_round()
        return self.round - start

    def bytes_exchanged(self, op: int) -> int:
        """Canonical bytes the operator put on the wire plus bytes received.

        Each originated message is counted once regardless of fan-out; the
        per-delivery figure is tracked separately in `delivered`.
        """
        return self.originated[op] + self.received[op]

    def transcript_rows(self) -> List[Tuple[int, int, int, str, int]]:
        if self.transcript is None:
            raise ValueError("bus was created without transcript recording")
        return list(self.transcript)
