"""Synchronous round bus with byte accounting and Byzantine fault injection.

All protocol traffic moves in lockstep rounds: every participant hands its
outgoing messages to the bus, the bus delivers them, and only then does the
round counter advance, so a message sent in round r is readable in round r
and never earlier or later. Inboxes carry an entry for every operator on
the bus; an empty sequence is the explicit "absent this round" marker.

Adversarial operators keep an honestly-updating state machine, but whatever
it wants to send is substituted according to the bus's strategy. Strategies
may only sign through keys their operators own. The same strategy decides how
its operators propose and vote in the ledger phase and answer retrieval.
"""

from __future__ import annotations

import functools
import random
from collections import defaultdict
from dataclasses import dataclass, field
from typing import (Callable, DefaultDict, Dict, Iterable, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from . import auth
from .model import MAX_MAGNITUDE, UsageTensor

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

VOTE_POLICIES = ("honest", "approve-all", "reject-all", "crash")
PROPOSAL_STYLES = ("honest", "corrupt", "equivocate", "crash")

# behavior -> (ledger proposal, ledger vote policy, retrieval answer) of its
# operators; the first two apply when the strategy does not set them, and a
# "crash" retrieval answer is silence
LEDGER_ROLES: Dict[str, Tuple[str, str, str]] = {
    CRASH: ("crash", "crash", "crash"),
    EQUIVOCATE: ("equivocate", "honest", "corrupt"),
    RANDOM_VALUES: ("corrupt", "honest", "corrupt"),
    VALUE_LIAR: ("corrupt", "honest", "corrupt"),
    BOUNDARY_ATTACKER: ("honest", "honest", "honest"),
    BAD_PROPOSER: ("corrupt", "honest", "corrupt"),
}

# the behaviors that draw from their per-(operator, round) random stream
_DRAWING = frozenset({RANDOM_VALUES, BOUNDARY_ATTACKER})

# how far a value liar, a corrupt proposer and a lying responder shift a value
DEFAULT_OFFSET = 10.0


def _number(x) -> bool:
    # abs(x) <= bound compares exactly: NaN, infinities and ints past the float
    # range all fail it
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= MAX_MAGNITUDE)


def _bit(x) -> bool:
    return type(x) is int and x in (0, 1)


def _pair(item: Callable[[object], bool]) -> Callable[[object], bool]:
    return lambda x: isinstance(x, (list, tuple)) and len(x) == 2 and all(map(item, x))


_NUMBER = ("a number of magnitude at most %g" % MAX_MAGNITUDE, _number)
_NUMBERS = ("a pair of numbers of magnitude at most %g" % MAX_MAGNITUDE, _pair(_number))

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


@dataclass(frozen=True, init=False)
class Message:
    """One protocol message: a sender, a kind and a body of fields.

    A frozen dataclass whose __init__ writes the three fields straight into
    the instance dict, where the generated one calls object.__setattr__ once
    per field; equality, hash, repr, pickling and dataclasses.replace are the
    dataclass's own.
    """

    sender: int
    kind: str
    body: tuple

    def __init__(self, sender: int, kind: str, body: tuple) -> None:
        fields = self.__dict__
        fields["sender"] = sender
        fields["kind"] = kind
        fields["body"] = body

    def canonical_bytes(self) -> bytes:
        return auth.encode(self.kind, self.sender, *self.body)

    def raw_size(self) -> int:
        """len(canonical_bytes()), summed on the first call only: the (kind,
        sender) header's size, then "|" and auth.encoded_size of the body."""
        size = self.__dict__.get("_raw_size")
        if size is None:
            kind, sender, body = self.kind, self.sender, self.body
            if type(kind) is str and type(sender) is int:
                size = _header_size(kind, sender)
            else:  # other types bypass the table: 0.0 and -0.0 are equal keys
                size = auth.encoded_size(kind, sender)
            if body:
                size += 1 + auth.encoded_size(*body)
            self.__dict__["_raw_size"] = size  # frozen: straight into the instance dict
        return size


@functools.lru_cache(maxsize=4096)
def _header_size(kind: str, sender: int) -> int:
    """auth.encoded_size(kind, sender), kept for the str kinds and int senders
    a bus sends with: equal keys of these exact types encode alike."""
    return auth.encoded_size(kind, sender)


# (destination, message); the destination is BROADCAST, one operator id, or a
# tuple of ids that gets one copy per listed id
Outbound = Tuple[Union[int, Tuple[int, ...]], Message]


@dataclass
class AdversaryStrategy:
    """Which operators misbehave and how, in every phase of a period.

    controlled: operator ids the adversary owns (at most f for the guarantees
    to hold; the bus does not enforce this so tests can exceed it on purpose).
    rotate: if true, the controlled set changes every round, cycling through
    all operators in id order with the same cardinality.
    proposal: how a controlled proposer acts in the ledger phase: "honest",
    "corrupt" (proposes corrupt_tensor of its local tensor), "equivocate"
    (signs both) or "crash" (proposes nothing). vote_policy: "honest",
    "approve-all", "reject-all" or "crash" (no vote). None takes the
    behavior's entry in LEDGER_ROLES.
    """

    behavior: str
    controlled: frozenset
    params: dict = field(default_factory=dict)
    rotate: bool = False
    proposal: Optional[str] = None
    vote_policy: Optional[str] = None

    def __post_init__(self) -> None:
        if self.behavior not in BEHAVIORS:
            raise ValueError("adversary behavior must be one of %s" % (BEHAVIORS,))
        if self.proposal not in PROPOSAL_STYLES + (None,):
            raise ValueError("proposal must be one of %s" % (PROPOSAL_STYLES,))
        if self.vote_policy not in VOTE_POLICIES + (None,):
            raise ValueError("vote_policy must be one of %s" % (VOTE_POLICIES,))
        self.controlled = frozenset(self.controlled)
        proposal, vote_policy, _ = LEDGER_ROLES[self.behavior]
        self.proposal = self.proposal or proposal
        self.vote_policy = self.vote_policy or vote_policy

    def controlled_at(self, round_no: int, all_ids: Sequence[int]) -> frozenset:
        """The operators controlled in round_no; all_ids is in ascending order."""
        if not self.rotate or not self.controlled:
            return self.controlled
        k, n = len(self.controlled), len(all_ids)
        start = round_no % n
        return frozenset(all_ids[(start + i) % n] for i in range(k))

    def corrupt_tensor(self, local: UsageTensor) -> UsageTensor:
        """local with every entry shifted by params offset (or one entry set to it)."""
        offset = float(self.params.get("offset", DEFAULT_OFFSET))
        bad = local.copy()
        if bad.entries:
            for key in list(bad.entries):
                bad.set(key, bad.get(key) + offset)
        else:
            bad.set((0, 0, 0), offset)
        return bad

    def _tensors(self, style: str, local: UsageTensor) -> List[UsageTensor]:
        """What a proposal style or retrieval answer sends of local: nothing ("crash"),
        local ("honest"), its corruption ("corrupt") or both ("equivocate")."""
        tensors = [] if style in ("crash", "corrupt") else [local]
        if style in ("corrupt", "equivocate"):
            tensors.append(self.corrupt_tensor(local))
        return tensors

    def proposal_tensors(self, local: UsageTensor) -> List[UsageTensor]:
        """The tensors a controlled proposer signs for the ledger, by its proposal."""
        return self._tensors(self.proposal, local)

    def retrieval_answer(self, local: UsageTensor) -> Optional[UsageTensor]:
        """What a controlled operator returns for a retrieval request; None is silence."""
        answers = self._tensors(LEDGER_ROLES[self.behavior][2], local)
        return answers[0] if answers else None

    def rng(self, seed: int, op: int, round_no: int) -> Optional[random.Random]:
        """The random stream substitute draws from for op in round_no of a bus
        seeded with seed; None for a behaviour that draws nothing."""
        if self.behavior not in _DRAWING:
            return None
        return random.Random(auth.derive_seed(seed, "adv", op, round_no))

    def substitute(self, op: int, round_no: int, intended: List[Outbound],
                   all_ids: Tuple[int, ...], rng: Optional[random.Random],
                   participant) -> List[Outbound]:
        """Replace operator op's honest outbox for round_no by this strategy;
        rng is self.rng's stream for (op, round_no). A subclass may send
        anything op may: messages from op, signed only with op's key.

        Every lie comes from _lies. A lie to a group is one message object
        sent as one tuple destination, so the bus encodes and an exact
        operator signs it once; a per-recipient lie goes to the single id,
        and bit lies share one message per distinct bit. Lies never use
        BROADCAST: they originate their size once per recipient.
        """
        behavior = self.behavior
        params = self.params
        if behavior == CRASH:
            return []
        if behavior == BAD_PROPOSER:
            # corrupts ledger proposals, not protocol traffic
            return intended

        out: List[Outbound] = []
        bits: Dict[int, Message] = {}  # bit -> the one message that lies it
        for dest, msg in intended:
            recipients = _recipients(dest, all_ids)

            if msg.kind in (KIND_BIT, KIND_CERT):
                for bit, to in _lies(self, int(msg.body[0]), recipients, rng, bits=True):
                    lie = bits.get(bit)
                    if lie is None:
                        lie = bits[bit] = Message(op, KIND_BIT, (bit,))
                    out.append((to, lie))

            elif msg.kind in (KIND_VAL, KIND_HALTED):
                original_value = float(msg.body[0])
                if params.get("fake_halt"):
                    if round_no == 0:
                        notice = Message(op, KIND_HALTED,
                                         (float(params.get("value", original_value)),))
                        out.append((recipients, notice))
                    continue
                for value, to in _lies(self, original_value, recipients, rng):
                    out.append((to, Message(op, KIND_VAL, (value,))))

            elif msg.kind == KIND_BCAST:
                signed: auth.SignedMessage = msg.body[0]
                own_origin = signed.signers == (op,)
                if own_origin and hasattr(participant, "make_own_broadcast"):
                    base = float(participant.initial_value)
                    for value, to in _lies(self, base, recipients, rng):
                        out.append((to, participant.make_own_broadcast(value)))
                else:
                    # relayed chains cannot be forged, only withheld, destination
                    # by destination: an equivocator keeps the lower half of a
                    # broadcast, which for one listed peer is nobody, so it relays
                    # nothing to a listed group; random-values drops each
                    # recipient with probability 1/2, drawing in the listed order
                    if behavior == EQUIVOCATE:
                        recipients = _halves(recipients)[0] if dest == BROADCAST else ()
                    elif behavior == RANDOM_VALUES:
                        recipients = tuple(r for r in recipients if rng.random() < 0.5)
                    out.append((recipients, msg))
            else:
                out.append((recipients, msg))
        return out


def honest_ids(operator_ids: Sequence[int],
               adversary: Optional[AdversaryStrategy]) -> List[int]:
    """Operators whose outputs the agreement guarantees cover, in the given order.

    A rotating adversary substitutes different operators each round, so every
    state machine still updates honestly and all of them count.
    """
    if adversary is None or adversary.rotate:
        return list(operator_ids)
    return [op for op in operator_ids if op not in adversary.controlled]


def _halves(recipients: Sequence[int]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    ordered = tuple(sorted(recipients))
    half = len(ordered) // 2
    return ordered[:half], ordered[half:]


def _lies(strategy: AdversaryStrategy, base, recipients: Tuple[int, ...],
          rng: Optional[random.Random], bits: bool = False) -> List[tuple]:
    """(lie, destination) pairs sent instead of base by one of the four lies,
    bits if bits is set, else float values, in the recipients' order: an
    equivocator tells each non-empty half of the recipients one lie,
    random-values and boundary-attacker draw one per recipient, sent to its
    single id, and a value liar tells all of them one. Crash and
    bad-proposer never reach it.
    """
    behavior, params = strategy.behavior, strategy.params
    if behavior == EQUIVOCATE:
        if bits:
            pair = params.get("bits", (0, 1))
        else:
            delta = float(params.get("delta", 1.0))
            pair = [float(v) for v in params.get("values", (base - delta, base + delta))]
        return [(lie, half) for lie, half in zip(pair, _halves(recipients)) if half]
    if behavior == VALUE_LIAR:
        lie = (params.get("bit", 1 - base) if bits
               else float(params.get("value", base + params.get("offset", DEFAULT_OFFSET))))
        return [(lie, recipients)]
    if bits:  # random-values and boundary-attacker draw a fair bit
        return [(rng.randint(0, 1), r) for r in recipients]
    if behavior == RANDOM_VALUES:
        lo, hi = params.get("range", (-100.0, 100.0))
        return [(rng.uniform(lo, hi), r) for r in recipients]
    # BOUNDARY_ATTACKER
    mid = float(params.get("threshold", 0.0))
    eps = float(params.get("epsilon", 1.0))
    return [(mid + eps * (2 * rng.random() - 1), r) for r in recipients]


def _recipients(dest, ids: Tuple[int, ...]) -> Tuple[int, ...]:
    """The operators an Outbound destination names, in sending order."""
    if dest == BROADCAST:
        return ids
    return dest if isinstance(dest, tuple) else (dest,)


class RoundMemo:
    """Results that one instance's operators derive from the same object in a round.

    The bus hands each message object, and each shared inbox, to many
    receivers in the same round; since they are read-only, what the first
    receiver derives from one can serve the others. of_round(round_no) is the
    table id(obj) -> entry of that round, an entry being a sequence whose
    first item is obj, then what was derived from it. Entries hold their
    object, so its id() cannot be reused while they are kept, and are dropped
    when the round changes. lasting is a second table, kept for the memo's
    whole life and keyed as its user chooses, for what holds in every round.
    """

    def __init__(self) -> None:
        self._round: Optional[int] = None
        self._held: Dict[int, tuple] = {}
        self.lasting: Dict = {}

    def of_round(self, round_no: int) -> Dict[int, tuple]:
        if round_no != self._round:
            self._round = round_no
            self._held = {}
        return self._held


class RoundBus:
    """Lockstep message bus for one protocol instance, built whole: its
    operators are the participants' operator_ids, kept in id order."""

    def __init__(self, participants: Iterable, adversary: Optional[AdversaryStrategy] = None,
                 *, seed: int = 0, frame_bytes: Optional[int] = None,
                 record_transcript: bool = False):
        self.participants: Dict[int, object] = {
            p.operator_id: p for p in sorted(participants, key=lambda p: p.operator_id)}
        self.operator_ids = tuple(self.participants)
        self._members = frozenset(self.operator_ids)
        self.adversary = adversary
        self.seed = seed
        self.frame_bytes = frame_bytes
        self.round = 0
        self.originated = {op: 0 for op in self.operator_ids}
        self.delivered = {op: 0 for op in self.operator_ids}
        self.received = {op: 0 for op in self.operator_ids}
        self.transcript: Optional[List[Tuple[int, int, int, str, int]]] = (
            [] if record_transcript else None
        )

    def run_round(self) -> Dict[int, Mapping[int, Sequence[Message]]]:
        """Run one round; return each receiver's inbox, senders in ascending id.

        Inboxes are read-only and may be shared between receivers: an absent
        sender's entry is empty, a present one lists its messages in sending
        order. A sender whose one message goes to every operator fills one
        entry of a shared base inbox; a receiver of any other message gets a
        copy of the base with its own entries. A BROADCAST originates its
        size once, any other destination once per listed id. Each
        participant's outgoing(round_no) is a sequence of Outbound pairs;
        once its halted is set, an honest one sends only its HALT_KINDS.
        """
        round_no = self.round
        frame = self.frame_bytes
        ids = self.operator_ids
        originated, delivered, received = self.originated, self.delivered, self.received
        transcript = self.transcript
        controlled = (
            self.adversary.controlled_at(round_no, ids) if self.adversary else frozenset()
        )

        absent: List[Message] = []
        base: Dict[int, Sequence[Message]] = {}
        private: DefaultDict[int, Dict[int, List[Message]]] = defaultdict(dict)
        members = self._members
        shared_bytes = 0  # what every operator receives of the base, its own included

        for op in ids:
            participant = self.participants[op]
            intended = participant.outgoing(round_no)
            if op in controlled:
                adversary = self.adversary
                outbound = adversary.substitute(op, round_no, intended, ids,
                                                adversary.rng(self.seed, op, round_no),
                                                participant)
            else:
                outbound = intended
                if participant.halted:
                    for _, msg in outbound:
                        if msg.kind not in participant.HALT_KINDS:
                            raise HarnessError(
                                "operator %d sent %r after halting" % (op, msg.kind)
                            )

            if len(outbound) == 1 and (outbound[0][0] == BROADCAST or outbound[0][0] == ids):
                # one message to every operator, listed in id order: one entry
                # of the shared base inbox, whatever the other senders send
                dest, msg = outbound[0]
                if msg.sender != op:
                    raise HarnessError("operator %d forged sender %d" % (op, msg.sender))
                size = msg.raw_size()
                if frame is not None:
                    size = max(size, frame)
                originated[op] += size if dest == BROADCAST else size * len(ids)
                if transcript is not None:
                    transcript.extend((round_no, op, rcv, msg.kind, size) for rcv in ids)
                base[op] = (msg,)
                delivered[op] += size * (len(ids) - 1)
                received[op] -= size  # its own copy is not received
                shared_bytes += size
                continue

            base[op] = absent
            filed: Optional[DefaultDict[int, List[Message]]] = None  # rcv -> op's messages
            for dest, msg in outbound:
                if msg.sender != op:
                    raise HarnessError("operator %d forged sender %d" % (op, msg.sender))
                if dest in members:
                    recipients = None
                else:
                    recipients = _recipients(dest, ids)
                    if not recipients:  # an empty group is never sized
                        continue
                    if dest != BROADCAST and not members.issuperset(recipients):
                        raise HarnessError("operator %d sent to %r, which is not on this bus"
                                           % (op, next(r for r in recipients if r not in members)))
                size = msg.raw_size()
                if frame is not None:
                    size = max(size, frame)
                if recipients is None:
                    # one operator id, as most of a per-recipient liar's lies are
                    # addressed: sent without the group arithmetic below, which
                    # costs binary-split about 8% of its throughput
                    originated[op] += size
                    if transcript is not None:
                        transcript.append((round_no, op, dest, msg.kind, size))
                    if filed is None:
                        filed = defaultdict(list)
                    filed[dest].append(msg)
                    if dest != op:
                        delivered[op] += size
                        received[dest] += size
                    continue
                originated[op] += size if dest == BROADCAST else size * len(recipients)
                if transcript is not None:
                    transcript.extend((round_no, op, rcv, msg.kind, size) for rcv in recipients)
                own = recipients.count(op)  # copies to itself are neither delivered nor received
                delivered[op] += size * (len(recipients) - own)
                received[op] -= size * own
                if filed is None:
                    filed = defaultdict(list)
                for rcv in recipients:
                    filed[rcv].append(msg)
                    received[rcv] += size
            if filed is not None:
                for rcv, msgs in filed.items():
                    private[rcv][op] = msgs

        inboxes: Dict[int, Mapping[int, Sequence[Message]]] = dict.fromkeys(ids, base)
        for rcv, mine in private.items():
            inboxes[rcv] = {**base, **mine}
        for rcv in ids:
            received[rcv] += shared_bytes
            self.participants[rcv].deliver(round_no, inboxes[rcv])

        self.round += 1
        return inboxes


def run_instance(inputs: Mapping[int, object],
                 make_operator: Callable[[int, object, RoundMemo], object],
                 n_operators: int, adversary: Optional[AdversaryStrategy], *,
                 max_rounds: int, seed: int = 0, frame_bytes: Optional[int] = None,
                 record_transcript: bool = False) -> RoundBus:
    """Run one protocol instance with one make_operator(op, inputs[op], memo)
    per operator, memo being the instance's one RoundMemo.

    Rounds run until every operator in honest_ids has halted; a run that
    would pass max_rounds, the protocol's cap, raises HarnessError instead.
    For a fixed number of rounds, build a RoundBus and call run_round.
    """
    ids = sorted(inputs)
    if len(ids) != n_operators:
        raise ValueError("expected %d inputs, got %d" % (n_operators, len(ids)))
    memo = RoundMemo()
    bus = RoundBus([make_operator(op, inputs[op], memo) for op in ids], adversary, seed=seed,
                   frame_bytes=frame_bytes, record_transcript=record_transcript)
    honest = honest_ids(ids, adversary)
    while not all(bus.participants[op].halted for op in honest):
        if bus.round >= max_rounds:
            raise HarnessError("round cap %d exceeded" % max_rounds)
        bus.run_round()
    return bus
