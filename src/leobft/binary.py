"""Iterated binary Byzantine agreement with a common coin.

Each iteration is three lockstep steps. In every step each operator
broadcasts its current bit and tallies exactly N bits (its own included;
absent or malformed senders count as 0):

  step 1: >= 2f+1 zeros -> decide 0 and halt; >= 2f+1 ones -> adopt 1;
          otherwise adopt 0.
  step 2: >= 2f+1 ones  -> decide 1 and halt; >= 2f+1 zeros -> adopt 0;
          otherwise adopt 1.
  step 3: >= 2f+1 zeros -> adopt 0; >= 2f+1 ones -> adopt 1; otherwise
          adopt the shared coin flip for this iteration, then start over.

A halted operator keeps broadcasting a signed halt certificate carrying its
decision, and peers tally the certified bit for it from then on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from . import auth, netsim
from .model import NetworkParams

MAX_ITERATIONS = 64


class BinaryOperator:
    HALT_KINDS = frozenset({netsim.KIND_CERT})

    def __init__(self, operator_id: int, params: NetworkParams, initial_bit: int,
                 instance: str, coin: auth.CommonCoin, registry: auth.KeyRegistry):
        if type(initial_bit) is not int or initial_bit not in (0, 1):
            raise ValueError("initial bit must be 0 or 1")
        self.operator_id = operator_id
        self.params = params
        self.instance = instance
        self.coin = coin
        self.registry = registry
        self.b = initial_bit
        self.step = 1
        self.iteration = 1
        self.out: Optional[int] = None
        self.halted = False
        self.halt_clause: Optional[str] = None
        self.halt_iteration: Optional[int] = None
        # final certified bit per peer, sticky once a valid certificate is seen
        self._peer_certs: Dict[int, int] = {}
        # what this operator broadcasts: one message per bit, then from its
        # first halted round one certificate, each built (and signed) once
        self._bit_msgs = tuple(netsim.Message(operator_id, netsim.KIND_BIT, (bit,))
                               for bit in (0, 1))
        self._halt_cert: Optional[netsim.Message] = None

    def _cert_payload(self, operator: int, bit: int) -> bytes:
        return auth.encode("cert", self.instance, operator, bit)

    def make_halt_cert(self) -> netsim.Message:
        tag = self.registry.sign(self.operator_id, self._cert_payload(self.operator_id, self.out))
        return netsim.Message(self.operator_id, netsim.KIND_CERT, (self.out, tag))

    def outgoing(self, round_no: int) -> List[netsim.Outbound]:
        if self.halted:
            if self._halt_cert is None:
                self._halt_cert = self.make_halt_cert()
            return [(netsim.BROADCAST, self._halt_cert)]
        return [(netsim.BROADCAST, self._bit_msgs[self.b])]

    def _tally_bit(self, sender: int, msgs: Sequence[netsim.Message]) -> int:
        if sender in self._peer_certs:
            return self._peer_certs[sender]
        for msg in msgs:
            if msg.kind != netsim.KIND_CERT or len(msg.body) != 2:
                continue
            bit, tag = msg.body
            if bit in (0, 1) and isinstance(tag, bytes) and self.registry.verify(
                sender, self._cert_payload(sender, bit), tag
            ):
                self._peer_certs[sender] = bit
                return bit
        bit_msgs = [m for m in msgs if m.kind == netsim.KIND_BIT]
        if len(bit_msgs) == 1 and bit_msgs[0].body and bit_msgs[0].body[0] in (0, 1):
            return bit_msgs[0].body[0]
        return 0  # absent, duplicated or malformed senders default to 0

    def deliver(self, round_no: int, inbox: Mapping[int, Sequence[netsim.Message]]) -> None:
        """Tally one round's bits; inbox (read-only) lists senders in id order."""
        if self.halted:
            return
        certs, bit_kind = self._peer_certs, netsim.KIND_BIT
        ones = 0
        for sender, msgs in inbox.items():
            if len(msgs) == 1 and sender not in certs:
                msg = msgs[0]
                if msg.kind == bit_kind and msg.body:  # a lone bit is read inline
                    ones += msg.body[0] == 1
                    continue
            ones += self._tally_bit(sender, msgs) == 1
        zeros = len(inbox) - ones
        quorum = self.params.quorum

        if self.step == 1:
            if zeros >= quorum:
                self._halt(0, "1.1")
            elif ones >= quorum:
                self.b = 1
            else:
                self.b = 0
            self.step = 2
        elif self.step == 2:
            if ones >= quorum:
                self._halt(1, "2.1")
            elif zeros >= quorum:
                self.b = 0
            else:
                self.b = 1
            self.step = 3
        else:
            if zeros >= quorum:
                self.b = 0
            elif ones >= quorum:
                self.b = 1
            else:
                self.b = self.coin.flip(self.instance, self.iteration)
            self.step = 1
            self.iteration += 1

    def _halt(self, out: int, clause: str) -> None:
        self.b = out
        self.out = out
        self.halted = True
        self.halt_clause = clause
        self.halt_iteration = self.iteration


def fault_free_messages(n: int, bit: int) -> int:
    """Messages of one run_binary among n honest operators that all hold bit:
    0 is decided in step 1 (one round of n broadcasts to n), 1 in step 2."""
    return (1 + bit) * n * n


@dataclass
class BinaryResult:
    outputs: Dict[int, Optional[int]]
    halt_iterations: Dict[int, Optional[int]]
    halt_clauses: Dict[int, Optional[str]]
    rounds: int
    bus: netsim.RoundBus


def run_binary(params: NetworkParams, initial_bits: Dict[int, int], *,
               instance: str = "bin", seed: int = 0,
               adversary: Optional[netsim.AdversaryStrategy] = None,
               coin: Optional[auth.CommonCoin] = None,
               registry: Optional[auth.KeyRegistry] = None,
               max_iterations: int = MAX_ITERATIONS,
               frame_bytes: Optional[int] = None,
               record_transcript: bool = False,
               exact_rounds: Optional[int] = None) -> BinaryResult:
    """Run one binary agreement instance to completion.

    initial_bits maps every operator id to its input. Honest completion means
    every uncontrolled operator has halted. exact_rounds overrides the stop
    rule and runs precisely that many rounds (halted operators keep
    broadcasting certificates), which is what byte-accounting scenarios use.
    """
    registry = registry or auth.KeyRegistry(sorted(initial_bits), auth.derive_seed(seed, "keys"))
    coin = coin or auth.CommonCoin(auth.derive_seed(seed, "coin"))
    bus = netsim.run_instance(
        initial_bits,
        lambda op, bit: BinaryOperator(op, params, bit, instance, coin, registry),
        params.n_operators, adversary,
        max_rounds=3 * max_iterations if exact_rounds is None else exact_rounds,
        rounds=exact_rounds, seed=seed, frame_bytes=frame_bytes,
        record_transcript=record_transcript)

    machines = bus.participants
    return BinaryResult(
        outputs={op: m.out for op, m in machines.items()},
        halt_iterations={op: m.halt_iteration for op, m in machines.items()},
        halt_clauses={op: m.halt_clause for op, m in machines.items()},
        rounds=bus.round,
        bus=bus,
    )
