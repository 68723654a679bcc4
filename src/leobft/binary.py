"""Iterated binary Byzantine agreement with a common coin.

Each iteration is three lockstep steps. In every step each operator
broadcasts its current bit and tallies exactly N bits, one per operator (its
own included), from that round's inbox alone: a sender's lone bit, or the
bit of its lone valid halt certificate; anything else counts as 0. With q
the quorum of model.quorum:

  step 1: >= q zeros -> decide 0 and halt; >= q ones -> adopt 1;
          otherwise adopt 0.
  step 2: >= q ones  -> decide 1 and halt; >= q zeros -> adopt 0;
          otherwise adopt 1.
  step 3: >= q zeros -> adopt 0; >= q ones -> adopt 1; otherwise
          adopt the shared coin flip for this iteration, then start over.

A halted operator broadcasts a signed halt certificate carrying its decision
every round, so peers read its bit each round without keeping it. A
certified 0 counts as 0, as anything else does, so only a certified 1 is
verified, once per instance: the operators of one instance share one
netsim.RoundMemo, whose lasting table keeps each certificate's verdict.
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
                 instance: str, coin: auth.CommonCoin, registry: auth.KeyRegistry,
                 memo: Optional[netsim.RoundMemo] = None):
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
        # (sender, tag) -> whether sender's halt certificate of a 1 verifies
        self._verdicts: Dict[tuple, bool] = {} if memo is None else memo.lasting
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

    def _certifies_one(self, sender: int, body: tuple) -> bool:
        """Whether body is sender's valid halt certificate of a 1."""
        if len(body) != 2 or type(body[0]) is not int or body[0] != 1 or type(body[1]) is not bytes:
            return False
        key = (sender, body[1])
        valid = self._verdicts.get(key)
        if valid is None:
            valid = self._verdicts[key] = self.registry.verify(
                sender, self._cert_payload(sender, 1), body[1])
        return valid

    def deliver(self, round_no: int, inbox: Mapping[int, Sequence[netsim.Message]]) -> None:
        """Tally one round's bits; inbox (read-only) lists senders in id order."""
        if self.halted:
            return
        bit_kind, cert_kind = netsim.KIND_BIT, netsim.KIND_CERT
        ones = 0
        for sender, msgs in inbox.items():
            if len(msgs) == 1:
                msg = msgs[0]
                if msg.kind == bit_kind:
                    ones += bool(msg.body) and msg.body[0] == 1
                elif msg.kind == cert_kind:
                    ones += self._certifies_one(sender, msg.body)
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
               frame_bytes: Optional[int] = None,
               record_transcript: bool = False) -> BinaryResult:
    """Run one binary agreement instance until every honest operator halts.

    initial_bits maps every operator id to its input. A run that needs more
    than MAX_ITERATIONS iterations (3 rounds each) raises netsim.HarnessError.
    """
    registry = registry or auth.KeyRegistry(sorted(initial_bits), auth.derive_seed(seed, "keys"))
    coin = coin or auth.CommonCoin(auth.derive_seed(seed, "coin"))
    memo = netsim.RoundMemo()
    bus = netsim.run_instance(
        initial_bits,
        lambda op, bit: BinaryOperator(op, params, bit, instance, coin, registry, memo),
        params.n_operators, adversary,
        max_rounds=3 * MAX_ITERATIONS, seed=seed, frame_bytes=frame_bytes,
        record_transcript=record_transcript)

    machines = bus.participants
    return BinaryResult(
        outputs={op: m.out for op, m in machines.items()},
        halt_iterations={op: m.halt_iteration for op, m in machines.items()},
        halt_clauses={op: m.halt_clause for op, m in machines.items()},
        rounds=bus.round,
        bus=bus,
    )
