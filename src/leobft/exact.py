"""Exact multi-valued agreement via parallel authenticated broadcasts.

Every operator broadcasts its signed measurement; relays append their own
signature, so a message accepted in round k carries exactly k signatures,
starting with the originator's and all distinct. After f+1 rounds each
broadcast slot decides the single recorded value, or the conflict
placeholder when an equivocating originator produced several. All honest
operators end with identical view vectors, which they collapse to one number
with the median (placeholder slots are first replaced by the median of the
decided slots) or, alternatively, with the trimmed-stride average.

An operator records and relays at most two values per originator (Dolev &
Strong, SIAM J. Comput. 1983): two already make the slot the placeholder in
every honest view, so a third is dropped unverified, and a liar that signs N
distinct values costs each honest operator at most two relays of it.

The operators of one instance share one netsim.RoundMemo. Its round table
keeps each relay object's receiver-independent checks and the chain bytes
auth.verify_signed returned for it (None if it failed), so each relay is
verified once however many operators receive it, and each relay of it is
signed from those bytes; its lasting table keeps each payload's parse for
the instance. Verified bytes hold for the registry that gave them, so the
operators sharing a memo must share one registry too, as run_exact builds
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import filterfalse
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from . import auth, netsim
from .approx import averaging_function
from .model import NetworkParams

CONFLICT = None  # placeholder for equivocated or silent broadcast slots
_UNASKED = object()  # a memo entry whose chain auth.verify_signed has not checked yet


def median(values: Sequence[float]) -> float:
    """Median with the even-count convention of the midpoint of the middle pair."""
    if not values:
        raise ValueError("median of an empty sequence")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def fill_conflicts(view: Dict[int, Optional[float]]) -> Dict[int, float]:
    """Replace placeholder slots by the median of the decided slots."""
    decided = [v for v in view.values() if v is not CONFLICT]
    filler = median(decided) if decided else 0.0
    return {op: (v if v is not CONFLICT else filler) for op, v in view.items()}


def aggregate_view(view: Dict[int, Optional[float]], f: int,
                   method: str = "median") -> float:
    """Collapse a view vector to one agreed number.

    method "median" is the default; "trimmed-stride" applies the
    approximate-agreement averaging function to the same filled vector.
    """
    filled = fill_conflicts(view)
    values = [filled[op] for op in sorted(filled)]
    if method == "median":
        return median(values)
    if method == "trimmed-stride":
        return averaging_function(values, f)
    raise ValueError("unknown aggregation method %r" % method)


class ExactOperator:
    """One operator's broadcasts, relays and view.

    Operators built with one netsim.RoundMemo (run_exact gives every
    operator of an instance the same one, and the same registry) check and
    verify each relay object once per round and parse each payload once per
    instance; without one, each operator does its own.
    """

    HALT_KINDS: frozenset = frozenset()

    def __init__(self, operator_id: int, params: NetworkParams,
                 registry: auth.KeyRegistry, initial_value: float, instance: str,
                 memo: Optional[netsim.RoundMemo] = None):
        self.operator_id = operator_id
        self.params = params
        self.registry = registry
        self.initial_value = float(initial_value)
        self.instance = instance
        self.halted = False
        self.view: Optional[Dict[int, Optional[float]]] = None
        self._ids = tuple(params.operator_ids())
        # recorded[origin] = set of values extracted for that originator
        self.recorded: Dict[int, Set[float]] = {op: set() for op in self._ids}
        self._relay_queue: List[auth.SignedMessage] = []
        # (protocol_round, n_signatures) for every accepted message
        self.accepted_chain_lengths: List[Tuple[int, int]] = []
        self._memo = netsim.RoundMemo() if memo is None else memo
        # payload -> _parse_payload(payload); relays repeat a few payloads
        self._parsed: Dict[bytes, Optional[Tuple[int, float]]] = self._memo.lasting

    def _payload(self, origin: int, value: float) -> bytes:
        return auth.encode("usage", self.instance, origin, float(value))

    def _parse_payload(self, payload: bytes) -> Optional[Tuple[int, float]]:
        parts = payload.split(b"|")
        if len(parts) != 4 or parts[0] != b"usage":
            return None
        if parts[1].decode("ascii", "replace") != self.instance:
            return None
        try:
            return int(parts[2]), float(parts[3])
        except ValueError:
            return None

    def _relay(self, msg: netsim.Message,
               k: int) -> Optional[Tuple[auth.SignedMessage, int, float]]:
        """(signed, origin, value) of a round-k relay that passes every check
        but the receiver's own ones, else None."""
        if msg.kind != netsim.KIND_BCAST or len(msg.body) != 1:
            return None
        signed = msg.body[0]
        if not isinstance(signed, auth.SignedMessage):
            return None
        if len(signed.signers) != k:  # round-k messages carry k signatures
            return None
        payload = signed.payload
        try:
            parsed = self._parsed[payload]
        except KeyError:
            parsed = self._parsed[payload] = self._parse_payload(payload)
        if parsed is None:
            return None
        origin, value = parsed
        if origin not in self.recorded or signed.signers[0] != origin:
            return None
        return signed, origin, value

    def make_own_broadcast(self, value: float) -> netsim.Message:
        signed = auth.make_signed(self.registry, self.operator_id,
                                  self._payload(self.operator_id, value))
        return netsim.Message(self.operator_id, netsim.KIND_BCAST, (signed,))

    def outgoing(self, round_no: int) -> List[netsim.Outbound]:
        if round_no == 0:
            return [(netsim.BROADCAST, self.make_own_broadcast(self.initial_value))]
        # one entry per relay, addressed to every peer not yet on its chain
        out: List[netsim.Outbound] = [
            (tuple(filterfalse(signed.signers.__contains__, self._ids)),
             netsim.Message(self.operator_id, netsim.KIND_BCAST, (signed,)))
            for signed in self._relay_queue]
        self._relay_queue = []
        return out

    def deliver(self, round_no: int, inbox: Mapping[int, Sequence[netsim.Message]]) -> None:
        """Accept one round's relays; inbox (read-only) lists senders in id order."""
        if self.halted:
            return
        k = round_no + 1  # protocol rounds are 1-based
        f = self.params.max_faulty
        me = self.operator_id
        recorded = self.recorded
        # id(msg) -> [msg, _relay(msg, k), verify_signed's chain bytes or None, or _UNASKED]
        checked = self._memo.of_round(round_no)
        for msgs in inbox.values():
            for msg in msgs:
                held = checked.get(id(msg))
                if held is None:
                    held = checked[id(msg)] = [msg, self._relay(msg, k), _UNASKED]
                relay = held[1]
                if relay is None:
                    continue
                signed, origin, value = relay
                known = recorded[origin]
                # a known value, or a third one, is dropped whatever its chain,
                # so check it first: two values already make the slot CONFLICT
                if value in known or len(known) >= 2:
                    continue
                chain = held[2]
                if chain is _UNASKED:
                    chain = held[2] = auth.verify_signed(self.registry, signed)
                if chain is None:
                    continue
                known.add(value)
                self.accepted_chain_lengths.append((k, len(signed.signers)))
                if k <= f and me not in signed.signers:
                    self._relay_queue.append(auth.extend_signed(self.registry, signed, me, chain))
        if k == f + 1:
            self.view = {
                op: (next(iter(vals)) if len(vals) == 1 else CONFLICT)
                for op, vals in recorded.items()
            }
            self.halted = True


def fault_free_messages(n: int) -> int:
    """Messages of one run_exact among n honest operators: n broadcasts of n
    copies in the first round, then each operator relays the n-1 other
    originators' values to the n-2 peers not on their chains."""
    return n * n + n * (n - 1) * (n - 2)


@dataclass
class ExactResult:
    views: Dict[int, Dict[int, Optional[float]]]
    outputs: Dict[int, float]
    rounds: int
    accepted_chain_lengths: Dict[int, List[Tuple[int, int]]]
    bus: netsim.RoundBus


def run_exact(params: NetworkParams, initial_values: Dict[int, float], *,
              instance: str = "mv", seed: int = 0,
              adversary: Optional[netsim.AdversaryStrategy] = None,
              registry: Optional[auth.KeyRegistry] = None,
              aggregation: str = "median",
              frame_bytes: Optional[int] = None,
              record_transcript: bool = False) -> ExactResult:
    """Run the N parallel broadcasts until the honest operators halt at round f+1."""
    registry = registry or auth.KeyRegistry(sorted(initial_values), auth.derive_seed(seed, "keys"))
    memo = netsim.RoundMemo()
    bus = netsim.run_instance(
        initial_values,
        lambda op, value: ExactOperator(op, params, registry, value, instance, memo),
        params.n_operators, adversary,
        max_rounds=params.max_faulty + 1, seed=seed,
        frame_bytes=frame_bytes, record_transcript=record_transcript)

    machines = bus.participants
    views = {op: dict(m.view) for op, m in machines.items()}
    outputs = {
        op: aggregate_view(view, params.max_faulty, aggregation)
        for op, view in views.items()
    }
    return ExactResult(
        views=views,
        outputs=outputs,
        rounds=bus.round,
        accepted_chain_lengths={op: list(m.accepted_chain_lengths) for op, m in machines.items()},
        bus=bus,
    )
