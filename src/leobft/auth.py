"""Simulation-grade authentication: keyed tags, signer chains, common coin.

Signatures are keyed BLAKE2b tags. Every operator's key is derived from one
master seed, and the registry holding all keys stands in for a trusted setup.
Unforgeability is by convention: adversary code may only produce tags through
the registry for operators it controls. None of this is real cryptography and
no key ever leaves the process.

Canonical payload encoding (frozen): a payload is built from fields joined by
"|". ints are decimal ASCII, floats are repr() (round-trips exactly), strings
are ASCII without "|", bytes are lowercase hex. Field order is fixed by the
caller and is part of each message format.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple, Union

Field = Union[int, float, str, bytes]

TAG_BYTES = 16


def _field_bytes(part: Field) -> bytes:
    if isinstance(part, bool):  # bool is an int subclass; forbid to stay exact
        raise TypeError("encode bools as ints explicitly")
    if isinstance(part, int):
        return b"%d" % part
    if isinstance(part, float):
        return repr(part).encode("ascii")
    if isinstance(part, str):
        if "|" in part:
            raise ValueError("string fields must not contain '|'")
        return part.encode("ascii")
    if isinstance(part, bytes):
        return part.hex().encode("ascii")
    raise TypeError("cannot encode field of type %s" % type(part).__name__)


def encode(*parts: Field) -> bytes:
    """Canonical payload encoding of a field sequence."""
    return b"|".join(_field_bytes(p) for p in parts)


def derive_seed(root: int, *labels: Field) -> int:
    """Derive a labelled 63-bit sub-seed from a root seed.

    All randomness in a run flows from one root seed through calls like
    derive_seed(root, "observe", operator, region). Distinct label paths give
    independent-looking streams; identical paths give identical streams.
    """
    digest = hashlib.sha256(encode(root, *labels)).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class KeyRegistry:
    """Holds every operator's signing key; shared by all simulated parties."""

    def __init__(self, operator_ids: Sequence[int], master_seed: int):
        self.master_seed = master_seed
        self._keys = {
            op: hashlib.sha256(encode(master_seed, "key", op)).digest()
            for op in operator_ids
        }

    @property
    def operator_ids(self) -> List[int]:
        return sorted(self._keys)

    def sign(self, operator: int, payload: bytes) -> bytes:
        key = self._keys.get(operator)
        if key is None:
            raise KeyError("unknown operator %d" % operator)
        return hashlib.blake2b(payload, key=key, digest_size=TAG_BYTES).digest()

    def verify(self, operator: int, payload: bytes, tag: bytes) -> bool:
        if operator not in self._keys:
            return False
        return self.sign(operator, payload) == tag


@dataclass(frozen=True)
class SignedMessage:
    """A payload with a chain of relay signatures.

    tags[k] covers (payload, signers[:k+1]), so a relay cannot drop or reorder
    earlier signers without breaking every later tag.
    """

    payload: bytes
    signers: Tuple[int, ...]
    tags: Tuple[bytes, ...]

    def canonical_bytes(self) -> bytes:
        parts: List[Field] = [self.payload]
        for op, tag in zip(self.signers, self.tags):
            parts.extend([op, tag])
        return encode(*parts)


def _chain_payload(payload: bytes, signers: Sequence[int]) -> bytes:
    return encode(payload, *signers)


def make_signed(registry: KeyRegistry, signer: int, payload: bytes) -> SignedMessage:
    tag = registry.sign(signer, _chain_payload(payload, [signer]))
    return SignedMessage(payload, (signer,), (tag,))


def extend_signed(registry: KeyRegistry, msg: SignedMessage, signer: int) -> SignedMessage:
    if signer in msg.signers:
        raise ValueError("operator %d already signed this message" % signer)
    signers = msg.signers + (signer,)
    tag = registry.sign(signer, _chain_payload(msg.payload, signers))
    return SignedMessage(msg.payload, signers, msg.tags + (tag,))


def verify_signed(registry: KeyRegistry, msg: SignedMessage) -> bool:
    """Check a full signer chain: non-empty, distinct signers, all tags valid."""
    if not msg.signers or len(msg.signers) != len(msg.tags):
        return False
    if len(set(msg.signers)) != len(msg.signers):
        return False
    for k, (op, tag) in enumerate(zip(msg.signers, msg.tags)):
        if not registry.verify(op, _chain_payload(msg.payload, msg.signers[: k + 1]), tag):
            return False
    return True


@dataclass(frozen=True)
class QuorumCertificate:
    """Digest plus signed votes from at least 2f+1 distinct operators."""

    digest: bytes
    votes: Tuple[Tuple[int, bytes], ...]  # (operator, tag) sorted by operator

    def signer_set(self) -> Tuple[int, ...]:
        return tuple(sorted(op for op, _ in self.votes))


def vote_payload(digest: bytes, context: bytes) -> bytes:
    return encode("vote", context, digest)


def make_certificate(digest: bytes, votes: Mapping[int, bytes]) -> QuorumCertificate:
    return QuorumCertificate(digest, tuple(sorted(votes.items())))


def verify_certificate(
    registry: KeyRegistry, cert: QuorumCertificate, context: bytes, quorum: int
) -> bool:
    """A certificate is valid iff it has >= quorum distinct valid signers."""
    payload = vote_payload(cert.digest, context)
    seen = set()
    for op, tag in cert.votes:
        if op in seen:
            return False
        if not registry.verify(op, payload, tag):
            return False
        seen.add(op)
    return len(seen) >= quorum


class CommonCoin:
    """Deterministic shared coin: a keyed PRF of (instance, iteration).

    With commonness == 1.0 (the default) every operator sees the same bit,
    which strengthens the usual at-least-2/3 commonness guarantee. Setting
    commonness = p < 1 makes each operator's flip independently fall back to
    a private bit with probability 1 - p, for adversarial-coin experiments.
    """

    def __init__(self, shared_seed: int, commonness: float = 1.0):
        if not 0.0 <= commonness <= 1.0:
            raise ValueError("commonness must be in [0, 1]")
        self._key = hashlib.sha256(encode(shared_seed, "coin")).digest()
        self.commonness = commonness

    def _digest(self, *parts: Field) -> bytes:
        return hashlib.blake2b(encode(*parts), key=self._key, digest_size=9).digest()

    def flip(self, instance: str, iteration: int, operator: int = 0) -> int:
        common = self._digest(instance, iteration)[0] & 1
        if self.commonness >= 1.0:
            return common
        probe = self._digest(instance, iteration, "probe", operator)
        u = int.from_bytes(probe[1:9], "big") / 2.0**64
        if u < self.commonness:
            return common
        return self._digest(instance, iteration, "private", operator)[0] & 1
