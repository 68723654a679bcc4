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
from typing import Dict, List, Mapping, Sequence, Set, Tuple, Union

Field = Union[int, float, str, bytes]

TAG_BYTES = 16


def _field_bytes(part: Field) -> bytes:
    kind = type(part)  # exact types first: the common fields skip the ladder
    if kind is int:
        return b"%d" % part
    if kind is float:
        return repr(part).encode("ascii")
    if kind is bytes:
        return part.hex().encode("ascii")
    if isinstance(part, bool):  # bool is an int subclass; forbid to stay exact
        raise TypeError("encode bools as ints explicitly")
    if isinstance(part, int):
        return b"%d" % part
    if isinstance(part, float):  # numpy's float64 repr() is "np.float64(x)"
        return repr(float(part)).encode("ascii")
    if isinstance(part, str):
        if "|" in part:
            raise ValueError("string fields must not contain '|'")
        return part.encode("ascii")
    if isinstance(part, bytes):
        return part.hex().encode("ascii")
    raise TypeError("cannot encode field of type %s" % type(part).__name__)


def encode(*parts: Field) -> bytes:
    """Canonical payload encoding of a field sequence."""
    return b"|".join(map(_field_bytes, parts))


def derive_seed(root: int, *labels: Field) -> int:
    """Derive a labelled 63-bit sub-seed from a root seed.

    All randomness in a run flows from one root seed through calls like
    derive_seed(root, "observe", event, operator). Distinct label paths give
    independent-looking streams; identical paths give identical streams.
    """
    digest = hashlib.sha256(encode(root, *labels)).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class KeyRegistry:
    """Holds every operator's signing key; shared by all simulated parties.

    A key is derived the first time its operator signs or verifies, so
    building a registry over range(1, n + 1) costs the same for any n.
    """

    def __init__(self, operator_ids: Sequence[int], master_seed: int):
        self.master_seed = master_seed
        self._members = operator_ids if isinstance(operator_ids, range) else frozenset(operator_ids)
        self._keys: Dict[int, bytes] = {}
        # (payload, signers[:k], tags[:k]) of every chain prefix that verified
        self._verified_prefixes: Set[tuple] = set()

    def _derive_key(self, operator: int) -> bytes:
        if operator not in self._members:
            raise KeyError("unknown operator %d" % operator)
        key = self._keys[operator] = hashlib.sha256(
            encode(self.master_seed, "key", int(operator))).digest()
        return key

    def sign(self, operator: int, payload: bytes) -> bytes:
        key = self._keys.get(operator) or self._derive_key(operator)
        return hashlib.blake2b(payload, key=key, digest_size=TAG_BYTES).digest()

    def verify(self, operator: int, payload: bytes, tag: bytes) -> bool:
        if operator not in self._members:
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
    """Check a full signer chain: non-empty, distinct signers, all tags valid.

    Only the tags after the longest prefix this registry has already verified
    are checked. A cached prefix matches on its payload, signers and every one
    of its tags, so an altered tag never hits the cache and is checked anew.
    """
    signers, tags, payload = msg.signers, msg.tags, msg.payload
    if not signers or len(signers) != len(tags):
        return False
    if len(set(signers)) != len(signers):
        return False
    verified = registry._verified_prefixes
    cached = len(signers)
    while cached and (payload, signers[:cached], tags[:cached]) not in verified:
        cached -= 1
    for k in range(cached + 1, len(signers) + 1):
        prefix = signers[:k]
        if not registry.verify(prefix[-1], _chain_payload(payload, prefix), tags[k - 1]):
            return False
        verified.add((payload, prefix, tags[:k]))
    return True


@dataclass(frozen=True)
class QuorumCertificate:
    """Digest plus signed votes from at least 2f+1 distinct operators."""

    digest: bytes
    votes: Tuple[Tuple[int, bytes], ...]  # (operator, tag) sorted by operator


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

    Every operator sees the same bit, which is stronger than the usual
    common-coin guarantee of the same bit with probability at least 2/3.
    """

    def __init__(self, shared_seed: int):
        self._key = hashlib.sha256(encode(shared_seed, "coin")).digest()

    def flip(self, instance: str, iteration: int) -> int:
        # blake2b's output depends on digest_size: 9 keeps every recorded bit
        digest = hashlib.blake2b(encode(instance, iteration), key=self._key, digest_size=9)
        return digest.digest()[0] & 1
