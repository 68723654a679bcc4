"""Simulation-grade authentication: keyed tags, signer chains, common coin.

Signatures are keyed BLAKE2b tags. Every operator's key is derived from one
master seed, and the registry holding all keys stands in for a trusted setup.
Unforgeability is by convention: adversary code may only produce tags through
the registry for operators it controls. None of this is real cryptography and
no key ever leaves the process.

The module keeps no state beyond keys. verify_signed returns the bytes a
verified chain's last tag covers, and a relay passes them to extend_signed,
so what a check learned lives with the caller that asked for it.

Canonical payload encoding (frozen): a payload is built from fields joined by
"|". ints are decimal ASCII, floats are repr() (round-trips exactly), strings
are ASCII without "|", bytes are lowercase hex, and a nested object is its
canonical_bytes(), hexed as bytes are. Field order is fixed by the caller and
is part of each message format.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

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
    if isinstance(part, str):
        if "|" in part:
            raise ValueError("string fields must not contain '|'")
        return part.encode("ascii")
    if hasattr(part, "canonical_bytes"):  # a nested object, before any subclass rule
        return part.canonical_bytes().hex().encode("ascii")
    if isinstance(part, bool):  # bool is an int subclass; forbid to stay exact
        raise TypeError("encode bools as ints explicitly")
    if isinstance(part, int):
        return b"%d" % part
    if isinstance(part, float):  # numpy's float64 repr() is "np.float64(x)"
        return repr(float(part)).encode("ascii")
    if isinstance(part, bytes):
        return part.hex().encode("ascii")
    raise TypeError("cannot encode field of type %s" % type(part).__name__)


def _field_size(part: Field) -> int:
    """len(_field_bytes(part)), built only for the types whose length needs it."""
    kind = type(part)  # _field_bytes's exact-type fast paths, sized without building
    if kind is int:
        return len(b"%d" % part)
    if kind is float:
        return len(repr(part))
    if kind is bytes:
        return 2 * len(part)
    if not isinstance(part, str) and hasattr(part, "canonical_bytes"):  # as in _field_bytes
        sized = getattr(part, "encoded_size", None)
        return 2 * (sized() if sized is not None else len(part.canonical_bytes()))
    return len(_field_bytes(part))


def encode(*parts: Field) -> bytes:
    """Canonical payload encoding of a field sequence."""
    return b"|".join(map(_field_bytes, parts))


def encoded_size(*parts: Field) -> int:
    """len(encode(*parts)), summed from the field sizes without encoding them."""
    if not parts:
        return 0
    return sum(map(_field_size, parts)) + len(parts) - 1  # the "|" separators


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
    building a registry over range(1, n + 1) costs the same for any n. The
    registry holds its master seed, its members and their keys, nothing else.
    """

    def __init__(self, operator_ids: Sequence[int], master_seed: int):
        self.master_seed = master_seed
        self._members = operator_ids if isinstance(operator_ids, range) else frozenset(operator_ids)
        self._keys: Dict[int, bytes] = {}

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


@dataclass(frozen=True, init=False)
class SignedMessage:
    """A payload with a chain of relay signatures.

    tags[k] covers (payload, signers[:k+1]), so a relay cannot drop or reorder
    earlier signers without breaking every later tag.

    Built as netsim.Message is: a frozen dataclass whose __init__ writes the
    fields straight into the instance dict instead of calling
    object.__setattr__ per field, with the dataclass's own equality, hash,
    repr, pickling and dataclasses.replace.
    """

    payload: bytes
    signers: Tuple[int, ...]
    tags: Tuple[bytes, ...]

    def __init__(self, payload: bytes, signers: Tuple[int, ...],
                 tags: Tuple[bytes, ...]) -> None:
        fields = self.__dict__
        fields["payload"] = payload
        fields["signers"] = signers
        fields["tags"] = tags

    def _fields(self) -> List[Field]:
        parts: List[Field] = [self.payload]
        for op, tag in zip(self.signers, self.tags):
            parts.extend([op, tag])
        return parts

    def canonical_bytes(self) -> bytes:
        return encode(*self._fields())

    def encoded_size(self) -> int:
        """len(canonical_bytes()), summed from the field sizes; kept once summed."""
        size = self.__dict__.get("_size")
        if size is None:  # frozen: the cache goes straight into the instance dict
            size = self.__dict__["_size"] = encoded_size(*self._fields())
        return size


def make_signed(registry: KeyRegistry, signer: int, payload: bytes) -> SignedMessage:
    """payload signed by signer, keeping its encoded size."""
    tag = registry.sign(signer, encode(payload, signer))
    signed = SignedMessage(payload, (signer,), (tag,))
    signed.__dict__["_size"] = (
        _field_size(payload) + _field_size(signer) + _field_size(tag) + 2)
    return signed


def extend_signed(registry: KeyRegistry, msg: SignedMessage, signer: int,
                  chain: Optional[bytes]) -> SignedMessage:
    """msg with signer's tag appended, keeping its encoded size: msg's plus the
    new fields'. chain is what verify_signed(registry, msg) returned, the bytes
    msg's last tag covers; the new tag covers them plus "|signer", so only a
    verified chain is extended and it is never encoded again."""
    if chain is None:
        raise ValueError("only a verified chain can be extended")
    if signer in msg.signers:
        raise ValueError("operator %d already signed this message" % signer)
    signer_bytes = _field_bytes(signer)
    tag = registry.sign(signer, chain + b"|" + signer_bytes)
    signed = SignedMessage(msg.payload, msg.signers + (signer,), msg.tags + (tag,))
    # the two new fields and their "|"s: the signer as encoded, the tag hexed
    signed.__dict__["_size"] = msg.encoded_size() + len(signer_bytes) + 2 * len(tag) + 2
    return signed


def verify_signed(registry: KeyRegistry, msg: SignedMessage) -> Optional[bytes]:
    """Check a full signer chain: non-empty, distinct signers, all tags valid.

    Returns encode(payload, *signers), the bytes the last tag covers, when
    every tag verifies, else None. Each tag's bytes grow by "|signer" from the
    ones before it, built from the message's fields; nothing a message object
    carries is trusted as signed bytes.
    """
    signers, tags = msg.signers, msg.tags
    if not signers or len(signers) != len(tags):
        return None
    if len(set(signers)) != len(signers):
        return None
    chain = _field_bytes(msg.payload)
    for signer, tag in zip(signers, tags):
        chain += b"|" + _field_bytes(signer)
        if not registry.verify(signer, chain, tag):
            return None
    return chain


@dataclass(frozen=True)
class QuorumCertificate:
    """Digest plus signed votes from a quorum (model.quorum) of distinct operators."""

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
