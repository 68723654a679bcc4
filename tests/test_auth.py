"""Authentication layer tests: encoding, tags, signer chains, certificates, coin."""

import enum
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leobft import auth


@pytest.fixture
def registry():
    return auth.KeyRegistry(range(1, 5), master_seed=2024)


class TestEncode:
    def test_field_types(self):
        assert auth.encode(7, -3) == b"7|-3"
        assert auth.encode(0.5) == b"0.5"
        assert auth.encode("abc", b"\x01\xff") == b"abc|01ff"

    def test_float_subclass_encodes_as_its_float(self):
        # numpy's repr() is "np.float64(0.5)"; the frozen format is the float's repr()
        assert auth.encode(np.float64(0.5)) == b"0.5"

    def test_float_repr_roundtrips(self):
        x = 0.8199079698355657
        assert float(auth.encode(x).decode()) == x

    def test_rejects_bools_and_separator(self):
        with pytest.raises(TypeError):
            auth.encode(True)
        with pytest.raises(ValueError):
            auth.encode("a|b")
        with pytest.raises(TypeError):
            auth.encode([1, 2])

    def test_field_boundaries_are_unambiguous(self):
        # ints never contain '|' and bytes go to hex, so joining is injective
        assert auth.encode(12, 3) != auth.encode(1, 23)
        assert auth.encode(b"|") == b"7c"


def _ladder_field_bytes(part):
    # the isinstance ladder encode used before its exact-type fast path
    if isinstance(part, bool):
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


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 22


class _Float(float):
    pass


_FIELDS = st.one_of(
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    st.binary(max_size=8),
    st.text(max_size=6),
    st.text(alphabet="ab|", max_size=4),
    st.booleans(),
    st.sampled_from(list(_Level)),
    st.floats(allow_nan=True).map(_Float),
)


def _outcome(fn, parts):
    try:
        return fn(parts)
    except Exception as err:  # the exception type is part of the contract
        return type(err)


class TestEncodeParity:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_FIELDS, max_size=4))
    def test_matches_the_isinstance_ladder(self, parts):
        ladder = _outcome(lambda ps: b"|".join(_ladder_field_bytes(p) for p in ps), parts)
        assert _outcome(lambda ps: auth.encode(*ps), parts) == ladder

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_FIELDS | st.floats().map(np.float64)
                    | st.sampled_from([10**40, -10**40, np.float64(-0.0), b"", ""]),
                    max_size=4))
    def test_encoded_size_is_the_encoded_length(self, parts):
        assert (_outcome(lambda ps: auth.encoded_size(*ps), parts)
                == _outcome(lambda ps: len(auth.encode(*ps)), parts))


class TestDeriveSeed:
    def test_deterministic_and_labelled(self):
        a = auth.derive_seed(1, "observe", 0, 1)
        assert a == auth.derive_seed(1, "observe", 0, 1)
        assert a != auth.derive_seed(1, "observe", 0, 2)
        assert a != auth.derive_seed(2, "observe", 0, 1)

    def test_fits_in_63_bits(self):
        for root in range(50):
            assert 0 <= auth.derive_seed(root, "x") < 2**63


class TestKeyRegistry:
    def test_sign_verify_roundtrip(self, registry):
        tag = registry.sign(1, b"hello")
        assert len(tag) == auth.TAG_BYTES
        assert registry.verify(1, b"hello", tag)

    def test_wrong_signer_or_payload_fails(self, registry):
        tag = registry.sign(1, b"hello")
        assert not registry.verify(2, b"hello", tag)
        assert not registry.verify(1, b"hellp", tag)
        assert not registry.verify(99, b"hello", tag)

    def test_unknown_signer_cannot_sign(self, registry):
        with pytest.raises(KeyError):
            registry.sign(99, b"payload")

    def test_same_seed_same_keys(self):
        r1 = auth.KeyRegistry(range(1, 5), 7)
        r2 = auth.KeyRegistry(range(1, 5), 7)
        tag = r1.sign(3, b"x")
        assert r2.verify(3, b"x", tag)


    def test_keys_do_not_depend_on_the_id_container(self):
        tag = auth.KeyRegistry([3, 1, 2], 7).sign(3, b"x")
        assert auth.KeyRegistry(range(1, 4), 7).verify(3, b"x", tag)

    def test_huge_operator_range_derives_keys_on_use(self):
        n = 10**12
        registry = auth.KeyRegistry(range(1, n + 1), 7)
        tag = registry.sign(n, b"x")
        assert registry.verify(n, b"x", tag)
        assert not registry.verify(n + 1, b"x", tag)
        with pytest.raises(KeyError):
            registry.sign(0, b"x")


def _relay(registry, msg, signer):
    """msg extended by signer as a relay extends it: from the bytes it verified."""
    return auth.extend_signed(registry, msg, signer, auth.verify_signed(registry, msg))


class TestSignerChains:
    def test_single_signer_verifies(self, registry):
        msg = auth.make_signed(registry, 2, b"value=9.0")
        assert msg.signers == (2,)
        assert auth.verify_signed(registry, msg)

    def test_extension_appends_and_verifies(self, registry):
        msg = auth.make_signed(registry, 2, b"value=9.0")
        msg = _relay(registry, msg, 4)
        msg = _relay(registry, msg, 1)
        assert msg.signers == (2, 4, 1)
        assert len(msg.tags) == 3
        assert auth.verify_signed(registry, msg)

    def test_duplicate_signer_rejected(self, registry):
        msg = auth.make_signed(registry, 2, b"v")
        with pytest.raises(ValueError):
            _relay(registry, msg, 2)

    def test_unverified_chain_not_extended(self, registry):
        msg = auth.make_signed(registry, 2, b"v")
        with pytest.raises(ValueError):
            auth.extend_signed(registry, msg, 4, None)
        forged = auth.SignedMessage(msg.payload, msg.signers, (bytes(auth.TAG_BYTES),))
        with pytest.raises(ValueError):
            _relay(registry, forged, 4)

    def test_extension_tag_covers_the_whole_chain(self, registry):
        msg = _relay(registry, auth.make_signed(registry, 2, b"value=9.0"), 4)
        extended = auth.extend_signed(registry, msg, 1, auth.verify_signed(registry, msg))
        assert extended.tags[-1] == registry.sign(1, auth.encode(msg.payload, 2, 4, 1))
        assert extended.tags[:-1] == msg.tags

    def test_tampered_payload_fails(self, registry):
        msg = auth.make_signed(registry, 2, b"value=9.0")
        bad = auth.SignedMessage(b"value=8.0", msg.signers, msg.tags)
        assert not auth.verify_signed(registry, bad)

    def test_dropped_signer_fails(self, registry):
        msg = _relay(registry, auth.make_signed(registry, 2, b"v"), 4)
        bad = auth.SignedMessage(msg.payload, (4,), (msg.tags[1],))
        assert not auth.verify_signed(registry, bad)

    def test_reordered_signers_fail(self, registry):
        msg = _relay(registry, auth.make_signed(registry, 2, b"v"), 4)
        bad = auth.SignedMessage(msg.payload, (4, 2), msg.tags)
        assert not auth.verify_signed(registry, bad)

    def test_forged_duplicate_chain_fails(self, registry):
        msg = auth.make_signed(registry, 2, b"v")
        bad = auth.SignedMessage(msg.payload, (2, 2), (msg.tags[0], msg.tags[0]))
        assert not auth.verify_signed(registry, bad)

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=4, unique=True))
    @settings(max_examples=50, deadline=None)
    def test_any_distinct_chain_verifies(self, signers):
        registry = auth.KeyRegistry(range(1, 5), 11)
        msg = auth.make_signed(registry, signers[0], b"p")
        for op in signers[1:]:
            msg = _relay(registry, msg, op)
        assert auth.verify_signed(registry, msg)


class TestChainEncoding:
    """Chain payloads and sizes built one signer at a time equal the ones
    encoded whole, for chains built here and for bare ones built elsewhere."""

    N = 10

    def _check(self, registry, msg):
        payload, signers, tags = msg.payload, msg.signers, msg.tags
        bare = auth.SignedMessage(payload, signers, tags)  # nothing kept on it
        for signed in (msg, bare):
            assert signed.encoded_size() == len(signed.canonical_bytes())
        assert tags[-1] == registry.sign(signers[-1], auth.encode(payload, *signers))
        # the bytes the last tag covers, grown one signer at a time
        fresh = auth.KeyRegistry(range(1, self.N + 1), registry.master_seed)
        assert auth.verify_signed(fresh, bare) == auth.encode(payload, *signers)

    def test_every_chain_length_up_to_n(self):
        registry = auth.KeyRegistry(range(1, self.N + 1), 5)
        msg = auth.make_signed(registry, 3, auth.encode("usage", "mv", 3, -0.0))
        self._check(registry, msg)
        for op in (7, 1, 10, 2, 9, 4, 8, 5, 6):
            msg = _relay(registry, msg, op)
            self._check(registry, msg)
        assert len(msg.signers) == self.N

    @given(st.binary(max_size=40),
           st.lists(st.integers(1, N), min_size=1, max_size=N, unique=True))
    @settings(max_examples=100, deadline=None)
    def test_any_chain(self, payload, signers):
        registry = auth.KeyRegistry(range(1, self.N + 1), 6)
        msg = auth.make_signed(registry, signers[0], payload)
        for op in signers[1:]:
            msg = _relay(registry, msg, op)
        self._check(registry, msg)


def _genuine_chain(registry, signers=(2, 4, 1, 3)):
    msg = auth.make_signed(registry, signers[0], b"usage|inst|2|5.0")
    for op in signers[1:]:
        msg = _relay(registry, msg, op)
    return msg


def _variant(msg, length, altered=None):
    """The first `length` links of msg, with the tag at `altered` bit-flipped."""
    tags = list(msg.tags[:length])
    if altered is not None:
        tags[altered] = bytes([tags[altered][0] ^ 1]) + tags[altered][1:]
    return auth.SignedMessage(msg.payload, msg.signers[:length], tuple(tags))


class TestChainVerification:
    def test_altered_tag_rejected_after_genuine_chain_verified(self, registry):
        msg = _genuine_chain(registry)
        assert auth.verify_signed(registry, msg)
        for length in range(1, len(msg.signers) + 1):
            for altered in range(length):
                assert not auth.verify_signed(registry, _variant(msg, length, altered))
        assert auth.verify_signed(registry, msg)

    def test_chain_payload_comes_from_the_message_fields(self, registry):
        # a relay whose tags were made for other fields fails, whatever object
        # carries them: the bytes checked are derived from payload and signers
        msg = _genuine_chain(registry, (2, 4))
        assert auth.verify_signed(registry, msg)
        for bad in (auth.SignedMessage(b"other", msg.signers, msg.tags),
                    auth.SignedMessage(msg.payload, (2, 3), msg.tags)):
            assert auth.verify_signed(registry, bad) is None
        extended = _relay(registry, msg, 1)
        assert extended.tags[-1] == registry.sign(1, auth.encode(msg.payload, 2, 4, 1))

    def test_cached_chain_rejected_under_another_master_seed(self, registry):
        msg = _genuine_chain(registry)
        assert auth.verify_signed(registry, msg)
        other = auth.KeyRegistry(range(1, 5), registry.master_seed + 1)
        for length in range(1, len(msg.signers) + 1):
            assert not auth.verify_signed(other, _variant(msg, length))

    def test_every_call_checks_every_tag_in_signer_order(self, registry, monkeypatch):
        msg = _genuine_chain(registry, (2, 4, 1))
        checked = []
        verify = registry.verify
        monkeypatch.setattr(registry, "verify", lambda op, payload, tag: (
            checked.append(op) or verify(op, payload, tag)))
        for _ in range(2):
            chain = auth.verify_signed(registry, msg)
            assert chain is not None
            assert checked == [2, 4, 1]
            checked.clear()
        assert auth.verify_signed(registry, auth.extend_signed(registry, msg, 3, chain))
        assert checked == [2, 4, 1, 3]

    @given(st.lists(st.tuples(st.integers(1, 4), st.integers(-1, 3)), max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_warm_registry_agrees_with_a_fresh_one(self, variants):
        warm = auth.KeyRegistry(range(1, 5), 2024)
        msg = _genuine_chain(warm)
        for length, altered in variants:
            variant = _variant(msg, length, altered if 0 <= altered < length else None)
            fresh = auth.KeyRegistry(range(1, 5), 2024)
            assert auth.verify_signed(warm, variant) == auth.verify_signed(fresh, variant)


class TestQuorumCertificate:
    def test_enough_valid_votes(self, registry):
        digest = b"\x01" * 32
        context = b"ctx"
        votes = {
            op: registry.sign(op, auth.vote_payload(digest, context))
            for op in (1, 2, 3)
        }
        cert = auth.make_certificate(digest, votes)
        assert auth.verify_certificate(registry, cert, context, quorum=3)
        assert [op for op, _ in cert.votes] == [1, 2, 3]

    def test_below_quorum_fails(self, registry):
        digest = b"\x01" * 32
        context = b"ctx"
        votes = {
            op: registry.sign(op, auth.vote_payload(digest, context))
            for op in (1, 2)
        }
        cert = auth.make_certificate(digest, votes)
        assert not auth.verify_certificate(registry, cert, context, quorum=3)

    def test_duplicate_votes_do_not_count_twice(self, registry):
        digest = b"\x02" * 32
        context = b"ctx"
        tag = registry.sign(1, auth.vote_payload(digest, context))
        cert = auth.QuorumCertificate(digest, ((1, tag), (1, tag), (1, tag)))
        assert not auth.verify_certificate(registry, cert, context, quorum=3)

    def test_wrong_context_fails(self, registry):
        digest = b"\x03" * 32
        votes = {
            op: registry.sign(op, auth.vote_payload(digest, b"ctx-a"))
            for op in (1, 2, 3)
        }
        cert = auth.make_certificate(digest, votes)
        assert not auth.verify_certificate(registry, cert, b"ctx-b", quorum=3)


class TestCommonCoin:
    def test_every_operator_sees_the_same_bit(self):
        # the flip reads only (instance, iteration): no operator input
        coin = auth.CommonCoin(5)
        assert list(inspect.signature(coin.flip).parameters) == ["instance", "iteration"]

    def test_bits_are_roughly_balanced(self):
        coin = auth.CommonCoin(5)
        n = 10000
        ones = sum(coin.flip("freq", i) for i in range(n))
        assert 0.45 <= ones / n <= 0.55

    def test_deterministic_across_instances(self):
        a = auth.CommonCoin(5)
        b = auth.CommonCoin(5)
        assert [a.flip("x", i) for i in range(50)] == [b.flip("x", i) for i in range(50)]
        assert [a.flip("x", i) for i in range(50)] != [a.flip("y", i) for i in range(50)]
