"""Authentication layer tests: encoding, tags, signer chains, certificates, coin."""

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


class TestSignerChains:
    def test_single_signer_verifies(self, registry):
        msg = auth.make_signed(registry, 2, b"value=9.0")
        assert msg.signers == (2,)
        assert auth.verify_signed(registry, msg)

    def test_extension_appends_and_verifies(self, registry):
        msg = auth.make_signed(registry, 2, b"value=9.0")
        msg = auth.extend_signed(registry, msg, 4)
        msg = auth.extend_signed(registry, msg, 1)
        assert msg.signers == (2, 4, 1)
        assert len(msg.tags) == 3
        assert auth.verify_signed(registry, msg)

    def test_duplicate_signer_rejected(self, registry):
        msg = auth.make_signed(registry, 2, b"v")
        with pytest.raises(ValueError):
            auth.extend_signed(registry, msg, 2)

    def test_tampered_payload_fails(self, registry):
        msg = auth.make_signed(registry, 2, b"value=9.0")
        bad = auth.SignedMessage(b"value=8.0", msg.signers, msg.tags)
        assert not auth.verify_signed(registry, bad)

    def test_dropped_signer_fails(self, registry):
        msg = auth.extend_signed(registry, auth.make_signed(registry, 2, b"v"), 4)
        bad = auth.SignedMessage(msg.payload, (4,), (msg.tags[1],))
        assert not auth.verify_signed(registry, bad)

    def test_reordered_signers_fail(self, registry):
        msg = auth.extend_signed(registry, auth.make_signed(registry, 2, b"v"), 4)
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
            msg = auth.extend_signed(registry, msg, op)
        assert auth.verify_signed(registry, msg)


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
        assert cert.signer_set() == (1, 2, 3)

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
        coin = auth.CommonCoin(5)
        for iteration in range(20):
            bits = {coin.flip("inst", iteration, op) for op in range(1, 11)}
            assert len(bits) == 1

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

    def test_degraded_commonness_can_disagree(self):
        coin = auth.CommonCoin(5, commonness=0.5)
        disagreements = 0
        for iteration in range(200):
            bits = {coin.flip("inst", iteration, op) for op in range(1, 8)}
            if len(bits) > 1:
                disagreements += 1
        assert disagreements > 0

    def test_commonness_bounds_checked(self):
        with pytest.raises(ValueError):
            auth.CommonCoin(5, commonness=1.5)
