"""Binary agreement tests: halting clauses, agreement, validity, faults."""

import itertools

import pytest

from leobft import auth, binary, netsim
from leobft.model import NetworkParams
from leobft.netsim import AdversaryStrategy


def make_params(n=4, f=1):
    return NetworkParams(n, f, 0.05, zeta=0.1, alpha=0.5, rssi_threshold=0.5)


def honest_set(params, adversary):
    controlled = adversary.controlled if adversary else frozenset()
    return [op for op in params.operator_ids() if op not in controlled]


def assert_agreement_and_validity(params, bits, result, adversary=None):
    honest = honest_set(params, adversary)
    outs = {result.outputs[op] for op in honest}
    assert len(outs) == 1 and None not in outs, "honest outputs disagree: %r" % outs
    decided = outs.pop()
    honest_bits = {bits[op] for op in honest}
    if len(honest_bits) == 1:
        assert decided == honest_bits.pop()
    return decided


def operators(*ids, memo=None):
    """N=4 BinaryOperators of one instance, one registry and one coin, all holding 1."""
    params = make_params()
    registry = auth.KeyRegistry(params.operator_ids(), 9)
    coin = auth.CommonCoin(1)
    return [binary.BinaryOperator(op, params, 1, "inst", coin, registry, memo) for op in ids]


def bit(op, *body):
    return netsim.Message(op, netsim.KIND_BIT, body)


def read_bit(msgs):
    """The bit a fresh N=4 operator reads for peer 2 from msgs: beside two ones
    and a zero, peer 2's 1 makes the quorum of ones that step 1 adopts."""
    me, = operators(1)
    me.deliver(0, {1: [bit(1, 1)], 2: msgs, 3: [bit(3, 1)], 4: [bit(4, 0)]})
    assert not me.halted
    return me.b


class TestFaultFree:
    def test_unanimous_one_halts_first_iteration_clause_21(self):
        params = make_params()
        result = binary.run_binary(params, {op: 1 for op in params.operator_ids()}, seed=1)
        assert all(v == 1 for v in result.outputs.values())
        assert all(v == 1 for v in result.halt_iterations.values())
        assert all(v == "2.1" for v in result.halt_clauses.values())

    def test_unanimous_zero_halts_first_iteration_clause_11(self):
        params = make_params()
        result = binary.run_binary(params, {op: 0 for op in params.operator_ids()}, seed=1)
        assert all(v == 0 for v in result.outputs.values())
        assert all(v == 1 for v in result.halt_iterations.values())
        assert all(v == "1.1" for v in result.halt_clauses.values())

    def test_all_mixed_inputs_agree(self):
        params = make_params(4, 1)
        ids = list(params.operator_ids())
        for bits_tuple in itertools.product((0, 1), repeat=4):
            bits = dict(zip(ids, bits_tuple))
            result = binary.run_binary(params, bits, seed=5)
            assert_agreement_and_validity(params, bits, result)

    def test_supermajority_of_ones_decides_one(self):
        # 2f+1 ones among honest operators force 1 regardless of the coin
        params = make_params(4, 1)
        bits = {1: 1, 2: 1, 3: 1, 4: 0}
        result = binary.run_binary(params, bits, seed=3)
        assert all(v == 1 for v in result.outputs.values())

    def test_output_bit_was_somebody_elses_input(self):
        params = make_params(7, 2)
        ids = list(params.operator_ids())
        for seed in range(20):
            bits = {op: (op + seed) % 2 for op in ids}
            result = binary.run_binary(params, bits, seed=seed)
            decided = assert_agreement_and_validity(params, bits, result)
            assert decided in set(bits.values())

    def test_larger_network_sizes(self):
        for n, f in [(4, 1), (7, 2), (10, 3)]:
            params = make_params(n, f)
            bits = {op: op % 2 for op in params.operator_ids()}
            result = binary.run_binary(params, bits, seed=n)
            assert_agreement_and_validity(params, bits, result)


class TestHaltMechanics:
    def test_halted_operator_broadcasts_certificates(self):
        params = make_params()
        bits = {op: 1 for op in params.operator_ids()}
        result = binary.run_binary(params, bits, seed=1)
        # the run stops once everyone halts (round 2); from then on every
        # round's traffic is a certificate
        assert result.rounds == 2
        machine = result.bus.participants[1]
        assert machine.halted
        for round_no in range(2, 7):
            outgoing = machine.outgoing(round_no)
            assert outgoing and all(msg.kind == netsim.KIND_CERT for _, msg in outgoing)

    def test_certified_bit_counts_for_its_round_only(self):
        # a certificate gives its sender's bit in the round it arrives; the
        # next round reads that sender's plain bit again
        me, peer = operators(1, 2)
        peer._halt(1, "2.1")
        me.deliver(0, {1: [bit(1, 1)], 2: [peer.make_halt_cert()], 3: [bit(3, 1)], 4: ()})
        assert (me.step, me.b, me.halted) == (2, 1, False)  # three ones adopt 1
        me.deliver(1, {1: [bit(1, 1)], 2: [bit(2, 0)], 3: [bit(3, 1)], 4: [bit(4)]})
        # two ones and a 0 from peer 2: no quorum either way, adopt 1
        assert (me.step, me.b, me.halted) == (3, 1, False)

    def test_forged_certificate_is_ignored(self):
        bad = netsim.Message(2, netsim.KIND_CERT, (1, b"\x00" * auth.TAG_BYTES))
        assert read_bit([bad]) == 0

    @pytest.mark.parametrize("body", [(1,), (1, "tag"), (1, b"t", 0)])
    def test_malformed_certificate_counts_zero(self, body):
        assert read_bit([netsim.Message(2, netsim.KIND_CERT, body)]) == 0

    def test_valid_certificate_read_only_when_lone(self):
        _, peer = operators(1, 2)
        peer._halt(1, "2.1")
        cert = peer.make_halt_cert()
        assert read_bit([cert]) == 1
        # a bool is not a bit, even with the tag of a certified 1
        assert read_bit([netsim.Message(2, netsim.KIND_CERT, (True, cert.body[1]))]) == 0
        assert read_bit([cert, cert]) == 0
        assert read_bit([cert, bit(2, 1)]) == 0
        assert read_bit([bit(2, 1)]) == 1

    def test_duplicate_plain_bits_default_to_zero(self):
        assert read_bit([bit(2, 1), bit(2, 1)]) == 0
        assert read_bit([bit(2)]) == 0  # a bit message without a body

    def test_split_inputs_converge_without_the_coin(self):
        # a fault-free 2-2 split resolves through the step-1 else branch
        # (everyone adopts 0), so even a broken coin cannot stall it
        params = make_params()

        class BrokenCoin(auth.CommonCoin):
            def flip(self, instance, iteration, operator=0):
                return operator % 2

        bits = {1: 0, 2: 1, 3: 0, 4: 1}
        result = binary.run_binary(params, bits, seed=1, coin=BrokenCoin(1))
        assert set(result.outputs.values()) == {0}

    def test_iteration_cap_raises(self, monkeypatch):
        params = make_params()
        bits = {1: 0, 2: 1, 3: 0, 4: 1}
        monkeypatch.setattr(binary, "MAX_ITERATIONS", 0)
        with pytest.raises(netsim.HarnessError, match="round cap 0 exceeded"):
            binary.run_binary(params, bits, seed=1)


class TestAdversaries:
    @pytest.mark.parametrize("behavior", netsim.BEHAVIORS)
    def test_single_fault_agreement(self, behavior):
        params = make_params(4, 1)
        adversary = AdversaryStrategy(behavior, frozenset({2}))
        for seed in range(30):
            bits = {1: seed % 2, 2: 1, 3: (seed // 2) % 2, 4: 1}
            result = binary.run_binary(params, bits, seed=seed, adversary=adversary)
            assert_agreement_and_validity(params, bits, result, adversary)

    @pytest.mark.parametrize("behavior", netsim.BEHAVIORS)
    def test_f_faults_at_n7(self, behavior):
        params = make_params(7, 2)
        adversary = AdversaryStrategy(behavior, frozenset({3, 6}))
        for seed in range(15):
            bits = {op: (op * seed) % 2 for op in params.operator_ids()}
            result = binary.run_binary(params, bits, seed=seed, adversary=adversary)
            assert_agreement_and_validity(params, bits, result, adversary)

    def test_equivocating_bits_cannot_split_decision(self):
        params = make_params(4, 1)
        adversary = AdversaryStrategy(netsim.EQUIVOCATE, frozenset({4}),
                                      params={"bits": (0, 1)})
        for seed in range(30):
            bits = {1: 1, 2: 0, 3: 1, 4: 0}
            result = binary.run_binary(params, bits, seed=seed, adversary=adversary)
            assert_agreement_and_validity(params, bits, result, adversary)

    def test_unanimous_honest_inputs_win_despite_liar(self):
        params = make_params(4, 1)
        adversary = AdversaryStrategy(netsim.VALUE_LIAR, frozenset({1}),
                                      params={"bit": 0})
        bits = {1: 1, 2: 1, 3: 1, 4: 1}
        result = binary.run_binary(params, bits, seed=2, adversary=adversary)
        for op in (2, 3, 4):
            assert result.outputs[op] == 1

    def test_rotating_faults_still_agree(self):
        params = make_params(4, 1)
        adversary = AdversaryStrategy(netsim.RANDOM_VALUES, frozenset({1}), rotate=True)
        for seed in range(20):
            bits = {1: 1, 2: 0, 3: 1, 4: 0}
            result = binary.run_binary(params, bits, seed=seed, adversary=adversary)
            outs = set(result.outputs.values())
            assert len(outs) == 1 and None not in outs


class CertificateLiar(AdversaryStrategy):
    """A rotating adversary that may send halt certificates. In each round it
    controls an operator, it sends every recipient one of: bit 0, bit 1, a
    halt certificate of 0 or of 1 signed with that operator's own key, or
    nothing. It counts the certificates it sends."""

    def __init__(self, f):
        super().__init__(netsim.RANDOM_VALUES, frozenset(range(1, f + 1)), rotate=True)
        self.certificates_sent = 0

    def substitute(self, op, round_no, intended, all_ids, rng, participant):
        def cert(b):
            payload = auth.encode("cert", participant.instance, op, b)
            return netsim.Message(op, netsim.KIND_CERT, (b, participant.registry.sign(op, payload)))

        choices = (bit(op, 0), bit(op, 1), cert(0), cert(1), None)
        out = []
        for rcv in all_ids:
            msg = choices[rng.randrange(len(choices))]
            if msg is not None:
                out.append((rcv, msg))
                self.certificates_sent += msg.kind == netsim.KIND_CERT
        return out


class TestRotatingCertificates:
    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_agreement_and_halting_under_signed_certificate_lies(self, n):
        # every operator counts: a rotating adversary leaves each state
        # machine honest. Keeping a peer's first valid certificate let a
        # lie from one round outlive it, broke agreement or hit the round
        # cap in about a third of these runs
        params = make_params(n, (n - 1) // 3)
        certificates = 0
        for seed in range(40):
            adversary = CertificateLiar(params.max_faulty)
            bits = {op: (7 * op + seed) % 3 % 2 for op in params.operator_ids()}
            result = binary.run_binary(params, bits, seed=seed, adversary=adversary)
            outs = set(result.outputs.values())
            assert len(outs) == 1 and None not in outs, (n, seed, outs)
            certificates += adversary.certificates_sent
        assert certificates >= 40


class TestDeterminism:
    def test_same_seed_same_run(self):
        params = make_params(7, 2)
        bits = {op: op % 2 for op in params.operator_ids()}
        adversary = AdversaryStrategy(netsim.RANDOM_VALUES, frozenset({2, 5}))
        r1 = binary.run_binary(params, bits, seed=77, adversary=adversary)
        r2 = binary.run_binary(params, bits, seed=77, adversary=adversary)
        assert r1.outputs == r2.outputs
        assert r1.halt_iterations == r2.halt_iterations
        assert r1.rounds == r2.rounds

    def test_rejects_non_binary_input(self):
        params = make_params()
        with pytest.raises(ValueError):
            binary.run_binary(params, {1: 2, 2: 0, 3: 0, 4: 0}, seed=1)

    def test_rejects_bool_input(self):
        # True == 1, but a bool is not a bit: the bus would send it as 1
        params = make_params()
        with pytest.raises(ValueError):
            binary.run_binary(params, {1: True, 2: 0, 3: 0, 4: 0}, seed=1)
        with pytest.raises(TypeError):
            auth.encode(True)

    def test_rejects_wrong_operator_count(self):
        params = make_params()
        with pytest.raises(ValueError):
            binary.run_binary(params, {1: 0, 2: 0, 3: 0}, seed=1)


class TestWorkCounts:
    def test_rotating_random_bits_build_and_sign_each_message_once(self, work_counts):
        """Pins the work of one N=10, f=3 run under rotating random bits.

        Each operator keeps one message per bit and signs its halt
        certificate once; a controlled operator draws each recipient's bit
        from one pair of messages. Building a message per recipient and
        re-signing the certificate every round gave 148 sizings and 16
        signs (10 of them the verifies' own). The run decides 0, and a
        certified 0 counts as 0 unverified: 2 signs, where verifying each
        certificate gave 10 signs and 8 verifies.
        """
        params = make_params(10, 3)
        bits = {op: op % 2 for op in params.operator_ids()}
        adversary = AdversaryStrategy(netsim.RANDOM_VALUES, frozenset({1, 2, 3}), rotate=True)
        result = binary.run_binary(params, bits, seed=1, adversary=adversary)
        assert result.rounds == 4
        assert set(result.outputs.values()) == {0}
        assert work_counts == {"size": 38, "sign": 2, "verify": 0}

    def test_each_certificate_of_a_one_verified_once(self, work_counts):
        """Pins the verifies of an N=10, f=3 run that decides 1 under rotating
        random bits. Three operators halt before the others and send their
        certificates to running peers for several rounds: each distinct
        certificate is verified once per instance, 3 signs and 3 verifies
        (6 signs counted). Keeping each peer's first valid certificate, with
        no shared verdicts, gave 24 signs and 21 verifies."""
        params = make_params(10, 3)
        bits = {op: int(op > 5) for op in params.operator_ids()}
        adversary = AdversaryStrategy(netsim.RANDOM_VALUES, frozenset({1, 2, 3}), rotate=True)
        result = binary.run_binary(params, bits, seed=0, adversary=adversary)
        assert set(result.outputs.values()) == {1}
        assert result.rounds == 5
        assert (work_counts["sign"], work_counts["verify"]) == (6, 3)

    def test_halted_operator_checks_no_certificate(self, work_counts):
        """Once halted, an operator verifies no peer certificate; a running
        peer with the same memo verifies it once, however often it reads it."""
        memo = netsim.RoundMemo()
        peer, halted, running = operators(2, 1, 3, memo=memo)
        peer._halt(1, "2.1")
        halted._halt(1, "2.1")
        inbox = {2: [peer.make_halt_cert()]}
        work_counts.update(size=0, sign=0, verify=0)
        halted.deliver(6, inbox)
        assert work_counts["verify"] == 0
        running.deliver(6, inbox)  # the same certificate is valid to a running peer
        running.deliver(7, inbox)
        assert work_counts["verify"] == 1
