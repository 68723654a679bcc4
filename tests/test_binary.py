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
        result = binary.run_binary(params, bits, seed=1, exact_rounds=6)
        # after halting (round 2), all further traffic is certificates
        machine = result.bus.participants[1]
        assert machine.halted
        outgoing = machine.outgoing(6)
        assert all(msg.kind == netsim.KIND_CERT for _, msg in outgoing)

    def test_certified_bit_is_sticky(self):
        params = make_params()
        coin = auth.CommonCoin(1)
        registry = auth.KeyRegistry([1, 2, 3, 4], 9)
        me = binary.BinaryOperator(1, params, 0, "inst", coin, registry)
        peer = binary.BinaryOperator(2, params, 1, "inst", coin, registry)
        peer.out = 1
        cert = peer.make_halt_cert()
        assert me._tally_bit(2, [cert]) == 1
        # later contradictory plain bits are ignored
        assert me._tally_bit(2, [netsim.Message(2, netsim.KIND_BIT, (0,))]) == 1

    def test_forged_certificate_is_ignored(self):
        params = make_params()
        coin = auth.CommonCoin(1)
        registry = auth.KeyRegistry([1, 2, 3, 4], 9)
        me = binary.BinaryOperator(1, params, 0, "inst", coin, registry)
        bad = netsim.Message(2, netsim.KIND_CERT, (1, b"\x00" * auth.TAG_BYTES))
        assert me._tally_bit(2, [bad]) == 0
        assert 2 not in me._peer_certs

    def test_duplicate_plain_bits_default_to_zero(self):
        params = make_params()
        coin = auth.CommonCoin(1)
        registry = auth.KeyRegistry([1, 2, 3, 4], 9)
        me = binary.BinaryOperator(1, params, 0, "inst", coin, registry)
        msgs = [netsim.Message(2, netsim.KIND_BIT, (1,)),
                netsim.Message(2, netsim.KIND_BIT, (1,))]
        assert me._tally_bit(2, msgs) == 0

    def test_deliver_counts_lone_bits_as_tally_bit_does(self):
        # lone bits are counted inline, but a certified peer keeps its bit
        # and a bit message without a body counts as 0
        params = make_params()
        coin = auth.CommonCoin(1)
        registry = auth.KeyRegistry([1, 2, 3, 4], 9)
        me = binary.BinaryOperator(1, params, 1, "inst", coin, registry)
        peer = binary.BinaryOperator(2, params, 1, "inst", coin, registry)
        peer.out = 1

        def bit(op, *body):
            return netsim.Message(op, netsim.KIND_BIT, body)

        me.deliver(0, {1: [bit(1, 1)], 2: [peer.make_halt_cert()], 3: [bit(3, 1)], 4: ()})
        assert (me.step, me.b, me.halted) == (2, 1, False)  # three ones adopt 1
        me.deliver(1, {1: [bit(1, 1)], 2: [bit(2, 0)], 3: [bit(3, 1)], 4: [bit(4)]})
        assert me.halted and me.out == 1  # peer 2's certified 1 completes the quorum

    def test_exact_rounds_overrides_halting(self):
        params = make_params()
        bits = {op: 1 for op in params.operator_ids()}
        result = binary.run_binary(params, bits, seed=1, exact_rounds=10,
                                   frame_bytes=200)
        assert result.rounds == 10
        for op in params.operator_ids():
            assert result.bus.originated[op] + result.bus.received[op] == 10 * 200 * 4

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

    def test_iteration_cap_raises(self):
        params = make_params()
        bits = {1: 0, 2: 1, 3: 0, 4: 1}
        with pytest.raises(netsim.HarnessError, match="round cap 0 exceeded"):
            binary.run_binary(params, bits, seed=1, max_iterations=0)


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
        signs (10 of them the verifies' own); halted operators that still
        checked their peers' certificates gave 12 signs and 10 verifies.
        """
        params = make_params(10, 3)
        bits = {op: op % 2 for op in params.operator_ids()}
        adversary = AdversaryStrategy(netsim.RANDOM_VALUES, frozenset({1, 2, 3}), rotate=True)
        result = binary.run_binary(params, bits, seed=1, adversary=adversary)
        assert result.rounds == 4
        assert work_counts == {"size": 38, "sign": 10, "verify": 8}

    def test_halted_operator_skips_tally_and_certificate_checks(self, work_counts):
        """Once halted, an operator verifies no peer certificate and records none."""
        params = make_params()
        registry = auth.KeyRegistry(params.operator_ids(), 5)
        coin = auth.CommonCoin(6)
        peer, halted, running = (binary.BinaryOperator(op, params, 1, "bin", coin, registry)
                                 for op in (2, 1, 3))
        peer._halt(1, "2.1")
        halted._halt(1, "2.1")
        inbox = {2: [peer.make_halt_cert()]}
        work_counts.update(size=0, sign=0, verify=0)
        halted.deliver(6, inbox)
        assert work_counts["verify"] == 0
        assert halted._peer_certs == {}
        running.deliver(6, inbox)  # the same certificate is valid to a running peer
        assert work_counts["verify"] == 1
        assert running._peer_certs == {2: 1}
