"""Exact multi-valued agreement tests: views, relays, conflicts, aggregation."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leobft import auth, exact, netsim
from leobft.exact import CONFLICT, aggregate_view, fill_conflicts, median
from leobft.model import NetworkParams
from leobft.netsim import AdversaryStrategy


def make_params(n=4, f=1):
    return NetworkParams(n, f, 0.05, zeta=0.1, alpha=0.5, rssi_threshold=0.5)


class TestMedian:
    def test_odd_count(self):
        assert median([3.0, 1.0, 2.0]) == 2.0

    def test_even_count_midpoint(self):
        assert median([10.0, 10.1, 11.0, 9.0]) == 10.05

    def test_two_values(self):
        assert median([4.0, 2.0]) == 3.0

    def test_single_value(self):
        assert median([7.5]) == 7.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median([])

    @given(st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_median_is_within_range(self, values):
        m = median(values)
        assert min(values) <= m <= max(values)


class TestViewAggregation:
    def test_conflicts_replaced_by_median_of_decided(self):
        view = {1: 3.0, 2: CONFLICT, 3: 5.0, 4: 7.0}
        assert fill_conflicts(view) == {1: 3.0, 2: 5.0, 3: 5.0, 4: 7.0}

    def test_all_conflicts_fall_back_to_zero(self):
        view = {1: CONFLICT, 2: CONFLICT}
        assert fill_conflicts(view) == {1: 0.0, 2: 0.0}

    def test_median_aggregation(self):
        view = {1: 3.0, 2: 9.0, 3: 5.0, 4: 7.0}
        assert aggregate_view(view, f=1) == 6.0

    def test_trimmed_stride_aggregation(self):
        # reduce_1 of sorted [3,5,7,9] -> [5,7]; stride 1 keeps both; mean 6
        view = {1: 3.0, 2: 9.0, 3: 5.0, 4: 7.0}
        assert aggregate_view(view, f=1, method="trimmed-stride") == 6.0

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            aggregate_view({1: 1.0}, f=1, method="mean")


class TestFaultFree:
    def test_everyone_learns_every_value(self):
        params = make_params()
        values = {1: 3.0, 2: 9.0, 3: 5.0, 4: 7.0}
        result = exact.run_exact(params, values, seed=1)
        for op in params.operator_ids():
            assert result.views[op] == values
        assert set(result.outputs.values()) == {6.0}

    def test_runs_exactly_f_plus_one_rounds(self):
        for n, f in [(4, 1), (7, 2), (10, 3)]:
            params = make_params(n, f)
            values = {op: float(op) for op in params.operator_ids()}
            result = exact.run_exact(params, values, seed=2)
            assert result.rounds == f + 1

    def test_round_k_messages_carry_k_signatures(self):
        params = make_params(7, 2)
        values = {op: float(op) for op in params.operator_ids()}
        result = exact.run_exact(params, values, seed=3)
        for op in params.operator_ids():
            assert result.accepted_chain_lengths[op], "no accepted messages"
            for round_k, n_sigs in result.accepted_chain_lengths[op]:
                assert n_sigs == round_k

    def test_views_identical_across_operators(self):
        params = make_params(10, 3)
        values = {op: float(op * op) for op in params.operator_ids()}
        result = exact.run_exact(params, values, seed=4)
        forms = {tuple(sorted(result.views[op].items())) for op in params.operator_ids()}
        assert len(forms) == 1


class TestAdversaries:
    def _honest(self, params, adversary):
        return [op for op in params.operator_ids() if op not in adversary.controlled]

    def test_equivocating_origin_becomes_conflict(self):
        params = make_params()
        adversary = AdversaryStrategy(netsim.EQUIVOCATE, frozenset({2}),
                                      params={"values": (3.0, 9.0)})
        values = {1: 1.0, 2: 6.0, 3: 2.0, 4: 4.0}
        result = exact.run_exact(params, values, seed=5, adversary=adversary)
        for op in self._honest(params, adversary):
            assert result.views[op][2] is CONFLICT
            for honest_op in (1, 3, 4):
                assert result.views[op][honest_op] == values[honest_op]

    def test_equivocation_with_one_round_would_go_unnoticed(self):
        # the relay round is what surfaces a split broadcast; this documents
        # why f+1 rounds are needed rather than asserting a protocol bug
        params = make_params()
        registry = auth.KeyRegistry([1, 2, 3, 4], 11)
        machine = exact.ExactOperator(1, params, registry, 1.0, "inst", netsim.RoundMemo())
        liar = exact.ExactOperator(2, params, registry, 0.0, "inst", netsim.RoundMemo())
        inbox = {2: [liar.make_own_broadcast(3.0)]}
        machine.deliver(0, inbox)
        assert machine.recorded[2] == {3.0}

    @pytest.mark.parametrize("behavior", netsim.BEHAVIORS)
    def test_honest_views_agree_under_any_behavior(self, behavior):
        params = make_params()
        adversary = AdversaryStrategy(behavior, frozenset({3}))
        for seed in range(20):
            values = {1: 1.0 + seed, 2: 2.0, 3: 3.0, 4: 4.0}
            result = exact.run_exact(params, values, seed=seed, adversary=adversary)
            honest = self._honest(params, adversary)
            forms = {tuple(sorted(result.views[op].items())) for op in honest}
            assert len(forms) == 1
            outs = {result.outputs[op] for op in honest}
            assert len(outs) == 1

    @pytest.mark.parametrize("behavior", netsim.BEHAVIORS)
    def test_honest_slots_keep_their_values(self, behavior):
        params = make_params(7, 2)
        adversary = AdversaryStrategy(behavior, frozenset({2, 6}))
        values = {op: float(op) * 1.5 for op in params.operator_ids()}
        result = exact.run_exact(params, values, seed=9, adversary=adversary)
        for op in self._honest(params, adversary):
            for honest_op in self._honest(params, adversary):
                assert result.views[op][honest_op] == values[honest_op]

    def test_crashed_origin_slot_is_conflict(self):
        params = make_params()
        adversary = AdversaryStrategy(netsim.CRASH, frozenset({4}))
        values = {1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0}
        result = exact.run_exact(params, values, seed=6, adversary=adversary)
        for op in (1, 2, 3):
            assert result.views[op][4] is CONFLICT

    def test_equivocator_relays_nothing(self):
        # a relay goes to a group of peers, and an equivocator withholds it
        # destination by destination, keeping the lower half of each one peer,
        # which is nobody: it sends its own split broadcast in round 0 and is
        # silent for the f relay rounds
        params = make_params(7, 2)
        adversary = AdversaryStrategy(netsim.EQUIVOCATE, frozenset({1, 2}))
        values = {op: float(op) for op in params.operator_ids()}
        result = exact.run_exact(params, values, seed=0, adversary=adversary,
                                 record_transcript=True)
        sent = Counter((round_no, sender)
                       for round_no, sender, *_ in result.bus.transcript)
        assert result.rounds == 3
        assert {key: n for key, n in sent.items() if key[1] in (1, 2)} == {(0, 1): 7, (0, 2): 7}
        assert sent[(1, 3)] > 0 and sent[(2, 3)] > 0  # honest operators do relay

    @pytest.mark.parametrize("rotate", [False, True])
    @pytest.mark.parametrize("n, f", [(4, 1), (7, 2)])
    @pytest.mark.parametrize("behavior", netsim.BEHAVIORS)
    def test_stops_when_every_honest_operator_halts_after_f_plus_one_rounds(
            self, behavior, n, f, rotate):
        # run_exact stops by the rule of the other protocols, so every operator,
        # controlled or not, must halt exactly at round f+1
        params = make_params(n, f)
        values = {op: float(op) for op in params.operator_ids()}
        adversary = AdversaryStrategy(behavior, frozenset(range(1, f + 1)), rotate=rotate)
        result = exact.run_exact(params, values, seed=5, adversary=adversary)
        assert result.rounds == result.bus.round == f + 1
        for machine in result.bus.participants.values():
            assert machine.halted and machine.view is not None

    @pytest.mark.parametrize("rotate", [False, True])
    @pytest.mark.parametrize("behavior", netsim.BEHAVIORS)
    def test_group_relays_act_as_one_relay_per_destination(self, behavior, rotate,
                                                           monkeypatch):
        # an adversary withholds a relay addressed to a group exactly as it
        # withholds the same relay sent to each peer as its own entry
        params = make_params(7, 2)
        values = {op: float(op) for op in params.operator_ids()}
        adversary = AdversaryStrategy(behavior, frozenset({1, 2}), rotate=rotate)

        def run():
            result = exact.run_exact(params, values, seed=3, adversary=adversary,
                                     record_transcript=True)
            bus = result.bus
            return (result.views, result.outputs, result.accepted_chain_lengths,
                    bus.transcript, bus.originated, bus.delivered, bus.received)

        grouped = run()
        outgoing = exact.ExactOperator.outgoing
        monkeypatch.setattr(exact.ExactOperator, "outgoing", lambda self, round_no: [
            (one, msg) for dest, msg in outgoing(self, round_no)
            for one in (dest if isinstance(dest, tuple) else (dest,))])
        assert run() == grouped


class TestSignatureDiscipline:
    def test_wrong_chain_length_rejected(self):
        params = make_params()
        registry = auth.KeyRegistry([1, 2, 3, 4], 11)
        machine = exact.ExactOperator(1, params, registry, 1.0, "inst", netsim.RoundMemo())
        origin = exact.ExactOperator(2, params, registry, 5.0, "inst", netsim.RoundMemo())
        msg = origin.make_own_broadcast(5.0)
        # one signature delivered in protocol round 2: must be dropped
        machine.deliver(1, {2: [msg]})
        assert machine.recorded[2] == set()

    def test_non_origin_first_signer_rejected(self):
        params = make_params()
        registry = auth.KeyRegistry([1, 2, 3, 4], 11)
        machine = exact.ExactOperator(1, params, registry, 1.0, "inst", netsim.RoundMemo())
        # operator 3 signs a payload claiming origin 2
        payload = machine._payload(2, 5.0)
        forged = auth.make_signed(registry, 3, payload)
        machine.deliver(0, {3: [netsim.Message(3, netsim.KIND_BCAST, (forged,))]})
        assert machine.recorded[2] == set()

    def test_wrong_instance_rejected(self):
        params = make_params()
        registry = auth.KeyRegistry([1, 2, 3, 4], 11)
        machine = exact.ExactOperator(1, params, registry, 1.0, "inst-a", netsim.RoundMemo())
        other = exact.ExactOperator(2, params, registry, 5.0, "inst-b", netsim.RoundMemo())
        machine.deliver(0, {2: [other.make_own_broadcast(5.0)]})
        assert machine.recorded[2] == set()

    def test_duplicate_value_recorded_once(self):
        params = make_params()
        registry = auth.KeyRegistry([1, 2, 3, 4], 11)
        machine = exact.ExactOperator(1, params, registry, 1.0, "inst", netsim.RoundMemo())
        origin = exact.ExactOperator(2, params, registry, 5.0, "inst", netsim.RoundMemo())
        msg = origin.make_own_broadcast(5.0)
        machine.deliver(0, {2: [msg, msg]})
        assert machine.recorded[2] == {5.0}
        assert len(machine.accepted_chain_lengths) == 1

    def test_duplicate_and_forged_relays_in_one_inbox(self, monkeypatch):
        params = make_params()
        registry = auth.KeyRegistry([1, 2, 3, 4], 11)
        machine = exact.ExactOperator(1, params, registry, 1.0, "inst", netsim.RoundMemo())
        origin = exact.ExactOperator(2, params, registry, 5.0, "inst", netsim.RoundMemo())

        def forged(value):
            signed = origin.make_own_broadcast(value).body[0]
            tag = bytes([signed.tags[0][0] ^ 1]) + signed.tags[0][1:]
            return netsim.Message(2, netsim.KIND_BCAST,
                                  (auth.SignedMessage(signed.payload, signed.signers, (tag,)),))

        verified = []
        verify_signed = auth.verify_signed
        monkeypatch.setattr(auth, "verify_signed", lambda reg, signed: (
            verified.append(signed) or verify_signed(reg, signed)))
        genuine = origin.make_own_broadcast(5.0)
        inbox = [forged(5.0), genuine, genuine, forged(5.0), forged(7.0),
                 origin.make_own_broadcast(6.0)]
        machine.deliver(0, {2: inbox})
        assert machine.recorded[2] == {5.0, 6.0}
        assert machine.accepted_chain_lengths == [(1, 1), (1, 1)]
        # the duplicate and the forged copy of 5.0 after it are never verified
        assert len(verified) == 4


class TestWorkCounts:
    def test_exact_run_verifies_and_encodes_each_thing_once(self, work_counts):
        """Pins the work of one N=10, f=3 run under a static equivocator.

        Each of the 19 auth.verify_signed calls checks every tag of its
        chain, 25 tags in all, and each relay signs the chain bytes its
        verification returned. Verifying before the duplicate check,
        verifying a relay object once per receiver, re-sizing a message
        object or signing an equivocator's lie once per recipient instead of
        once per value raises these counts.
        """
        params = make_params(10, 3)
        values = {op: 1.0 + 0.001 * op for op in params.operator_ids()}
        adversary = AdversaryStrategy(netsim.EQUIVOCATE, frozenset({1, 2, 3}))
        result = exact.run_exact(params, values, adversary=adversary)
        assert sum(map(len, result.accepted_chain_lengths.values())) == 127
        assert work_counts == {"verify": 25, "size": 97, "sign": 158}

    def test_exact_run_verifies_each_relay_object_once(self, monkeypatch):
        """The same run asks auth.verify_signed once per relay object and
        round, 19 times; asking once per receiver asked it 127 times, once
        per accepted message."""
        chains = _verified_chains(monkeypatch)
        params = make_params(10, 3)
        values = {op: 1.0 + 0.001 * op for op in params.operator_ids()}
        adversary = AdversaryStrategy(netsim.EQUIVOCATE, frozenset({1, 2, 3}))
        exact.run_exact(params, values, adversary=adversary)
        assert len(chains) == 19

    def test_exact_run_parses_each_payload_once(self, monkeypatch):
        """The same run parses 13 payloads: the 7 honest operators' and the
        equivocators' two lies each. Parsing per operator parsed each payload
        once for every operator that received it."""
        parsed = []
        parse = exact.ExactOperator._parse_payload
        monkeypatch.setattr(exact.ExactOperator, "_parse_payload",
                            lambda machine, payload: parsed.append(payload)
                            or parse(machine, payload))
        params = make_params(10, 3)
        values = {op: 1.0 + 0.001 * op for op in params.operator_ids()}
        adversary = AdversaryStrategy(netsim.EQUIVOCATE, frozenset({1, 2, 3}))
        exact.run_exact(params, values, adversary=adversary)
        assert len(parsed) == len(set(parsed)) == 7 + 3 * 2


def _verified_chains(monkeypatch):
    """The chains auth.verify_signed is asked about while a test runs."""
    chains = []
    verify_signed = auth.verify_signed
    monkeypatch.setattr(auth, "verify_signed", lambda registry, signed: (
        chains.append(signed) or verify_signed(registry, signed)))
    return chains


def _sharing(ids, params, registry, instance="inst"):
    """ExactOperators that share one relay memo, as in run_exact."""
    memo = netsim.RoundMemo()
    return [exact.ExactOperator(op, params, registry, float(op), instance, memo)
            for op in ids]


class TestRelayChecks:
    """Checks made once per relay object and round, shared by its receivers."""

    def test_relay_redelivered_later_is_checked_against_that_round(self):
        params = make_params()
        registry = auth.KeyRegistry([1, 2, 3, 4], 11)
        first, second, origin = _sharing((1, 3, 2), params, registry)
        own = origin.make_own_broadcast(5.0)  # one signature: a round-1 message
        chain = auth.verify_signed(registry, own.body[0])
        relay = netsim.Message(1, netsim.KIND_BCAST, (auth.extend_signed(
            registry, own.body[0], 1, chain),))  # two signatures: a round-2 message
        first.deliver(0, {1: [relay], 2: [own]})
        assert first.accepted_chain_lengths == [(1, 1)]
        second.deliver(1, {1: [relay], 2: [own]})  # the same objects a round later
        assert second.accepted_chain_lengths == [(2, 2)]
        assert second.recorded[2] == {5.0}

    @staticmethod
    def _forged_and_genuine(params, registry):
        origin = exact.ExactOperator(2, params, registry, 5.0, "inst", netsim.RoundMemo())
        signed = origin.make_own_broadcast(5.0).body[0]
        tag = bytes([signed.tags[0][0] ^ 1]) + signed.tags[0][1:]
        forged = netsim.Message(2, netsim.KIND_BCAST,
                                (auth.SignedMessage(signed.payload, signed.signers, (tag,)),))
        return forged, origin.make_own_broadcast(6.0)

    def test_forged_relay_shared_by_receivers_rejected_by_each(self, monkeypatch):
        params = make_params()
        registry = auth.KeyRegistry([1, 2, 3, 4], 11)
        receivers = _sharing((1, 3, 4), params, registry)
        forged, genuine = self._forged_and_genuine(params, registry)
        chains = _verified_chains(monkeypatch)
        for machine in receivers:
            machine.deliver(0, {2: [forged, genuine]})
        assert [m.recorded[2] for m in receivers] == [{6.0}] * 3
        assert [m.accepted_chain_lengths for m in receivers] == [[(1, 1)]] * 3
        # the first receiver's two memoized verdicts serve the other two
        assert chains == [forged.body[0], genuine.body[0]]

    def test_operator_without_shared_memo_verifies_for_itself(self, monkeypatch):
        params = make_params()
        registry = auth.KeyRegistry([1, 2, 3, 4], 11)
        receivers = [exact.ExactOperator(op, params, registry, float(op), "inst",
                                         netsim.RoundMemo()) for op in (1, 3, 4)]
        forged, genuine = self._forged_and_genuine(params, registry)
        chains = _verified_chains(monkeypatch)
        for machine in receivers:
            machine.deliver(0, {2: [forged, genuine]})
        assert chains == [forged.body[0], genuine.body[0]] * 3
        assert [m.recorded[2] for m in receivers] == [{6.0}] * 3


class TestTwoValueRule:
    """An originator's first two values are all any honest operator records
    and relays (Dolev & Strong): two already make its slot CONFLICT."""

    def test_liar_signing_n_values_adds_at_most_two_relays_each(self, monkeypatch):
        params = make_params(7, 2)
        liars = frozenset({2, 6})
        adversary = AdversaryStrategy(netsim.RANDOM_VALUES, liars)
        values = {op: float(op) for op in params.operator_ids()}
        signed_by_liars = {op: set() for op in liars}
        broadcast = exact.ExactOperator.make_own_broadcast

        def spied(machine, value):
            if machine.operator_id in liars:
                signed_by_liars[machine.operator_id].add(value)
            return broadcast(machine, value)

        relays = Counter()
        extend_signed = auth.extend_signed

        def relayed(registry, signed, signer, chain):
            relays[(signer, signed.signers[0])] += 1
            return extend_signed(registry, signed, signer, chain)

        monkeypatch.setattr(exact.ExactOperator, "make_own_broadcast", spied)
        monkeypatch.setattr(auth, "extend_signed", relayed)
        result = exact.run_exact(params, values, seed=0, adversary=adversary)

        honest = [op for op in params.operator_ids() if op not in liars]
        # each liar signs one distinct lie for each of the N recipients, beside
        # the honest broadcast its state machine built and the bus replaced
        lies = {op: len(vals - {values[op]}) for op, vals in signed_by_liars.items()}
        assert lies == {2: 7, 6: 7}
        forms = {tuple(sorted(result.views[op].items())) for op in honest}
        assert len(forms) == 1
        for op in honest:
            assert result.views[op][2] is CONFLICT and result.views[op][6] is CONFLICT
            for origin in liars:
                assert len(result.bus.participants[op].recorded[origin]) == 2
                assert relays[(op, origin)] <= 2
            for origin in honest:
                assert result.views[op][origin] == values[origin]
        assert max(relays[(op, origin)] for op in honest for origin in liars) == 2

    def test_third_value_is_dropped_before_verifying(self, monkeypatch):
        params = make_params()
        registry = auth.KeyRegistry([1, 2, 3, 4], 11)
        machine = exact.ExactOperator(1, params, registry, 1.0, "inst", netsim.RoundMemo())
        origin = exact.ExactOperator(2, params, registry, 5.0, "inst", netsim.RoundMemo())
        chains = _verified_chains(monkeypatch)
        inbox = [origin.make_own_broadcast(v) for v in (5.0, 6.0, 7.0, 5.0)]
        machine.deliver(0, {2: inbox})
        assert machine.recorded[2] == {5.0, 6.0}
        assert chains == [inbox[0].body[0], inbox[1].body[0]]


class TestAggregationProperties:
    def test_median_lands_in_honest_band_under_one_fault(self):
        # with one adversarial slot among four, the median of the filled view
        # stays within the honest value range
        params = make_params()
        adversary = AdversaryStrategy(netsim.VALUE_LIAR, frozenset({4}),
                                      params={"value": 1000.0})
        values = {1: 1.0, 2: 2.0, 3: 3.0, 4: 2.5}
        result = exact.run_exact(params, values, seed=7, adversary=adversary)
        for op in (1, 2, 3):
            assert 1.0 <= result.outputs[op] <= 3.0

    def test_trimmed_stride_matches_median_here(self):
        params = make_params()
        values = {1: 2.0, 2: 4.0, 3: 6.0, 4: 8.0}
        r_med = exact.run_exact(params, values, seed=8)
        r_str = exact.run_exact(params, values, seed=8, aggregation="trimmed-stride")
        assert set(r_med.outputs.values()) == {5.0}
        assert set(r_str.outputs.values()) == {5.0}

    def test_determinism(self):
        params = make_params(7, 2)
        adversary = AdversaryStrategy(netsim.RANDOM_VALUES, frozenset({1, 5}))
        values = {op: float(op) for op in params.operator_ids()}
        r1 = exact.run_exact(params, values, seed=13, adversary=adversary)
        r2 = exact.run_exact(params, values, seed=13, adversary=adversary)
        assert r1.views == r2.views
        assert r1.outputs == r2.outputs
