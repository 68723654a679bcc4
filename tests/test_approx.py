"""Approximate agreement tests: averaging function, horizons, convergence."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leobft import approx, netsim
from leobft.approx import (
    averaging_function,
    reduce_extremes,
    round_count,
    run_approx,
    shrink_factor,
    stride_select,
)
from leobft.model import NetworkParams
from leobft.netsim import AdversaryStrategy


def make_params(n=4, f=1, zeta=0.1):
    return NetworkParams(n, f, 0.05, zeta=zeta, alpha=0.5, rssi_threshold=0.5)


class ReferenceApproxOperator(approx.ApproxOperator):
    """The per-operator reference: every deliver reads its own values from this
    round's inbox alone and averages them, reading no memo and keeping
    nothing from earlier rounds."""

    def deliver(self, round_no, inbox):
        if self._announce_halt and not self.halted:
            self.halted = True
            self.output = self.v
        elif not self.halted:
            values = [self._reference_value(s, msgs) for s, msgs in inbox.items()]
            f = self.params.max_faulty
            self.v = approx.averaging_function(values, f)
            self.exchanges += 1
            if self.exchanges == 1:
                self.first_spread = max(values) - min(values)
                self.horizon = 1 if f == 0 else max(1, round_count(
                    self.first_spread, self.params.zeta,
                    shrink_factor(self.params.n_operators, f)))
            if self.exchanges >= self.horizon:
                self._announce_halt = True
        self.history.append(self.v)

    def _reference_value(self, sender, msgs):
        # a lone value or halt notice gives the sender's value, anything else 0.0
        if len(msgs) == 1 and msgs[0].kind in (netsim.KIND_VAL, netsim.KIND_HALTED):
            return float(msgs[0].body[0])
        return 0.0


class RebuildingApproxOperator(approx.ApproxOperator):
    """The always-rebuild oracle: a new value message object every round."""

    def outgoing(self, round_no):
        if self.halted or self._announce_halt:
            return super().outgoing(round_no)
        return [(netsim.BROADCAST, netsim.Message(self.operator_id, netsim.KIND_VAL, (self.v,)))]


class RecordingApproxOperator(approx.ApproxOperator):
    """Keeps the message object of each round's outgoing, [r] for round r."""

    def __init__(self, *args):
        super().__init__(*args)
        self.sent = []

    def outgoing(self, round_no):
        out = super().outgoing(round_no)
        (_, msg), = out
        self.sent.append(msg)
        return out


def val(op, value):
    return netsim.Message(op, netsim.KIND_VAL, (value,))


@pytest.fixture
def average_calls(monkeypatch):
    """Counts of averaging_function calls made while a test runs."""
    calls = {"average": 0}
    original = approx.averaging_function

    def counted(*args):
        calls["average"] += 1
        return original(*args)

    monkeypatch.setattr(approx, "averaging_function", counted)
    return calls


class TestReduceAndSelect:
    def test_reduce_drops_f_from_each_end(self):
        assert reduce_extremes([0.0, 1.0, 2.0, 3.0, 10.0], 1) == [1.0, 2.0, 3.0]
        assert reduce_extremes([5.0, 1.0, 3.0], 0) == [1.0, 3.0, 5.0]

    def test_reduce_needs_more_than_2f(self):
        with pytest.raises(ValueError):
            reduce_extremes([1.0, 2.0], 1)
        with pytest.raises(ValueError):
            reduce_extremes([1.0, 2.0, 3.0, 4.0], 2)

    def test_reduce_handles_duplicates(self):
        assert reduce_extremes([7.0, 7.0, 7.0, 7.0], 1) == [7.0, 7.0]

    def test_stride_keeps_first_and_every_fth(self):
        assert stride_select([1.0, 2.0, 3.0, 4.0, 5.0], 2) == [1.0, 3.0, 5.0]
        assert stride_select([1.0, 2.0, 3.0], 1) == [1.0, 2.0, 3.0]
        assert stride_select([4.0], 3) == [4.0]

    def test_stride_needs_positive_f(self):
        with pytest.raises(ValueError):
            stride_select([1.0], 0)


class TestAveragingFunction:
    def test_frozen_examples(self):
        assert averaging_function([1.0, 2.0, 3.0, 4.0], 1) == 2.5
        assert averaging_function([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 100.0], 2) == 3.0

    def test_plain_mean_when_no_faults_assumed(self):
        assert averaging_function([1.0, 2.0, 6.0], 0) == 3.0
        with pytest.raises(ValueError):
            averaging_function([], 0)

    def test_single_outlier_is_discarded(self):
        # the outlier lands in the trimmed region and cannot move the result
        clean = averaging_function([1.0, 2.0, 3.0, 4.0], 1)
        spiked = averaging_function([1.0, 2.0, 3.0, 1000.0], 1)
        assert spiked == 2.5 == clean

    def test_equal_values_average_to_that_value(self):
        # (x + x + x) / 3 rounds below x for this x; the result is clamped
        x = 2.1253784903447415e-165
        assert (x + x + x) / 3 < x
        assert averaging_function([1.0, x, x, x, x], 1) == x
        assert averaging_function([x, x, x], 0) == x

    @pytest.mark.parametrize("values, f, expected", [
        ([8.9e307] * 3 + [-8.9e307], 0, 0.5 * 8.9e307),
        ([8.9e307] * 3 + [-8.9e307] * 2 + [8.9e307] * 2, 1, 0.6 * 8.9e307),
        ([-8.9e307] * 3 + [8.9e307], 0, -0.5 * 8.9e307),
        ([sys.float_info.max] * 3, 0, sys.float_info.max),
    ])
    def test_sum_past_float_range_is_averaged(self, values, f, expected):
        # the plain sum overflows to +-inf, which the range clamp used to hide
        assert math.isinf(sum(values))
        assert averaging_function(values, f) == pytest.approx(expected, rel=1e-15)

    def test_infinite_inputs_keep_the_plain_sum(self):
        # only a sum of finite values that overflowed is recomputed
        assert math.isnan(averaging_function([math.inf, -math.inf, 0.0], 0))
        assert averaging_function([math.inf, 1.0, 2.0], 0) == math.inf

    @given(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=12), st.integers(1, 3))
    @settings(max_examples=300, deadline=None)
    def test_result_within_input_range(self, values, f):
        if len(values) <= 2 * f:
            return
        result = averaging_function(values, f)
        assert min(values) <= result <= max(values)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_permutation_invariant(self, values):
        assert averaging_function(values, 1) == averaging_function(sorted(values, reverse=True), 1)


class TestShrinkFactor:
    def test_grid_values(self):
        assert shrink_factor(4, 1) == 2
        assert shrink_factor(7, 2) == 2
        assert shrink_factor(10, 3) == 2

    def test_low_fault_ratios_shrink_faster(self):
        assert shrink_factor(7, 1) == 5
        assert shrink_factor(10, 1) == 8
        assert shrink_factor(10, 2) == 3

    def test_undefined_for_zero_faults(self):
        with pytest.raises(ValueError):
            shrink_factor(4, 0)


class TestRoundCount:
    def test_frozen_examples(self):
        assert round_count(8.0, 1.0, 2) == 3
        assert round_count(10.0, 0.1, 2) == 7

    def test_zero_when_already_converged(self):
        assert round_count(0.05, 0.1, 2) == 0
        assert round_count(0.1, 0.1, 2) == 0
        assert round_count(0.0, 0.1, 2) == 0

    def test_boundary_is_inclusive(self):
        # delta exactly zeta * c**h needs h rounds, not h+1
        assert round_count(0.4, 0.1, 2) == 2

    def test_faster_factor_needs_fewer_rounds(self):
        assert round_count(100.0, 0.1, 2) >= round_count(100.0, 0.1, 8)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            round_count(1.0, 0.0, 2)
        with pytest.raises(ValueError):
            round_count(1.0, 0.1, 1)
        with pytest.raises(ValueError):
            round_count(float("inf"), 0.1, 2)

    @given(st.floats(1e300, 1.7e308), st.floats(5e-324, 1e-20), st.integers(2, 10))
    @settings(max_examples=100, deadline=None)
    def test_huge_spread_gets_least_sufficient_horizon(self, delta, zeta, c):
        # c**h leaves the float range here, so check with exact rationals
        h = round_count(delta, zeta, c)
        assert Fraction(delta) <= Fraction(zeta) * c**h
        assert h == 0 or Fraction(delta) > Fraction(zeta) * c ** (h - 1)

    @given(st.floats(0.0, 1e9), st.floats(1e-6, 1e3), st.integers(2, 10))
    @settings(max_examples=300, deadline=None)
    def test_is_least_sufficient_horizon(self, delta, zeta, c):
        h = round_count(delta, zeta, c)
        assert delta <= zeta * c**h
        if h > 0:
            assert delta > zeta * c ** (h - 1)


class TestFaultFree:
    def test_outputs_within_zeta_and_range(self):
        params = make_params()
        initials = {1: 0.0, 2: 4.0, 3: 8.0, 4: 2.0}
        result = run_approx(params, initials, seed=5)
        outs = list(result.outputs.values())
        assert all(v is not None for v in outs)
        assert max(outs) - min(outs) <= params.zeta
        assert all(0.0 <= v <= 8.0 for v in outs)

    def test_horizon_matches_first_spread(self):
        params = make_params(zeta=0.1)
        initials = {1: 0.0, 2: 4.0, 3: 8.0, 4: 2.0}
        result = run_approx(params, initials, seed=5)
        for op in params.operator_ids():
            assert result.first_spreads[op] == 8.0
            assert result.horizons[op] == round_count(8.0, 0.1, 2)

    def test_already_agreed_inputs_halt_after_one_exchange(self):
        params = make_params()
        initials = {op: 3.25 for op in params.operator_ids()}
        result = run_approx(params, initials, seed=6)
        assert all(h == 1 for h in result.horizons.values())
        assert set(result.outputs.values()) == {3.25}

    def test_zero_fault_network_averages_in_one_exchange(self):
        params = NetworkParams(3, 0, 0.05, zeta=0.1, alpha=0.5, rssi_threshold=0.5)
        initials = {1: 1.0, 2: 2.0, 3: 6.0}
        result = run_approx(params, initials, seed=7)
        assert all(h == 1 for h in result.horizons.values())
        assert set(result.outputs.values()) == {3.0}

    def test_values_by_round_snapshots(self):
        params = make_params()
        initials = {1: 0.0, 2: 4.0, 3: 8.0, 4: 2.0}
        result = run_approx(params, initials, seed=5)
        assert len(result.values_by_round) == result.rounds + 1
        assert result.values_by_round[0] == initials
        final = result.values_by_round[-1]
        assert final == result.outputs

    def test_round_cap_raises(self, monkeypatch):
        # the spread of 8 needs 7 exchanges and a halt round
        initials = {1: 0.0, 2: 4.0, 3: 8.0, 4: 2.0}
        monkeypatch.setattr(approx, "MAX_ROUNDS", 1)
        with pytest.raises(netsim.HarnessError, match="round cap 1 exceeded"):
            run_approx(make_params(), initials, seed=5)
        monkeypatch.setattr(approx, "MAX_ROUNDS", 8)
        assert run_approx(make_params(), initials, seed=5).rounds == 8


class TestHaltProtocol:
    def test_halt_notice_repeats_while_peers_run(self):
        # a one-shot notice could be swallowed by a rotating adversary, so the
        # halted operator keeps repeating it; the bus whitelists that kind
        params = make_params()
        machine = approx.ApproxOperator(1, params, 5.0, netsim.RoundMemo())
        machine._announce_halt = True
        out = machine.outgoing(3)
        assert len(out) == 1 and out[0][1].kind == netsim.KIND_HALTED
        machine.deliver(3, {op: [] for op in range(1, 5)})
        assert machine.halted
        assert machine.output == 5.0
        for later_round in (4, 5):
            out = machine.outgoing(later_round)
            assert len(out) == 1
            assert out[0][1].kind == netsim.KIND_HALTED
            assert out[0][1].body == (5.0,)
            assert out[0][1].kind in machine.HALT_KINDS
            machine.deliver(later_round, {op: [] for op in range(1, 5)})
            assert machine.output == 5.0  # state frozen

    @staticmethod
    def _read(machine, round_no, msgs):
        """The value machine reads for peer 2 from msgs in round_no."""
        inbox = {1: [val(1, 5.0)], 2: msgs, 3: [val(3, 1.0)], 4: [val(4, 2.0)]}
        return machine._average(round_no, inbox)[0][1]

    def test_halt_notice_counts_for_its_round_only(self):
        # a notice gives its sender's value in the round it arrives; the next
        # round reads that sender's lone value again
        machine = approx.ApproxOperator(1, make_params(), 5.0, netsim.RoundMemo())
        assert self._read(machine, 0, [netsim.Message(2, netsim.KIND_HALTED, (9.0,))]) == 9.0
        assert self._read(machine, 1, [val(2, 0.5)]) == 0.5

    def test_two_halt_notices_count_as_default(self):
        machine = approx.ApproxOperator(1, make_params(), 5.0, netsim.RoundMemo())
        first = netsim.Message(2, netsim.KIND_HALTED, (9.0,))
        second = netsim.Message(2, netsim.KIND_HALTED, (1.0,))
        assert self._read(machine, 0, [first, second]) == 0.0
        assert self._read(machine, 1, [first, val(2, 1.0)]) == 0.0

    def test_deliver_reads_each_sender_from_this_round(self):
        # a halted peer's notice counts in its round; a later lie from that
        # peer counts in its own round, in place of the notice
        machine = approx.ApproxOperator(1, make_params(), 5.0, netsim.RoundMemo())
        machine.deliver(0, {1: [val(1, 5.0)], 2: [netsim.Message(2, netsim.KIND_HALTED, (9.0,))],
                            3: (), 4: [val(4, 1.0), val(4, 2.0)]})
        assert machine.v == averaging_function([5.0, 9.0, 0.0, 0.0], 1) == 2.5
        machine.deliver(1, {1: [val(1, 2.5)], 2: [val(2, -100.0)], 3: [val(3, 3.0)],
                            4: [val(4, 4.0)]})
        assert machine.v == averaging_function([2.5, -100.0, 3.0, 4.0], 1) == 2.75

    def test_absent_peer_counts_default(self):
        machine = approx.ApproxOperator(1, make_params(), 5.0, netsim.RoundMemo())
        assert self._read(machine, 0, []) == 0.0


class TestAdversaries:
    def _honest_outputs(self, result, adversary):
        ids = sorted(result.outputs)
        honest = [op for op in ids if op not in adversary.controlled]
        return [result.outputs[op] for op in honest]

    @pytest.mark.parametrize("behavior", [
        netsim.CRASH, netsim.VALUE_LIAR, netsim.RANDOM_VALUES,
        netsim.BOUNDARY_ATTACKER, netsim.EQUIVOCATE,
    ])
    def test_honest_outputs_converge(self, behavior):
        params = make_params()
        adversary = AdversaryStrategy(behavior, frozenset({4}),
                                      params={"range": (-10.0, 10.0)})
        for seed in range(10):
            initials = {1: 0.0, 2: 4.0, 3: 8.0, 4: 5.0}
            result = run_approx(params, initials, seed=seed, adversary=adversary)
            outs = self._honest_outputs(result, adversary)
            assert all(v is not None for v in outs)
            assert max(outs) - min(outs) <= params.zeta
            assert all(0.0 <= v <= 8.0 for v in outs)

    def test_worst_case_shrink_is_still_met(self):
        # dyadic honest values, so every mean is float-exact and the factor-2
        # shrink bound can be checked with exact arithmetic
        params = make_params()
        adversary = AdversaryStrategy(netsim.EQUIVOCATE, frozenset({4}),
                                      params={"values": (-10.0, 10.0)})
        initials = {1: 0.0, 2: 4.0, 3: 8.0, 4: 5.0}
        result = run_approx(params, initials, seed=3, adversary=adversary)
        honest = [1, 2, 3]
        spreads = []
        for snap in result.values_by_round:
            vals = [snap[op] for op in honest]
            spreads.append(max(vals) - min(vals))
        # find the last round where no honest operator had halted yet
        first_halt = min(result.horizons[op] + 1 for op in honest)
        for r in range(min(first_halt, len(spreads) - 1)):
            if spreads[r] > params.zeta:
                assert spreads[r + 1] * shrink_factor(4, 1) <= spreads[r]

    def test_fake_halt_value_is_trimmed(self):
        params = make_params()
        adversary = AdversaryStrategy(netsim.VALUE_LIAR, frozenset({4}),
                                      params={"fake_halt": True, "value": 1000.0})
        initials = {1: 0.0, 2: 4.0, 3: 8.0, 4: 5.0}
        result = run_approx(params, initials, seed=4, adversary=adversary)
        outs = self._honest_outputs(result, adversary)
        assert max(outs) - min(outs) <= params.zeta
        assert all(0.0 <= v <= 8.0 for v in outs)

    def test_rotating_adversary_converges(self):
        params = make_params()
        adversary = AdversaryStrategy(netsim.RANDOM_VALUES, frozenset({1}),
                                      rotate=True, params={"range": (-5.0, 15.0)})
        initials = {1: 0.0, 2: 4.0, 3: 8.0, 4: 2.0}
        result = run_approx(params, initials, seed=8, adversary=adversary)
        assert len(result.controlled_by_round) == result.rounds
        # the controlled singleton moves in id order round by round
        for r, controlled in enumerate(result.controlled_by_round):
            assert controlled == frozenset({(r % 4) + 1})
        outs = [v for v in result.outputs.values() if v is not None]
        assert outs and max(outs) - min(outs) <= params.zeta

    def test_determinism(self):
        params = make_params(7, 2)
        adversary = AdversaryStrategy(netsim.RANDOM_VALUES, frozenset({2, 5}))
        initials = {op: float(op) for op in params.operator_ids()}
        r1 = run_approx(params, initials, seed=11, adversary=adversary)
        r2 = run_approx(params, initials, seed=11, adversary=adversary)
        assert r1.outputs == r2.outputs
        assert r1.values_by_round == r2.values_by_round


_APPROX_LIES = (netsim.VALUE_LIAR, netsim.EQUIVOCATE, netsim.RANDOM_VALUES,
                netsim.BOUNDARY_ATTACKER, netsim.CRASH)


@st.composite
def approx_runs(draw, behaviors=_APPROX_LIES):
    """(params, initial values, seed, adversary) over every approx-relevant lie."""
    f = draw(st.integers(0, 3))
    n = draw(st.integers(max(1, 3 * f + 1), 3 * f + 3))
    params = make_params(n, f, zeta=draw(st.sampled_from([0.01, 0.1, 1.0])))
    values = draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0]),
                                     st.floats(-50.0, 50.0)), min_size=n, max_size=n))
    adversary = None
    if f and draw(st.booleans()):
        controlled = draw(st.sets(st.integers(1, n), min_size=1, max_size=f))
        adv_params = {"range": (-20.0, 20.0)}
        if draw(st.booleans()):
            adv_params.update(fake_halt=True, value=draw(st.floats(-50.0, 50.0)))
        adversary = AdversaryStrategy(
            draw(st.sampled_from(behaviors)),
            frozenset(controlled), params=adv_params, rotate=draw(st.booleans()))
    return params, dict(zip(range(1, n + 1), values)), draw(st.integers(0, 2**16)), adversary


class TestAverageMemo:
    @settings(max_examples=150, deadline=None)
    @given(approx_runs())
    def test_memo_matches_per_operator_averaging(self, run):
        params, values, seed, adversary = run
        result = run_approx(params, values, seed=seed, adversary=adversary,
                            record_transcript=True)
        reference = netsim.run_instance(
            values, lambda op, value, memo: ReferenceApproxOperator(op, params, value, memo),
            params.n_operators, adversary, max_rounds=10_000, seed=seed,
            record_transcript=True)
        machines = reference.participants
        # repr tells 0.0 from -0.0, which == does not
        assert repr(result.outputs) == repr({op: m.output for op, m in machines.items()})
        assert result.horizons == {op: m.horizon for op, m in machines.items()}
        assert repr(result.first_spreads) == repr(
            {op: m.first_spread for op, m in machines.items()})
        assert result.rounds == reference.round
        assert repr([m.history for m in result.bus.participants.values()]) == repr(
            [m.history for m in machines.values()])
        assert result.bus.transcript == reference.transcript
        for counter in ("originated", "delivered", "received"):
            assert getattr(result.bus, counter) == getattr(reference, counter)

    def test_shared_inbox_averaged_once(self, average_calls):
        # operator 1 reads peer 4's halt notice from a private inbox, the
        # others read one shared inbox through one memo; in the next rounds
        # every operator reads only that round's inbox
        params = make_params(zeta=1e-6)
        memo = netsim.RoundMemo()
        ids = (1, 2, 3, 4)
        machines = [approx.ApproxOperator(op, params, 0.0, memo) for op in ids]
        references = [ReferenceApproxOperator(op, params, 0.0, netsim.RoundMemo()) for op in ids]

        def vals(*values):
            return {op: (val(op, v),) for op, v in zip(ids, values)}

        base = vals(0.0, 1.0, 2.0, 3.0)
        halted = {**base, 4: (netsim.Message(4, netsim.KIND_HALTED, (-9.0,)),)}
        later = vals(5.0, 6.0, 7.0, 5.5)
        rounds = [{1: halted, 2: base, 3: base, 4: base}, dict.fromkeys(ids, later),
                  dict.fromkeys(ids, halted)]
        seen = []
        for round_no, inboxes in enumerate(rounds):
            for machine, ref in zip(machines, references):
                machine.deliver(round_no, inboxes[machine.operator_id])
                ref.deliver(round_no, inboxes[ref.operator_id])
                assert machine.v == ref.v
            seen.append([m.v for m in machines])
        # in round 1 every operator reads 5.5 for peer 4, whatever it read before
        assert seen[1] == [5.75] * 4
        # two inboxes in round 0, one in each later round, each averaged once
        # by the memo's users; the references average per operator
        assert average_calls == {"average": 2 + 1 + 1 + 3 * 4}
        assert len(memo.of_round(2)) == 1

    def test_memo_keeps_one_round(self):
        memo = netsim.RoundMemo()
        inbox = {1: ()}
        memo.of_round(0)[id(inbox)] = (inbox, "result")
        assert memo.of_round(0) == {id(inbox): (inbox, "result")}
        assert id(dict(inbox)) not in memo.of_round(0)  # an equal but distinct inbox
        assert memo.of_round(1) == {}


class TestValueMessageReuse:
    @pytest.mark.parametrize("n, f, adversary", [
        (4, 1, None),
        (10, 3, AdversaryStrategy(netsim.VALUE_LIAR, frozenset({1, 2, 3}), rotate=True)),
    ])
    def test_unchanged_value_resends_one_object_until_halt(self, n, f, adversary):
        # every operator reads one shared inbox, so all hold one average after
        # the first exchange and keep it; a controlled operator's outgoing
        # still runs, the bus replaces what it sends
        params = make_params(n, f)
        values = {op: float(op) for op in params.operator_ids()}
        rounds = run_approx(params, values, adversary=adversary).rounds + 3  # 3 more halted
        memo = netsim.RoundMemo()
        bus = netsim.RoundBus([RecordingApproxOperator(op, params, value, memo)
                               for op, value in values.items()], adversary)
        for _ in range(rounds):
            bus.run_round()
        for m in bus.participants.values():
            h = m.horizon
            sent, notices = m.sent[:h], m.sent[h:]
            assert [msg.kind for msg in sent] == [netsim.KIND_VAL] * h
            for r, msg in enumerate(sent):
                assert repr(msg.body) == repr((m.history[r],))
                if r:
                    assert (msg is sent[r - 1]) == (repr(m.history[r]) == repr(
                        m.history[r - 1]))
            # from the first exchange on, one object until the halt
            assert h > 2 and all(msg is sent[1] for msg in sent[1:])
            assert sent[1] is not sent[0]
            # the halt notice: one object, its own kind, resent every later round
            assert len(notices) == 4
            assert all(msg is notices[0] for msg in notices)
            assert notices[0].kind == netsim.KIND_HALTED
            assert repr(notices[0].body) == repr((m.output,))

    def test_changed_value_or_sign_builds_a_new_message(self):
        machine = approx.ApproxOperator(1, make_params(), 0.0, netsim.RoundMemo())
        nan = float("nan")
        sequence = (0.0, 0.0, -0.0, -0.0, 0.0, 1.5, 1.5, nan, nan)
        sent = []
        for round_no, v in enumerate(sequence):
            machine.v = v
            (dest, msg), = machine.outgoing(round_no)
            assert dest == netsim.BROADCAST and msg.kind == netsim.KIND_VAL
            assert repr(msg.body) == repr((v,))
            # sized as repr encodes it: -0.0 is one byte longer than 0.0
            assert msg.raw_size() == len(msg.canonical_bytes()) == len(
                "val|1|%r" % v)
            sent.append(msg)
        reused = [sent[r] is sent[r - 1] for r in range(1, len(sent))]
        assert reused == [True, False, True, False, False, True, False, False]
        assert sent[2].raw_size() == sent[0].raw_size() + 1

    def test_halt_notice_follows_the_last_value_message(self):
        machine = approx.ApproxOperator(1, make_params(), 5.0, netsim.RoundMemo())
        (_, value_msg), = machine.outgoing(0)
        machine._announce_halt = True
        (_, notice), = machine.outgoing(1)
        assert notice is not value_msg
        assert (notice.kind, notice.body) == (netsim.KIND_HALTED, (5.0,))
        machine.deliver(1, {op: [] for op in range(1, 5)})
        assert machine.halted
        assert all(machine.outgoing(r)[0][1] is notice for r in (2, 3, 4))

    @settings(max_examples=150, deadline=None)
    @given(approx_runs(behaviors=netsim.BEHAVIORS),
           st.one_of(st.none(), st.integers(1, 40)))
    @example((make_params(4, 1), {1: -0.0, 2: -0.0, 3: 0.0, 4: 5.0}, 0, None), None)
    def test_reuse_matches_always_rebuilding(self, run, frame_bytes):
        params, values, seed, adversary = run
        result = run_approx(params, values, seed=seed, adversary=adversary,
                            frame_bytes=frame_bytes, record_transcript=True)
        oracle = netsim.run_instance(
            values, lambda op, value, memo: RebuildingApproxOperator(op, params, value, memo),
            params.n_operators, adversary, max_rounds=10_000, seed=seed,
            frame_bytes=frame_bytes, record_transcript=True)
        machines = oracle.participants
        assert result.rounds == oracle.round
        # repr tells 0.0 from -0.0, which == does not
        assert repr(result.outputs) == repr({op: m.output for op, m in machines.items()})
        assert repr([m.history for m in result.bus.participants.values()]) == repr(
            [m.history for m in machines.values()])
        for counter in ("originated", "delivered", "received"):
            assert getattr(result.bus, counter) == getattr(oracle, counter)
        assert result.bus.transcript == oracle.transcript


class TestWorkCounts:
    def test_rotating_liar_run_encodes_each_message_once(self, work_counts):
        """Pins the work of one N=10, f=3 run under a rotating value-liar.

        The run has 7 exchange rounds and a halt round; round r is controlled
        by operators r+1..r+3. Each round the 3 controlled operators send one
        lie shared by all recipients: 3 * 8 = 24 sizings. Honest operators
        send one value message object per value: every operator holds 1.85
        from the first exchange to the end, so operators 4-10 send their
        input in round 0 and then 1.85, and operators 1-3, controlled in
        round 0, only 1.85: 7 * 2 + 3 = 17. The 7 operators honest in the
        halt round each send one halt notice: 24 + 17 + 7 = 48. A new value
        message every round gave 8 * 10 = 80, and a lie per recipient 296.
        """
        params = make_params(10, 3)
        values = {op: 1.0 + 0.1 * op for op in params.operator_ids()}
        adversary = AdversaryStrategy(netsim.VALUE_LIAR, frozenset({1, 2, 3}), rotate=True)
        result = run_approx(params, values, adversary=adversary)
        assert result.rounds == 8
        assert {v for row in result.values_by_round[1:] for v in row.values()} == {1.85}
        assert work_counts == {"size": 3 * 8 + 7 * 2 + 3 + 7, "sign": 0, "verify": 0}

    def test_halt_notice_encoded_once_however_long_halted(self, work_counts):
        """Pins the work of a fault-free N=4, f=1 run.

        Each operator sends its input in round 0, then the average 2.5 that
        every operator holds from the first exchange on, as one message object
        for the remaining h - 1 = 4 exchange rounds, then one halt notice
        object, built once and resent every later round: 4 * 3 = 12 sizings
        for any h. A new value message every round gave 4h + 4 = 24.
        """
        params = make_params()
        values = {op: float(op) for op in params.operator_ids()}
        result = run_approx(params, values)
        h = result.rounds - 1
        assert h == 5
        assert {v for row in result.values_by_round[1:] for v in row.values()} == {2.5}
        assert work_counts["size"] == 4 * 3
        # the same run kept going for 5 more rounds: every operator stays halted
        bus = netsim.RoundBus([approx.ApproxOperator(op, params, value, netsim.RoundMemo())
                               for op, value in values.items()])
        for _ in range(h + 6):
            bus.run_round()
        assert all(bus.participants[op].halted for op in values)
        assert work_counts == {"size": 2 * 4 * 3, "sign": 0, "verify": 0}

    def test_horizon_derived_once_per_distinct_first_spread(self, monkeypatch):
        """An equivocator splits the N=7, f=2 operators between two inboxes
        in round 0, so they see two first spreads: round_count runs twice per
        instance, where each operator deriving its own horizon ran it 7 times."""
        spreads = []
        original = approx.round_count

        def counted(delta, zeta, c):
            spreads.append(delta)
            return original(delta, zeta, c)

        monkeypatch.setattr(approx, "round_count", counted)
        params = make_params(7, 2, zeta=0.01)
        values = {op: 1.0 + 0.1 * op for op in params.operator_ids()}
        adversary = AdversaryStrategy(netsim.EQUIVOCATE, frozenset({1, 2}))
        for instance in (1, 2):  # a second instance derives its own
            result = run_approx(params, values, seed=3, adversary=adversary)
            distinct = set(result.first_spreads.values())
            assert len(distinct) == 2
            assert len(spreads) == 2 * instance
            assert set(spreads[-2:]) == distinct

    def test_rotating_liar_run_averages_once_per_round(self, average_calls):
        """Every honest operator reads the same shared inbox each round, so a
        round averages once. The N=10, f=3 run below exchanges in 10 of its
        11 rounds; averaging per operator made 100 calls.
        """
        params = make_params(10, 3, zeta=0.01)
        values = {op: 1.0 + 0.1 * op for op in params.operator_ids()}
        adversary = AdversaryStrategy(netsim.VALUE_LIAR, frozenset({1, 2, 3}), rotate=True)
        result = run_approx(params, values, adversary=adversary)
        assert result.rounds == 11
        assert average_calls == {"average": 10}

    def test_fault_free_run_averages_once_per_exchange(self, average_calls):
        """A fault-free N=4, f=1 run averages once in each of its h exchange
        rounds; averaging per operator made 4h calls."""
        params = make_params()
        h = run_approx(params, {op: float(op) for op in params.operator_ids()}).rounds - 1
        assert h > 1
        assert average_calls == {"average": h}
