"""Round bus and protocol driver tests: lockstep delivery, byte accounting,
fault injection, round caps and closed-form message counts."""

import ast
import dataclasses
import pathlib
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leobft import approx, auth, binary, exact, netsim
from leobft.model import NetworkParams, UsageTensor
from leobft.netsim import BROADCAST, AdversaryStrategy, Message, RoundBus


class Echo:
    """Minimal participant: broadcasts one value message per round."""

    HALT_KINDS = frozenset()

    def __init__(self, operator_id, value=1.0, kind=netsim.KIND_VAL):
        self.operator_id = operator_id
        self.value = value
        self.kind = kind
        self.halted = False
        self.seen = []

    def outgoing(self, round_no):
        return [(BROADCAST, Message(self.operator_id, self.kind, (self.value,)))]

    def deliver(self, round_no, inbox):
        self.seen.append({snd: list(msgs) for snd, msgs in inbox.items()})


class Silent(Echo):
    def outgoing(self, round_no):
        return []


class Scripted(Echo):
    """Sends script[round_no], a list of (destination, message) pairs."""

    def __init__(self, operator_id, script):
        super().__init__(operator_id)
        self.script = script

    def outgoing(self, round_no):
        return self.script[round_no]


def reference_round(ids, outboxes, frame_bytes, round_no):
    """One round delivered recipient by recipient into fresh lists.

    Returns (inboxes, originated, delivered, received, transcript rows) for
    outboxes mapping each operator to its (destination, message) pairs. A
    tuple destination is one copy per listed id, each originating its size.
    """
    inboxes = {rcv: {snd: [] for snd in ids} for rcv in ids}
    originated, delivered, received = ({op: 0 for op in ids} for _ in range(3))
    rows = []
    for op in ids:
        for dest, msg in outboxes[op]:
            size = msg.raw_size()
            if frame_bytes is not None:
                size = max(size, frame_bytes)
            if isinstance(dest, tuple):
                recipients = dest
                originated[op] += size * len(dest)
            else:
                recipients = ids if dest == BROADCAST else [dest]
                originated[op] += size
            for rcv in recipients:
                inboxes[rcv][op].append(msg)
                if rcv != op:
                    delivered[op] += size
                    received[rcv] += size
                rows.append((round_no, op, rcv, msg.kind, size))
    return inboxes, originated, delivered, received, rows


@st.composite
def round_scripts(draw):
    """(ids, frame_bytes, {op: [outbox per round]}) over a few senders.

    Each sender picks from a pool of at most three messages, so a message can
    go to one peer several times, by address, by group and by broadcast
    alike. A group may repeat ids, be empty or list every id; an empty outbox
    is a silent sender.
    """
    ids = list(range(1, draw(st.integers(1, 6)) + 1))
    frame_bytes = draw(st.none() | st.integers(0, 30))
    n_rounds = draw(st.integers(1, 3))
    dests = (st.sampled_from([BROADCAST, tuple(ids), ()] + ids)
             | st.lists(st.sampled_from(ids), max_size=2 * len(ids)).map(tuple))
    scripts = {}
    for op in ids:
        pool = [Message(op, kind, (value,)) for kind, value in draw(st.lists(
            st.tuples(st.sampled_from([netsim.KIND_VAL, netsim.KIND_BIT, "blob"]),
                      st.integers(-10**30, 10**30)), min_size=1, max_size=3))]
        outbox = st.lists(st.tuples(dests, st.sampled_from(pool)), max_size=6)
        scripts[op] = [draw(outbox) for _ in range(n_rounds)]
    return ids, frame_bytes, scripts


def make_bus(n=5, frame_bytes=None, cls=Echo, seed=0, adversary=None, **kwargs):
    return RoundBus([cls(op, value=float(op)) for op in range(1, n + 1)], adversary,
                    seed=seed, frame_bytes=frame_bytes, **kwargs)


class TestRoundBus:
    def test_same_round_delivery(self):
        bus = make_bus(3)
        bus.run_round()
        for op in (1, 2, 3):
            inbox = bus.participants[op].seen[0]
            assert set(inbox) == {1, 2, 3}
            for snd in (1, 2, 3):
                assert inbox[snd][0].body == (float(snd),)

    def test_broadcast_includes_self(self):
        bus = make_bus(3)
        bus.run_round()
        assert bus.participants[2].seen[0][2][0].body == (2.0,)

    def test_absent_sender_has_empty_inbox_entry(self):
        bus = RoundBus([Echo(1), Silent(2), Echo(3)])
        bus.run_round()
        inbox = bus.participants[1].seen[0]
        assert inbox[2] == []
        assert len(inbox[3]) == 1

    def test_inbox_lists_senders_in_id_order_and_absence_is_falsy(self):
        bus = RoundBus([Echo(3), Silent(2), Echo(1)])
        inboxes = bus.run_round()
        assert list(inboxes) == [1, 2, 3]
        for inbox in inboxes.values():
            assert list(inbox) == [1, 2, 3]
            assert not inbox[2] and len(inbox[2]) == 0
            assert len(inbox[1]) == len(inbox[3]) == 1

    @given(round_scripts())
    @settings(max_examples=200, deadline=None)
    # groups that list their own sender twice: neither copy is delivered or received
    @example(([1, 2, 3], None, {1: [[((1, 2, 1), Message(1, netsim.KIND_VAL, (7,)))]],
                                2: [[]], 3: [[]]}))
    @example(([1, 2], 30, {1: [[((1, 1, 2), Message(1, netsim.KIND_VAL, (7,))),
                                (2, Message(1, netsim.KIND_BIT, (1,)))]],
                           2: [[((2, 1, 2), Message(2, netsim.KIND_VAL, (-10**30,)))]]}))
    # one message to every operator: by BROADCAST and by the id tuple share
    # the base inbox; the ids in another order keep their listed order
    @example(([1, 2, 3], None, {1: [[(BROADCAST, Message(1, netsim.KIND_VAL, (7,)))]],
                                2: [[((1, 2, 3), Message(2, netsim.KIND_VAL, (8,)))]],
                                3: [[((3, 1, 2), Message(3, netsim.KIND_VAL, (9,)))]]}))
    # senders listing only themselves, beside whole-bus messages under a frame floor
    @example(([1, 2, 3], 30, {
        1: [[(1, Message(1, netsim.KIND_VAL, (7,)))], [(BROADCAST, Message(1, "blob", (1,)))]],
        2: [[((2,), Message(2, netsim.KIND_BIT, (1,)))], [((2, 2), Message(2, "blob", (2,)))]],
        3: [[(BROADCAST, Message(3, netsim.KIND_VAL, (-10**30,)))],
            [((1, 2, 3), Message(3, netsim.KIND_VAL, (5,)))]]}))
    def test_run_round_matches_per_recipient_delivery(self, case):
        ids, frame_bytes, scripts = case
        bus = RoundBus([Scripted(op, scripts[op]) for op in ids], frame_bytes=frame_bytes,
                       record_transcript=True)
        totals = [{op: 0 for op in ids} for _ in range(3)]
        rows = []
        for round_no in range(len(scripts[ids[0]])):
            inboxes = bus.run_round()
            want, *counts, want_rows = reference_round(
                ids, {op: scripts[op][round_no] for op in ids}, frame_bytes, round_no)
            assert list(inboxes) == ids
            for rcv in ids:
                assert list(inboxes[rcv]) == ids
                for snd in ids:
                    got = inboxes[rcv][snd]
                    assert [id(m) for m in got] == [id(m) for m in want[rcv][snd]]
            for total, count in zip(totals, counts):
                for op in ids:
                    total[op] += count[op]
            rows += want_rows
            assert [bus.originated, bus.delivered, bus.received] == totals
            assert bus.transcript == rows

    @pytest.mark.parametrize("dest", [4, (2, 4), (4,)], ids=["id", "group", "lone-group"])
    def test_unknown_destination_rejected(self, dest):
        bus = RoundBus([Scripted(1, [[(dest, Message(1, netsim.KIND_VAL, (1.0,)))]]),
                        Echo(2), Echo(3)])
        with pytest.raises(netsim.HarnessError, match="not on this bus"):
            bus.run_round()

    @pytest.mark.parametrize("adversary", [
        None, AdversaryStrategy(netsim.VALUE_LIAR, frozenset({1}), rotate=True)],
        ids=["fault-free", "rotating-value-liar"])
    def test_one_inbox_shared_when_every_sender_broadcasts_one_message(self, adversary):
        # a value liar's lie goes to every operator, so it shares the inbox too
        params = NetworkParams(4, 1, 0.05, zeta=0.1, alpha=0.5, rssi_threshold=0.5)
        bus = RoundBus([approx.ApproxOperator(op, params, float(op)) for op in (1, 2, 3, 4)],
                       adversary)
        for _ in range(4):
            inboxes = bus.run_round()
            assert len({id(inbox) for inbox in inboxes.values()}) == 1

    def test_round_counter_advances(self):
        bus = make_bus(3)
        assert bus.round == 0
        bus.run_round()
        bus.run_round()
        assert bus.round == 2

    def test_sender_forgery_rejected(self):
        class Forger(Echo):
            def outgoing(self, round_no):
                return [(BROADCAST, Message(self.operator_id + 1, netsim.KIND_VAL, (0.0,)))]

        bus = RoundBus([Forger(1), Echo(2), Echo(3)])
        with pytest.raises(netsim.HarnessError):
            bus.run_round()

    def test_halted_operator_may_only_send_allowed_kinds(self):
        class HaltedChatter(Echo):
            HALT_KINDS = frozenset({"cert"})

            def __init__(self, operator_id, value=1.0):
                super().__init__(operator_id, value)
                self.halted = True

        bus = RoundBus([HaltedChatter(1), Echo(2)])
        with pytest.raises(netsim.HarnessError):
            bus.run_round()


class TestRunInstance:
    def test_round_cap(self):
        # Echo never halts: exactly max_rounds rounds run, then the cap raises
        machines = []

        def make(op, value):
            machines.append(Echo(op, value=value))
            return machines[-1]

        with pytest.raises(netsim.HarnessError, match="round cap 4 exceeded"):
            netsim.run_instance({1: 1.0, 2: 2.0, 3: 3.0}, make, 3, None, max_rounds=4)
        assert [len(m.seen) for m in machines] == [4, 4, 4]

    @pytest.mark.parametrize("n, f", [(4, 1), (7, 2), (10, 3), (13, 4)])
    def test_fault_free_message_counts(self, n, f):
        # each protocol's closed-form transcript size of one fault-free instance
        params = NetworkParams(n, f, 0.05, zeta=0.1, alpha=0.5, rssi_threshold=0.5)
        ids = range(1, n + 1)

        result = exact.run_exact(params, {op: float(op) for op in ids},
                                 record_transcript=True)
        assert len(result.bus.transcript) == exact.fault_free_messages(n)
        assert result.rounds == f + 1

        result = approx.run_approx(params, {op: float(op) for op in ids},
                                   record_transcript=True)
        h = max(1, approx.round_count(n - 1, params.zeta, approx.shrink_factor(n, f)))
        assert len(result.bus.transcript) == approx.fault_free_messages(n, h)
        assert result.rounds == h + 1

        for bit, rounds in ((0, 1), (1, 2)):
            result = binary.run_binary(params, {op: bit for op in ids},
                                       record_transcript=True)
            assert len(result.bus.transcript) == binary.fault_free_messages(n, bit)
            assert result.rounds == rounds

    def test_closed_forms_by_hand(self):
        # N=4: 16 first-round copies + 4 relayers x 3 origins x 2 peers; N=10
        # is cubic in N against the quadratic approx and binary counts
        assert [exact.fault_free_messages(n) for n in (4, 10)] == [40, 820]
        assert [approx.fault_free_messages(n, h) for n, h in ((4, 1), (10, 6))] == [32, 700]
        assert [binary.fault_free_messages(n, bit) for n, bit in ((4, 0), (4, 1))] == [16, 32]

    def test_round_bus_built_only_by_run_instance(self):
        # one driver: a protocol that builds its own bus bypasses run_instance
        builders = []
        for path in sorted(pathlib.Path(netsim.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            parents = {child: node for node in ast.walk(tree)
                       for child in ast.iter_child_nodes(node)}
            for node in ast.walk(tree):
                func = getattr(node, "func", None)
                if getattr(func, "id", getattr(func, "attr", None)) != "RoundBus":
                    continue
                while node in parents and not isinstance(node, ast.FunctionDef):
                    node = parents[node]
                builders.append((path.name, getattr(node, "name", "<module>")))
        assert builders == [("netsim.py", "run_instance")]


class TestReadOnlyInboxes:
    @pytest.mark.parametrize("adversary", [
        None, AdversaryStrategy(netsim.VALUE_LIAR, frozenset({1}), rotate=True)],
        ids=["fault-free", "rotating-value-liar"])
    def test_no_protocol_mutates_its_inbox(self, adversary, monkeypatch):
        # receivers may share one inbox, so a change one deliver makes to it
        # would reach its peers
        def snapshot(inbox):
            return [(snd, [id(m) for m in msgs]) for snd, msgs in inbox.items()]

        def guarded(deliver):
            def wrapper(self, round_no, inbox):
                before = snapshot(inbox)
                deliver(self, round_no, inbox)
                assert snapshot(inbox) == before, type(self).__name__
                checked.append(type(self))
            return wrapper

        checked = []
        for cls in (approx.ApproxOperator, binary.BinaryOperator, exact.ExactOperator):
            monkeypatch.setattr(cls, "deliver", guarded(cls.deliver))
        params = NetworkParams(4, 1, 0.05, zeta=0.1, alpha=0.5, rssi_threshold=0.5)
        ids = range(1, 5)
        approx.run_approx(params, {op: float(op) for op in ids}, adversary=adversary)
        binary.run_binary(params, {op: op % 2 for op in ids}, adversary=adversary)
        exact.run_exact(params, {op: float(op) for op in ids}, adversary=adversary)
        assert set(checked) == {approx.ApproxOperator, binary.BinaryOperator,
                                exact.ExactOperator}


_MESSAGES = [
    (Message, (3, netsim.KIND_VAL, (1.5,)), "Message(sender=3, kind='val', body=(1.5,))"),
    (auth.SignedMessage, (b"usage", (2, 4), (b"\x01", b"\x02")),
     "SignedMessage(payload=b'usage', signers=(2, 4), tags=(b'\\x01', b'\\x02'))"),
]


class TestFrozenMessages:
    """Message and SignedMessage write their fields without object.__setattr__
    and keep every frozen-dataclass behaviour."""

    @pytest.mark.parametrize("cls, args, text", _MESSAGES, ids=["Message", "SignedMessage"])
    def test_dataclass_behaviour(self, cls, args, text):
        msg = cls(*args)
        names = [f.name for f in dataclasses.fields(cls)]
        assert cls(**dict(zip(names, args))) == msg
        assert hash(cls(*args)) == hash(msg) and cls(*args) is not msg
        assert repr(msg) == text
        assert [getattr(msg, name) for name in names] == list(args)
        other = dataclasses.replace(msg, **{names[0]: args[0] * 2})
        assert other != msg and getattr(other, names[0]) == args[0] * 2
        assert getattr(other, names[1]) == args[1]
        size = msg.raw_size() if cls is Message else msg.encoded_size()
        restored = pickle.loads(pickle.dumps(msg))
        assert restored == msg and hash(restored) == hash(msg)
        assert (restored.raw_size() if cls is Message else restored.encoded_size()) == size
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(msg, names[0], args[0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(msg, names[2])
        assert msg == cls(*args)

    def test_replaced_message_is_sized_afresh(self):
        msg = Message(1, netsim.KIND_VAL, (7,))
        assert msg.raw_size() == len(msg.canonical_bytes())
        longer = dataclasses.replace(msg, body=(7000,))
        assert longer.raw_size() == len(longer.canonical_bytes()) == msg.raw_size() + 3


class _Float(float):
    pass


@st.composite
def signed_chains(draw, n=10):
    """A chain of 1 to n signers over an exact-profile payload, built by
    make_signed and extend_signed or, as a forger would, bare."""
    registry = auth.KeyRegistry(range(1, n + 1), 3)
    signers = draw(st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True))
    payload = auth.encode("usage", "mv", signers[0], draw(st.floats()))
    msg = auth.make_signed(registry, signers[0], payload)
    for op in signers[1:]:
        msg = auth.extend_signed(registry, msg, op, auth.verify_signed(registry, msg))
    return msg if draw(st.booleans()) else auth.SignedMessage(payload, msg.signers, msg.tags)


def _tensor(value: float) -> UsageTensor:
    tensor = UsageTensor(2, (1, 1, 1))
    tensor.set((0, 0, 0), value)
    return tensor


# every body part the protocols send: bits, values, tags and signed chains; and
# a nested part with canonical_bytes but no encoded_size of its own
BODY_PARTS = st.one_of(
    st.sampled_from([0, 1, 0.0, -0.0, 10**40, -10**40]),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats().map(np.float64),
    st.floats().map(_Float),
    st.binary(min_size=auth.TAG_BYTES, max_size=auth.TAG_BYTES),
    signed_chains(),
    st.floats(-1e6, 1e6).map(_tensor),
)


KINDS = st.sampled_from([netsim.KIND_BIT, netsim.KIND_CERT, netsim.KIND_VAL,
                         netsim.KIND_HALTED, netsim.KIND_BCAST])


def _size_outcomes(sender, kind, body):
    """(raw_size(), len(canonical_bytes())) of a fresh message, an exception
    standing for its type."""
    outcomes = []
    for size in (lambda m: m.raw_size(), lambda m: len(m.canonical_bytes())):
        try:
            outcomes.append(size(Message(sender, kind, body)))
        except Exception as err:  # the exception type is part of the contract
            outcomes.append(type(err))
    return tuple(outcomes)


class TestSizeParity:
    @given(KINDS, st.integers(1, 10**6), st.lists(BODY_PARTS, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_raw_size_is_the_encoded_length(self, kind, sender, body):
        msg = Message(sender, kind, tuple(body))
        assert msg.raw_size() == len(msg.canonical_bytes())
        for part in body:
            if isinstance(part, auth.SignedMessage):
                assert part.encoded_size() == len(part.canonical_bytes())

    @given(KINDS, st.integers(), st.lists(st.lists(BODY_PARTS, max_size=4), min_size=2,
                                          max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_one_header_serves_bodies_of_any_type_and_length(self, kind, sender, bodies):
        for body in bodies:
            msg = Message(sender, kind, tuple(body))
            assert msg.raw_size() == len(msg.canonical_bytes())

    @pytest.mark.parametrize("sender", [1, 0, -7, 10**40])
    def test_empty_body_is_the_header_alone(self, sender):
        msg = Message(sender, netsim.KIND_VAL, ())
        assert msg.raw_size() == len(msg.canonical_bytes()) == len(b"val|%d" % sender)

    @pytest.mark.parametrize("kind", ["a|b", True, None, ["val"], 1.5],
                             ids=["pipe", "bool", "none", "list", "float"])
    def test_odd_kinds_size_or_raise_as_encode_does(self, kind):
        for body in ((), (0.5,)):
            first, second = _size_outcomes(3, kind, body), _size_outcomes(3, kind, body)
            assert first == second
            assert first[0] == first[1]
        # a rejected kind leaves the sender's other headers as they were
        assert _size_outcomes(3, netsim.KIND_VAL, (0.5,)) == (9, 9)

    def test_equal_senders_of_other_types_size_apart(self):
        # 1, 1.0, True and np.int64(1) are equal keys, as are 0.0 and -0.0,
        # but encode differently or not at all
        senders = [1, 1.0, True, np.int64(1), 0.0, -0.0, np.float64(-0.0), _Float(1.0)]
        for order in (senders, senders[::-1]):
            for sender in order:
                for body in ((), (0.5,)):
                    raw, encoded = _size_outcomes(sender, netsim.KIND_VAL, body)
                    assert raw == encoded, (sender, body)


class TestByteAccounting:
    def test_framed_broadcast_delivers_frame_size_per_peer(self):
        # a 200-byte frame to 4 peers adds 800 delivered bytes per round
        bus = make_bus(5, frame_bytes=200)
        bus.run_round()
        for op in range(1, 6):
            assert bus.delivered[op] == 800
            assert bus.received[op] == 800
            assert bus.originated[op] == 200
            assert bus.originated[op] + bus.received[op] == 1000

    def test_exchanged_counts_each_origination_once(self):
        bus = make_bus(5, frame_bytes=200)
        for _ in range(10):
            bus.run_round()
        for op in range(1, 6):
            assert bus.originated[op] + bus.received[op] == 10 * (200 + 4 * 200)

    def test_frame_is_a_floor_not_a_truncation(self):
        class Chatty(Echo):
            def outgoing(self, round_no):
                return [(BROADCAST, Message(self.operator_id, "blob", ("x" * 500,)))]

        bus = RoundBus([Chatty(1), Silent(2)], frame_bytes=200)
        bus.run_round()
        assert bus.originated[1] > 200

    def test_unframed_size_is_canonical_length(self):
        msg = Message(1, netsim.KIND_VAL, (2.5,))
        bus = RoundBus([Echo(1, value=2.5), Silent(2)])
        bus.run_round()
        assert bus.originated[1] == len(msg.canonical_bytes())

    def test_point_to_point_counts_one_recipient(self):
        class Direct(Echo):
            def outgoing(self, round_no):
                return [(2, Message(self.operator_id, netsim.KIND_VAL, (1.0,)))]

        bus = RoundBus([Direct(1), Silent(2), Silent(3)], frame_bytes=100)
        bus.run_round()
        assert bus.originated[1] == 100
        assert bus.delivered[1] == 100
        assert bus.received[2] == 100
        assert bus.received[3] == 0

    def test_shared_message_encoded_once_per_round(self, work_counts):
        class Fanout(Echo):
            msg = Message(1, netsim.KIND_VAL, (2.5,))

            def outgoing(self, round_no):
                return [(dest, self.msg) for dest in (2, 3, 4)]

        bus = RoundBus([Fanout(1), Silent(2), Silent(3), Silent(4)], record_transcript=True)
        bus.run_round()
        bus.run_round()
        # sized once in the object's lifetime, not once a round
        assert work_counts["size"] == 1
        size = len(Fanout.msg.canonical_bytes())
        assert bus.originated == {1: 6 * size, 2: 0, 3: 0, 4: 0}
        assert bus.delivered == {1: 6 * size, 2: 0, 3: 0, 4: 0}
        assert bus.received == {1: 0, 2: 2 * size, 3: 2 * size, 4: 2 * size}
        assert [row[2:] for row in bus.transcript] == [
            (dest, netsim.KIND_VAL, size) for dest in (2, 3, 4)] * 2

    def test_signed_zeros_are_two_messages_of_two_sizes(self):
        # 0.0 == -0.0 but they encode to different lengths, so lies are
        # shared by recipient group, never by value equality
        bus = make_bus(4, adversary=AdversaryStrategy(
            netsim.EQUIVOCATE, frozenset({2}), params={"values": [0.0, -0.0]}))
        bus.run_round()
        sent = [bus.participants[op].seen[0][2][0] for op in (1, 2, 3, 4)]
        assert sent[0] is sent[1] and sent[2] is sent[3] and sent[1] is not sent[2]
        assert [m.canonical_bytes() for m in sent] == [b"val|2|0.0"] * 2 + [b"val|2|-0.0"] * 2
        positive, negative = len(b"val|2|0.0"), len(b"val|2|-0.0")  # 9 and 10
        # one unicast per recipient; the self-delivery to 2 is not delivered
        assert bus.originated[2] == 2 * positive + 2 * negative
        assert bus.delivered[2] == positive + 2 * negative
        honest = len(b"val|1|1.0")  # 1, 3 and 4 send their own id as a float
        assert bus.received == {1: 2 * honest + positive, 2: 3 * honest,
                                3: 2 * honest + negative, 4: 2 * honest + negative}

    def test_transcript_records_every_delivery(self):
        bus = make_bus(3, record_transcript=True)
        bus.run_round()
        rows = bus.transcript
        assert len(rows) == 9  # 3 broadcasts x 3 recipients
        assert all(row[0] == 0 for row in rows)


def _reference_lie_values(strategy, base, recipients, rng):
    """The value lies as a per-kind substitute wrote them: each per-recipient
    lie goes to a one-id tuple."""
    behavior, params = strategy.behavior, strategy.params
    if behavior == netsim.EQUIVOCATE:
        delta = float(params.get("delta", 1.0))
        lo, hi = params.get("values", (base - delta, base + delta))
        lows, highs = netsim._halves(recipients)
        return [(float(v), group) for v, group in ((lo, lows), (hi, highs)) if group]
    if behavior == netsim.RANDOM_VALUES:
        lo, hi = params.get("range", (-100.0, 100.0))
        return [(rng.uniform(lo, hi), (r,)) for r in recipients]
    if behavior == netsim.BOUNDARY_ATTACKER:
        mid = float(params.get("threshold", 0.0))
        eps = float(params.get("epsilon", 1.0))
        return [(mid + eps * (2 * rng.random() - 1), (r,)) for r in recipients]
    value = float(params.get("value", base + params.get("offset", netsim.DEFAULT_OFFSET)))
    return [(value, recipients)]


def reference_substitute(strategy, op, round_no, intended, all_ids, rng, participant):
    """AdversaryStrategy.substitute with a branch of its own per behaviour for
    bits: the rule the single lie table must reproduce, recipient by
    recipient."""
    behavior, params = strategy.behavior, strategy.params
    if behavior == netsim.CRASH:
        return []
    if behavior == netsim.BAD_PROPOSER:
        return intended
    out = []
    for dest, msg in intended:
        recipients = netsim._recipients(dest, all_ids)
        if msg.kind in (netsim.KIND_BIT, netsim.KIND_CERT):
            original = int(msg.body[0])
            if behavior == netsim.EQUIVOCATE:
                lows, highs = netsim._halves(recipients)
                b0, b1 = params.get("bits", (0, 1))
                out.append((lows, Message(op, netsim.KIND_BIT, (b0,))))
                out.append((highs, Message(op, netsim.KIND_BIT, (b1,))))
            elif behavior in (netsim.RANDOM_VALUES, netsim.BOUNDARY_ATTACKER):
                bits = (Message(op, netsim.KIND_BIT, (0,)), Message(op, netsim.KIND_BIT, (1,)))
                out.extend((r, bits[rng.randint(0, 1)]) for r in recipients)
            else:
                lie = Message(op, netsim.KIND_BIT, (params.get("bit", 1 - original),))
                out.append((recipients, lie))
        elif msg.kind in (netsim.KIND_VAL, netsim.KIND_HALTED):
            original_value = float(msg.body[0])
            if params.get("fake_halt"):
                if round_no == 0:
                    notice = Message(op, netsim.KIND_HALTED,
                                     (float(params.get("value", original_value)),))
                    out.append((recipients, notice))
                continue
            for value, group in _reference_lie_values(strategy, original_value, recipients, rng):
                out.append((group, Message(op, netsim.KIND_VAL, (value,))))
        elif msg.kind == netsim.KIND_BCAST:
            signed = msg.body[0]
            if signed.signers == (op,) and hasattr(participant, "make_own_broadcast"):
                base = float(participant.initial_value)
                for value, group in _reference_lie_values(strategy, base, recipients, rng):
                    out.append((group, participant.make_own_broadcast(value)))
            else:
                if behavior == netsim.EQUIVOCATE:
                    recipients = netsim._halves(recipients)[0] if dest == BROADCAST else ()
                elif behavior == netsim.RANDOM_VALUES:
                    recipients = tuple(r for r in recipients if rng.random() < 0.5)
                out.append((recipients, msg))
        else:
            out.append((recipients, msg))
    return out


class Broadcaster:
    """An exact operator's part in substitute: its input and its own broadcasts."""

    def __init__(self, operator_id, initial_value):
        self.operator_id = operator_id
        self.initial_value = initial_value

    def make_own_broadcast(self, value):
        return Message(self.operator_id, netsim.KIND_BCAST, ("own", value))


def _param_values(key):
    number = st.one_of(st.floats(-1e100, 1e100), st.integers(-10**6, 10**6))
    return {
        "values": st.tuples(number, number), "range": st.tuples(number, number),
        "bits": st.tuples(st.sampled_from([0, 1]), st.sampled_from([0, 1])),
        "bit": st.sampled_from([0, 1]), "fake_halt": st.booleans(),
    }.get(key, number)


@st.composite
def substitutions(draw):
    """(strategy, op, round_no, intended, ids, seed, participant) for one
    controlled sender: 1 to 3 messages of any kind, each to BROADCAST, a
    tuple of ids (possibly empty, out of order or repeating) or one id."""
    ids = tuple(range(1, draw(st.integers(1, 13)) + 1))
    op = draw(st.sampled_from(ids))
    keys = draw(st.lists(st.sampled_from(sorted(netsim.PARAM_TYPES)), unique=True))
    params = {key: draw(_param_values(key)) for key in keys}
    strategy = AdversaryStrategy(draw(st.sampled_from(netsim.BEHAVIORS)), frozenset({op}),
                                 params=params)
    dests = st.one_of(st.just(BROADCAST), st.sampled_from(ids),
                      st.lists(st.sampled_from(ids), max_size=2 * len(ids)).map(tuple))
    bodies = {
        netsim.KIND_BIT: st.tuples(st.sampled_from([0, 1])),
        netsim.KIND_CERT: st.tuples(st.sampled_from([0, 1]), st.just(b"t" * auth.TAG_BYTES)),
        netsim.KIND_VAL: st.tuples(st.floats(-1e6, 1e6)),
        netsim.KIND_HALTED: st.tuples(st.floats(-1e6, 1e6)),
        netsim.KIND_BCAST: st.sampled_from([(op,), (op % len(ids) + 1, op)]).map(
            lambda signers: (auth.SignedMessage(b"payload", signers, ()),)),
        "blob": st.tuples(st.integers()),
    }
    intended = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(sorted(bodies)))
        intended.append((draw(dests), Message(op, kind, draw(bodies[kind]))))
    participant = (Broadcaster(op, draw(st.floats(-1e6, 1e6))) if draw(st.booleans())
                   else Echo(op))
    return (strategy, op, draw(st.integers(0, 3)), intended, ids,
            draw(st.integers(0, 2**63)), participant)


def _expand(outbound, ids):
    """(recipient, sender, kind, repr of body) per delivered copy, in sending order."""
    return [(rcv, msg.sender, msg.kind, repr(msg.body))
            for dest, msg in outbound for rcv in netsim._recipients(dest, ids)]


class TestAdversarySubstitution:
    def test_crash_sends_nothing(self):
        bus = make_bus(4, adversary=AdversaryStrategy(netsim.CRASH, frozenset({2})))
        bus.run_round()
        inbox = bus.participants[1].seen[0]
        assert inbox[2] == []
        assert len(inbox[3]) == 1

    def test_equivocate_splits_value_recipients(self):
        bus = make_bus(4, adversary=AdversaryStrategy(
            netsim.EQUIVOCATE, frozenset({2}), params={"values": (3.0, 9.0)}))
        bus.run_round()
        got = {op: bus.participants[op].seen[0][2][0].body[0] for op in (1, 2, 3, 4)}
        assert sorted(set(got.values())) == [3.0, 9.0]
        # both halves are non-empty with four recipients
        assert 1 <= sum(1 for v in got.values() if v == 3.0) <= 3

    def test_value_liar_shifts_value(self):
        bus = make_bus(4, adversary=AdversaryStrategy(
            netsim.VALUE_LIAR, frozenset({3}), params={"offset": 10.0}))
        bus.run_round()
        for op in (1, 2, 4):
            assert bus.participants[op].seen[0][3][0].body[0] == 13.0

    def test_random_values_stay_in_range(self):
        bus = make_bus(4, adversary=AdversaryStrategy(
            netsim.RANDOM_VALUES, frozenset({1}), params={"range": (-2.0, 2.0)}))
        for _ in range(10):
            bus.run_round()
        for seen in bus.participants[2].seen:
            value = seen[1][0].body[0]
            assert -2.0 <= value <= 2.0

    def test_boundary_attacker_hugs_threshold(self):
        bus = make_bus(4, adversary=AdversaryStrategy(
            netsim.BOUNDARY_ATTACKER, frozenset({1}),
            params={"threshold": 0.5, "epsilon": 0.05}))
        for _ in range(10):
            bus.run_round()
        for seen in bus.participants[3].seen:
            value = seen[1][0].body[0]
            assert abs(value - 0.5) <= 0.05

    def test_bad_proposer_leaves_protocol_traffic_alone(self):
        bus = make_bus(4, adversary=AdversaryStrategy(netsim.BAD_PROPOSER, frozenset({2})))
        bus.run_round()
        assert bus.participants[1].seen[0][2][0].body == (2.0,)

    def test_substitution_is_deterministic_per_seed(self):
        def run(seed):
            bus = make_bus(4, seed=seed, adversary=AdversaryStrategy(
                netsim.RANDOM_VALUES, frozenset({1}), params={"range": (0.0, 1.0)}))
            bus.run_round()
            return bus.participants[2].seen[0][1][0].body[0]

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_rotating_control_cycles_in_id_order(self):
        strategy = AdversaryStrategy(netsim.CRASH, frozenset({1}), rotate=True)
        ids = [1, 2, 3, 4]
        assert strategy.controlled_at(0, ids) == frozenset({1})
        assert strategy.controlled_at(1, ids) == frozenset({2})
        assert strategy.controlled_at(4, ids) == frozenset({1})
        wide = AdversaryStrategy(netsim.CRASH, frozenset({1, 2}), rotate=True)
        assert wide.controlled_at(3, ids) == frozenset({4, 1})

    def test_unknown_behavior_rejected(self):
        with pytest.raises(ValueError):
            AdversaryStrategy("gossip", frozenset({1}))

    def test_fake_halt_sends_one_notice_then_silence(self):
        bus = make_bus(4, adversary=AdversaryStrategy(
            netsim.VALUE_LIAR, frozenset({2}), params={"fake_halt": True, "value": 42.0}))
        bus.run_round()
        bus.run_round()
        inbox0 = bus.participants[1].seen[0]
        inbox1 = bus.participants[1].seen[1]
        assert inbox0[2][0].kind == netsim.KIND_HALTED
        assert inbox0[2][0].body == (42.0,)
        assert inbox1[2] == []


    def test_substitute_builds_no_message_per_recipient(self):
        # a lie is one object for all its recipients, so the bus sizes it and
        # an exact operator signs it once; a build inside a comprehension or
        # generator makes one per recipient
        tree = ast.parse(pathlib.Path(netsim.__file__).read_text())
        strategy = next(node for node in ast.walk(tree)
                        if isinstance(node, ast.ClassDef) and node.name == "AdversaryStrategy")
        func = next(node for node in strategy.body
                    if isinstance(node, ast.FunctionDef) and node.name == "substitute")
        builds = []
        for node in ast.walk(func):
            if not isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                     ast.GeneratorExp)):
                continue
            for call in ast.walk(node):
                callee = getattr(call, "func", None)
                name = getattr(callee, "id", getattr(callee, "attr", None))
                if name in ("Message", "make_own_broadcast"):
                    builds.append((name, call.lineno))
        assert builds == []

    @settings(max_examples=400, deadline=None)
    @given(substitutions())
    @example((AdversaryStrategy(netsim.EQUIVOCATE, frozenset({1}), params={"bits": (1, 1)}),
              1, 0, [(BROADCAST, Message(1, netsim.KIND_BIT, (0,)))], (1, 2, 3, 4), 0,
              Echo(1)))
    def test_substitute_matches_per_kind_reference(self, case):
        # one lie table for every kind sends what a branch per behaviour for
        # bits sent, recipient by recipient, drawing in the same order
        strategy, op, round_no, intended, ids, seed, participant = case
        got = strategy.substitute(op, round_no, intended, ids,
                                  strategy.rng(seed, op, round_no), participant)
        want = reference_substitute(strategy, op, round_no, intended, ids,
                                    strategy.rng(seed, op, round_no), participant)
        assert _expand(got, ids) == _expand(want, ids)
        # a bad proposer passes its honest traffic through: nothing it sends is a lie
        lies = [(dest, msg) for dest, msg in got
                if msg.kind in (netsim.KIND_BIT, netsim.KIND_VAL)
                and strategy.behavior != netsim.BAD_PROPOSER]
        # an empty half never reaches the bus, and a per-recipient lie names one id
        if strategy.behavior == netsim.EQUIVOCATE:
            assert all(dest != () for dest, _ in lies)
        if strategy.behavior in (netsim.RANDOM_VALUES, netsim.BOUNDARY_ATTACKER):
            assert all(type(dest) is int for dest, _ in lies)
        # bit lies: at most one object per distinct bit
        bits = [msg for _, msg in lies if msg.kind == netsim.KIND_BIT]
        assert len({id(msg) for msg in bits}) == len({msg.body for msg in bits})


class TestLedgerRoles:
    # behavior -> (proposal, vote policy, retrieval answer) derived when a
    # config names neither the proposal nor the vote policy
    DERIVED = {
        "crash": ("crash", "crash", "silent"),
        "bad-proposer": ("corrupt", "honest", "corrupt"),
        "equivocate": ("equivocate", "honest", "corrupt"),
        "value-liar": ("corrupt", "honest", "corrupt"),
        "random-values": ("corrupt", "honest", "corrupt"),
        "boundary-attacker": ("honest", "honest", "honest"),
    }

    @staticmethod
    def _answer(strategy, local):
        answer = strategy.retrieval_answer(local)
        if answer is None:
            return "silent"
        if answer.canonical_bytes() == local.canonical_bytes():
            return "honest"
        assert answer.canonical_bytes() == strategy.corrupt_tensor(local).canonical_bytes()
        return "corrupt"

    def test_roles_derived_from_behavior(self):
        local = UsageTensor(0, (2, 2, 4))
        local.set((1, 0, 2), 0.25)
        assert set(self.DERIVED) == set(netsim.BEHAVIORS)
        for behavior, roles in self.DERIVED.items():
            strategy = AdversaryStrategy(behavior, frozenset({2}))
            assert (strategy.proposal, strategy.vote_policy,
                    self._answer(strategy, local)) == roles, behavior

    @staticmethod
    def _reference_proposals(strategy, local):
        # reference: each proposal style spelled out on its own
        style = strategy.proposal
        if style == "crash":
            return []
        if style == "corrupt":
            return [strategy.corrupt_tensor(local)]
        if style == "equivocate":
            return [local, strategy.corrupt_tensor(local)]
        return [local]

    @staticmethod
    def _reference_answer(strategy, local):
        # reference: each retrieval answer spelled out on its own
        answer = netsim.LEDGER_ROLES[strategy.behavior][2]
        if answer == "crash":
            return None
        return local.copy() if answer == "honest" else strategy.corrupt_tensor(local)

    @pytest.mark.parametrize("proposal", netsim.PROPOSAL_STYLES + (None,))
    @pytest.mark.parametrize("behavior", netsim.BEHAVIORS)
    def test_one_tensor_rule_matches_the_per_phase_rules(self, behavior, proposal):
        local = UsageTensor(0, (2, 2, 4))
        local.set((0, 1, 3), 0.5)
        strategy = AdversaryStrategy(behavior, frozenset({2}), params={"offset": 3.0},
                                     proposal=proposal)

        def forms(tensors):
            return [t.canonical_bytes() for t in tensors]

        assert forms(strategy.proposal_tensors(local)) == forms(
            self._reference_proposals(strategy, local))
        answer, want = (strategy.retrieval_answer(local),
                        self._reference_answer(strategy, local))
        assert (answer is None) == (want is None)
        assert want is None or answer.canonical_bytes() == want.canonical_bytes()
        assert local.entries == {(0, 1, 3): 0.5}  # input untouched

    def test_set_roles_override_the_derived_ones(self):
        strategy = AdversaryStrategy(netsim.CRASH, frozenset({2}), proposal="honest",
                                     vote_policy="approve-all")
        assert (strategy.proposal, strategy.vote_policy) == ("honest", "approve-all")
        with pytest.raises(ValueError, match="proposal"):
            AdversaryStrategy(netsim.CRASH, frozenset({2}), proposal="spam")
        with pytest.raises(ValueError, match="vote_policy"):
            AdversaryStrategy(netsim.CRASH, frozenset({2}), vote_policy="repeat")

    def test_corrupt_tensor_shifts_every_entry_by_offset(self):
        local = UsageTensor(0, (2, 2, 4))
        local.set((0, 1, 3), 0.5)
        local.set((1, 1, 0), -2.0)
        shifted = AdversaryStrategy(netsim.VALUE_LIAR, frozenset({1}),
                                    params={"offset": 3}).corrupt_tensor(local)
        assert shifted.entries == {(0, 1, 3): 3.5, (1, 1, 0): 1.0}
        empty = AdversaryStrategy(netsim.VALUE_LIAR, frozenset({1})).corrupt_tensor(
            UsageTensor(0, (2, 2, 4)))
        assert empty.entries == {(0, 0, 0): netsim.DEFAULT_OFFSET}
        assert local.entries == {(0, 1, 3): 0.5, (1, 1, 0): -2.0}  # input untouched

    def test_behavior_compared_only_in_netsim(self):
        # one module decides how a controlled operator acts in every phase
        readers = []
        for path in sorted(pathlib.Path(netsim.__file__).parent.glob("*.py")):
            if path.name == "netsim.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Compare):
                    operands = [node.left, *node.comparators]
                elif isinstance(node, ast.Subscript):
                    operands = [node.slice]
                else:
                    continue
                if any(isinstance(x, ast.Attribute) and x.attr == "behavior"
                       for x in operands):
                    readers.append((path.name, node.lineno))
        assert readers == []
