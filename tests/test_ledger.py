"""Ledger tests: votes, blocks, chain verification, verdicts, retrieval, audit."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leobft import auth, ledger
from leobft.ledger import (
    TensorLedger,
    approx_vote,
    audit_chain,
    commit_period,
    exact_vote,
    export_chain,
    make_proposal,
    make_rejection,
    parse_proposal,
    retrieve_approx,
    retrieve_exact,
    rotation_proposer,
    verify_proposal,
    verify_rejection,
    verify_verdict,
)
from leobft.netsim import AdversaryStrategy
from leobft.model import NetworkParams, UsageTensor


def make_params(n=4, f=1, alpha=0.5):
    return NetworkParams(n, f, 0.05, zeta=0.1, alpha=alpha, rssi_threshold=0.5)


def make_tensor(period=0, value=0.7, key=(0, 0, 0), dims=(2, 2, 4)):
    t = UsageTensor(period, dims)
    t.set(key, value)
    return t


def quorum_certificate(registry, payload):
    """Votes of operators 1-3 (a quorum at f=1) for payload at period 0, attempt 0."""
    digest = hashlib.sha256(payload).digest()
    context = ledger.vote_context(0, 0)
    return auth.make_certificate(digest, {
        op: registry.sign(op, auth.vote_payload(digest, context)) for op in (1, 2, 3)})


@pytest.fixture
def registry():
    return auth.KeyRegistry(range(1, 5), master_seed=31)


class TestProposalsAndRejections:
    def test_proposal_roundtrip(self, registry):
        prop = make_proposal(registry, 2, period=0, attempt=0, tensor=make_tensor())
        assert verify_proposal(registry, prop)

    def test_tampered_proposal_fails(self, registry):
        prop = make_proposal(registry, 2, 0, 0, make_tensor())
        bad = ledger.Proposal(prop.period, prop.attempt, prop.proposer,
                              prop.payload + b"x", prop.tag)
        assert not verify_proposal(registry, bad)

    def test_proposal_binds_period_and_attempt(self, registry):
        prop = make_proposal(registry, 2, 0, 0, make_tensor())
        moved = ledger.Proposal(1, prop.attempt, prop.proposer, prop.payload, prop.tag)
        assert not verify_proposal(registry, moved)
        moved = ledger.Proposal(prop.period, 1, prop.proposer, prop.payload, prop.tag)
        assert not verify_proposal(registry, moved)

    def test_rejection_roundtrip(self, registry):
        prop = make_proposal(registry, 2, 0, 0, make_tensor())
        rej = make_rejection(registry, 3, prop)
        assert verify_rejection(registry, rej)
        assert rej.digest == prop.digest()
        assert make_rejection(registry, 3, prop, prop.digest()) == rej


class TestVotePredicates:
    def test_exact_vote_is_byte_identity(self):
        local = make_tensor(value=0.7).canonical_bytes()
        prop_same = make_proposal(auth.KeyRegistry([1], 1), 1, 0, 0, make_tensor(value=0.7))
        prop_diff = make_proposal(auth.KeyRegistry([1], 1), 1, 0, 0, make_tensor(value=0.7000001))
        assert exact_vote(local, prop_same)
        assert not exact_vote(local, prop_diff)

    def test_approx_vote_respects_alpha_band(self):
        reg = auth.KeyRegistry([1], 1)
        local = make_tensor(value=0.7)
        inside = parse_proposal(make_proposal(reg, 1, 0, 0, make_tensor(value=1.1)))
        outside = parse_proposal(make_proposal(reg, 1, 0, 0, make_tensor(value=1.3)))
        assert approx_vote(local, inside, alpha=0.5)
        assert not approx_vote(local, outside, alpha=0.5)

    def test_approx_vote_checks_every_element(self):
        reg = auth.KeyRegistry([1], 1)
        local = make_tensor(value=0.7)
        extra = make_tensor(value=0.7)
        extra.set((1, 1, 2), 0.6)  # a key the local tensor reads as 0.0
        prop = parse_proposal(make_proposal(reg, 1, 0, 0, extra))
        assert not approx_vote(local, prop, alpha=0.5)
        assert approx_vote(local, prop, alpha=0.6)

    def test_approx_vote_rejects_malformed_or_mismatched(self):
        reg = auth.KeyRegistry([1], 1)
        local = make_tensor(period=0)
        wrong_period = parse_proposal(make_proposal(reg, 1, 0, 0, make_tensor(period=1)))
        assert not approx_vote(local, wrong_period, alpha=10.0)
        garbage = parse_proposal(ledger.Proposal(0, 0, 1, b"not a tensor", b""))
        assert garbage is None
        assert not approx_vote(local, garbage, alpha=10.0)


class TestChain:
    def _commit_one(self, registry, params, period=0, value=0.7):
        chain = TensorLedger(params, registry)
        locals_by_op = {op: make_tensor(period, value) for op in params.operator_ids()}
        outcome = commit_period(chain, period, locals_by_op, "exact")
        assert outcome.block is not None
        return chain, outcome

    def test_fault_free_commit_first_attempt(self, registry):
        params = make_params()
        chain, outcome = self._commit_one(registry, params)
        assert outcome.attempts_used == 1
        assert outcome.block.proposer == rotation_proposer(0, 0, 4)
        report = ledger.audit_chain(ledger.export_chain(chain))
        assert report.ok
        assert report.blocks[0].tensor().get((0, 0, 0)) == 0.7

    def test_chain_links_and_periods(self, registry):
        params = make_params()
        chain = TensorLedger(params, registry)
        for period in range(3):
            locals_by_op = {op: make_tensor(period, 0.5 + period)
                            for op in params.operator_ids()}
            commit_period(chain, period, locals_by_op, "exact")
        assert len(chain.blocks) == 3
        assert chain.blocks[0].prev_digest == ledger.GENESIS_DIGEST
        assert chain.blocks[1].prev_digest == chain.blocks[0].digest
        report = ledger.audit_chain(ledger.export_chain(chain))
        assert report.ok
        assert len(report.blocks) == 3

    def test_out_of_order_period_rejected(self, registry):
        params = make_params()
        chain, _ = self._commit_one(registry, params, period=5)
        locals_by_op = {op: make_tensor(3) for op in params.operator_ids()}
        with pytest.raises(ValueError):
            commit_period(chain, 3, locals_by_op, "exact")

    def test_tampered_block_detected(self, registry):
        params = make_params()
        chain, _ = self._commit_one(registry, params)
        good = chain.blocks[0]
        chain.blocks[0] = ledger.Block(
            good.period, good.attempt, good.proposer,
            good.payload.replace(b"0.7", b"0.9"),
            good.certificate, good.prev_digest, good.digest,
        )
        assert not ledger.audit_chain(ledger.export_chain(chain)).ok

    def test_certificate_below_quorum_rejected(self, registry):
        params = make_params()
        chain = TensorLedger(params, registry)
        tensor = make_tensor()
        payload = tensor.canonical_bytes()
        digest = hashlib.sha256(payload).digest()
        context = ledger.vote_context(0, 0)
        votes = {op: registry.sign(op, auth.vote_payload(digest, context))
                 for op in (1, 2)}
        cert = auth.make_certificate(digest, votes)
        with pytest.raises(ValueError):
            chain.append_block(0, 0, 1, payload, cert)


class TestCommitFlow:
    def test_crash_proposer_rotates(self, registry):
        params = make_params()
        chain = TensorLedger(params, registry)
        # attempt 0 of period 0 belongs to operator 1; crash it
        adversary = AdversaryStrategy("bad-proposer", frozenset({1}), proposal="crash",
                                      vote_policy="crash")
        locals_by_op = {op: make_tensor() for op in params.operator_ids()}
        outcome = commit_period(chain, 0, locals_by_op, "exact", adversary)
        assert outcome.block is not None
        assert outcome.attempts_used == 2
        assert outcome.block.proposer == 2

    def test_equivocating_proposer_gets_verdict(self, registry):
        params = make_params()
        chain = TensorLedger(params, registry)
        adversary = AdversaryStrategy("bad-proposer", frozenset({1}), proposal="equivocate",
                                      vote_policy="honest")
        locals_by_op = {op: make_tensor() for op in params.operator_ids()}
        outcome = commit_period(chain, 0, locals_by_op, "exact", adversary)
        assert outcome.block is not None and outcome.block.proposer == 2
        assert len(outcome.verdicts) == 1
        verdict = outcome.verdicts[0]
        assert verdict.kind == ledger.EQUIVOCATION
        assert verdict.proposer == 1
        assert verify_verdict(registry, verdict, params.quorum)

    def test_corrupt_proposal_rejected_with_verdict(self, registry):
        params = make_params()
        chain = TensorLedger(params, registry)
        adversary = AdversaryStrategy("bad-proposer", frozenset({1}), proposal="corrupt",
                                      vote_policy="honest")
        locals_by_op = {op: make_tensor() for op in params.operator_ids()}
        outcome = commit_period(chain, 0, locals_by_op, "exact", adversary)
        assert outcome.block is not None and outcome.block.proposer == 2
        kinds = [v.kind for v in outcome.verdicts]
        assert kinds == [ledger.REJECTED_PROPOSAL]
        assert verify_verdict(registry, outcome.verdicts[0], params.quorum)

    def test_reject_all_minority_cannot_block_commit(self, registry):
        params = make_params()
        chain = TensorLedger(params, registry)
        adversary = AdversaryStrategy("bad-proposer", frozenset({3}), proposal="honest",
                                      vote_policy="reject-all")
        locals_by_op = {op: make_tensor() for op in params.operator_ids()}
        outcome = commit_period(chain, 0, locals_by_op, "exact", adversary)
        assert outcome.block is not None
        assert outcome.attempts_used == 1
        assert 3 not in [op for op, _ in outcome.block.certificate.votes]

    def test_approx_mode_tolerates_noise_within_alpha(self, registry):
        params = make_params(alpha=0.5)
        chain = TensorLedger(params, registry)
        locals_by_op = {op: make_tensor(value=0.7 + 0.01 * op)
                        for op in params.operator_ids()}
        outcome = commit_period(chain, 0, locals_by_op, "approx")
        assert outcome.block is not None
        assert outcome.attempts_used == 1

    def test_approx_mode_rejects_outside_alpha(self, registry):
        params = make_params(alpha=0.05)
        chain = TensorLedger(params, registry)
        # proposer 1's tensor sits 0.4 away from everyone else's
        locals_by_op = {op: make_tensor(value=0.7) for op in params.operator_ids()}
        locals_by_op[1] = make_tensor(value=1.1)
        outcome = commit_period(chain, 0, locals_by_op, "approx")
        assert outcome.block is not None
        assert outcome.block.proposer == 2
        assert [v.kind for v in outcome.verdicts] == [ledger.REJECTED_PROPOSAL]

    def test_commit_never_exceeds_f_plus_one_attempts(self, registry):
        params = make_params()
        chain = TensorLedger(params, registry)
        adversary = AdversaryStrategy("bad-proposer", frozenset({1, 2}), proposal="crash",
                                      vote_policy="crash")
        locals_by_op = {op: make_tensor() for op in params.operator_ids()}
        # two crashed proposers exceed f; the window can close without a block
        outcome = commit_period(chain, 0, locals_by_op, "exact", adversary)
        assert outcome.attempts_used <= params.max_faulty + 1
        assert outcome.block is None

    @pytest.mark.parametrize("period", range(5))
    def test_commit_quorum_above_3f_plus_1(self, period):
        # N=5, f=1: the quorum is floor((5+1)/2)+1 = 4, so the 3 = 2f+1
        # operators that share a tensor can neither commit it nor, with 1
        # rejection, convict a proposer; the crashed operator 5 never votes
        params = make_params(5, 1)
        chain = TensorLedger(params, auth.KeyRegistry(range(1, 6), master_seed=31))
        adversary = AdversaryStrategy("crash", frozenset({5}))
        locals_by_op = {op: make_tensor(period, 0.7) for op in (1, 2, 3)}
        locals_by_op.update({4: make_tensor(period, 0.9), 5: make_tensor(period, 0.7)})
        outcome = commit_period(chain, period, locals_by_op, "exact", adversary)
        assert params.quorum == 4
        assert outcome.block is None
        assert outcome.attempts_used == params.max_faulty + 1
        assert outcome.verdicts == [] and chain.verdicts == []

    def test_votes_bind_period_and_attempt(self, registry):
        params = make_params()
        chain = TensorLedger(params, registry)
        locals_by_op = {op: make_tensor() for op in params.operator_ids()}
        outcome = commit_period(chain, 0, locals_by_op, "exact")
        block = outcome.block
        # replaying the same certificate under another attempt must fail
        with pytest.raises(ValueError):
            chain.append_block(1, block.attempt + 1, block.proposer, block.payload,
                               block.certificate)

    def test_no_conflicting_certificates_per_period(self, registry):
        # every vote emitted in a period names one (attempt, digest); no
        # operator double-votes inside an attempt, so conflicting quorums
        # would need 2(2f+1) - N > f distinct faulty voters
        params = make_params()
        chain = TensorLedger(params, registry)
        adversary = AdversaryStrategy("bad-proposer", frozenset({1}), proposal="equivocate",
                                      vote_policy="approve-all")
        locals_by_op = {op: make_tensor() for op in params.operator_ids()}
        outcome = commit_period(chain, 0, locals_by_op, "exact", adversary)
        per_attempt = {}
        for attempt, digest, op, _ in outcome.votes_emitted:
            per_attempt.setdefault(attempt, {}).setdefault(op, set()).add(digest)
        for attempt, by_op in per_attempt.items():
            for op, digests in by_op.items():
                assert len(digests) == 1


class _Unparsable:
    """A proposal tensor whose canonical form is not a tensor."""

    def canonical_bytes(self):
        return b"not a tensor"


class TestWorkCounts:
    """What every voter derives alike is derived once per attempt or period."""

    def _commit(self, mode, monkeypatch):
        # N=10, f=3: the corrupt proposers 1-3 take attempts 0-2, operator 4 commits
        params = make_params(n=10, f=3)
        chain = TensorLedger(params, auth.KeyRegistry(range(1, 11), master_seed=31))
        adversary = AdversaryStrategy("bad-proposer", frozenset({1, 2, 3}), proposal="corrupt",
                                      vote_policy="honest")
        locals_by_op = {op: make_tensor(value=0.7, dims=(2, 2, 10))
                        for op in params.operator_ids()}
        votes = {"exact": 0, "approx": 0}
        for name in votes:
            vote = getattr(ledger, name + "_vote")

            def counted(*args, name=name, vote=vote):
                votes[name] += 1
                return vote(*args)

            monkeypatch.setattr(ledger, name + "_vote", counted)
        outcome = commit_period(chain, 0, locals_by_op, mode, adversary)
        return outcome, votes

    def test_approx_commit_parses_each_proposal_once(self, monkeypatch, tensor_counts):
        outcome, votes = self._commit("approx", monkeypatch)
        assert outcome.block is not None and outcome.attempts_used == 4
        # one parse per attempt, shared by its 10 voters, and one more of the
        # committed payload by the block check
        assert tensor_counts["parse"] == 4 + 1
        assert votes == {"exact": 0, "approx": 4 * 10}

    def test_exact_commit_serializes_each_local_tensor_once(self, monkeypatch, tensor_counts):
        outcome, votes = self._commit("exact", monkeypatch)
        assert outcome.block is not None and outcome.attempts_used == 4
        # each of the 10 local tensors once (operator 4's serves its proposal
        # and its votes), the 3 corrupt proposals, and the block check's
        # re-serialization of the parsed payload
        assert tensor_counts["serialize"] == 10 + 3 + 1
        assert votes == {"exact": 4 * 10, "approx": 0}

    @pytest.mark.parametrize("mode", ["exact", "approx"])
    def test_unparsable_proposal_is_rejected_by_every_voter(self, mode, monkeypatch):
        monkeypatch.setattr(AdversaryStrategy, "proposal_tensors",
                            lambda self, local: [_Unparsable()])
        outcome, votes = self._commit(mode, monkeypatch)
        assert outcome.block is not None and outcome.attempts_used == 4
        assert [len(v.rejections) for v in outcome.verdicts] == [10, 10, 10]
        assert votes[mode] == 4 * 10


class TestRetrieve:
    def test_exact_needs_f_plus_one_identical(self):
        t = make_tensor(value=0.7)
        bad = make_tensor(value=9.9)
        responses = {1: bad, 2: t.copy(), 3: t.copy(), 4: bad.copy()}
        got = retrieve_exact(responses, f=1)
        assert got is not None
        assert got.canonical_bytes() == t.canonical_bytes()

    def test_exact_none_when_all_disagree(self):
        responses = {op: make_tensor(value=float(op)) for op in range(1, 5)}
        assert retrieve_exact(responses, f=1) is None

    def test_exact_scans_in_id_order(self):
        a = make_tensor(value=1.0)
        b = make_tensor(value=2.0)
        responses = {1: a.copy(), 2: b.copy(), 3: a.copy(), 4: b.copy()}
        got = retrieve_exact(responses, f=1)
        # operator 3 completes a's pair before operator 4 completes b's
        assert got.get((0, 0, 0)) == 1.0

    def test_approx_trims_corrupt_response(self):
        params = make_params()
        responses = {op: make_tensor(value=0.7) for op in range(1, 4)}
        responses[4] = make_tensor(value=50.0)
        got = retrieve_approx(responses, params, period=0, dims=(2, 2, 4))
        assert got.get((0, 0, 0)) == 0.7

    def test_approx_missing_operator_reads_zero(self):
        params = make_params()
        responses = {op: make_tensor(value=0.8) for op in (1, 2, 4)}
        got = retrieve_approx(responses, params, period=0, dims=(2, 2, 4))
        # values tallied: [0.8, 0.8, 0.0, 0.8] -> trimmed mean 0.8
        assert got.get((0, 0, 0)) == 0.8

    def test_rotation_proposer_cycles(self):
        assert [rotation_proposer(0, a, 4) for a in range(5)] == [1, 2, 3, 4, 1]
        assert rotation_proposer(3, 0, 4) == 4


class TestExportAudit:
    def _chain(self, registry, periods=3):
        params = make_params()
        chain = TensorLedger(params, registry)
        for period in range(periods):
            locals_by_op = {op: make_tensor(period, 0.25 * (period + 1))
                            for op in params.operator_ids()}
            commit_period(chain, period, locals_by_op, "exact")
        return chain

    def test_roundtrip_audit_ok(self, registry):
        chain = self._chain(registry)
        report = audit_chain(export_chain(chain))
        assert report.ok, report.error
        assert len(report.blocks) == 3
        assert report.n_operators == 4
        assert report.max_faulty == 1
        assert report.blocks[1].tensor().get((0, 0, 0)) == 0.5

    def test_flipped_payload_byte_detected(self, registry):
        data = export_chain(self._chain(registry))
        lines = data.decode().split("\n")
        fields = lines[1].split("|")
        payload = bytearray.fromhex(fields[3])
        payload[-2] ^= 1
        fields[3] = payload.hex()
        lines[1] = "|".join(fields)
        report = audit_chain("\n".join(lines).encode())
        assert not report.ok
        assert "block 0" in report.error

    def test_reordered_blocks_detected(self, registry):
        data = export_chain(self._chain(registry))
        lines = data.decode().strip().split("\n")
        swapped = [lines[0], lines[2], lines[1], lines[3]]
        report = audit_chain(("\n".join(swapped) + "\n").encode())
        assert not report.ok

    def test_dropped_block_breaks_links(self, registry):
        data = export_chain(self._chain(registry))
        lines = data.decode().strip().split("\n")
        report = audit_chain(("\n".join([lines[0]] + lines[2:]) + "\n").encode())
        assert not report.ok
        assert "chain link" in report.error

    def test_export_is_deterministic(self, registry):
        c1 = export_chain(self._chain(registry))
        c2 = export_chain(self._chain(auth.KeyRegistry(range(1, 5), 31)))
        assert c1 == c2

    def test_header_only_export_audits_clean(self, registry):
        params = make_params()
        chain = TensorLedger(params, registry)
        report = audit_chain(export_chain(chain))
        assert report.ok and report.blocks == []

    @pytest.mark.parametrize("n, f", [(4, -1), (0, 0), (3, 1)])
    def test_header_outside_fault_bound_rejected(self, n, f):
        # f=-1 would make the quorum -1, so a block with no votes would pass
        payload = make_tensor().canonical_bytes()
        cert = auth.QuorumCertificate(hashlib.sha256(payload).digest(), ())
        digest = ledger.block_digest(ledger.GENESIS_DIGEST, payload, 1, cert)
        data = ("ledger v1 n=%d f=%d master_seed=0\n0|0|1|%s|%s|%s|\n" % (
            n, f, payload.hex(), ledger.GENESIS_DIGEST.hex(), digest.hex())).encode()
        report = audit_chain(data)
        assert not report.ok
        assert "export header" in report.error

    @staticmethod
    def _signed_export(registry, payload, votes=None):
        """One-block export (n=4, f=1) whose certificate is valid for payload."""
        cert = quorum_certificate(registry, payload)
        if votes is None:
            votes = ",".join("%d:%s" % (op, tag.hex()) for op, tag in cert.votes)
        block = ledger.block_digest(ledger.GENESIS_DIGEST, payload, 1, cert)
        return ("ledger v1 n=4 f=1 master_seed=%d\n0|0|1|%s|%s|%s|%s\n" % (
            registry.master_seed, payload.hex(), ledger.GENESIS_DIGEST.hex(),
            block.hex(), votes)).encode()

    @pytest.mark.parametrize("payload", [
        b"",
        b"period=0 dims=2,2,4\n0,0,0,0.0\n",  # explicit zero entry
        b"period=0 dims=2,2,4\n1,0,0,0.5\n0,0,0,0.25\n",  # unsorted entries
    ], ids=["empty", "explicit-zero", "unsorted"])
    def test_non_canonical_payload_fails_audit(self, registry, payload):
        report = audit_chain(self._signed_export(registry, payload))
        assert not report.ok
        assert report.error == "block 0: payload is not a canonical tensor"

    def test_non_canonical_payload_cannot_be_appended(self, registry):
        payload = b"period=0 dims=2,2,4\n0,0,0,0.0\n"
        chain = TensorLedger(make_params(), registry)
        with pytest.raises(ValueError, match="payload is not a canonical tensor"):
            chain.append_block(0, 0, 1, payload, quorum_certificate(registry, payload))
        assert chain.blocks == []

    def test_vote_without_separator_is_malformed(self, registry):
        export = self._signed_export(registry, make_tensor().canonical_bytes(), votes="1")
        report = audit_chain(export)
        assert not report.ok
        assert report.error == "block 0: malformed record"

    @pytest.mark.parametrize("field, respell", [
        (0, lambda v: "+" + v), (0, lambda v: " " + v), (1, lambda v: "0_" + v),
        (2, lambda v: "+" + v), (3, str.upper), (6, lambda v: "0" + v)],
        ids=["plus", "space", "underscore", "plus-proposer", "upper-hex", "vote-zero-pad"])
    def test_field_export_never_writes_is_malformed(self, registry, field, respell):
        # each spelling parses to the value export_chain wrote
        data = export_chain(self._chain(registry))
        lines = data.decode().split("\n")
        fields = lines[1].split("|")
        fields[field] = respell(fields[field])
        lines[1] = "|".join(fields)
        report = audit_chain("\n".join(lines).encode())
        assert not report.ok
        assert report.error == "block 0: malformed record"

    @pytest.mark.parametrize("header", [
        "ledger v1 n=4 f=1 master_seed=31 n=5",
        "ledger v1 n=4 f=1 master_seed=31 x=0",
        "ledger v1 f=1 n=4 master_seed=31",
        "ledger v1 n=+4 f=1 master_seed=31",
        "ledger v1 n=4  f=1 master_seed=31",
    ], ids=["duplicate-key", "unknown-key", "reordered", "plus", "double-space"])
    def test_header_export_never_writes_is_malformed(self, registry, header):
        data = export_chain(self._chain(registry))
        assert data.startswith(b"ledger v1 n=4 f=1 master_seed=31\n")
        report = audit_chain(header.encode() + data[data.index(b"\n"):])
        assert not report.ok
        assert report.error == "malformed export header"

    def test_blank_line_or_missing_final_newline_is_malformed(self, registry):
        data = export_chain(self._chain(registry))
        assert audit_chain(data).ok
        assert audit_chain(data[:-1]).error == "malformed export: no final newline"
        assert audit_chain(data + b"\n").error == "block 3: malformed record"
        blank = data.replace(b"\n", b"\n\n", 1)
        assert audit_chain(blank).error == "block 0: malformed record"

    def test_garbage_rejected(self):
        assert not audit_chain(b"\xff\xfe").ok
        assert not audit_chain(b"ledger v2 n=4 f=1 master_seed=0\n").ok
        assert not audit_chain(b"").ok

    def test_header_cost_does_not_grow_with_n(self):
        # keys are derived on use, so a huge n builds nothing up front
        report = audit_chain(b"ledger v1 n=%d f=%d master_seed=0\n" % (10**12, 3 * 10**11))
        assert report.ok and report.n_operators == 10**12

    def test_huge_header_n_still_checks_every_block(self, registry):
        # the quorum grows with n: the 4 votes of each block make one at
        # n = 6, f = 1 (quorum 4), not at n = 7 (quorum 5) or n = 10**12
        data = export_chain(self._chain(registry))
        report = audit_chain(data.replace(b"n=4 ", b"n=6 ", 1))
        assert report.ok and len(report.blocks) == 3
        for n in (7, 10**12):
            report = audit_chain(data.replace(b"n=4 ", b"n=%d " % n, 1))
            assert (report.ok, report.error, report.n_operators) == (
                False, "block 0: certificate fails verification", n)


def _valid_export():
    registry = auth.KeyRegistry(range(1, 5), master_seed=31)
    return export_chain(TestExportAudit()._chain(registry, periods=2))


VALID_EXPORT = _valid_export()


@st.composite
def mutated_exports(draw):
    """A valid export, maybe with a new header, then a few byte edits."""
    data = bytearray(VALID_EXPORT)
    if draw(st.booleans()):
        n = draw(st.one_of(st.integers(-2, 10), st.integers(10**6, 10**30)))
        f = draw(st.one_of(st.integers(-1, 3), st.integers(0, 10**29)))
        body = data[data.index(b"\n"):]
        data = bytearray(b"ledger v1 n=%d f=%d master_seed=31" % (n, f)) + body
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["flip", "delete", "insert"]))
        byte = draw(st.sampled_from(b"0123456789abcdef|:,=\n -x\xff"))
        if edit == "insert" or at == len(data):
            data.insert(at, byte)
        elif edit == "delete":
            del data[at]
        else:
            data[at] = byte
    return bytes(data)


class TestAuditFuzz:
    @given(st.binary(max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_never_raises_on_arbitrary_bytes(self, data):
        assert audit_chain(data).ok in (True, False)

    @given(mutated_exports())
    @settings(max_examples=300, deadline=None)
    def test_never_raises_on_mutated_exports(self, data):
        report = audit_chain(data)
        if report.ok:
            assert len(report.blocks) <= 2

    @given(st.one_of(mutated_exports(), st.binary(max_size=300)))
    @settings(max_examples=300, deadline=None)
    def test_audited_export_is_its_own_rendering(self, data):
        report = audit_chain(data)
        if report.ok:
            assert data == ledger._export_text(report.n_operators, report.max_faulty,
                                               report.master_seed, report.blocks)
