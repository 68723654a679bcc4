"""Ledger tests: votes, blocks, chain verification, verdicts, retrieval, audit."""

import hashlib

import pytest

from leobft import auth, ledger
from leobft.ledger import (
    LedgerAdversary,
    TensorLedger,
    approx_vote,
    audit_chain,
    commit_period,
    exact_vote,
    export_chain,
    make_proposal,
    make_rejection,
    retrieve_approx,
    retrieve_exact,
    rotation_proposer,
    verify_proposal,
    verify_rejection,
    verify_verdict,
)
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


class TestVotePredicates:
    def test_exact_vote_is_byte_identity(self):
        local = make_tensor(value=0.7)
        prop_same = make_proposal(auth.KeyRegistry([1], 1), 1, 0, 0, make_tensor(value=0.7))
        prop_diff = make_proposal(auth.KeyRegistry([1], 1), 1, 0, 0, make_tensor(value=0.7000001))
        assert exact_vote(local, prop_same)
        assert not exact_vote(local, prop_diff)

    def test_approx_vote_respects_alpha_band(self):
        reg = auth.KeyRegistry([1], 1)
        local = make_tensor(value=0.7)
        inside = make_proposal(reg, 1, 0, 0, make_tensor(value=1.1))
        outside = make_proposal(reg, 1, 0, 0, make_tensor(value=1.3))
        assert approx_vote(local, inside, alpha=0.5)
        assert not approx_vote(local, outside, alpha=0.5)

    def test_approx_vote_checks_every_element(self):
        reg = auth.KeyRegistry([1], 1)
        local = make_tensor(value=0.7)
        extra = make_tensor(value=0.7)
        extra.set((1, 1, 2), 0.6)  # a key the local tensor reads as 0.0
        prop = make_proposal(reg, 1, 0, 0, extra)
        assert not approx_vote(local, prop, alpha=0.5)
        assert approx_vote(local, prop, alpha=0.6)

    def test_approx_vote_rejects_malformed_or_mismatched(self):
        reg = auth.KeyRegistry([1], 1)
        local = make_tensor(period=0)
        wrong_period = make_proposal(reg, 1, 0, 0, make_tensor(period=1))
        assert not approx_vote(local, wrong_period, alpha=10.0)
        garbage = ledger.Proposal(0, 0, 1, b"not a tensor", b"")
        assert not approx_vote(local, garbage, alpha=10.0)


class TestChain:
    def _commit_one(self, registry, params, period=0, value=0.7):
        chain = TensorLedger(params, registry)
        locals_by_op = {op: make_tensor(period, value) for op in params.operator_ids()}
        outcome = commit_period(params, registry, chain, period, locals_by_op, "exact")
        assert outcome.block is not None
        return chain, outcome

    def test_fault_free_commit_first_attempt(self, registry):
        params = make_params()
        chain, outcome = self._commit_one(registry, params)
        assert outcome.attempts_used == 1
        assert outcome.block.proposer == rotation_proposer(0, 0, 4)
        assert chain.verify_chain() is None
        assert chain.committed_tensor(0).get((0, 0, 0)) == 0.7

    def test_chain_links_and_periods(self, registry):
        params = make_params()
        chain = TensorLedger(params, registry)
        for period in range(3):
            locals_by_op = {op: make_tensor(period, 0.5 + period)
                            for op in params.operator_ids()}
            commit_period(params, registry, chain, period, locals_by_op, "exact")
        assert len(chain.blocks) == 3
        assert chain.blocks[0].prev_digest == ledger.GENESIS_DIGEST
        assert chain.blocks[1].prev_digest == chain.blocks[0].digest
        assert chain.verify_chain() is None

    def test_out_of_order_period_rejected(self, registry):
        params = make_params()
        chain, _ = self._commit_one(registry, params, period=5)
        locals_by_op = {op: make_tensor(3) for op in params.operator_ids()}
        with pytest.raises(ValueError):
            commit_period(params, registry, chain, 3, locals_by_op, "exact")

    def test_tampered_block_detected(self, registry):
        params = make_params()
        chain, _ = self._commit_one(registry, params)
        good = chain.blocks[0]
        chain.blocks[0] = ledger.Block(
            good.period, good.attempt, good.proposer,
            good.payload.replace(b"0.7", b"0.9"),
            good.certificate, good.prev_digest, good.digest,
        )
        assert chain.verify_chain() is not None

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
        adversary = LedgerAdversary(controlled=frozenset({1}), proposal="crash",
                                    vote_policy="crash")
        locals_by_op = {op: make_tensor() for op in params.operator_ids()}
        outcome = commit_period(params, registry, chain, 0, locals_by_op, "exact",
                                adversary)
        assert outcome.block is not None
        assert outcome.attempts_used == 2
        assert outcome.block.proposer == 2

    def test_equivocating_proposer_gets_verdict(self, registry):
        params = make_params()
        chain = TensorLedger(params, registry)
        adversary = LedgerAdversary(controlled=frozenset({1}), proposal="equivocate")
        locals_by_op = {op: make_tensor() for op in params.operator_ids()}
        outcome = commit_period(params, registry, chain, 0, locals_by_op, "exact",
                                adversary)
        assert outcome.block is not None and outcome.block.proposer == 2
        assert len(outcome.verdicts) == 1
        verdict = outcome.verdicts[0]
        assert verdict.kind == ledger.EQUIVOCATION
        assert verdict.proposer == 1
        assert verify_verdict(registry, verdict, params.quorum)

    def test_corrupt_proposal_rejected_with_verdict(self, registry):
        params = make_params()
        chain = TensorLedger(params, registry)
        adversary = LedgerAdversary(controlled=frozenset({1}), proposal="corrupt",
                                    vote_policy="honest")
        locals_by_op = {op: make_tensor() for op in params.operator_ids()}
        outcome = commit_period(params, registry, chain, 0, locals_by_op, "exact",
                                adversary)
        assert outcome.block is not None and outcome.block.proposer == 2
        kinds = [v.kind for v in outcome.verdicts]
        assert kinds == [ledger.REJECTED_PROPOSAL]
        assert verify_verdict(registry, outcome.verdicts[0], params.quorum)

    def test_reject_all_minority_cannot_block_commit(self, registry):
        params = make_params()
        chain = TensorLedger(params, registry)
        adversary = LedgerAdversary(controlled=frozenset({3}), proposal="honest",
                                    vote_policy="reject-all")
        locals_by_op = {op: make_tensor() for op in params.operator_ids()}
        outcome = commit_period(params, registry, chain, 0, locals_by_op, "exact",
                                adversary)
        assert outcome.block is not None
        assert outcome.attempts_used == 1
        assert 3 not in outcome.block.certificate.signer_set()

    def test_approx_mode_tolerates_noise_within_alpha(self, registry):
        params = make_params(alpha=0.5)
        chain = TensorLedger(params, registry)
        locals_by_op = {op: make_tensor(value=0.7 + 0.01 * op)
                        for op in params.operator_ids()}
        outcome = commit_period(params, registry, chain, 0, locals_by_op, "approx")
        assert outcome.block is not None
        assert outcome.attempts_used == 1

    def test_approx_mode_rejects_outside_alpha(self, registry):
        params = make_params(alpha=0.05)
        chain = TensorLedger(params, registry)
        # proposer 1's tensor sits 0.4 away from everyone else's
        locals_by_op = {op: make_tensor(value=0.7) for op in params.operator_ids()}
        locals_by_op[1] = make_tensor(value=1.1)
        outcome = commit_period(params, registry, chain, 0, locals_by_op, "approx")
        assert outcome.block is not None
        assert outcome.block.proposer == 2
        assert [v.kind for v in outcome.verdicts] == [ledger.REJECTED_PROPOSAL]

    def test_commit_never_exceeds_f_plus_one_attempts(self, registry):
        params = make_params()
        chain = TensorLedger(params, registry)
        adversary = LedgerAdversary(controlled=frozenset({1, 2}), proposal="crash",
                                    vote_policy="crash")
        locals_by_op = {op: make_tensor() for op in params.operator_ids()}
        # two crashed proposers exceed f; the window can close without a block
        outcome = commit_period(params, registry, chain, 0, locals_by_op, "exact",
                                adversary)
        assert outcome.attempts_used <= params.max_faulty + 1
        assert outcome.block is None

    def test_votes_bind_period_and_attempt(self, registry):
        params = make_params()
        chain = TensorLedger(params, registry)
        locals_by_op = {op: make_tensor() for op in params.operator_ids()}
        outcome = commit_period(params, registry, chain, 0, locals_by_op, "exact")
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
        adversary = LedgerAdversary(controlled=frozenset({1}), proposal="equivocate",
                                    vote_policy="approve-all")
        locals_by_op = {op: make_tensor() for op in params.operator_ids()}
        outcome = commit_period(params, registry, chain, 0, locals_by_op, "exact",
                                adversary)
        per_attempt = {}
        for attempt, digest, op, _ in outcome.votes_emitted:
            per_attempt.setdefault(attempt, {}).setdefault(op, set()).add(digest)
        for attempt, by_op in per_attempt.items():
            for op, digests in by_op.items():
                assert len(digests) == 1


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
            commit_period(params, registry, chain, period, locals_by_op, "exact")
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

    def test_garbage_rejected(self):
        assert not audit_chain(b"\xff\xfe").ok
        assert not audit_chain(b"ledger v2 n=4 f=1 master_seed=0\n").ok
        assert not audit_chain(b"").ok
