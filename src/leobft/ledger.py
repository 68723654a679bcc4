"""Append-only usage ledger with supermajority commits and audit evidence.

One block per period. A rotating proposer signs its local tensor; every
operator answers with a signed approval or a signed rejection. A block
commits on 2f+1 distinct approvals, and its digest chains over the previous
digest, the canonical payload, the proposer and the vote set, so any flipped
byte breaks verification from that block onward.

Misbehaviour verdicts are only recorded with checkable evidence: either two
conflicting signed proposals for the same slot, or a signed proposal plus
2f+1 signed rejections of it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import auth, netsim
from .approx import averaging_function
from .model import NetworkParams, UsageTensor, check_fault_bound, max_deviation

GENESIS_DIGEST = hashlib.sha256(b"usage-ledger-genesis").digest()

EQUIVOCATION = "equivocation"
REJECTED_PROPOSAL = "rejected-proposal"


@dataclass(frozen=True)
class Proposal:
    period: int
    attempt: int
    proposer: int
    payload: bytes
    tag: bytes

    def digest(self) -> bytes:
        return hashlib.sha256(self.payload).digest()


def proposal_payload(period: int, attempt: int, payload: bytes) -> bytes:
    return auth.encode("propose", period, attempt, payload)


def make_proposal(registry: auth.KeyRegistry, proposer: int, period: int,
                  attempt: int, tensor: UsageTensor) -> Proposal:
    payload = tensor.canonical_bytes()
    tag = registry.sign(proposer, proposal_payload(period, attempt, payload))
    return Proposal(period, attempt, proposer, payload, tag)


def verify_proposal(registry: auth.KeyRegistry, proposal: Proposal) -> bool:
    return registry.verify(
        proposal.proposer,
        proposal_payload(proposal.period, proposal.attempt, proposal.payload),
        proposal.tag,
    )


def vote_context(period: int, attempt: int) -> bytes:
    return auth.encode("period", period, "attempt", attempt)


def rejection_payload(period: int, attempt: int, digest: bytes) -> bytes:
    return auth.encode("reject", period, attempt, digest)


@dataclass(frozen=True)
class Rejection:
    period: int
    attempt: int
    operator: int
    digest: bytes
    tag: bytes


def make_rejection(registry: auth.KeyRegistry, operator: int,
                   proposal: Proposal) -> Rejection:
    digest = proposal.digest()
    tag = registry.sign(operator, rejection_payload(proposal.period, proposal.attempt, digest))
    return Rejection(proposal.period, proposal.attempt, operator, digest, tag)


def verify_rejection(registry: auth.KeyRegistry, rejection: Rejection) -> bool:
    return registry.verify(
        rejection.operator,
        rejection_payload(rejection.period, rejection.attempt, rejection.digest),
        rejection.tag,
    )


def exact_vote(local: UsageTensor, proposal: Proposal) -> bool:
    """Approve iff the proposed payload is byte-identical to the local tensor."""
    return proposal.payload == local.canonical_bytes()


def approx_vote(local: UsageTensor, proposal: Proposal, alpha: float) -> bool:
    """Approve iff every element of the proposal is within alpha of the local one."""
    try:
        proposed = UsageTensor.from_canonical(proposal.payload)
    except ValueError:
        return False
    if proposed.period != local.period or proposed.dims != local.dims:
        return False
    return max_deviation(proposed, local) <= alpha


def _vote_set_bytes(cert: auth.QuorumCertificate) -> bytes:
    return b";".join(b"%d:%s" % (op, tag.hex().encode()) for op, tag in sorted(cert.votes))


def block_digest(prev_digest: bytes, payload: bytes, proposer: int,
                 cert: auth.QuorumCertificate) -> bytes:
    h = hashlib.sha256()
    h.update(prev_digest)
    h.update(payload)
    h.update(auth.encode(proposer))
    h.update(_vote_set_bytes(cert))
    return h.digest()


@dataclass(frozen=True)
class Block:
    period: int
    attempt: int
    proposer: int
    payload: bytes
    certificate: auth.QuorumCertificate
    prev_digest: bytes
    digest: bytes

    def tensor(self) -> UsageTensor:
        return UsageTensor.from_canonical(self.payload)


@dataclass(frozen=True)
class Verdict:
    period: int
    attempt: int
    proposer: int
    kind: str  # EQUIVOCATION or REJECTED_PROPOSAL
    proposals: Tuple[Proposal, ...]
    rejections: Tuple[Rejection, ...] = ()


def verify_verdict(registry: auth.KeyRegistry, verdict: Verdict, quorum: int) -> bool:
    """Check that a verdict's evidence actually proves misbehaviour."""
    if verdict.kind == EQUIVOCATION:
        if len(verdict.proposals) != 2:
            return False
        a, b = verdict.proposals
        return (
            a.period == b.period == verdict.period
            and a.attempt == b.attempt == verdict.attempt
            and a.proposer == b.proposer == verdict.proposer
            and a.payload != b.payload
            and verify_proposal(registry, a)
            and verify_proposal(registry, b)
        )
    if verdict.kind == REJECTED_PROPOSAL:
        if len(verdict.proposals) != 1:
            return False
        prop = verdict.proposals[0]
        if prop.period != verdict.period or prop.attempt != verdict.attempt:
            return False
        if prop.proposer != verdict.proposer or not verify_proposal(registry, prop):
            return False
        digest = prop.digest()
        signers = set()
        for rej in verdict.rejections:
            if rej.period != prop.period or rej.attempt != prop.attempt:
                return False
            if rej.digest != digest or not verify_rejection(registry, rej):
                return False
            signers.add(rej.operator)
        return len(signers) >= quorum
    return False


def check_block(registry: auth.KeyRegistry, quorum: int, block: Block,
                prev: bytes, last_period: int) -> Optional[str]:
    """None if the block may follow (prev, last_period), else what is wrong.

    The one block rule shared by the ledger, its self-check and the auditor:
    the period increases, the block links to and hashes over prev, its
    certificate covers the payload under its (period, attempt) with a quorum
    of valid signers, and the payload is a tensor in canonical form.
    """
    if block.period <= last_period:
        return "period %d out of order" % block.period
    if block.prev_digest != prev:
        return "broken chain link"
    if block.digest != block_digest(prev, block.payload, block.proposer, block.certificate):
        return "digest mismatch"
    if block.certificate.digest != hashlib.sha256(block.payload).digest():
        return "certificate is for a different payload"
    if not auth.verify_certificate(registry, block.certificate,
                                   vote_context(block.period, block.attempt), quorum):
        return "certificate fails verification"
    try:
        canonical = UsageTensor.from_canonical(block.payload).canonical_bytes() == block.payload
    except ValueError:
        canonical = False
    return None if canonical else "payload is not a canonical tensor"


class TensorLedger:
    """Hash-chained sequence of committed tensors plus recorded verdicts."""

    def __init__(self, params: NetworkParams, registry: auth.KeyRegistry):
        self.params = params
        self.registry = registry
        self.blocks: List[Block] = []
        self.verdicts: List[Verdict] = []

    def head_digest(self) -> bytes:
        return self.blocks[-1].digest if self.blocks else GENESIS_DIGEST

    def append_block(self, period: int, attempt: int, proposer: int, payload: bytes,
                     cert: auth.QuorumCertificate) -> Block:
        """Append a block, or raise ValueError naming the rule it breaks."""
        prev = self.head_digest()
        block = Block(period, attempt, proposer, payload, cert, prev,
                      block_digest(prev, payload, proposer, cert))
        last_period = self.blocks[-1].period if self.blocks else -1
        problem = check_block(self.registry, self.params.quorum, block, prev, last_period)
        if problem is not None:
            raise ValueError(problem)
        self.blocks.append(block)
        return block

    def verify_chain(self) -> Optional[str]:
        """None if the chain checks out, else a description of the first break."""
        prev, last_period = GENESIS_DIGEST, -1
        for i, block in enumerate(self.blocks):
            problem = check_block(self.registry, self.params.quorum, block, prev, last_period)
            if problem is not None:
                return "block %d: %s" % (i, problem)
            prev, last_period = block.digest, block.period
        return None

    def committed_tensor(self, period: int) -> Optional[UsageTensor]:
        for block in self.blocks:
            if block.period == period:
                return block.tensor()
        return None


def retrieve_exact(responses: Dict[int, UsageTensor], f: int) -> Optional[UsageTensor]:
    """First tensor backed by f+1 byte-identical copies, scanning in id order.

    Returns None when no value reaches f+1 copies, which can only happen if
    more than f operators are faulty (or silent).
    """
    counts: Dict[bytes, int] = {}
    by_form: Dict[bytes, UsageTensor] = {}
    for op in sorted(responses):
        form = responses[op].canonical_bytes()
        counts[form] = counts.get(form, 0) + 1
        by_form.setdefault(form, responses[op])
        if counts[form] >= f + 1:
            return by_form[form].copy()
    return None


def retrieve_approx(responses: Dict[int, UsageTensor], params: NetworkParams,
                    period: int, dims: Tuple[int, int, int]) -> UsageTensor:
    """Element-wise trimmed-stride average over all N responses.

    Operators with no response contribute the default 0.0 on every key, the
    same rule the agreement protocols use for silent peers.
    """
    keys = set()
    for tensor in responses.values():
        keys |= set(tensor.entries)
    out = UsageTensor(period, dims)
    for key in sorted(keys):
        values = [
            responses[op].get(key) if op in responses else 0.0
            for op in params.operator_ids()
        ]
        out.set(key, averaging_function(values, params.max_faulty))
    return out


def rotation_proposer(period: int, attempt: int, n_operators: int) -> int:
    """Round-robin proposer for (period, attempt) over ids 1..N."""
    return (period + attempt) % n_operators + 1


@dataclass
class CommitOutcome:
    block: Optional[Block]
    attempts_used: int
    verdicts: List[Verdict] = field(default_factory=list)
    # every signed approval emitted during the period, for safety audits:
    # (attempt, payload digest, operator, tag)
    votes_emitted: List[Tuple[int, bytes, int, bytes]] = field(default_factory=list)


@dataclass
class LedgerAdversary:
    """How controlled operators behave during ledger voting.

    proposal: "honest", "corrupt" (shift entries by params offset, or inject
    the configured key/value), "equivocate" (two different signed payloads)
    or "crash" (no proposal). vote_policy: "honest", "approve-all",
    "reject-all" or "crash".
    """

    controlled: frozenset
    proposal: str = "honest"
    vote_policy: str = "honest"
    offset: float = netsim.DEFAULT_OFFSET
    inject_key: Optional[Tuple[int, int, int]] = None
    inject_value: float = 0.0

    def corrupt_tensor(self, local: UsageTensor) -> UsageTensor:
        bad = local.copy()
        if self.inject_key is not None:
            bad.set(self.inject_key, self.inject_value)
        elif bad.entries:
            for key in list(bad.entries):
                bad.set(key, bad.get(key) + self.offset)
        else:
            bad.set((0, 0, 0), self.offset)
        return bad


def commit_period(params: NetworkParams, registry: auth.KeyRegistry,
                  ledger: TensorLedger, period: int,
                  locals_by_op: Dict[int, UsageTensor], mode: str,
                  adversary: Optional[LedgerAdversary] = None) -> CommitOutcome:
    """Drive one period through proposal/vote attempts until a block commits.

    mode "exact" votes on byte identity, mode "approx" on the alpha band.
    Runs at most f+1 attempts; with at most f faulty operators the rotation
    reaches an honest proposer whose proposal every honest operator approves.
    """
    if mode not in ("exact", "approx"):
        raise ValueError("mode must be 'exact' or 'approx'")
    controlled = adversary.controlled if adversary else frozenset()
    outcome = CommitOutcome(block=None, attempts_used=0)

    for attempt in range(params.max_faulty + 1):
        outcome.attempts_used = attempt + 1
        proposer = rotation_proposer(period, attempt, params.n_operators)

        local = locals_by_op[proposer]
        style = adversary.proposal if proposer in controlled else "honest"
        if style == "crash":
            tensors = []
        elif style == "corrupt":
            tensors = [adversary.corrupt_tensor(local)]
        elif style == "equivocate":
            tensors = [local, adversary.corrupt_tensor(local)]
        else:
            tensors = [local]
        proposals = [make_proposal(registry, proposer, period, attempt, t) for t in tensors]

        if len({p.payload for p in proposals}) > 1:
            verdict = Verdict(period, attempt, proposer, EQUIVOCATION,
                              tuple(proposals[:2]))
            ledger.verdicts.append(verdict)
            outcome.verdicts.append(verdict)
            continue
        if not proposals:
            continue  # silent proposer: no evidence, rotate on
        proposal = proposals[0]
        if not verify_proposal(registry, proposal):
            continue

        digest = proposal.digest()
        approvals: Dict[int, bytes] = {}
        rejections: List[Rejection] = []
        for op in params.operator_ids():
            policy = adversary.vote_policy if op in controlled else "honest"
            if policy == "crash":
                continue
            if policy in ("approve-all", "reject-all"):
                approve = policy == "approve-all"
            elif mode == "exact":
                approve = exact_vote(locals_by_op[op], proposal)
            else:
                approve = approx_vote(locals_by_op[op], proposal, params.alpha)
            if approve:
                tag = registry.sign(op, auth.vote_payload(digest, vote_context(period, attempt)))
                approvals[op] = tag
                outcome.votes_emitted.append((attempt, digest, op, tag))
            else:
                rejections.append(make_rejection(registry, op, proposal))

        if len(approvals) >= params.quorum:
            cert = auth.make_certificate(digest, approvals)
            outcome.block = ledger.append_block(period, attempt, proposer,
                                                proposal.payload, cert)
            return outcome
        if len(rejections) >= params.quorum:
            verdict = Verdict(period, attempt, proposer, REJECTED_PROPOSAL,
                              (proposal,), tuple(rejections))
            ledger.verdicts.append(verdict)
            outcome.verdicts.append(verdict)
        # otherwise: mixed outcome, no commit and no evidence; rotate on

    return outcome


# --- export / audit -------------------------------------------------------

def export_chain(ledger: TensorLedger) -> bytes:
    """Line-oriented export: one header line, then one line per block."""
    lines = [
        "ledger v1 n=%d f=%d master_seed=%d"
        % (ledger.params.n_operators, ledger.params.max_faulty,
           ledger.registry.master_seed)
    ]
    for block in ledger.blocks:
        votes = ",".join("%d:%s" % (op, tag.hex()) for op, tag in block.certificate.votes)
        lines.append("|".join([
            str(block.period),
            str(block.attempt),
            str(block.proposer),
            block.payload.hex(),
            block.prev_digest.hex(),
            block.digest.hex(),
            votes,
        ]))
    return ("\n".join(lines) + "\n").encode("ascii")


@dataclass
class AuditReport:
    ok: bool
    error: Optional[str]
    blocks: List[Block]
    n_operators: int
    max_faulty: int


def audit_chain(data: bytes) -> AuditReport:
    """Re-verify an exported chain from its bytes alone.

    The export header carries the registry master seed (keys are shared
    simulation state), so signatures and certificates are re-checked too.
    """
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        return AuditReport(False, "export is not ASCII", [], 0, 0)
    lines = [ln for ln in text.split("\n") if ln]
    if not lines or not lines[0].startswith("ledger v1 "):
        return AuditReport(False, "missing or unknown export header", [], 0, 0)
    try:
        fields = dict(part.split("=") for part in lines[0].split(" ")[2:])
        n = int(fields["n"])
        f = int(fields["f"])
        master_seed = int(fields["master_seed"])
    except (KeyError, ValueError):
        return AuditReport(False, "malformed export header", [], 0, 0)
    try:
        check_fault_bound(n, f)
    except ValueError as exc:
        return AuditReport(False, "export header: %s" % exc, [], 0, 0)

    registry = auth.KeyRegistry(range(1, n + 1), master_seed)
    quorum = 2 * f + 1
    blocks: List[Block] = []
    prev, last_period = GENESIS_DIGEST, -1
    for i, line in enumerate(lines[1:]):
        parts = line.split("|")
        if len(parts) != 7:
            return AuditReport(False, "block %d: malformed record" % i, blocks, n, f)
        try:
            period, attempt, proposer = int(parts[0]), int(parts[1]), int(parts[2])
            payload = bytes.fromhex(parts[3])
            prev_digest = bytes.fromhex(parts[4])
            digest = bytes.fromhex(parts[5])
            votes = tuple((int(op), bytes.fromhex(tag)) for op, tag in
                          (v.split(":") for v in parts[6].split(",") if v))
        except ValueError:
            return AuditReport(False, "block %d: malformed record" % i, blocks, n, f)
        cert = auth.QuorumCertificate(hashlib.sha256(payload).digest(), votes)
        block = Block(period, attempt, proposer, payload, cert, prev_digest, digest)

        problem = check_block(registry, quorum, block, prev, last_period)
        if problem is not None:
            return AuditReport(False, "block %d: %s" % (i, problem), blocks, n, f)
        blocks.append(block)
        prev, last_period = digest, period
    return AuditReport(True, None, blocks, n, f)
