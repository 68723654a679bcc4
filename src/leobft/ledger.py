"""Append-only usage ledger with supermajority commits and audit evidence.

One block per period. A rotating proposer signs its local tensor; every
operator answers with a signed approval or a signed rejection. A block
commits on a quorum (model.quorum) of distinct approvals, and its digest
chains over the previous digest, the canonical payload, the proposer and the
vote set, so any flipped byte breaks verification from that block onward.

Misbehaviour verdicts are only recorded with checkable evidence: either two
conflicting signed proposals for the same slot, or a signed proposal plus
a quorum of signed rejections of it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import auth, netsim
from .approx import averaging_function
from .model import NetworkParams, UsageTensor, check_fault_bound, max_deviation, quorum

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
    return _signed_proposal(registry, proposer, period, attempt, tensor.canonical_bytes())


def _signed_proposal(registry: auth.KeyRegistry, proposer: int, period: int,
                     attempt: int, payload: bytes) -> Proposal:
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


def make_rejection(registry: auth.KeyRegistry, operator: int, proposal: Proposal,
                   digest: Optional[bytes] = None) -> Rejection:
    """operator's signed rejection of proposal; digest, when given, is proposal.digest()."""
    if digest is None:
        digest = proposal.digest()
    tag = registry.sign(operator, rejection_payload(proposal.period, proposal.attempt, digest))
    return Rejection(proposal.period, proposal.attempt, operator, digest, tag)


def verify_rejection(registry: auth.KeyRegistry, rejection: Rejection) -> bool:
    return registry.verify(
        rejection.operator,
        rejection_payload(rejection.period, rejection.attempt, rejection.digest),
        rejection.tag,
    )


def exact_vote(local_form: bytes, proposal: Proposal) -> bool:
    """Approve iff the proposed payload is byte-identical to local_form, the
    canonical bytes of the local tensor."""
    return proposal.payload == local_form


def parse_proposal(proposal: Proposal) -> Optional[UsageTensor]:
    """The tensor a proposal's payload encodes, or None if it does not parse."""
    try:
        return UsageTensor.from_canonical(proposal.payload)
    except ValueError:
        return None


def approx_vote(local: UsageTensor, proposed: Optional[UsageTensor], alpha: float) -> bool:
    """Approve iff every element of proposed, a proposal as parse_proposal
    returns it, is within alpha of the local one; None is a rejection."""
    if proposed is None or proposed.period != local.period or proposed.dims != local.dims:
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


def commit_period(ledger: TensorLedger, period: int,
                  locals_by_op: Dict[int, UsageTensor], mode: str,
                  adversary: Optional[netsim.AdversaryStrategy] = None) -> CommitOutcome:
    """Drive one period through proposal/vote attempts until a block commits.

    Signs and checks with the ledger's own params and registry. mode "exact"
    votes on byte identity, mode "approx" on the alpha band. Runs at most
    f+1 attempts; with at most f faulty operators the rotation reaches an
    honest proposer whose proposal every honest operator approves. The
    adversary's operators propose and vote by its proposal and vote_policy.

    What every voter derives alike is derived once: an approx attempt parses
    its proposal once, and each local tensor is serialized at most once a
    period, for its operator's proposal and exact votes together.
    """
    if mode not in ("exact", "approx"):
        raise ValueError("mode must be 'exact' or 'approx'")
    params, registry = ledger.params, ledger.registry
    controlled = adversary.controlled if adversary else frozenset()
    outcome = CommitOutcome(block=None, attempts_used=0)
    forms: Dict[int, bytes] = {}  # operator -> canonical bytes of its local tensor

    def form(op: int) -> bytes:
        if op not in forms:
            forms[op] = locals_by_op[op].canonical_bytes()
        return forms[op]

    for attempt in range(params.max_faulty + 1):
        outcome.attempts_used = attempt + 1
        proposer = rotation_proposer(period, attempt, params.n_operators)

        local = locals_by_op[proposer]
        tensors = adversary.proposal_tensors(local) if proposer in controlled else [local]
        proposals = [_signed_proposal(registry, proposer, period, attempt,
                                      form(proposer) if t is local else t.canonical_bytes())
                     for t in tensors]

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
        vote = auth.vote_payload(digest, vote_context(period, attempt))
        proposed = parse_proposal(proposal) if mode == "approx" else None
        approvals: Dict[int, bytes] = {}
        rejections: List[Rejection] = []
        for op in params.operator_ids():
            policy = adversary.vote_policy if op in controlled else "honest"
            if policy == "crash":
                continue
            if policy in ("approve-all", "reject-all"):
                approve = policy == "approve-all"
            elif mode == "exact":
                approve = exact_vote(form(op), proposal)
            else:
                approve = approx_vote(locals_by_op[op], proposed, params.alpha)
            if approve:
                tag = registry.sign(op, vote)
                approvals[op] = tag
                outcome.votes_emitted.append((attempt, digest, op, tag))
            else:
                rejections.append(make_rejection(registry, op, proposal, digest))

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

def _header_line(n_operators: int, max_faulty: int, master_seed: int) -> str:
    return "ledger v1 n=%d f=%d master_seed=%d" % (n_operators, max_faulty, master_seed)


def _block_line(block: Block) -> str:
    votes = ",".join("%d:%s" % (op, tag.hex()) for op, tag in block.certificate.votes)
    return "|".join([
        str(block.period),
        str(block.attempt),
        str(block.proposer),
        block.payload.hex(),
        block.prev_digest.hex(),
        block.digest.hex(),
        votes,
    ])


def _export_text(n_operators: int, max_faulty: int, master_seed: int,
                 blocks: List[Block]) -> bytes:
    lines = [_header_line(n_operators, max_faulty, master_seed)]
    lines.extend(map(_block_line, blocks))
    return ("\n".join(lines) + "\n").encode("ascii")


def export_chain(ledger: TensorLedger) -> bytes:
    """Line-oriented export: one header line, then one line per block."""
    return _export_text(ledger.params.n_operators, ledger.params.max_faulty,
                        ledger.registry.master_seed, ledger.blocks)


@dataclass
class AuditReport:
    ok: bool
    error: Optional[str]
    blocks: List[Block]
    n_operators: int
    max_faulty: int
    master_seed: int = 0


def _parse_block(line: str) -> Optional[Block]:
    """The block a record line holds, or None unless the line is exactly
    what _block_line renders for it."""
    parts = line.split("|")
    if len(parts) != 7:
        return None
    try:
        period, attempt, proposer = int(parts[0]), int(parts[1]), int(parts[2])
        payload = bytes.fromhex(parts[3])
        prev_digest = bytes.fromhex(parts[4])
        digest = bytes.fromhex(parts[5])
        votes = tuple((int(op), bytes.fromhex(tag)) for op, tag in
                      (v.split(":") for v in parts[6].split(",") if v))
    except ValueError:
        return None
    cert = auth.QuorumCertificate(hashlib.sha256(payload).digest(), votes)
    block = Block(period, attempt, proposer, payload, cert, prev_digest, digest)
    return block if line == _block_line(block) else None


def audit_chain(data: bytes) -> AuditReport:
    """Re-verify an exported chain from its bytes alone.

    The export header carries the registry master seed (keys are shared
    simulation state), so signatures and certificates are re-checked too.
    Only bytes export_chain could have written pass: each line must equal
    the export's rendering of the values parsed from it, so a number written
    "+10", " 10" or "1_0", upper-case hex, or a repeated, unknown or moved
    header key is malformed, as is a blank line or a missing final newline.
    """
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        return AuditReport(False, "export is not ASCII", [], 0, 0)
    lines = text.split("\n")
    if not lines[0].startswith("ledger v1 "):
        return AuditReport(False, "missing or unknown export header", [], 0, 0)
    try:
        fields = dict(part.split("=") for part in lines[0].split(" ")[2:])
        n = int(fields["n"])
        f = int(fields["f"])
        master_seed = int(fields["master_seed"])
        well_formed = lines[0] == _header_line(n, f, master_seed)
    except (KeyError, ValueError):
        well_formed = False
    if not well_formed:
        return AuditReport(False, "malformed export header", [], 0, 0)
    try:
        check_fault_bound(n, f)
    except ValueError as exc:
        return AuditReport(False, "export header: %s" % exc, [], 0, 0)
    if lines[-1]:
        return AuditReport(False, "malformed export: no final newline", [], n, f, master_seed)

    registry = auth.KeyRegistry(range(1, n + 1), master_seed)
    blocks: List[Block] = []
    prev, last_period = GENESIS_DIGEST, -1
    for i, line in enumerate(lines[1:-1]):
        block = _parse_block(line)
        problem = ("malformed record" if block is None
                   else check_block(registry, quorum(n, f), block, prev, last_period))
        if problem is not None:
            return AuditReport(False, "block %d: %s" % (i, problem), blocks, n, f, master_seed)
        blocks.append(block)
        prev, last_period = block.digest, block.period
    return AuditReport(True, None, blocks, n, f, master_seed)
