"""End-to-end consensus pipeline for one scenario.

Per event: each operator takes a noisy measurement of the ground truth,
derives its protocol input (a bit for the binary profile, the raw value
otherwise) and runs the configured agreement protocol with its peers. The
agreed values fill per-operator local tensors; the period is then committed
to the ledger through proposal/vote rotation, and both retrieval paths are
exercised over the operators' responses.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from . import approx, auth, binary, exact, ledger, netsim
from .model import GroundTruth, ResourceBlock, UsageTensor, binarize, observe
from .scenario import Scenario


class PropertyViolation(AssertionError):
    """An agreement guarantee failed at runtime; the run is not trustworthy."""


@dataclass
class EventOutcome:
    index: int
    region: int
    subband: int
    target: int
    truth: float
    initials: Dict[int, float]
    outputs: Dict[int, float]
    rounds: int
    halt_iterations: Dict[int, Optional[int]] = field(default_factory=dict)
    horizons: Dict[int, Optional[int]] = field(default_factory=dict)


@dataclass
class ScenarioResult:
    scenario: Scenario
    outcomes: List[EventOutcome]
    locals_by_op: Dict[int, UsageTensor]
    ledger: ledger.TensorLedger
    commit: ledger.CommitOutcome
    retrieved_exact: Optional[UsageTensor]
    retrieved_approx: UsageTensor
    bytes_by_op: Dict[int, Tuple[int, int, int, int]]  # originated, delivered, received, exchanged
    transcript: Optional[List[Tuple[int, int, int, str, int]]]


def _check_binary(initials: Dict[int, int], result: binary.BinaryResult,
                  honest: List[int], zeta: float, instance: str) -> None:
    outs = {result.outputs[op] for op in honest}
    if len(outs) != 1 or None in outs:
        raise PropertyViolation("binary agreement violated in %s: %r" % (instance, outs))
    honest_bits = {initials[op] for op in honest}
    if len(honest_bits) == 1 and outs != honest_bits:
        raise PropertyViolation("binary validity violated in %s" % instance)


def _check_exact(initials: Dict[int, float], result: exact.ExactResult,
                 honest: List[int], zeta: float, instance: str) -> None:
    views = [tuple(sorted(result.views[op].items())) for op in honest]
    if len(set(views)) != 1:
        raise PropertyViolation("view consistency violated in %s" % instance)
    outs = {result.outputs[op] for op in honest}
    if len(outs) != 1:
        raise PropertyViolation("exact agreement violated in %s" % instance)


def _check_approx(initials: Dict[int, float], result: approx.ApproxResult,
                  honest: List[int], zeta: float, instance: str) -> None:
    outs = [result.outputs[op] for op in honest]
    if any(v is None for v in outs):
        raise PropertyViolation("approximate agreement did not halt in %s" % instance)
    if max(outs) - min(outs) > zeta:
        raise PropertyViolation("final spread %.6g above zeta in %s"
                                % (max(outs) - min(outs), instance))
    lo = min(initials[op] for op in honest)
    hi = max(initials[op] for op in honest)
    slack = 1e-9 * max(1.0, abs(lo), abs(hi))  # allow for rounding in the mean
    if any(not (lo - slack <= v <= hi + slack) for v in outs):
        raise PropertyViolation("output outside honest initial range in %s" % instance)


class _Profile(NamedTuple):
    """How one profile turns an event's measurements into agreed values."""

    protocol_input: Callable  # (measurement, params) -> an operator's input
    run: Callable  # (scenario, initials, instance, coin, registry, bus kwargs) -> result
    output: Callable  # (result, op) -> the value the operator ends with
    extras: Callable  # result -> per-operator EventOutcome fields
    check: Callable  # (initials, result, honest, zeta, instance) -> raises on a violation


# Lambdas look functions up per call, so wrappers set on a module (span tracing) apply.
_PROFILES = {
    "binary": _Profile(
        lambda m, params: binarize(m, params.rssi_threshold),
        lambda sc, initials, instance, coin, registry, bus: binary.run_binary(
            sc.network, initials, instance=instance, coin=coin, registry=registry, **bus),
        lambda result, op: float(result.outputs[op] if result.outputs[op] is not None
                                 else result.bus.participants[op].b),
        lambda result: {"halt_iterations": result.halt_iterations},
        _check_binary,
    ),
    "exact": _Profile(
        lambda m, params: m.value,
        lambda sc, initials, instance, coin, registry, bus: exact.run_exact(
            sc.network, initials, instance=instance, registry=registry,
            aggregation=sc.aggregation, **bus),
        lambda result, op: result.outputs[op],
        lambda result: {},
        _check_exact,
    ),
    "approx": _Profile(
        lambda m, params: m.value,
        lambda sc, initials, instance, coin, registry, bus: approx.run_approx(
            sc.network, initials, **bus),
        lambda result, op: (result.outputs[op] if result.outputs[op] is not None
                            else result.bus.participants[op].v),
        lambda result: {"horizons": result.horizons},
        _check_approx,
    ),
}


def run_scenario(sc: Scenario) -> ScenarioResult:
    params = sc.network
    ids = list(params.operator_ids())
    registry = auth.KeyRegistry(ids, auth.derive_seed(sc.seed, "keys"))
    coin = auth.CommonCoin(auth.derive_seed(sc.seed, "coin"))
    strategy = sc.adversary.message_strategy() if sc.adversary else None
    honest = netsim.honest_ids(ids, strategy)
    profile = _PROFILES[sc.profile]

    locals_by_op = {op: UsageTensor(sc.period, sc.dims) for op in ids}
    bytes_acc = {op: [0, 0, 0] for op in ids}
    outcomes: List[EventOutcome] = []
    transcript = None

    for index, event in enumerate(sc.events):
        block = ResourceBlock(event.region, event.subband, sc.period)
        truth = GroundTruth(block, event.operator, event.truth)
        initials = {
            op: profile.protocol_input(
                observe(truth, params.epsilon, auth.derive_seed(sc.seed, "observe", index, op)),
                params)
            for op in ids
        }
        instance = "p%d.e%d" % (sc.period, index)
        record = sc.record_transcript and index == 0
        bus = {"seed": auth.derive_seed(sc.seed, "bus", index), "adversary": strategy,
               "frame_bytes": sc.frame_bytes, "record_transcript": record}
        result = profile.run(sc, initials, instance, coin, registry, bus)
        outputs = {op: profile.output(result, op) for op in ids}
        outcome = EventOutcome(index, event.region, event.subband, event.operator,
                               event.truth, {op: float(v) for op, v in initials.items()},
                               outputs, result.rounds, **profile.extras(result))
        profile.check(initials, result, honest, params.zeta, instance)

        for op in ids:
            bytes_acc[op][0] += result.bus.originated[op]
            bytes_acc[op][1] += result.bus.delivered[op]
            bytes_acc[op][2] += result.bus.received[op]
        if record:
            transcript = result.bus.transcript_rows()

        key = (event.region, event.subband, event.operator - 1)
        for op in ids:
            locals_by_op[op].set(key, outputs[op])
        outcomes.append(outcome)

    # ledger commit for the period
    chain = ledger.TensorLedger(params, registry)
    mode = "exact" if sc.profile in ("binary", "exact") else "approx"
    ledger_adv = sc.adversary.ledger_adversary() if sc.adversary else None
    commit = ledger.commit_period(params, registry, chain, sc.period,
                                  locals_by_op, mode, ledger_adv)

    responses = _retrieval_responses(sc, locals_by_op)
    retrieved_exact = ledger.retrieve_exact(responses, params.max_faulty)
    retrieved_approx = ledger.retrieve_approx(responses, params, sc.period, sc.dims)
    _check_retrieval(sc, honest, locals_by_op, retrieved_exact, retrieved_approx)

    return ScenarioResult(
        scenario=sc,
        outcomes=outcomes,
        locals_by_op=locals_by_op,
        ledger=chain,
        commit=commit,
        retrieved_exact=retrieved_exact,
        retrieved_approx=retrieved_approx,
        bytes_by_op={
            op: (acc[0], acc[1], acc[2], acc[0] + acc[2])
            for op, acc in bytes_acc.items()
        },
        transcript=transcript,
    )


def _retrieval_responses(sc: Scenario, locals_by_op: Dict[int, UsageTensor]
                         ) -> Dict[int, UsageTensor]:
    responses = {op: tensor.copy() for op, tensor in locals_by_op.items()}
    if not sc.adversary:
        return responses
    liar = sc.adversary.ledger_adversary()
    for op in sc.adversary.operators:
        if sc.adversary.behavior == netsim.CRASH:
            del responses[op]
        elif sc.adversary.behavior != netsim.BOUNDARY_ATTACKER:  # it answers honestly
            responses[op] = liar.corrupt_tensor(locals_by_op[op])
    return responses


def _check_retrieval(sc: Scenario, honest: List[int],
                     locals_by_op: Dict[int, UsageTensor],
                     retrieved_exact: Optional[UsageTensor],
                     retrieved_approx: UsageTensor) -> None:
    if sc.profile in ("binary", "exact"):
        reference = locals_by_op[honest[0]].canonical_bytes()
        if retrieved_exact is None or retrieved_exact.canonical_bytes() != reference:
            raise PropertyViolation("exact retrieval did not return the honest tensor")
    keys = set()
    for op in honest:
        keys |= set(locals_by_op[op].entries)
    for key in keys:
        values = [locals_by_op[op].get(key) for op in honest]
        v = retrieved_approx.get(key)
        if not (min(values) - 1e-9 <= v <= max(values) + 1e-9):
            raise PropertyViolation(
                "approx retrieval element %r outside honest range" % (key,))


# --- artifacts --------------------------------------------------------------

def _float_cell(x: float) -> str:
    return repr(float(x))


def results_csv(result: ScenarioResult) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["event", "region", "subband", "target", "truth",
                     "operator", "initial", "output", "rounds"])
    for outcome in result.outcomes:
        for op in sorted(outcome.outputs):
            writer.writerow([
                outcome.index, outcome.region, outcome.subband, outcome.target,
                _float_cell(outcome.truth), op,
                _float_cell(outcome.initials[op]),
                _float_cell(outcome.outputs[op]),
                outcome.rounds,
            ])
    return out.getvalue()


def bytes_csv(result: ScenarioResult) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["operator", "originated", "delivered", "received", "exchanged"])
    for op in sorted(result.bytes_by_op):
        writer.writerow([op, *result.bytes_by_op[op]])
    return out.getvalue()


def retrieval_csv(result: ScenarioResult) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["region", "subband", "target", "exact", "approx"])
    keys = set(result.retrieved_approx.entries)
    if result.retrieved_exact is not None:
        keys |= set(result.retrieved_exact.entries)
    for key in sorted(keys):
        exact_cell = ""
        if result.retrieved_exact is not None:
            exact_cell = _float_cell(result.retrieved_exact.get(key))
        writer.writerow([key[0], key[1], key[2] + 1, exact_cell,
                         _float_cell(result.retrieved_approx.get(key))])
    return out.getvalue()


def summary_text(result: ScenarioResult) -> str:
    sc = result.scenario
    lines = [
        "profile: %s" % sc.profile,
        "operators: %d  max_faulty: %d" % (sc.network.n_operators, sc.network.max_faulty),
        "events: %d  period: %d" % (len(sc.events), sc.period),
        "adversary: %s" % (sc.adversary.behavior if sc.adversary else "none"),
    ]
    if result.commit.block is not None:
        lines.append("committed: attempt %d proposer %d digest %s"
                     % (result.commit.block.attempt, result.commit.block.proposer,
                        result.commit.block.digest.hex()[:16]))
    else:
        lines.append("committed: none after %d attempts" % result.commit.attempts_used)
    lines.append("verdicts: %d" % len(result.ledger.verdicts))
    for verdict in result.ledger.verdicts:
        lines.append("  period %d attempt %d proposer %d: %s"
                     % (verdict.period, verdict.attempt, verdict.proposer, verdict.kind))
    lines.append("exact retrieval: %s"
                 % ("ok" if result.retrieved_exact is not None else "no f+1 quorum"))
    for op in sorted(result.bytes_by_op):
        orig, deliv, recv, exch = result.bytes_by_op[op]
        lines.append("operator %d bytes: originated %d delivered %d received %d exchanged %d"
                     % (op, orig, deliv, recv, exch))
    return "\n".join(lines) + "\n"


def write_artifacts(result: ScenarioResult, out_dir) -> List[str]:
    import os

    os.makedirs(out_dir, exist_ok=True)
    written = []

    def _put(name: str, data) -> None:
        path = os.path.join(out_dir, name)
        mode = "wb" if isinstance(data, bytes) else "w"
        with open(path, mode, newline="" if mode == "w" else None) as fh:
            fh.write(data)
        written.append(path)

    _put("results.csv", results_csv(result))
    _put("bytes.csv", bytes_csv(result))
    _put("retrieval.csv", retrieval_csv(result))
    _put("ledger.txt", ledger.export_chain(result.ledger))
    _put("summary.txt", summary_text(result))
    if result.transcript is not None:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["round", "sender", "recipient", "kind", "bytes"])
        for row in result.transcript:
            writer.writerow(row)
        _put("transcript.csv", out.getvalue())
    return written
