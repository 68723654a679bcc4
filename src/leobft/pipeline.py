"""End-to-end consensus pipeline for one scenario.

Per event: each operator takes a noisy reading of the ground truth,
derives its protocol input (a bit for the binary profile, the raw value
otherwise) and runs the configured agreement protocol with its peers. The
agreed values fill per-operator local tensors; the period is then committed
to the ledger through proposal/vote rotation, and both retrieval paths are
exercised over the operators' responses.

The events are independent, so they run in contiguous spans, one per usable
CPU: this process runs the first span and persistent forked helpers run the
others (`cores.run_spans`); the outcomes merge in event order, so every
artifact is the same on any CPU count. A helper is a snapshot of the process
at its first use: a test that monkeypatches leobft and needs every event to
see the patch must pin one CPU (patch `os.sched_getaffinity`).
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from . import approx, auth, binary, cores, exact, ledger, netsim
from .model import UsageTensor, binarize, observe
from .scenario import ConfigError, EventConfig, Scenario


class PropertyViolation(AssertionError):
    """An agreement guarantee failed at runtime; the run is not trustworthy."""


@dataclass
class EventOutcome:
    """What one event's agreement left, as plain values a helper can send back."""

    index: int
    event: EventConfig
    initials: Dict[int, float]
    outputs: Dict[int, float]
    rounds: int
    traffic: Dict[int, Tuple[int, int, int]]  # op -> originated, delivered, received
    transcript: Optional[List[Tuple[int, int, int, str, int]]]


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
    if any(not (lo <= v <= hi) for v in outs):
        raise PropertyViolation("output outside honest initial range in %s" % instance)


class _Profile(NamedTuple):
    """How one profile turns an event's readings into agreed values, and how
    the period is committed and retrieved."""

    protocol_input: Callable  # (reading, params) -> an operator's input
    run: Callable  # (scenario, initials, instance, coin, registry, bus kwargs) -> result
    output: Callable  # (result, op) -> the value the operator ends with
    check: Callable  # (initials, result, honest, zeta, instance) -> raises on a violation
    mode: str  # ledger commit and retrieval mode: "exact" or "approx"


# Lambdas look functions up per call, so wrappers set on a module (span tracing) apply.
_PROFILES = {
    "binary": _Profile(
        lambda value, params: binarize(value, params.rssi_threshold),
        lambda sc, initials, instance, coin, registry, bus: binary.run_binary(
            sc.network, initials, instance=instance, coin=coin, registry=registry, **bus),
        lambda result, op: float(result.outputs[op] if result.outputs[op] is not None
                                 else result.bus.participants[op].b),
        _check_binary,
        "exact",
    ),
    "exact": _Profile(
        lambda value, params: value,
        lambda sc, initials, instance, coin, registry, bus: exact.run_exact(
            sc.network, initials, instance=instance, registry=registry,
            aggregation=sc.aggregation, **bus),
        lambda result, op: result.outputs[op],
        _check_exact,
        "exact",
    ),
    "approx": _Profile(
        lambda value, params: value,
        lambda sc, initials, instance, coin, registry, bus: approx.run_approx(
            sc.network, initials, **bus),
        lambda result, op: (result.outputs[op] if result.outputs[op] is not None
                            else result.bus.participants[op].v),
        _check_approx,
        "approx",
    ),
}


def _profile(sc: Scenario) -> _Profile:
    return _PROFILES[sc.profile]


def _run_events(sc: Scenario, indices: range) -> List[EventOutcome]:
    """Observe, agree on and check each event in indices; one span of a run.

    Everything an event uses is derived from sc.seed and its index, so the
    outcomes are the same whichever process runs the span.
    """
    params = sc.network
    ids = list(params.operator_ids())
    registry = auth.KeyRegistry(ids, auth.derive_seed(sc.seed, "keys"))
    coin = auth.CommonCoin(auth.derive_seed(sc.seed, "coin"))
    honest = netsim.honest_ids(ids, sc.adversary)
    profile = _profile(sc)
    outcomes = []
    for index in indices:
        initials = {
            op: profile.protocol_input(
                observe(sc.events[index].truth, params.epsilon,
                        auth.derive_seed(sc.seed, "observe", index, op)),
                params)
            for op in ids
        }
        instance = "p%d.e%d" % (sc.period, index)
        bus = {"seed": auth.derive_seed(sc.seed, "bus", index), "adversary": sc.adversary,
               "frame_bytes": sc.frame_bytes,
               "record_transcript": sc.record_transcript and index == 0}
        result = profile.run(sc, initials, instance, coin, registry, bus)
        outputs = {op: profile.output(result, op) for op in ids}
        profile.check(initials, result, honest, params.zeta, instance)
        traffic = {op: (result.bus.originated[op], result.bus.delivered[op],
                        result.bus.received[op]) for op in ids}
        outcomes.append(EventOutcome(index, sc.events[index],
                                     {op: float(v) for op, v in initials.items()}, outputs,
                                     result.rounds, traffic, result.bus.transcript))
    return outcomes


def run_scenario(sc: Scenario) -> ScenarioResult:
    """Agree on every event (in spans over the usable CPUs), then commit the
    period and retrieve it. If events fail their checks, the failure with the
    lowest event index is raised."""
    params = sc.network
    ids = list(params.operator_ids())
    registry = auth.KeyRegistry(ids, auth.derive_seed(sc.seed, "keys"))
    honest = netsim.honest_ids(ids, sc.adversary)
    mode = _profile(sc).mode

    outcomes: List[EventOutcome] = cores.run_spans(_run_events, sc, len(sc.events))
    locals_by_op = {op: UsageTensor(sc.period, sc.dims) for op in ids}
    for outcome in outcomes:
        event = outcome.event
        key = (event.region, event.subband, event.operator - 1)
        for op in ids:
            locals_by_op[op].set(key, outcome.outputs[op])
    bytes_by_op = {}
    for op in ids:
        originated, delivered, received = (sum(o.traffic[op][k] for o in outcomes)
                                           for k in range(3))
        # exchanged: the canonical bytes an operator put on the wire plus the
        # bytes it received; each originated message counts once regardless of
        # fan-out, the per-delivery figure is `delivered`
        bytes_by_op[op] = (originated, delivered, received, originated + received)

    # ledger commit for the period
    chain = ledger.TensorLedger(params, registry)
    commit = ledger.commit_period(chain, sc.period, locals_by_op, mode, sc.adversary)

    responses = _retrieval_responses(sc.adversary, locals_by_op)
    retrieved_exact = ledger.retrieve_exact(responses, params.max_faulty)
    retrieved_approx = ledger.retrieve_approx(responses, params, sc.period, sc.dims)
    _check_retrieval(mode, honest, locals_by_op, retrieved_exact, retrieved_approx)

    return ScenarioResult(
        scenario=sc,
        outcomes=outcomes,
        locals_by_op=locals_by_op,
        ledger=chain,
        commit=commit,
        retrieved_exact=retrieved_exact,
        retrieved_approx=retrieved_approx,
        bytes_by_op=bytes_by_op,
        transcript=outcomes[0].transcript if outcomes else None,
    )


def _retrieval_responses(adversary: Optional[netsim.AdversaryStrategy],
                         locals_by_op: Dict[int, UsageTensor]) -> Dict[int, UsageTensor]:
    controlled = adversary.controlled if adversary else frozenset()
    answers = {op: adversary.retrieval_answer(local) if op in controlled else local
               for op, local in locals_by_op.items()}
    return {op: answer for op, answer in answers.items() if answer is not None}


def _check_retrieval(mode: str, honest: List[int],
                     locals_by_op: Dict[int, UsageTensor],
                     retrieved_exact: Optional[UsageTensor],
                     retrieved_approx: UsageTensor) -> None:
    if mode == "exact":
        reference = locals_by_op[honest[0]].canonical_bytes()
        if retrieved_exact is None or retrieved_exact.canonical_bytes() != reference:
            raise PropertyViolation("exact retrieval did not return the honest tensor")
    keys = set()
    for op in honest:
        keys |= set(locals_by_op[op].entries)
    for key in keys:
        values = [locals_by_op[op].get(key) for op in honest]
        v = retrieved_approx.get(key)
        if not (min(values) <= v <= max(values)):
            raise PropertyViolation(
                "approx retrieval element %r outside honest range" % (key,))


# --- artifacts --------------------------------------------------------------

def csv_text(header: Sequence, rows: Iterable[Sequence]) -> str:
    """A header row and then the data rows as CSV text (CRLF line ends)."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _float_cell(x: float) -> str:
    return repr(float(x))


def results_csv(result: ScenarioResult) -> str:
    return csv_text(
        ["event", "region", "subband", "target", "truth",
         "operator", "initial", "output", "rounds"],
        ([outcome.index, outcome.event.region, outcome.event.subband, outcome.event.operator,
          _float_cell(outcome.event.truth), op, _float_cell(outcome.initials[op]),
          _float_cell(outcome.outputs[op]), outcome.rounds]
         for outcome in result.outcomes for op in sorted(outcome.outputs)))


def bytes_csv(result: ScenarioResult) -> str:
    return csv_text(["operator", "originated", "delivered", "received", "exchanged"],
                    ([op, *result.bytes_by_op[op]] for op in sorted(result.bytes_by_op)))


def retrieval_csv(result: ScenarioResult) -> str:
    exact_t, approx_t = result.retrieved_exact, result.retrieved_approx
    keys = set(approx_t.entries) | set(exact_t.entries if exact_t is not None else ())
    return csv_text(["region", "subband", "target", "exact", "approx"],
                    ([key[0], key[1], key[2] + 1,
                      "" if exact_t is None else _float_cell(exact_t.get(key)),
                      _float_cell(approx_t.get(key))] for key in sorted(keys)))


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


def write_file(out_dir: str, name: str, data: Union[str, bytes]) -> str:
    """Write text (line ends as given) or bytes to out_dir/name; the one file writer."""
    path = os.path.join(out_dir, name)
    mode = "wb" if isinstance(data, bytes) else "w"
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(path, mode, newline="" if mode == "w" else None) as fh:
            fh.write(data)
    except OSError as err:
        raise ConfigError("cannot write %s: %s" % (path, err)) from err
    return path


def write_artifacts(result: ScenarioResult, out_dir: str) -> List[str]:
    written = [
        write_file(out_dir, "results.csv", results_csv(result)),
        write_file(out_dir, "bytes.csv", bytes_csv(result)),
        write_file(out_dir, "retrieval.csv", retrieval_csv(result)),
        write_file(out_dir, "ledger.txt", ledger.export_chain(result.ledger)),
        write_file(out_dir, "summary.txt", summary_text(result)),
    ]
    if result.transcript is not None:
        written.append(write_file(out_dir, "transcript.csv", csv_text(
            ["round", "sender", "recipient", "kind", "bytes"], result.transcript)))
    return written
