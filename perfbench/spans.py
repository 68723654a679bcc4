"""Span tracing of leobft from the outside, and the per-layer metrics.

The tracer wraps the public functions of every layer module, plus the hot
methods named in METHODS, wherever those objects are bound (including names
copied by `from x import y`). Each call records a span (name, start, end,
parent, operation id) in flat in-memory arrays, which are written out only
when the run ends. Nothing inside the program changes; `uninstall` puts every
original object back.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

LAYERS = ("model", "scenario", "auth", "netsim", "binary", "exact", "approx",
          "ledger", "geo", "pipeline")

# (module, class, attribute, span name)
METHODS = [
    ("model", "UsageTensor", "canonical_bytes", "model.canonical_bytes"),
    ("model", "UsageTensor", "from_canonical", "model.from_canonical"),
    ("auth", "KeyRegistry", "sign", "auth.sign"),
    ("auth", "KeyRegistry", "verify", "auth.verify"),
    ("auth", "CommonCoin", "flip", "auth.coin_flip"),
    ("netsim", "Message", "canonical_bytes", "netsim.message_encode"),
    ("netsim", "RoundBus", "run_round", "netsim.run_round"),
    ("binary", "BinaryOperator", "deliver", "binary.deliver"),
    ("exact", "ExactOperator", "deliver", "exact.deliver"),
    ("approx", "ApproxOperator", "deliver", "approx.deliver"),
]

DELIVERY_KINDS = ("bit", "cert", "val", "halted", "bcast")


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.op_id = -1
        self.stack: List[int] = []
        self.counters: Counter = Counter()
        self._patches: List[Tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def begin_op(self) -> None:
        """Spans recorded from now on belong to the next operation."""
        self.op_id += 1

    def enclosing(self) -> Optional[str]:
        """Name of the innermost open span, if any."""
        return self.names[self.name[self.stack[-1]]] if self.stack else None

    def wrap(self, name: str, fn: Callable,
             on_result: Optional[Callable[["Tracer", object], None]] = None) -> Callable:
        nid = self.name_id(name)
        names, starts, ends, parents, ops, stack = (
            self.name, self.start, self.end, self.parent, self.op, self.stack)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(tracer, result)
            return result

        return functools.update_wrapper(traced, fn)

    # --- installing --------------------------------------------------------

    def _set(self, target, attr: str, value) -> None:
        original = target.__dict__[attr] if isinstance(target, type) else getattr(target, attr)
        self._patches.append((target, attr, original))
        setattr(target, attr, value)

    def _replace_everywhere(self, original, wrapper, modules: Sequence) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self, bench_functions: Dict[str, Tuple[object, str]]) -> None:
        """Wrap every layer's public functions and METHODS, plus the
        benchmark's own operation functions {span name: (module, attr)}."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "leobft" or n.startswith("leobft."))]
        modules += sorted({id(m): m for m, _ in bench_functions.values()}.values(), key=id)
        for layer in LAYERS:
            module = sys.modules["leobft." + layer]
            for attr, value in list(vars(module).items()):
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_")):
                    name = "%s.%s" % (layer, attr)
                    self._replace_everywhere(value, self.wrap(name, value, HOOKS.get(name)),
                                             modules)
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules["leobft." + layer], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self.wrap(name, raw.__func__, HOOKS.get(name))))
            else:
                self._set(cls, attr, self.wrap(name, raw, HOOKS.get(name)))
        for name, (module, attr) in bench_functions.items():
            self._set(module, attr, self.wrap(name, getattr(module, attr), HOOKS.get(name)))

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # --- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Gzipped tab-separated spans: index, name, start, end, parent, operation."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n" % (
                    i, names[self.name[i]], self.start[i] - t0, self.end[i] - t0,
                    self.parent[i], self.op[i]))


# --- result hooks: counts taken where the work happens ---------------------------

def _deliveries(tracer: Tracer, inboxes) -> None:
    c = tracer.counters
    for by_sender in inboxes.values():
        for msgs in by_sender.values():
            c["deliveries"] += len(msgs)
            for msg in msgs:
                c["deliveries." + msg.kind] += 1


def _exact(tracer: Tracer, result) -> None:
    tracer.counters["exact.instances"] += 1
    tracer.counters["exact.accepted"] += sum(
        len(v) for v in result.accepted_chain_lengths.values())


def _binary(tracer: Tracer, result) -> None:
    tracer.counters["binary.instances"] += 1
    tracer.counters["binary.iterations"] += max(
        (it for it in result.halt_iterations.values() if it is not None), default=0)


def _approx(tracer: Tracer, result) -> None:
    tracer.counters["approx.instances"] += 1
    tracer.counters["approx.exchanges"] += max(
        p.exchanges for p in result.bus.participants.values())


def _commit(tracer: Tracer, outcome) -> None:
    c = tracer.counters
    c["ledger.periods"] += 1
    c["ledger.attempts"] += outcome.attempts_used
    c["ledger.blocks"] += outcome.block is not None
    c["ledger.verdicts"] += len(outcome.verdicts)


def _constellation(tracer: Tracer, constellation) -> None:
    tracer.counters["geo.realisations"] += 1
    tracer.counters["geo.satellites"] += sum(len(p) for p in constellation.satellites.values())


def _pairs(tracer: Tracer, count) -> None:
    tracer.counters["geo.pairs"] += count


def _field(tracer: Tracer, points) -> None:
    if tracer.enclosing() == "bench.detection":
        tracer.counters["geo.sensors"] += len(points)


def _detection(tracer: Tracer, _sample) -> None:
    tracer.counters["geo.detection_points"] += 1


HOOKS = {
    "netsim.run_round": _deliveries,
    "exact.run_exact": _exact,
    "binary.run_binary": _binary,
    "approx.run_approx": _approx,
    "ledger.commit_period": _commit,
    "geo.build_constellation": _constellation,
    "geo.count_interference": _pairs,
    "geo.deploy_poisson": _field,
    "bench.detection": _detection,
}


# --- analysis ----------------------------------------------------------------------

def self_times(start: Sequence[float], end: Sequence[float],
               parent: Sequence[int]) -> Sequence[float]:
    """Each span's duration minus the part of it its child spans cover.

    Spans must be listed in start order, as the tracer records them; child
    intervals are clipped to the parent and overlaps are counted once.
    """
    n = len(start)
    covered = array("d", bytes(8 * n))
    reach = array("d", [float("-inf")]) * n  # end of the union of a span's children so far
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        if end[i] > reach[p]:
            reach[p] = end[i]
    return array("d", (end[i] - start[i] - covered[i] for i in range(n)))


class SpanStats:
    """Per-name totals of a traced run, plus the counters and extra values."""

    def __init__(self, tracer: Tracer, ops: int, extra: Dict[str, float]):
        k = len(tracer.names)
        self.calls_by = [0] * k
        self.total_by = [0.0] * k
        self.self_by = [0.0] * k
        selfs = self_times(tracer.start, tracer.end, tracer.parent)
        verify = tracer.ids.get("auth.verify", -2)
        chain = tracer.ids.get("auth.verify_signed", -2)
        self.verify_in_chain = 0
        for i, nid in enumerate(tracer.name):
            self.calls_by[nid] += 1
            self.total_by[nid] += tracer.end[i] - tracer.start[i]
            self.self_by[nid] += selfs[i]
            if nid == verify and tracer.parent[i] >= 0 and tracer.name[tracer.parent[i]] == chain:
                self.verify_in_chain += 1
        self.ids = tracer.ids
        self.counters = tracer.counters
        self.ops = ops
        self.extra = extra

    def calls(self, name: str) -> int:
        nid = self.ids.get(name)
        return 0 if nid is None else self.calls_by[nid]

    def ms(self, name: str) -> float:
        nid = self.ids.get(name)
        return 0.0 if nid is None else 1e3 * self.total_by[nid]

    def self_ms(self, name: str) -> float:
        nid = self.ids.get(name)
        return 0.0 if nid is None else 1e3 * self.self_by[nid]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _calls(name):
    return lambda s: _ratio(s.calls(name), s.ops)


def _ms(name):
    return lambda s: _ratio(s.ms(name), s.ops)


def _self_ms(name):
    return lambda s: _ratio(s.self_ms(name), s.ops)


def _count(key):
    return lambda s: _ratio(s.counters[key], s.ops)


def _extra(key):
    return lambda s: s.extra.get(key, 0.0)


# (metric, unit, better, value). Times and counts are per operation: a period
# on the consensus workloads, a sweep point (one constellation realisation or
# one detection density point) on geo-sweep. Ratios state their own base.
PER_LAYER = [
    ("model.observe.ms", "ms", "lower", _ms("model.observe")),
    ("model.canonical_bytes.calls", "count", "lower", _calls("model.canonical_bytes")),
    ("model.canonical_bytes.ms", "ms", "lower", _ms("model.canonical_bytes")),
    ("model.from_canonical.calls", "count", "lower", _calls("model.from_canonical")),
    ("model.from_canonical.ms", "ms", "lower", _ms("model.from_canonical")),
    ("scenario.parse_scenario.ms", "ms", "lower", _ms("scenario.parse_scenario")),
    ("auth.encode.calls", "count", "lower", _calls("auth.encode")),
    ("auth.encode.self_ms", "ms", "lower", _self_ms("auth.encode")),
    ("auth.sign.calls", "count", "lower", _calls("auth.sign")),
    ("auth.sign.self_ms", "ms", "lower", _self_ms("auth.sign")),
    ("auth.verify.calls", "count", "lower", _calls("auth.verify")),
    ("auth.verify_signed.calls", "count", "lower", _calls("auth.verify_signed")),
    ("auth.verify_signed.ms", "ms", "lower", _ms("auth.verify_signed")),
    ("auth.tags_per_chain_verify", "ratio", "lower",
     lambda s: _ratio(s.verify_in_chain, s.calls("auth.verify_signed"))),
    ("auth.derive_seed.calls", "count", "lower", _calls("auth.derive_seed")),
    ("auth.derive_seed.ms", "ms", "lower", _ms("auth.derive_seed")),
    ("auth.coin_flip.calls", "count", "lower", _calls("auth.coin_flip")),
    ("auth.verify_certificate.ms", "ms", "lower", _ms("auth.verify_certificate")),
    ("netsim.run_round.calls", "count", "lower", _calls("netsim.run_round")),
    ("netsim.run_round.self_ms", "ms", "lower", _self_ms("netsim.run_round")),
    ("netsim.message_encode.calls", "count", "lower", _calls("netsim.message_encode")),
    ("netsim.message_encode.ms", "ms", "lower", _ms("netsim.message_encode")),
    ("netsim.deliveries", "count", "lower", _count("deliveries")),
] + [
    ("netsim.deliveries." + kind, "count", "lower", _count("deliveries." + kind))
    for kind in DELIVERY_KINDS
] + [
    ("netsim.encodes_per_delivery", "ratio", "lower",
     lambda s: _ratio(s.calls("netsim.message_encode"), s.counters["deliveries"])),
    ("netsim.rounds_per_event", "rounds", "lower", _extra("rounds_per_event")),
    ("netsim.wire_bytes_per_event", "bytes", "lower", _extra("wire_bytes_per_event")),
    ("binary.run_binary.ms", "ms", "lower", _ms("binary.run_binary")),
    ("binary.deliver.self_ms", "ms", "lower", _self_ms("binary.deliver")),
    ("binary.iterations_per_instance", "ratio", "lower",
     lambda s: _ratio(s.counters["binary.iterations"], s.counters["binary.instances"])),
    ("exact.run_exact.ms", "ms", "lower", _ms("exact.run_exact")),
    ("exact.deliver.self_ms", "ms", "lower", _self_ms("exact.deliver")),
    ("exact.aggregate_view.ms", "ms", "lower", _ms("exact.aggregate_view")),
    ("exact.accepted_per_verify", "ratio", "higher",
     lambda s: _ratio(s.counters["exact.accepted"], s.calls("auth.verify_signed"))),
    ("approx.run_approx.ms", "ms", "lower", _ms("approx.run_approx")),
    ("approx.deliver.self_ms", "ms", "lower", _self_ms("approx.deliver")),
    ("approx.averaging_function.calls", "count", "lower", _calls("approx.averaging_function")),
    ("approx.averaging_function.ms", "ms", "lower", _ms("approx.averaging_function")),
    ("approx.exchanges_per_instance", "ratio", "lower",
     lambda s: _ratio(s.counters["approx.exchanges"], s.counters["approx.instances"])),
    ("ledger.commit_period.ms", "ms", "lower", _ms("ledger.commit_period")),
    ("ledger.attempts_per_period", "ratio", "lower",
     lambda s: _ratio(s.counters["ledger.attempts"], s.counters["ledger.periods"])),
    ("ledger.commit_ratio", "ratio", "higher",
     lambda s: _ratio(s.counters["ledger.blocks"], s.counters["ledger.attempts"])),
    ("ledger.verdicts_per_period", "ratio", "lower",
     lambda s: _ratio(s.counters["ledger.verdicts"], s.counters["ledger.periods"])),
    ("ledger.exact_vote.calls", "count", "lower", _calls("ledger.exact_vote")),
    ("ledger.approx_vote.calls", "count", "lower", _calls("ledger.approx_vote")),
    ("ledger.approx_vote.ms", "ms", "lower", _ms("ledger.approx_vote")),
    ("ledger.retrieve_exact.ms", "ms", "lower", _ms("ledger.retrieve_exact")),
    ("ledger.retrieve_approx.ms", "ms", "lower", _ms("ledger.retrieve_approx")),
    ("ledger.export_chain.ms", "ms", "lower", _ms("ledger.export_chain")),
    ("ledger.audit_chain.ms", "ms", "lower", _ms("ledger.audit_chain")),
    ("geo.build_constellation.ms", "ms", "lower", _ms("geo.build_constellation")),
    ("geo.count_interference.ms", "ms", "lower", _ms("geo.count_interference")),
    ("geo.pairs_per_sample", "ratio", "lower",
     lambda s: _ratio(s.counters["geo.pairs"], s.counters["geo.realisations"])),
    ("geo.satellites_per_sample", "ratio", "lower",
     lambda s: _ratio(s.counters["geo.satellites"], s.counters["geo.realisations"])),
    ("geo.deploy_poisson.ms", "ms", "lower", _ms("geo.deploy_poisson")),
    ("geo.simulate_detection.ms", "ms", "lower", _ms("geo.simulate_detection")),
    ("geo.sensors_per_point", "ratio", "lower",
     lambda s: _ratio(s.counters["geo.sensors"], s.counters["geo.detection_points"])),
    ("pipeline.run_scenario.self_ms", "ms", "lower", _self_ms("pipeline.run_scenario")),
    ("pipeline.artifacts.ms", "ms", "lower", _ms("pipeline.artifacts")),
    ("trace.untraced_per_s", "1/s", "higher", _extra("untraced_per_s")),
    ("trace.traced_per_s", "1/s", "higher", _extra("traced_per_s")),
    ("trace.overhead_ratio", "ratio", "lower", _extra("overhead_ratio")),
]


def layer_metrics(stats: SpanStats) -> Dict[str, Tuple[float, str]]:
    return {name: (value(stats), unit) for name, unit, _, value in PER_LAYER}
