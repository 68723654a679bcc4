"""Tests of the benchmark itself: metric names, span arithmetic, the gates.

Run from the repository root with `python3 -m pytest perfbench/tests -q`.
"""

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import pytest  # noqa: E402

import calibrate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from leobft import auth, exact, ledger, pipeline  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())


def test_metric_names_are_well_formed_and_listed():
    per_layer = [name for name, _, _, _ in spans.PER_LAYER]
    figures = {name: (1.0, "") for name in ("events_per_s", "period_p50_ms", "period_p90_ms",
                                            "setup_s", "peak_rss_mb")}
    e2e = list(run.end_to_end(False, figures))
    record = (list(run.consensus_figures(workloads, _fake_measurement()))
              + list(run.geo_figures(workloads, _fake_geo_measurement())))
    for name in per_layer + e2e + record:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(per_layer)) == len(per_layer)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == per_layer
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == e2e
    assert [w["name"] for w in BENCHMARK["workloads"]] == workloads.WORKLOADS
    for name in per_layer:
        assert name.split(".")[0] in spans.LAYERS + ("trace",), name


def _fake_measurement():
    m = workloads.Measurement(latencies=[0.01 * (1 + i % 7) for i in range(120)],
                              starts=[0.1 * i for i in range(120)],
                              refs=[(0.1 * i, 0.0025) for i in range(120)])
    m.work = {"invariant_events": 800, "rounds": 3200, "wire_bytes": 8000}
    return m


def _fake_geo_measurement():
    m = workloads.GeoMeasurement(cycle_times=[2.0])
    m.point_times = {("interference", i): [0.1] for i in range(3)}
    m.point_times.update({("detection", i): [0.5] for i in range(2)})
    return m


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] with children a [1, 4] and b [3, 6] (overlapping: 5 s
    # covered once) and c [8, 12], which is clipped to the root's end (2 s);
    # a has one child [2, 3].
    start = [0.0, 1.0, 2.0, 3.0, 8.0]
    end = [10.0, 4.0, 3.0, 6.0, 12.0]
    parent = [-1, 0, 1, 0, 0]
    assert spans.self_times(start, end, parent) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0])


def test_calibration_divides_by_the_loops_around_each_operation():
    # (start, seconds) of reference loops: the host runs at half speed until t=2
    refs = [(0.0, 0.005), (1.0, 0.005), (2.0, 0.0025), (3.0, 0.0025)]
    got = calibrate.calibrated([0.2, 0.2, 0.2], [0.5, 2.5, 9.0], refs)
    assert got == pytest.approx([0.1, 0.2, 0.2])


def test_tracer_records_nested_spans_and_restores_the_program():
    # names copied by `from x import y` must be wrapped too, or spans go missing
    bound = [(auth, "encode"), (pipeline, "observe"), (pipeline, "binarize"),
             (exact, "averaging_function"), (ledger, "averaging_function"), (exact, "median")]
    originals = [getattr(module, attr) for module, attr in bound]
    sc = workloads.prepare("binary-split", 0, 0).scenarios[0]
    tracer = spans.Tracer()
    tracer.install({"bench.period": (workloads, "run_period")})
    try:
        for (module, attr), original in zip(bound, originals):
            assert getattr(module, attr).__wrapped__ is original, (module, attr)
        tracer.begin_op()
        workloads.run_period(sc)
    finally:
        tracer.uninstall()
    assert [getattr(module, attr) for module, attr in bound] == originals
    assert workloads.run_period.__name__ == "run_period"
    stats = spans.SpanStats(tracer, 1, {})
    metrics = spans.layer_metrics(stats)
    assert metrics["ledger.attempts_per_period"][0] == workloads.MAX_FAULTY + 1
    assert metrics["netsim.deliveries"][0] == sum(
        metrics["netsim.deliveries." + k][0] for k in spans.DELIVERY_KINDS)
    root = tracer.names.index("bench.period")
    assert tracer.name[0] == root and tracer.parent[0] == -1
    assert all(p >= 0 for p in list(tracer.parent)[1:])


@pytest.fixture(scope="module")
def one_period():
    sc = workloads.prepare("exact-equivocate", 0, 0).scenarios[0]
    result = pipeline.run_scenario(sc)
    return result, ledger.export_chain(result.ledger)


def test_gate_passes_a_good_period(one_period):
    result, export = one_period
    assert workloads.check_period(result, ledger.audit_chain(export)) is None


def test_gate_trips_on_one_flipped_byte_of_the_export(one_period):
    result, export = one_period
    body = export.index(b"\n") + 1  # first byte of the block record
    for pos in (body + 40, len(export) - 10):
        flipped = bytearray(export)
        flipped[pos] ^= 0x01
        assert workloads.check_period(result, ledger.audit_chain(bytes(flipped))) is not None


def test_gate_trips_on_a_wrong_recorded_digest():
    good = {"exact-equivocate": "ab" * 32}
    assert workloads.digest_gate("exact-equivocate", "cd", "cd", "ab" * 32, good) == []
    assert len(workloads.digest_gate("exact-equivocate", "cd", "cd", "00" * 32, good)) == 1
    assert len(workloads.digest_gate("exact-equivocate", "cd", "ce", "ab" * 32, good)) == 1


def test_closed_form_interference_means():
    got = [round(workloads.expected_pairs(d, 4, s)) for d, s in workloads.INTERFERENCE_POINTS]
    assert got == [271, 3138, 314]
    # the seed-0 three-trial means the criterion-8 sweep observed lie inside
    for (d, s), observed in zip(workloads.INTERFERENCE_POINTS, [263, 3091, 310]):
        tol = workloads.pairs_tolerance(d, 4, s, samples=3)
        assert abs(observed - workloads.expected_pairs(d, 4, s)) <= tol
