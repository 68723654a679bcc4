#!/usr/bin/env python3
"""The leobft benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload exact-equivocate --seed 0 --seconds 20 --trace 0

Run from the repository root. With --trace 0 the last line of standard
output holds the end-to-end metrics; with --trace 1 it holds the per-layer
metrics of a traced run and the tracing overhead. The line before it is the
full record: environment, seed, digests, gate results and the per-workload
metrics. The exit code is 0 only when every output checked out. See
perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"

SETUP_SAMPLES = 7  # set-ups per run (this process plus fresh interpreters)
SETUP_REFS = 5  # reference loops timed before and again after each set-up


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["exact-equivocate", "approx-rotating", "binary-split",
                                 "geo-sweep"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time one set-up and print its seconds")
    return parser.parse_args(argv)


def setup(workload: str, seed: int, seconds: float):
    """Import the program and generate and parse the inputs; returns
    (workloads module, inputs, seconds taken, reference loop seconds around it)."""
    refs = [calibrate.time_reference() for _ in range(SETUP_REFS)]
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads  # imports leobft, numpy and scipy.spatial

    inputs = workloads.prepare(workload, seed, seconds)
    took = time.perf_counter() - t0
    refs += [calibrate.time_reference() for _ in range(SETUP_REFS)]
    return workloads, inputs, took, statistics.median(refs)


def setup_probe(args):
    """Time one set-up in a fresh interpreter, as a user starting up pays it;
    returns (seconds, reference loop seconds)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=120, check=True)
    took, ref = proc.stdout.split()[-2:]
    return float(took), float(ref)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "platform": platform.platform(),
        "geo_note": "geo detection queries use cKDTree workers=-1, i.e. every core",
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def p90(values):
    """90th percentile; with fewer than 10 samples, the largest."""
    return statistics.quantiles(values, n=10)[-1] if len(values) >= 10 else max(values)


def consensus_figures(wl, m) -> dict:
    """Per-period figures; the calibrated ones are read at the reference speed."""
    events = m.work["invariant_events"]
    cal = calibrate.calibrated(m.latencies, m.starts, m.refs)
    return {
        "events_per_s": (wl.EVENTS_PER_PERIOD * len(cal) / sum(cal), "events/s"),
        "period_p50_ms": (1e3 * statistics.median(cal), "ms"),
        "period_p90_ms": (1e3 * p90(cal), "ms"),
        "wall_events_per_s": (wl.EVENTS_PER_PERIOD * len(m.latencies) / sum(m.latencies),
                              "events/s"),
        "wall_period_p50_ms": (1e3 * statistics.median(m.latencies), "ms"),
        "wall_period_p90_ms": (1e3 * p90(m.latencies), "ms"),
        "reference_ms": (1e3 * statistics.median(d for _, d in m.refs), "ms"),
        "period_samples": (len(m.latencies), "count"),
        "rounds_per_event": (m.work["rounds"] / events, "rounds"),
        "wire_bytes_per_event": (m.work["wire_bytes"] / events, "bytes"),
    }


def geo_figures(wl, m) -> dict:
    def total(kind, count):
        return sum(statistics.median(m.point_times[(kind, i)]) for i in range(count))

    t_int = total("interference", len(wl.INTERFERENCE_POINTS))
    t_det = total("detection", len(wl.DETECTION_DENSITIES))
    return {
        "interference_samples_per_s": (len(wl.INTERFERENCE_POINTS) / t_int, "samples/s"),
        "detection_points_per_s": (len(wl.DETECTION_DENSITIES) / t_det, "points/s"),
        "sweep_points_per_s": ((len(wl.INTERFERENCE_POINTS) + len(wl.DETECTION_DENSITIES))
                               / (t_int + t_det), "points/s"),
        "sweep_p50_ms": (1e3 * statistics.median(m.cycle_times), "ms"),
        "sweep_p90_ms": (1e3 * p90(m.cycle_times), "ms"),
        "sweep_samples": (len(m.cycle_times), "count"),
    }


def end_to_end(geo: bool, figures: dict) -> dict:
    """The workload-independent metrics BENCHMARK.json lists.

    An operation is a period (8 events) on the consensus workloads and one
    whole sweep (every interference and detection point) on geo-sweep.
    Consensus times and set-up are calibrated to the reference speed; geo
    times are wall times (numpy-bound work does not drift with the loop).
    """
    if geo:
        rate, p50, p90_ = "sweep_points_per_s", "sweep_p50_ms", "sweep_p90_ms"
    else:
        rate, p50, p90_ = "events_per_s", "period_p50_ms", "period_p90_ms"
    return {
        "setup_s": (figures["setup_s"][0], "s"),
        "throughput_per_s": (figures[rate][0], "1/s"),
        "latency_p50_ms": (figures[p50][0], "ms"),
        "latency_p90_ms": (figures[p90_][0], "ms"),
        "peak_rss_mb": (figures["peak_rss_mb"][0], "MB"),
    }


def measure(wl, inputs, workload: str, seconds: float, **kwargs):
    if workload == wl.GEO:
        return wl.measure_geo(inputs, seconds, **kwargs)
    return wl.measure_consensus(inputs, seconds, **kwargs)


def figures_of(wl, workload: str, m) -> dict:
    return geo_figures(wl, m) if workload == wl.GEO else consensus_figures(wl, m)


def traced_run(wl, inputs, args):
    """Untraced then traced halves on the same inputs; per-layer metrics."""
    import spans
    from leobft import scenario

    geo = args.workload == wl.GEO
    half = args.seconds / 2.0
    plain = measure(wl, inputs, args.workload, half)
    tracer = spans.Tracer()
    tracer.install({
        "bench.period": (wl, "run_period"),
        "bench.realisation": (wl, "realisation"),
        "bench.detection": (wl, "detection_point"),
        "pipeline.artifacts": (wl, "artifacts"),
    })
    try:
        if geo:
            traced = wl.measure_geo(inputs, half, on_op=tracer.begin_op)
        else:
            def on_op(index):  # parse is set-up work: traced, but outside the latency
                tracer.begin_op()
                scenario.parse_scenario(inputs.configs[index])

            traced = wl.measure_consensus(inputs, half, min_periods=wl.DIGEST_PERIODS,
                                          on_op=on_op)
    finally:
        tracer.uninstall()
    problems = []
    if traced.digest != plain.digest:
        problems.append("traced outputs differ from untraced: %s vs %s"
                        % (traced.digest[:16], plain.digest[:16]))
    extra = {}
    if not (plain.failed or traced.failed):
        rate = "sweep_points_per_s" if geo else "events_per_s"
        fig_plain = figures_of(wl, args.workload, plain)
        fig_traced = figures_of(wl, args.workload, traced)
        extra = {
            "untraced_per_s": fig_plain[rate][0],
            "traced_per_s": fig_traced[rate][0],
            "overhead_ratio": fig_plain[rate][0] / fig_traced[rate][0],
        }
        if not geo:
            extra["rounds_per_event"] = fig_plain["rounds_per_event"][0]
            extra["wire_bytes_per_event"] = fig_plain["wire_bytes_per_event"][0]
    stats = spans.SpanStats(tracer, tracer.op_id + 1, extra)
    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / ("spans-%s.tsv.gz" % args.workload)  # the latest traced run
    tracer.write(spans_path)
    info = {"spans": len(tracer.start), "spans_file": str(spans_path.relative_to(ROOT)),
            "traced_ops": tracer.op_id + 1}
    return [plain, traced], spans.layer_metrics(stats), problems, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "leobft" / "__init__.py").is_file():
        print("perfbench: no leobft sources under %s; run from a repository checkout" % SRC,
              file=sys.stderr)
        return 2
    if args.setup_probe:
        print("%r %r" % setup(args.workload, args.seed, args.seconds)[2:])
        return 0

    wl, inputs, setup_took, setup_ref = setup(args.workload, args.seed, args.seconds)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seed_role": ("default" if args.seed == wl.DEFAULT_SEED else
                            "held-out" if args.seed == wl.HELD_OUT_SEED else "other"),
              "seconds": args.seconds, "environment": environment()}
    if args.trace:
        runs, metrics, problems, record["trace_info"] = traced_run(wl, inputs, args)
    else:
        runs, metrics, problems = [measure(wl, inputs, args.workload, args.seconds)], {}, []
    m = runs[0]

    # byte-identical gate: the run's digested outputs again, and the default seed
    golden = wl.golden_digest(args.workload)
    problems += wl.digest_gate(args.workload, m.digest,
                               wl.rerun_digest(args.workload, inputs), golden)
    attempted = 2 + args.trace + sum(r.attempted for r in runs)  # gate checks count too
    failed = len(problems) + sum(r.failed for r in runs)
    measured = not any(r.failed for r in runs)
    figures = {"failed_share": (failed / attempted, "ratio")}
    if measured:
        figures.update(figures_of(wl, args.workload, m))
    if not args.trace:
        samples = [(setup_took, setup_ref)] + [setup_probe(args)
                                               for _ in range(SETUP_SAMPLES - 1)]
        figures["setup_s"] = (statistics.median(
            took * calibrate.REF_NOMINAL_S / ref for took, ref in samples), "s")
        figures["wall_setup_s"] = (statistics.median(took for took, _ in samples), "s")
        figures["setup_samples_s"] = ([took for took, _ in samples], "s")
        figures["peak_rss_mb"] = (peak_rss_mb(), "MB")
        if measured:
            metrics = end_to_end(args.workload == wl.GEO, figures)
    record.update({
        "digest": m.digest, "default_seed_digest": golden,
        "errors": problems + [e for r in runs for e in r.errors],
        "figures": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
    })
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
