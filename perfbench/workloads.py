"""Workload inputs, operations and correctness gates of the leobft benchmark.

Every input is generated here from the workload seed; the program only ever
sees the generated scenario dicts and geo parameters. See README.md for why
each workload exists and what it should stress.
"""

from __future__ import annotations

import hashlib
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from calibrate import time_reference
from leobft import geo, ledger, pipeline, scenario

# --- consensus workloads ---------------------------------------------------

N_OPERATORS = 10
MAX_FAULTY = 3
ADVERSARY_OPERATORS = [1, 2, 3]  # also the first three ledger proposers
EVENTS_PER_PERIOD = 8
REGIONS = SUBBANDS = 8
EPSILON = 0.05
RSSI_THRESHOLD = 0.5

# p90 needs 100 samples to leave 10 beyond it, so a run measures at least
# this many periods; the invariants are taken over exactly these periods so
# that they repeat on every run of a seed whatever the run length.
MIN_PERIODS = 100
# Inputs are generated before timing starts. A run never reuses an input, so
# it stops early if the program gets faster than this many periods a second.
PERIODS_PER_SECOND_CAP = {"exact": 30, "approx": 90, "binary": 150}
# Periods whose outputs are digested for the determinism and golden gates.
DIGEST_PERIODS = 4

CONSENSUS = {
    "exact-equivocate": {
        "profile": "exact", "zeta": 0.1,
        "adversary": {"behavior": "equivocate", "operators": ADVERSARY_OPERATORS},
    },
    "approx-rotating": {
        "profile": "approx", "zeta": 0.01,
        "adversary": {"behavior": "value-liar", "operators": ADVERSARY_OPERATORS,
                      "rotate": True, "params": {"offset": 10.0}},
    },
    "binary-split": {
        "profile": "binary", "zeta": 0.1,
        "adversary": {"behavior": "random-values", "operators": ADVERSARY_OPERATORS,
                      "rotate": True},
    },
}

# --- geo workload ------------------------------------------------------------

GEO = "geo-sweep"
SAT_OPERATORS = 4
# (satellites per 1e6 km^2, sub-bands): a small and a large working set
INTERFERENCE_POINTS = [(5.0, 1), (17.0, 1), (17.0, 10)]
HONEST_SENSOR_OPERATORS = 3
DETECTION_DENSITIES = [10.0, 90.0]  # sensors per 1e4 km^2
INCIDENTS = 10_000
DETECTION_TOLERANCE = 0.03  # acceptance criterion 7
INTERFERENCE_Z = 5.0  # standard deviations allowed around the closed form

WORKLOADS = list(CONSENSUS) + [GEO]

# sha256 of the deterministic outputs on the default seed (0): the four
# artifacts plus the ledger export of the first DIGEST_PERIODS periods, and for
# geo-sweep the first (5, 1) realisation and the first density-10 detection.
RECORDED_DIGESTS = {
    "exact-equivocate": "234a07a11ab68cd3dc8fc280b71d1667d84821bcd15724b9f8acccbe60703ec8",
    "approx-rotating": "65497d7e3c70a05506deb36e950c0854c4ad5b5bec8b953c8d4a4d91a56a4a17",
    "binary-split": "736d5bddaabef231e84cf59108c95c84a400958424f71aa675a4caf610b1cc7e",
    GEO: "91df9a46adc3febedcb1eb99ed51f05342c7f473abc2ae9ed1aacc84216118be",
}
DEFAULT_SEED = 0
# Never used while the benchmark or a change is written; re-check claims on it.
HELD_OUT_SEED = 20231205


def sub_seed(seed: int, *labels) -> int:
    """A labelled 63-bit seed derived from the workload seed."""
    text = "|".join(str(part) for part in (seed,) + labels)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


# --- input generation --------------------------------------------------------

def period_config(workload: str, index: int, rng: random.Random) -> dict:
    """Scenario dict for one period of a consensus workload.

    The period number is a multiple of N so that rotation starts at proposer
    1: the f controlled operators propose first and every commit takes f+1
    attempts.
    """
    spec = CONSENSUS[workload]
    cells = rng.sample([(r, s) for r in range(REGIONS) for s in range(SUBBANDS)],
                       EVENTS_PER_PERIOD)
    events = []
    for region, subband in cells:
        if spec["profile"] == "binary":
            # near the threshold, so honest bits split and the coin is needed
            truth = RSSI_THRESHOLD + rng.uniform(-EPSILON, EPSILON)
        else:
            truth = rng.uniform(0.0, 1.0)
        events.append({"region": region, "subband": subband,
                       "operator": rng.randint(1, N_OPERATORS), "truth": truth})
    return {
        "profile": spec["profile"],
        "seed": rng.getrandbits(31),
        "network": {"operators": N_OPERATORS, "max_faulty": MAX_FAULTY,
                    "epsilon": EPSILON, "zeta": spec["zeta"], "alpha": 0.5,
                    "rssi_threshold": RSSI_THRESHOLD},
        "tensor": {"regions": REGIONS, "subbands": SUBBANDS,
                   "period": N_OPERATORS * index},
        "adversary": spec["adversary"],
        "events": events,
    }


@dataclass
class ConsensusInputs:
    configs: List[dict]
    scenarios: List[scenario.Scenario]


@dataclass
class GeoInputs:
    seed: int
    incidents: Dict[float, np.ndarray]  # detection density -> unit vectors


def prepare(workload: str, seed: int, seconds: float):
    """Generate and parse a workload's inputs (the untimed set-up)."""
    if workload == GEO:
        return GeoInputs(seed, {
            density: geo.sphere_points(
                INCIDENTS, np.random.default_rng(sub_seed(seed, "incidents", density)))
            for density in DETECTION_DENSITIES
        })
    rng = random.Random(sub_seed(seed, workload))
    cap = PERIODS_PER_SECOND_CAP[CONSENSUS[workload]["profile"]]
    count = max(MIN_PERIODS, math.ceil(cap * seconds))
    configs = [period_config(workload, k, rng) for k in range(count)]
    return ConsensusInputs(configs, [scenario.parse_scenario(c) for c in configs])


# --- consensus operation -------------------------------------------------------

def artifacts(result: pipeline.ScenarioResult) -> Tuple[str, str, str, str]:
    """Step 3 of a period: the in-memory artifacts."""
    return (pipeline.results_csv(result), pipeline.bytes_csv(result),
            pipeline.retrieval_csv(result), pipeline.summary_text(result))


@dataclass
class PeriodOutcome:
    ok: bool
    events: int
    rounds: int
    wire_bytes: int
    digest: bytes
    error: Optional[str] = None


def check_period(result: pipeline.ScenarioResult,
                 report: ledger.AuditReport) -> Optional[str]:
    """None if the period committed and its export audits, else the reason."""
    if result.commit.block is None:
        return "no block committed after %d attempts" % result.commit.attempts_used
    if not report.ok:
        return "audit failed: %s" % report.error
    if len(report.blocks) != 1 or report.blocks[0].digest != result.commit.block.digest:
        return "audited chain does not hold the committed block"
    return None


def outputs_digest(parts: Sequence[bytes]) -> bytes:
    h = hashlib.sha256()
    for part in parts:
        h.update(b"%d:" % len(part))
        h.update(part)
    return h.digest()


def run_period(sc: scenario.Scenario) -> PeriodOutcome:
    """Steps 2-4 of one period: agree, commit, write artifacts, export, audit."""
    result = pipeline.run_scenario(sc)
    docs = artifacts(result)
    export = ledger.export_chain(result.ledger)
    report = ledger.audit_chain(export)
    error = check_period(result, report)
    return PeriodOutcome(
        ok=error is None,
        events=len(result.outcomes),
        rounds=sum(o.rounds for o in result.outcomes),
        wire_bytes=sum(b[3] for b in result.bytes_by_op.values()),
        digest=outputs_digest([d.encode() for d in docs] + [export]),
        error=error,
    )


@dataclass
class Measurement:
    """What one timed loop saw: per-operation latencies and outcomes."""

    latencies: List[float] = field(default_factory=list)  # seconds, ok ops only
    starts: List[float] = field(default_factory=list)  # clock at each latency's start
    refs: List[Tuple[float, float]] = field(default_factory=list)  # reference calls (start, s)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    digest: str = ""
    work: Dict[str, float] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def measure_consensus(inputs: ConsensusInputs, seconds: float,
                      min_periods: int = MIN_PERIODS, on_op=None) -> Measurement:
    """Closed loop: submit the next period only after the last is audited.

    Runs for `seconds` and at least `min_periods` periods. `on_op(index)` runs
    untimed before each period (the traced run re-parses the config there).
    """
    m = Measurement()
    digests: List[bytes] = []
    events = rounds = wire = 0
    start = time.perf_counter()
    for index, sc in enumerate(inputs.scenarios):
        now = time.perf_counter()
        if index >= min_periods and now - start >= seconds:
            break
        m.refs.append((now, time_reference()))
        if on_op is not None:
            on_op(index)
        m.attempted += 1
        t0 = time.perf_counter()
        try:
            outcome = run_period(sc)
        except Exception as err:  # a failed period is counted, the run goes on
            outcome = PeriodOutcome(False, 0, 0, 0, b"", "%s: %s" % (type(err).__name__, err))
        t1 = time.perf_counter()
        if not outcome.ok:
            m.fail("period %d: %s" % (index, outcome.error))
            continue
        m.latencies.append(t1 - t0)
        m.starts.append(t0)
        if index < DIGEST_PERIODS:
            digests.append(outcome.digest)
        if index < MIN_PERIODS:
            events += outcome.events
            rounds += outcome.rounds
            wire += outcome.wire_bytes
    m.digest = outputs_digest(digests).hex()
    m.work = {"invariant_events": events, "rounds": rounds, "wire_bytes": wire}
    return m


def consensus_digest(inputs: ConsensusInputs) -> str:
    """Digest of the first DIGEST_PERIODS periods, run again from scratch."""
    return outputs_digest([run_period(sc).digest
                           for sc in inputs.scenarios[:DIGEST_PERIODS]]).hex()


# --- geo operations ------------------------------------------------------------

def _pair_terms(density_per_1e6_km2: float, n_subbands: int,
                beam: Optional[geo.BeamGeometry]) -> Tuple[float, float]:
    """Mean satellites per constellation (lambda A), and the chance p/S that
    two given satellites overlap on the same sub-band."""
    beam = beam or geo.BeamGeometry()
    mean_sats = density_per_1e6_km2 / 1e6 * geo.EARTH_AREA_KM2
    cap = (1.0 - math.cos(2.0 * beam.footprint_radius_km / geo.R_EARTH_KM)) / 2.0
    return mean_sats, cap / n_subbands


def expected_pairs(density_per_1e6_km2: float, n_operators: int, n_subbands: int,
                   beam: Optional[geo.BeamGeometry] = None) -> float:
    """Closed-form mean interference count: C(k,2) (lambda A)^2 (1-cos(2r/R))/2 / S."""
    mean_sats, chance = _pair_terms(density_per_1e6_km2, n_subbands, beam)
    return math.comb(n_operators, 2) * mean_sats**2 * chance


def pairs_tolerance(density_per_1e6_km2: float, n_operators: int, n_subbands: int,
                    samples: int, beam: Optional[geo.BeamGeometry] = None) -> float:
    """INTERFERENCE_Z standard deviations of the mean of `samples` counts.

    For independent Poisson constellations the count has variance
    E (1 + 2 (k-1) q), where q = (lambda A) p / S is the mean number of
    same-band neighbours one satellite has in another constellation.
    """
    mean_sats, chance = _pair_terms(density_per_1e6_km2, n_subbands, beam)
    mean = math.comb(n_operators, 2) * mean_sats**2 * chance
    q = mean_sats * chance
    return INTERFERENCE_Z * math.sqrt(mean * (1.0 + 2.0 * (n_operators - 1) * q) / samples)


def realisation(seed: int, point: int, cycle: int) -> int:
    """Build one constellation realisation and count its interfering pairs."""
    density, subbands = INTERFERENCE_POINTS[point]
    rng = np.random.default_rng(sub_seed(seed, "constellation", point, cycle))
    constellation = geo.build_constellation(range(1, SAT_OPERATORS + 1), density / 1e6,
                                            subbands, rng)
    return geo.count_interference(constellation)


def detection_point(inputs: GeoInputs, point: int, cycle: int) -> geo.DetectionSample:
    """Deploy the honest sensor fields and check every incident against them."""
    density = DETECTION_DENSITIES[point]
    fields = {
        op: geo.deploy_poisson(density / 1e4, np.random.default_rng(
            sub_seed(inputs.seed, "field", point, cycle, op)))
        for op in range(1, HONEST_SENSOR_OPERATORS + 1)
    }
    return geo.simulate_detection(fields, inputs.incidents[density])


def detection_error(density_per_1e4_km2: float, rate: float) -> float:
    theory = geo.detection_probability_theory(
        [density_per_1e4_km2 / 1e4] * HONEST_SENSOR_OPERATORS)
    return abs(rate - theory)


@dataclass
class GeoMeasurement(Measurement):
    # seconds per sweep point, keyed ("interference", i) or ("detection", i)
    point_times: Dict[Tuple[str, int], List[float]] = field(default_factory=dict)
    cycle_times: List[float] = field(default_factory=list)


def geo_golden_parts(inputs: GeoInputs) -> List[bytes]:
    count = realisation(inputs.seed, 0, 0)
    sample = detection_point(inputs, 0, 0)
    return [b"%d" % count, sample.detected.tobytes(), repr(sample.rate).encode()]


def measure_geo(inputs: GeoInputs, seconds: float, on_op=None) -> GeoMeasurement:
    """Whole sweeps (every interference point, then every detection point):
    at least one, and another only while it should end within `seconds`.
    `on_op()` runs before each sweep point."""
    m = GeoMeasurement()
    counts: Dict[int, List[int]] = {i: [] for i in range(len(INTERFERENCE_POINTS))}
    parts: List[bytes] = []
    start = time.perf_counter()
    cycle = 0
    last = 0.0
    while cycle == 0 or time.perf_counter() - start + last <= seconds:
        cycle_start = time.perf_counter()
        cycle_ok = True
        for i in range(len(INTERFERENCE_POINTS)):
            m.attempted += 1
            if on_op is not None:
                on_op()
            t0 = time.perf_counter()
            try:
                count = realisation(inputs.seed, i, cycle)
            except Exception as err:  # counted, the sweep goes on
                m.fail("interference point %d: %r" % (i, err))
                cycle_ok = False
                continue
            m.point_times.setdefault(("interference", i), []).append(time.perf_counter() - t0)
            counts[i].append(count)
            if cycle == 0 and i == 0:
                parts.append(b"%d" % count)
        for i, density in enumerate(DETECTION_DENSITIES):
            m.attempted += 1
            if on_op is not None:
                on_op()
            t0 = time.perf_counter()
            try:
                sample = detection_point(inputs, i, cycle)
            except Exception as err:
                m.fail("detection point %d: %r" % (i, err))
                cycle_ok = False
                continue
            m.point_times.setdefault(("detection", i), []).append(time.perf_counter() - t0)
            if cycle == 0 and i == 0:
                parts += [sample.detected.tobytes(), repr(sample.rate).encode()]
            error = detection_error(density, sample.rate)
            if error > DETECTION_TOLERANCE:
                m.fail("detection density %g: |empirical - theory| = %.4f > %.2f"
                       % (density, error, DETECTION_TOLERANCE))
        last = time.perf_counter() - cycle_start
        if cycle_ok:
            m.cycle_times.append(last)
        cycle += 1
    for i, (density, subbands) in enumerate(INTERFERENCE_POINTS):
        if not counts[i]:
            continue
        mean = statistics.fmean(counts[i])
        expected = expected_pairs(density, SAT_OPERATORS, subbands)
        tolerance = pairs_tolerance(density, SAT_OPERATORS, subbands, len(counts[i]))
        if abs(mean - expected) > tolerance:
            m.fail("interference (%g, %d): mean %.1f off closed form %.1f by more than %.1f"
                   % (density, subbands, mean, expected, tolerance))
    m.digest = outputs_digest(parts).hex()
    return m


# --- gates ----------------------------------------------------------------------

def golden_digest(workload: str) -> str:
    """Digest of the deterministic outputs on the default seed."""
    inputs = prepare(workload, DEFAULT_SEED, 0)
    if workload == GEO:
        return outputs_digest(geo_golden_parts(inputs)).hex()
    return consensus_digest(inputs)


def rerun_digest(workload: str, inputs) -> str:
    """The run's digested outputs computed again from the same inputs."""
    if workload == GEO:
        return outputs_digest(geo_golden_parts(inputs)).hex()
    return consensus_digest(inputs)


def digest_gate(workload: str, measured: str, rerun: str, golden: str,
                recorded: Optional[Dict[str, str]] = None) -> List[str]:
    """Failures of the byte-identical gate: a re-run must reproduce the run's
    digest, and the default seed must reproduce the recorded digest."""
    recorded = RECORDED_DIGESTS if recorded is None else recorded
    problems = []
    if rerun != measured:
        problems.append("outputs differ between two runs of one seed: %s vs %s"
                        % (measured[:16], rerun[:16]))
    if golden != recorded[workload]:
        problems.append("outputs of the default seed changed: %s, recorded %s"
                        % (golden[:16], recorded[workload][:16]))
    return problems
