"""Release acceptance suite.

Nine criteria, one test each, one printed PASS/FAIL line each. Every line
appears even under pytest's output capture. Tolerances are pinned in the
assertions; the consensus criteria are exact inequalities, the Monte-Carlo
criteria carry their stated statistical bands and runtime budgets.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from scipy.stats import spearmanr

from leobft import approx, auth, binary, exact, geo, ledger, netsim, pipeline
from leobft.model import NetworkParams, UsageTensor
from leobft.scenario import parse_scenario

GRID = [(4, 1), (7, 2), (10, 3)]
# N > 3f + 1, where the quorum is above 2f + 1: two sets of 2f + 1 would share
# fewer than f + 1 operators
QUORUM_CELLS = [(5, 1), (9, 2)]
BEHAVIORS = list(netsim.BEHAVIORS)
SEEDS_PER_CELL = 500


@pytest.fixture
def report(capsys):
    def _report(criterion: int, ok: bool, detail: str) -> None:
        line = "criterion %d: %s - %s" % (criterion, "PASS" if ok else "FAIL", detail)
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
    return _report


def _params(n: int, f: int) -> NetworkParams:
    return NetworkParams(n_operators=n, max_faulty=f, epsilon=0.05, zeta=0.1,
                         alpha=0.5, rssi_threshold=0.5)


def test_criterion_1_binary_agreement_grid(report):
    t0 = time.perf_counter()
    runs = 0
    unanimous_checked = 0
    for n, f in GRID + QUORUM_CELLS:
        params = _params(n, f)
        ids = list(range(1, n + 1))
        registry = auth.KeyRegistry(ids, auth.derive_seed(1001, "keys", n))
        for bi, behavior in enumerate(BEHAVIORS):
            for s in range(SEEDS_PER_CELL):
                rng = random.Random(auth.derive_seed(1001, "run", n, bi, s))
                controlled = frozenset(rng.sample(ids, f))
                bits = {op: rng.randint(0, 1) for op in ids}
                if s < 20:  # force honest-unanimous inputs on a slice of seeds
                    for op in ids:
                        if op not in controlled:
                            bits[op] = s % 2
                result = binary.run_binary(
                    params, bits, instance="a1.%d.%d.%d" % (n, bi, s),
                    seed=auth.derive_seed(1001, "bus", n, bi, s),
                    adversary=netsim.AdversaryStrategy(behavior=behavior,
                                                       controlled=controlled),
                    coin=auth.CommonCoin(auth.derive_seed(1001, "coin", n, bi, s)),
                    registry=registry,
                )
                honest = [op for op in ids if op not in controlled]
                outs = {result.outputs[op] for op in honest}
                assert len(outs) == 1 and None not in outs, \
                    "agreement broken: n=%d %s seed=%d" % (n, behavior, s)
                honest_bits = {bits[op] for op in honest}
                if len(honest_bits) == 1:
                    assert outs == honest_bits, \
                        "validity broken: n=%d %s seed=%d" % (n, behavior, s)
                    for op in honest:
                        assert result.halt_iterations[op] == 1
                        assert result.halt_clauses[op] in ("1.1", "2.1")
                    unanimous_checked += 1
                runs += 1
    elapsed = time.perf_counter() - t0
    report(1, elapsed < 60.0,
           "binary agreement+validity in %d/%d runs (grid N=4,7,10 and 5,9 x 6 "
           "strategies x %d seeds); %d honest-unanimous runs all halted in "
           "iteration 1 via clause 1.1/2.1; runtime %.1fs < 60s"
           % (runs, runs, SEEDS_PER_CELL, unanimous_checked, elapsed))


def test_criterion_2_exact_agreement_grid(report):
    t0 = time.perf_counter()
    runs = 0
    for n, f in GRID:
        params = _params(n, f)
        ids = list(range(1, n + 1))
        registry = auth.KeyRegistry(ids, auth.derive_seed(1002, "keys", n))
        for bi, behavior in enumerate(BEHAVIORS):
            for s in range(SEEDS_PER_CELL):
                rng = random.Random(auth.derive_seed(1002, "run", n, bi, s))
                controlled = frozenset(rng.sample(ids, f))
                ground = rng.uniform(0.2, 0.8)
                values = {
                    op: ground + rng.uniform(-params.epsilon, params.epsilon)
                    for op in ids
                }
                result = exact.run_exact(
                    params, values, instance="a2.%d.%d.%d" % (n, bi, s),
                    seed=auth.derive_seed(1002, "bus", n, bi, s),
                    adversary=netsim.AdversaryStrategy(behavior=behavior,
                                                       controlled=controlled),
                    registry=registry, aggregation="median",
                )
                honest = [op for op in ids if op not in controlled]
                views = {tuple(sorted(result.views[op].items(),
                                      key=lambda kv: kv[0],)) for op in honest}
                assert len(views) == 1, \
                    "view divergence: n=%d %s seed=%d" % (n, behavior, s)
                view = result.views[honest[0]]
                for peer in honest:
                    assert view[peer] == values[peer], \
                        "honest slot corrupted: n=%d %s seed=%d" % (n, behavior, s)
                outs = {result.outputs[op] for op in honest}
                assert len(outs) == 1
                agreed = outs.pop()
                assert ground - params.epsilon <= agreed <= ground + params.epsilon, \
                    "median outside tolerance: n=%d %s seed=%d" % (n, behavior, s)
                assert result.rounds == f + 1
                for op in honest:
                    for round_no, n_signatures in result.accepted_chain_lengths[op]:
                        assert n_signatures == round_no <= f + 1
                runs += 1
    elapsed = time.perf_counter() - t0
    report(2, True,
           "exact agreement: view consistency, honest-slot validity, agreed "
           "median within epsilon of ground truth, exactly f+1 rounds with "
           "round-k messages carrying k signatures, in %d/%d runs; runtime %.1fs"
           % (runs, runs, elapsed))


def _honest_spread(snapshot, honest) -> Fraction:
    values = [Fraction(snapshot[op]) for op in honest]
    return max(values) - min(values)


def _rounding_term(snapshot, honest) -> Fraction:
    """Exact bound on how far stored floats can sit from their true means.

    Each stored value is the correctly rounded float of an exact mean, so it
    is within half an ulp of it; the spread is inflated by at most half an
    ulp at each end. This is machine-arithmetic accounting, not a tolerance.
    """
    hi = max(snapshot[op] for op in honest)
    lo = min(snapshot[op] for op in honest)
    return (Fraction(math.ulp(hi)) + Fraction(math.ulp(lo))) / 2


def _check_approx_run(result, initials, honest, params, c) -> int:
    """All convergence invariants for one transcript; returns rounds checked."""
    for op in honest:
        assert result.outputs[op] is not None, "operator %d never halted" % op
        expected = approx.round_count(result.first_spreads[op], params.zeta, c) \
            if result.first_spreads[op] > 0 else 1
        assert result.horizons[op] == max(1, expected)
    outs = [result.outputs[op] for op in honest]
    assert max(outs) - min(outs) <= params.zeta, "final spread above zeta"
    lo = min(initials[op] for op in honest)
    hi = max(initials[op] for op in honest)
    assert all(lo <= v <= hi for v in outs), "output escaped honest range"
    first_halt = min(result.horizons[op] for op in honest)
    snaps = result.values_by_round
    checked = 0
    for r in range(min(first_halt, len(snaps) - 1)):
        before = _honest_spread(snaps[r], honest)
        after = _honest_spread(snaps[r + 1], honest)
        assert after * c <= before + c * _rounding_term(snaps[r + 1], honest), \
            "round %d shrank by less than the guaranteed factor" % r
        checked += 1
    return checked


def test_criterion_3_approximate_agreement_grid(report):
    t0 = time.perf_counter()
    runs = rounds_checked = 0
    for n, f in GRID:
        params = _params(n, f)
        ids = list(range(1, n + 1))
        c = approx.shrink_factor(n, f)
        for bi, behavior in enumerate(BEHAVIORS):
            for s in range(SEEDS_PER_CELL):
                rng = random.Random(auth.derive_seed(1003, "run", n, bi, s))
                controlled = frozenset(rng.sample(ids, f))
                # dyadic initials keep every mean exact in float arithmetic
                initials = {op: rng.randrange(1025) / 1024.0 for op in ids}
                result = approx.run_approx(
                    params, initials,
                    seed=auth.derive_seed(1003, "bus", n, bi, s),
                    adversary=netsim.AdversaryStrategy(behavior=behavior,
                                                       controlled=controlled),
                )
                honest = [op for op in ids if op not in controlled]
                rounds_checked += _check_approx_run(result, initials, honest,
                                                    params, c)
                runs += 1
    # per-round rotating faults: every state machine stays honest, the
    # substituted set changes each round, and the guarantees must still hold
    rotating_runs = 0
    params = _params(4, 1)
    ids = [1, 2, 3, 4]
    c = approx.shrink_factor(4, 1)
    for bi, behavior in enumerate(b for b in BEHAVIORS if b != netsim.CRASH):
        for s in range(200):
            rng = random.Random(auth.derive_seed(1003, "rot", bi, s))
            initials = {op: rng.randrange(1025) / 1024.0 for op in ids}
            result = approx.run_approx(
                params, initials, seed=auth.derive_seed(1003, "rotbus", bi, s),
                adversary=netsim.AdversaryStrategy(behavior=behavior,
                                                   controlled=frozenset({1}),
                                                   rotate=True),
            )
            assert len({cs for cs in result.controlled_by_round[:4]}) > 1
            rounds_checked += _check_approx_run(result, initials, ids, params, c)
            rotating_runs += 1
    # tightness witness: dyadic inputs keep all float arithmetic exact, and an
    # equivocating extreme-value adversary drives the shrink bound to equality
    witness = approx.run_approx(
        _params(4, 1), {1: 0.0, 2: 4.0, 3: 8.0, 4: 4.0}, seed=5,
        adversary=netsim.AdversaryStrategy(behavior=netsim.EQUIVOCATE,
                                           controlled=frozenset({4}),
                                           params={"offset": 10.0}),
    )
    honest = [1, 2, 3]
    tight_rounds = 0
    first_halt = min(witness.horizons[op] for op in honest)
    for r in range(first_halt):
        before = _honest_spread(witness.values_by_round[r], honest)
        after = _honest_spread(witness.values_by_round[r + 1], honest)
        assert after * 2 <= before  # exact, no rounding allowance
        if after * 2 == before:
            tight_rounds += 1
    assert tight_rounds >= 3, "shrink bound never reached equality"
    elapsed = time.perf_counter() - t0
    report(3, True,
           "approximate agreement: per-round shrink factor >= c, final spread "
           "<= zeta, outputs inside honest range (exact inequalities) across "
           "%d static-fault runs + %d rotating-fault runs; %d round "
           "transitions checked; runtime %.1fs"
           % (runs, rotating_runs, rounds_checked, elapsed))


def test_criterion_4_averaging_oracle_equivalence(report):
    def oracle(values, f):
        ordered = sorted(values)
        if len(ordered) <= 2 * f:
            raise ValueError("undefined for 2f or fewer values")
        trimmed = [ordered[i] for i in range(f, len(ordered) - f)]
        picked = [trimmed[i] for i in range(0, len(trimmed), f)]
        total = Fraction(0)
        for value in picked:
            total += Fraction(value)
        return float(total / len(picked))

    checked = rejected = 0
    for size in range(1, 9):
        for multiset in itertools.combinations_with_replacement(range(5), size):
            values = [float(v) for v in multiset]
            for f in (1, 2):
                if size <= 2 * f:
                    with pytest.raises(ValueError):
                        approx.averaging_function(values, f)
                    rejected += 1
                    continue
                assert approx.averaging_function(values, f) == oracle(values, f), \
                    "mismatch on %r f=%d" % (multiset, f)
                checked += 1
    report(4, True,
           "trim/stride/mean function matches the brute-force oracle exactly "
           "on all %d (multiset, f) pairs of size <= 8 over {0..4}, f in {1,2}; "
           "%d undersized multisets rejected by both" % (checked, rejected))


def test_criterion_5_ledger_safety_exhaustive(report):
    combos = verdicts_verified = 0
    for n, f in [(4, 1)] + QUORUM_CELLS:
        ids = list(range(1, n + 1))
        # f consecutive operators from each position, wrapping past N
        for controlled in (frozenset(ids[(start + i) % n] for i in range(f))
                           for start in range(n)):
            combos_here, verified_here = _ledger_safety_cell(n, f, controlled)
            combos += combos_here
            verdicts_verified += verified_here
    report(5, True,
           "ledger safety: single commit with no conflicting certificates, "
           "evidence-backed verdicts (%d verified), committed values within "
           "alpha of >= f+1 honest locals, across %d adversary combinations "
           "(6 behaviors x N positions x 3 vote policies x 2 modes, "
           "N,f = 4,1 5,1 9,2)" % (verdicts_verified, combos))


def _ledger_safety_cell(n, f, controlled):
    """(combinations, verdicts verified) of criterion 5 with one controlled set."""
    params = _params(n, f)
    ids = list(range(1, n + 1))
    registry = auth.KeyRegistry(ids, auth.derive_seed(1005, "keys"))
    quorum = params.quorum
    honest = [op for op in ids if op not in controlled]
    combos = verdicts_verified = 0

    def make_locals(mode):
        locals_by_op = {}
        for op in ids:
            tensor = UsageTensor(0, (2, 2, 4))
            jitter = 0.0 if mode == "exact" else 0.01 * op
            tensor.set((0, 0, 1), 0.5 + jitter)
            tensor.set((1, 1, 2), 0.25 + jitter)
            locals_by_op[op] = tensor
        return locals_by_op

    for mode in ("exact", "approx"):
        baseline = ledger.TensorLedger(params, registry)
        outcome = ledger.commit_period(baseline, 0, make_locals(mode), mode)
        assert outcome.block is not None and outcome.block.attempt == 0

        for behavior, vote_policy in itertools.product(
                BEHAVIORS, ("derived", "approve-all", "reject-all")):
            locals_by_op = make_locals(mode)
            adversary = netsim.AdversaryStrategy(
                behavior=behavior,
                controlled=controlled,
                params={"offset": 10.0},
                vote_policy=None if vote_policy == "derived" else vote_policy,
            )
            chain = ledger.TensorLedger(params, registry)
            outcome = ledger.commit_period(chain, 0, locals_by_op, mode, adversary)
            combos += 1
            where = "n=%d %s faulty=%s votes=%s" % (
                n, behavior, sorted(controlled), adversary.vote_policy)

            # liveness within f+1 attempts despite f faulty operators
            assert outcome.block is not None, "no commit: " + where

            # safety: per attempt, honest operators vote once and at most one
            # digest can gather a quorum of distinct signers
            for attempt in {v[0] for v in outcome.votes_emitted}:
                votes = [v for v in outcome.votes_emitted if v[0] == attempt]
                for op in honest:
                    assert len([v for v in votes if v[2] == op]) <= 1
                support = {}
                for _, digest, op, _tag in votes:
                    support.setdefault(digest, set()).add(op)
                at_quorum = [d for d, ops in support.items() if len(ops) >= quorum]
                assert len(at_quorum) <= 1, "conflicting certificates: " + where

            # accountability: every verdict must carry verifiable evidence
            for verdict in chain.verdicts:
                assert ledger.verify_verdict(registry, verdict, quorum), \
                    "unverifiable verdict: " + where
                assert verdict.proposer in controlled
                verdicts_verified += 1

            committed = UsageTensor.from_canonical(outcome.block.payload)
            if mode == "exact":
                reference = locals_by_op[honest[0]].canonical_bytes()
                assert outcome.block.payload == reference
            else:
                for key in committed.entries:
                    close = [op for op in honest
                             if abs(locals_by_op[op].get(key) - committed.get(key))
                             <= params.alpha]
                    assert len(close) >= params.max_faulty + 1, \
                        "committed element outside alpha band of f+1 honest locals"
    return combos, verdicts_verified


def test_criterion_6_message_accounting_budget(report):
    params = NetworkParams(n_operators=5, max_faulty=1, epsilon=0.05, zeta=0.1,
                           alpha=0.5, rssi_threshold=0.5)
    ids = list(range(1, 6))
    registry = auth.KeyRegistry(ids, auth.derive_seed(1006, "keys"))
    coin = auth.CommonCoin(auth.derive_seed(1006, "coin"))
    totals = {op: 0 for op in ids}
    rng = random.Random(1006)
    for instance in range(100):
        bits = {op: rng.randint(0, 1) for op in ids}
        # 10 rounds whether or not the operators halt sooner: a halted one
        # keeps broadcasting its certificate
        memo = netsim.RoundMemo()
        bus = netsim.RoundBus(
            [binary.BinaryOperator(op, params, bits[op], "a6.%d" % instance, coin, registry,
                                   memo) for op in ids],
            seed=auth.derive_seed(1006, "bus", instance), frame_bytes=200)
        for _ in range(10):
            bus.run_round()
        for op in ids:
            totals[op] += bus.originated[op] + bus.received[op]
    budget = 1_000_000
    peak = max(totals.values())
    assert all(t <= budget for t in totals.values())
    assert peak == budget  # 100 instances x 10 rounds x 200 B x (1 sent + 4 received)
    report(6, True,
           "message accounting: 5 operators x 100 instances x 10 rounds x "
           "200-byte frames exchanged exactly %d bytes per operator "
           "(budget 1,000,000)" % peak)


def test_criterion_7_detection_rate_sweep(report):
    t0 = time.perf_counter()
    rows = geo.detection_sweep([10, 30, 50, 70, 90], 3, 10_000, 42)
    elapsed = time.perf_counter() - t0
    worst = max(abs(emp - theory) for _, emp, theory in rows)
    assert worst <= 0.03, "empirical rate off theory by %.4f" % worst
    final = rows[-1][1]
    assert final >= 0.99, "density-90 detection rate %.4f below 0.99" % final
    assert elapsed < 120.0
    report(7, True,
           "detection sweep 10-90 sensors per 1e4 km^2, 10^4 incidents per "
           "point: max |empirical-theory| = %.4f <= 0.03, density-90 rate "
           "%.4f >= 0.99; runtime %.1fs < 120s" % (worst, final, elapsed))


def test_criterion_8_interference_sweep_shape(report):
    t0 = time.perf_counter()
    densities = list(range(3, 18))
    single = geo.interference_sweep(densities, 4, 1, 3, 0)
    ten_band = geo.interference_sweep([17], 4, 10, 3, 0)
    elapsed = time.perf_counter() - t0
    counts = [count for _, count in single]
    rho = spearmanr(densities, counts).statistic
    assert rho > 0.99, "sweep not monotone: rho=%.4f" % rho
    reduction = counts[-1] / ten_band[0][1]
    assert 8.0 <= reduction <= 12.0, "sub-band reduction %.2f outside [8,12]" % reduction
    assert 4333 / 2 <= counts[-1] <= 4333 * 2, \
        "density-17 count %.0f not within factor 2 of 4333" % counts[-1]
    assert elapsed < 120.0
    report(8, True,
           "interference sweep 3-17 satellites per 1e6 km^2: Spearman rho "
           "%.4f > 0.99, 10-sub-band reduction factor %.2f in [8,12], "
           "density-17 count %.0f within factor 2 of 4333; runtime %.1fs < 120s"
           % (rho, reduction, counts[-1], elapsed))


def test_criterion_9_determinism_byte_identical(report):
    cfg = {
        "profile": "exact",
        "seed": 424242,
        "record_transcript": True,
        "network": {
            "operators": 4, "max_faulty": 1, "epsilon": 0.05,
            "zeta": 0.1, "alpha": 0.5, "rssi_threshold": 0.5,
        },
        "tensor": {"regions": 2, "subbands": 2, "period": 3},
        "adversary": {"behavior": "value-liar", "operators": [4]},
        "events": [
            {"region": 0, "subband": 0, "operator": 1, "truth": 0.7},
            {"region": 1, "subband": 1, "operator": 3, "truth": 0.3},
        ],
    }
    sc = parse_scenario(cfg)
    first = pipeline.run_scenario(sc)
    second = pipeline.run_scenario(sc)
    artifacts_a = {
        "results.csv": pipeline.results_csv(first),
        "bytes.csv": pipeline.bytes_csv(first),
        "retrieval.csv": pipeline.retrieval_csv(first),
        "summary.txt": pipeline.summary_text(first),
    }
    artifacts_b = {
        "results.csv": pipeline.results_csv(second),
        "bytes.csv": pipeline.bytes_csv(second),
        "retrieval.csv": pipeline.retrieval_csv(second),
        "summary.txt": pipeline.summary_text(second),
    }
    assert artifacts_a == artifacts_b
    export_a = ledger.export_chain(first.ledger)
    export_b = ledger.export_chain(second.ledger)
    assert export_a == export_b
    assert first.transcript == second.transcript

    sweeps_equal = (
        geo.detection_sweep([30, 60], 3, 500, 9) == geo.detection_sweep([30, 60], 3, 500, 9)
        and geo.interference_sweep([5, 9], 4, 1, 1, 9) == geo.interference_sweep([5, 9], 4, 1, 1, 9)
    )
    assert sweeps_equal
    report(9, True,
           "determinism: re-running the same seed reproduced byte-identical "
           "CSV artifacts, transcript, signed ledger export (%d bytes), and "
           "sweep tables" % len(export_a))
