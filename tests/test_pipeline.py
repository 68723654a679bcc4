"""End-to-end pipeline tests: every profile, adversaries, artifacts, determinism."""

import csv
import io
from types import SimpleNamespace

import pytest

from leobft import ledger, pipeline
from leobft.model import UsageTensor
from leobft.pipeline import (
    PropertyViolation,
    run_scenario,
    write_artifacts,
)
from leobft.scenario import parse_scenario

BEHAVIORS = ["crash", "value-liar", "equivocate", "bad-proposer",
             "random-values", "boundary-attacker"]


def make_config(profile="approx", adversary=None, events=None, seed=11,
                operators=4, max_faulty=1, **extra):
    cfg = {
        "profile": profile,
        "seed": seed,
        "network": {
            "operators": operators,
            "max_faulty": max_faulty,
            "epsilon": 0.05,
            "zeta": 0.1,
            "alpha": 0.5,
            "rssi_threshold": 0.5,
        },
        "tensor": {"regions": 2, "subbands": 2, "period": 0},
        "events": events or [
            {"region": 0, "subband": 1, "operator": 2, "truth": 0.8},
            {"region": 1, "subband": 0, "operator": 1, "truth": 0.2},
        ],
        **extra,
    }
    if adversary is not None:
        cfg["adversary"] = adversary
    return parse_scenario(cfg)


class TestFaultFreeProfiles:
    def test_binary_profile_fills_tensors_and_commits(self):
        result = run_scenario(make_config(profile="binary"))
        assert len(result.outcomes) == 2
        for outcome in result.outcomes:
            assert set(outcome.outputs.values()) <= {0.0, 1.0}
            assert len(set(outcome.outputs.values())) == 1
        # truth 0.8 > threshold 0.5 -> bit 1; truth 0.2 -> bit 0
        assert set(result.outcomes[0].outputs.values()) == {1.0}
        assert set(result.outcomes[1].outputs.values()) == {0.0}
        assert result.commit.block is not None
        assert result.commit.block.attempt == 0
        assert result.retrieved_exact is not None
        tensor = result.locals_by_op[1]
        assert tensor.get((0, 1, 1)) == 1.0
        assert tensor.get((1, 0, 0)) == 0.0

    def test_exact_profile_agrees_on_median(self):
        result = run_scenario(make_config(profile="exact"))
        for outcome in result.outcomes:
            assert len(set(outcome.outputs.values())) == 1
            value = next(iter(outcome.outputs.values()))
            lo = min(outcome.initials.values())
            hi = max(outcome.initials.values())
            assert lo <= value <= hi
        assert result.retrieved_exact is not None

    def test_approx_profile_outputs_within_zeta(self):
        sc = make_config(profile="approx")
        result = run_scenario(sc)
        for outcome in result.outcomes:
            values = list(outcome.outputs.values())
            assert max(values) - min(values) <= sc.network.zeta
            assert all(h >= 1 for h in outcome.horizons.values())
        # fault-free runs with full delivery leave every operator with the same
        # mean each round, so even the byte-exact retrieval path succeeds
        assert result.retrieved_exact is not None
        assert result.retrieved_approx.entries

    def test_bytes_accounting_consistent(self):
        result = run_scenario(make_config(profile="binary", frame_bytes=200))
        for op, (orig, deliv, recv, exch) in result.bytes_by_op.items():
            assert exch == orig + recv
            assert orig > 0 and deliv > 0 and recv > 0
            assert deliv == orig * 3  # 4 operators -> 3 peer deliveries per frame


class TestAdversarialRuns:
    @pytest.mark.parametrize("profile", ["binary", "exact", "approx"])
    @pytest.mark.parametrize("behavior", BEHAVIORS)
    def test_single_adversary_never_breaks_guarantees(self, profile, behavior):
        sc = make_config(profile=profile,
                         adversary={"behavior": behavior, "operators": [3]},
                         seed=29)
        result = run_scenario(sc)  # property checks run inside
        honest = [1, 2, 4]
        for outcome in result.outcomes:
            honest_out = [outcome.outputs[op] for op in honest]
            if profile in ("binary", "exact"):
                assert len(set(honest_out)) == 1
            else:
                assert max(honest_out) - min(honest_out) <= sc.network.zeta

    def test_crash_adversary_omitted_from_retrieval(self):
        sc = make_config(profile="exact",
                         adversary={"behavior": "crash", "operators": [2]})
        responses = pipeline._retrieval_responses(sc, run_scenario(sc).locals_by_op)
        assert set(responses) == {1, 3, 4}

    def test_liar_adversary_shifts_its_response(self):
        sc = make_config(profile="exact",
                         adversary={"behavior": "value-liar", "operators": [2],
                                    "params": {"offset": 5.0}})
        locals_by_op = run_scenario(sc).locals_by_op
        responses = pipeline._retrieval_responses(sc, locals_by_op)
        key = next(iter(locals_by_op[2].entries))
        assert responses[2].get(key) == pytest.approx(locals_by_op[2].get(key) + 5.0)
        # originals untouched
        assert locals_by_op[2].get(key) == locals_by_op[1].get(key)

    def test_exact_retrieval_survives_one_liar(self):
        sc = make_config(profile="exact",
                         adversary={"behavior": "value-liar", "operators": [2]})
        result = run_scenario(sc)
        assert result.retrieved_exact is not None
        assert (result.retrieved_exact.canonical_bytes()
                == result.locals_by_op[1].canonical_bytes())

    def test_rotating_adversary_all_ids_checked(self):
        sc = make_config(profile="binary",
                         adversary={"behavior": "equivocate", "operators": [1],
                                    "rotate": True})
        result = run_scenario(sc)
        for outcome in result.outcomes:
            assert len(set(outcome.outputs.values())) == 1


class TestTranscript:
    def test_transcript_only_for_first_event(self):
        sc = make_config(profile="binary", record_transcript=True, frame_bytes=100)
        result = run_scenario(sc)
        assert result.transcript is not None
        assert all(row[4] >= 100 for row in result.transcript)
        rounds = {row[0] for row in result.transcript}
        assert rounds == set(range(result.outcomes[0].rounds))

    def test_no_transcript_by_default(self):
        assert run_scenario(make_config(profile="binary")).transcript is None


class TestPropertyChecks:
    def test_binary_disagreement_detected(self):
        fake = SimpleNamespace(outputs={1: 0, 2: 1, 3: 0, 4: 0})
        with pytest.raises(PropertyViolation, match="agreement"):
            pipeline._check_binary({1: 0, 2: 0, 3: 0, 4: 0}, fake, [1, 2, 3, 4], 0.1, "t")

    def test_binary_validity_detected(self):
        fake = SimpleNamespace(outputs={1: 0, 2: 0, 3: 0, 4: 0})
        with pytest.raises(PropertyViolation, match="validity"):
            pipeline._check_binary({1: 1, 2: 1, 3: 1, 4: 1}, fake, [1, 2, 3, 4], 0.1, "t")

    def test_exact_view_divergence_detected(self):
        fake = SimpleNamespace(views={1: {1: 1.0}, 2: {1: 2.0}},
                               outputs={1: 1.0, 2: 1.0})
        with pytest.raises(PropertyViolation, match="view"):
            pipeline._check_exact({}, fake, [1, 2], 0.1, "t")

    def test_approx_unhalted_detected(self):
        fake = SimpleNamespace(outputs={1: None, 2: 0.5})
        with pytest.raises(PropertyViolation, match="halt"):
            pipeline._check_approx({1: 0.4, 2: 0.6}, fake, [1, 2], 0.1, "t")

    def test_approx_spread_detected(self):
        fake = SimpleNamespace(outputs={1: 0.0, 2: 0.5})
        with pytest.raises(PropertyViolation, match="spread"):
            pipeline._check_approx({1: 0.0, 2: 0.5}, fake, [1, 2], 0.1, "t")

    def test_approx_range_escape_detected(self):
        fake = SimpleNamespace(outputs={1: 0.95, 2: 0.96})
        with pytest.raises(PropertyViolation, match="range"):
            pipeline._check_approx({1: 0.4, 2: 0.5}, fake, [1, 2], 0.1, "t")

    def test_retrieval_mismatch_detected(self):
        sc = make_config(profile="exact")
        good = UsageTensor(0, (2, 2, 4))
        good.set((0, 0, 0), 1.0)
        bad = good.copy()
        bad.set((0, 0, 0), 2.0)
        with pytest.raises(PropertyViolation, match="retrieval"):
            pipeline._check_retrieval(sc, [1], {1: good}, bad, good)


class TestArtifacts:
    def test_artifact_files_written_and_parse(self, tmp_path):
        sc = make_config(profile="exact", record_transcript=True)
        result = run_scenario(sc)
        written = write_artifacts(result, tmp_path)
        names = {p.split("/")[-1] for p in written}
        assert names == {"results.csv", "bytes.csv", "retrieval.csv",
                         "ledger.txt", "summary.txt", "transcript.csv"}
        rows = list(csv.reader(io.StringIO((tmp_path / "results.csv").read_text())))
        assert rows[0] == ["event", "region", "subband", "target", "truth",
                           "operator", "initial", "output", "rounds"]
        assert len(rows) == 1 + 2 * 4  # header + events x operators
        report = ledger.audit_chain((tmp_path / "ledger.txt").read_bytes())
        assert report.ok
        summary = (tmp_path / "summary.txt").read_text()
        assert "committed: attempt 0" in summary
        assert "exact retrieval: ok" in summary

    def test_bytes_csv_totals_match_result(self, tmp_path):
        result = run_scenario(make_config(profile="binary", frame_bytes=200))
        write_artifacts(result, tmp_path)
        rows = list(csv.reader(io.StringIO((tmp_path / "bytes.csv").read_text())))
        for row in rows[1:]:
            op = int(row[0])
            assert tuple(int(c) for c in row[1:]) == result.bytes_by_op[op]

    def test_retrieval_csv_reports_one_indexed_operators(self, tmp_path):
        result = run_scenario(make_config(profile="exact"))
        write_artifacts(result, tmp_path)
        rows = list(csv.reader(io.StringIO((tmp_path / "retrieval.csv").read_text())))
        targets = {int(row[2]) for row in rows[1:]}
        assert targets <= {1, 2, 3, 4} and targets  # events target ops 2 and 1

    def test_same_seed_byte_identical_artifacts(self, tmp_path):
        sc = make_config(profile="approx", seed=99, record_transcript=True,
                         adversary={"behavior": "value-liar", "operators": [4]})
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        write_artifacts(run_scenario(sc), dir_a)
        write_artifacts(run_scenario(sc), dir_b)
        for path in sorted(dir_a.iterdir()):
            assert path.read_bytes() == (dir_b / path.name).read_bytes(), path.name

    def test_different_seed_changes_results(self, tmp_path):
        a = run_scenario(make_config(profile="approx", seed=1))
        b = run_scenario(make_config(profile="approx", seed=2))
        assert pipeline.results_csv(a) != pipeline.results_csv(b)


class TestLedgerIntegration:
    def test_bad_proposer_leaves_verdict_and_still_commits(self):
        sc = make_config(profile="exact",
                         adversary={"behavior": "bad-proposer", "operators": [1]})
        result = run_scenario(sc)
        # operator 1 proposes first for period 0 and gets rejected with evidence
        assert result.commit.block is not None
        assert result.commit.block.attempt == 1
        assert result.commit.block.proposer == 2
        kinds = {v.kind for v in result.ledger.verdicts}
        assert kinds == {ledger.REJECTED_PROPOSAL}

    def test_equivocating_proposer_detected(self):
        sc = make_config(profile="exact",
                         adversary={"behavior": "equivocate", "operators": [1]})
        result = run_scenario(sc)
        assert result.commit.block is not None
        kinds = {v.kind for v in result.ledger.verdicts}
        assert ledger.EQUIVOCATION in kinds

    def test_approx_profile_commits_in_approx_mode(self):
        result = run_scenario(make_config(profile="approx"))
        assert result.commit.block is not None
        committed = UsageTensor.from_canonical(result.commit.block.payload)
        key = (0, 1, 1)
        values = [result.locals_by_op[op].get(key) for op in (1, 2, 3, 4)]
        assert min(values) <= committed.get(key) <= max(values)
