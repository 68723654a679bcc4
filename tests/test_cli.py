"""Command-line interface tests: exit codes, artifacts, option parsing."""

import csv
import hashlib
import io
import json

import pytest

from leobft import auth, geo, ledger
from leobft.cli import (MAX_FIELD_POINTS, MAX_FIELDS, MAX_SWEEP_POINTS, _check_fields,
                        _field_densities, _parse_densities, main)
from leobft.geo import EARTH_AREA_KM2
from leobft.model import MAX_OPERATORS, UsageTensor
from leobft.scenario import ConfigError


@pytest.fixture
def config_file(tmp_path):
    cfg = {
        "profile": "binary",
        "seed": 5,
        "network": {
            "operators": 4,
            "max_faulty": 1,
            "epsilon": 0.05,
            "zeta": 0.1,
            "alpha": 0.5,
            "rssi_threshold": 0.5,
        },
        "tensor": {"regions": 1, "subbands": 1, "period": 0},
        "events": [{"region": 0, "subband": 0, "operator": 1, "truth": 0.9}],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return path


class TestDensityParsing:
    def test_range_form(self):
        assert _parse_densities("3:17:15") == pytest.approx(
            [3 + i for i in range(15)])
        assert _parse_densities("1:9:3") == [1.0, 5.0, 9.0]
        assert _parse_densities("5:5:1") == [5.0]

    def test_list_form(self):
        assert _parse_densities("10,30,50") == [10.0, 30.0, 50.0]
        assert _parse_densities("2.5") == [2.5]

    def test_bad_inputs(self):
        for bad in ["1:2", "1:2:3:4", "a:b:c", "1:9:0", "x,y", ""]:
            with pytest.raises(ConfigError):
                _parse_densities(bad)

    def test_default_and_benchmark_densities_accepted(self):
        assert _field_densities("3:17:15", 1e6)[-1] == 17.0
        assert _field_densities("5,17", 1e6) == [5.0, 17.0]
        assert _field_densities("10,30,50,70,90", 1e4)[-1] == 90.0
        assert _field_densities("0", 1e4) == [0.0]

    def test_density_bound_is_expected_points_per_field(self):
        limit = MAX_FIELD_POINTS * 1e4 / EARTH_AREA_KM2
        assert _field_densities(repr(limit), 1e4) == [limit]
        with pytest.raises(ConfigError, match="expected points per field"):
            _field_densities(repr(limit * 1.000001), 1e4)

    def test_default_and_benchmark_field_counts_accepted(self):
        _check_fields("--honest", 3, [10.0, 90.0], 1e4)  # 13.8M points together
        _check_fields("--operators", 4, [17.0], 1e6)
        _check_fields("--honest", MAX_FIELDS, [0.0], 1e4)

    def test_field_bound_is_expected_points_per_density(self):
        limit = MAX_SWEEP_POINTS * 1e4 / EARTH_AREA_KM2 / 5
        _check_fields("--honest", 5, [limit], 1e4)
        with pytest.raises(ConfigError, match="points, more than"):
            _check_fields("--honest", 5, [limit * 1.000001], 1e4)
        with pytest.raises(ConfigError, match="at most %d" % MAX_FIELDS):
            _check_fields("--honest", MAX_FIELDS + 1, [0.0], 1e4)


class TestConsensusCommand:
    def test_single_run_writes_artifacts(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["consensus", "--config", str(config_file),
                     "--out-dir", str(out)])
        assert code == 0
        for name in ["results.csv", "bytes.csv", "retrieval.csv",
                     "ledger.txt", "summary.txt"]:
            assert (out / name).exists(), name
        stdout = capsys.readouterr().out
        assert "committed=True" in stdout

    def test_seed_override_changes_artifacts(self, config_file, tmp_path):
        out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
        assert main(["consensus", "--config", str(config_file),
                     "--out-dir", str(out_a), "--seed", "5"]) == 0
        assert main(["consensus", "--config", str(config_file),
                     "--out-dir", str(out_b), "--seed", "123"]) == 0
        assert main(["consensus", "--config", str(config_file),
                     "--out-dir", str(out_c)]) == 0  # config seed is 5
        # bits agree for any seed here, so compare the signed ledger exports
        a = (out_a / "ledger.txt").read_bytes()
        b = (out_b / "ledger.txt").read_bytes()
        c = (out_c / "ledger.txt").read_bytes()
        assert a != b
        assert a == c

    def test_multi_trial_layout(self, config_file, tmp_path):
        out = tmp_path / "out"
        code = main(["consensus", "--config", str(config_file),
                     "--out-dir", str(out), "--trials", "3"])
        assert code == 0
        for trial in range(3):
            assert (out / ("trial-%03d" % trial) / "results.csv").exists()
        rows = list(csv.reader(io.StringIO((out / "trials.csv").read_text())))
        assert rows[0] == ["trial", "seed", "committed", "attempts",
                           "verdicts", "max_rounds"]
        assert [row[0] for row in rows[1:]] == ["0", "1", "2"]
        assert [row[1] for row in rows[1:]] == ["5", "6", "7"]
        assert all(row[2] == "1" for row in rows[1:])

    def test_missing_config_is_exit_1(self, tmp_path, capsys):
        code = main(["consensus", "--config", str(tmp_path / "none.json"),
                     "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert "configuration error" in capsys.readouterr().err

    def test_invalid_config_is_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"profile": "nope"}))
        assert main(["consensus", "--config", str(path)]) == 1

    @pytest.mark.parametrize("data, message", [
        (b"\xff\xfe{}", "config is not UTF-8"),
        (b'{"seed": ' + b"1" * 5000 + b"}", "config has an integer of more than"),
        (b"[" * 100_000, "config nests arrays or objects too deeply"),
    ], ids=["not-utf8", "long-integer", "deep-nesting"])
    def test_unreadable_config_is_one_line_exit_1(self, tmp_path, data, message, capsys):
        # each of these raised out of json.load as a traceback
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        assert main(["consensus", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error: " + message)
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("params", [{"offest": 5}, {"offset": "ten"}])
    def test_bad_adversary_param_is_exit_1(self, config_file, tmp_path, params, capsys):
        cfg = json.loads(config_file.read_text())
        cfg["adversary"] = {"behavior": "value-liar", "operators": [4], "params": params}
        config_file.write_text(json.dumps(cfg))
        assert main(["consensus", "--config", str(config_file),
                     "--out-dir", str(tmp_path / "o")]) == 1
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("profile, key, value", [
        ("approx", "epsilon", float("nan")), ("approx", "epsilon", 1e308),
        ("approx", "epsilon", 8.9e307),
        ("binary", "zeta", float("nan")), ("exact", "rssi_threshold", float("inf")),
    ])
    def test_non_finite_network_value_is_exit_1(self, config_file, tmp_path, capsys,
                                                 profile, key, value):
        cfg = json.loads(config_file.read_text())
        cfg["profile"] = profile
        cfg["network"][key] = value
        config_file.write_text(json.dumps(cfg))
        assert main(["consensus", "--config", str(config_file),
                     "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: %s" % key)
        assert err.count("\n") == 1

    @pytest.mark.parametrize("truth, value, message", [
        (1.7e308, -1.7e308, "events[0]: truth must be a number of magnitude"),
        (0.8, -1.7e308, "adversary param 'value' must be a number of magnitude"),
        (1e100, -1e100, None),
    ])
    def test_values_at_opposite_float_extremes(self, config_file, tmp_path, capsys,
                                               truth, value, message):
        # finite values whose spread overflows are config errors; at the
        # magnitude bound the run completes
        cfg = json.loads(config_file.read_text())
        cfg["profile"] = "approx"
        cfg["events"][0]["truth"] = truth
        cfg["adversary"] = {"behavior": "value-liar", "operators": [4],
                            "params": {"value": value}}
        config_file.write_text(json.dumps(cfg))
        code = main(["consensus", "--config", str(config_file),
                     "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        if message is None:
            assert (code, err) == (0, "")
        else:
            assert code == 1
            assert err.startswith("configuration error: " + message)
            assert err.count("\n") == 1

    @pytest.mark.parametrize("profile, operators", [
        ("approx", [1, 2, 3, 4]),  # ran into max() of an empty honest set
        ("binary", [1, 2]),  # ran past the binary iteration cap
    ])
    def test_more_than_f_adversary_operators_is_exit_1(self, config_file, tmp_path,
                                                       capsys, profile, operators):
        cfg = json.loads(config_file.read_text())
        cfg["profile"] = profile
        cfg["adversary"] = {"behavior": "value-liar", "operators": operators}
        config_file.write_text(json.dumps(cfg))
        assert main(["consensus", "--config", str(config_file),
                     "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == ("configuration error: adversary controls %d operators, "
                       "more than max_faulty 1\n" % len(operators))

    def test_rotating_adversary_in_exact_profile_is_exit_1(self, config_file, tmp_path,
                                                           capsys):
        # Dolev-Strong holds only for a fixed faulty set; under rotation views
        # can disagree, which would exit 2 as if the program were at fault
        cfg = json.loads(config_file.read_text())
        cfg["profile"] = "exact"
        cfg["network"].update(operators=7, max_faulty=2)
        cfg["adversary"] = {"behavior": "random-values", "operators": [1, 2], "rotate": True}
        config_file.write_text(json.dumps(cfg))
        assert main(["consensus", "--config", str(config_file),
                     "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: the exact profile needs a static adversary")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seed", [1, 2, 9])
    def test_binary_quorum_above_3f_plus_1_agrees(self, tmp_path, capsys, seed):
        # at N = 5, f = 1 two sets of 2f+1 share only one operator, the
        # equivocator, and honest operators decided 0 and 1 under it
        cfg = {"profile": "binary", "seed": seed,
               "network": {"operators": 5, "max_faulty": 1, "epsilon": 0.5,
                           "zeta": 0.1, "alpha": 0.5, "rssi_threshold": 0.5},
               "tensor": {"regions": 1, "subbands": 1, "period": 0},
               "events": [{"region": 0, "subband": 0, "operator": 1, "truth": 0.5}],
               "adversary": {"behavior": "equivocate", "operators": [4]}}
        path = tmp_path / "n5.json"
        path.write_text(json.dumps(cfg))
        assert main(["consensus", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rotating_fake_halt_stays_in_honest_range(self, tmp_path, capsys, seed):
        # a halt notice planted in round 0 counts in round 0 only: kept for
        # the whole instance, it joined each later round's liar and pulled
        # the honest values out of their initial range
        cfg = {"profile": "approx", "seed": seed,
               "network": {"operators": 4, "max_faulty": 1, "epsilon": 0.5,
                           "zeta": 0.01, "alpha": 0.5, "rssi_threshold": 0.5},
               "tensor": {"regions": 1, "subbands": 1, "period": 0},
               "events": [{"region": 0, "subband": 0, "operator": 1, "truth": 3.0}],
               "adversary": {"behavior": "value-liar", "operators": [1], "rotate": True,
                             "params": {"fake_halt": True, "value": -100.0}}}
        path = tmp_path / "fake-halt.json"
        path.write_text(json.dumps(cfg))
        assert main(["consensus", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == ""

    def test_too_many_network_operators_is_exit_1(self, config_file, tmp_path, capsys):
        cfg = json.loads(config_file.read_text())
        cfg["network"]["operators"] = 100000
        config_file.write_text(json.dumps(cfg))
        assert main(["consensus", "--config", str(config_file),
                     "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == "configuration error: n_operators=100000 is more than %d\n" % MAX_OPERATORS
        assert not (tmp_path / "o").exists()

    def test_bad_flag_is_exit_1(self, config_file, capsys):
        assert main(["consensus", "--config", str(config_file),
                     "--frobnicate"]) == 1
        assert main(["consensus"]) == 1  # --config required
        assert main(["no-such-command"]) == 1
        assert main(["consensus", "--config", str(config_file),
                     "--trials", "0"]) == 1
        capsys.readouterr()


class TestConstellationCommand:
    def test_sweep_prints_and_writes(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["constellation", "--densities", "5,10", "--trials", "1",
                     "--seed", "3", "--out-dir", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("density_per_1e6km2,mean_incidents")
        rows = list(csv.reader(io.StringIO((out / "constellation.csv").read_text())))
        assert rows[0] == ["density_per_1e6km2", "mean_incidents"]
        assert len(rows) == 3
        assert [float(row[0]) for row in rows[1:]] == [5.0, 10.0]
        assert float(rows[1][1]) > 0  # incidents do occur at these densities
        assert float(rows[2][1]) > float(rows[1][1])  # and grow with density

    def test_stdout_only_without_out_dir(self, capsys):
        assert main(["constellation", "--densities", "4", "--trials", "1"]) == 0
        stdout = capsys.readouterr().out
        assert "wrote" not in stdout


class TestGeoFlags:
    @pytest.mark.parametrize("argv, message", [
        (["constellation", "--subbands", "0"], "--subbands must be at least 1"),
        (["constellation", "--densities", "-5"], "--densities: -5.0 is not between 0"),
        (["detection", "--densities", "nan"], "--densities: nan is not between 0"),
        (["constellation", "--densities", "inf"], "--densities: inf is not between 0"),
        (["detection", "--densities", "1e30"], "--densities: 1e+30 is not between 0"),
        (["constellation", "--operators", "-2", "--densities", "3"],
         "--operators must be at least 1"),
        (["constellation", "--operators", "0"], "--operators must be at least 1"),
        (["detection", "--honest", "0", "--densities", "10"],
         "--honest must be at least 1"),
        # checked as it is parsed, so the --trials 1 appended below cannot mask it
        (["detection", "--trials", "1000000000", "--densities", "10"],
         "argument --trials: 1000000000 is more than 1e+07 incident points"),
        (["constellation", "--densities", "5", "--subbands", "100000000000000000000"],
         "--subbands must be at most 9223372036854775807"),
        (["detection", "--densities", "0:1:1000000000"],
         "density range needs 1 to 10000 points"),
        (["detection", "--honest", "1000000", "--densities", "10"],
         "--honest must be at most 1000"),
        (["constellation", "--operators", "100000000", "--densities", "17"],
         "--operators must be at most 1000"),
        (["constellation", "--operators", "100000000", "--densities", "0"],
         "--operators must be at most 1000"),
        (["detection", "--honest", "7", "--densities", "10,90"],
         "--honest 7 at 90.0 per 10000 km^2 expects 3.21e+07 points, more than 3e+07"),
        (["constellation", "--operators", "1000", "--densities", "1000"],
         "--operators 1000 at 1000.0 per 1e+06 km^2 expects 5.1e+08 points"),
        # constellations hold k-d trees too: 2e7 satellites, not 3e7 points
        (["constellation", "--operators", "3", "--densities", "19605"],
         "--operators 3 at 19605.0 per 1e+06 km^2 expects 3e+07 points, more than 2e+07\n"),
        # just over a bound: as many digits as it takes to differ from it
        (["detection", "--honest", "4", "--densities", "147.05"],
         "--honest 4 at 147.05 per 10000 km^2 expects 3.0002e+07 points, more than 3e+07\n"),
    ])
    def test_bad_geo_flag_is_exit_1(self, capsys, argv, message):
        assert main(argv + ["--trials", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error: " + message)
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_many_candidate_pairs_reach_the_sweep(self, monkeypatch, capsys):
        # two fields of 9.7M satellites (1.94e7 of MAX_SATELLITES' 2e7) expect
        # 6.5e8 candidate pairs, which the interference count lists a block
        # at a time
        calls = []

        def sweep(*args):
            calls.append(args)
            return [(args[0][0], 0.0)]

        monkeypatch.setattr(geo, "interference_sweep", sweep)
        assert main(["constellation", "--operators", "2", "--densities", "19000",
                     "--trials", "1"]) == 0
        assert calls == [([19000.0], 2, 1, 1, 0)]
        assert capsys.readouterr().out == "density_per_1e6km2,mean_incidents\n19000.0,0.0\n"


class TestDetectionCommand:
    def test_sweep_matches_theory_loosely(self, tmp_path, capsys):
        out = tmp_path / "det"
        code = main(["detection", "--densities", "50,90", "--trials", "2000",
                     "--seed", "1", "--out-dir", str(out)])
        assert code == 0
        rows = list(csv.reader(io.StringIO((out / "detection.csv").read_text())))
        assert rows[0] == ["density_per_1e4km2", "empirical", "theory"]
        for row in rows[1:]:
            assert abs(float(row[1]) - float(row[2])) < 0.06
        assert float(rows[1][2]) > 0.9  # density 50 per 1e4 km2 detects reliably
        assert float(rows[2][2]) > float(rows[1][2])
        capsys.readouterr()


class TestOutDir:
    @pytest.mark.parametrize("argv, out", [
        (["consensus"], "file"),
        (["consensus", "--trials", "2"], "file/x"),
        (["constellation", "--densities", "4", "--trials", "1"], "file"),
        (["detection", "--densities", "10", "--trials", "10"], "file/x"),
    ], ids=["consensus", "consensus-trials", "constellation", "detection"])
    def test_unwritable_out_dir_is_exit_1(self, config_file, tmp_path, capsys, argv, out):
        # a directory cannot be made where a file is, or below one
        (tmp_path / "file").write_text("taken")
        if argv[0] == "consensus":
            argv = argv + ["--config", str(config_file)]
        assert main(argv + ["--out-dir", str(tmp_path / out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cannot write %s" % (tmp_path / out))
        assert err.count("\n") == 1
        assert (tmp_path / "file").read_text() == "taken"


class TestLedgerAuditCommand:
    def _export(self, config_file, tmp_path):
        out = tmp_path / "run"
        assert main(["consensus", "--config", str(config_file),
                     "--out-dir", str(out)]) == 0
        return out / "ledger.txt"

    def test_clean_ledger_audits_ok(self, config_file, tmp_path, capsys):
        path = self._export(config_file, tmp_path)
        assert main(["ledger-audit", str(path)]) == 0
        stdout = capsys.readouterr().out
        assert "audit ok: 1 blocks (n=4, f=1)" in stdout

    def test_period_listing(self, config_file, tmp_path, capsys):
        path = self._export(config_file, tmp_path)
        assert main(["ledger-audit", str(path), "--period", "0"]) == 0
        stdout = capsys.readouterr().out
        assert "period 0: attempt 0 proposer 1" in stdout
        assert "region=0 subband=0 operator=1 value=1.0" in stdout

    def test_absent_period_reported(self, config_file, tmp_path, capsys):
        path = self._export(config_file, tmp_path)
        assert main(["ledger-audit", str(path), "--period", "7"]) == 0
        assert "period 7: not committed" in capsys.readouterr().out

    def test_tampered_ledger_is_exit_3(self, config_file, tmp_path, capsys):
        path = self._export(config_file, tmp_path)
        data = path.read_bytes()
        lines = data.split(b"\n")
        # flip one payload hex digit in the first block line
        fields = lines[1].split(b"|")
        payload = fields[3]
        swap = b"0" if payload[-1:] != b"0" else b"1"
        fields[3] = payload[:-1] + swap
        lines[1] = b"|".join(fields)
        tampered = tmp_path / "tampered.txt"
        tampered.write_bytes(b"\n".join(lines))
        assert main(["ledger-audit", str(tampered)]) == 3
        assert "audit failed" in capsys.readouterr().out

    @pytest.mark.parametrize("old, new, error", [
        (b"\n0|0|1|", b"\n0|0|+1|", "block 0: malformed record"),
        (b" f=1 ", b" f=1 n=4 ", "malformed export header"),
    ], ids=["plus-proposer", "duplicate-header-key"])
    def test_respelled_export_is_exit_3(self, config_file, tmp_path, capsys, old, new, error):
        path = self._export(config_file, tmp_path)
        data = path.read_bytes()
        assert old in data
        path.write_bytes(data.replace(old, new, 1))
        capsys.readouterr()
        assert main(["ledger-audit", str(path)]) == 3
        assert capsys.readouterr().out == "audit failed: %s\n" % error

    def test_header_outside_fault_bound_is_exit_3(self, config_file, tmp_path, capsys):
        path = self._export(config_file, tmp_path)
        path.write_bytes(path.read_bytes().replace(b" f=1 ", b" f=-1 ", 1))
        assert main(["ledger-audit", str(path)]) == 3
        assert "audit failed: export header" in capsys.readouterr().out

    def test_empty_payload_is_exit_3(self, tmp_path, capsys):
        registry = auth.KeyRegistry(range(1, 5), master_seed=0)
        digest = hashlib.sha256(b"").digest()
        context = ledger.vote_context(0, 0)
        cert = auth.make_certificate(digest, {
            op: registry.sign(op, auth.vote_payload(digest, context)) for op in (1, 2, 3)})
        votes = ",".join("%d:%s" % (op, tag.hex()) for op, tag in cert.votes)
        block = ledger.block_digest(ledger.GENESIS_DIGEST, b"", 1, cert)
        path = tmp_path / "empty.txt"
        path.write_text("ledger v1 n=4 f=1 master_seed=0\n0|0|1||%s|%s|%s\n"
                        % (ledger.GENESIS_DIGEST.hex(), block.hex(), votes))
        assert main(["ledger-audit", str(path)]) == 3
        assert "payload is not a canonical tensor" in capsys.readouterr().out

    def test_reordered_votes_is_exit_3(self, config_file, tmp_path, capsys):
        # export writes the votes sorted; any other order is not its rendering
        path = self._export(config_file, tmp_path)
        header, line, _ = path.read_text().split("\n")
        fields = line.split("|")
        fields[6] = ",".join(reversed(fields[6].split(",")))
        path.write_text("%s\n%s\n" % (header, "|".join(fields)))
        capsys.readouterr()
        assert main(["ledger-audit", str(path)]) == 3
        assert capsys.readouterr().out == "audit failed: block 0: malformed record\n"

    def test_payload_of_another_period_is_exit_3(self, tmp_path, capsys):
        # a period-5 tensor certified as period 0 would be listed as period 0
        registry = auth.KeyRegistry(range(1, 5), master_seed=0)
        payload = UsageTensor(5, (1, 1, 4), {(0, 0, 0): 1.0}).canonical_bytes()
        digest = hashlib.sha256(payload).digest()
        context = ledger.vote_context(0, 0)
        cert = auth.make_certificate(digest, {
            op: registry.sign(op, auth.vote_payload(digest, context)) for op in (1, 2, 3)})
        block = ledger.Block(0, 0, 1, payload, cert, ledger.GENESIS_DIGEST,
                             ledger.block_digest(ledger.GENESIS_DIGEST, payload, 1, cert))
        path = tmp_path / "moved.txt"
        path.write_bytes(ledger._export_text(4, 1, 0, [block]))
        assert main(["ledger-audit", str(path), "--period", "0"]) == 3
        assert capsys.readouterr().out == "audit failed: block 0: payload is for period 5\n"

    def test_missing_file_is_exit_1(self, tmp_path, capsys):
        assert main(["ledger-audit", str(tmp_path / "gone.txt")]) == 1
        capsys.readouterr()

    def test_garbage_file_is_exit_3(self, tmp_path, capsys):
        path = tmp_path / "junk.txt"
        path.write_bytes(b"not a ledger at all\n")
        assert main(["ledger-audit", str(path)]) == 3
        capsys.readouterr()
