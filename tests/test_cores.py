"""Events split over CPUs: the same results on any CPU count, errors raised
as in one process, and no helper process left behind."""

import dataclasses
import itertools
import os
import pathlib
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from leobft import cores, geo, ledger, netsim, pipeline
from leobft.pipeline import PropertyViolation
from leobft.scenario import parse_scenario

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="helpers are forked")

ADVERSARIES = {
    "none": None,
    "static": {"behavior": "value-liar", "operators": [4]},
    "rotating": {"behavior": "random-values", "operators": [4], "rotate": True},
    "crash": {"behavior": "crash", "operators": [4]},
    "equivocate": {"behavior": "equivocate", "operators": [4]},
}
EVENT_COUNTS = [0, 1, 2, 3, 9]


def pin_cpus(monkeypatch, count):
    """Make this process see `count` usable CPUs, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


def make_scenario(profile, adversary=None, events=9, period=0, seed=5):
    cfg = {
        "profile": profile,
        "seed": seed,
        "record_transcript": True,
        "network": {"operators": 4, "max_faulty": 1, "epsilon": 0.05,
                    "zeta": 0.1, "alpha": 0.5, "rssi_threshold": 0.5},
        "tensor": {"regions": 3, "subbands": 3, "period": period},
        "events": [{"region": i // 3, "subband": i % 3, "operator": 1 + i % 4,
                    "truth": 0.45 + 0.0125 * i} for i in range(max(1, events))],
    }
    if adversary is not None:
        cfg["adversary"] = adversary
    sc = parse_scenario(cfg)
    return dataclasses.replace(sc, events=sc.events[:events])


def outputs(sc, out_dir):
    """Every artifact file, the transcript and the export of one run."""
    result = pipeline.run_scenario(sc)
    files = {os.path.basename(path): pathlib.Path(path).read_bytes()
             for path in pipeline.write_artifacts(result, str(out_dir))}
    return files, repr(result.transcript), ledger.export_chain(result.ledger)


def error_of(sc):
    with pytest.raises((PropertyViolation, netsim.HarnessError)) as info:
        pipeline.run_scenario(sc)
    return type(info.value), str(info.value)


def running(pid):
    """True while pid is a process that has not exited (a zombie has)."""
    try:
        with open("/proc/%d/stat" % pid) as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def helper_pids():
    return [helper.process.pid for helper in cores._helpers if helper.process.is_alive()]


class TestUsableCpus:
    def test_follows_the_affinity_set(self, monkeypatch):
        pin_cpus(monkeypatch, 3)
        assert cores.usable_cpus() == 3

    def test_every_cpu_without_an_affinity_call(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert cores.usable_cpus() == (os.cpu_count() or 1)

    def test_geo_and_the_event_split_share_the_rule(self):
        assert geo.usable_cpus is cores.usable_cpus


def where(arg, span):
    return [(arg, index, os.getpid()) for index in span]


class TestRunSpans:
    @needs_fork
    @pytest.mark.parametrize("count,cpus,sizes", [
        (8, 3, [2, 3, 3]), (2, 5, [1, 1]), (5, 1, [5]), (0, 4, [])])
    def test_balanced_contiguous_spans_first_one_here(self, monkeypatch, count, cpus, sizes):
        pin_cpus(monkeypatch, cpus)
        got = cores.run_spans(where, "x", count)
        assert [(arg, index) for arg, index, _ in got] == [("x", i) for i in range(count)]
        runs = [list(run) for _, run in itertools.groupby(pid for _, _, pid in got)]
        assert [len(run) for run in runs] == sizes
        assert not runs or runs[0][0] == os.getpid()
        assert len({run[0] for run in runs}) == len(runs)  # one process per span


class TestSameOnAnyCpuCount:
    @pytest.mark.parametrize("profile,adversary", [
        (profile, name) for profile in ("binary", "exact", "approx") for name in ADVERSARIES
        if not (profile == "exact" and name == "rotating")  # a config error
    ])
    def test_artifacts_byte_identical(self, monkeypatch, tmp_path, profile, adversary):
        for events in EVENT_COUNTS:
            sc = make_scenario(profile, ADVERSARIES[adversary], events)
            pin_cpus(monkeypatch, 1)
            serial = outputs(sc, tmp_path / ("%d-serial" % events))
            for cpus in (2, events + 1, 16):
                pin_cpus(monkeypatch, cpus)
                assert outputs(sc, tmp_path / ("%d-%d" % (events, cpus))) == serial, cpus

    @needs_fork
    def test_helpers_are_reused_and_capped(self, monkeypatch):
        pin_cpus(monkeypatch, 3)
        pipeline.run_scenario(make_scenario("approx"))
        first = helper_pids()
        assert len(first) == 2
        pipeline.run_scenario(make_scenario("binary"))
        assert helper_pids() == first
        pipeline.run_scenario(make_scenario("approx", events=2))  # needs one helper
        assert helper_pids() == first


def fail_events(monkeypatch, profile, failures):
    """Make the profile's check raise failures[index] for events of period 7."""
    row = pipeline._PROFILES[profile]

    def check(initials, result, honest, zeta, instance):
        period, index = (int(part[1:]) for part in instance.split("."))
        if period == 7 and index in failures:
            raise failures[index]("check failed in %s" % instance)
        row.check(initials, result, honest, zeta, instance)

    monkeypatch.setitem(pipeline._PROFILES, profile, row._replace(check=check))


class TestErrors:
    # helpers are forked at their first use, so they see the patched check
    @pytest.mark.parametrize("failures,cpus,raised", [
        ({3: PropertyViolation}, 2, 3),  # in the helper's span only
        ({2: netsim.HarnessError}, 2, 2),
        ({1: PropertyViolation, 2: netsim.HarnessError}, 2, 1),  # the caller's span wins
        ({2: PropertyViolation, 3: netsim.HarnessError}, 4, 2),  # two helpers fail
        ({3: netsim.HarnessError, 2: PropertyViolation}, 2, 2),  # one span fails first at 2
    ])
    def test_lowest_event_index_raised_as_in_one_process(self, monkeypatch, tmp_path,
                                                         failures, cpus, raised):
        fail_events(monkeypatch, "approx", failures)
        failing = make_scenario("approx", events=4, period=7)
        pin_cpus(monkeypatch, 1)
        serial_error = error_of(failing)
        assert serial_error == (failures[raised], "check failed in p7.e%d" % raised)
        good = make_scenario("approx", events=4)
        serial = outputs(good, tmp_path / "serial")

        pin_cpus(monkeypatch, cpus)
        assert error_of(failing) == serial_error
        helpers = helper_pids()
        assert len(helpers) == (cpus - 1 if hasattr(os, "fork") else 0)
        # the helpers' pipes hold nothing stale: the next runs are right
        assert outputs(good, tmp_path / "after") == serial
        assert error_of(failing) == serial_error
        assert helper_pids() == helpers  # a span that raised leaves its helper in service

    @needs_fork
    def test_helper_killed_between_runs_is_replaced(self, monkeypatch, tmp_path):
        sc = make_scenario("exact", ADVERSARIES["equivocate"])
        pin_cpus(monkeypatch, 1)
        serial = outputs(sc, tmp_path / "serial")
        pin_cpus(monkeypatch, 2)
        assert outputs(sc, tmp_path / "a") == serial
        [pid] = helper_pids()
        os.kill(pid, signal.SIGKILL)
        cores._helpers[0].process.join(10)
        assert not cores._helpers[0].process.is_alive()
        assert outputs(sc, tmp_path / "b") == serial
        [replaced] = helper_pids()
        assert replaced != pid

    @needs_fork
    def test_helper_killed_without_waiting_never_skips_its_span(self, monkeypatch, tmp_path):
        sc = make_scenario("binary", ADVERSARIES["rotating"])
        pin_cpus(monkeypatch, 1)
        serial = outputs(sc, tmp_path / "serial")
        pin_cpus(monkeypatch, 2)
        for run in range(3):
            outputs(sc, tmp_path / ("warm-%d" % run))  # replaces a helper found dead
            os.kill(helper_pids()[0], signal.SIGKILL)
            assert outputs(sc, tmp_path / ("%d" % run)) == serial
        outputs(sc, tmp_path / "last")
        assert len(helper_pids()) == 1

    @needs_fork
    def test_helper_dying_mid_span_never_skips_it(self, monkeypatch, tmp_path):
        sc = make_scenario("approx", ADVERSARIES["static"])
        pin_cpus(monkeypatch, 1)
        serial = outputs(sc, tmp_path / "serial")
        caller = os.getpid()
        row = pipeline._PROFILES["approx"]

        def check(*args):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            row.check(*args)

        monkeypatch.setitem(pipeline._PROFILES, "approx", row._replace(check=check))
        pin_cpus(monkeypatch, 2)
        assert outputs(sc, tmp_path / "killed") == serial
        assert helper_pids() == []


class TestNoHelper:
    def test_unforkable_helper_leaves_its_span_here(self, monkeypatch, tmp_path):
        sc = make_scenario("exact", ADVERSARIES["crash"])
        pin_cpus(monkeypatch, 1)
        serial = outputs(sc, tmp_path / "serial")

        def no_fork(context, others):
            raise BlockingIOError("fork: resource temporarily unavailable")

        monkeypatch.setattr(cores, "_Helper", no_fork)
        pin_cpus(monkeypatch, 4)
        assert outputs(sc, tmp_path / "unforkable") == serial
        assert cores._helpers == []

    @needs_fork
    def test_daemonic_caller_runs_every_span_itself(self, monkeypatch, tmp_path):
        import multiprocessing

        sc = make_scenario("approx", ADVERSARIES["equivocate"])
        pin_cpus(monkeypatch, 1)
        serial = outputs(sc, tmp_path / "serial")
        pin_cpus(monkeypatch, 2)
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        daemon = context.Process(target=lambda: sender.send(
            (outputs(sc, tmp_path / "daemon"), helper_pids())), daemon=True)
        daemon.start()
        assert receiver.poll(60)
        got = receiver.recv()
        daemon.join(10)
        assert not daemon.is_alive()
        assert got == (serial, [])


    @needs_fork
    def test_concurrent_threads_get_their_own_results(self, monkeypatch, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        scs = [make_scenario(profile, seed=seed) for profile in ("approx", "binary")
               for seed in (1, 2, 3)]
        pin_cpus(monkeypatch, 1)
        serial = [outputs(sc, tmp_path / ("serial-%d" % i)) for i, sc in enumerate(scs)]
        pin_cpus(monkeypatch, 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(3) as pool:
                split = list(pool.map(lambda i: outputs(scs[i], tmp_path / str(i)),
                                      range(len(scs)), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert split == serial


RUN_ONE = """
import os, sys
os.sched_getaffinity = lambda pid: {0, 1}
from leobft import cli, cores
code = cli.main(["consensus", "--config", sys.argv[1], "--out-dir", sys.argv[2]])
print(*[h.process.pid for h in cores._helpers], flush=True)
sys.exit(code)
"""

RUN_FOREVER = """
import os, sys
os.sched_getaffinity = lambda pid: {0, 1, 2}
from leobft import cores, pipeline, scenario
sc = scenario.load_scenario(sys.argv[1])
pipeline.run_scenario(sc)
print(*[h.process.pid for h in cores._helpers], flush=True)
while True:
    pipeline.run_scenario(sc)
"""


@needs_fork
@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states in /proc")
class TestNoHelperOutlivesItsCaller:
    def config(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(textwrap.dedent("""
            {"profile": "approx", "seed": 3,
             "network": {"operators": 4, "max_faulty": 1, "epsilon": 0.05,
                         "zeta": 0.1, "alpha": 0.5, "rssi_threshold": 0.5},
             "tensor": {"regions": 2, "subbands": 2, "period": 0},
             "events": [{"region": 0, "subband": 0, "operator": 1, "truth": 0.3},
                        {"region": 0, "subband": 1, "operator": 2, "truth": 0.6},
                        {"region": 1, "subband": 0, "operator": 3, "truth": 0.9}]}
        """))
        return str(path)

    def env(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        return {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def wait_gone(self, pids):
        deadline = time.monotonic() + 10.0
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(running, pids))

    def test_cli_exit_ends_its_helpers(self, tmp_path):
        proc = subprocess.run([sys.executable, "-c", RUN_ONE, self.config(tmp_path),
                               str(tmp_path / "out")],
                              env=self.env(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        pids = [int(pid) for pid in proc.stdout.split("\n")[-2].split()]
        assert len(pids) == 1
        self.wait_gone(pids)

    def test_killed_caller_leaves_no_helper(self, tmp_path):
        proc = subprocess.Popen([sys.executable, "-c", RUN_FOREVER, self.config(tmp_path)],
                                env=self.env(), stdout=subprocess.PIPE, text=True)
        try:
            pids = [int(pid) for pid in proc.stdout.readline().split()]
            assert len(pids) == 2 and all(map(running, pids))
            time.sleep(0.2)  # mid-run: the loop keeps every helper busy
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
        self.wait_gone(pids)
