"""Command-line front end.

Subcommands:
  consensus     run a scenario config end to end and write artifacts
  constellation interference sweep over constellation densities
  detection     sensor detection sweep against closed-form rates
  ledger-audit  re-verify an exported ledger file

Exit codes: 0 success, 1 configuration error, 2 agreement property
violation, 3 audit failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys
from typing import List, Optional

from . import geo, ledger, pipeline
from .scenario import ConfigError, load_scenario


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; remap that to a config error."""

    def error(self, message: str):
        raise ConfigError(message)


def _parse_densities(text: str) -> List[float]:
    """Either "start:stop:count" or a comma-separated list."""
    if ":" in text:
        fields = text.split(":")
        if len(fields) != 3:
            raise ConfigError("density range must look like start:stop:count")
        try:
            start, stop, count = float(fields[0]), float(fields[1]), int(fields[2])
        except ValueError as err:
            raise ConfigError("bad density range %r" % text) from err
        if count < 1:
            raise ConfigError("density range needs at least one point")
        if count == 1:
            return [start]
        step = (stop - start) / (count - 1)
        return [start + step * i for i in range(count)]
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as err:
        raise ConfigError("bad density list %r" % text) from err
    if not values:
        raise ConfigError("empty density list")
    return values


def _write_rows(out_dir: Optional[str], name: str, header: List[str],
                rows: List[list]) -> Optional[str]:
    if out_dir is None:
        return None
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _cmd_consensus(args) -> int:
    sc = load_scenario(args.config)
    if args.seed is not None:
        sc = dataclasses.replace(sc, seed=args.seed)

    trial_summaries = []
    for trial in range(args.trials):
        sc_t = dataclasses.replace(sc, seed=sc.seed + trial) if trial else sc
        result = pipeline.run_scenario(sc_t)
        if args.trials == 1:
            out_dir = args.out_dir
        else:
            out_dir = os.path.join(args.out_dir, "trial-%03d" % trial)
        written = pipeline.write_artifacts(result, out_dir)
        committed = result.commit.block is not None
        trial_summaries.append([
            trial, sc_t.seed, int(committed), result.commit.attempts_used,
            len(result.ledger.verdicts),
            max(o.rounds for o in result.outcomes) if result.outcomes else 0,
        ])
        print("trial %d seed %d: committed=%s attempts=%d verdicts=%d"
              % (trial, sc_t.seed, committed, result.commit.attempts_used,
                 len(result.ledger.verdicts)))
        for path in written:
            print("  wrote %s" % path)

    if args.trials > 1:
        path = _write_rows(args.out_dir, "trials.csv",
                           ["trial", "seed", "committed", "attempts", "verdicts",
                            "max_rounds"],
                           trial_summaries)
        print("wrote %s" % path)
    return 0


def _cmd_constellation(args) -> int:
    densities = _parse_densities(args.densities)
    rows = geo.interference_sweep(
        densities, args.operators, args.subbands, args.trials, args.seed,
    )
    print("density_per_1e6km2,mean_incidents")
    table = []
    for (_, mean_count), density in zip(rows, densities):
        print("%s,%s" % (repr(float(density)), repr(float(mean_count))))
        table.append([repr(float(density)), repr(float(mean_count))])
    path = _write_rows(args.out_dir, "constellation.csv",
                       ["density_per_1e6km2", "mean_incidents"], table)
    if path:
        print("wrote %s" % path)
    return 0


def _cmd_detection(args) -> int:
    densities = _parse_densities(args.densities)
    rows = geo.detection_sweep(
        densities, args.honest, args.trials, args.seed,
    )
    print("density_per_1e4km2,empirical,theory")
    table = []
    for (_, empirical, theory), density in zip(rows, densities):
        print("%s,%s,%s" % (repr(float(density)), repr(float(empirical)),
                            repr(float(theory))))
        table.append([repr(float(density)), repr(float(empirical)),
                      repr(float(theory))])
    path = _write_rows(args.out_dir, "detection.csv",
                       ["density_per_1e4km2", "empirical", "theory"], table)
    if path:
        print("wrote %s" % path)
    return 0


def _cmd_ledger_audit(args) -> int:
    try:
        with open(args.ledger_file, "rb") as fh:
            data = fh.read()
    except OSError as err:
        raise ConfigError("cannot read %s: %s" % (args.ledger_file, err)) from err

    report = ledger.audit_chain(data)
    if not report.ok:
        print("audit failed: %s" % report.error)
        return 3
    print("audit ok: %d blocks (n=%d, f=%d)"
          % (len(report.blocks), report.n_operators, report.max_faulty))
    if args.period is not None:
        for block in report.blocks:
            if block.period == args.period:
                tensor = block.tensor()
                print("period %d: attempt %d proposer %d, %d entries"
                      % (block.period, block.attempt, block.proposer,
                         len(tensor.entries)))
                for key in sorted(tensor.entries):
                    print("  region=%d subband=%d operator=%d value=%s"
                          % (key[0], key[1], key[2] + 1, repr(tensor.get(key))))
                break
        else:
            print("period %d: not committed" % args.period)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="leobft",
                     description="Fault-tolerant spectrum-usage consensus toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("consensus", help="run a scenario config end to end")
    p.add_argument("--config", required=True, help="scenario JSON file")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out-dir", default="out", help="artifact directory")
    p.add_argument("--trials", type=int, default=1,
                   help="independent runs with consecutive seeds")
    p.set_defaults(func=_cmd_consensus)

    p = sub.add_parser("constellation", help="interference sweep over densities")
    p.add_argument("--densities", default="3:17:15",
                   help="per 1e6 km^2; start:stop:count or comma list")
    p.add_argument("--operators", type=int, default=4)
    p.add_argument("--subbands", type=int, default=1)
    p.add_argument("--trials", type=int, default=3, help="realisations per density")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=None, help="also write constellation.csv here")
    p.set_defaults(func=_cmd_constellation)

    p = sub.add_parser("detection", help="sensor detection sweep")
    p.add_argument("--densities", default="10,30,50,70,90",
                   help="per 1e4 km^2; start:stop:count or comma list")
    p.add_argument("--honest", type=int, default=3, help="independent sensor operators")
    p.add_argument("--trials", type=int, default=10000, help="incidents per density")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=None, help="also write detection.csv here")
    p.set_defaults(func=_cmd_detection)

    p = sub.add_parser("ledger-audit", help="re-verify an exported ledger")
    p.add_argument("ledger_file", help="file produced by the consensus run")
    p.add_argument("--period", type=int, default=None,
                   help="print the committed tensor for this period")
    p.set_defaults(func=_cmd_ledger_audit)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if getattr(args, "trials", 1) < 1:
            raise ConfigError("--trials must be at least 1")
        return args.func(args)
    except ConfigError as err:
        print("configuration error: %s" % err, file=sys.stderr)
        return 1
    except pipeline.PropertyViolation as err:
        print("property violation: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
