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
import dataclasses
import os
import sys
from typing import List, Optional

from . import ledger, pipeline
from .scenario import ConfigError, load_scenario


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; remap that to a config error."""

    def error(self, message: str):
        raise ConfigError(message)


def _parse_densities(text: str) -> List[float]:
    """Either "start:stop:count" (at most MAX_DENSITY_POINTS) or a comma-separated list."""
    if ":" in text:
        fields = text.split(":")
        if len(fields) != 3:
            raise ConfigError("density range must look like start:stop:count")
        try:
            start, stop, count = float(fields[0]), float(fields[1]), int(fields[2])
        except ValueError as err:
            raise ConfigError("bad density range %r" % text) from err
        if not 1 <= count <= MAX_DENSITY_POINTS:
            raise ConfigError("density range needs 1 to %d points" % MAX_DENSITY_POINTS)
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


def _earth_area_km2() -> float:
    # geo (and numpy with it) is imported by the geo commands only
    from . import geo

    return geo.EARTH_AREA_KM2


# the most Poisson points one sensor or satellite field may expect, and the
# most incident points one detection draw holds (a density-90 detection field
# expects 4.6M): memory grows with the points, not with interference pairs
MAX_FIELD_POINTS = 1e7
# the most points the fields of one density may expect together, as all of
# them are held at once: three detection fields at density 90 expect 13.8M
MAX_SWEEP_POINTS = 3e7
# the same for constellations, which geo.count_interference copies once more,
# sorted by grid cell: about 30 B a satellite at the peak beside the 32 B of
# its coordinates and sub-band, so 2e7 peak at 1.24 GB resident (3e7 fail
# under 2 GB of address space)
MAX_SATELLITES = 2e7
# the most fields (operators) one density may draw, each an array of its own
MAX_FIELDS = 1_000
# the most points a start:stop:count density range may list
MAX_DENSITY_POINTS = 10_000
# sub-band ids are drawn as 64-bit integers
MAX_SUBBANDS = 2**63 - 1


def _field_densities(text: str, per_km2: float) -> List[float]:
    """Densities per `per_km2` square km, each finite, >= 0 and within MAX_FIELD_POINTS."""
    densities = _parse_densities(text)
    limit = MAX_FIELD_POINTS * per_km2 / _earth_area_km2()
    for density in densities:
        if not 0.0 <= density <= limit:  # NaN fails too
            raise ConfigError("--densities: %r is not between 0 and %.6g per %g km^2 "
                              "(at most %g expected points per field)"
                              % (density, limit, per_km2, MAX_FIELD_POINTS))
    return densities


def _over(expected: float, bound: float) -> str:
    """expected in %g, with enough digits (3 at least) to read as more than bound."""
    digits = 3
    while float("%.*g" % (digits, expected)) <= bound:
        digits += 1
    return "%.*g" % (digits, expected)


def _check_fields(flag: str, count: int, densities: List[float], per_km2: float,
                  bound: float = MAX_SWEEP_POINTS) -> None:
    """count fields per density: 1 to MAX_FIELDS, expecting at most bound
    points together at the largest density."""
    if count < 1:
        raise ConfigError("%s must be at least 1" % flag)
    if count > MAX_FIELDS:
        raise ConfigError("%s must be at most %d" % (flag, MAX_FIELDS))
    expected = count * max(densities) * _earth_area_km2() / per_km2
    if expected > bound:
        raise ConfigError("%s %d at %r per %g km^2 expects %s points, more than %g"
                          % (flag, count, max(densities), per_km2,
                             _over(expected, bound), bound))


def _incident_count(text: str) -> int:
    """detection --trials: the incident points drawn into one array per density.

    A type function, so every --trials given is checked before any draw.
    """
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
    if count > MAX_FIELD_POINTS:
        raise argparse.ArgumentTypeError("%d is more than %g incident points per density"
                                         % (count, MAX_FIELD_POINTS))
    return count


def _print_sweep(out_dir: Optional[str], name: str, header: List[str],
                 rows: List[tuple]) -> None:
    """Print a sweep's rows as CSV lines of repr() floats, and write them to
    out_dir/name when out_dir is given."""
    table = [[repr(float(x)) for x in row] for row in rows]
    print(",".join(header))
    for row in table:
        print(",".join(row))
    if out_dir is not None:
        print("wrote %s" % pipeline.write_file(out_dir, name, pipeline.csv_text(header, table)))


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
        path = pipeline.write_file(args.out_dir, "trials.csv", pipeline.csv_text(
            ["trial", "seed", "committed", "attempts", "verdicts", "max_rounds"],
            trial_summaries))
        print("wrote %s" % path)
    return 0


def _cmd_constellation(args) -> int:
    from . import geo

    densities = _field_densities(args.densities, 1e6)
    _check_fields("--operators", args.operators, densities, 1e6, MAX_SATELLITES)
    if args.subbands < 1:
        raise ConfigError("--subbands must be at least 1")
    if args.subbands > MAX_SUBBANDS:
        raise ConfigError("--subbands must be at most %d" % MAX_SUBBANDS)
    rows = geo.interference_sweep(
        densities, args.operators, args.subbands, args.trials, args.seed,
    )
    _print_sweep(args.out_dir, "constellation.csv",
                 ["density_per_1e6km2", "mean_incidents"], rows)
    return 0


def _cmd_detection(args) -> int:
    from . import geo

    densities = _field_densities(args.densities, 1e4)
    _check_fields("--honest", args.honest, densities, 1e4)
    rows = geo.detection_sweep(
        densities, args.honest, args.trials, args.seed,
    )
    _print_sweep(args.out_dir, "detection.csv",
                 ["density_per_1e4km2", "empirical", "theory"], rows)
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
    p.add_argument("--trials", type=_incident_count, default=10000,
                   help="incidents per density, at most %g" % MAX_FIELD_POINTS)
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
