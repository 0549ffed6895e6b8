"""Command-line interface: one parser, built from ``scenarios.SCENARIOS``, for
``starkcomb <scenario> [--config FILE] [--out DIR] [--timestamp]``.

Exit codes: 0 success, 2 configuration error, unwritable output path or usage
error, 3 infeasible plan or band coverage failure, 4 numerical-solver failure.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

from .config import default_config, load_config
from .errors import ConfigError, CoverageError, PlannerError, SolverError, StarkCombError
from .scenarios import SCENARIO_NAMES, SCENARIOS, run_scenario


@cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starkcomb",
        description="Channelized Rydberg vapor-cell microwave receiver simulator.",
        epilog="scenarios:\n"
        + "\n".join(f"  {name:<13}{text}" for name, (_, text) in SCENARIOS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "scenario", choices=SCENARIO_NAMES, metavar="scenario", help="one of the scenarios below"
    )
    parser.add_argument(
        "--config", type=Path, help="YAML configuration file (bundled defaults if omitted)"
    )
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")
    parser.add_argument(
        "--timestamp",
        action="store_true",
        help="embed a generation timestamp in CSV headers (outputs are then not byte-reproducible)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else default_config()
        paths = run_scenario(config, args.scenario, args.out, timestamp=args.timestamp)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (PlannerError, CoverageError) as exc:
        print(f"infeasible plan: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 4
    except (StarkCombError, OSError) as exc:  # OSError: the output path cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
