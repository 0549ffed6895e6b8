"""Command-line interface for running receiver scenarios.

Exit codes: 0 success, 2 configuration error or unwritable output path,
3 infeasible plan or band coverage failure, 4 numerical-solver failure.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

from .config import default_config, load_config
from .errors import ConfigError, CoverageError, PlannerError, SolverError, StarkCombError
from .scenarios import SCENARIO_NAMES, run_scenario

_DESCRIPTIONS = {
    "plan": "place one cell per comb line and export the placement table",
    "response": "stitched broadband beat response over a frequency sweep",
    "linearity": "beat power versus signal field strength per channel",
    "sensitivity": "minimum detectable field and sensitivity per channel",
    "sweep2cell": "frequency-swept reception with a two-cell array",
    "eit": "probe-transmission spectrum of a single cell",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starkcomb",
        description="Channelized Rydberg vapor-cell microwave receiver simulator.",
    )
    subparsers = parser.add_subparsers(dest="scenario", required=True)
    for name in SCENARIO_NAMES:
        sub = subparsers.add_parser(name, help=_DESCRIPTIONS[name])
        sub.add_argument(
            "--config",
            type=Path,
            default=None,
            help="YAML configuration file (bundled defaults if omitted)",
        )
        sub.add_argument(
            "--out", type=Path, default=Path("."), help="output directory"
        )
        sub.add_argument(
            "--timestamp",
            action="store_true",
            help="embed a generation timestamp in CSV headers (breaks "
            "byte-for-byte reproducibility)",
        )
    return parser


_parser = cache(build_parser)


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
