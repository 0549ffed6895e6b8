"""Repeat the benchmark over seeds and record the spread of every metric.

Usage (from the repository root):

    python3 bench/collect.py --seeds 1-10 --out bench/results/BENCH_<label>.json

For each workload it runs ``bench/run.py`` once per seed with ``--trace 0``,
then once with ``--trace 1`` on the first seed. Runs are sequential. The
summary gives each end-to-end metric's median, quartiles and spread, the
interquartile distance as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them, next to a third of the
metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    env = json.loads(next(line[5:] for line in lines if line.startswith("env: ")))
    return {"seed": seed, "process_s": elapsed, **json.loads(lines[-1]), "env": env}


def summarise(runs: list[dict], specs: list[dict]) -> dict:
    summary = {}
    for spec in specs:
        values = [r["metrics"][spec["name"]]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary[spec["name"]] = {
            "unit": spec["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"),
            "bound": spec["bound"],
        }
    return summary


def main() -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=contract["run_seconds"])
    parser.add_argument("--no-trace", action="store_true", help="skip the traced run")
    parser.add_argument("--label", default="")
    parser.add_argument("--out", type=Path, help="write the results JSON here")
    args = parser.parse_args()

    seeds = _seeds(args.seeds)
    results = {
        "label": args.label,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seconds": args.seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        entry = {
            "runs": runs,
            "summary": summarise(runs, contract["end_to_end"]),
            "all_correct": all(r["correct"] for r in runs),
        }
        if not args.no_trace:
            entry["trace"] = run_once(workload, seeds[0], args.seconds, 1)
        results["workloads"][workload] = entry
        results.setdefault("env", {k: v for k, v in runs[0]["env"].items() if k not in (
            "workload", "seed", "input_sha256", "output_sha256", "sizes")})
        print(f"{workload}: {len(runs)} runs, all correct: {entry['all_correct']}")
        for name, s in entry["summary"].items():
            flag = "ok" if s["spread"] < s["bound"] / 3 else "WIDE"
            print(
                f"  {name:<12} median {s['median']:<12.6g} {s['unit']:<7} q1 {s['q1']:<12.6g} "
                f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} (bound/3 {s['bound'] / 3:.4f}) {flag}"
            )
        sys.stdout.flush()
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
