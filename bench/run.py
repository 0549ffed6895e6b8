"""starkcomb benchmark: one workload, one seed, one process.

Usage (from the repository root):

    python3 bench/run.py --workload eit-spectrum --seed 1 --seconds 10 --trace 0

The harness writes the workload's seeded YAML inputs under ``.bench_work/``,
times set-up in fresh child processes, warms up with one operation, then
repeats passes over the workload's fixed set of operations until
``--seconds`` have elapsed (at least one pass). Each operation's time is its
median over the passes; ``wall_s`` is their sum. Every output is checked by
``checker.py``, and every later pass must reproduce the first pass's bytes.

A shared VM can change speed by a third over minutes (other tenants share
its cores; see README.md), so every timing is scaled to a fixed reference
speed. Between operations (at most every 0.1 s) the harness
times a fixed kernel of its own, interpreter float math plus small numpy
solves, and multiplies each operation's time by ``KERNEL_REFERENCE_S`` over
the mean of the kernel times just before and after it. The set-up probe times
the kernel in its own process. The kernel does not touch the program,
so a change to the program moves the scaled times as it moves the raw ones.
The report lines also give the raw, unscaled figures.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes, and reports per-layer metrics over the
in-process set-up plus the first traced pass, with ``trace.overhead_frac``
from the median pass times. Spans are saved to ``.bench_work/<workload>/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
print each metric with its unit, ``failed_frac``, the sample counts and the
environment. The program is imported from ``src/`` beside this directory;
without it the harness exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# One BLAS thread (at most nproc, as the harness promises): tiny LAPACK calls
# then never wait on the other core, which other tenants may be using.
# Set before numpy is first imported; an explicit setting is kept.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import checker  # noqa: E402
import numpy as np  # noqa: E402
import workloads  # noqa: E402
import yaml  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 7
# Kernel time that defines the reference machine speed (about its median on
# a 2-vCPU 2.0 GHz Xeon VM), and the most time between two kernel samples.
KERNEL_REFERENCE_S = 0.010
CALIBRATE_EVERY_S = 0.1

_KERNEL_A = np.eye(16) + np.arange(256.0).reshape(16, 16) / 2560.0
_KERNEL_B = np.ones(16)


def kernel_seconds() -> float:
    """Time of a fixed mix of interpreter float math and small numpy solves.

    It allocates almost nothing, so the program's heap cannot change it.
    """
    gc.disable()
    try:
        t0 = perf_counter()
        acc = 0.0
        for i in range(60_000):
            acc += math.sqrt(i + 0.5) * 1.000001
        for _ in range(100):
            np.linalg.solve(_KERNEL_A, _KERNEL_B)
        return perf_counter() - t0
    finally:
        gc.enable()


@dataclass
class Pass:
    op_times: list[float]  # raw seconds
    factors: list[float]  # KERNEL_REFERENCE_S / kernel time around each op
    codes: list
    digests: list[str]
    rows: list[int]
    traced: bool = False

    @property
    def scaled(self) -> list[float]:
        return [t * f for t, f in zip(self.op_times, self.factors)]


def _probe_setup(wl: workloads.Workload) -> tuple[float, float]:
    """Raw and speed-scaled seconds of one fresh-process set-up."""
    configs = [] if wl.via_cli else [str(p) for p in dict.fromkeys(op.config for op in wl.ops)]
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), "cli" if wl.via_cli else "scenarios", *configs]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    raw, kernel = (float(v) for v in done.stdout.split()[-2:])
    return raw, raw * KERNEL_REFERENCE_S / kernel


def _digest(op_dir: Path) -> tuple[str, int]:
    """SHA-256 over an op's output files, and the CSV data rows they hold."""
    digest, rows = hashlib.sha256(), 0
    for path in sorted(op_dir.iterdir()) if op_dir.exists() else []:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data + b"\0")
        if path.suffix == ".csv":
            comments = data.count(b"\n#") + data.startswith(b"#")
            rows += data.count(b"\n") - comments - 1
    return digest.hexdigest(), rows


def _run_pass(wl: workloads.Workload, configs: dict, out: Path) -> Pass:
    times, codes, kernels, kernel_of = [], [], [], []
    sink = io.StringIO()
    calibrated = -math.inf
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for op in wl.ops:
            # Every op starts from the same collector state, whatever came before.
            gc.collect()
            if perf_counter() - calibrated >= CALIBRATE_EVERY_S:
                kernels.append(kernel_seconds())
                calibrated = perf_counter()
            t0 = perf_counter()
            try:
                code = workloads.run_op(wl, op, configs, out / op.name)
            except (Exception, SystemExit) as exc:
                code = f"raised {exc!r}"
            times.append(perf_counter() - t0)
            kernel_of.append(len(kernels) - 1)
            codes.append(code)
    kernels.append(kernel_seconds())
    # Each op is scaled by the mean of the kernel samples just before and after it.
    factors = [2 * KERNEL_REFERENCE_S / (kernels[i] + kernels[i + 1]) for i in kernel_of]
    digests, rows = zip(*(_digest(out / op.name) for op in wl.ops))
    return Pass(op_times=times, factors=factors, codes=codes, digests=list(digests), rows=list(rows))


def environment(wl: workloads.Workload) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "pyyaml": yaml.__version__,
        "libyaml": bool(yaml.__with_libyaml__),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": {
            var: os.environ.get(var, "unset")
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "platform": platform.platform(),
        "workload": wl.name,
        "seed": wl.seed,
        "input_sha256": wl.input_sha256,
    }


def measure(name: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None, work: Path | None = None) -> dict:
    """Run one workload; return the result object plus a report for humans."""
    work = work or WORK / name
    shutil.rmtree(work, ignore_errors=True)
    wl = workloads.generate(name, seed, work / "inputs", sizes)
    setup = [] if trace else [_probe_setup(wl) for _ in range(SETUP_SAMPLES)]

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        configs = workloads.load(wl)
    finally:
        if tracer:
            tracer.uninstall()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            workloads.run_op(wl, wl.ops[0], configs, work / "warmup" / wl.ops[0].name)
        except (Exception, SystemExit):
            pass  # the same op runs again, timed and checked, in every pass

    passes: list[Pass] = []
    layer_metrics = None
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline or (tracer and len(passes) < 2):
        k = len(passes)
        traced = bool(tracer) and k % 2 == 1
        if traced:
            if layer_metrics is not None:
                tracer.reset()
            tracer.install()
        try:
            p = _run_pass(wl, configs, work / f"p{k}")
        finally:
            if traced:
                tracer.uninstall()
        p.traced = traced
        if traced and layer_metrics is None:
            eit_rows = sum(r for op, r in zip(wl.ops, p.rows) if op.scenario == "eit")
            layer_metrics = tracer.metrics(eit_rows)
            tracer.dump(work / "spans.npz")
        if k:
            shutil.rmtree(work / f"p{k}", ignore_errors=True)
        passes.append(p)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = passes[0]
    problems = {
        op.name: checker.check_op(op, work / "p0" / op.name, code)
        for op, code in zip(wl.ops, first.codes)
    }
    failed = 0
    for p in passes:
        for i, op in enumerate(wl.ops):
            if problems[op.name] or p.codes[i] != first.codes[i] or p.digests[i] != first.digests[i]:
                failed += 1
    attempted = len(passes) * len(wl.ops)

    # Each op at its median over passes; a pass is the sum of those.
    per_op = [statistics.median(p.scaled[i] for p in passes) for i in range(len(wl.ops))]
    raw_per_op = [statistics.median(p.op_times[i] for p in passes) for i in range(len(wl.ops))]
    if trace:
        untraced = statistics.median(sum(p.scaled) for p in passes if not p.traced)
        traced_wall = statistics.median(sum(p.scaled) for p in passes if p.traced)
        metrics = dict(layer_metrics)
        metrics["trace.overhead_frac"] = (traced_wall / untraced - 1.0, "ratio")
    else:
        metrics = {
            "setup_s": (statistics.median(s for _, s in setup), "s"),
            "wall_s": (sum(per_op), "s"),
            "rows_per_s": (sum(first.rows) / sum(per_op), "rows/s"),
            "op_ms_p50": (1e3 * statistics.median(per_op), "ms"),
            "op_ms_p90": (1e3 * _p90(per_op), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    env = environment(wl)
    env["output_sha256"] = hashlib.sha256("".join(first.digests).encode()).hexdigest()
    env["sizes"] = {**workloads.FULL_SIZES[name], **(sizes or {})}
    report = [
        f"workload {name}  seed {seed}  trace {int(trace)}  passes {len(passes)}  "
        f"ops {attempted} ({len(wl.ops)} per pass)  rows/pass {sum(first.rows)}",
        *(f"  {key:<30} {value:>14.6g} {unit}" for key, (value, unit) in metrics.items()),
        f"  {'failed_frac':<30} {failed / attempted:>14.6g} ratio  ({failed} of {attempted} ops)",
    ]
    factors = [f for p in passes for f in p.factors]
    report.append(
        f"  speed factor median {statistics.median(factors):.4f} "
        f"(min {min(factors):.4f}, max {max(factors):.4f}, {len(factors)} ops)"
    )
    if not trace:
        report += [
            f"  raw: setup_s {statistics.median(r for r, _ in setup):.6g} s, wall_s "
            f"{sum(raw_per_op):.6g} s, op_ms_p50 {1e3 * statistics.median(raw_per_op):.6g} ms, "
            f"op_ms_p90 {1e3 * _p90(raw_per_op):.6g} ms",
            f"  samples: setup_s {len(setup)} fresh processes; each op is its median over "
            f"{len(passes)} passes; op_ms_* over {len(per_op)} ops",
        ]
    report += [f"  problem {op}: {msg}" for op, msgs in problems.items() for msg in msgs[:3]][:20]
    return {
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
        },
        "report": report,
        "env": env,
    }


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "starkcomb" / "__init__.py").is_file():
        print(f"bench: starkcomb sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(out["report"]))
    print("env: " + json.dumps(out["env"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
