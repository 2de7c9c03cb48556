"""The repository benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload design-lu --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  Each unit of work runs in a fresh
interpreter (``unit.py``), because the simulation workspace and the
device calibration caches are process-global: a second device in the
same process would inherit the first one's warm caches.  Units repeat
until ``--seconds`` have passed (at least ``MIN_UNITS``), and every
end-to-end metric is the median over the run's units, or over all the
iterations or requests of those units.  ``setup_s`` is the median time
from spawning a unit's interpreter to its workload being ready.

With ``--trace 1`` even units run untraced and odd units traced; the
traced units give the per-layer metrics of ``layers.py`` (medians over
traced units), and the ratio of the two medians of ``wall_s`` gives
``obs.trace_overhead_ratio``.

The output is a table of every metric by name and unit, then one JSON
line ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is non-zero when an output check failed or a unit crashed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("design-lu", "design-krylov-fine", "evaluate-fanout", "serve-queue")

#: One BLAS thread per process for every unit (also recorded in the
#: ``command`` of BENCHMARK.json): a second BLAS thread costs
#: ``design-lu`` half again its CPU time for no gain in wall time, and
#: ``process:2`` workers would compete with it for the two cores.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

MIN_UNITS = 2
UNIT_TIMEOUT_S = 150.0


class UnitError(RuntimeError):
    """A unit's interpreter exited abnormally."""


def run_unit(workload: str, seed: int, trace: bool, extra=()) -> dict:
    """Spawn one unit and return its JSON record plus ``setup_s``."""
    env = dict(
        os.environ,
        **BLAS_ENV,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
    )
    cmd = [
        sys.executable, str(HERE / "unit.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace", str(int(trace)), *extra,
    ]
    spawned = time.monotonic()
    # A session of its own, so a timeout can stop the unit's pool
    # workers along with it.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=UNIT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise UnitError(f"{workload} unit exceeded {UNIT_TIMEOUT_S:.0f} s")
    if proc.returncode != 0:
        raise UnitError(
            f"{workload} unit exited with {proc.returncode}:\n{stderr[-4000:]}"
        )
    unit = json.loads(stdout.strip().splitlines()[-1])
    unit["setup_s"] = unit["ready"] - spawned
    return unit


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(units) -> dict:
    return {
        "setup_s": _median([u["setup_s"] for u in units]),
        "wall_s": _median([u["wall_s"] for u in units]),
        "iter_s_p50": _median([t for u in units for t in u["iter_s"]]),
        "latency_s_p50": _median([t for u in units for t in u["latency_s"]]),
        "cpu_s": _median([u["cpu_s"] for u in units]),
        "peak_rss_mb": _median([u["peak_rss_mb"] for u in units]),
    }


def per_layer(plain, traced) -> dict:
    out = {
        name: _median([u["per_layer"][name] for u in traced])
        for name in traced[0]["per_layer"]
    }
    out["obs.trace_overhead_ratio"] = (
        _median([u["wall_s"] for u in traced])
        / _median([u["wall_s"] for u in plain]) - 1.0
    )
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}", file=sys.stderr)
        return 2

    units: "list[dict]" = []
    deadline = time.monotonic() + args.seconds
    min_units = MIN_UNITS * (2 if args.trace else 1)
    try:
        while len(units) < min_units or time.monotonic() < deadline:
            traced = bool(args.trace) and len(units) % 2 == 1
            units.append(run_unit(args.workload, args.seed, traced))
    except UnitError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    plain = [u for u in units if "per_layer" not in u]
    traced = [u for u in units if "per_layer" in u]
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    failures = [f for u in units for f in u["failures"]]
    for failure in failures:
        print(f"FAILED {args.workload}: {failure}", file=sys.stderr)

    if args.trace:
        values = per_layer(plain, traced)
        units_of = PER_LAYER
    else:
        values = end_to_end(plain)
        units_of = END_TO_END
    counts = {
        "setup_s": f"median of {len(plain)} interpreter starts",
        "wall_s": f"median of {len(plain)} units",
        "iter_s_p50": f"n={sum(len(u['iter_s']) for u in plain)} iterations",
        "latency_s_p50": f"n={sum(len(u['latency_s']) for u in plain)} requests",
        "cpu_s": f"median of {len(plain)} units",
        "peak_rss_mb": f"median of {len(plain)} units",
    }
    print(f"perfbench {args.workload} seed={args.seed} "
          f"units={len(plain)} untraced, {len(traced)} traced")
    for name, value in values.items():
        print(f"  {name:40s} {value:14.6g} {units_of[name]:6s} "
              f"{counts.get(name, '')}")
    print(f"  {'error_rate':40s} {failed / attempted:14.6g} {'ratio':6s} "
          f"{failed} failed / {attempted} attempted")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units_of[name]}
            for name, value in values.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
