"""Record ``perfbench/reference.json``, the outputs every run is checked
against.

    python3 perfbench/reference.py

Each workload's unit runs once in a fresh interpreter, exactly as the
benchmark runs it, with its checks off; the outputs it reports become
the reference.  LU-backed outputs are compared bit for bit, the Krylov
trajectory to the solver's relative tolerance.  ``serve-queue`` jobs are
checked against the first iterations of the ``design-lu`` trajectory.
Re-record only when a change is meant to alter the numbers, and say so
where the change is described.
"""

from __future__ import annotations

import json
import platform
import sys

from run import ROOT, run_unit

sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from repro.fdfd.linalg import SolverConfig  # noqa: E402
from workloads import EVALUATE_FANOUT  # noqa: E402


def observed(workload: str, seed: int = 0) -> dict:
    unit = run_unit(workload, seed, trace=False, extra=("--reference", "none"))
    return unit["observed"]


def main() -> None:
    reference = {
        "recorded_with": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
        },
        "design-lu": observed("design-lu"),
        "design-krylov-fine": {
            **observed("design-krylov-fine"),
            "rtol": SolverConfig(backend="krylov").tol,
        },
        "evaluate-fanout": {
            "mean_fom": {
                str(v): observed("evaluate-fanout", v)["mean_fom"]
                for v in range(EVALUATE_FANOUT["variants"])
            }
        },
    }
    path = ROOT / "perfbench" / "reference.json"
    path.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
