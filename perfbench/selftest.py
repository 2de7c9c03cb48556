"""Smoke test of the benchmark itself (about a minute on two cores).

    python3 perfbench/selftest.py

Checks that:

* ``BENCHMARK.json`` names the metrics this directory reports;
* one unit of every workload passes its output checks against
  ``reference.json``;
* the same unit fails them against a reference perturbed by one ulp
  (by ten solver tolerances for the Krylov trajectory);
* a traced unit of each design workload reports every per-layer metric
  and leaves at most 5 % of the engine's wall time to unnamed code;
* ``run.py`` exits non-zero, printing no result, in a directory that
  holds only ``BENCHMARK.json`` and this directory.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import numpy as np

from metrics import END_TO_END, PER_LAYER
from run import ROOT, WORKLOADS, run_unit

RUN_DIR = ROOT / ".perfbench_run"


def check(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def perturbed(reference: dict) -> dict:
    out = copy.deepcopy(reference)

    def ulp(values):
        return [float(np.nextafter(v, np.inf)) for v in values]

    out["design-lu"]["fom"] = ulp(out["design-lu"]["fom"])
    krylov = out["design-krylov-fine"]
    krylov["fom"] = [v + 10 * krylov["rtol"] for v in krylov["fom"]]
    means = out["evaluate-fanout"]["mean_fom"]
    for key in means:
        means[key] = ulp(means[key])
    return out


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(
        {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END,
        "BENCHMARK.json end_to_end matches metrics.END_TO_END",
    )
    check(
        {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER,
        "BENCHMARK.json per_layer matches metrics.PER_LAYER",
    )
    check(
        {w["name"] for w in bench["workloads"]} <= set(WORKLOADS),
        "BENCHMARK.json workloads are among run.WORKLOADS",
    )

    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    RUN_DIR.mkdir(exist_ok=True)
    bad_path = RUN_DIR / "selftest-reference.json"
    bad_path.write_text(json.dumps(perturbed(reference)))
    try:
        for workload in WORKLOADS:
            unit = run_unit(workload, 0, trace=False)
            check(
                unit["failed"] == 0 and unit["attempted"] >= 1,
                f"{workload} passes its checks ({unit['attempted']} ops)",
            )
            unit = run_unit(
                workload, 0, trace=False, extra=("--reference", str(bad_path))
            )
            check(
                unit["failed"] >= 1,
                f"{workload} fails a perturbed reference "
                f"({unit['failures'][:1]})",
            )
    finally:
        bad_path.unlink(missing_ok=True)

    for workload in ("design-lu", "design-krylov-fine"):
        layers = run_unit(workload, 0, trace=True)["per_layer"]
        missing = set(PER_LAYER) - set(layers) - {"obs.trace_overhead_ratio"}
        check(not missing, f"traced {workload} reports every per-layer metric")
        ratio = layers["core.engine.unattributed_ratio"]
        check(ratio <= 0.05, f"{workload} unattributed_ratio {ratio:.4f} <= 0.05")

    bare = RUN_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(
        ROOT / "perfbench", bare / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "design-lu",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(
        proc.returncode != 0 and '"correct"' not in proc.stdout,
        f"run.py without src/ exits {proc.returncode} with no result",
    )
    print("selftest passed")


if __name__ == "__main__":
    main()
