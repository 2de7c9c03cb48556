"""The benchmark's workloads: inputs made from the seed, one unit of work
each, and the checks that make a wrong answer count as a failed
operation.

All four use the bending device and only the public API
(``make_device``, ``Boson1Optimizer.run``, ``evaluate_post_fab``,
``ServeDaemon``/``ServeClient``).  A unit is the work one fresh
interpreter does after set-up; ``run()`` returns its timings, the number
of operations attempted, the failures found and the outputs it checked.
Why each workload exists is written down in ``README.md``.
"""

from __future__ import annotations

import math
import os
import shutil
import time
from pathlib import Path

import numpy as np

from repro.core import Boson1Optimizer, OptimizerConfig
from repro.core.serve import ServeClient, ServeDaemon
from repro.devices import make_device
from repro.eval.montecarlo import evaluate_post_fab
from repro.fdfd.workspace import shared_workspace
from repro.utils.io import load_result

#: Paper-default loop (path init, ``axial+worst`` sampling: 8 corners
#: plus the worst-corner probe, serial executor) where LU wins.
DESIGN_LU = {"dl": 0.05, "solver": "direct", "iterations": 12}
#: The same loop on the other side of the LU/Krylov crossover.
DESIGN_KRYLOV_FINE = {"dl": 0.025, "solver": "krylov", "iterations": 5}
#: Forward-only Monte-Carlo of the path-initialised design.
EVALUATE_FANOUT = {
    "dl": 0.05, "samples": 40, "batches": 3, "executor": "process:2",
    # Monte-Carlo inputs cycle through this many recorded draws, so
    # every seed has a reference mean FoM to be checked against.
    "variants": 10,
}
#: Closed-loop client of an in-process daemon with one runner.
SERVE_QUEUE = {"jobs": 4, "iterations": 4}

#: Scratch space inside the checkout: the daemon's job directories and
#: the last traced unit's span records.
RUN_DIR = Path(".perfbench_run")


def derive(seed: int, *keys: int) -> int:
    """A 32-bit seed derived from the benchmark seed and ``keys``."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def check_values(label, observed, expected, rtol: float) -> "list[str]":
    """Failures of ``observed`` against ``expected``.

    ``rtol == 0`` demands equality bit for bit; otherwise each value may
    differ by ``rtol * max(1, |expected|)``.  Non-finite values always
    fail.
    """
    if not all(math.isfinite(v) for v in observed):
        return [f"{label}: non-finite value in {observed}"]
    if expected is None:
        return []
    if len(observed) != len(expected):
        return [f"{label}: {len(observed)} values, reference has {len(expected)}"]
    for i, (o, e) in enumerate(zip(observed, expected)):
        if abs(o - e) > rtol * max(1.0, abs(e)):
            return [f"{label}[{i}] = {o!r}, reference {e!r}"]
    return []


class Design:
    """One ``Boson1Optimizer.run`` of the bending device."""

    def __init__(self, spec: dict, seed: int, reference: "dict | None"):
        self.spec = spec
        self.seed = seed
        self.reference = reference

    def setup(self) -> None:
        self.device = make_device("bending", dl=self.spec["dl"])
        self.optimizer = Boson1Optimizer(
            self.device,
            OptimizerConfig(
                iterations=self.spec["iterations"],
                seed=derive(self.seed, 0),
                solver=self.spec["solver"],
            ),
        )

    def run(self) -> dict:
        stamps: "list[float]" = []
        start = time.monotonic()
        result = self.optimizer.run(
            callback=lambda _record: stamps.append(time.monotonic())
        )
        latency = time.monotonic() - start
        observed = {
            "fom": result.fom_trace().tolist(),
            "loss": result.loss_trace().tolist(),
        }
        ref = self.reference or {}
        failures = []
        for key in ("fom", "loss"):
            failures += check_values(
                key, observed[key], ref.get(key), ref.get("rtol", 0.0)
            )
        return {
            "iter_s": np.diff(stamps).tolist(),
            "latency_s": [latency],
            "attempted": 1,
            "failed": int(bool(failures)),
            "failures": failures,
            "observed": observed,
        }

    def workspace(self):
        return self.device.workspace

    def close(self) -> None:
        self.optimizer.close()


class Evaluate:
    """Monte-Carlo batches of ``evaluate_post_fab`` over ``process:2``."""

    spec = EVALUATE_FANOUT

    def __init__(self, seed: int, reference: "dict | None"):
        self.variant = seed % self.spec["variants"]
        self.reference = reference

    def setup(self) -> None:
        self.device = make_device("bending", dl=self.spec["dl"])
        # The optimizer is built only for its fabrication chain and the
        # path-initialised pattern; it never runs.
        optimizer = Boson1Optimizer(self.device, OptimizerConfig(iterations=1))
        self.process = optimizer.process
        self.pattern = optimizer.decode_array(optimizer.theta)

    def run(self) -> dict:
        expected = None
        if self.reference is not None:
            expected = self.reference["mean_fom"][str(self.variant)]
        times, means, failures, failed = [], [], [], 0
        for batch in range(self.spec["batches"]):
            start = time.monotonic()
            report = evaluate_post_fab(
                self.device,
                self.process,
                self.pattern,
                n_samples=self.spec["samples"],
                seed=derive(self.variant, batch),
                executor=self.spec["executor"],
            )
            times.append(time.monotonic() - start)
            means.append(report.mean_fom)
            batch_failures = check_values(
                f"batch {batch} sample foms", report.foms.tolist(), None, 0.0
            ) + check_values(
                f"batch {batch} mean_fom", [report.mean_fom],
                None if expected is None else [expected[batch]], 0.0,
            )
            failed += bool(batch_failures)
            failures += batch_failures
        return {
            "iter_s": times[1:],
            "latency_s": times,
            "attempted": len(times),
            "failed": failed,
            "failures": failures,
            "observed": {"mean_fom": means},
        }

    def workspace(self):
        return self.device.workspace

    def close(self) -> None:
        pass


class Serve:
    """Closed-loop design jobs through an in-process ``ServeDaemon``.

    The daemon checkpoints every iteration (``checkpoint_every=1``).
    Each job is timed from the ``submit`` call to the terminal ``watch``
    reply; the client submits the next job only after that reply.
    """

    spec = SERVE_QUEUE

    def __init__(self, seed: int, reference: "dict | None"):
        self.seed = seed
        self.reference = reference

    def setup(self) -> None:
        self.jobs_dir = RUN_DIR / f"serve-{os.getpid()}"
        self.daemon = ServeDaemon(self.jobs_dir, parallel=1)
        self.thread = self.daemon.serve_in_thread()
        self.client = ServeClient(self.daemon.address, timeout=120.0)

    def run(self) -> dict:
        n_iter = self.spec["iterations"]
        expected = None
        if self.reference is not None:
            expected = self.reference["fom"][:n_iter]
        out = {
            "iter_s": [], "latency_s": [], "attempted": 0, "failed": 0,
            "failures": [],
            "observed": {"fom": []},
            "serve": {"submit_rtt_s": [], "queue_wait_s": [],
                      "overhead_s": [], "progress_records": 0},
        }
        for j in range(self.spec["jobs"]):
            config = {
                "iterations": n_iter,
                "seed": derive(self.seed, 1, j),
                "solver": "direct",
                "checkpoint_every": 1,
            }
            arrivals: "list[float]" = []
            records: "list[dict]" = []

            def on_record(record, arrivals=arrivals, records=records):
                arrivals.append(time.monotonic())
                records.append(record)

            start = time.monotonic()
            job = self.client.submit("bending", config)
            submitted = time.monotonic()
            final = self.client.watch(job["id"], on_record=on_record)
            latency = time.monotonic() - start

            label = f"job {j}"
            out["attempted"] += 1
            failures = []
            if final["status"] != "completed":
                failures.append(f"{label} settled {final['status']!r}")
            if len(records) != n_iter:
                failures.append(
                    f"{label}: {len(records)} progress records for "
                    f"{n_iter} iterations"
                )
            failures += check_values(
                f"{label} progress loss",
                [r.get("loss", math.nan) for r in records], None, 0.0,
            )
            failures += check_values(
                f"{label} progress fom",
                [r.get("fom", math.nan) for r in records], expected, 0.0,
            )
            # The daemon flips a job to "completed" before it writes
            # result.json, so the terminal watch reply can arrive first;
            # read the result once the runner has finished with the job.
            result_path = self.daemon.store.result_path(job["id"])
            if not self.daemon.wait_idle(timeout=60.0):
                failures.append(f"{label}: daemon still busy 60 s after done")
            elif final["status"] == "completed" and not result_path.exists():
                failures.append(f"{label}: completed without result.json")
            elif final["status"] == "completed":
                fom = np.asarray(load_result(result_path)["fom_trace"]).tolist()
                out["observed"]["fom"].append(fom)
                failures += check_values(f"{label} fom_trace", fom, expected, 0.0)
            out["failed"] += bool(failures)
            out["failures"] += failures
            out["latency_s"].append(latency)
            out["iter_s"] += np.diff(arrivals).tolist()
            serve = out["serve"]
            serve["submit_rtt_s"].append(submitted - start)
            if final.get("started_unix") and final.get("finished_unix"):
                run_s = final["finished_unix"] - final["started_unix"]
                serve["queue_wait_s"].append(
                    final["started_unix"] - final["submitted_unix"]
                )
                serve["overhead_s"].append(latency - run_s)
            serve["progress_records"] += len(records)
        return out

    def workspace(self):
        return shared_workspace()

    def close(self) -> None:
        self.client.close()
        self.daemon.shutdown()
        self.thread.join(timeout=60.0)
        shutil.rmtree(self.jobs_dir, ignore_errors=True)


def make(name: str, seed: int, reference: "dict | None"):
    """The workload ``name``; ``reference`` is the whole reference file."""
    ref = None if reference is None else reference[
        "design-lu" if name == "serve-queue" else name
    ]
    if name == "design-lu":
        return Design(DESIGN_LU, seed, ref)
    if name == "design-krylov-fine":
        return Design(DESIGN_KRYLOV_FINE, seed, ref)
    if name == "evaluate-fanout":
        return Evaluate(seed, ref)
    if name == "serve-queue":
        return Serve(seed, ref)
    raise ValueError(f"unknown workload {name!r}")
