"""Pluggable linear-solver subsystem for the FDFD stack.

See :mod:`repro.fdfd.linalg.base` for the interface and registry,
:mod:`repro.fdfd.linalg.direct` for the SuperLU backends and
:mod:`repro.fdfd.linalg.krylov` for the preconditioned iterative
backend.  Backend selection is a string key (``direct`` / ``batched`` /
``krylov``) carried by :class:`SolverConfig` from the optimizer config
and the CLI down to :class:`repro.fdfd.workspace.SimulationWorkspace`.
The ``krylov`` backend runs one BiCGStab/GMRES solve per column,
preconditioned by a nearby anchor LU in full precision."""

from repro.fdfd.linalg.base import (
    SOLVER_REGISTRY,
    LinearSolver,
    SolveStats,
    SolverConfig,
    available_backends,
    make_linear_solver,
    register_solver,
)
from repro.fdfd.linalg.direct import BatchedDirectSolver, DirectSolver
from repro.fdfd.linalg.krylov import KrylovDiagnostics, PreconditionedKrylovSolver

__all__ = [
    "LinearSolver",
    "SolverConfig",
    "SolveStats",
    "SOLVER_REGISTRY",
    "register_solver",
    "available_backends",
    "make_linear_solver",
    "DirectSolver",
    "BatchedDirectSolver",
    "PreconditionedKrylovSolver",
    "KrylovDiagnostics",
]
