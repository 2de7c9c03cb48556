"""Linear-solver protocol, configuration and backend registry.

The FDFD stack reduces every physics question to solves of one sparse
system ``A x = b`` (and its transpose, for adjoints).  This package
isolates *how* those solves happen behind a small interface so that the
workspace, the Helmholtz solver and the devices never mention SuperLU
directly:

``LinearSolver``
    One factorized/preconditioned operator for one system matrix.
    Supports single-RHS, transposed and matrix-RHS (multi-column)
    solves.

``SolverConfig``
    Which backend to use and its knobs (Krylov method, tolerance,
    fallback policy).  Threaded from
    :class:`repro.core.config.OptimizerConfig` and the CLI ``--solver``
    flag down to the workspace.

``SOLVER_REGISTRY``
    String-keyed backend registry (``direct`` / ``batched`` /
    ``krylov``); :func:`register_solver` adds new backends — the seam
    the ROADMAP names for a future GPU (CuPy/cuDSS) backend.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.fdfd.workspace import FactorOptions

__all__ = [
    "LinearSolver",
    "SolverConfig",
    "SolveStats",
    "SOLVER_REGISTRY",
    "register_solver",
    "available_backends",
    "make_linear_solver",
]


@dataclass(frozen=True)
class SolverConfig:
    """Backend selection + iterative-solver knobs.

    Only ``backend`` matters to ``direct`` and ``batched``; every other
    field tunes the Krylov backends.

    Parameters
    ----------
    backend:
        Registry key: ``"direct"`` (one SuperLU per permittivity, the
        bitwise reference), ``"batched"`` (direct, plus matrix-RHS
        triangular sweeps and multi-direction forward/adjoint batching),
        ``"krylov"`` (BiCGStab/GMRES preconditioned by the reused
        nominal-corner LU, with automatic fallback to direct).
    krylov_method:
        ``"bicgstab"`` (default) or ``"gmres"``.
    tol:
        Relative residual target of the iterative solve.  The ``1e-5``
        default converges in ~3 BiCGStab sweeps when the preconditioner
        is a nearby LU and leaves optimizer trajectories
        indistinguishable from the direct backend's (the bending FoM
        trace agrees bit for bit over short runs; gradient noise at this
        level is orders of magnitude below fabrication variation).
        Tighten (e.g. ``1e-10``) for finite-difference probing or
        bit-chasing comparisons against the direct backend.
    maxiter:
        Iteration budget before the solve is declared non-converged and
        handed to the direct fallback.  Deliberately small: with a good
        preconditioner convergence takes O(10) iterations, so a solve
        that reaches ``maxiter`` is cheaper to refactorize than to grind
        out.
    fallback:
        Factorize and solve directly when the Krylov solve does not
        converge (the fallback LU also becomes a new preconditioner
        anchor).  Disabling turns non-convergence into a RuntimeError —
        used by convergence tests.
    max_anchors:
        Preconditioner LUs the workspace keeps per operator set
        (nominal corner, calibration environments, ...).  Each solve
        picks the nearest anchor in permittivity distance.
    gmres_restart:
        GMRES restart length (ignored by BiCGStab).
    """

    backend: str = "direct"
    krylov_method: str = "bicgstab"
    tol: float = 1e-5
    maxiter: int = 12
    fallback: bool = True
    max_anchors: int = 4
    gmres_restart: int = 30

    def __post_init__(self):
        if self.backend == "krylov-block":
            raise ValueError(
                "solver backend 'krylov-block' was removed; use 'krylov' "
                "(the same anchor-preconditioned BiCGStab, one solve per "
                "corner)"
            )
        if self.backend not in SOLVER_REGISTRY:
            raise ValueError(
                f"unknown solver backend {self.backend!r}; "
                f"available: {available_backends()}"
            )
        if self.krylov_method not in ("bicgstab", "gmres"):
            raise ValueError(
                "krylov_method must be 'bicgstab' or 'gmres', "
                f"got {self.krylov_method!r}"
            )
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.maxiter < 1:
            raise ValueError("maxiter must be >= 1")
        if self.max_anchors < 1:
            raise ValueError("max_anchors must be >= 1")
        if self.gmres_restart < 1:
            raise ValueError(
                f"gmres_restart must be >= 1, got {self.gmres_restart} "
                "(the GMRES outer-cycle count divides maxiter by it)"
            )

    @classmethod
    def coerce(cls, spec: "SolverConfig | str | None") -> "SolverConfig":
        """Accept a config, a backend name, or ``None`` (-> direct).

        A bare string may carry the Krylov method after a colon, e.g.
        ``"krylov:gmres"`` — the grammar the CLI ``--solver`` flag uses.
        """
        if spec is None:
            return cls()
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, str):
            backend, _, method = spec.partition(":")
            if method:
                return cls(backend=backend, krylov_method=method)
            return cls(backend=backend)
        raise TypeError(f"cannot coerce {type(spec).__name__} to SolverConfig")

    def with_overrides(self, **kwargs) -> "SolverConfig":
        return replace(self, **kwargs)


class SolveStats:
    """Thread-safe counters describing the work a workspace's solvers did.

    ``iterations`` counts Krylov sweeps only; a direct (or fallback)
    solve contributes to ``factorizations`` and ``solves`` but not to
    ``iterations``.
    """

    _FIELDS = (
        "factorizations",
        "solves",
        "rhs_columns",
        "batched_calls",
        "krylov_solves",
        "iterations",
        "wasted_iterations",
        "fallbacks",
    )

    def __init__(self):
        self._lock = threading.Lock()
        for name in self._FIELDS:
            setattr(self, name, 0)

    def add(self, **counts: int) -> None:
        with self._lock:
            for name, value in counts.items():
                setattr(self, name, getattr(self, name) + int(value))

    def as_dict(self) -> dict[str, int]:
        with self._lock:
            return {name: getattr(self, name) for name in self._FIELDS}

    def delta_since(self, baseline: "dict[str, int]") -> dict[str, int]:
        """Counter increments since a previous :meth:`as_dict` snapshot.

        Zero entries are dropped, so the result is a compact payload for
        shipping a worker process's solve work back to the parent (see
        :meth:`merge`).
        """
        now = self.as_dict()
        return {
            name: now[name] - baseline.get(name, 0)
            for name in now
            if now[name] != baseline.get(name, 0)
        }

    def merge(self, counts: "dict[str, int]") -> None:
        """Fold a worker's counter delta into these stats.

        The process fan-out's reduction step: each worker snapshots its
        own workspace stats around a task (:meth:`delta_since`) and the
        parent merges the deltas here, so ``stats()`` reports the whole
        fleet's factorizations / sweeps / fallbacks.  Unknown counter
        names are an error — a silent drop would under-report work.
        """
        unknown = set(counts) - set(self._FIELDS)
        if unknown:
            raise ValueError(
                f"unknown solve-stat counters {sorted(unknown)}; "
                f"have {list(self._FIELDS)}"
            )
        self.add(**counts)

    def reset(self) -> None:
        with self._lock:
            for name in self._FIELDS:
                setattr(self, name, 0)


class LinearSolver:
    """One solvable operator ``A`` (single matrix, many right-hand sides).

    Subclasses implement :meth:`solve_many`; the single-RHS entry points
    are derived.  ``trans`` follows the SuperLU convention: ``"N"`` for
    ``A x = b``, ``"T"`` for ``A^T x = b``.
    """

    #: Whether :meth:`solve_many` amortizes work across columns (upper
    #: layers use this to decide whether aggregating RHS is worthwhile).
    batches_rhs: bool = False

    def __init__(self, matrix: sp.csc_matrix, stats: SolveStats | None = None):
        self.matrix = matrix
        self.stats = stats or SolveStats()

    # ------------------------------------------------------------------ #
    def solve_many(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        """Solve for an ``(n, k)`` block of right-hand sides."""
        raise NotImplementedError

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        """Solve for a single flattened right-hand side."""
        rhs = np.asarray(rhs, dtype=np.complex128)
        return self.solve_many(rhs[:, None], trans=trans)[:, 0]

    # ------------------------------------------------------------------ #
    @property
    def lu(self):
        """The underlying SuperLU factorization, if the backend has one."""
        return None

    @staticmethod
    def _check_trans(trans: str) -> None:
        if trans not in ("N", "T"):
            raise ValueError(f"trans must be 'N' or 'T', got {trans!r}")


SOLVER_REGISTRY: dict[str, type] = {}


def register_solver(name: str):
    """Class decorator adding a backend to :data:`SOLVER_REGISTRY`."""

    def decorate(cls):
        if name in SOLVER_REGISTRY and SOLVER_REGISTRY[name] is not cls:
            raise ValueError(f"solver backend {name!r} already registered")
        SOLVER_REGISTRY[name] = cls
        cls.backend_name = name
        return cls

    return decorate


def available_backends() -> list[str]:
    return sorted(SOLVER_REGISTRY)


def make_linear_solver(
    backend: str,
    matrix: sp.csc_matrix,
    factor_options: "FactorOptions",
    *,
    config: SolverConfig | None = None,
    stats: SolveStats | None = None,
    **kwargs,
) -> LinearSolver:
    """Instantiate a registered backend for one system matrix.

    Direct backends factorize immediately; the Krylov backend expects a
    ``preconditioner`` LU in ``kwargs`` (the workspace supplies its
    nearest anchor) and factorizes nothing up front.
    """
    try:
        cls = SOLVER_REGISTRY[backend]
    except KeyError:
        raise ValueError(
            f"unknown solver backend {backend!r}; "
            f"available: {available_backends()}"
        ) from None
    return cls.build(
        matrix,
        factor_options,
        config=config or SolverConfig(backend=backend),
        stats=stats,
        **kwargs,
    )
