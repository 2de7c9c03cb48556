"""Direct (SuperLU) backends: per-column and batched triangular sweeps.

``DirectSolver`` reproduces the PR 1 behaviour exactly: one SuperLU
factorization per permittivity, one triangular sweep per right-hand
side.  ``BatchedDirectSolver`` shares the factorization but hands a
whole ``(n, k)`` block to SuperLU in a single call, amortizing the
per-call overhead and the L/U traversals across the forward,
adjoint-transposed and multi-direction sources that used to arrive one
at a time.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.fdfd.linalg.base import (
    LinearSolver,
    SolveStats,
    SolverConfig,
    register_solver,
)
from repro.obs.trace import span

__all__ = ["DirectSolver", "BatchedDirectSolver"]


@register_solver("direct")
class DirectSolver(LinearSolver):
    """SuperLU-factorized operator; one sweep per right-hand side.

    The multi-RHS entry point loops columns so that its results are
    bit-identical to a sequence of single solves — the reference the
    batched backend is tested against.
    """

    def __init__(
        self,
        matrix: sp.csc_matrix,
        lu: spla.SuperLU,
        stats: SolveStats | None = None,
    ):
        super().__init__(matrix, stats)
        self._lu = lu

    @classmethod
    def build(
        cls,
        matrix: sp.csc_matrix,
        factor_options,
        config: SolverConfig | None = None,
        stats: SolveStats | None = None,
        **_ignored,
    ) -> "DirectSolver":
        stats = stats or SolveStats()
        lu = factor_options.splu(matrix)
        stats.add(factorizations=1)
        return cls(matrix, lu, stats)

    # ------------------------------------------------------------------ #
    def solve_many(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        self._check_trans(trans)
        rhs = np.asarray(rhs, dtype=np.complex128)
        if rhs.ndim != 2:
            raise ValueError(f"solve_many expects an (n, k) block, got {rhs.shape}")
        out = np.empty_like(rhs)
        with span("solver.solve", "solver", backend="direct",
                  columns=rhs.shape[1]):
            for j in range(rhs.shape[1]):
                out[:, j] = self._lu.solve(rhs[:, j], trans=trans)
        self.stats.add(solves=1, rhs_columns=rhs.shape[1])
        return out

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        self._check_trans(trans)
        self.stats.add(solves=1, rhs_columns=1)
        return self._lu.solve(np.asarray(rhs, dtype=np.complex128), trans=trans)

    @property
    def lu(self) -> spla.SuperLU:
        return self._lu


@register_solver("batched")
class BatchedDirectSolver(DirectSolver):
    """Direct backend whose multi-RHS solve is a single SuperLU call.

    SuperLU's ``gstrs`` processes a matrix RHS column by column through
    the same triangular sweeps, so the results match the per-column
    path; only the Python-level and setup overhead is amortized.  The
    class advertises ``batches_rhs`` so upper layers (the devices'
    multi-direction port-power op) aggregate their right-hand sides.
    """

    batches_rhs = True

    def solve_many(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        self._check_trans(trans)
        rhs = np.asarray(rhs, dtype=np.complex128)
        if rhs.ndim != 2:
            raise ValueError(f"solve_many expects an (n, k) block, got {rhs.shape}")
        self.stats.add(solves=1, rhs_columns=rhs.shape[1], batched_calls=1)
        with span("solver.solve", "solver", backend="batched",
                  columns=rhs.shape[1]):
            out = self._lu.solve(rhs, trans=trans)
        return np.ascontiguousarray(out)
