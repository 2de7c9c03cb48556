"""Assembly and solution of the 2-D Helmholtz system.

The discretized operator is

    A = Dxb Dxf + Dyb Dyf + omega^2 diag(eps_r)

(with the PML stretch folded into the difference operators), and the source
vector for a current sheet ``Jz`` is ``b = -i omega Jz``.  One LU
factorization serves both the forward solve and the transposed (adjoint)
solve, which is the key runtime trick of adjoint inverse design.

Repeated solves on the same window go through a
:class:`~repro.fdfd.workspace.SimulationWorkspace` (the process-shared
one by default): the derivative operators and Laplacian are built once
per ``(grid, omega, pml)``, each corner's system matrix is assembled by
a single diagonal update, and identical permittivities share one LU.
Pass ``workspace=None`` to force the cold, cache-free path (it produces
bit-identical matrices and fields — the caches are content-addressed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.fdfd.grid import SimGrid
from repro.fdfd.linalg import DirectSolver, SolveStats
from repro.fdfd.operators import build_derivative_ops, laplacian_from_ops
from repro.fdfd.pml import PMLSpec
from repro.fdfd.workspace import (
    FactorOptions,
    SimulationWorkspace,
    default_factor_options,
    shared_workspace,
)

__all__ = ["HelmholtzSolver", "FdfdFields"]


@dataclass
class FdfdFields:
    """Field solution bundle on the simulation grid.

    Attributes
    ----------
    ez:
        Out-of-plane electric field, shape ``(Nx, Ny)`` complex.
    hx, hy:
        In-plane magnetic fields derived from ``ez`` (same shape).
    """

    ez: np.ndarray
    hx: np.ndarray
    hy: np.ndarray


class HelmholtzSolver:
    """Factorized FDFD operator for one permittivity map.

    Parameters
    ----------
    grid:
        Simulation window geometry.
    eps_r:
        Relative permittivity, shape ``grid.shape``, real (lossless).
    omega:
        Angular frequency in natural units (``2 pi / lambda_um``).
    pml:
        PML ramp specification.
    workspace:
        Cache provider.  ``"shared"`` (default) uses the process-wide
        :func:`~repro.fdfd.workspace.shared_workspace`; pass a private
        :class:`~repro.fdfd.workspace.SimulationWorkspace` for isolated
        caching, or ``None`` to rebuild everything per solver (the seed
        behaviour, used by cold-path benchmarks and identity tests).
    factor_options:
        SuperLU configuration for the *cold* path; a workspace applies
        its own ``factor_options`` so that cached factorizations are
        consistent.

    Notes
    -----
    Factorization cost dominates (~O(N^1.5) for 2-D grids with a good
    ordering); subsequent solves are cheap triangular sweeps.  The adjoint
    engine exploits ``solve_transposed`` so a gradient costs one extra
    sweep, not one extra factorization.
    """

    def __init__(
        self,
        grid: SimGrid,
        eps_r: np.ndarray,
        omega: float,
        pml: PMLSpec | None = None,
        workspace: SimulationWorkspace | None | str = "shared",
        factor_options: FactorOptions | None = None,
    ):
        eps_r = np.asarray(eps_r, dtype=np.float64)
        if eps_r.shape != grid.shape:
            raise ValueError(
                f"eps_r shape {eps_r.shape} does not match grid {grid.shape}"
            )
        if omega <= 0:
            raise ValueError(f"omega must be positive, got {omega}")
        self.grid = grid
        self.omega = float(omega)
        self.eps_r = eps_r
        if workspace == "shared":
            workspace = shared_workspace()

        if workspace is not None:
            assembly = workspace.assembly(grid, self.omega, pml)
            self._dxf = assembly.ops["dxf"]
            self._dyf = assembly.ops["dyf"]
            self.linsolver = workspace.linear_solver(assembly, eps_r)
            self.system_matrix = self.linsolver.matrix
        else:
            ops = build_derivative_ops(grid, self.omega, pml)
            laplacian = laplacian_from_ops(ops)
            self._dxf = ops["dxf"]
            self._dyf = ops["dyf"]
            self.system_matrix = (
                laplacian
                + sp.diags(self.omega**2 * eps_r.ravel(), format="csr")
            ).tocsc()
            options = factor_options or default_factor_options()
            self.linsolver = DirectSolver(
                self.system_matrix, options.splu(self.system_matrix), SolveStats()
            )

    @property
    def _lu(self):
        """Underlying SuperLU factors (LU-backed backends only)."""
        return self.linsolver.lu

    # ------------------------------------------------------------------ #
    def solve(self, source_jz: np.ndarray) -> FdfdFields:
        """Solve for the fields of a current distribution ``Jz``.

        Parameters
        ----------
        source_jz:
            Complex current sheet, shape ``grid.shape``.

        Returns
        -------
        FdfdFields
            ``ez`` plus derived ``hx = d_y ez / (i omega)`` and
            ``hy = -d_x ez / (i omega)``.
        """
        source_jz = np.asarray(source_jz)
        if source_jz.shape != self.grid.shape:
            raise ValueError(
                f"source shape {source_jz.shape} != grid {self.grid.shape}"
            )
        b = (-1j * self.omega) * source_jz.ravel().astype(np.complex128)
        ez_flat = self.linsolver.solve(b)
        return self.fields_from_ez(ez_flat)

    def fields_from_ez(self, ez_flat: np.ndarray) -> FdfdFields:
        """Derive the field bundle from a flattened ``Ez`` solution.

        Split out of :meth:`solve` so that multi-RHS (batched) solves can
        reconstruct per-column field bundles.
        """
        ez = ez_flat.reshape(self.grid.shape)
        # The SC-PML stretch ``s = 1 - i sigma / omega`` absorbs outgoing
        # waves under the e^{+i omega t} engineering time convention, whose
        # curl relations give Hx = -d_y Ez / (i omega mu), Hy = +d_x Ez /
        # (i omega mu) in natural units.
        hx = -(self._dyf @ ez_flat).reshape(self.grid.shape) / (1j * self.omega)
        hy = (self._dxf @ ez_flat).reshape(self.grid.shape) / (1j * self.omega)
        return FdfdFields(ez=ez, hx=hx, hy=hy)

    def solve_raw(self, rhs_flat: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` for an arbitrary flattened right-hand side."""
        return self.linsolver.solve(np.asarray(rhs_flat, dtype=np.complex128))

    def solve_many(self, rhs_block: np.ndarray, trans: str = "N") -> np.ndarray:
        """Solve for an ``(n, k)`` block of right-hand sides at once.

        With the ``batched`` backend this is a single matrix-RHS
        triangular sweep; other backends process columns individually.
        """
        return self.linsolver.solve_many(
            np.asarray(rhs_block, dtype=np.complex128), trans=trans
        )

    def solve_transposed(self, rhs_flat: np.ndarray) -> np.ndarray:
        """Solve ``A^T x = rhs`` — the adjoint system.

        LU-backed backends reuse the forward factors (``L U = P A Q``
        implies ``A^T = Q U^T L^T P``); the Krylov backend iterates on
        ``A^T`` preconditioned by the transposed anchor LU.  Either way,
        no second factorization is needed.
        """
        return self.linsolver.solve(
            np.asarray(rhs_flat, dtype=np.complex128), trans="T"
        )
