"""Wavelength-sweep (spectral) evaluation of finished designs.

The paper optimizes at a single central wavelength ``lambda_c``; real
devices are qualified over a band.  This module re-simulates a finished
pattern across a wavelength range — an extension hook the paper's
formulation (``F(eps | lambda_c)``) naturally invites.

Re-simulation at a different wavelength rebuilds the device's port
problems at the new ``omega`` (mode profiles are wavelength-dependent), so
sweeps are evaluation-only: nothing here participates in gradients.

Per-wavelength device clones come from
:meth:`~repro.devices.base.PhotonicDevice.at_wavelength`, which memoizes
them on the parent device and routes their solves through the shared
:class:`~repro.fdfd.workspace.SimulationWorkspace`: a repeated sweep (a
second pattern, a finer wavelength grid revisiting old points) hits the
cached calibration runs, slab modes and operator assemblies instead of
re-solving cold at every wavelength.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.devices.base import PhotonicDevice

__all__ = ["SpectrumResult", "wavelength_sweep"]


@dataclass
class SpectrumResult:
    """Per-wavelength FoM and port powers of one design."""

    wavelengths_um: np.ndarray
    foms: np.ndarray
    powers: list[dict[str, dict[str, float]]]

    @property
    def center_index(self) -> int:
        return int(len(self.wavelengths_um) // 2)

    def bandwidth_um(self, tolerance: float = 0.1) -> float:
        """Contiguous band around the centre where the FoM stays within
        ``tolerance`` (relative) of its centre value.

        For lower-is-better FoMs pass the device's flag through
        :func:`wavelength_sweep`; the result already accounts for it.
        """
        centre = self.foms[self.center_index]
        if centre == 0:
            return 0.0
        ok = np.abs(self.foms - centre) <= tolerance * np.abs(centre)
        lo = hi = self.center_index
        while lo > 0 and ok[lo - 1]:
            lo -= 1
        while hi < len(ok) - 1 and ok[hi + 1]:
            hi += 1
        return float(
            self.wavelengths_um[hi] - self.wavelengths_um[lo]
        )


def wavelength_sweep(
    device: PhotonicDevice,
    pattern: np.ndarray,
    wavelengths_um: np.ndarray | list[float],
    alpha_bg: float = 1.0,
) -> SpectrumResult:
    """Evaluate a finished design pattern across wavelengths.

    Parameters
    ----------
    device:
        The benchmark device (its *centre* wavelength is ignored here).
    pattern:
        Design-region pattern (binary or scaled occupancy).
    wavelengths_um:
        Wavelength samples; should bracket the design wavelength.
    alpha_bg:
        Temperature occupancy scale applied uniformly.
    """
    wavelengths = np.asarray(list(wavelengths_um), dtype=np.float64)
    if wavelengths.ndim != 1 or wavelengths.size == 0:
        raise ValueError("wavelengths_um must be a non-empty 1-D sequence")
    if np.any(wavelengths <= 0):
        raise ValueError("wavelengths must be positive")
    pattern = np.asarray(pattern, dtype=np.float64)

    foms = np.zeros(wavelengths.size)
    all_powers: list[dict[str, dict[str, float]]] = []
    for i, lam in enumerate(wavelengths):
        clone = device.at_wavelength(lam)
        powers = clone.port_powers_array_all(pattern, alpha_bg)
        foms[i] = clone.fom(powers)
        all_powers.append(powers)
    return SpectrumResult(
        wavelengths_um=wavelengths, foms=foms, powers=all_powers
    )
