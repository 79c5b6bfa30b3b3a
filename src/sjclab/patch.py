"""Periodic conformally flat patch: grid, differentiation, frames.

The patch is the torus [0,1)^2 sampled on an M x M grid with metric
g = lambda^4 delta.  Orthonormal frames are f_a = lambda^{-2} d/dx^a; the
lifted spin connection has frame components

    <f_k, omega> = lambda^{-4} C[k, l] d/dx^l (lambda^2),   C = [[0,1],[-1,0]],

obtained from the Cartan structure equations for the coframe lambda^2 dx^a.
Differentiation is Fourier-spectral for every conformal factor: exact for
trigonometric polynomials below the Nyquist wavenumber.
"""

from __future__ import annotations

import numpy as np

from .spin import IFRAME_MAP


class PatchError(ValueError):
    pass


class ReducedPatch:
    def __init__(self, M: int, lam: np.ndarray | float | None = None):
        if M < 4:
            raise PatchError("grid resolution must be at least 4")
        self.M = M
        xs = np.arange(M) / M
        self.x1, self.x2 = np.meshgrid(xs, xs, indexing="ij")
        if lam is None:
            lam = 1.0
        if np.isscalar(lam):
            lam_arr = np.full((M, M), float(lam))
        else:
            lam_arr = np.asarray(lam, dtype=float)
            if lam_arr.shape != (M, M):
                raise PatchError(f"lambda grid must be {M}x{M}")
        if lam_arr.min() <= 0:
            raise PatchError("conformal factor must be bounded away from zero")
        self.lam = lam_arr
        self.uniform_gauge = bool(np.all(lam_arr == lam_arr.flat[0]))
        self.flat_gauge = self.uniform_gauge and lam_arr.flat[0] == 1.0

    # -- differentiation -------------------------------------------------

    def diff(self, field: np.ndarray, axis: int, grid_axes: tuple[int, int] = (-2, -1)) -> np.ndarray:
        """d/dx^axis (axis is 1 or 2) applied to grid data along grid_axes."""
        if axis not in (1, 2):
            raise PatchError("axis must be 1 or 2")
        data = np.asarray(field, dtype=complex)
        ft = np.fft.fft2(data, axes=grid_axes)
        k = 2j * np.pi * np.fft.fftfreq(self.M, d=1.0 / self.M)
        shape = [1] * data.ndim
        shape[grid_axes[axis - 1]] = self.M
        return np.fft.ifft2(ft * k.reshape(shape), axes=grid_axes)

    # -- geometry ----------------------------------------------------------

    def frame_factor(self) -> np.ndarray:
        """lambda^{-2}: converts coordinate derivatives to frame derivatives."""
        return self.lam ** -2

    def spin_connection(self) -> np.ndarray:
        """Frame components omega_k = <f_k, omega^LC>, shape (2, M, M).

        Orientation: the sign is the one for which the twisted Dirac
        operator built on this patch is formally anti-self-adjoint with
        respect to the positive spinor pairing and the volume lambda^4.
        """
        # the spectral derivative of a constant is not exactly zero at every M
        if self.uniform_gauge:
            return np.zeros((2, self.M, self.M))
        u = self.lam ** 2
        du = np.stack([self.diff(u, 1).real, self.diff(u, 2).real])
        out = -IFRAME_MAP.apply(du, 0)
        return out / u[None, :, :] ** 2

    def dvol(self) -> np.ndarray:
        """Volume weight per grid cell: lambda^4 / M^2."""
        return self.lam ** 4 / self.M**2

    def descriptor(self) -> dict:
        return {"M": self.M, "flat_gauge": self.flat_gauge}
