"""Periodic conformally flat patch: grid, differentiation, frames.

The patch is the torus [0,1)^2 sampled on an M x M grid with metric
g = lambda^4 delta.  Orthonormal frames are f_a = lambda^{-2} d/dx^a; the
lifted spin connection has frame components

    <f_k, omega> = lambda^{-4} C[k, l] d/dx^l (lambda^2),   C = [[0,1],[-1,0]],

obtained from the Cartan structure equations for the coframe lambda^2 dx^a.
Every grid field is differentiated through one spectral gradient,
:meth:`ReducedPatch.grad`: exact for trigonometric polynomials below the
Nyquist wavenumber, for every conformal factor; the Nyquist mode itself
differentiates to zero.
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

    # -- differentiation -------------------------------------------------

    def grad(self, blocks: np.ndarray) -> np.ndarray:
        """(d/dx^1, d/dx^2) of grid data blocks[S, M, M, ...], stacked on a new axis 3.

        One forward fft2 over the grid axes (1, 2); each derivative is
        inverted in its own output slice by two in-place 1-D passes, in the
        order of ``np.fft.ifft2`` (last grid axis first), so the values equal
        ``ifft2`` bit for bit without a full-size temporary.  At even M the
        Nyquist wavenumber -M/2 differentiates to 0, as the derivative of the
        real trigonometric interpolant does, so real data has a real gradient.
        Each block is transformed alone: a packed field is differentiated
        on its live blocks by ``field.map(patch.grad)``.
        """
        M = self.M
        ft = np.fft.fft2(np.asarray(blocks, dtype=complex), axes=(1, 2))
        k = 2j * np.pi * np.fft.fftfreq(M, d=1.0 / M)
        if M % 2 == 0:
            k[M // 2] = 0.0
        tail = (1,) * (ft.ndim - 3)
        out = np.empty(ft.shape[:3] + (2,) + ft.shape[3:], dtype=complex)
        for a, shape in enumerate(((M, 1), (1, M))):
            d = np.multiply(ft, k.reshape(shape + tail), out=out[:, :, :, a])
            np.fft.ifft(d, axis=2, out=d)
            np.fft.ifft(d, axis=1, out=d)
        return out

    # -- geometry ----------------------------------------------------------

    def frame_factor(self) -> np.ndarray:
        """lambda^{-2}: converts coordinate derivatives to frame derivatives."""
        return self.lam ** -2

    def spin_connection(self) -> np.ndarray:
        """Frame components omega_k = <f_k, omega^LC>, shape (M, M, 2).

        Orientation: the sign is the one for which the twisted Dirac
        operator built on this patch is formally anti-self-adjoint with
        respect to the positive spinor pairing and the volume lambda^4.
        """
        # the spectral derivative of a constant is not exactly zero at every M
        if self.uniform_gauge:
            return np.zeros((self.M, self.M, 2))
        u = self.lam ** 2
        du = self.grad(u[None])[0].real
        out = -IFRAME_MAP.apply(du, -1)
        return out / u[:, :, None] ** 2
