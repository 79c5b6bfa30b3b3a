"""Periodic conformally flat patch: grid, differentiation, frames.

The patch is the torus [0,1)^2 sampled on an M x M grid with metric
g = lambda^4 delta.  Orthonormal frames are f_a = lambda^{-2} d/dx^a; the
lifted spin connection has frame components

    <f_k, omega> = -lambda^{-4} C[k, l] d/dx^l (lambda^2),   C = [[0,1],[-1,0]],

obtained from the Cartan structure equations for the coframe lambda^2 dx^a,
with the orientation for which the twisted Dirac operator is formally
anti-self-adjoint in the positive spinor pairing and the volume lambda^4.
Grid data carry the two grid axes last: x^1 and x^2 index the trailing
M x M slab of every array, so each grid kernel runs on contiguous slabs.
Every grid field is differentiated through one spectral gradient,
:meth:`ReducedPatch.grad`: exact for trigonometric polynomials below the
Nyquist wavenumber, for every conformal factor; the Nyquist mode itself
differentiates to zero.  The geometry is fixed at construction: the frame
factor ``frame`` = lambda^{-2} and the spin connection ``omega``, shape
(2, M, M), or None where it is zero at every grid point.
"""

from __future__ import annotations

import numpy as np

from .spin import IFRAME, contract


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
        if not np.isfinite(lam_arr).all():
            raise PatchError("conformal factor must be finite")
        if lam_arr.min() <= 0:
            raise PatchError("conformal factor must be bounded away from zero")
        self.lam = lam_arr
        self.frame = lam_arr ** -2  # converts coordinate derivatives to frame derivatives
        self.omega = None  # zero on a uniform lambda, whose spectral derivative need not be exactly 0
        if np.any(lam_arr != lam_arr.flat[0]):
            u = lam_arr ** 2
            omega = -contract(self.grad(u[None])[0].real, IFRAME, 0) / u ** 2
            self.omega = omega if omega.any() else None

    # -- differentiation -------------------------------------------------

    def grad(self, blocks: np.ndarray) -> np.ndarray:
        """(d/dx^1, d/dx^2) of grid data blocks[S, ..., M, M], stacked on a new axis 1.

        One forward fft2 over the grid axes (-2, -1); each derivative's
        spectrum is written into its own output slice, and both are inverted
        together by two in-place 1-D passes, in the order of ``np.fft.ifft2``
        (last grid axis first), so the values equal ``ifft2`` bit for bit
        without a full-size temporary.  At even M the
        Nyquist wavenumber -M/2 differentiates to 0, as the derivative of the
        real trigonometric interpolant does, so real data has a real gradient.
        Each block is transformed alone: a packed field is differentiated
        on its live blocks by ``field.map(patch.grad)``.
        """
        M = self.M
        ft = np.fft.fft2(np.asarray(blocks, dtype=complex))
        k = 2j * np.pi * np.fft.fftfreq(M, d=1.0 / M)
        if M % 2 == 0:
            k[M // 2] = 0.0
        out = np.empty(ft.shape[:1] + (2,) + ft.shape[1:], dtype=complex)
        np.multiply(ft, k[:, None], out=out[:, 0])
        np.multiply(ft, k, out=out[:, 1])
        np.fft.ifft(out, axis=-1, out=out)
        return np.fft.ifft(out, axis=-2, out=out)
