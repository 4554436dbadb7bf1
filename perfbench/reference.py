"""Independent references the benchmark checks the program's outputs against.

Nothing here calls solcusp.  The warping function, the curvature frame form,
the condition margins, the cusp integral and the lattice stretch are coded
again from their definitions:

* the transition step is written as the quotient phi(u) / (phi(u) + phi(1-u))
  with phi(u) = exp(-1/u), differentiated by the quotient rule (the program
  uses a logistic in 1/u - 1/(1-u) instead);
* the curvature form is the 6x6 matrix over the orthonormal 2-form basis
  (xy, xz, xt, yz, yt, zt) assembled from the eight tabulated Riemann
  components, whose extreme eigenvalues are the extreme sectional curvatures;
* the cusp integral uses closed forms outside the transition window and
  scipy's QUADPACK inside it.
"""

from __future__ import annotations

import numpy as np

EXPECTED_INDEX_MAP = {1: "x", 2: "y", 3: "z", 4: "t"}
EXPECTED_SIGN = 1


def _phi(u):
    """exp(-1/u) for u > 0, 0 otherwise, with its first two derivatives."""
    u = np.asarray(u, dtype=float)
    pos = u > 0.0
    safe = np.where(pos, u, 1.0)
    p = np.where(pos, np.exp(-1.0 / safe), 0.0)
    p1 = p / safe**2
    p2 = p * (1.0 / safe**4 - 2.0 / safe**3)
    return p, p1, p2


def step(u):
    """C-infinity step s(u) = phi(u) / (phi(u) + phi(1 - u)) and s', s''."""
    n, n1, n2 = _phi(u)
    q, q1, q2 = _phi(1.0 - np.asarray(u, dtype=float))
    q1 = -q1  # chain rule for phi(1 - u)
    d, d1, d2 = n + q, n1 + q1, n2 + q2
    s = n / d
    s1 = (n1 * d - n * d1) / d**2
    s2 = (n2 * d - n * d2) / d**2 - 2.0 * d1 * (n1 * d - n * d1) / d**3
    return s, s1, s2


def warp_f(t, window=None, shift=None):
    """f, f', f'' of e^-t + s((t - lo)/(hi - lo)).

    ``window=(lo, hi)`` gives the interpolated warp; without a window,
    ``shift`` 0 or 1 gives e^-t or 1 + e^-t.
    """
    t = np.asarray(t, dtype=float)
    e = np.exp(-t)
    if window is None:
        return e + shift, -e, e
    lo, hi = window
    width = hi - lo
    s, s1, s2 = step((t - lo) / width)
    return e + s, -e + s1 / width, e + s2 / width**2


def frame_form(f, fp, fpp):
    """(n, 6, 6) curvature form over the orthonormal 2-form basis.

    Entries are the eight tabulated components R_1212 ... R_2432 divided by
    the frame norms; the form is the same at every z.
    """
    f, fp, fpp = (np.atleast_1d(np.asarray(a, dtype=float)) for a in (f, fp, fpp))
    Q = np.zeros((f.size, 6, 6))
    mixed = (1.0 + fp / f) / f
    Q[:, 0, 0] = (1.0 - f * f) / (f * f)
    Q[:, 1, 1] = Q[:, 3, 3] = (f * fp - 1.0) / (f * f)
    Q[:, 2, 2] = Q[:, 4, 4] = -1.0
    Q[:, 5, 5] = -fpp / f
    Q[:, 1, 2] = Q[:, 2, 1] = -mixed
    Q[:, 3, 4] = Q[:, 4, 3] = mixed
    return Q


def curvature_extremes(f, fp, fpp):
    """(k_min, k_max) arrays: the extreme eigenvalues of the frame form."""
    eig = np.linalg.eigvalsh(frame_form(f, fp, fpp))
    return eig[:, 0], eig[:, -1]


def margins(f, fp, fpp):
    """(n, 4) condition margins a = f - 1, b = -f', c = f'', d."""
    d = 1.0 - f * fp - (1.0 + fp / f) ** 2
    return np.stack([f - 1.0, -fp, fpp, d], axis=1)


def cusp_integral(window, t0):
    """Integral of f e^-2t over [t0, inf) for the interpolated warp.

    e^-3t integrates in closed form; the step part is 0 below the window,
    1 above it (closed form again) and goes to QUADPACK inside it.
    """
    from scipy import integrate  # loaded here so that set-up time excludes it

    lo, hi = window
    total = np.exp(-3.0 * t0) / 3.0
    total += np.exp(-2.0 * max(t0, hi)) / 2.0
    a = max(t0, lo)
    if a < hi:
        inside, _ = integrate.quad(
            lambda t: float(step((t - lo) / (hi - lo))[0]) * np.exp(-2.0 * t),
            a, hi, epsabs=0.0, epsrel=1e-13, limit=200,
        )
        total += inside
    return float(total)


def stretch(matrix):
    """log of the expanding eigenvalue modulus of an SL(2, Z) matrix."""
    a, b, c, d = matrix
    eig = np.linalg.eigvals(np.array([[a, b], [c, d]], dtype=float))
    return float(np.log(np.max(np.abs(eig))))
