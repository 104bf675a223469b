"""Surface compatibility equations in curvature-line coordinates.

The data are two second-form densities (psi1, psi2), two metric roots
(tpsi1, tpsi2), and the rotation coefficients p, q defined by

    p = tpsi1_x / tpsi2        q = tpsi2_t / tpsi1

The compatibility system, the induced fundamental forms, the curvature
formulas, and the change of variables to curvature/torsion frame data all
live here.

Change-of-variables convention: the frame fields and the surface data are
identified by

    k = q        tau = psi2        omega2 = -psi1        omega3 = -p

Substituting these into the frame compatibility residuals reproduces the
surface residuals exactly (r1_frame = r3_gc, r2_frame = r2_gc,
r3_frame = -r1_gc), which is checked in the test suite on random consistent
data and on the sphere oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetricError, MapInconsistentError, ShapeError
from .frames import CTFields
from .numgrid import Grid2D, diff_t, diff_x


@dataclass
class GCData:
    """Surface data on a Grid2D. Metric roots must be strictly positive."""

    psi1: np.ndarray
    psi2: np.ndarray
    tpsi1: np.ndarray
    tpsi2: np.ndarray
    p: np.ndarray
    q: np.ndarray
    grid: Grid2D

    def __post_init__(self):
        shape = self.grid.shape
        for name in ("psi1", "psi2", "tpsi1", "tpsi2", "p", "q"):
            a = np.asarray(getattr(self, name), dtype=float)
            if a.shape != shape:
                raise ShapeError(f"{name} must have shape {shape}, got {a.shape}")
            if not np.all(np.isfinite(a)):
                raise ShapeError(f"{name} contains non-finite values")
            setattr(self, name, a)
        for name in ("tpsi1", "tpsi2"):
            a = getattr(self, name)
            if np.any(a <= 0):
                raise DegenerateMetricError(
                    f"{name} must be strictly positive (min {float(a.min()):.6e})")


@dataclass
class GCAnalytic:
    """Closed-form derivatives of GCData fields, for oracle-grade residuals.

    Numerical differentiation caps residual accuracy at O(h^2); fixtures with
    known formulas provide these arrays so residual checks can reach
    round-off instead.
    """

    psi1_x: np.ndarray
    psi2_t: np.ndarray
    p_x: np.ndarray
    q_t: np.ndarray
    tpsi1_x: np.ndarray
    tpsi2_t: np.ndarray


def gc_residual(d: GCData, derivs: GCAnalytic | None = None):
    """Residuals of the surface compatibility system.

    r1 = psi1_x - p*psi2
    r2 = psi2_t - q*psi1
    r3 = q_t + p_x + psi1*psi2
    """
    if derivs is None:
        psi1_x = diff_x(d.psi1, d.grid)
        psi2_t = diff_t(d.psi2, d.grid)
        p_x = diff_x(d.p, d.grid)
        q_t = diff_t(d.q, d.grid)
    else:
        psi1_x, psi2_t = derivs.psi1_x, derivs.psi2_t
        p_x, q_t = derivs.p_x, derivs.q_t
    r1 = psi1_x - d.p * d.psi2
    r2 = psi2_t - d.q * d.psi1
    r3 = q_t + p_x + d.psi1 * d.psi2
    return r1, r2, r3


def metric_residual(d: GCData, derivs: GCAnalytic | None = None):
    """Residuals of the defining relations of p and q.

    r1 = tpsi1_x - p*tpsi2
    r2 = tpsi2_t - q*tpsi1
    """
    if derivs is None:
        tpsi1_x = diff_x(d.tpsi1, d.grid)
        tpsi2_t = diff_t(d.tpsi2, d.grid)
    else:
        tpsi1_x, tpsi2_t = derivs.tpsi1_x, derivs.tpsi2_t
    r1 = tpsi1_x - d.p * d.tpsi2
    r2 = tpsi2_t - d.q * d.tpsi1
    return r1, r2


@dataclass
class FundamentalForms:
    """First (E, F, G) and second (L, M, N) form coefficients on a Grid2D.

    Curvature-line data have F = M = 0.  NaN entries are allowed: mesh_forms
    marks degenerate tangent planes with them.
    """

    E: np.ndarray
    F: np.ndarray
    G: np.ndarray
    L: np.ndarray
    M: np.ndarray
    N: np.ndarray
    grid: Grid2D

    def __post_init__(self):
        shape = self.grid.shape
        for name in ("E", "F", "G", "L", "M", "N"):
            a = np.asarray(getattr(self, name), dtype=float)
            if a.shape != shape:
                raise ShapeError(f"{name} must have shape {shape}, got {a.shape}")
            setattr(self, name, a)


def fundamental_forms(d: GCData) -> FundamentalForms:
    """Form pair of surface data in curvature-line coordinates (F = M = 0)."""
    return FundamentalForms(
        E=d.tpsi1 ** 2, F=np.zeros_like(d.psi1), G=d.tpsi2 ** 2,
        L=d.tpsi1 * d.psi1, M=np.zeros_like(d.psi1), N=d.tpsi2 * d.psi2, grid=d.grid)


def curvatures(f: FundamentalForms):
    """Gaussian and mean curvature fields (K, H).

    K = (LN - M^2) / (EG - F^2)
    H = (EN - 2FM + GL) / (2 (EG - F^2))
    """
    den = f.E * f.G - f.F ** 2
    if np.any(den <= 0):
        raise DegenerateMetricError(
            f"metric determinant must be positive (min {float(den.min()):.6e})")
    return _gauss_mean(f, den)


def _gauss_mean(f: FundamentalForms, den):
    """(K, H) from the forms and den = EG - F^2, unchecked."""
    K = (f.L * f.N - f.M ** 2) / den
    H = (f.E * f.N - 2 * f.F * f.M + f.G * f.L) / (2 * den)
    return K, H


def map_gc_to_frame(d: GCData) -> CTFields:
    """Curvature/torsion frame data equivalent to the surface data.

    Uses the stored rotation coefficients (k = q, omega3 = -p) rather than
    re-differentiating the metric roots, so that the two maps are exact
    mutual inverses.
    """
    return CTFields(k=d.q.copy(), tau=d.psi2.copy(),
                    omega2=-d.psi1, omega3=-d.p, grid=d.grid)


def map_frame_to_gc(ct: CTFields, tpsi1, tpsi2, tol: float = 1e-6,
                    metric_derivs=None) -> GCData:
    """Surface data from frame data plus user-chosen metric roots.

    The frame fields determine psi1, psi2, p, q; the metric roots are free
    inputs constrained by k = tpsi2_t/tpsi1 and omega3 = -tpsi1_x/tpsi2.
    Those two relations are checked (relative max norm) and
    MapInconsistentError is raised above tol.

    metric_derivs, when given, is a pair (tpsi1_x, tpsi2_t) of closed-form
    derivative arrays; the default differentiates numerically, whose O(h^2)
    truncation then needs an h-aware tol.
    """
    g2 = ct.grid
    tpsi1 = np.asarray(tpsi1, dtype=float)
    tpsi2 = np.asarray(tpsi2, dtype=float)
    for name, a in (("tpsi1", tpsi1), ("tpsi2", tpsi2)):
        if a.shape != g2.shape:
            raise ShapeError(f"{name} must have shape {g2.shape}, got {a.shape}")
        if np.any(a <= 0):
            raise DegenerateMetricError(f"{name} must be strictly positive")
    if metric_derivs is None:
        tpsi1_x = diff_x(tpsi1, g2)
        tpsi2_t = diff_t(tpsi2, g2)
    else:
        tpsi1_x, tpsi2_t = (np.asarray(a, dtype=float) for a in metric_derivs)

    q_implied = tpsi2_t / tpsi1
    p_implied = tpsi1_x / tpsi2
    dev_k = np.max(np.abs(ct.k - q_implied))
    dev_w3 = np.max(np.abs(ct.omega3 + p_implied))
    scale_k = max(np.max(np.abs(ct.k)), np.max(np.abs(q_implied)), 1e-300)
    scale_w3 = max(np.max(np.abs(ct.omega3)), np.max(np.abs(p_implied)), 1e-300)
    deviation = max(dev_k / scale_k, dev_w3 / scale_w3)
    if deviation > tol:
        raise MapInconsistentError(
            f"frame fields and metric roots disagree: relative deviation "
            f"{deviation:.6e} > tol {tol:.1e} "
            f"(|k - tpsi2_t/tpsi1| = {dev_k:.6e}, "
            f"|omega3 + tpsi1_x/tpsi2| = {dev_w3:.6e})", deviation=deviation)
    return GCData(psi1=-ct.omega2, psi2=ct.tau.copy(),
                  tpsi1=tpsi1.copy(), tpsi2=tpsi2.copy(),
                  p=-ct.omega3, q=ct.k.copy(), grid=g2)
