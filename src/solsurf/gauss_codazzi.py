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
from .numgrid import Grid2D, GridFields, Layout, as_shape, diff_t, diff_x


@dataclass
class GCData(GridFields):
    """Surface data on a Grid2D. Metric roots must be strictly positive."""

    psi1: np.ndarray
    psi2: np.ndarray
    tpsi1: np.ndarray
    tpsi2: np.ndarray
    p: np.ndarray
    q: np.ndarray
    grid: Grid2D

    LAYOUT = Layout(dict.fromkeys(("psi1", "psi2", "tpsi1", "tpsi2", "p", "q"), ()),
                    nonfinite=ShapeError)

    def __post_init__(self):
        super().__post_init__()
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
    round-off instead.  Each array must have the shape of the data's grid.
    """

    psi1_x: np.ndarray
    psi2_t: np.ndarray
    p_x: np.ndarray
    q_t: np.ndarray
    tpsi1_x: np.ndarray
    tpsi2_t: np.ndarray


# derivative name -> (GCData field, operator)
_DERIVATIVES = {"psi1_x": ("psi1", diff_x), "psi2_t": ("psi2", diff_t),
                "p_x": ("p", diff_x), "q_t": ("q", diff_t),
                "tpsi1_x": ("tpsi1", diff_x), "tpsi2_t": ("tpsi2", diff_t)}


def _derivatives(d: GCData, names, given=None) -> list:
    """d's named derivatives: the closed-form arrays given (a GCAnalytic or a
    sequence in the order of names), each checked against d's grid, else numerical."""
    if given is None:
        return [op(getattr(d, field), d.grid) for field, op in map(_DERIVATIVES.get, names)]
    if isinstance(given, GCAnalytic):
        given = [getattr(given, n) for n in names]
    return [as_shape(a, d.grid.shape, n) for a, n in zip(given, names, strict=True)]


def gc_residual(d: GCData, derivs: GCAnalytic | None = None):
    """Residuals of the surface compatibility system.

    r1 = psi1_x - p*psi2
    r2 = psi2_t - q*psi1
    r3 = q_t + p_x + psi1*psi2
    """
    psi1_x, psi2_t, p_x, q_t = _derivatives(d, ("psi1_x", "psi2_t", "p_x", "q_t"), derivs)
    r1 = psi1_x - d.p * d.psi2
    r2 = psi2_t - d.q * d.psi1
    r3 = q_t + p_x + d.psi1 * d.psi2
    return r1, r2, r3


def metric_residual(d: GCData, derivs: GCAnalytic | None = None):
    """Residuals of the defining relations of p and q.

    r1 = tpsi1_x - p*tpsi2
    r2 = tpsi2_t - q*tpsi1
    """
    tpsi1_x, tpsi2_t = _derivatives(d, ("tpsi1_x", "tpsi2_t"), derivs)
    r1 = tpsi1_x - d.p * d.tpsi2
    r2 = tpsi2_t - d.q * d.tpsi1
    return r1, r2


@dataclass
class FundamentalForms(GridFields):
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

    LAYOUT = Layout(dict.fromkeys(("E", "F", "G", "L", "M", "N"), ()))


def fundamental_forms(d: GCData) -> FundamentalForms:
    """Form pair of surface data in curvature-line coordinates (F = M = 0)."""
    return FundamentalForms(
        E=d.tpsi1 ** 2, F=np.zeros_like(d.psi1), G=d.tpsi2 ** 2,
        L=d.tpsi1 * d.psi1, M=np.zeros_like(d.psi1), N=d.tpsi2 * d.psi2, grid=d.grid)


def curvatures(f: FundamentalForms):
    """Gaussian and mean curvature fields (K, H).

    K = (LN - M^2) / (EG - F^2)
    H = (EN - 2FM + GL) / (2 (EG - F^2))

    K and H are NaN where L is NaN, as mesh_forms marks degenerate points;
    EG - F^2 <= 0 where L is finite raises DegenerateMetricError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        den = f.E * f.G - f.F ** 2
    singular = (den <= 0) & np.isfinite(f.L)
    if np.any(singular):
        low = float(den[singular].min())
        raise DegenerateMetricError(f"metric determinant must be positive (min {low:.6e})")
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
    d = GCData(psi1=-ct.omega2, psi2=ct.tau.copy(),
               tpsi1=np.array(tpsi1, dtype=float), tpsi2=np.array(tpsi2, dtype=float),
               p=-ct.omega3, q=ct.k.copy(), grid=ct.grid)
    tpsi1_x, tpsi2_t = _derivatives(d, ("tpsi1_x", "tpsi2_t"), metric_derivs)

    q_implied = tpsi2_t / d.tpsi1
    p_implied = tpsi1_x / d.tpsi2
    dev_k = np.max(np.abs(d.q - q_implied))
    dev_w3 = np.max(np.abs(d.p - p_implied))
    scale_k = max(np.max(np.abs(d.q)), np.max(np.abs(q_implied)), 1e-300)
    scale_w3 = max(np.max(np.abs(d.p)), np.max(np.abs(p_implied)), 1e-300)
    deviation = max(dev_k / scale_k, dev_w3 / scale_w3)
    if deviation > tol:
        raise MapInconsistentError(
            f"frame fields and metric roots disagree: relative deviation "
            f"{deviation:.6e} > tol {tol:.1e} "
            f"(|k - tpsi2_t/tpsi1| = {dev_k:.6e}, "
            f"|omega3 + tpsi1_x/tpsi2| = {dev_w3:.6e})")
    return d
