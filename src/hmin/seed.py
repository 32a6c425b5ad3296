"""Seed curves: arclength integral curves of the horizontal Gauss map.

A seed curve gamma is traced from a non-characteristic base point by RK4
on the unit field nu = (p, q)/W (the field is re-normalized at every
evaluation, so the parameterization is arclength by construction).  Its
signed curvature is

    kappa(s) = gamma1'' gamma2' - gamma2'' gamma1'

with the fixed perpendicular convention zeta_perp = (zeta2, -zeta1).  The
curve and the straight rules through it parameterize the plane by

    F(s, r) = gamma(s) + r gamma'(s)_perp
            = (gamma1 + r gamma2', gamma2 - r gamma1'),   det DF = -1 + r kappa(s),

which degenerates exactly on the singular locus {r = 1/kappa(s)}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import CharacteristicStart, FieldUndefined, OutOfRange, StencilOutOfDomain
from .fields import FD_STEP, RK4_STEP, rk4_integrate
from .surface import EPS_CHAR, GraphPatch, horizontal_data, unit_horizontal_field

EPS_KAPPA = 1e-8
_RANGE_SLOP = 1e-9


def _hermite(sq: float, s0: float, s1: float, p0, p1, m0, m1, derivative: bool = False):
    dt = s1 - s0
    t = (sq - s0) / dt
    t2, t3 = t * t, t * t * t
    if not derivative:
        return ((2 * t3 - 3 * t2 + 1) * p0 + (t3 - 2 * t2 + t) * dt * m0
                + (-2 * t3 + 3 * t2) * p1 + (t3 - t2) * dt * m1)
    return ((6 * t2 - 6 * t) * p0 / dt + (3 * t2 - 4 * t + 1) * m0
            + (-6 * t2 + 6 * t) * p1 / dt + (3 * t2 - 2 * t) * m1)


@dataclass
class SeedCurve:
    """Sampled arclength curve with tangents and second derivatives.

    Sample queries between nodes use cubic Hermite interpolation on
    (gamma, gamma') and on (gamma', gamma''); closed-form curves may carry
    exact callables which take precedence over interpolation.
    """

    s: np.ndarray
    g: np.ndarray          # (n, 2) positions
    dg: np.ndarray         # (n, 2) unit tangents
    ddg: np.ndarray        # (n, 2) second derivatives
    provenance: str = "extracted"
    stop_lo: Optional[str] = None
    stop_hi: Optional[str] = None
    gamma_fn: Optional[Callable[[float], tuple[float, float]]] = None
    dgamma_fn: Optional[Callable[[float], tuple[float, float]]] = None
    ddgamma_fn: Optional[Callable[[float], tuple[float, float]]] = None

    @property
    def s_min(self) -> float:
        return float(self.s[0])

    @property
    def s_max(self) -> float:
        return float(self.s[-1])

    def _bracket(self, sq: float) -> int:
        if len(self.s) < 2:
            raise OutOfRange("curve has fewer than two samples")
        if sq < self.s_min - _RANGE_SLOP or sq > self.s_max + _RANGE_SLOP:
            raise OutOfRange(f"s={sq} outside sampled range [{self.s_min}, {self.s_max}]")
        i = int(np.searchsorted(self.s, sq)) - 1
        return min(max(i, 0), len(self.s) - 2)

    def point(self, sq: float) -> tuple[float, float]:
        if self.gamma_fn is not None:
            self._bracket(sq)
            return tuple(map(float, self.gamma_fn(sq)))
        i = self._bracket(sq)
        v = _hermite(sq, self.s[i], self.s[i + 1], self.g[i], self.g[i + 1],
                     self.dg[i], self.dg[i + 1])
        return (float(v[0]), float(v[1]))

    def tangent(self, sq: float) -> tuple[float, float]:
        if self.dgamma_fn is not None:
            self._bracket(sq)
            return tuple(map(float, self.dgamma_fn(sq)))
        i = self._bracket(sq)
        v = _hermite(sq, self.s[i], self.s[i + 1], self.dg[i], self.dg[i + 1],
                     self.ddg[i], self.ddg[i + 1])
        return (float(v[0]), float(v[1]))

    def second(self, sq: float) -> tuple[float, float]:
        if self.ddgamma_fn is not None:
            self._bracket(sq)
            return tuple(map(float, self.ddgamma_fn(sq)))
        i = self._bracket(sq)
        v = _hermite(sq, self.s[i], self.s[i + 1], self.dg[i], self.dg[i + 1],
                     self.ddg[i], self.ddg[i + 1], derivative=True)
        return (float(v[0]), float(v[1]))

    @staticmethod
    def from_callables(gamma: Callable[[float], tuple[float, float]],
                       dgamma: Callable[[float], tuple[float, float]],
                       ddgamma: Callable[[float], tuple[float, float]],
                       s_range: tuple[float, float],
                       n_samples: int = 257) -> "SeedCurve":
        s = np.linspace(s_range[0], s_range[1], n_samples)
        g = np.array([gamma(float(v)) for v in s], dtype=float)
        dg = np.array([dgamma(float(v)) for v in s], dtype=float)
        ddg = np.array([ddgamma(float(v)) for v in s], dtype=float)
        return SeedCurve(s, g, dg, ddg, provenance="closed-form",
                         gamma_fn=gamma, dgamma_fn=dgamma, ddgamma_fn=ddgamma)


def curvature(curve: SeedCurve, s: float) -> float:
    """Signed curvature gamma1'' gamma2' - gamma2'' gamma1'."""
    d1, d2 = curve.tangent(s), curve.second(s)
    return d2[0] * d1[1] - d2[1] * d1[0]


def extract_seed(patch: GraphPatch, z0: tuple[float, float], arc_span: float,
                 step: float = RK4_STEP) -> SeedCurve:
    """Trace the seed curve of a graph patch through z0, both directions.

    Stops at the domain boundary or where W drops below 10*EPS_CHAR
    (recording the reason; the limit point is not claimed).  Second
    derivatives come from differencing the evaluated unit field along the
    tangent direction.
    """
    data = horizontal_data(patch, z0)
    if data.nu is None:
        raise CharacteristicStart(f"W={data.w} <= {EPS_CHAR} at {z0}")
    nu = unit_horizontal_field(patch)

    def stop(x: float, y: float) -> bool:
        try:
            hd = horizontal_data(patch, (x, y), 0.0)
        except (FieldUndefined, StencilOutOfDomain):
            return True
        return (not math.isfinite(hd.w)) or hd.w < 10.0 * EPS_CHAR

    n_steps = max(1, int(round(arc_span / step)))
    fwd = rk4_integrate(nu, z0, step, n_steps, stop)
    back = rk4_integrate(lambda x, y: tuple(-c for c in nu(x, y)), z0, step, n_steps, stop)

    n_b = len(back.points) - 1
    pts = np.vstack([back.points[::-1][:-1], fwd.points])

    # trim boundary samples where the unit field itself is not evaluable
    valid = np.ones(len(pts), dtype=bool)
    tangents = np.zeros_like(pts)
    for i, (x, y) in enumerate(pts):
        try:
            tangents[i] = nu(float(x), float(y))
        except (FieldUndefined, StencilOutOfDomain):
            valid[i] = False
    base = n_b  # index of z0
    lo = base
    while lo > 0 and valid[lo - 1]:
        lo -= 1
    hi = base
    while hi < len(pts) - 1 and valid[hi + 1]:
        hi += 1
    pts = pts[lo:hi + 1]
    tangents = tangents[lo:hi + 1]
    s = (np.arange(lo, hi + 1) - base) * step
    base -= lo  # index of z0 within the trimmed arrays

    # gamma'' = directional derivative of the unit field along the tangent;
    # end samples whose central stencil leaves the domain are dropped rather
    # than estimated one-sided (their curvature would be unreliable)
    seconds = np.zeros_like(pts)
    ok = np.ones(len(pts), dtype=bool)
    delta = 0.5 * step
    for i, (x, y) in enumerate(pts):
        t1, t2 = tangents[i]
        try:
            fp = nu(float(x) + delta * t1, float(y) + delta * t2)
            fm = nu(float(x) - delta * t1, float(y) - delta * t2)
            seconds[i] = ((fp[0] - fm[0]) / (2 * delta), (fp[1] - fm[1]) / (2 * delta))
        except (FieldUndefined, StencilOutOfDomain):
            if 0 < i < len(pts) - 1:
                seconds[i] = (tangents[i + 1] - tangents[i - 1]) / (2 * step)
            else:
                ok[i] = False
    # |gamma'| = 1 forces <gamma', gamma''> = 0; the tangential component of
    # the estimate is truncation error, so project it out (kappa is unchanged)
    tang = np.einsum("ij,ij->i", seconds, tangents)
    seconds -= tang[:, None] * tangents

    stop_lo, stop_hi = back.stop_reason, fwd.stop_reason
    sl = 0
    while sl < base and not ok[sl]:
        sl += 1
        stop_lo = stop_lo or "trimmed boundary sample"
    sh = len(pts) - 1
    while sh > base and not ok[sh]:
        sh -= 1
        stop_hi = stop_hi or "trimmed boundary sample"
    keep = slice(sl, sh + 1)
    return SeedCurve(s[keep], pts[keep], tangents[keep], seconds[keep],
                     provenance="extracted", stop_lo=stop_lo, stop_hi=stop_hi)


# ---------------------------------------------------------------------------
# The (s, r) chart of the plane
# ---------------------------------------------------------------------------


def rule_point(curve: SeedCurve, s: float, r: float) -> tuple[float, float]:
    """F(s, r) = gamma(s) + r * gamma'(s)_perp."""
    g = curve.point(s)
    d = curve.tangent(s)
    return (g[0] + r * d[1], g[1] - r * d[0])


def rule_jacobian_det(curve: SeedCurve, s: float, r: float) -> float:
    """det DF(s, r) = -1 + r * kappa(s)."""
    return -1.0 + r * curvature(curve, s)


def rule_jacobian_det_fd(curve: SeedCurve, s: float, r: float) -> float:
    """Finite-difference Jacobian determinant of F, for cross-checking."""
    h = FD_STEP
    fp = rule_point(curve, s + h, r)
    fm = rule_point(curve, s - h, r)
    dfs = ((fp[0] - fm[0]) / (2 * h), (fp[1] - fm[1]) / (2 * h))
    d = curve.tangent(s)
    dfr = (d[1], -d[0])
    return dfs[0] * dfr[1] - dfs[1] * dfr[0]


def rule_jacobian(curve: SeedCurve, s: float, r: float) -> np.ndarray:
    d1, d2 = curve.tangent(s), curve.second(s)
    return np.array([[d1[0] + r * d2[1], d1[1]],
                     [d1[1] - r * d2[0], -d1[0]]])


@dataclass
class SingularLocus:
    """Branches of {r = 1/kappa(s)} over runs where |kappa| > EPS_KAPPA."""

    branches: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not self.branches


def singular_locus(curve: SeedCurve) -> SingularLocus:
    kap = np.array([curvature(curve, float(v)) for v in curve.s])
    mask = np.abs(kap) > EPS_KAPPA
    branches = []
    start = None
    for i, flag in enumerate(list(mask) + [False]):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            sl = slice(start, i)
            branches.append((curve.s[sl].copy(), 1.0 / kap[sl]))
            start = None
    return SingularLocus(branches)
