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

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import CharacteristicStart, FieldUndefined, OutOfRange, StencilOutOfDomain
from .fields import FD_STEP, RK4_STEP, chunks, rk4_integrate
from .surface import EPS_CHAR, GraphPatch, horizontal_data, unit_horizontal_field

EPS_KAPPA = 1e-8
_RANGE_SLOP = 1e-9


@dataclass
class SeedCurve:
    """Sampled arclength curve with tangents and second derivatives.

    Sample queries between nodes use cubic Hermite interpolation on
    (gamma, gamma') and on (gamma', gamma''); closed-form curves may carry
    exact callables which take precedence over interpolation.  Lookups read
    plain-Python copies of the samples, made once per curve.
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

    def __post_init__(self):
        self._s = self.s.tolist()
        self._g, self._dg, self._ddg = (array("d", np.asarray(a, dtype=float).tobytes())
                                        for a in (self.g, self.dg, self.ddg))

    @property
    def s_min(self) -> float:
        return float(self.s[0])

    @property
    def s_max(self) -> float:
        return float(self.s[-1])

    def _check_range(self, sq: float) -> None:
        s = self._s
        if len(s) < 2:
            raise OutOfRange("curve has fewer than two samples")
        if sq < s[0] - _RANGE_SLOP or sq > s[-1] + _RANGE_SLOP:
            raise OutOfRange(f"s={sq} outside sampled range [{s[0]}, {s[-1]}]")

    def _interpolate(self, sq: float, p: array, m: array,
                     derivative: bool = False) -> tuple[float, float]:
        """Cubic Hermite through values ``p`` with slopes ``m`` (flat x, y pairs)."""
        self._check_range(sq)
        s = self._s
        i = min(max(bisect_left(s, sq) - 1, 0), len(s) - 2)
        s0 = s[i]
        dt = s[i + 1] - s0
        t = (sq - s0) / dt
        t2, t3 = t * t, t * t * t
        j = 2 * i
        p0x, p0y, p1x, p1y = p[j], p[j + 1], p[j + 2], p[j + 3]
        m0x, m0y, m1x, m1y = m[j], m[j + 1], m[j + 2], m[j + 3]
        if not derivative:
            a, b = 2 * t3 - 3 * t2 + 1, (t3 - 2 * t2 + t) * dt
            c, d = -2 * t3 + 3 * t2, (t3 - t2) * dt
            return (float(a * p0x + b * m0x + c * p1x + d * m1x),
                    float(a * p0y + b * m0y + c * p1y + d * m1y))
        a, b, c, d = 6 * t2 - 6 * t, 3 * t2 - 4 * t + 1, -6 * t2 + 6 * t, 3 * t2 - 2 * t
        return (float(a * p0x / dt + b * m0x + c * p1x / dt + d * m1x),
                float(a * p0y / dt + b * m0y + c * p1y / dt + d * m1y))

    def point(self, sq: float) -> tuple[float, float]:
        if self.gamma_fn is not None:
            self._check_range(sq)
            return tuple(map(float, self.gamma_fn(sq)))
        return self._interpolate(sq, self._g, self._dg)

    def tangent(self, sq: float) -> tuple[float, float]:
        if self.dgamma_fn is not None:
            self._check_range(sq)
            return tuple(map(float, self.dgamma_fn(sq)))
        return self._interpolate(sq, self._dg, self._ddg)

    def second(self, sq: float) -> tuple[float, float]:
        if self.ddgamma_fn is not None:
            self._check_range(sq)
            return tuple(map(float, self.ddgamma_fn(sq)))
        return self._interpolate(sq, self._dg, self._ddg, derivative=True)

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

    A branch ends where the unit field is undefined (off the domain, or
    W <= EPS_CHAR) or where it turns back, as it does across a
    characteristic point (the tracer's stop rule, recorded as the stop
    reason).  The end sample then lies within one step of the
    characteristic point, so its curvature carries stencil error.  Second
    derivatives come from differencing the unit field at x +- (step/2)
    gamma'.  Where a step starts, the tracer has already evaluated both the
    tangent (its k1) and one side of that stencil (its k2: the + side on the
    forward branch, the - side on the backward one); the field is evaluated
    here only at the branch ends and on the other side of the stencil.  That
    side is read for all points at once, by array code when the height is
    expression-backed (``_field_at``), with the floats the tracer's field
    gives.  The backward branch traces the reversed field, -nu.
    """
    if not patch.domain.contains(*z0):
        raise FieldUndefined(f"z0={z0} outside the patch domain")
    data = horizontal_data(patch, z0)
    if data.nu is None:
        raise CharacteristicStart(f"W={data.w} <= {EPS_CHAR} at {z0}")
    nu = unit_horizontal_field(patch)
    n_steps = max(1, int(round(arc_span / step)))
    fwd = rk4_integrate(nu, z0, step, n_steps)
    back = rk4_integrate(unit_horizontal_field(patch, reverse=True), z0, step, n_steps)

    n_b = len(back.points) - 1
    pts = np.vstack([back.points[::-1][:-1], fwd.points])
    # per point, what the steps that start there evaluated, turned to +s:
    # gamma' (k1) and nu at x + (step/2) gamma' (forward k2) and at
    # x - (step/2) gamma' (backward k2); NaN where no such step starts
    rows = np.full((len(pts), 6), np.nan)
    rows[n_b:n_b + len(fwd.stages), :4] = fwd.stages
    rows[n_b:0:-1, [0, 1, 4, 5]] = -back.stages

    # trim boundary samples where the unit field itself is not evaluable
    valid = np.ones(len(pts), dtype=bool)
    for i in np.flatnonzero(np.isnan(rows[:, 0])):
        try:
            rows[i, :2] = nu(*pts[i].tolist())
        except (FieldUndefined, StencilOutOfDomain):
            rows[i, :2] = 0.0
            valid[i] = False
    base = n_b  # index of z0
    lo = base
    while lo > 0 and valid[lo - 1]:
        lo -= 1
    hi = base
    while hi < len(pts) - 1 and valid[hi + 1]:
        hi += 1
    pts = pts[lo:hi + 1]
    rows = rows[lo:hi + 1]
    tangents = rows[:, :2].copy()
    s = (np.arange(lo, hi + 1) - base) * step
    base -= lo  # index of z0 within the trimmed arrays

    # gamma'' = directional derivative of the unit field along the tangent;
    # end samples whose central stencil leaves the domain are dropped rather
    # than estimated one-sided (their curvature would be unreliable)
    delta = 0.5 * step
    fp, fm = rows[:, 2:4], rows[:, 4:]
    for side, at in ((fp, pts + delta * tangents), (fm, pts - delta * tangents)):
        need = np.flatnonzero(np.isnan(side[:, 0]))
        side[need] = _field_at(patch, nu, at[need])
    seconds = (fp - fm) / (2 * delta)
    ok = np.ones(len(pts), dtype=bool)
    for i in np.flatnonzero(np.isnan(seconds[:, 0])):
        if 0 < i < len(pts) - 1:
            seconds[i] = (tangents[i + 1] - tangents[i - 1]) / (2 * step)
        else:
            seconds[i] = 0.0
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


def _field_at(patch: GraphPatch, nu: Callable, at: np.ndarray) -> np.ndarray:
    """``nu`` at each point of ``at`` (shape (n, 2)), NaN where it raises.

    An expression-backed height is read by array code, one chunk of
    ``CHUNK`` points at a time, with the floats ``nu`` computes; a chunk
    where a gradient stencil leaves the domain, and any other height, is
    read point by point.
    """
    out = np.full(at.shape, np.nan)
    x, y = at[:, 0], at[:, 1]
    each = range(len(at))
    if patch.h.exprs:
        each = []
        for (i,) in chunks(np.flatnonzero(patch.domain.contains_all(x, y))):
            try:
                jet = patch.h.jet(x[i], y[i])
            except StencilOutOfDomain:
                each.extend(i.tolist())
                continue
            data = horizontal_data(patch, (x[i], y[i]), jet=jet)
            # data.nu is NaN where W <= EPS_CHAR or W is NaN; nu also raises
            # where W is inf
            ok = np.isfinite(data.w)
            out[i[ok]] = np.column_stack(data.nu)[ok]
    for i in each:
        try:
            out[i] = nu(*at[i].tolist())
        except (FieldUndefined, StencilOutOfDomain):
            pass  # stays NaN
    return out


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
    """Finite-difference Jacobian determinant of F, an oracle for
    ``rule_jacobian_det`` (acceptance criterion 05)."""
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
