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

which degenerates exactly on the singular locus {r = 1/kappa(s)}, whose
branches ``singular_locus`` lists.  The tracer reads nu, (p, q), W and D(p, q)
of the graph from ``surface`` and steps ``fields.RK4_STEP``.

The ``SeedCurve`` lookups (``point``, ``tangent``, ``second``),
``curvature``, ``rule_point``, ``rule_jacobian`` and ``rule_jacobian_det``
take a float s or a 1-d array of s (and r, a float or an equally long
array).  Over arrays every element is the float of the scalar call there;
numpy is used only for + - * /, comparisons and ``where``.  An array call
raises what the scalar calls over its elements, in order, raise first
(``takes_arrays``).  ``rule_jacobian_det_fd`` stays scalar, as the oracle
of ``rule_jacobian_det``.  ``rule_from`` is the arithmetic of
``rule_point`` on gamma and gamma' already looked up, so a caller that
looks them up once over many s forms F with the same floats.
"""

from __future__ import annotations

import functools
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import CharacteristicStart, FieldUndefined, OutOfRange, StencilOutOfDomain
from .fields import FD_STEP, RK4_STEP, chunks, rk4_integrate
from .surface import (EPS_CHAR, GraphPatch, graph_dpq, graph_pq, horizontal_data,
                      unit_horizontal_field)

EPS_KAPPA = 1e-8
_RANGE_SLOP = 1e-9


def takes_arrays(fn: Callable) -> Callable:
    """Let ``fn``, written for floats, take equally long 1-d arrays as well.

    The body of ``fn`` works on both; over arrays it runs without numpy
    warnings (inf - inf = NaN is the point, as with floats).  An array
    call that raises replays ``fn`` on the elements in order, so it
    raises what the first failing scalar call raises.
    """
    @functools.wraps(fn)
    def over(*args, **kwargs):
        if not any(isinstance(a, np.ndarray) for a in args):
            return fn(*args, **kwargs)
        try:
            with np.errstate(all="ignore"):
                return fn(*args, **kwargs)
        except Exception:
            cols = [a.tolist() if isinstance(a, np.ndarray) else None for a in args]
            n = len(next(c for c in cols if c is not None))
            for i in range(n):
                fn(*(a if c is None else c[i] for a, c in zip(args, cols)), **kwargs)
            raise
    return over


@dataclass
class SeedCurve:
    """Sampled arclength curve with tangents and second derivatives.

    Sample queries between nodes use cubic Hermite interpolation on
    (gamma, gamma') and on (gamma', gamma''); closed-form curves may carry
    exact callables which take precedence over interpolation.  Lookups read
    plain-Python copies of the samples, made once per curve.

    ``point``, ``tangent`` and ``second`` take a float s or a 1-d array of
    s.  An array lookup makes one range check and one ``np.searchsorted``
    and returns a pair of arrays, each element the float of the scalar
    lookup (a closed-form callable takes the array, as every stored
    callable does: see ``fields``); it raises the OutOfRange of the first
    element a scalar lookup rejects.
    """

    s: np.ndarray
    g: np.ndarray          # (n, 2) positions
    dg: np.ndarray         # (n, 2) unit tangents
    ddg: np.ndarray        # (n, 2) second derivatives
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

    def _first_rejected(self, sq: np.ndarray) -> int:
        """The index of the first element of ``sq`` that ``_check_range``
        rejects; len(sq) if it rejects none."""
        s = self._s
        if len(s) < 2:
            return 0
        bad = (sq < s[0] - _RANGE_SLOP) | (sq > s[-1] + _RANGE_SLOP)
        return int(bad.argmax()) if bad.any() else len(sq)

    def _check_range(self, sq) -> None:
        s = self._s
        if isinstance(sq, np.ndarray):
            k = self._first_rejected(sq)
            if k == len(sq):
                return
            sq = float(sq[k])
        if len(s) < 2:
            raise OutOfRange("curve has fewer than two samples")
        if sq < s[0] - _RANGE_SLOP or sq > s[-1] + _RANGE_SLOP:
            raise OutOfRange(f"s={sq} outside sampled range [{s[0]}, {s[-1]}]")

    def _interpolate(self, sq, p: array, m: array, derivative: bool = False) -> tuple:
        """Cubic Hermite through values ``p`` with slopes ``m`` (flat x, y pairs)."""
        self._check_range(sq)
        if isinstance(sq, np.ndarray):
            s = self.s
            i = np.clip(np.searchsorted(s, sq) - 1, 0, len(s) - 2)
            s0 = s[i]
            dt = s[i + 1] - s0
            pv, mv = np.frombuffer(p).reshape(-1, 2), np.frombuffer(m).reshape(-1, 2)
            (p0x, p0y), (p1x, p1y) = pv[i].T, pv[i + 1].T
            (m0x, m0y), (m1x, m1y) = mv[i].T, mv[i + 1].T
        else:
            s, sq = self._s, float(sq)
            i = min(max(bisect_left(s, sq) - 1, 0), len(s) - 2)
            s0 = s[i]
            dt = s[i + 1] - s0
            j = 2 * i
            p0x, p0y, p1x, p1y = p[j], p[j + 1], p[j + 2], p[j + 3]
            m0x, m0y, m1x, m1y = m[j], m[j + 1], m[j + 2], m[j + 3]
        t = (sq - s0) / dt
        t2, t3 = t * t, t * t * t
        if not derivative:
            a, b = 2 * t3 - 3 * t2 + 1, (t3 - 2 * t2 + t) * dt
            c, d = -2 * t3 + 3 * t2, (t3 - t2) * dt
            return (a * p0x + b * m0x + c * p1x + d * m1x,
                    a * p0y + b * m0y + c * p1y + d * m1y)
        a, b, c, d = 6 * t2 - 6 * t, 3 * t2 - 4 * t + 1, -6 * t2 + 6 * t, 3 * t2 - 2 * t
        return (a * p0x / dt + b * m0x + c * p1x / dt + d * m1x,
                a * p0y / dt + b * m0y + c * p1y / dt + d * m1y)

    def _closed(self, fn: Callable, sq) -> tuple:
        """A closed-form lookup: range check and call."""
        if not isinstance(sq, np.ndarray):
            self._check_range(sq)
            return tuple(map(float, fn(sq)))
        # the call at each element before the first one out of range, then
        # the range check that rejects it, as in a loop of scalar lookups
        k = self._first_rejected(sq)
        cols = tuple(fn(sq[:k]))
        self._check_range(sq[k:])
        return cols

    def point(self, sq) -> tuple:
        if self.gamma_fn is not None:
            return self._closed(self.gamma_fn, sq)
        return self._interpolate(sq, self._g, self._dg)

    def tangent(self, sq) -> tuple:
        if self.dgamma_fn is not None:
            return self._closed(self.dgamma_fn, sq)
        return self._interpolate(sq, self._dg, self._ddg)

    def second(self, sq) -> tuple:
        if self.ddgamma_fn is not None:
            return self._closed(self.ddgamma_fn, sq)
        return self._interpolate(sq, self._dg, self._ddg, derivative=True)

    @staticmethod
    def from_callables(gamma: Callable[[float], tuple[float, float]],
                       dgamma: Callable[[float], tuple[float, float]],
                       ddgamma: Callable[[float], tuple[float, float]],
                       s_range: tuple[float, float],
                       n_samples: int = 257) -> "SeedCurve":
        s = np.linspace(s_range[0], s_range[1], n_samples)
        g, dg, ddg = (np.column_stack(fn(s)) for fn in (gamma, dgamma, ddgamma))
        return SeedCurve(s, g, dg, ddg, gamma_fn=gamma, dgamma_fn=dgamma, ddgamma_fn=ddgamma)


@takes_arrays
def curvature(curve: SeedCurve, s):
    """Signed curvature gamma1'' gamma2' - gamma2'' gamma1'."""
    d1, d2 = curve.tangent(s), curve.second(s)
    return d2[0] * d1[1] - d2[1] * d1[0]


def extract_seed(patch: GraphPatch, z0: tuple[float, float], arc_span: float) -> SeedCurve:
    """Trace the seed curve of a graph patch through z0, both directions.

    Each branch is traced by RK4 on the unit field (the backward one on the
    reversed field, -nu), so its samples are ``RK4_STEP`` apart in arclength.
    It ends where the field is undefined (off the domain, or W <= EPS_CHAR),
    where it turns back, as it does across a characteristic point, or one
    step past z0 once it has closed (the tracer's stop rules, recorded as
    the stop reason).  At every traced point the tangent gamma' = nu and
    the second derivative

        gamma'' = (I - nu nu^T) d(p, q)/d(x, y) nu / W

    are read from the height's 2-jet, one chunk of points at a time
    (``_seed_jet``), with nu and d(p, q)/d(x, y) from ``surface.graph_pq``
    and ``graph_dpq``.  A branch is cut before its first point where that
    jet does not define them or the height is not finite; if the RK4 stop
    reason is not already set, it becomes "trimmed boundary sample".  A z0
    where W is NaN raises FieldUndefined; one where W <= EPS_CHAR raises
    CharacteristicStart.
    """
    if not patch.domain.contains(*z0):
        raise FieldUndefined(f"z0={z0} outside the patch domain")
    w = horizontal_data(patch, z0)
    if not w > EPS_CHAR:
        if np.isnan(w):
            raise FieldUndefined(f"horizontal Gauss map undefined at z0={z0}, W={w}")
        raise CharacteristicStart(f"W={w} <= {EPS_CHAR} at {z0}")
    n_steps = max(1, int(round(arc_span / RK4_STEP)))
    branches = []
    for reverse in (True, False):
        trace = rk4_integrate(unit_horizontal_field(patch, reverse), z0, RK4_STEP, n_steps)
        dg, ddg = _seed_jet(patch, trace.points)
        if not len(dg):
            raise FieldUndefined(f"gamma'' undefined at z0={z0}")
        stop = trace.stop_reason
        if len(dg) < len(trace.points):
            stop = stop or "trimmed boundary sample"
        branches.append((trace.points[:len(dg)], dg, ddg, stop))
    (g_b, dg_b, ddg_b, stop_lo), (g_f, dg_f, ddg_f, stop_hi) = branches
    # the backward branch reversed, without its copy of z0
    s = np.arange(1 - len(g_b), len(g_f)) * RK4_STEP
    g, dg, ddg = (np.vstack([b[:0:-1], f]) for b, f in ((g_b, g_f), (dg_b, dg_f), (ddg_b, ddg_f)))
    return SeedCurve(s, g, dg, ddg, stop_lo=stop_lo, stop_hi=stop_hi)


def _seed_jet(patch: GraphPatch, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """gamma' and gamma'' at the leading points of ``pts`` (shape (n, 2)).

    They are read from the height's 2-jet by array code, one chunk of
    ``CHUNK`` points at a time, with the floats the scalar jet gives.  The
    rows stop before the first point that is off the domain, whose
    difference stencil leaves it, where the height or W is not finite, where
    W <= EPS_CHAR, or where gamma'' is not finite.
    """
    x, y = pts[:, 0], pts[:, 1]
    inside = patch.domain.contains_all(x, y)
    n = len(pts) if inside.all() else int(np.argmin(inside))
    dg, ddg = [np.empty((0, 2))], [np.empty((0, 2))]
    for cx, cy in chunks(x[:n], y[:n]):
        k = len(cx)
        while k:
            try:
                jet = patch.h.jet(cx[:k], cy[:k], patch.h.jet(cx[:k], cy[:k]))
                break
            except StencilOutOfDomain as err:
                k = err.node  # the points before it pass the stencil checks
        if not k:
            break
        w = horizontal_data(patch, (cx[:k], cy[:k]), jet=jet)
        p_x, p_y, q_x, q_y = graph_dpq(*jet[3:])
        with np.errstate(all="ignore"):
            nx, ny = (v / w for v in graph_pq(jet[1], jet[2], cx[:k], cy[:k]))
            # d(p, q)/d(x, y) nu, then its part normal to nu, over W
            ax, ay = p_x * nx + p_y * ny, q_x * nx + q_y * ny
            dot = nx * ax + ny * ay
            sx, sy = (ax - dot * nx) / w, (ay - dot * ny) / w
            ok = np.isfinite(jet[0]) & np.isfinite(w) & (w > EPS_CHAR) & np.isfinite(sx) & np.isfinite(sy)
        m = k if ok.all() else int(np.argmin(ok))
        dg.append(np.column_stack((nx, ny))[:m])
        ddg.append(np.column_stack((sx, sy))[:m])
        if m < len(cx):
            break
    return np.vstack(dg), np.vstack(ddg)


# ---------------------------------------------------------------------------
# The (s, r) chart of the plane
# ---------------------------------------------------------------------------


@takes_arrays
def rule_point(curve: SeedCurve, s, r) -> tuple:
    """F(s, r) = gamma(s) + r * gamma'(s)_perp."""
    return rule_from(curve.point(s), curve.tangent(s), r)


def rule_from(g: tuple, d: tuple, r) -> tuple:
    """F(s, r) from gamma(s) = g and gamma'(s) = d: (g1 + r d2, g2 - r d1)."""
    return (g[0] + r * d[1], g[1] - r * d[0])


@takes_arrays
def rule_jacobian_det(curve: SeedCurve, s, r):
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


@takes_arrays
def rule_jacobian(curve: SeedCurve, s, r) -> tuple:
    """DF(s, r) as rows ((a, b), (c, d)); over arrays of s (and r), each
    entry is an array."""
    d1, d2 = curve.tangent(s), curve.second(s)
    return ((d1[0] + r * d2[1], d1[1]),
            (d1[1] - r * d2[0], -d1[0]))


def singular_locus(curve: SeedCurve) -> list[tuple[np.ndarray, np.ndarray]]:
    """The branches (s, r) of {r = 1/kappa(s)} at the curve's samples, one
    per run of samples where |kappa| > EPS_KAPPA."""
    kap = curvature(curve, curve.s)
    # the runs of |kappa| > EPS_KAPPA start and stop at the changes of the mask
    edges = np.flatnonzero(np.diff(np.abs(kap) > EPS_KAPPA, prepend=False, append=False))
    return [(curve.s[a:b].copy(), 1.0 / kap[a:b])
            for a, b in zip(edges[::2].tolist(), edges[1::2].tolist())]
