"""Planar scalar fields, grids, and the shared numerical kernels.

A ScalarField2 evaluates a function on a planar domain together with its
first and second derivatives, either from analytic evaluators or by
central finite differences.  The module also provides the fixed-step RK4
integrator used for seed-curve tracing and an adaptive Simpson rule used
for integral-defined curves.  The integrator returns the first two stage
slopes (k1, k2) of every step, which seed tracing reuses, and ends a trace
at the start of a step whose k2 turns back from its k1 (k1 . k2 <= 0).

Numerical defaults (fixed; only a field's ``fd_step`` can be set):

* ``FD_STEP = 1e-5`` central-difference step for first derivatives,
* ``HESS_STEP = 5e-5`` step for value-based second differences (the
  larger step keeps the rounding error of the second difference at the
  1e-8 level; gradients still use FD_STEP),
* ``PROFILE_STEP = 1e-6`` difference step of a profile without analytic
  derivatives,
* ``RK4_STEP = 1e-3`` arclength step for curve tracing.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import expr as ex
from .errors import FieldUndefined, StencilOutOfDomain

FD_STEP = 1e-5
HESS_STEP = 5e-5
PROFILE_STEP = 1e-6
RK4_STEP = 1e-3
SIMPSON_TOL = 1e-10
TURN_BACK = "field turns back: k1 . k2 <= 0"  # rk4_integrate's own stop reason


@dataclass(frozen=True)
class PlanarDomain:
    """Axis-aligned bounds plus an optional membership predicate."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float
    membership: Optional[Callable[[float, float], bool]] = None

    def contains(self, x: float, y: float) -> bool:
        if not (self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax):
            return False
        return self.membership is None or bool(self.membership(x, y))


def square(half: float) -> PlanarDomain:
    return PlanarDomain(-half, half, -half, half)


@dataclass
class ScalarField2:
    """A real function on a planar domain with derivative evaluators.

    ``grad`` and ``hess`` are optional analytic evaluators; when absent,
    derivatives fall back to central differences with step ``fd_step``
    (first order) and ``HESS_STEP`` (second order on values).  When an
    analytic gradient is present but the Hessian is not, the Hessian is
    obtained by differencing the gradient at ``fd_step`` and symmetrizing
    the mixed partials.  Fields without an analytic Hessian are *stencil
    fields*: their derivatives read f around (x, y), inside ``domain``.
    """

    f: Callable[[float, float], float]
    grad: Optional[Callable[[float, float], tuple[float, float]]] = None
    hess: Optional[Callable[[float, float], tuple[tuple[float, float], tuple[float, float]]]] = None
    fd_step: float = FD_STEP
    domain: Optional[PlanarDomain] = None
    source: Optional[str] = None  # expression text when expr-backed
    jet_eval: Optional[Callable[[float, float], tuple]] = None  # (f, fx, fy, fxx, fxy, fyy)

    # -- evaluation ---------------------------------------------------------

    def value(self, x: float, y: float) -> float:
        return self.f(x, y)

    def _check_stencil(self, x: float, y: float, h: float):
        dom = self.domain
        if dom is None:
            return
        # the bounds of all 8 points at once: rounding is monotone and NaN
        # fails both forms, so this accepts exactly what the loop accepts
        inside = dom.xmin <= x - h and x + h <= dom.xmax and dom.ymin <= y - h and y + h <= dom.ymax
        if inside and dom.membership is None:
            return
        points = ((x + h, y), (x - h, y), (x, y + h), (x, y - h),
                  (x + h, y + h), (x + h, y - h), (x - h, y + h), (x - h, y - h))
        if inside and all(dom.membership(px, py) for px, py in points):
            return
        for px, py in points:
            if not dom.contains(px, py):
                raise StencilOutOfDomain(f"stencil point ({px}, {py}) outside domain")

    def _fd_gradient(self, x: float, y: float) -> tuple[float, float]:
        h = self.fd_step
        self._check_stencil(x, y, h)
        return ((self.f(x + h, y) - self.f(x - h, y)) / (2.0 * h),
                (self.f(x, y + h) - self.f(x, y - h)) / (2.0 * h))

    def _stencil_hessian(self, x: float, y: float, f00: Optional[float] = None):
        """(fxx, fxy, fyy) of a stencil field; ``f00`` is f(x, y) if known."""
        if self.grad is not None:
            h = self.fd_step
            self._check_stencil(x, y, h)
            gxp, gxm = self.grad(x + h, y), self.grad(x - h, y)
            gyp, gym = self.grad(x, y + h), self.grad(x, y - h)
            fxx = (gxp[0] - gxm[0]) / (2.0 * h)
            fyy = (gyp[1] - gym[1]) / (2.0 * h)
            # mixed partials symmetrized by averaging the two estimates
            fxy = 0.5 * ((gyp[0] - gym[0]) / (2.0 * h) + (gxp[1] - gxm[1]) / (2.0 * h))
            return (fxx, fxy, fyy)
        # 9-point symmetric stencil on values
        h = HESS_STEP
        self._check_stencil(x, y, h)
        f00 = self.f(x, y) if f00 is None else f00
        fxx = (self.f(x + h, y) - 2.0 * f00 + self.f(x - h, y)) / (h * h)
        fyy = (self.f(x, y + h) - 2.0 * f00 + self.f(x, y - h)) / (h * h)
        fxy = (self.f(x + h, y + h) - self.f(x + h, y - h)
               - self.f(x - h, y + h) + self.f(x - h, y - h)) / (4.0 * h * h)
        return (fxx, fxy, fyy)

    def gradient(self, x: float, y: float) -> tuple[float, float]:
        return self._fd_gradient(x, y) if self.grad is None else tuple(self.grad(x, y))

    def hessian(self, x: float, y: float) -> tuple[tuple[float, float], tuple[float, float]]:
        if self.hess is not None:
            m = self.hess(x, y)
            return ((m[0][0], m[0][1]), (m[1][0], m[1][1]))
        fxx, fxy, fyy = self._stencil_hessian(x, y)
        return ((fxx, fxy), (fxy, fyy))

    def jet(self, x: float, y: float, first: Optional[tuple] = None) -> tuple:
        """The 2-jet ``(f, fx, fy, fxx, fxy, fyy)`` at (x, y), each read once.

        A stencil field builds it in two steps, so that a scan can filter on
        the gradient before the Hessian stencil is checked: ``jet(x, y)``
        returns the 1-jet ``(f, fx, fy)`` and ``jet(x, y, first)`` completes
        it.  Other fields return the 2-jet at once, and pass it back as is.
        """
        if first is not None:
            return first if self.hess is not None else first + self._stencil_hessian(x, y, first[0])
        if self.jet_eval is not None:
            return self.jet_eval(x, y)
        first = (self.f(x, y), *(self._fd_gradient(x, y) if self.grad is None else self.grad(x, y)))
        if self.hess is None:
            return first
        (fxx, fxy), (_, fyy) = self.hess(x, y)
        return first + (fxx, fxy, fyy)

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_expr(src: str, domain: Optional[PlanarDomain] = None) -> "ScalarField2":
        """Build a field from an expression in x, y with symbolic derivatives."""
        tree = ex.parse(src)
        dx = ex.differentiate(tree, "x")
        dy = ex.differentiate(tree, "y")
        jet = ex.compile_fn([tree, dx, dy, ex.differentiate(dx, "x"), ex.differentiate(dx, "y"),
                             ex.differentiate(dy, "y")], ("x", "y"))

        def hess(x: float, y: float):
            _, _, _, fxx, fxy, fyy = jet(x, y)
            return ((fxx, fxy), (fxy, fyy))

        return ScalarField2(f=ex.compile_fn(tree, ("x", "y")), grad=ex.compile_fn([dx, dy], ("x", "y")),
                            hess=hess, domain=domain, source=src, jet_eval=jet)

    def fd_only(self) -> "ScalarField2":
        """A copy that drops analytic derivative evaluators (pure FD mode)."""
        return replace(self, grad=None, hess=None, jet_eval=None)


def grad(f: ScalarField2, p: tuple[float, float]) -> tuple[float, float]:
    return f.gradient(p[0], p[1])


@dataclass(frozen=True)
class Grid2:
    """Inclusive nx-by-ny lattice over a domain, filtered by membership."""

    domain: PlanarDomain
    nx: int
    ny: int

    @property
    def nodes(self) -> list[tuple[float, float]]:
        xs, ys = (a.tolist() for a in self.lattice())
        return [(x, y) for x in xs for y in ys if self.domain.contains(x, y)]

    def lattice(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.linspace(self.domain.xmin, self.domain.xmax, self.nx),
                np.linspace(self.domain.ymin, self.domain.ymax, self.ny))


# ---------------------------------------------------------------------------
# 1-D profiles (height functions, rotational profiles)
# ---------------------------------------------------------------------------


@dataclass
class Profile:
    """A scalar function of one variable with optional analytic derivatives."""

    f: Callable[[float], float]
    d1: Optional[Callable[[float], float]] = None
    d2: Optional[Callable[[float], float]] = None

    def __call__(self, s: float) -> float:
        return self.f(s)

    def d(self, s: float) -> float:
        if self.d1 is not None:
            return self.d1(s)
        h = PROFILE_STEP
        return (self.f(s + h) - self.f(s - h)) / (2.0 * h)

    def dd(self, s: float) -> float:
        if self.d2 is not None:
            return self.d2(s)
        if self.d1 is not None:
            h = PROFILE_STEP
            return (self.d1(s + h) - self.d1(s - h)) / (2.0 * h)
        h = math.sqrt(PROFILE_STEP)
        return (self.f(s + h) - 2.0 * self.f(s) + self.f(s - h)) / (h * h)

    @staticmethod
    def from_expr(src: str) -> "Profile":
        """A profile from an expression in s with symbolic derivatives."""
        tree = ex.parse(src)
        d1 = ex.differentiate(tree, "s")
        d2 = ex.differentiate(d1, "s")
        return Profile(
            f=ex.compile_fn(tree, ("s",)),
            d1=ex.compile_fn(d1, ("s",)),
            d2=ex.compile_fn(d2, ("s",)),
        )

    @staticmethod
    def constant(c: float) -> "Profile":
        return Profile(f=lambda s: c, d1=lambda s: 0.0, d2=lambda s: 0.0)


# ---------------------------------------------------------------------------
# ODE integration (classical fixed-step RK4)
# ---------------------------------------------------------------------------


@dataclass
class IntegratedCurve:
    """The points of an RK4 trace and the first two stage slopes of each step.

    ``stages[j]`` is ``(k1x, k1y, k2x, k2y)`` of the step from ``points[j]``:
    the field there and at ``points[j] + (step/2) k1``, as the step read them.
    """

    points: np.ndarray           # (n+1, 2), includes the start point
    stop_reason: Optional[str]   # None when all n_steps were taken
    stages: np.ndarray           # (n, 4), one row per step taken

    @property
    def end(self) -> tuple[float, float]:
        return (float(self.points[-1, 0]), float(self.points[-1, 1]))


def _eval_field(v: Callable, x: float, y: float) -> tuple[float, float]:
    out = v(x, y)
    vx, vy = float(out[0]), float(out[1])
    if not (math.isfinite(vx) and math.isfinite(vy)):
        raise FieldUndefined(f"vector field not finite at ({x}, {y})")
    return vx, vy


def rk4_integrate(v: Callable[[float, float], Sequence[float]],
                  z0: tuple[float, float],
                  step: float,
                  n_steps: int) -> IntegratedCurve:
    """Trace the integral curve of ``v`` from ``z0`` with fixed-step RK4.

    Ends early, recording the reason, when the field cannot be evaluated at
    a stage point, or at the start of a step whose second stage slope turns
    back from its first (``k1 . k2 <= 0``, read before k3 and k4).  For a
    unit field the latter happens only across a point where the field flips
    direction, or where the curve bends by more than pi/step.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    pts = [(float(z0[0]), float(z0[1]))]
    stages = array("d")
    reason = None
    x, y = pts[0]
    for _ in range(n_steps):
        try:
            k1x, k1y = _eval_field(v, x, y)
            k2x, k2y = _eval_field(v, x + 0.5 * step * k1x, y + 0.5 * step * k1y)
            if k1x * k2x + k1y * k2y <= 0.0:
                reason = TURN_BACK
                break
            k3x, k3y = _eval_field(v, x + 0.5 * step * k2x, y + 0.5 * step * k2y)
            k4x, k4y = _eval_field(v, x + step * k3x, y + step * k3y)
        except (FieldUndefined, StencilOutOfDomain) as err:
            reason = f"{type(err).__name__}: {err}"
            break
        x += step * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0
        y += step * (k1y + 2.0 * k2y + 2.0 * k3y + k4y) / 6.0
        pts.append((x, y))
        stages.extend((k1x, k1y, k2x, k2y))
    return IntegratedCurve(np.array(pts), reason, np.array(stages).reshape(-1, 4))


# ---------------------------------------------------------------------------
# Quadrature (composite Simpson with adaptive halving)
# ---------------------------------------------------------------------------


def _simpson(f: Callable[[float], float], a: float, fa: float, b: float, fb: float):
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                     tol: float = SIMPSON_TOL) -> float:
    """Integral of f over [a, b] to absolute tolerance ``tol``."""
    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    m, fm, whole = _simpson(f, a, fa, b, fb)

    def rec(a, fa, b, fb, m, fm, whole, tol, depth):
        lm, flm, left = _simpson(f, a, fa, m, fm)
        rm, frm, right = _simpson(f, m, fm, b, fb)
        if depth >= 50 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return (rec(a, fa, m, fm, lm, flm, left, tol / 2.0, depth + 1)
                + rec(m, fm, b, fb, rm, frm, right, tol / 2.0, depth + 1))

    return rec(a, fa, b, fb, m, fm, whole, tol, 0)


def cumulative_integral(f: Callable[[float], float], grid: np.ndarray,
                        tol: float = SIMPSON_TOL) -> np.ndarray:
    """Antiderivative values of f at the (sorted) grid points, zero at grid[0]."""
    out = np.zeros(len(grid))
    for i in range(1, len(grid)):
        out[i] = out[i - 1] + adaptive_simpson(f, float(grid[i - 1]), float(grid[i]), tol)
    return out
