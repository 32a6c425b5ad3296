"""Planar scalar fields, grids, and the shared numerical kernels.

A ScalarField2 evaluates a function on a planar domain together with its
first and second derivatives, either from analytic evaluators or by
central finite differences.  The module also provides the fixed-step RK4
integrator used for seed-curve tracing and an adaptive Simpson rule used
for integral-defined curves.

Numerical defaults (all overridable):

* ``FD_STEP = 1e-5`` central-difference step for first derivatives,
* ``HESS_STEP = 5e-5`` step for value-based second differences (the
  larger step keeps the rounding error of the second difference at the
  1e-8 level; gradients still use FD_STEP),
* ``RK4_STEP = 1e-3`` arclength step for curve tracing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import expr as ex
from .errors import FieldUndefined, StencilOutOfDomain

FD_STEP = 1e-5
HESS_STEP = 5e-5
RK4_STEP = 1e-3
SIMPSON_TOL = 1e-10


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

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        return (self.xmin, self.xmax, self.ymin, self.ymax)


def square(half: float) -> PlanarDomain:
    return PlanarDomain(-half, half, -half, half)


@dataclass
class ScalarField2:
    """A real function on a planar domain with derivative evaluators.

    ``grad`` and ``hess`` are optional analytic evaluators; when absent,
    derivatives fall back to central differences with step ``fd_step``
    (first order) and ``hess_step`` (second order on values).  When an
    analytic gradient is present but the Hessian is not, the Hessian is
    obtained by differencing the gradient at ``fd_step`` and symmetrizing
    the mixed partials.
    """

    f: Callable[[float, float], float]
    grad: Optional[Callable[[float, float], tuple[float, float]]] = None
    hess: Optional[Callable[[float, float], tuple[tuple[float, float], tuple[float, float]]]] = None
    fd_step: float = FD_STEP
    hess_step: float = HESS_STEP
    domain: Optional[PlanarDomain] = None
    source: Optional[str] = None  # expression text when expr-backed

    # -- evaluation ---------------------------------------------------------

    def value(self, x: float, y: float) -> float:
        return self.f(x, y)

    def _check_stencil(self, x: float, y: float, h: float):
        if self.domain is None:
            return
        for px, py in ((x + h, y), (x - h, y), (x, y + h), (x, y - h),
                       (x + h, y + h), (x + h, y - h), (x - h, y + h), (x - h, y - h)):
            if not self.domain.contains(px, py):
                raise StencilOutOfDomain(f"stencil point ({px}, {py}) outside domain")

    def gradient(self, x: float, y: float) -> tuple[float, float]:
        if self.grad is not None:
            return tuple(self.grad(x, y))
        h = self.fd_step
        self._check_stencil(x, y, h)
        fx = (self.f(x + h, y) - self.f(x - h, y)) / (2.0 * h)
        fy = (self.f(x, y + h) - self.f(x, y - h)) / (2.0 * h)
        return (fx, fy)

    def hessian(self, x: float, y: float) -> tuple[tuple[float, float], tuple[float, float]]:
        if self.hess is not None:
            m = self.hess(x, y)
            return ((m[0][0], m[0][1]), (m[1][0], m[1][1]))
        if self.grad is not None:
            h = self.fd_step
            self._check_stencil(x, y, h)
            gxp = self.grad(x + h, y)
            gxm = self.grad(x - h, y)
            gyp = self.grad(x, y + h)
            gym = self.grad(x, y - h)
            fxx = (gxp[0] - gxm[0]) / (2.0 * h)
            fyy = (gyp[1] - gym[1]) / (2.0 * h)
            # mixed partials symmetrized by averaging the two estimates
            fxy = 0.5 * ((gyp[0] - gym[0]) / (2.0 * h) + (gxp[1] - gxm[1]) / (2.0 * h))
            return ((fxx, fxy), (fxy, fyy))
        # 9-point symmetric stencil on values
        h = self.hess_step
        self._check_stencil(x, y, h)
        f00 = self.f(x, y)
        fxx = (self.f(x + h, y) - 2.0 * f00 + self.f(x - h, y)) / (h * h)
        fyy = (self.f(x, y + h) - 2.0 * f00 + self.f(x, y - h)) / (h * h)
        fxy = (self.f(x + h, y + h) - self.f(x + h, y - h)
               - self.f(x - h, y + h) + self.f(x - h, y - h)) / (4.0 * h * h)
        return ((fxx, fxy), (fxy, fyy))

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_expr(src: str, domain: Optional[PlanarDomain] = None,
                  fd_step: float = FD_STEP) -> "ScalarField2":
        """Build a field from an expression in x, y with symbolic derivatives."""
        tree = ex.parse(src)
        dx = ex.differentiate(tree, "x")
        dy = ex.differentiate(tree, "y")
        second = ex.compile_fn([ex.differentiate(dx, "x"), ex.differentiate(dx, "y"),
                                ex.differentiate(dy, "y")], ("x", "y"))

        def hess(x: float, y: float):
            fxx, fxy, fyy = second(x, y)
            return ((fxx, fxy), (fxy, fyy))

        return ScalarField2(
            f=ex.compile_fn(tree, ("x", "y")),
            grad=ex.compile_fn([dx, dy], ("x", "y")),
            hess=hess,
            fd_step=fd_step,
            domain=domain,
            source=src,
        )

    def fd_only(self) -> "ScalarField2":
        """A copy that drops analytic derivative evaluators (pure FD mode)."""
        return replace(self, grad=None, hess=None)


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
        xs = np.linspace(self.domain.xmin, self.domain.xmax, self.nx)
        ys = np.linspace(self.domain.ymin, self.domain.ymax, self.ny)
        return [(float(x), float(y)) for x in xs for y in ys
                if self.domain.contains(float(x), float(y))]

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
    fd_step: float = 1e-6

    def __call__(self, s: float) -> float:
        return self.f(s)

    def d(self, s: float) -> float:
        if self.d1 is not None:
            return self.d1(s)
        h = self.fd_step
        return (self.f(s + h) - self.f(s - h)) / (2.0 * h)

    def dd(self, s: float) -> float:
        if self.d2 is not None:
            return self.d2(s)
        if self.d1 is not None:
            h = self.fd_step
            return (self.d1(s + h) - self.d1(s - h)) / (2.0 * h)
        h = math.sqrt(self.fd_step)
        return (self.f(s + h) - 2.0 * self.f(s) + self.f(s - h)) / (h * h)

    @staticmethod
    def from_expr(src: str, var: str = "s") -> "Profile":
        tree = ex.parse(src)
        d1 = ex.differentiate(tree, var)
        d2 = ex.differentiate(d1, var)
        return Profile(
            f=ex.compile_fn(tree, (var,)),
            d1=ex.compile_fn(d1, (var,)),
            d2=ex.compile_fn(d2, (var,)),
        )

    @staticmethod
    def constant(c: float) -> "Profile":
        return Profile(f=lambda s: c, d1=lambda s: 0.0, d2=lambda s: 0.0)


# ---------------------------------------------------------------------------
# ODE integration (classical fixed-step RK4)
# ---------------------------------------------------------------------------


@dataclass
class IntegratedCurve:
    points: np.ndarray           # (n+1, 2), includes the start point
    stop_reason: Optional[str]   # None when all n_steps were taken
    steps_taken: int = 0

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
                  n_steps: int,
                  stop: Optional[Callable[[float, float], bool]] = None) -> IntegratedCurve:
    """Trace the integral curve of ``v`` from ``z0`` with fixed-step RK4.

    Stops early (recording the reason) when ``stop`` fires at a committed
    point or when the field cannot be evaluated at a stage point.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    pts = [(float(z0[0]), float(z0[1]))]
    reason = None
    x, y = pts[0]
    if stop is not None and stop(x, y):
        return IntegratedCurve(np.array(pts), "stop predicate at start", 0)
    taken = 0
    for _ in range(n_steps):
        try:
            k1x, k1y = _eval_field(v, x, y)
            k2x, k2y = _eval_field(v, x + 0.5 * step * k1x, y + 0.5 * step * k1y)
            k3x, k3y = _eval_field(v, x + 0.5 * step * k2x, y + 0.5 * step * k2y)
            k4x, k4y = _eval_field(v, x + step * k3x, y + step * k3y)
        except (FieldUndefined, StencilOutOfDomain) as err:
            reason = f"{type(err).__name__}: {err}"
            break
        x += step * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0
        y += step * (k1y + 2.0 * k2y + 2.0 * k3y + k4y) / 6.0
        pts.append((x, y))
        taken += 1
        if stop is not None and stop(x, y):
            reason = "stop predicate"
            break
    return IntegratedCurve(np.array(pts), reason, taken)


# ---------------------------------------------------------------------------
# Quadrature (composite Simpson with adaptive halving)
# ---------------------------------------------------------------------------


def _simpson(f: Callable[[float], float], a: float, fa: float, b: float, fb: float):
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                     tol: float = SIMPSON_TOL, max_depth: int = 50) -> float:
    """Integral of f over [a, b] to absolute tolerance ``tol``."""
    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    m, fm, whole = _simpson(f, a, fa, b, fb)

    def rec(a, fa, b, fb, m, fm, whole, tol, depth):
        lm, flm, left = _simpson(f, a, fa, m, fm)
        rm, frm, right = _simpson(f, m, fm, b, fb)
        if depth >= max_depth or abs(left + right - whole) <= 15.0 * tol:
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
