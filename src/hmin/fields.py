"""Planar scalar fields, grids, and the shared numerical kernels.

A ScalarField2 (fields ``exprs, domain``) evaluates a function given by
expression trees on a planar domain, with its first and second
derivatives: exact ones when it has the six trees of an analytic field,
central finite differences when it has f alone.  Every field has a
domain, which its difference stencils stay in; a field over the whole
plane has ``PlanarDomain(-inf, inf, -inf, inf)``.  Its ``value`` and
``jet`` take one point or a chunk of points (1-d arrays of at most
``CHUNK`` nodes, from ``chunks``); the other evaluators take one point.
A chunk of lattice nodes (``Grid2.node_chunks``, or ``Grid2.enumerated``
for a grid that several scans read) may come with its
lattice axes (``lattice_axes``), which ``jet`` hands to the array code,
moved with the nodes for each difference stencil: the work changes, the
floats do not.
The compile rule: every evaluator, f included, is compiled the first
time it is called (a ``functools.cached_property``), so a command
compiles only the code it runs.  Building a field compiles nothing: it
checks the variables of f (``expr.check_variables``), which is where an
unknown variable is reported.
The module also provides the fixed-step RK4 integrator used for
seed-curve tracing, and adaptive Simpson quadrature for integral-defined
curves and heights.  The integrator returns the traced points alone, and
ends a trace at the start of a step whose k2 turns back from its k1
(k1 . k2 <= 0), or after a step, not the first, that passes within
``CLOSE_TOL`` of the start point: a closed curve is traced once.  The
quadrature ``cumulative_integral`` runs the recursion of
``adaptive_simpson`` level by level over arrays, and gives its sums bit
for bit, with one call of the integrand per level.

Every callable the package stores has one contract: a domain's
membership predicate, a ``Profile``'s f, d1 and d2, a ``seed.SeedCurve``'s
closed forms, a quadrature integrand and a gallery radius law.  It takes
floats, or equally long 1-d float arrays where it takes floats, and
element i of its result (an array, or a tuple of arrays) is the float, or
bool, of its call at element i.  Written with ``+ - * /``, ``abs``,
comparisons and ``&`` (not ``and``/``or``, nor chained comparisons), with
``full`` for a constant and any other float function applied through
``expr.pointwise``, a callable keeps it by construction.

Numerical defaults (fixed):

* ``FD_STEP = 1e-5`` central-difference step for first derivatives,
* ``HESS_STEP = 5e-5`` step for value-based second differences (the
  larger step keeps the rounding error of the second difference at the
  1e-8 level; gradients still use FD_STEP),
* ``PROFILE_STEP = 1e-6`` difference step of a profile without analytic
  derivatives,
* ``RK4_STEP = 1e-2`` arclength step for curve tracing (seed tracing
  reads gamma'' from the height's 2-jet, so RK4's own error, not a
  difference stencil, sets the step).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import expr as ex
from .errors import FieldUndefined, StencilOutOfDomain

FD_STEP = 1e-5
HESS_STEP = 5e-5
PROFILE_STEP = 1e-6
RK4_STEP = 1e-2
SIMPSON_TOL = 1e-10
# A trace of the unit circle at RK4_STEP passes within 1.1e-5 of its start
# after one turn: the sagitta of the step's chord, as the traced points stay
# within 3e-12 of the circle.  CLOSE_TOL is about ten times that, and a
# hundred times below RK4_STEP, so a curve that only passes near its start
# goes on.
CLOSE_TOL = 1e-4
# rk4_integrate's own stop reasons
TURN_BACK = "field turns back: k1 . k2 <= 0"
CLOSED = f"curve closed: a step passed within {CLOSE_TOL:g} of the start point"
# nodes per array evaluation: bounds the temporaries generated array code
# keeps alive at once
CHUNK = 1024


def finite(v: float) -> bool:
    """Whether v is a finite float, or an int that converts to one."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def full(s, v: float):
    """v at every element of an array s, or v for a float s."""
    return np.full(len(s), v) if isinstance(s, np.ndarray) else v


@dataclass(frozen=True)
class PlanarDomain:
    """Axis-aligned bounds plus an optional membership predicate.

    ``membership(x, y)`` decides a point within the bounds; ``contains``
    calls it with floats, and ``contains_all`` once with the in-bounds
    points of its arrays.
    """

    xmin: float
    xmax: float
    ymin: float
    ymax: float
    membership: Optional[Callable[[float, float], bool]] = None

    def contains(self, x: float, y: float) -> bool:
        if not (self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax):
            return False
        return self.membership is None or bool(self.membership(x, y))

    def contains_all(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``contains`` at every point (x[i], y[i]), as a boolean array."""
        inside = (self.xmin <= x) & (x <= self.xmax) & (self.ymin <= y) & (y <= self.ymax)
        if self.membership is not None:
            inside[inside] = self.membership(x[inside], y[inside])
        return inside


def square(half: float) -> PlanarDomain:
    return PlanarDomain(-half, half, -half, half)


def _stencil_points(x, y, h: float) -> tuple:
    """The 8 points around (x, y) that the stencils of step h read, in the order they are checked."""
    return ((x + h, y), (x - h, y), (x, y + h), (x, y - h),
            (x + h, y + h), (x + h, y - h), (x - h, y + h), (x - h, y - h))


@dataclass
class ScalarField2:
    """A real function on a planar domain with derivative evaluators.

    ``exprs`` holds the trees of the field in x, y: f, then, when analytic,
    (fx, fy, fxx, fxy, fyy).  Construction checks the variables of f, which
    is where an unknown variable is reported, and compiles nothing; each
    evaluator (f, the gradient code, the scalar 2-jet and the array code of
    ``exprs``) is compiled the first time it is called, and kept.  A field
    with f alone is a *stencil field*: its gradient is central differences
    at ``FD_STEP`` and its Hessian second differences of the values at
    ``HESS_STEP``, read around (x, y), inside ``domain``.
    """

    exprs: tuple[ex.Expr, ...]
    domain: PlanarDomain

    def __post_init__(self):
        ex.check_variables(self.exprs[0], ("x", "y"))

    @property
    def analytic(self) -> bool:
        return len(self.exprs) == 6

    @cached_property
    def f(self) -> Callable:
        return ex.compile_fn(self.exprs[0], ("x", "y"))

    @cached_property
    def _grad(self) -> Callable:
        return ex.compile_fn(self.exprs[1:3], ("x", "y"))

    @cached_property
    def _jet(self) -> Callable:
        return ex.compile_fn(self.exprs, ("x", "y"))

    @cached_property
    def _array(self) -> Callable:
        return ex.compile_fn(self.exprs if self.analytic else self.exprs[0], ("x", "y"), array=True)

    # -- evaluation ---------------------------------------------------------

    def value(self, x, y):
        """f at (x, y), or at a chunk of nodes as ``jet`` takes them: an array,
        each element the float of the scalar f there."""
        if not isinstance(x, np.ndarray):
            return self.f(x, y)
        with np.errstate(all="ignore"):
            values = self._array(x, y)
        return values[0] if self.analytic else values

    def _check_stencil(self, x, y, h: float):
        dom = self.domain
        if isinstance(x, np.ndarray):
            return self._check_stencils(x, y, h)
        # the bounds of all 8 points at once: rounding is monotone and NaN
        # fails both forms, so this accepts exactly what the loop accepts
        inside = dom.xmin <= x - h and x + h <= dom.xmax and dom.ymin <= y - h and y + h <= dom.ymax
        if inside and dom.membership is None:
            return
        points = _stencil_points(x, y, h)
        if inside and all(dom.membership(px, py) for px, py in points):
            return
        for px, py in points:
            if not dom.contains(px, py):
                raise StencilOutOfDomain(f"stencil point ({px}, {py}) outside domain")

    def _check_stencils(self, x: np.ndarray, y: np.ndarray, h: float):
        """``_check_stencil`` at each node of a chunk: raises for the first
        failing node, and the error records its index as ``node``."""
        dom = self.domain
        # the bounds of a node's 8 points at once, as ``_check_stencil`` takes them
        ok = (dom.xmin <= x - h) & (x + h <= dom.xmax) & (dom.ymin <= y - h) & (y + h <= dom.ymax)
        if dom.membership is not None and ok.any():
            # the 8 stencil points of every node in bounds in one membership call
            px, py = (np.concatenate(c) for c in zip(*_stencil_points(x[ok], y[ok], h)))
            ok[ok] = dom.contains_all(px, py).reshape(8, -1).all(axis=0)
        if not ok.all():
            i = int(np.argmin(ok))
            try:
                self._check_stencil(float(x[i]), float(y[i]), h)
            except StencilOutOfDomain as err:
                err.node = i
                raise

    def _values(self, x, y, axes=None) -> Callable:
        """The code of ``exprs`` (f alone for a stencil field) at (x, y) moved
        by (dx, dy), a function of the move: at a point, or at a chunk of
        nodes with its lattice ``axes`` (see ``lattice_axes``), moved alike.

        A coordinate moved by 0 is the one given, -0.0 included, and
        x - h is read as x + (-h), the same float.
        """
        def at(v, d):
            return v + d if d else v

        if not isinstance(x, np.ndarray):
            code = self._jet if self.analytic else self.f
            return lambda dx, dy: code(at(x, dx), at(y, dy))
        if axes is None:
            return lambda dx, dy: self._array(at(x, dx), at(y, dy))
        (xs, i), (ys, j) = axes
        return lambda dx, dy: self._array(at(x, dx), at(y, dy),
                                          axes=((at(xs, dx), i), (at(ys, dy), j)))

    def _fd_gradient(self, x, y, axes=None) -> tuple:
        f, h = self._values(x, y, axes), FD_STEP
        self._check_stencil(x, y, h)
        return ((f(h, 0.0) - f(-h, 0.0)) / (2.0 * h),
                (f(0.0, h) - f(0.0, -h)) / (2.0 * h))

    def _stencil_hessian(self, x, y, f00=None, axes=None):
        """(fxx, fxy, fyy) of a stencil field by the 9-point symmetric stencil
        on values; ``f00`` is f(x, y) if known."""
        f, h = self._values(x, y, axes), HESS_STEP
        self._check_stencil(x, y, h)
        f00 = f(0.0, 0.0) if f00 is None else f00
        fxx = (f(h, 0.0) - 2.0 * f00 + f(-h, 0.0)) / (h * h)
        fyy = (f(0.0, h) - 2.0 * f00 + f(0.0, -h)) / (h * h)
        fxy = (f(h, h) - f(h, -h) - f(-h, h) + f(-h, -h)) / (4.0 * h * h)
        return (fxx, fxy, fyy)

    def gradient(self, x: float, y: float) -> tuple[float, float]:
        return tuple(self._grad(x, y)) if self.analytic else self._fd_gradient(x, y)

    def hessian(self, x: float, y: float) -> tuple[tuple[float, float], tuple[float, float]]:
        if self.analytic:
            _, _, _, fxx, fxy, fyy = self._jet(x, y)
        else:
            fxx, fxy, fyy = self._stencil_hessian(x, y)
        return ((fxx, fxy), (fxy, fyy))

    def jet(self, x, y, first: Optional[tuple] = None, axes: Optional[tuple] = None) -> tuple:
        """The 2-jet ``(f, fx, fy, fxx, fxy, fyy)`` at (x, y), each read once.

        A stencil field builds it in two steps, so that a scan can filter on
        the gradient before the Hessian stencil is checked: ``jet(x, y)``
        returns the 1-jet ``(f, fx, fy)`` and ``jet(x, y, first)`` completes
        it.  An analytic field returns the 2-jet at once, and passes it back
        as is.

        x and y may also be a chunk of nodes; the jet is then a
        tuple of arrays, evaluated by array code, whose elements are the
        floats of the scalar jet at each node.  A stencil check that fails
        raises for the first failing node of the chunk, and the error
        records its index in the chunk as ``node``.  ``axes`` are the
        chunk's lattice axes, if the caller has them (see ``lattice_axes``);
        they change the work, not the floats.
        """
        # on a chunk, IEEE results such as inf - inf = NaN are the point, not a warning
        with np.errstate(all="ignore"):
            if self.analytic:
                return first if first is not None else self._values(x, y, axes)(0.0, 0.0)
            if first is not None:
                return first + self._stencil_hessian(x, y, first[0], axes)
            return (self._values(x, y, axes)(0.0, 0.0), *self._fd_gradient(x, y, axes))

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_expr(src: str, domain: PlanarDomain) -> "ScalarField2":
        """Build a field from an expression in x, y with symbolic derivatives."""
        return ScalarField2.from_tree(ex.parse(src), domain)

    @staticmethod
    def from_tree(tree: ex.Expr, domain: PlanarDomain) -> "ScalarField2":
        """Build a field from a tree in x, y with symbolic derivatives."""
        dx = ex.differentiate(tree, "x")
        dy = ex.differentiate(tree, "y")
        trees = (tree, dx, dy, ex.differentiate(dx, "x"), ex.differentiate(dx, "y"),
                 ex.differentiate(dy, "y"))
        return ScalarField2(trees, domain)

    def fd_only(self) -> "ScalarField2":
        """The field of the same height with f alone (pure FD mode)."""
        return ScalarField2(self.exprs[:1], self.domain)


@dataclass(frozen=True)
class Grid2:
    """Inclusive nx-by-ny lattice over a domain, filtered by membership.

    Every 2-d sample set of the package comes from here: the domain's x and
    y may also be the (s, r) of a ruled chart or the (x, t) of a graph over
    the xt-plane.  ``mesh`` gives every lattice node, ``points`` the ones
    inside the domain, x-major, and ``node_chunks`` those a chunk at a time.
    """

    domain: PlanarDomain
    nx: int
    ny: int

    def lattice(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.linspace(self.domain.xmin, self.domain.xmax, self.nx),
                np.linspace(self.domain.ymin, self.domain.ymax, self.ny))

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """x and y of every lattice node, as (nx, ny) arrays."""
        return np.meshgrid(*self.lattice(), indexing="ij")

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """x and y of the nodes inside the domain, x-major."""
        x, y = self.mesh()
        inside = self.domain.contains_all(x, y)
        return x[inside], y[inside]

    def node_chunks(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, tuple]]:
        """The nodes of ``points``, at most CHUNK at a time: each chunk's flat
        indices into ``mesh``, its x and y, and its lattice axes."""
        xs, ys = self.lattice()
        x, y = np.meshgrid(xs, ys, indexing="ij")
        for (k,) in chunks(np.flatnonzero(self.domain.contains_all(x, y))):
            i, j = np.divmod(k, self.ny)
            yield k, x.flat[k], y.flat[k], (lattice_axes(xs, i), lattice_axes(ys, j))

    def enumerated(self) -> "GridNodes":
        """Every chunk of ``node_chunks`` at once, for a caller that scans
        this grid more than once; one scan streams ``node_chunks``."""
        return GridNodes(self, tuple(self.node_chunks()))


@dataclass(frozen=True, eq=False)
class GridNodes:
    """The node chunks of a ``Grid2``, enumerated once (``Grid2.enumerated``):
    the inside mask, the chunks and their axes, which every scan of the
    grid reads alike.  It is held by the caller that made it, so it lives
    no longer than the scans that share it."""

    grid: Grid2
    chunks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, tuple], ...]


def lattice_axes(axis: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The axis of a coordinate that a chunk of lattice nodes reads, and each
    node's index into it, so that ``u[i]`` is the nodes' coordinate: the
    slice of the lattice ``axis`` between the chunk's smallest and largest
    index ``index``.  The array code of ``expr.compile_fn`` takes these as
    its ``axes``, one per variable, and computes a subexpression in one
    variable once per entry of u.  A slice longer than the chunk is the
    chunk's own coordinates, so no axis is longer than its chunk."""
    lo, hi = int(index.min()), int(index.max())
    if hi - lo < len(index):
        return axis[lo:hi + 1], index - lo
    return axis[index], np.arange(len(index))


def select_axes(axes: Optional[tuple], keep) -> Optional[tuple]:
    """The axes of the nodes ``keep`` (a mask or a slice) of a chunk with ``axes``."""
    return None if axes is None else tuple((u, i[keep]) for u, i in axes)


def chunks(*arrays: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
    """Consecutive slices of at most CHUNK points of equally long arrays."""
    for i in range(0, len(arrays[0]), CHUNK):
        yield tuple(a[i:i + CHUNK] for a in arrays)


# ---------------------------------------------------------------------------
# 1-D profiles (height functions and seed coordinates)
# ---------------------------------------------------------------------------


class _ProfileCode:
    """A tree in s, given or derived on first use, called with a float s or
    an array of s: its float code and its array code are each compiled on
    their first call.  A tree without variables compiles nothing: it is
    its value, folded as ``compile_fn`` folds it, at every s."""

    def __init__(self, make_tree: Callable[[], ex.Expr]):
        self._make_tree = make_tree

    @cached_property
    def tree(self) -> ex.Expr:
        return self._make_tree()

    @cached_property
    def _float(self) -> Callable:
        return ex.compile_fn(self.tree, ("s",))

    @cached_property
    def _array(self) -> Callable:
        return ex.compile_fn(self.tree, ("s",), array=True)

    @cached_property
    def _constant(self) -> Optional[float]:
        return None if ex.variables(self.tree) else ex.evaluate(self.tree, {})

    def __call__(self, s):
        if self._constant is not None:
            return full(s, self._constant)
        return self._array(s) if isinstance(s, np.ndarray) else self._float(s)

    def derivative(self) -> "_ProfileCode":
        return _ProfileCode(lambda: ex.differentiate(self.tree, "s"))


@dataclass
class Profile:
    """A scalar function of one variable with optional analytic derivatives.

    f, d1 and d2 take a float s or a 1-d array of s, as every stored
    callable does (see the module docstring), and so do the profile and
    ``d``.  ``from_expr`` follows the compile rule of ``ScalarField2``.
    """

    f: Callable[[float], float]
    d1: Optional[Callable[[float], float]] = None
    d2: Optional[Callable[[float], float]] = None

    def __call__(self, s):
        return self.f(s)

    def d(self, s):
        if self.d1 is not None:
            return self.d1(s)
        h = PROFILE_STEP
        return (self.f(s + h) - self.f(s - h)) / (2.0 * h)

    @staticmethod
    def from_expr(src: str) -> "Profile":
        """A profile from an expression in s with symbolic derivatives.

        Building it checks the variables of f, which is where an unknown
        variable is reported, and compiles nothing: f's float and array
        code are each compiled on their first call, and f' and f'' are
        derived and compiled on theirs.
        """
        tree = ex.parse(src)
        ex.check_variables(tree, ("s",))
        f = _ProfileCode(lambda: tree)
        d1 = f.derivative()
        return Profile(f, d1, d1.derivative())


# ---------------------------------------------------------------------------
# ODE integration (classical fixed-step RK4)
# ---------------------------------------------------------------------------


@dataclass
class IntegratedCurve:
    """The points of an RK4 trace."""

    points: np.ndarray           # (n+1, 2), includes the start point
    stop_reason: Optional[str]   # None when all n_steps were taken


def _not_finite(x: float, y: float) -> FieldUndefined:
    return FieldUndefined(f"vector field not finite at ({x}, {y})")


def rk4_integrate(v: Callable[[float, float], Sequence[float]],
                  z0: tuple[float, float],
                  step: float,
                  n_steps: int) -> IntegratedCurve:
    """Trace the integral curve of ``v`` from ``z0`` with fixed-step RK4.

    Ends early, recording the reason, when the field cannot be evaluated at
    a stage point (``v`` raises, or returns a value that is not finite), or
    at the start of a step whose second stage slope turns back from its
    first (``k1 . k2 <= 0``, read before k3 and k4).  For a unit field the
    latter happens only across a point where the field flips direction, or
    where the curve bends by more than pi/step.  It also ends after a step,
    other than the first, whose segment passes within ``CLOSE_TOL`` of z0
    (``CLOSED``).  ``v`` is called once per stage point, straight from the
    loop.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    pts = [(float(z0[0]), float(z0[1]))]
    reason = None
    x, y = x0, y0 = pts[0]
    half = 0.5 * step  # 0.5 * step * k parses as (0.5 * step) * k
    near = 2.0 * CLOSE_TOL * CLOSE_TOL
    finite = math.isfinite
    for i in range(n_steps):
        try:
            k1x, k1y = v(x, y)
            if not (finite(k1x) and finite(k1y)):
                raise _not_finite(x, y)
            ax, ay = x + half * k1x, y + half * k1y
            k2x, k2y = v(ax, ay)
            if not (finite(k2x) and finite(k2y)):
                raise _not_finite(ax, ay)
            if k1x * k2x + k1y * k2y <= 0.0:
                reason = TURN_BACK
                break
            ax, ay = x + half * k2x, y + half * k2y
            k3x, k3y = v(ax, ay)
            if not (finite(k3x) and finite(k3y)):
                raise _not_finite(ax, ay)
            ax, ay = x + step * k3x, y + step * k3y
            k4x, k4y = v(ax, ay)
            if not (finite(k4x) and finite(k4y)):
                raise _not_finite(ax, ay)
        except (FieldUndefined, StencilOutOfDomain) as err:
            reason = f"{type(err).__name__}: {err}"
            break
        px, py = x, y
        x += step * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0
        y += step * (k1y + 2.0 * k2y + 2.0 * k3y + k4y) / 6.0
        pts.append((x, y))
        # a step of length L that passes within CLOSE_TOL of z0 ends within
        # L + CLOSE_TOL of it, so (L + CLOSE_TOL)^2 <= 2 L^2 + near bounds
        # the steps worth the exact test
        ux, uy, wx, wy = x - px, y - py, x - x0, y - y0
        if (i and wx * wx + wy * wy <= 2.0 * (ux * ux + uy * uy) + near
                and _gap(px, py, x, y, x0, y0) <= CLOSE_TOL):
            reason = CLOSED
            break
    return IntegratedCurve(np.array(pts), reason)


def _gap(ax: float, ay: float, bx: float, by: float, x0: float, y0: float) -> float:
    """The distance from (x0, y0) to the segment from (ax, ay) to (bx, by)."""
    ux, uy, wx, wy = bx - ax, by - ay, x0 - ax, y0 - ay
    length2 = ux * ux + uy * uy
    t = min(1.0, max(0.0, (wx * ux + wy * uy) / length2)) if length2 > 0.0 else 0.0
    return math.hypot(wx - t * ux, wy - t * uy)


# ---------------------------------------------------------------------------
# Quadrature (adaptive Simpson, halved level by level over arrays)
# ---------------------------------------------------------------------------


def _simpson(f: Callable[[float], float], a: float, fa: float, b: float, fb: float):
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                     tol: float = SIMPSON_TOL) -> float:
    """Integral of f over [a, b] to absolute tolerance ``tol``.

    An interval stops halving at depth 50, or where its error estimate is
    not finite; its value is then NaN or inf.
    """
    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    m, fm, whole = _simpson(f, a, fa, b, fb)

    def rec(a, fa, b, fb, m, fm, whole, tol, depth):
        lm, flm, left = _simpson(f, a, fa, m, fm)
        rm, frm, right = _simpson(f, m, fm, b, fb)
        err = left + right - whole
        if depth >= 50 or not math.isfinite(err) or abs(err) <= 15.0 * tol:
            return left + right + err / 15.0
        return (rec(a, fa, m, fm, lm, flm, left, tol / 2.0, depth + 1)
                + rec(m, fm, b, fb, rm, frm, right, tol / 2.0, depth + 1))

    return rec(a, fa, b, fb, m, fm, whole, tol, 0)


@np.errstate(all="ignore")  # IEEE results such as inf - inf = NaN are the recursion's too
def cumulative_integral(f: Callable[[float], float], grid: np.ndarray,
                        tol: float = SIMPSON_TOL) -> np.ndarray:
    """Antiderivative values of f at the (sorted) grid points, zero at grid[0].

    Each value is the running sum of ``adaptive_simpson`` over the grid
    intervals before it, bit for bit.  The recursion runs level by level
    over arrays, with its own arithmetic: f is evaluated once at the grid
    nodes, once at the interval midpoints, and once per depth at the
    quarter points of every interval still halving, each time with one
    array.
    """
    out = np.zeros(len(grid))
    grid = np.asarray(grid, dtype=float)
    live = np.flatnonzero(~(grid[:-1] == grid[1:]))  # a zero-width interval adds 0.0
    if not len(live):
        return out
    fg = f(grid)
    a, b, fa, fb = grid[:-1][live], grid[1:][live], fg[:-1][live], fg[1:][live]
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    levels = []  # per depth: each interval's leaf value, and whether it halves
    while len(a):
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        fq = f(np.concatenate((lm, rm)))
        flm, frm = fq[:len(a)], fq[len(a):]
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = left + right - whole
        k = np.isfinite(err) & (abs(err) > 15.0 * tol) & (len(levels) < 50)
        levels.append((left + right + err / 15.0, k))
        # the halves of the i-th interval that halves go to 2i (left) and 2i + 1 (right)
        a, fa, b, fb, m, fm, whole = (np.column_stack(pair).ravel() for pair in (
            (a[k], m[k]), (fa[k], fm[k]), (m[k], b[k]), (fm[k], fb[k]),
            (lm[k], rm[k]), (flm[k], frm[k]), (left[k], right[k])))
        tol = tol / 2.0
    # a halved interval's value is its left half's plus its right half's
    value = np.empty(0)
    for leaf, halved in reversed(levels):
        leaf[halved] = value[0::2] + value[1::2]
        value = leaf
    out[1 + live] = value
    return np.cumsum(out)
