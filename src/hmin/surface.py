"""Horizontal-geometry operators on surfaces.

For a graph t = h(x, y) the defining function is phi = t - h, so

    p = X1 phi = -(h_x + y/2),   q = X2 phi = -(h_y - x/2),
    W = sqrt(p^2 + q^2)

and the projected horizontal Gauss map is nu = (a, b) = (p, q)/W, defined
off the characteristic set {W = 0}.  The H-mean curvature is the planar
divergence of nu, written out as

    H = (b^2 p_x + a^2 q_y - a b (q_x + p_y)) / W

from the height's 2-jet (``nu_divergence``, graphs and level sets alike).
|a| and |b| are at most about 1 and W enters once, so a large W overflows
nothing.  The tests hold it against the divergence form, which differences
the unit field.  The convention has its one home here: ``graph_pq`` gives
(p, q) from the gradient, ``graph_dpq`` gives D(p, q) = (p_x, p_y, q_x,
q_y) from the Hessian, ``w_from_pq`` W from (p, q) and ``horizontal_data``
W at graph nodes; no other module writes them out.

Implicit surfaces phi(x, y, t) = 0 are oriented by phi, and no check reads
the sign: negating phi negates H and keeps W.  They follow the compile rule of
``fields.ScalarField2``: building a surface checks the variables of phi
and compiles nothing; phi is compiled on its first call, and phi_t, p, q
and their partials are derived and compiled on theirs.  All
of it is array code: phi, ``horizontal_data``, ``h_mean_curvature`` and
the Newton ``solve_height`` take nodes (x, y, t) as 1-d arrays.
Curvature at characteristic points is deliberately left undefined: the
scan reports the locus instead.
``characteristic_scan`` flags the lattice nodes of a ``ScanLattice`` where
W < EPS_CHAR and groups them into 8-connected components.  It reports nodes
only; a component's representative is the mean of its nodes.

Those three take floats or equally long arrays.  So do ``horizontal_data``
and ``h_mean_curvature``, given a chunk of graph nodes as 1-d arrays x
and y together with the height field's jet there (``ScalarField2.jet``);
every element is the float the same call gives at that node.  W is
``w_from_pq``, sqrt(p*p + q*q) with math.hypot where p*p + q*q is not a
finite normal float, and H takes only + - * / of it: those and sqrt round
alike in numpy and in floats.  ``read_nodes`` is the one pass over a chunk
that the curvature scan (``max_curvature_deviation``) and the classifier
share: the height's jet, then W, then H where W is not <= W_MARGIN, W read
once per node.  The curvature scan reads the chunks of a ``Grid2`` lattice
with their axes (``Grid2.node_chunks``), so the height's subexpressions
in x alone or y alone are computed once per lattice coordinate.  It is
the one read of a lattice: it keeps the height and W it reads in a
``ScanLattice``, and ``characteristic_scan`` clusters that record, so
checking both halves of a graph over one lattice reads each node once.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import expr as ex
from .errors import CharacteristicPoint, FieldUndefined, StencilOutOfDomain
from .fields import Grid2, PlanarDomain, ScalarField2, select_axes
from .heis import HPoint
from .report import worst_abs

EPS_CHAR = 1e-9
W_MARGIN = 1e-3  # curvature is read only where W exceeds this
_NORMAL_MIN = sys.float_info.min  # the smallest normal float
TOL_H_ANALYTIC = 1e-8   # on |H| of a graph with analytic derivatives
TOL_H_FD = 1e-4         # on |H| of a graph whose derivatives are difference stencils


@dataclass
class GraphPatch:
    """A surface patch t = h(x, y) over a planar domain."""

    domain: PlanarDomain
    h: ScalarField2

    @staticmethod
    def from_expr(src: str, domain: PlanarDomain) -> "GraphPatch":
        return GraphPatch(domain, ScalarField2.from_expr(src, domain))

    def fd_only(self) -> "GraphPatch":
        return GraphPatch(self.domain, self.h.fd_only())

    @property
    def analytic(self) -> bool:
        return self.h.analytic

    def point(self, x: float, y: float) -> HPoint:
        t = self.h.value(x, y)
        if not math.isfinite(t):
            raise FieldUndefined(f"height not finite at ({x}, {y})")
        return HPoint(x, y, t)


def graph_pq(hx, hy, x, y) -> tuple:
    """(p, q) of a graph from its gradient (hx, hy) at (x, y)."""
    return (-(hx + 0.5 * y), -(hy - 0.5 * x))


def graph_dpq(hxx, hxy, hyy) -> tuple:
    """D(p, q) of a graph, (p_x, p_y, q_x, q_y), from its Hessian."""
    return (-hxx, -(hxy + 0.5), -(hxy - 0.5), -hyy)


def _pq(patch: GraphPatch, x, y, jet: Optional[tuple] = None) -> tuple:
    hx, hy = patch.h.gradient(x, y) if jet is None else (jet[1], jet[2])
    return graph_pq(hx, hy, x, y)


def w_from_pq(p, q):
    """W = sqrt(p*p + q*q), from floats p and q or equally long arrays.

    Where p*p + q*q is not a finite normal float (|p| or |q| above about
    1.3e154, both below about 1.5e-154, an inf or a NaN), W is math.hypot(p,
    q) there instead, so every finite (p, q) has a finite W; at p = q = 0
    both give 0.  numpy rounds + * and sqrt as floats do, so each element
    of an array's W is the float W of that element's p and q.
    """
    if isinstance(p, np.ndarray) or isinstance(q, np.ndarray):
        with np.errstate(all="ignore"):
            s = p * p + q * q
            w = np.sqrt(s)
        normal = (s >= _NORMAL_MIN) & (s < math.inf)
        if not normal.all():
            odd = np.flatnonzero(~(normal | (p == 0.0) & (q == 0.0)))
            if odd.size:
                p, q = np.broadcast_arrays(p, q)
                w[odd] = ex.pointwise(math.hypot, p[odd], q[odd])
        return w
    s = p * p + q * q
    return math.sqrt(s) if _NORMAL_MIN <= s < math.inf or p == q == 0.0 else math.hypot(p, q)


def horizontal_data(patch: GraphPatch, z: tuple, jet: Optional[tuple] = None):
    """W (``w_from_pq``) at z; ``jet`` is the field's jet at z, if the caller has it.

    z may be a chunk of nodes (x, y), given with its jet; W is then an array.
    """
    return w_from_pq(*_pq(patch, z[0], z[1], jet))


def unit_horizontal_field(patch: GraphPatch,
                          reverse: bool = False) -> Callable[[float, float], tuple[float, float]]:
    """The planar unit field nu = (p, q)/W on the patch domain, or -nu with
    ``reverse`` (bit for bit the negated values).

    Raises FieldUndefined off the domain or where W <= EPS_CHAR (analytic
    evaluators would otherwise happily extend past the declared domain).
    """
    dom = patch.domain

    def nu(x: float, y: float) -> tuple[float, float]:
        if not dom.contains(x, y):
            raise FieldUndefined(f"({x}, {y}) outside the patch domain")
        p, q = _pq(patch, x, y)
        if reverse:
            # -(a / w) == (-a) / w exactly, so -nu flips the sign of p and q instead
            p, q = -p, -q
        w = w_from_pq(p, q)
        if not math.isfinite(w) or w <= EPS_CHAR:
            raise FieldUndefined(f"horizontal Gauss map undefined at ({x}, {y}), W={w}")
        return (p / w, q / w)

    return nu


def _refuse_characteristic(w, *z):
    """Raise CharacteristicPoint at the first of the nodes z where W <= EPS_CHAR."""
    at = np.flatnonzero(np.atleast_1d(w <= EPS_CHAR))
    if at.size:
        w, *z = (np.atleast_1d(v)[at[0]].item() for v in (w, *z))
        raise CharacteristicPoint(f"W={w} at ({', '.join(map(str, z))})")


def _curvature_terms(patch: GraphPatch, x, y, jet: Optional[tuple], axes: Optional[tuple] = None,
                     w=None):
    """p, q, W and (p_x, p_y, q_x, q_y) at a non-characteristic point, or
    at a chunk of them (given with its jet, and its lattice axes and W if
    the caller has them).

    W is tested before the Hessian is read (a 1-jet is completed only then).
    """
    p, q = _pq(patch, x, y, jet)
    w = w_from_pq(p, q) if w is None else w
    _refuse_characteristic(w, x, y)
    if jet is None:
        (hxx, hxy), (_, hyy) = patch.h.hessian(x, y)
    else:
        _, _, _, hxx, hxy, hyy = patch.h.jet(x, y, jet, axes)
    return (p, q, w) + graph_dpq(hxx, hxy, hyy)


def nu_divergence(p, q, w, p_x, p_y, q_x, q_y):
    """H = div nu from the terms of ``_curvature_terms``, nu = (a, b) = (p, q)/W; a
    level set gives the derivatives of its p and q along X1 and X2."""
    a, b = p / w, q / w
    return (b * b * p_x + a * a * q_y - a * b * (q_x + p_y)) / w


def h_mean_curvature(patch: GraphPatch, z: tuple, jet: Optional[tuple] = None,
                     axes: Optional[tuple] = None, w=None):
    """H-mean curvature at a non-characteristic point of the patch.

    Returns div nu (``nu_divergence``), read from ``jet`` (the field's jet at z)
    when given.  z may also be a chunk of nodes (x, y), given with its
    jet, and with its lattice axes (``fields.lattice_axes``) and W
    (``horizontal_data``'s) where the caller has them; the result is then
    an array.
    """
    # on a chunk, IEEE results such as inf - inf = NaN are the point, not a warning
    with np.errstate(all="ignore"):
        return nu_divergence(*_curvature_terms(patch, *z, jet, axes, w))


def read_nodes(patch: GraphPatch, x: np.ndarray, y: np.ndarray,
               axes: Optional[tuple] = None) -> tuple:
    """The height's jet, then W, then H where the height is finite and W is
    not <= W_MARGIN (a NaN W included), at a chunk of graph nodes, given
    with its lattice axes (``fields.lattice_axes``) if the caller has them.

    Returns (height, W, H, error), read node by node.  A stencil check that
    fails ends the reads at its node, and is returned as ``error`` (None
    if none fails) after every earlier node has been read: height and W
    run up to the first failed gradient stencil, H (NaN where it is not
    read) up to the failed node, ``len(H)``.  Every float is the one of the
    scalar calls at that node.
    """
    try:
        jet = patch.h.jet(x, y, axes=axes)
    except StencilOutOfDomain as err:
        # the nodes before it are read first, and one of them may fail its Hessian stencil
        head = slice(err.node)
        t, w, h, error = read_nodes(patch, x[head], y[head], select_axes(axes, head))
        return t, w, h, error or err
    w = horizontal_data(patch, (x, y), jet=jet)
    h = np.full(len(x), math.nan)
    keep = ~(w <= W_MARGIN) & np.isfinite(jet[0])
    if keep.any():
        try:
            h[keep] = h_mean_curvature(patch, (x[keep], y[keep]), jet=tuple(a[keep] for a in jet),
                                       axes=select_axes(axes, keep), w=w[keep])
        except StencilOutOfDomain as err:
            err.node = int(np.flatnonzero(keep)[err.node])
            head = slice(err.node)
            _, _, h, _ = read_nodes(patch, x[head], y[head], select_axes(axes, head))
            return jet[0], w, h, err
    return jet[0], w, h, None


class ScanLattice:
    """W and the height's finiteness at the nodes of a ``Grid2``, as
    (nx, ny) arrays over its lattice: what ``characteristic_scan``
    clusters.  A node outside the domain is not ``inside``, and its W is
    inf.

    ``max_curvature_deviation`` fills one as it reads the nodes; it is
    the one read of a lattice, so a scan of the same grid reads no node
    again.
    """

    def __init__(self, grid: Grid2):
        self.grid = grid
        self.xs, self.ys = grid.lattice()
        shape = (len(self.xs), len(self.ys))
        self.inside = np.zeros(shape, dtype=bool)
        self.no_height = np.zeros(shape, dtype=bool)
        self.w = np.full(shape, np.inf)

    def add(self, nodes: np.ndarray, t: np.ndarray, w: np.ndarray) -> None:
        """The height t and W at the nodes of a chunk (flat lattice indices)."""
        # the arrays are C-contiguous, so ravel() is a view of each
        self.inside.ravel()[nodes] = True
        self.no_height.ravel()[nodes] = ~np.isfinite(t)
        self.w.ravel()[nodes] = w


def max_curvature_deviation(patch: GraphPatch, domain: PlanarDomain,
                            nx: int = 101, ny: int = 101, expect: float = 0.0,
                            lattice: Optional[ScanLattice] = None) -> float:
    """max |H - expect| over non-characteristic grid nodes (W > W_MARGIN).

    A node whose W is NaN is not skipped, and a node where the height is
    not finite counts as NaN, so either makes the result NaN.  So does a
    scan that evaluates no node at all.  The nodes are read by
    ``read_nodes`` one chunk at a time, and every float, and the
    first StencilOutOfDomain, is the one a node-by-node scan gives.
    ``lattice``, a ``ScanLattice`` of this grid, takes the height and W
    of every node read; it is whole once the scan returns.
    """
    grid = Grid2(domain, nx, ny)
    if lattice is not None and lattice.grid != grid:
        raise ValueError(f"a lattice of {lattice.grid} given for {grid}")
    deviations = [np.empty(0)]
    for nodes, x, y, axes in grid.node_chunks():
        t, w, h, error = read_nodes(patch, x, y, axes)
        if error is not None:
            raise error
        if lattice is not None:
            lattice.add(nodes, t, w)
        deviations.append(h[~(w <= W_MARGIN)] - expect)
    return worst_abs(np.concatenate(deviations))


# ---------------------------------------------------------------------------
# Symmetries: left translation and rotation about the t-axis
# ---------------------------------------------------------------------------


def _moved(patch: GraphPatch, tree: ex.Expr, domain: PlanarDomain) -> GraphPatch:
    """The graph of the moved height ``tree`` over ``domain``; its derivatives
    are symbolic when those of ``patch`` are, and differences otherwise."""
    h = ScalarField2.from_tree(tree, domain) if patch.analytic else ScalarField2((tree,), domain)
    return GraphPatch(domain, h)


def translate_graph(patch: GraphPatch, g0: HPoint) -> GraphPatch:
    """Left-translate a graph patch; the image is again a graph.

    The planar part translates by (x0, y0) and the height becomes
    h(x - x0, y - y0) + t0 - ((x - x0) y0 - x0 (y - y0))/2, so p and q (and
    hence the curvature) are carried along exactly: acceptance criterion 11.
    The new height is that expression tree, so its derivatives are exact
    symbolic ones when those of h are, and central differences when h has
    none.
    """
    # plain floats: the literals of a tree are compiled as their repr
    x0, y0, t0 = float(g0.x), float(g0.y), float(g0.t)
    dom = patch.domain
    m = dom.membership
    membership = None if m is None else lambda x, y: m(x - x0, y - y0)  # noqa: E731
    new_dom = PlanarDomain(dom.xmin + x0, dom.xmax + x0, dom.ymin + y0, dom.ymax + y0,
                           membership)
    u, v = ex.sub(ex.Var("x"), ex.Num(x0)), ex.sub(ex.Var("y"), ex.Num(y0))
    shear = ex.mul(ex.Num(0.5), ex.sub(ex.mul(u, ex.Num(y0)), ex.mul(ex.Num(x0), v)))
    tree = ex.sub(ex.add(ex.substitute(patch.h.exprs[0], {"x": u, "y": v}), ex.Num(t0)), shear)
    return _moved(patch, tree, new_dom)


def rotate_graph(patch: GraphPatch, theta: float) -> GraphPatch:
    """Rotate a graph patch about the t-axis; the image is again a graph
    with the rotated curvature (acceptance criterion 11).

    The new height is h(c x + s y, -s x + c y) (c = cos theta, s = sin
    theta) as an expression tree, so its derivatives are exact symbolic
    ones when those of h are, and central differences when h has none.
    """
    c, s = math.cos(theta), math.sin(theta)
    dom = patch.domain
    xs, ys = zip(*((c * px - s * py, s * px + c * py)
                   for px in (dom.xmin, dom.xmax) for py in (dom.ymin, dom.ymax)))

    def membership(x, y):
        # the point rotated back, in the old domain
        bx, by = c * x + s * y, -s * x + c * y
        return dom.contains_all(bx, by) if isinstance(x, np.ndarray) else dom.contains(bx, by)

    new_dom = PlanarDomain(min(xs), max(xs), min(ys), max(ys), membership)
    x, y = ex.Var("x"), ex.Var("y")
    back = {"x": ex.add(ex.mul(ex.Num(c), x), ex.mul(ex.Num(s), y)),
            "y": ex.add(ex.mul(ex.Num(-s), x), ex.mul(ex.Num(c), y))}
    return _moved(patch, ex.substitute(patch.h.exprs[0], back), new_dom)


# ---------------------------------------------------------------------------
# Characteristic-locus scan on a planar grid
# ---------------------------------------------------------------------------


@dataclass
class ScanComponent:
    nodes: list[tuple[float, float]]          # grid nodes (x, y) with W < EPS_CHAR

    @property
    def representative(self) -> tuple[float, float]:
        """The mean of the component's nodes."""
        c = np.array(self.nodes).mean(axis=0)
        return (float(c[0]), float(c[1]))


@dataclass
class CharacteristicScan:
    components: list[ScanComponent]
    undefined_w: int   # nodes where W is not finite: neither flagged nor clear

    @property
    def empty(self) -> bool:
        return not self.components


def characteristic_scan(lattice: ScanLattice) -> CharacteristicScan:
    """Lattice nodes with W < EPS_CHAR, grouped into 8-connected components.

    W and the height are those of ``lattice``, which
    ``max_curvature_deviation`` filled.  The height must be finite at
    every flagged node: where it is not, the surface is undefined there,
    and FieldUndefined names the first such node in lattice order.
    """
    xs, ys, inside, w = lattice.xs, lattice.ys, lattice.inside, lattice.w
    ni, nj = w.shape
    flagged = inside & (w < EPS_CHAR)
    undefined = np.argwhere(flagged & lattice.no_height)
    if len(undefined):
        i, j = undefined[0]
        raise FieldUndefined(f"height not finite at ({float(xs[i])}, {float(ys[j])})")

    # cluster flagged nodes into 8-connected components
    comp = -np.ones((ni, nj), dtype=int)
    comps: list[list[tuple[int, int]]] = []
    for i, j in np.argwhere(flagged).tolist():
        if comp[i, j] < 0:
            stack = [(i, j)]
            comp[i, j] = len(comps)
            members = []
            while stack:
                ci, cj = stack.pop()
                members.append((ci, cj))
                for di in (-1, 0, 1):
                    for dj in (-1, 0, 1):
                        ai, aj = ci + di, cj + dj
                        if 0 <= ai < ni and 0 <= aj < nj and flagged[ai, aj] and comp[ai, aj] < 0:
                            comp[ai, aj] = len(comps)
                            stack.append((ai, aj))
            comps.append(members)

    out = [ScanComponent([(float(xs[i]), float(ys[j])) for i, j in members]) for members in comps]
    return CharacteristicScan(out, int(np.count_nonzero(inside & ~np.isfinite(w))))


# ---------------------------------------------------------------------------
# Implicit surfaces phi(x, y, t) = 0
# ---------------------------------------------------------------------------


_XYT = ("x", "y", "t")


@dataclass
class ImplicitSurface:
    """Level set phi = 0, oriented by the sign of phi.

    ``tree`` is phi; construction checks its variables, which is where an
    unknown variable is reported, and compiles nothing.  phi is compiled
    on its first call.  ``trees`` (phi, phi_t, p = X1 phi, q = X2 phi,
    then the partials of p and q in x, y and t) is derived the first time
    the (p, q), phi_t or curvature-term code is called and compiled.  It
    is array code: phi and the methods take nodes (x, y, t) as arrays.
    """

    tree: ex.Expr

    def __post_init__(self):
        ex.check_variables(self.tree, _XYT)

    @cached_property
    def phi(self) -> Callable:
        return ex.compile_fn(self.tree, _XYT, array=True)

    @cached_property
    def trees(self) -> tuple[ex.Expr, ...]:
        dt = ex.differentiate(self.tree, "t")
        half_y = ex.div(ex.Var("y"), ex.Num(2.0))
        half_x = ex.div(ex.Var("x"), ex.Num(2.0))
        p = ex.sub(ex.differentiate(self.tree, "x"), ex.mul(half_y, dt))   # X1 phi
        q = ex.add(ex.differentiate(self.tree, "y"), ex.mul(half_x, dt))   # X2 phi
        partials = [ex.differentiate(f, v) for f in (p, q) for v in _XYT]
        return (self.tree, dt, p, q, *partials)

    @cached_property
    def _pq(self) -> Callable:
        return ex.compile_fn(self.trees[2:4], _XYT, array=True)

    @cached_property
    def _dt(self) -> Callable:
        return ex.compile_fn(self.trees[1], _XYT, array=True)

    @cached_property
    def _curv(self) -> Callable:
        return ex.compile_fn(self.trees[2:], _XYT, array=True)

    @staticmethod
    def from_expr(src: str) -> "ImplicitSurface":
        return ImplicitSurface(ex.parse(src))

    def horizontal_data(self, x, y, t) -> np.ndarray:
        return w_from_pq(*self._pq(x, y, t))

    def h_mean_curvature(self, x, y, t) -> np.ndarray:
        """H = div nu (``nu_divergence``) at non-characteristic nodes; raises
        CharacteristicPoint for the first node where W <= EPS_CHAR."""
        p, q, p_x, p_y, p_t, q_x, q_y, q_t = self._curv(x, y, t)
        # IEEE results such as inf - inf = NaN are the point, not a warning
        with np.errstate(all="ignore"):
            # the derivatives of p and q along X1 and X2
            x1p, x2p = p_x - 0.5 * y * p_t, p_y + 0.5 * x * p_t
            x1q, x2q = q_x - 0.5 * y * q_t, q_y + 0.5 * x * q_t
            w = w_from_pq(p, q)
            _refuse_characteristic(w, x, y, t)
            return nu_divergence(p, q, w, x1p, x2p, x1q, x2q)

    def solve_height(self, x, y, t0) -> np.ndarray:
        """t with phi(x, y, t) = 0 at each node by 1-D Newton from t0, NaN
        where it fails: at most 60 steps, over the nodes still iterating; a
        node stops at |phi| < 1e-12, or where phi_t is 0 or not finite, and
        is accepted if |phi| < 1e-9 where it stops."""
        t = np.full(len(x), t0, dtype=float)
        live = np.arange(len(x))               # the nodes still iterating
        unsolved = np.ones(len(x), dtype=bool)  # no |phi| < 1e-12 yet
        with np.errstate(all="ignore"):
            for _ in range(60):
                if not live.size:
                    break
                val = self.phi(x[live], y[live], t[live])
                going = ~(abs(val) < 1e-12)
                unsolved[live[~going]] = False
                live, val = live[going], val[going]
                if not live.size:
                    break
                dt = self._dt(x[live], y[live], t[live])
                step = (dt != 0.0) & np.isfinite(dt)
                live = live[step]
                t[live] -= val[step] / dt[step]
            rest = np.flatnonzero(unsolved)
            if rest.size:
                t[rest[~(abs(self.phi(x[rest], y[rest], t[rest])) < 1e-9)]] = math.nan
        return t
