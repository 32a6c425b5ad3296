"""Ruled H-minimal surfaces built from a seed curve and a height function.

A pair (gamma, h0) determines the surface patch

    embed(s, r) = (F(s, r), h0(s) - (r/2) <gamma(s), gamma'(s)>)

whose rules r -> embed(s, r) are straight lines and Carnot-Caratheodory
geodesics; in group form a rule is d(s) o delta_r v(s) with
d(s) = (gamma(s), h0(s)) and v(s) = (gamma2', -gamma1', 0).

The angle function W restricted to the chart satisfies the Frobenius ODE
W_r = 1 + kappa W / (1 - r kappa) with closed-form solution

    W(s, r) = (W0(s) + r - (r^2/2) kappa(s)) / (1 - r kappa(s)),
    W0(s)   = -h0'(s) + (1/2)(gamma1 gamma2' - gamma2 gamma1').

W(s, r) is signed: the reconstructed graph's angle function is |W(s, r)|
and its Gauss map is sign(W) * gamma'(s).  The characteristic locus is
the zero set of the numerator, solved per s:

    kappa ~ 0        ->  single root r = -W0(s)
    D = 1 + 2 W0 k   ->  two roots r = 1/k +- sqrt(D)/k   (D > 0)
                         double root r = 1/k              (D = 0)
                         no root                          (D < 0)

Every reported root is re-verified against the angle function computed
directly from the reconstructed graph, which is also the oracle that
pins down the sign conventions above; its p and q are ``surface.graph_pq``
of the chain-rule gradient, as are those of the unit field ``_chart_nu``.

``RuledPatch.w0``, ``w``, ``w_ode_residual``, ``height`` and ``embed``,
``w_direct``, ``_chart_nu`` and ``curvature_on_patch`` take floats s, r
or 1-d arrays of them, with the rules of ``seed``: each element is the
float of the scalar call, h0 is called once with the array, W is
``surface.w_from_pq`` of the chart's (p, q), and an array call raises
what the first failing scalar call would.  The chart samples are arrays,
and the locus is solved and verified over all sampled s at once.
``invert_chart``, ``w_direct_invert`` (``w_direct`` by Newton inversion of
F) and ``rule`` stay scalar, as the independent oracles.

The graphs that ``roundtrip`` and ``classify_entire_graph`` read follow
the compile rule of ``fields.ScalarField2``: the height's gradient, 2-jet
and array code are compiled the first time they are called.
``classify_entire_graph`` tells a straight seed from a circular one by
``constant_curvature_test`` on its extracted seed, as a one-piece GSC.
``validate_gsc`` gives the largest planar gap at a GSC's joins, and
``LociReport.singular`` the seed's singular branches inside ``s_range``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import expr as ex
from .errors import CharacteristicPoint, FieldUndefined, HminError, OutOfRange, SingularRule
from .fields import FD_STEP, Grid2, PlanarDomain, Profile
from .heis import HPoint, dilate, group_mul
from .report import worst_abs
from .seed import (SeedCurve, curvature, extract_seed, rule_from, rule_jacobian,
                   rule_jacobian_det, rule_point, singular_locus, takes_arrays, EPS_KAPPA)
from .surface import EPS_CHAR, TOL_H_FD, W_MARGIN, GraphPatch, graph_pq, read_nodes, w_from_pq

EPS_DELTA = 1e-9
DET_GUARD = 0.1
FOLD_GUARD = 0.15   # chart samples keep |-1 + r kappa| above this
KAPPA_SAMPLES = 41  # curvature samples per GSC piece (constant_curvature_test)


@takes_arrays
def _inner(curve: SeedCurve, s):
    g, d = curve.point(s), curve.tangent(s)
    return g[0] * d[0] + g[1] * d[1]


@dataclass
class RuledPatch:
    """A seed-and-height surface patch.

    ``r_range`` is the rule-parameter interval shared by every rule, or
    None for all of R (an extended graph).
    """

    seed: SeedCurve
    h0: Profile
    s_range: tuple[float, float]
    r_range: Optional[tuple[float, float]] = (-1.0, 1.0)

    def _off_range(self, s):
        """Whether s is outside ``s_range`` by more than 1e-9, at each element over arrays."""
        return (s < self.s_range[0] - 1e-9) | (s > self.s_range[1] + 1e-9)

    def _check_s(self, s):
        # over arrays, the replay of ``takes_arrays`` names the first s rejected
        if np.any(self._off_range(s)):
            raise OutOfRange(f"s={s} outside {self.s_range}")

    @takes_arrays
    def height(self, s, r):
        return rule_height(*self.height_terms(s), r)

    def height_terms(self, s) -> tuple:
        """h0(s) and <gamma(s), gamma'(s)>, what ``height`` reads at s."""
        self._check_s(s)
        return self.h0(s), _inner(self.seed, s)

    @takes_arrays
    def embed(self, s, r):
        """The point over (s, r); over arrays of s and r, the arrays (x, y, t)."""
        x, y = rule_point(self.seed, s, r)
        t = self.height(s, r)
        if not isinstance(t, np.ndarray):
            if not math.isfinite(t):
                raise FieldUndefined(f"height not finite at (s={s}, r={r})")
            return HPoint(x, y, t)
        if not (np.isfinite(x) & np.isfinite(y) & np.isfinite(t)).all():
            raise FieldUndefined("embedding not finite")  # the replay names the element
        return x, y, t

    @takes_arrays
    def w0(self, s):
        """Angle function along the seed: -h0' + (gamma1 gamma2' - gamma2 gamma1')/2."""
        self._check_s(s)
        g, d = self.seed.point(s), self.seed.tangent(s)
        return -self.h0.d(s) + 0.5 * (g[0] * d[1] - g[1] * d[0])

    @takes_arrays
    def w(self, s, r):
        """Signed angle function on the chart (Frobenius closed form)."""
        kap = curvature(self.seed, s)
        den = _rule_den(s, r, kap)
        return (self.w0(s) + r - 0.5 * r * r * kap) / den

    @takes_arrays
    def w_ode_residual(self, s, r):
        """|dW/dr - 1 - kappa W/(1 - r kappa)| with dW/dr by central differences."""
        kap = curvature(self.seed, s)
        den = _rule_den(s, r, kap)
        step = 1e-6
        dw = (self.w(s, r + step) - self.w(s, r - step)) / (2.0 * step)
        return abs(dw - 1.0 - kap * self.w(s, r) / den)

    def r_interval(self) -> tuple[float, float]:
        """``r_range``, or (-1, 1) for an extended patch."""
        return (-1.0, 1.0) if self.r_range is None else self.r_range


def rule_height(h0, inner, r):
    """The height h0(s) - (r/2) <gamma(s), gamma'(s)> from ``height_terms`` at s."""
    return h0 - 0.5 * r * inner


def _rule_den(s, r, kap):
    """1 - r kappa, or SingularRule where it is below 1e-12 in size."""
    den = 1.0 - r * kap
    if np.any(abs(den) < 1e-12):
        raise SingularRule(f"1 - r*kappa = {den} at (s={s}, r={r})")
    return den


def validate_arclength(curve: SeedCurve, s_range: tuple[float, float]) -> float:
    """Max deviation of |gamma'| from 1 over the range; raises beyond 1e-6."""
    tangent = curve.tangent(np.linspace(s_range[0], s_range[1], 64))
    worst = worst_abs(ex.pointwise(math.hypot, *tangent) - 1.0)
    if not worst <= 1e-6:
        raise HminError(f"seed is not arclength-parameterized: max ||gamma'|-1| = {worst}")
    return worst


def build_surface(seed_curve: SeedCurve, h0: Profile,
                  s_range: tuple[float, float],
                  r_range: Optional[tuple[float, float]]) -> RuledPatch:
    validate_arclength(seed_curve, s_range)
    return RuledPatch(seed_curve, h0, s_range, r_range)


# ---------------------------------------------------------------------------
# The built graph through the chart; Newton inversion is the W oracle
# ---------------------------------------------------------------------------


def invert_chart(patch: RuledPatch, z: tuple[float, float],
                 start: tuple[float, float]) -> tuple[float, float]:
    """Newton solve of F(s, r) = z, warm-started at ``start``."""
    s, r = start
    for _ in range(60):
        fx, fy = rule_point(patch.seed, s, r)
        rx, ry = fx - z[0], fy - z[1]
        if math.hypot(rx, ry) < 1e-13:
            return (s, r)
        j = rule_jacobian(patch.seed, s, r)
        det = j[0][0] * j[1][1] - j[0][1] * j[1][0]
        if abs(det) < 1e-14:
            raise FieldUndefined(f"chart Jacobian singular near (s={s}, r={r})")
        ds = (rx * j[1][1] - ry * j[0][1]) / det
        dr = (ry * j[0][0] - rx * j[1][0]) / det
        s, r = s - ds, r - dr
    raise FieldUndefined(f"chart inversion did not converge at z={z}")


def _chart_point_gradient(patch: RuledPatch, s, r) -> tuple:
    """F(s, r) and the chain-rule gradient of the reconstructed height there,
    ((x, y), (hx, hy)), from one lookup each of gamma, gamma' and gamma''.

    F is ``rule_from``, and DF is formed with the arithmetic of
    ``rule_jacobian``.
    """
    g, d1, d2 = patch.seed.point(s), patch.seed.tangent(s), patch.seed.second(s)
    dh_ds = patch.h0.d(s) - 0.5 * r * (1.0 + g[0] * d2[0] + g[1] * d2[1])
    dh_dr = -0.5 * (g[0] * d1[0] + g[1] * d1[1])
    j = ((d1[0] + r * d2[1], d1[1]), (d1[1] - r * d2[0], -d1[0]))
    det = j[0][0] * j[1][1] - j[0][1] * j[1][0]
    if np.any(abs(det) < 1e-14):
        raise FieldUndefined(f"chart Jacobian singular at (s={s}, r={r})")
    # grad h = J^{-T} (dh_ds, dh_dr)
    hx = (j[1][1] * dh_ds - j[1][0] * dh_dr) / det
    hy = (-j[0][1] * dh_ds + j[0][0] * dh_dr) / det
    return rule_from(g, d1, r), (hx, hy)


@takes_arrays
def w_direct(patch: RuledPatch, s, r):
    """Angle function of the reconstructed graph at F(s, r), from first
    principles: the reconstructed height differentiated through the chart
    (exact up to interpolation error)."""
    (x, y), (hx, hy) = _chart_point_gradient(patch, s, r)
    return w_from_pq(*graph_pq(hx, hy, x, y))


def w_direct_invert(patch: RuledPatch, s: float, r: float) -> float:
    """The oracle of ``w_direct`` at one (s, r), by a fully independent
    route: central differences of the height found by Newton-inverting F."""
    x, y = rule_point(patch.seed, s, r)
    step = 1e-5

    def h_at(zx: float, zy: float) -> float:
        si, ri = invert_chart(patch, (zx, zy), (s, r))
        return patch.height(si, ri)

    hx = (h_at(x + step, y) - h_at(x - step, y)) / (2.0 * step)
    hy = (h_at(x, y + step) - h_at(x, y - step)) / (2.0 * step)
    return w_from_pq(*graph_pq(hx, hy, x, y))


def chart_samples(patch: RuledPatch, n: int,
                  w_min: Optional[float] = W_MARGIN) -> tuple[np.ndarray, np.ndarray]:
    """(s, r) samples of the chart for the built-patch checks, as two arrays.

    The interior s rows of the n-by-n grid over ``s_range`` by
    ``r_interval()``, s-major, skipping samples near the fold
    (|-1 + r kappa| <= FOLD_GUARD, which also keeps 1 - r kappa away from 0)
    and, unless ``w_min`` is None, near the characteristic locus
    (|W| < w_min).  A check reduces a chart function over them with
    ``worst_abs``, which is NaN, so the check fails, when no sample is left.
    """
    grid = Grid2(PlanarDomain(*patch.s_range, *patch.r_interval()), n, n)
    s, r = (a[1:-1].ravel() for a in grid.mesh())
    keep = ~(abs(rule_jacobian_det(patch.seed, s, r)) <= FOLD_GUARD)
    s, r = s[keep], r[keep]
    if w_min is not None:
        keep = ~(abs(patch.w(s, r)) < w_min)
        s, r = s[keep], r[keep]
    return s, r


@takes_arrays
def _chart_nu(patch: RuledPatch, s, r) -> tuple:
    """The built graph's unit field nu = (p, q)/W at F(s, r), from the
    chain-rule gradient; raises CharacteristicPoint where W <= EPS_CHAR."""
    (x, y), (hx, hy) = _chart_point_gradient(patch, s, r)
    p, q = graph_pq(hx, hy, x, y)
    w = w_from_pq(p, q)
    if np.any(w <= EPS_CHAR):
        raise CharacteristicPoint(f"W={w} at ({x}, {y})")
    return (p / w, q / w)


@takes_arrays
def curvature_on_patch(patch: RuledPatch, s, r):
    """H-mean curvature of the built patch where it is locally a graph.

    H = div nu is taken in chart coordinates: d nu/d(s, r) by central
    differences of ``_chart_nu`` at FD_STEP, and d nu/d(x, y) =
    d nu/d(s, r) J^-1 with J = DF(s, r) (``rule_jacobian``); H is the trace.
    """
    j = rule_jacobian(patch.seed, s, r)
    det_j = j[0][0] * j[1][1] - j[0][1] * j[1][0]
    if np.any(abs(det_j) <= DET_GUARD):
        raise FieldUndefined(f"|det DF| = {abs(det_j)} <= {DET_GUARD} at (s={s}, r={r})")
    h = FD_STEP
    (sp1, sp2), (sm1, sm2) = _chart_nu(patch, s + h, r), _chart_nu(patch, s - h, r)
    (rp1, rp2), (rm1, rm2) = _chart_nu(patch, s, r + h), _chart_nu(patch, s, r - h)
    # trace of [[nu1_s, nu1_r], [nu2_s, nu2_r]] [[j11, -j01], [-j10, j00]] / det_j
    return ((sp1 - sm1) * j[1][1] - (rp1 - rm1) * j[1][0]
            - (sp2 - sm2) * j[0][1] + (rp2 - rm2) * j[0][0]) / (2.0 * h * det_j)


# ---------------------------------------------------------------------------
# Characteristic locus in the (s, r) chart
# ---------------------------------------------------------------------------

LABEL_TWO = "two-roots"
LABEL_DOUBLE = "double-root"
LABEL_NONE = "none"
LABEL_KAPPA_ZERO = "kappa-zero"


@dataclass
class LociReport:
    """The roots of the characteristic quadratic, as equally long columns in
    the order of s and, at one s, in increasing r: the chart point (s, r),
    the case label, the embedded point (x, y, t), the signed formula W there
    (which should vanish) and whether the root verified."""

    s: np.ndarray
    r: np.ndarray
    label: list[str]
    x: np.ndarray
    y: np.ndarray
    t: np.ndarray
    w: np.ndarray
    verified: np.ndarray
    labels: list[tuple[float, str]]           # (s, case label) for every sampled s
    singular: list[tuple[np.ndarray, np.ndarray]]   # (s, r) of each singular branch

    @property
    def empty(self) -> bool:
        return not len(self.s)


def _roots(patch: RuledPatch, s: np.ndarray) -> tuple:
    """The characteristic quadratic at each s: its case label, its number of
    roots (0, 1 or 2), the roots r1 <= r2 (sorted as floats, so a NaN pair
    stays as it is), and the kappa and W0 it was solved with."""
    kap = curvature(patch.seed, s)
    w0 = patch.w0(s)
    with np.errstate(all="ignore"):
        disc = 1.0 + 2.0 * w0 * kap
        root = np.sqrt(disc)
        lo, hi = (1.0 - root) / kap, (1.0 + root) / kap
        flat = abs(kap) <= EPS_KAPPA
        double = ~flat & (abs(disc) <= EPS_DELTA)
        none = ~flat & ~double & (disc < 0.0)
        swap = hi < lo
        r1 = np.where(flat, -w0, np.where(double, 1.0 / kap, np.where(swap, hi, lo)))
        r2 = np.where(swap, lo, hi)
    labels = np.select([flat, double, none], [LABEL_KAPPA_ZERO, LABEL_DOUBLE, LABEL_NONE],
                       LABEL_TWO).tolist()
    count = np.select([flat | double, none], [1, 0], 2)
    return labels, count, r1, r2, kap, w0


def characteristic_locus(patch: RuledPatch, n_s: int = 201) -> LociReport:
    """Solve the characteristic quadratic at n_s sampled s and verify each root.

    Raises FieldUndefined at the first sampled s where W0 or kappa is not
    finite (h0 or the seed undefined there), before any root is embedded.
    Verification is two-sided: the closed-form W must vanish at the root,
    and where the chart is invertible (|det DF| > 0.1) the angle function
    of the reconstructed graph must vanish too; near-singular roots are
    instead probed at nearby r, comparing |W| against the direct value.
    Every stage runs over the arrays of all s, or of all roots.  The
    singular locus reported is the seed's, over ``s_range``.
    """
    ss = np.linspace(*patch.s_range, n_s)
    labels, count, r1, r2, kap, w0 = _roots(patch, ss)
    bad = ~(np.isfinite(w0) & np.isfinite(kap))
    if bad.any():
        i = int(np.argmax(bad))
        raise FieldUndefined(f"W0 or kappa not finite at s={float(ss[i])} "
                             f"(W0 = {float(w0[i])}, kappa = {float(kap[i])})")
    # the roots in the order of s, and at one s in increasing order
    pick = np.column_stack([count >= 1, count >= 2]).ravel()
    at = np.flatnonzero(pick) // 2
    s, r, kap = ss[at], np.column_stack([r1, r2]).ravel()[pick], kap[at]
    with np.errstate(all="ignore"):
        num = w0[at] + r - 0.5 * r * r * kap
        den = 1.0 - r * kap
        wf = np.where(abs(den) < 1e-12, num, num / den)  # W itself is undefined on the fold
    det = rule_jacobian_det(patch.seed, s, r)
    x, y, t = patch.embed(s, r)
    ok = abs(wf) <= 1e-8
    direct = ok & (abs(det) > DET_GUARD)
    ok[direct] = w_direct(patch, s[direct], r[direct]) <= 1e-6
    # probe the rule on the invertible side of the fold, then at r +- 0.25
    near = np.flatnonzero(ok & ~direct)
    cand, found = r[near], np.zeros(len(near), dtype=bool)
    for c in (r[near] + np.where(det[near] < 0, 0.5, -0.5) * 0.5, r[near] + 0.25, r[near] - 0.25):
        fresh = ~found & (abs(rule_jacobian_det(patch.seed, s[near], c)) > DET_GUARD)
        cand, found = np.where(fresh, c, cand), found | fresh
    probed, cand = near[found], cand[found]
    ok[probed] = abs(w_direct(patch, s[probed], cand) - abs(patch.w(s[probed], cand))) <= 1e-6
    return LociReport(s, r, [labels[i] for i in at], x, y, t, wf, ok,
                      list(zip(ss.tolist(), labels)), _singular_on(patch))


def _singular_on(patch: RuledPatch) -> list[tuple[np.ndarray, np.ndarray]]:
    """The seed's singular branches, cut to the patch's ``s_range``."""
    branches = []
    for s, r in singular_locus(patch.seed):
        keep = ~patch._off_range(s)
        if keep.any():
            branches.append((s[keep], r[keep]))
    return branches


def locus_branch_slope(patch: RuledPatch, s: float, side: int) -> float:
    """One-sided ds-slope of the larger characteristic root at s, second order.

    ``side`` is +1 (limit from above) or -1 (from below).  Where the
    quadratic has one root, or its two roots are not ordered, that is the
    smaller one.
    """

    def branch(sv: float) -> float:
        _, count, r1, r2, _, _ = _roots(patch, np.array([sv]))
        if not count[0]:
            raise FieldUndefined(f"no characteristic root at s={sv}")
        lo, hi = float(r1[0]), float(r2[0])
        return hi if count[0] == 2 and hi > lo else lo

    h = 1e-3
    c0 = branch(s)
    c1 = branch(s + side * h)
    c2 = branch(s + side * 2.0 * h)
    return side * (4.0 * c1 - c2 - 3.0 * c0) / (2.0 * h)


# ---------------------------------------------------------------------------
# Rules in group form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    """One straight rule of the patch in group form, r -> d(s) o delta_r v(s)."""

    base: HPoint                        # d(s) = (gamma(s), h0(s))
    direction: HPoint                   # v(s) = (gamma2', -gamma1', 0)

    def point(self, r: float) -> HPoint:
        return group_mul(self.base, dilate(r, self.direction))


def rule(patch: RuledPatch, s: float) -> Rule:
    """The rule through gamma(s), an oracle for ``RuledPatch.embed``.

    ``Rule.point(r)`` uses the group product and the dilation, not the chart
    formula, so it checks ``embed(s, r)`` independently.
    """
    patch._check_s(s)
    g, d = patch.seed.point(s), patch.seed.tangent(s)
    return Rule(HPoint(g[0], g[1], patch.h0(s)), HPoint(d[1], -d[0], 0.0))


# ---------------------------------------------------------------------------
# Generalized seed curves
# ---------------------------------------------------------------------------


@dataclass
class GSCPiece:
    curve: SeedCurve
    a: float
    b: float
    name: str = ""

    def endpoint(self, end: str) -> tuple[float, float]:
        return self.curve.point(self.a if end == "a" else self.b)


@dataclass
class GSCJoin:
    """How consecutive pieces meet: the end ("a" or "b") of each that joins."""

    end_left: str
    end_right: str


@dataclass
class GeneralizedSeedCurve:
    pieces: list[GSCPiece]
    joins: list[GSCJoin] = field(default_factory=list)


def validate_gsc(gsc: GeneralizedSeedCurve) -> float:
    """The largest planar gap at the joins of adjacent pieces, NaN if one is
    NaN or there is no join (``report.worst_abs``).  A joins list as long as
    the pieces list closes the chain (the last join matches the last piece
    back to the first), as for cylinders."""
    n = len(gsc.pieces)
    gaps = []
    for i, join in enumerate(gsc.joins):
        left = gsc.pieces[i % n].endpoint(join.end_left)
        right = gsc.pieces[(i + 1) % n].endpoint(join.end_right)
        gaps.append(math.hypot(left[0] - right[0], left[1] - right[1]))
    return worst_abs(gaps)


def constant_curvature_test(gsc: GeneralizedSeedCurve, tol: float) -> tuple[bool, list[dict]]:
    """True iff each piece's signed curvature is constant to tol.

    The constants may differ from piece to piece.  Each piece is sampled at
    KAPPA_SAMPLES points of its range, cut to its curve's; its summary has
    the mean kappa, the largest deviation from it, the peak |kappa| and the
    count of samples that are not finite (``nonfinite``).  A piece with such
    a sample is never constant: its ``max_dev`` is inf, as an infinite
    kappa is unboundedly far from any constant, or NaN where a sample is
    NaN, so a check on it fails.
    """
    summary = []
    ok = True
    for piece in gsc.pieces:
        lo = max(piece.a, piece.curve.s_min)
        hi = min(piece.b, piece.curve.s_max)
        kappas = curvature(piece.curve, np.linspace(lo, hi, KAPPA_SAMPLES))
        nonfinite = int(np.count_nonzero(~np.isfinite(kappas)))
        with np.errstate(invalid="ignore"):  # the mean of an inf and a -inf sample is NaN
            mean = float(kappas.mean())
        if nonfinite:
            dev = math.nan if np.isnan(kappas).any() else math.inf
        else:
            dev = float(np.abs(kappas - mean).max())
        summary.append({"name": piece.name, "kappa": mean, "max_dev": dev,
                        "peak": float(np.abs(kappas).max()), "nonfinite": nonfinite})
        ok = ok and dev <= tol
    return ok, summary


# ---------------------------------------------------------------------------
# Representation round-trip and the entire-graph classifier
# ---------------------------------------------------------------------------


def roundtrip(patch: GraphPatch, curve: SeedCurve, arc_span: float, r_span: float) -> float:
    """Rebuild the graph from its seed ``curve`` and h0(s) = h(gamma(s)), compare heights.

    ``curve`` is the seed ``extract_seed(patch, z0, arc_span)`` through a base
    point z0.  Returns the max |h_rebuilt - h| over chart samples that are
    graph-valid (|det DF| > 0.1) and land inside the patch domain.
    """
    h0 = Profile(f=lambda s: patch.h.value(*curve.point(s)))
    span = min(arc_span, -curve.s_min, curve.s_max)
    built = RuledPatch(curve, h0, (-span, span), (-r_span, r_span))
    s, r = Grid2(PlanarDomain(-span, span, -r_span, r_span), 21, 21).points()
    keep = ~(abs(rule_jacobian_det(curve, s, r)) <= DET_GUARD)
    s, r = s[keep], r[keep]
    x, y = rule_point(curve, s, r)
    inside = patch.domain.contains_all(x, y)
    if not inside.any():
        raise FieldUndefined("no graph-valid chart samples landed in the patch domain")
    s, r, x, y = s[inside], r[inside], x[inside], y[inside]
    return worst_abs(built.height(s, r) - patch.h.value(x, y))


def _not_entire(reason: str) -> dict:
    return {"kind": "not-entire", "reason": reason}


def classify_entire_graph(patch: GraphPatch) -> dict:
    """Classify an entire minimal graph: circular seed means a plane,
    straight seed means the shear family t = h0(ax+by) - (ax+by)(bx-ay)/2.

    Returns the verdict as the report's ``result``: ``kind`` first, then
    ``plane`` (a, b, c, d of the unit normal form a x + b y + c t = d),
    ``sigma`` and ``residual`` for ``class1``; ``direction``, ``base``,
    ``alpha`` and ``rebuild_error`` for ``class2``; ``max_curvature`` and
    ``at`` for ``not-minimal``; ``reason`` for ``not-entire``.  |H| is held
    to 1e-6 on analytic derivatives and to TOL_H_FD on difference stencils.
    """
    tol = 1e-6          # on the residual of the plane fit
    tol_h = tol if patch.analytic else TOL_H_FD
    tol_kappa = 1e-4    # on the seed curvature
    dom = patch.domain

    # every node of the 21x21 window in x-major order, read up to the
    # first one outside dom
    x, y = (a.ravel() for a in Grid2(dom, 21, 21).mesh())
    inside = dom.contains_all(x, y)
    n = x.size if inside.all() else int(np.argmin(inside))
    t, w, h, error = read_nodes(patch, x[:n], y[:n])
    k = len(h)  # the nodes read in full; a stencil failed at node k < n
    t, w = t[:k + 1], w[:k + 1]
    # at each node, the height, then W, then H where W > W_MARGIN must be finite
    bad = np.zeros((len(w), 3), dtype=bool)
    bad[:, 0], bad[:, 1] = ~np.isfinite(t), ~np.isfinite(w)
    bad[:k, 2] = (w[:k] > W_MARGIN) & ~np.isfinite(h)
    if bad.any():
        i, what = divmod(int(np.argmax(bad)), 3)
        return _not_entire(f"{('height', 'angle function W', 'mean curvature')[what]} not "
                           f"finite at ({float(x[i])}, {float(y[i])})")
    if error is not None:
        raise error
    if n < x.size:
        return _not_entire(f"window point ({float(x[n])}, {float(y[n])}) outside patch domain")

    # the largest |H| where W > W_MARGIN, at the first node within a relative 1e-12 of it
    hcur = np.where(w > W_MARGIN, abs(h), 0.0)
    peak = float(hcur.max())
    if peak > tol_h:
        i = int(np.argmax(hcur >= (1.0 - 1e-12) * peak))
        return {"kind": "not-minimal", "max_curvature": peak, "at": [float(x[i]), float(y[i])]}
    # the first interior node (the middle half of each axis) of largest W:
    # seed extraction needs room around its base point
    mx, my = 0.25 * (dom.xmax - dom.xmin), 0.25 * (dom.ymax - dom.ymin)
    interior = PlanarDomain(dom.xmin + mx, dom.xmax - mx, dom.ymin + my, dom.ymax - my)
    w_in = np.where(interior.contains_all(x, y), w, 0.0)
    i = int(np.argmax(w_in))
    if w_in[i] <= 1e-6:
        return _not_entire("no usable non-characteristic base point in the window")

    z0 = (float(x[i]), float(y[i]))
    window = min(dom.xmax - dom.xmin, dom.ymax - dom.ymin)
    span = min(1.5, window / 4.0)
    curve = extract_seed(patch, z0, span)
    if len(curve.s) < 2:
        return _not_entire(f"the seed traced from {z0} has fewer than two samples")
    lo, hi = max(curve.s_min, -span / 2), min(curve.s_max, span / 2)
    # the seed over [-span/2, span/2], cut to its traced range, as a one-piece GSC
    _, (kappa,) = constant_curvature_test(GeneralizedSeedCurve([GSCPiece(curve, lo, hi)]),
                                          tol_kappa)

    if kappa["peak"] <= tol_kappa:
        # straight seed: report direction, lifted base point and rebuild error
        d = curve.tangent(0.0)
        g0 = curve.point(0.0)
        base = [g0[0], g0[1], patch.h.value(*g0)]
        alpha = None
        if abs(d[1]) > 1e-9:
            alpha = -d[0] / (2.0 * d[1])
        err = roundtrip(patch, curve, span, min(1.0, window / 6.0))
        return {"kind": "class2", "direction": list(d), "base": base, "alpha": alpha,
                "rebuild_error": err}

    if kappa["max_dev"] <= tol_kappa * max(1.0, abs(kappa["kappa"])):
        # circular seed: the graph must be a plane; fit a x + b y + c t = d
        design = np.column_stack([x, y, np.ones(len(x))])
        coef, *_ = np.linalg.lstsq(design, t, rcond=None)
        alpha_c, beta_c, delta_c = map(float, coef)
        residual = float(np.abs(design @ coef - t).max())
        if residual > tol:
            return _not_entire(f"circular seed but non-planar heights (residual {residual})")
        # t = alpha x + beta y + delta  <=>  (-alpha) x + (-beta) y + t = delta
        a, b, c, d0 = -alpha_c, -beta_c, 1.0, delta_c
        scale = math.sqrt(a * a + b * b + c * c)
        sigma = [-2.0 * b / c, 2.0 * a / c, d0 / c]
        return {"kind": "class1", "plane": [a / scale, b / scale, c / scale, d0 / scale],
                "sigma": sigma, "residual": residual}

    return _not_entire("seed curve is neither a line nor a circle at tolerance")
