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
pins down the sign conventions above.

``RuledPatch.w0``, ``w``, ``w_ode_residual``, ``height`` and ``embed``,
``chart_height_gradient``, ``w_direct`` (its chain route) and
``curvature_on_patch`` take floats s, r or 1-d arrays of them, with the
rules of ``seed``: each element is the float of the scalar call, h0 and
math.hypot are called element by element, and an array call raises what
the first failing scalar call would.  The chart samples are arrays, and
the locus is solved and verified over all sampled s at once.
``invert_chart``, ``w_direct(method="invert")`` and ``rule`` stay scalar,
as the independent oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import expr as ex
from .errors import (CharacteristicPoint, DegenerateDenominator, FieldUndefined, HminError,
                     OutOfRange, SingularRule)
from .fields import FD_STEP, Profile
from .heis import HPoint, dilate, group_mul
from .report import worst_abs
from .seed import (SeedCurve, curvature, extract_seed, rule_jacobian,
                   rule_jacobian_det, rule_point, singular_locus, takes_arrays, SingularLocus,
                   EPS_KAPPA)
from .surface import EPS_CHAR, W_MARGIN, GraphPatch, h_mean_curvature, horizontal_data

EPS_DELTA = 1e-9
DET_GUARD = 0.1
FOLD_GUARD = 0.15   # chart samples keep |-1 + r kappa| above this


@takes_arrays
def _inner(curve: SeedCurve, s):
    g, d = curve.point(s), curve.tangent(s)
    return g[0] * d[0] + g[1] * d[1]


@dataclass
class RuledPatch:
    """A seed-and-height surface patch.

    ``r_range`` is a fixed interval, a per-s interval function, or None
    for all of R (an extended graph).
    """

    seed: SeedCurve
    h0: Profile
    s_range: tuple[float, float]
    r_range: object = (-1.0, 1.0)

    def _off_range(self, s):
        """Whether s is outside ``s_range`` by more than 1e-9, at each element over arrays."""
        return (s < self.s_range[0] - 1e-9) | (s > self.s_range[1] + 1e-9)

    def _check_s(self, s):
        # over arrays, the replay of ``takes_arrays`` names the first s rejected
        if np.any(self._off_range(s)):
            raise OutOfRange(f"s={s} outside {self.s_range}")

    def r_at(self, s: float) -> tuple[float, float]:
        """The rule-parameter interval over the rule through gamma(s)."""
        if callable(self.r_range):
            lo, hi = self.r_range(s)
            return (float(lo), float(hi))
        return self.r_interval()

    @takes_arrays
    def height(self, s, r):
        self._check_s(s)
        return self.h0(s) - 0.5 * r * _inner(self.seed, s)

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

    def r_interval(self, fallback: float = 1.0) -> tuple[float, float]:
        """A global r interval: the hull over s for per-s ranges."""
        if self.r_range is None:
            return (-fallback, fallback)
        if callable(self.r_range):
            samples = [self.r_range(float(s))
                       for s in np.linspace(*self.s_range, 9)]
            return (min(lo for lo, _ in samples), max(hi for _, hi in samples))
        return self.r_range


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


@takes_arrays
def chart_height_gradient(patch: RuledPatch, s, r) -> tuple:
    """Planar gradient of the reconstructed height at F(s, r) by the chain rule."""
    g, d1, d2 = patch.seed.point(s), patch.seed.tangent(s), patch.seed.second(s)
    dh_ds = patch.h0.d(s) - 0.5 * r * (1.0 + g[0] * d2[0] + g[1] * d2[1])
    dh_dr = -0.5 * (g[0] * d1[0] + g[1] * d1[1])
    j = rule_jacobian(patch.seed, s, r)
    det = j[0][0] * j[1][1] - j[0][1] * j[1][0]
    if np.any(abs(det) < 1e-14):
        raise FieldUndefined(f"chart Jacobian singular at (s={s}, r={r})")
    # grad h = J^{-T} (dh_ds, dh_dr)
    hx = (j[1][1] * dh_ds - j[1][0] * dh_dr) / det
    hy = (-j[0][1] * dh_ds + j[0][0] * dh_dr) / det
    return (hx, hy)


@takes_arrays
def w_direct(patch: RuledPatch, s, r, method: str = "chain"):
    """Angle function of the reconstructed graph at F(s, r), from first principles.

    ``chain`` differentiates the reconstructed height through the chart
    (exact up to interpolation error), and takes arrays of s and r;
    ``invert`` finite-differences the height obtained by Newton-inverting
    F, a fully independent route, at one (s, r).
    """
    x, y = rule_point(patch.seed, s, r)
    if method == "chain":
        hx, hy = chart_height_gradient(patch, s, r)
    elif method == "invert":
        step = 1e-5

        def h_at(zx: float, zy: float) -> float:
            si, ri = invert_chart(patch, (zx, zy), (s, r))
            return patch.height(si, ri)

        hx = (h_at(x + step, y) - h_at(x - step, y)) / (2.0 * step)
        hy = (h_at(x, y + step) - h_at(x, y - step)) / (2.0 * step)
    else:
        raise ValueError(f"unknown method {method!r}")
    p = -(hx + 0.5 * y)
    q = -(hy - 0.5 * x)
    return ex.pointwise(math.hypot, p, q)


def chart_samples(patch: RuledPatch, n: int,
                  w_min: Optional[float] = W_MARGIN) -> tuple[np.ndarray, np.ndarray]:
    """(s, r) samples of the chart for the built-patch checks, as two arrays.

    Interior s of an n-point grid over ``s_range`` crossed with an n-point
    grid over ``r_interval()``, s-major, skipping samples near the fold
    (|-1 + r kappa| <= FOLD_GUARD, which also keeps 1 - r kappa away from 0)
    and, unless ``w_min`` is None, near the characteristic locus
    (|W| < w_min).
    """
    rs = np.linspace(*patch.r_interval(), n)
    ss = np.linspace(*patch.s_range, n)[1:-1]
    s, r = np.repeat(ss, n), np.tile(rs, len(ss))
    keep = ~(abs(-1.0 + r * np.repeat(curvature(patch.seed, ss), n)) <= FOLD_GUARD)
    s, r = s[keep], r[keep]
    if w_min is not None:
        keep = ~(abs(patch.w(s, r)) < w_min)
        s, r = s[keep], r[keep]
    return s, r


def worst_on_chart(patch: RuledPatch, n: int, value: Callable[[np.ndarray, np.ndarray], np.ndarray],
                   w_min: Optional[float] = W_MARGIN) -> float:
    """``worst_abs`` of value(s, r), which takes the arrays of
    ``chart_samples(patch, n, w_min)``: NaN, so a check on it fails, when no
    sample is left."""
    return worst_abs(value(*chart_samples(patch, n, w_min)))


@takes_arrays
def _chart_nu(patch: RuledPatch, s, r) -> tuple:
    """The built graph's unit field nu = (p, q)/W at F(s, r), from the
    chain-rule gradient; raises CharacteristicPoint where W <= EPS_CHAR."""
    x, y = rule_point(patch.seed, s, r)
    hx, hy = chart_height_gradient(patch, s, r)
    p, q = -(hx + 0.5 * y), -(hy - 0.5 * x)
    w = ex.pointwise(math.hypot, p, q)
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
    det = rule_jacobian_det(patch.seed, s, r)
    if np.any(abs(det) <= DET_GUARD):
        raise FieldUndefined(f"|det DF| = {abs(det)} <= {DET_GUARD} at (s={s}, r={r})")
    h = FD_STEP
    (sp1, sp2), (sm1, sm2) = _chart_nu(patch, s + h, r), _chart_nu(patch, s - h, r)
    (rp1, rp2), (rm1, rm2) = _chart_nu(patch, s, r + h), _chart_nu(patch, s, r - h)
    j = rule_jacobian(patch.seed, s, r)
    det_j = j[0][0] * j[1][1] - j[0][1] * j[1][0]
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
class LocusRoot:
    s: float
    r: float
    label: str
    image: HPoint
    w_formula: float              # signed W at the root (should vanish)
    w_direct: Optional[float]     # direct W on the reconstructed graph, if checkable
    det: float                    # det DF at the root
    verified: bool = False


@dataclass
class LociReport:
    roots: list[LocusRoot]
    labels: list[tuple[float, str]]           # (s, case label) for every sampled s
    singular: SingularLocus

    @property
    def empty(self) -> bool:
        return not self.roots


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

    Verification is two-sided: the closed-form W must vanish at the root,
    and where the chart is invertible (|det DF| > 0.1) the angle function
    of the reconstructed graph must vanish too; near-singular roots are
    instead probed at nearby r, comparing |W| against the direct value.
    Every stage runs over the arrays of all s, or of all roots.  The
    singular locus reported is the seed's, over ``s_range``.
    """
    ss = np.linspace(*patch.s_range, n_s)
    labels, count, r1, r2, kap, w0 = _roots(patch, ss)
    # the roots in the order of s, and at one s in increasing order
    pick = np.column_stack([count >= 1, count >= 2]).ravel()
    at = np.flatnonzero(pick) // 2
    s, r, kap = ss[at], np.column_stack([r1, r2]).ravel()[pick], kap[at]
    with np.errstate(all="ignore"):
        num = w0[at] + r - 0.5 * r * r * kap
        den = 1.0 - r * kap
        wf = np.where(abs(den) < 1e-12, num, num / den)  # W itself is undefined on the fold
    det = rule_jacobian_det(patch.seed, s, r)
    image = patch.embed(s, r)
    ok = abs(wf) <= 1e-8
    wd = np.full(len(s), math.nan)
    direct = ok & (abs(det) > DET_GUARD)
    wd[direct] = w_direct(patch, s[direct], r[direct])
    ok[direct] = wd[direct] <= 1e-6
    # probe the rule on the invertible side of the fold, then at r +- 0.25
    near = np.flatnonzero(ok & ~direct)
    cand, found = r[near], np.zeros(len(near), dtype=bool)
    for c in (r[near] + np.where(det[near] < 0, 0.5, -0.5) * 0.5, r[near] + 0.25, r[near] - 0.25):
        fresh = ~found & (abs(rule_jacobian_det(patch.seed, s[near], c)) > DET_GUARD)
        cand, found = np.where(fresh, c, cand), found | fresh
    probed, cand = near[found], cand[found]
    wd[probed] = w_direct(patch, s[probed], cand)
    ok[probed] = abs(wd[probed] - abs(patch.w(s[probed], cand))) <= 1e-6
    checked = direct.copy()
    checked[probed] = True
    wd = [v if c else None for v, c in zip(wd.tolist(), checked.tolist())]
    images = [HPoint(*g) for g in zip(*(a.tolist() for a in image))]
    roots = [LocusRoot(*row) for row in zip(s.tolist(), r.tolist(), [labels[i] for i in at],
                                            images, wf.tolist(), wd, det.tolist(), ok.tolist())]
    return LociReport(roots, list(zip(ss.tolist(), labels)), _singular_on(patch))


def _singular_on(patch: RuledPatch) -> SingularLocus:
    """The seed's singular locus, cut to the patch's ``s_range``."""
    branches = []
    for s, r in singular_locus(patch.seed).branches:
        keep = ~patch._off_range(s)
        if keep.any():
            branches.append((s[keep], r[keep]))
    return SingularLocus(branches)


def locus_branch_slope(patch: RuledPatch, s: float, side: int,
                       which: str = "min") -> float:
    """One-sided ds-slope of a characteristic branch at s, second order.

    ``side`` is +1 (limit from above) or -1 (from below); ``which`` picks
    the branch by root ordering ("min"/"max").
    """

    def branch(sv: float) -> float:
        _, count, r1, r2, _, _ = _roots(patch, np.array([sv]))
        if not count[0]:
            raise FieldUndefined(f"no characteristic root at s={sv}")
        lo, hi = float(r1[0]), float(r2[0])
        return lo if which == "min" or count[0] == 1 or not hi > lo else hi

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
    h0: Profile
    a: float
    b: float
    name: str = ""

    def endpoint(self, end: str) -> Optional[tuple[float, float]]:
        s = self.a if end == "a" else self.b
        if not math.isfinite(s):
            return None
        return self.curve.point(s)


@dataclass
class GSCJoin:
    """How consecutive pieces meet; may carry a vertical-plane normal."""

    end_left: str = "b"
    end_right: str = "a"
    plane_normal: Optional[tuple[float, float]] = None


@dataclass
class GeneralizedSeedCurve:
    pieces: list[GSCPiece]
    joins: list[GSCJoin] = field(default_factory=list)

    def __post_init__(self):
        if not self.joins and len(self.pieces) > 1:
            self.joins = [GSCJoin() for _ in range(len(self.pieces) - 1)]


@dataclass
class JoinCheck:
    index: int
    gap: Optional[float]
    ok: bool
    note: str = ""


@dataclass
class GSCValidation:
    checks: list[JoinCheck]

    @property
    def valid(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def max_gap(self) -> float:
        return worst_abs(c.gap for c in self.checks if c.gap is not None)


def validate_gsc(gsc: GeneralizedSeedCurve, tol: float) -> GSCValidation:
    """Check planar endpoint matching for every adjacent pair of pieces.

    A joins list as long as the pieces list closes the chain (the last
    join matches the last piece back to the first), as for cylinders.
    """
    checks = []
    n = len(gsc.pieces)
    for i, join in enumerate(gsc.joins):
        left = gsc.pieces[i % n].endpoint(join.end_left)
        right = gsc.pieces[(i + 1) % n].endpoint(join.end_right)
        if left is None or right is None:
            checks.append(JoinCheck(i, None, False, "join at an infinite endpoint"))
            continue
        gap = math.hypot(left[0] - right[0], left[1] - right[1])
        checks.append(JoinCheck(i, gap, gap <= tol))
    return GSCValidation(checks)


def constant_curvature_test(gsc: GeneralizedSeedCurve, tol: float) -> tuple[bool, list[dict]]:
    """True iff each piece's signed curvature is constant to tol.

    The constants may differ from piece to piece.
    """
    summary = []
    ok = True
    for piece in gsc.pieces:
        lo = piece.a if math.isfinite(piece.a) else piece.curve.s_min
        hi = piece.b if math.isfinite(piece.b) else piece.curve.s_max
        lo = max(lo, piece.curve.s_min)
        hi = min(hi, piece.curve.s_max)
        kappas = curvature(piece.curve, np.linspace(lo, hi, 101))
        mean = float(kappas.mean())
        dev = float(np.abs(kappas - mean).max())
        summary.append({"name": piece.name, "kappa": mean, "max_dev": dev})
        ok = ok and dev <= tol
    return ok, summary


def bernstein_quotient(curve: SeedCurve, s: float) -> float:
    """gamma1'(s) / <gamma(s), gamma'(s)> for a seed normalized to
    gamma(0) = 0, gamma'(0) = (0, 1); constant = kappa(0) for graphs over a plane."""
    den = _inner(curve, s)
    if abs(den) < 1e-12:
        raise DegenerateDenominator(f"<gamma, gamma'> = {den} at s={s}")
    return curve.tangent(s)[0] / den


# ---------------------------------------------------------------------------
# Representation round-trip and the entire-graph classifier
# ---------------------------------------------------------------------------


def lifted_height(patch: GraphPatch, curve: SeedCurve) -> Profile:
    """h0(s) = h(gamma(s)) along an extracted seed."""

    def f(s: float) -> float:
        x, y = curve.point(s)
        return patch.h.value(x, y)

    return Profile(f=f)


def roundtrip(patch: GraphPatch, curve: SeedCurve, arc_span: float, r_span: float) -> float:
    """Rebuild the graph from its seed ``curve`` and h0, compare heights.

    ``curve`` is the seed ``extract_seed(patch, z0, arc_span)`` through a base
    point z0.  Returns the max |h_rebuilt - h| over chart samples that are
    graph-valid (|det DF| > 0.1) and land inside the patch domain.
    """
    h0 = lifted_height(patch, curve)
    span = min(arc_span, -curve.s_min, curve.s_max)
    built = RuledPatch(curve, h0, (-span, span), (-r_span, r_span))
    s = np.repeat(np.linspace(-span, span, 21), 21)
    r = np.tile(np.linspace(-r_span, r_span, 21), 21)
    keep = ~(abs(rule_jacobian_det(curve, s, r)) <= DET_GUARD)
    s, r = s[keep], r[keep]
    x, y = rule_point(curve, s, r)
    inside = patch.domain.contains_all(x, y)
    if not inside.any():
        raise FieldUndefined("no graph-valid chart samples landed in the patch domain")
    s, r, x, y = s[inside], r[inside], x[inside], y[inside]
    return worst_abs(built.height(s, r) - ex.pointwise(patch.h.value, x, y))


@dataclass
class Class1:
    """Entire minimal graph with circular seed: the plane a x + b y + c t = d."""

    a: float
    b: float
    c: float
    d: float
    sigma: tuple[float, float, float]
    residual: float

    kind: str = "class1"


@dataclass
class Class2:
    """Entire minimal graph with straight seed: direction, base point, heights."""

    direction: tuple[float, float]
    base: tuple[float, float, float]
    h0_samples: list[tuple[float, float]]
    alpha: Optional[float]
    rebuild_error: float

    kind: str = "class2"


@dataclass
class NotMinimal:
    max_curvature: float
    at: tuple[float, float]

    kind: str = "not-minimal"


@dataclass
class NotEntire:
    reason: str

    kind: str = "not-entire"


Classification = Class1 | Class2 | NotMinimal | NotEntire


def classify_entire_graph(patch: GraphPatch) -> Classification:
    """Classify an entire minimal graph: circular seed means a plane,
    straight seed means the shear family t = h0(ax+by) - (ax+by)(bx-ay)/2."""
    tol = 1e-6          # on |H| and on the residual of the plane fit
    tol_kappa = 1e-4    # on the seed curvature
    dom = patch.domain
    xs = np.linspace(dom.xmin, dom.xmax, 21)
    ys = np.linspace(dom.ymin, dom.ymax, 21)

    best = (0.0, (0.0, 0.0))
    worst_h = (0.0, (0.0, 0.0))
    samples = []
    # seed extraction needs room around its base point; keep candidates
    # away from the window boundary
    margin_x = 0.25 * (dom.xmax - dom.xmin)
    margin_y = 0.25 * (dom.ymax - dom.ymin)
    for x in xs:
        for y in ys:
            x, y = float(x), float(y)
            if not dom.contains(x, y):
                return NotEntire(f"window point ({x}, {y}) outside patch domain")
            jet = patch.h.jet(x, y)
            v = jet[0]
            if not math.isfinite(v):
                return NotEntire(f"height not finite at ({x}, {y})")
            samples.append((x, y, v))
            hd = horizontal_data(patch, (x, y), jet=jet)
            if not math.isfinite(hd.w):
                return NotEntire(f"angle function W not finite at ({x}, {y})")
            interior = (dom.xmin + margin_x <= x <= dom.xmax - margin_x
                        and dom.ymin + margin_y <= y <= dom.ymax - margin_y)
            if interior and hd.w > best[0]:
                best = (hd.w, (x, y))
            if hd.w > W_MARGIN:
                hcur = abs(h_mean_curvature(patch, (x, y), jet=jet))
                if not math.isfinite(hcur):
                    return NotEntire(f"mean curvature not finite at ({x}, {y})")
                if hcur > worst_h[0]:
                    worst_h = (hcur, (x, y))
    if worst_h[0] > tol:
        return NotMinimal(worst_h[0], worst_h[1])
    if best[0] <= 1e-6:
        return NotEntire("no usable non-characteristic base point in the window")

    z0 = best[1]
    window = min(dom.xmax - dom.xmin, dom.ymax - dom.ymin)
    span = min(1.5, window / 4.0)
    curve = extract_seed(patch, z0, span)
    lo = max(curve.s_min, -span / 2)
    hi = min(curve.s_max, span / 2)
    kappas = curvature(curve, np.linspace(lo, hi, 41))

    if np.abs(kappas).max() <= tol_kappa:
        # straight seed: report direction, lifted base point and heights
        d = curve.tangent(0.0)
        g0 = curve.point(0.0)
        base = (g0[0], g0[1], patch.h.value(*g0))
        s21 = np.linspace(lo, hi, 21)
        h0s = list(zip(s21.tolist(), ex.pointwise(patch.h.value, *curve.point(s21)).tolist()))
        alpha = None
        if abs(d[1]) > 1e-9:
            alpha = -d[0] / (2.0 * d[1])
        err = roundtrip(patch, curve, span, min(1.0, window / 6.0))
        return Class2(direction=d, base=base, h0_samples=h0s, alpha=alpha,
                      rebuild_error=err)

    if np.abs(kappas - kappas.mean()).max() <= tol_kappa * max(1.0, abs(kappas.mean())):
        # circular seed: the graph must be a plane; fit a x + b y + c t = d
        arr = np.array(samples)
        design = np.column_stack([arr[:, 0], arr[:, 1], np.ones(len(arr))])
        coef, *_ = np.linalg.lstsq(design, arr[:, 2], rcond=None)
        alpha_c, beta_c, delta_c = map(float, coef)
        residual = float(np.abs(design @ coef - arr[:, 2]).max())
        if residual > tol:
            return NotEntire(f"circular seed but non-planar heights (residual {residual})")
        # t = alpha x + beta y + delta  <=>  (-alpha) x + (-beta) y + t = delta
        a, b, c, d0 = -alpha_c, -beta_c, 1.0, delta_c
        scale = math.sqrt(a * a + b * b + c * c)
        sigma = (-2.0 * b / c, 2.0 * a / c, d0 / c)
        return Class1(a / scale, b / scale, c / scale, d0 / scale, sigma, residual)

    return NotEntire("seed curve is neither a line nor a circle at tolerance")
