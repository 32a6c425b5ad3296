"""Every callable a gallery entry stores takes arrays: one call with an
array gives, element by element, the repr of its float call there.

That covers the membership predicates of the gallery's domains, the h0
profiles of its ruled patches, the closed forms of its seeds and the
catenoid's radius law, each on its 101x101 lattice or 101-point s grid
and at its boundary points.
"""

import math

import numpy as np

from hmin.fields import FD_STEP, HESS_STEP, Grid2, Profile, _stencil_points
from hmin.gallery import gallery_get, gallery_names


def _entries():
    """Every gallery entry at its default parameters, and gencurve's even root."""
    return [(name, gallery_get(name)) for name in gallery_names() + ["gencurve-2"]]


def _gallery_domains():
    """Every gallery domain (graph, lower graph, verify) with a predicate."""
    found = {}
    for name, entry in _entries():
        for dom in (entry.graph and entry.graph.domain,
                    entry.graph_lower and entry.graph_lower.domain,
                    entry.verify_domain):
            if dom is not None and dom.membership is not None:
                found.setdefault(id(dom.membership), (name, dom))
    return list(found.values())


def _near(v: float, k: int = 4) -> list[float]:
    """v and its k nearest floats on either side."""
    out, lo, hi = [v], v, v
    for _ in range(k):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


# the boundaries of the gallery's predicates
_ANGLES = (0.95, 0.9)                                   # counterexample sectors
_LINES = (0.1, 0.25, 0.05, -0.05, -0.1)                 # x = 0.1, 0.25; |x| = 0.05, 0.1
_CIRCLES = (2.0 + 0.08, 2.0 + 0.15,                     # catenoid rims at a = 2
            *((f * 1.0) * (f * 1.0) for f in (0.04, 0.96, 0.05, 0.95)))  # iso-profile, R = 1


# on x86-64 with numpy 2.4, np.arctan2 puts these points on the other side
# of the sector edges |atan2(y, x)| = 0.95 and 0.9 than math.atan2 does
_ARCTAN2_SPLITS = ((0.10015500000000001, 0.14005500823010952),
                   (0.10001550000000001, 0.12603535420740597))


def _edge_points() -> tuple[list[float], list[float]]:
    xs, ys = [x for x, _ in _ARCTAN2_SPLITS] * 2, [y for _, y in _ARCTAN2_SPLITS]
    ys += [-y for y in ys]
    for angle in _ANGLES:
        for x in (0.3, 1.0, 2.5):
            for y in _near(x * math.tan(angle)):
                xs += [x, x]
                ys += [y, -y]
    for line in _LINES:
        for x in _near(line):
            xs += [x] * 3
            ys += [-1.0, 0.0, 0.3]
    for b in _CIRCLES:
        for t in (0.0, 0.3, 1.1, 2.0, -2.5):
            for x in _near(math.sqrt(b) * math.cos(t)):
                for y in _near(math.sqrt(b) * math.sin(t)):
                    xs.append(x)
                    ys.append(y)
    return xs, ys


def test_edge_points_lie_on_every_boundary():
    xs, ys = _edge_points()
    assert {a for a in _ANGLES if any(abs(math.atan2(y, x)) == a for x, y in zip(xs, ys))} == set(_ANGLES)
    assert set(_LINES) <= set(xs)
    assert {b for b in _CIRCLES if any(x * x + y * y == b for x, y in zip(xs, ys))} == set(_CIRCLES)


def test_marked_predicates_give_the_float_bools_on_lattices_stencils_and_edges():
    ex, ey = _edge_points()
    domains = _gallery_domains()
    assert sorted({name for name, _ in domains}) == [
        "catenoid", "counterexample", "gencurve-n", "iso-profile"]
    for name, dom in domains:
        gx, gy = (a.ravel() for a in Grid2(dom, 101, 101).mesh())
        xs, ys = [gx, np.array(ex)], [gy, np.array(ey)]
        for h in (FD_STEP, HESS_STEP):
            for px, py in _stencil_points(gx, gy, h):
                xs.append(px)
                ys.append(py)
        x, y = np.concatenate(xs), np.concatenate(ys)
        got = dom.membership(x, y)
        assert isinstance(got, np.ndarray) and got.dtype == bool, name
        want = [repr(dom.membership(a, b)) for a, b in zip(x.tolist(), y.tolist())]
        assert [repr(v) for v in got.tolist()] == want, name
        assert got.any() and not got.all(), name


def _s_grid(lo: float, hi: float) -> np.ndarray:
    """101 points over [lo, hi], and each end with its nearest floats."""
    return np.concatenate([np.linspace(lo, hi, 101), _near(lo), _near(hi)])


def _assert_takes_arrays(label: str, fn, s: np.ndarray):
    """One call of fn with s gives arrays as long as s, whose elements are
    the reprs of its float calls; fn returns a float or a tuple of floats."""
    got = fn(s)
    cols = got if isinstance(got, tuple) else (got,)
    assert all(isinstance(c, np.ndarray) and c.shape == s.shape for c in cols), label
    scalar = [fn(v) for v in s.tolist()]
    want = list(zip(*scalar)) if isinstance(got, tuple) else [scalar]
    assert ([[repr(v) for v in c.tolist()] for c in cols]
            == [list(map(repr, w)) for w in want]), label


def _stored_callables():
    """(label, callable, s) of every profile, seed closed form and radius
    law the gallery entries store."""
    out = []
    for name, entry in _entries():
        curves = []
        if entry.ruled is not None:
            patch = entry.ruled()
            curves.append(("ruled seed", patch.seed))
            s = _s_grid(*patch.s_range)
            for which in ("f", "d1", "d2"):
                fn = getattr(patch.h0, which)
                if fn is not None:
                    out.append((f"{name} h0.{which}", fn, s))
        if entry.known_seed is not None:
            curves.append(("known seed", entry.known_seed(entry.seed_base)))
        if entry.gsc is not None:
            curves += [(f"gsc {piece.name}", piece.curve) for piece in entry.gsc().pieces]
        for label, curve in curves:
            for which in ("gamma_fn", "dgamma_fn", "ddgamma_fn"):
                fn = getattr(curve, which)
                if fn is not None:
                    out.append((f"{name} {label} {which}", fn, _s_grid(curve.s_min, curve.s_max)))
        if entry.radius_law is not None:
            out.append((f"{name} radius_law",
                        lambda s, entry=entry: entry.radius_law(entry.seed_base, s),
                        _s_grid(-1.0, 0.0)))
    return out


def test_stored_profiles_seeds_and_radius_laws_give_their_float_calls_over_arrays():
    stored = _stored_callables()
    labels = {label.split()[0] + " " + label.split()[-1] for label, _, _ in stored}
    # constant, closed-form and sampled heights, seed closed forms and the radius law
    assert {"catenoid h0.f", "catenoid h0.d1", "gencurve-n h0.f", "gencurve-2 h0.f",
            "char-plane h0.f", "catenoid radius_law", "optreg2 ddgamma_fn"} <= labels
    for label, fn, s in stored:
        _assert_takes_arrays(label, fn, s)


def test_expression_and_constant_profiles_take_arrays():
    s = _s_grid(-0.9, 0.9)
    for profile in (Profile.from_expr("sqrt(1 - s^2)"), Profile.from_expr("-s/2"),
                    Profile.from_expr("2.5"), Profile.from_expr("0"), Profile.from_expr("-1.5"),
                    Profile(f=Profile.from_expr("-atanh(s)").f)):
        for fn in (profile, profile.d, profile.d2 or profile.d):
            _assert_takes_arrays(repr(profile), fn, s)
