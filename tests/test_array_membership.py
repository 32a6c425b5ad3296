"""Membership predicates marked as valid over arrays give, at every point,
the bool of their float call."""

import math

import numpy as np

from hmin.fields import FD_STEP, HESS_STEP, Grid2, _stencil_points
from hmin.gallery import gallery_get, gallery_names


def _marked_domains():
    """Every gallery domain (graph, lower graph, verify, scan) whose predicate is marked."""
    found = {}
    for name in gallery_names():
        entry = gallery_get(name)
        for dom in (entry.graph and entry.graph.domain,
                    entry.graph_lower and entry.graph_lower.domain,
                    entry.verify_domain, entry.scan_domain):
            if dom is not None and getattr(dom.membership, "over_arrays", False):
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


def test_marked_predicates_are_those_of_the_gallery_domains():
    assert sorted({name for name, _ in _marked_domains()}) == [
        "catenoid", "counterexample", "gencurve-n", "iso-profile"]


def test_marked_predicates_give_the_float_bools_on_lattices_stencils_and_edges():
    ex, ey = _edge_points()
    for name, dom in _marked_domains():
        gx, gy = (a.ravel() for a in Grid2(dom, 101, 101).mesh())
        xs, ys = [gx, np.array(ex)], [gy, np.array(ey)]
        for h in (FD_STEP, HESS_STEP):
            for px, py in _stencil_points(gx, gy, h):
                xs.append(px)
                ys.append(py)
        x, y = np.concatenate(xs), np.concatenate(ys)
        got = dom.membership(x, y)
        assert isinstance(got, np.ndarray) and got.dtype == bool, name
        want = [bool(dom.membership(a, b)) for a, b in zip(x.tolist(), y.tolist())]
        assert got.tolist() == want, name
        assert got.any() and not got.all(), name
