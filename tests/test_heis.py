import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmin.heis import HPoint, ORIGIN, dilate, group_mul

coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
points = st.builds(HPoint, coord, coord, coord)


def close(g: HPoint, h: HPoint, tol: float = 1e-12) -> bool:
    return (math.isclose(g.x, h.x, rel_tol=tol, abs_tol=tol)
            and math.isclose(g.y, h.y, rel_tol=tol, abs_tol=tol)
            and math.isclose(g.t, h.t, rel_tol=tol, abs_tol=tol))


def test_identity():
    assert group_mul(ORIGIN, HPoint(3, -1, 2)) == HPoint(3, -1, 2)
    assert group_mul(HPoint(3, -1, 2), ORIGIN) == HPoint(3, -1, 2)


def test_product_picks_up_area_term():
    # commutator term: t = -(x'y - xy')/2 with x'=0, y'=1, x=1, y=0
    assert group_mul(HPoint(1, 0, 0), HPoint(0, 1, 0)) == HPoint(1, 1, 0.5)


def test_inverse_cancels():
    assert group_mul(HPoint(1, 2, 3), HPoint(-1, -2, -3)) == ORIGIN


def test_dilations():
    assert dilate(1.0, HPoint(1, 1, 1)) == HPoint(1, 1, 1)
    assert dilate(2.0, HPoint(1, 1, 1)) == HPoint(2, 2, 4)
    assert dilate(-1.0, HPoint(1, 0, 3)) == HPoint(-1, 0, 3)


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        HPoint(math.inf, 0, 0)
    with pytest.raises(ValueError):
        HPoint(0, math.nan, 0)


@given(points, points, points)
@settings(max_examples=200)
def test_associativity(a, b, c):
    left = group_mul(group_mul(a, b), c)
    right = group_mul(a, group_mul(b, c))
    scale = max(1.0, abs(left.t), abs(right.t))
    assert abs(left.x - right.x) <= 1e-12 * scale
    assert abs(left.y - right.y) <= 1e-12 * scale
    assert abs(left.t - right.t) <= 1e-12 * scale


@given(points, points, st.floats(min_value=-4.0, max_value=4.0, allow_nan=False))
@settings(max_examples=200)
def test_dilation_is_group_automorphism(a, b, lam):
    lhs = dilate(lam, group_mul(a, b))
    rhs = group_mul(dilate(lam, a), dilate(lam, b))
    scale = max(1.0, abs(lhs.t))
    assert close(lhs, rhs, 1e-12) or abs(lhs.t - rhs.t) <= 1e-12 * scale


@given(points, st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=200)
def test_dilation_composition(g, lam, mu):
    lhs = dilate(lam, dilate(mu, g))
    rhs = dilate(lam * mu, g)
    assert close(lhs, rhs, 1e-12) or abs(lhs.t - rhs.t) <= 1e-10 * max(1, abs(rhs.t))
