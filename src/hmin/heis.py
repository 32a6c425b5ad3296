"""Exact algebra of the first Heisenberg group.

Points are triples (x, y, t) with the non-Abelian product

    (x, y, t) o (x', y', t') = (x + x', y + y', t + t' - (x'y - xy')/2)

and anisotropic dilations (x, y, t) -> (lx, ly, l^2 t).  The left-invariant
horizontal frame is X1 = d/dx - (y/2) d/dt, X2 = d/dy + (x/2) d/dt, T = d/dt;
``frame_from_cartesian``/``frame_to_cartesian`` convert vector components
between the Cartesian basis of R^3 and {X1, X2, T} at a base point.

All operations are pure functions on immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class HPoint:
    """A point of the first Heisenberg group (R^3 with the group product)."""

    x: float
    y: float
    t: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.t)):
            raise ValueError(f"HPoint components must be finite, got {(self.x, self.y, self.t)}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.t)


@dataclass(frozen=True)
class FrameVector:
    """Vector components (a, b, c) with respect to the frame {X1, X2, T}."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b) and math.isfinite(self.c)):
            raise ValueError(f"FrameVector components must be finite, got {(self.a, self.b, self.c)}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)


ORIGIN = HPoint(0.0, 0.0, 0.0)


def group_mul(g: HPoint, h: HPoint) -> HPoint:
    # The commutator term (x'y - xy') is Im<z, conj(z')> for z = x + iy.
    return HPoint(
        g.x + h.x,
        g.y + h.y,
        g.t + h.t - 0.5 * (h.x * g.y - g.x * h.y),
    )


def group_inv(g: HPoint) -> HPoint:
    # Componentwise negation inverts the product: the commutator term is
    # antisymmetric, so it cancels in g o g^-1.
    return HPoint(-g.x, -g.y, -g.t)


def dilate(lam: float, g: HPoint) -> HPoint:
    """Anisotropic dilation: the center coordinate scales with lam^2."""
    return HPoint(lam * g.x, lam * g.y, lam * lam * g.t)


def frame_from_cartesian(v: tuple[float, float, float], at: HPoint) -> FrameVector:
    """Express a Cartesian vector (a, b, c) at ``at`` in the frame {X1, X2, T}.

    A Cartesian field (a, b, c) equals a*X1 + b*X2 + (c + a*y/2 - b*x/2)*T,
    so the frame coefficients are (a, b, c + a*y/2 - b*x/2).
    """
    a, b, c = v
    return FrameVector(a, b, c + 0.5 * a * at.y - 0.5 * b * at.x)


def frame_to_cartesian(v: FrameVector, at: HPoint) -> tuple[float, float, float]:
    """Inverse of :func:`frame_from_cartesian` at the same base point."""
    return (v.a, v.b, v.c - 0.5 * v.a * at.y + 0.5 * v.b * at.x)
