"""Exact algebra of the first Heisenberg group.

Points are triples (x, y, t) with the non-Abelian product

    (x, y, t) o (x', y', t') = (x + x', y + y', t + t' - (x'y - xy')/2)

and anisotropic dilations (x, y, t) -> (lx, ly, l^2 t).  The inverse of
(x, y, t) is (-x, -y, -t).

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


ORIGIN = HPoint(0.0, 0.0, 0.0)


def group_mul(g: HPoint, h: HPoint) -> HPoint:
    # The commutator term (x'y - xy') is Im<z, conj(z')> for z = x + iy.
    return HPoint(
        g.x + h.x,
        g.y + h.y,
        g.t + h.t - 0.5 * (h.x * g.y - g.x * h.y),
    )


def dilate(lam: float, g: HPoint) -> HPoint:
    """Anisotropic dilation: the center coordinate scales with lam^2."""
    return HPoint(lam * g.x, lam * g.y, lam * lam * g.t)

