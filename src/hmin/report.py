"""Machine-readable check records shared by the gallery and the CLI."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np


@dataclass
class Check:
    name: str
    measured: float
    threshold: float
    passed: bool
    note: str = ""

    def as_dict(self) -> dict:
        d = {"name": self.name, "measured": self.measured,
             "threshold": self.threshold, "pass": self.passed}
        if self.note:
            d["note"] = self.note
        return d


def worst_abs(values: Iterable[float]) -> float:
    """The largest |v| over the samples, NaN when there are none.

    A NaN sample anywhere makes the result NaN, so a ``check_leq`` on it
    fails instead of the sample being silently dropped by ``max``; so does
    a check that measured no sample at all.
    """
    arr = np.abs(values if isinstance(values, np.ndarray) else np.fromiter(values, dtype=float))
    return float(arr.max()) if arr.size else math.nan


def check_leq(name: str, measured: float, threshold: float, note: str = "") -> Check:
    return Check(name, float(measured), float(threshold), bool(measured <= threshold), note)


def check_flag(name: str, ok: bool, note: str = "") -> Check:
    return Check(name, 0.0 if ok else 1.0, 0.5, bool(ok), note)


@dataclass
class Report:
    command: str
    inputs_digest: str
    checks: list[Check] = field(default_factory=list)
    defaults: dict = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)
    wall_time_s: float = 0.0
    result: Optional[dict] = None   # command-specific payload (e.g. a verdict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, check: Check) -> Check:
        self.checks.append(check)
        return check

    def as_dict(self) -> dict:
        out = {
            "command": self.command,
            "inputs_digest": self.inputs_digest,
            "pass": self.passed,
            "checks": [c.as_dict() for c in self.checks],
            "defaults": self.defaults,
            "outputs": self.outputs,
            "wall_time_s": self.wall_time_s,
        }
        if self.result is not None:
            out["result"] = self.result
        return out

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def digest_of(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()[:16]
