import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hmin import report
from hmin.report import check_leq, digest_of, worst_abs


def test_worst_abs_of_no_samples_is_nan_and_fails():
    for values in ([], (v for v in ()), np.empty(0)):
        worst = worst_abs(values)
        assert math.isnan(worst)
        assert not check_leq("c", worst, 1.0).passed


def test_worst_abs_is_the_largest_magnitude():
    assert worst_abs([0.5, -2.0, 1.0]) == 2.0


@pytest.mark.parametrize("values", [[math.nan, 1.0, 2.0],
                                    [1.0, math.nan, 2.0],
                                    [1.0, 2.0, math.nan]])
def test_worst_abs_nan_anywhere_is_nan_and_fails(values):
    worst = worst_abs(iter(values))
    assert math.isnan(worst)
    assert not check_leq("c", worst, 1.0).passed


def test_worst_abs_inf_is_inf():
    assert worst_abs([1.0, -math.inf]) == math.inf


@pytest.mark.parametrize("spec", [
    {},
    {"kind": "graph", "graph": {"h": "x*y/2", "domain": {"xmin": -1, "xmax": 1}}},
    {"b": [1, {"c": None, "a": True}], "a": "\u00e9\u03b3 \u2014 \U0001d4bd"},
    {"floats": [0.1, -0.0, 1e-300, 1e308, math.pi], "nan": math.nan, "inf": -math.inf},
    {"gallery": {"name": "gencurve-n", "params": {"n": 3}}, "command": "gallery"},
])
def test_digest_is_the_openssl_sha256_prefix(spec):
    text = json.dumps(spec, sort_keys=True, default=str)
    assert digest_of(spec) == hashlib.sha256(text.encode()).hexdigest()[:16]


def test_digest_of_the_empty_spec_is_pinned():
    assert digest_of({}) == "44136fa355b3678a"


@pytest.mark.skipif(not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")),
                    reason="no built-in SHA-256 module in this build")
def test_no_command_loads_openssl(tmp_path):
    # pytest and hypothesis import hashlib themselves, so this runs in a
    # fresh interpreter
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"kind": "graph", "graph": {"h": "x*y/2 + 0.3*x"}}))
    plane = tmp_path / "plane.json"
    plane.write_text(json.dumps({"kind": "graph", "graph": {"h": "(1 + x + 2*y)/2"}}))
    commands = [["gallery", "counterexample"],
                ["verify", "--spec", str(graph)],
                ["classify", "--spec", str(plane)],
                ["build", "--spec", str(graph), "--grid", "5", "5"]]
    code = (
        "import json, sys\n"
        "from hmin.cli import main\n"
        f"codes = [main(argv + ['--out', {str(tmp_path / 'o')!r}]) for argv in {commands!r}]\n"
        "print(json.dumps([codes, '_hashlib' in sys.modules]))\n")
    src = str(Path(report.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True)
    assert json.loads(run.stdout.splitlines()[-1]) == [[0, 0, 0, 0], False]
