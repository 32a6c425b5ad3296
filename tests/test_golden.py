"""The digest manifest of tools/golden.py: on one small op, a digest that
changes is named, and a manifest of another platform is reported as such;
and every output matches the committed manifest, on the platform it was
recorded on."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "golden.py"
_spec = importlib.util.spec_from_file_location("golden", TOOL)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

KEY = "cli-mix/seed1/warmup"


def test_runs_cover_every_op_of_the_workloads_at_three_seeds():
    keys = [key for key, _ in golden.runs()]
    assert len(keys) == len(set(keys))
    # 9 + 3 + 15 ops and a warm-up per workload and seed, and 17 more
    assert len(keys) == 3 * (9 + 3 + 15 + 3) + 17
    assert "extra/all" in keys and KEY in keys


def test_check_names_the_run_whose_digest_changed(tmp_path, capsys):
    manifest = tmp_path / "golden.json"
    argv = ["--manifest", str(manifest), "--only", KEY]
    assert golden.main(["--write", *argv]) == 0
    data = json.loads(manifest.read_text())
    assert list(data["digests"]) == [KEY]
    assert golden.main(["--check", *argv]) == 0

    data["digests"][KEY] = "0" * 64
    manifest.write_text(json.dumps(data))
    capsys.readouterr()
    assert golden.main(["--check", *argv]) == 1
    out = capsys.readouterr().out
    assert f"changed: {KEY}" in out and "0 of 1 recorded digests match" in out

    data["platform"]["numpy"] = "0.0"
    manifest.write_text(json.dumps(data))
    assert golden.main(["--check", *argv]) == 2
    assert "different platform" in capsys.readouterr().out


def test_every_output_matches_the_committed_manifest(capsys):
    # an output change shows here, and the change that makes it rewrites the manifest
    recorded = json.loads(golden.MANIFEST.read_text())["platform"]
    if recorded != golden.platform_header():
        pytest.skip(f"the manifest is of {recorded}, not of this platform")
    assert golden.main(["--check"]) == 0, capsys.readouterr().out
