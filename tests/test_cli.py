import argparse
import ast
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from hmin import cli, fields, gallery, surface
from hmin.cli import main
from hmin.errors import SpecError
from hmin.meshes import lint_obj
from hmin.ruled import classify_entire_graph


def write_spec(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def specs(tmp_path):
    return {
        "hyp_gallery": write_spec(tmp_path, "hyp.json",
                                  {"kind": "gallery", "gallery": {"name": "hyperbolic"}}),
        "char_gallery": write_spec(tmp_path, "char.json",
                                   {"kind": "gallery", "gallery": {"name": "char-plane"}}),
        "parab": write_spec(tmp_path, "parab.json", {
            "kind": "graph",
            "graph": {"h": "(x^2+y^2)/4",
                      "domain": {"xmin": -2, "xmax": 2, "ymin": -2, "ymax": 2}}}),
        "plane": write_spec(tmp_path, "plane.json", {
            "kind": "graph",
            "graph": {"h": "(4 - x - 2*y)/2",
                      "domain": {"xmin": -3, "xmax": 3, "ymin": -3, "ymax": 3}}}),
        "hyp_graph": write_spec(tmp_path, "hypg.json", {
            "kind": "graph",
            "graph": {"h": "x*y/2",
                      "domain": {"xmin": -3, "xmax": 3, "ymin": -3, "ymax": 3}}}),
        "cylinder": write_spec(tmp_path, "cyl.json", {
            "kind": "ruled",
            "ruled": {"seed": {"kind": "expression", "x": "s", "y": "0"},
                      "h0": "sqrt(1 - s^2)",
                      "s_range": [-0.9, 0.9], "r_range": [-1, 1]}}),
        "bad_expr": write_spec(tmp_path, "bad.json", {
            "kind": "graph", "graph": {"h": "2**x"}}),
        "bad_schema": write_spec(tmp_path, "bad2.json", {
            "kind": "graph", "graph": {"nope": 1}}),
        "implicit": write_spec(tmp_path, "imp.json", {
            "kind": "implicit",
            "implicit": {"phi": "t - x*y/2",
                         "window": {"xmin": 0.5, "xmax": 2, "ymin": 0.5, "ymax": 2}}}),
    }


def test_verify_gallery_passes(specs, tmp_path):
    assert main(["verify", "--spec", specs["hyp_gallery"],
                 "--out", str(tmp_path / "o1")]) == 0
    report = json.loads((tmp_path / "o1" / "report.json").read_text())
    assert report["pass"] is True
    names = {c["name"] for c in report["checks"]}
    assert "h_scan_analytic" in names and "roundtrip" in names


def test_verify_non_minimal_graph_fails(specs, tmp_path):
    assert main(["verify", "--spec", specs["parab"], "--grid", "41", "41",
                 "--out", str(tmp_path / "o2")]) == 1
    report = json.loads((tmp_path / "o2" / "report.json").read_text())
    measured = {c["name"]: c["measured"] for c in report["checks"]}
    assert measured["max_abs_h_curvature"] >= 0.7   # 0.707 at (1, 0), larger inward


def test_verify_implicit(specs, tmp_path):
    assert main(["verify", "--spec", specs["implicit"], "--grid", "11", "11",
                 "--out", str(tmp_path / "o3")]) == 0


@pytest.mark.parametrize("phi,note", [
    # a vertical plane: only the 51 nodes on x = 2y have a height
    ("x - 2*y", "51 nodes evaluated, 0 near the characteristic set, 10150 without a height"),
    # W = |y| on t = x y / 2: the nodes of the x-axis are characteristic
    ("t - x*y/2", "10100 nodes evaluated, 101 near the characteristic set, 0 without a height"),
])
def test_verify_implicit_says_why_nodes_were_not_evaluated(tmp_path, phi, note):
    spec = write_spec(tmp_path, "in.json", {"kind": "implicit", "implicit": {"phi": phi}})
    assert main(["verify", "--spec", spec, "--out", str(tmp_path / "v")]) == 0
    check = json.loads((tmp_path / "v" / "report.json").read_text())["checks"][0]
    assert (check["name"], check["measured"], check["note"]) == ("max_abs_h_curvature", 0.0, note)


def test_verify_graph_scan_counts_nodes_where_w_is_not_finite(tmp_path):
    spec = write_spec(tmp_path, "in.json", {"kind": "graph", "graph": {
        "h": "x*y/2 + sqrt(x)", "domain": {"xmin": -1, "xmax": 1, "ymin": -1, "ymax": 1}}})
    assert main(["verify", "--spec", spec, "--out", str(tmp_path / "v")]) == 1
    checks = json.loads((tmp_path / "v" / "report.json").read_text())["checks"]
    scan = [c for c in checks if c["name"] == "characteristic_scan"][0]
    assert scan["note"] == "1 component(s), 5151 node(s) where W is not finite"


def test_verify_graph_scan_note_leaves_out_a_zero_count(specs, tmp_path):
    assert main(["verify", "--spec", specs["parab"], "--grid", "11", "11",
                 "--out", str(tmp_path / "v")]) == 1
    checks = json.loads((tmp_path / "v" / "report.json").read_text())["checks"]
    assert [c["note"] for c in checks if c["name"] == "characteristic_scan"] == ["1 component(s)"]


def test_verify_graph_scan_fails_where_w_is_not_finite(specs, tmp_path):
    spec = write_spec(tmp_path, "in.json", {"kind": "graph", "graph": {
        "h": "x*y/2 + sqrt(x)", "domain": {"xmin": -1, "xmax": 1, "ymin": -1, "ymax": 1}}})
    passed = {}
    for name, path in (("sqrt", spec), ("parab", specs["parab"])):
        main(["verify", "--spec", path, "--grid", "41", "41", "--out", str(tmp_path / name)])
        checks = json.loads((tmp_path / name / "report.json").read_text())["checks"]
        passed[name] = [c["pass"] for c in checks if c["name"] == "characteristic_scan"]
    assert passed == {"sqrt": [False], "parab": [True]}


def test_spec_errors_exit_2(specs, tmp_path):
    assert main(["verify", "--spec", specs["bad_expr"], "--out", str(tmp_path)]) == 2
    assert main(["verify", "--spec", specs["bad_schema"], "--out", str(tmp_path)]) == 2
    assert main(["verify", "--spec", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path)]) == 2


def test_seed_csv_contract(specs, tmp_path):
    out = tmp_path / "seed_out"
    assert main(["seed", "--spec", specs["char_gallery"], "--z0", "1", "0",
                 "--span", "3.14", "--out", str(out)]) == 0
    lines = (out / "seed.csv").read_text().splitlines()
    assert lines[0] == "s,r,x,y,t,kappa,W,branch,dx,dy"
    rows = [line.split(",") for line in lines[1:]]
    by_s = {float(r[0]): r for r in rows}
    row = by_s[1.0]
    assert float(row[2]) == pytest.approx(math.cos(1.0), abs=1e-8)
    assert float(row[3]) == pytest.approx(math.sin(1.0), abs=1e-8)
    assert all(abs(float(r[5]) + 1.0) <= 1e-6 for r in rows)   # kappa column = -1
    assert all(r[7] == "seed" for r in rows)


def test_seed_characteristic_start_exit_3(specs, tmp_path):
    assert main(["seed", "--spec", specs["char_gallery"], "--z0", "0", "0",
                 "--out", str(tmp_path / "s3")]) == 3


def test_seed_hyperbolic_row(specs, tmp_path):
    out = tmp_path / "seed_hyp"
    assert main(["seed", "--spec", specs["hyp_gallery"], "--z0", "0", "1",
                 "--span", "1.5", "--out", str(out)]) == 0
    lines = (out / "seed.csv").read_text().splitlines()[1:]
    by_s = {float(r.split(",")[0]): r.split(",") for r in lines}
    assert float(by_s[1.0][2]) == pytest.approx(-1.0, abs=1e-9)
    assert float(by_s[1.0][3]) == pytest.approx(1.0, abs=1e-9)


def test_seed_and_battery_report_the_one_radius_law_deviation(tmp_path, monkeypatch):
    monkeypatch.setattr(gallery, "radius_law_deviation", lambda curve, law, z0, s: 0.125)
    spec = write_spec(tmp_path, "in.json", {"kind": "gallery", "gallery": {"name": "catenoid"}})
    assert main(["seed", "--spec", spec, "--z0", "2", "0", "--span", "0.95",
                 "--out", str(tmp_path / "s")]) == 1
    assert main(["gallery", "catenoid", "--out", str(tmp_path / "g")]) == 1
    measured = {}
    for out in ("s", "g"):
        report = json.loads((tmp_path / out / "report.json").read_text())
        measured.update((c["name"], c["measured"]) for c in report["checks"])
    assert (measured["radius_law"], measured["catenoid.seed_extraction"]) == (0.125, 0.125)


def test_build_mesh_combinatorics_and_form(specs, tmp_path):
    out = tmp_path / "mesh_out"
    assert main(["build", "--spec", specs["cylinder"], "--grid", "50", "50",
                 "--out", str(out)]) == 0
    obj = (out / "mesh.obj").read_text().splitlines()
    verts = [l for l in obj if l.startswith("v ")]
    faces = [l for l in obj if l.startswith("f ")]
    assert len(verts) == 2500
    assert len(faces) == 2 * 49 * 49
    for line in verts:
        _, x, y, t = line.split()
        x, y, t = float(x), float(y), float(t)
        assert (t - x * y / 2) ** 2 == pytest.approx(1 - x * x, abs=1e-9)
    assert lint_obj(str(out / "mesh.obj")) == []


def test_build_flat_ruled_plane(tmp_path):
    spec = write_spec(tmp_path, "flat.json", {
        "kind": "ruled",
        "ruled": {"seed": {"kind": "expression", "x": "cos(s)", "y": "sin(s)"},
                  "h0": "0", "s_range": [-1.0, 1.0], "r_range": [-0.5, 0.5]}})
    out = tmp_path / "flatmesh"
    assert main(["build", "--spec", spec, "--grid", "20", "20", "--out", str(out)]) == 0
    for line in (out / "mesh.obj").read_text().splitlines():
        if line.startswith("v "):
            assert float(line.split()[3]) == 0.0


def test_build_determinism(specs, tmp_path):
    a, b = tmp_path / "d1", tmp_path / "d2"
    assert main(["build", "--spec", specs["cylinder"], "--grid", "30", "30",
                 "--out", str(a)]) == 0
    assert main(["build", "--spec", specs["cylinder"], "--grid", "30", "30",
                 "--out", str(b)]) == 0
    assert (a / "mesh.obj").read_bytes() == (b / "mesh.obj").read_bytes()


def test_loci_csv(specs, tmp_path):
    out = tmp_path / "loci_char"
    assert main(["loci", "--spec", specs["char_gallery"], "--out", str(out)]) == 0
    lines = (out / "loci.csv").read_text().splitlines()
    assert lines[0] == "s,r,x,y,t,kappa,W,branch"
    rows = [l.split(",") for l in lines[1:]]
    char_rows = [r for r in rows if r[7] == "double-root"]
    assert char_rows and all(abs(float(r[1]) + 1.0) <= 1e-9 for r in char_rows)
    # images cluster at the group origin
    assert all(math.hypot(float(r[2]), float(r[3])) <= 1e-8 for r in char_rows)
    assert [r for r in rows if r[7] == "singular"]


def test_loci_counterexample_empty(tmp_path):
    spec = write_spec(tmp_path, "ce.json",
                      {"kind": "gallery", "gallery": {"name": "counterexample"}})
    out = tmp_path / "loci_ce"
    assert main(["loci", "--spec", spec, "--out", str(out)]) == 0
    lines = (out / "loci.csv").read_text().splitlines()
    assert all(l.split(",")[7] == "singular" for l in lines[1:])


def test_loci_optreg2_corner_flagged(tmp_path):
    spec = write_spec(tmp_path, "opt.json",
                      {"kind": "gallery", "gallery": {"name": "optreg2"}})
    out = tmp_path / "loci_opt"
    assert main(["loci", "--spec", spec, "--out", str(out)]) == 0
    lines = (out / "loci.csv").read_text().splitlines()[1:]
    rows = [l.split(",") for l in lines]
    at0 = [r for r in rows if float(r[0]) == 0.0 and r[7] != "singular"]
    assert len(at0) == 1 and float(at0[0][1]) == pytest.approx(1.0, abs=1e-9)
    assert at0[0][7] == "kappa-zero"
    rep = json.loads((out / "report.json").read_text())
    corner = [c for c in rep["checks"] if c["name"] == "branch_corners"][0]
    assert corner["note"] == "slope jump at s = 0"   # the one corner of the branch


def test_loci_smooth_branch_has_no_corner_flag(tmp_path):
    spec = write_spec(tmp_path, "hyp_loci.json",
                      {"kind": "gallery", "gallery": {"name": "hyperbolic"}})
    out = tmp_path / "loci_smooth"
    assert main(["loci", "--spec", spec, "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    corner = [c for c in rep["checks"] if c["name"] == "branch_corners"][0]
    assert corner["note"] == "none detected"


# steep, smooth branches: their slopes change by more than 0.5 between
# neighbouring samples, but gradually
@pytest.mark.parametrize("name", ["cylinder", "gencurve-n", "gencurve-2", "gencurve-4"])
def test_loci_steep_smooth_branch_has_no_corner_flag(tmp_path, name):
    spec = write_spec(tmp_path, "g.json", {"kind": "gallery", "gallery": {"name": name}})
    assert main(["loci", "--spec", spec, "--out", str(tmp_path / "l")]) == 0
    rep = json.loads((tmp_path / "l" / "report.json").read_text())
    notes = [c["note"] for c in rep["checks"] if c["name"] == "branch_corners"]
    assert notes == ["none detected"]


def test_loci_names_the_s_where_w0_is_not_finite(tmp_path, capsys):
    spec = write_spec(tmp_path, "in.json",
                      {"kind": "ruled", "ruled": {**NAN_RULED["ruled"], "r_range": [-0.9, 0.9]}})
    assert main(["loci", "--spec", spec, "--out", str(tmp_path / "l")]) == 2
    assert capsys.readouterr().err == (
        "error: W0 or kappa not finite at s=-1.5 (W0 = nan, kappa = 0.0)\n")


def test_loci_keeps_to_the_patch_s_range(tmp_path):
    # a unit-circle seed sampled over s in [-2, 2], used over s_range [-1, 1]
    samples = tmp_path / "circle.csv"
    nodes = np.linspace(-2.0, 2.0, 401).tolist()
    samples.write_text("s,x,y,dx,dy\n" + "".join(
        f"{s!r},{math.cos(s)!r},{math.sin(s)!r},{-math.sin(s)!r},{math.cos(s)!r}\n" for s in nodes))
    spec = write_spec(tmp_path, "circle.json", {"kind": "ruled", "ruled": {
        "seed": {"kind": "samples", "path": str(samples)}, "h0": "0",
        "s_range": [-1, 1], "r_range": [-0.5, 0.5]}})
    assert main(["verify", "--spec", spec, "--out", str(tmp_path / "v")]) == 0
    out = tmp_path / "loci"
    assert main(["loci", "--spec", spec, "--out", str(out)]) == 0
    rows = [l.split(",") for l in (out / "loci.csv").read_text().splitlines()[1:]]
    assert [r for r in rows if r[7] == "singular"]
    assert all(-1.0 <= float(r[0]) <= 1.0 for r in rows)


def test_classify_examples(specs, tmp_path):
    assert main(["classify", "--spec", specs["plane"],
                 "--out", str(tmp_path / "c1")]) == 0
    rep = json.loads((tmp_path / "c1" / "report.json").read_text())
    verdict = rep["result"]
    assert verdict["kind"] == "class1"
    assert verdict["sigma"] == pytest.approx([-2.0, 1.0, 2.0], abs=1e-7)
    plane = verdict["plane"]
    scale = 1.0 / plane[0]
    assert [p * scale for p in plane] == pytest.approx([1, 2, 2, 4], abs=1e-7)

    assert main(["classify", "--spec", specs["hyp_graph"],
                 "--out", str(tmp_path / "c2")]) == 0
    rep = json.loads((tmp_path / "c2" / "report.json").read_text())
    assert rep["result"]["kind"] == "class2"

    assert main(["classify", "--spec", specs["parab"],
                 "--out", str(tmp_path / "c3")]) == 0
    rep = json.loads((tmp_path / "c3" / "report.json").read_text())
    assert rep["result"]["kind"] == "not-minimal"


def test_classify_nan_angle_function_is_not_entire(tmp_path):
    # the symbolic gradient is 0/0 at the origin, so W is NaN there; a
    # skipped NaN node used to let the graph through as class2
    spec = write_spec(tmp_path, "nanw.json", {
        "kind": "graph", "graph": {"h": "x*y/2 + 1e-300*sqrt(x^2 + y^2)^3"}})
    assert main(["classify", "--spec", spec, "--out", str(tmp_path / "c")]) == 0
    verdict = json.loads((tmp_path / "c" / "report.json").read_text())["result"]
    assert verdict == {"kind": "not-entire",
                       "reason": "angle function W not finite at (0.0, 0.0)"}


FD_ONLY = {"kind": "graph", "graph": {"h": "x*y/2", "fd_only": True}}


def test_fd_only_graph_spec_runs(tmp_path):
    # the grid sits on the inset patch domain, so every stencil stays inside
    spec = write_spec(tmp_path, "fd.json", FD_ONLY)
    for command in ("verify", "build", "classify"):
        assert main([command, "--spec", spec, "--out", str(tmp_path / command)]) == 0
    report = json.loads((tmp_path / "verify" / "report.json").read_text())
    check = report["checks"][0]
    assert check["name"] == "max_abs_h_curvature" and check["threshold"] == surface.TOL_H_FD
    assert 0.0 < check["measured"] <= 1e-6
    verdict = json.loads((tmp_path / "classify" / "report.json").read_text())["result"]
    assert verdict["kind"] == "class2"
    # classify holds |H| of difference stencils to tol_h_fd, as verify does
    for i, (h, kind) in enumerate([("(4 - x - 2*y)/2", "class1"),
                                   ("(0.3 + 0.2*x - 0.3*y)/2", "class1"),
                                   ("x*y/2 + 0.437*x - 0.2", "class2"),
                                   ("x*y/2 - 0.5*x + 0.3", "class2"),
                                   ("x*y/2 + 0.5*y + 1", "not-minimal"),
                                   ("x*y/2 + 0.25*y", "not-minimal")]):
        spec = write_spec(tmp_path, f"fd{i}.json", {"kind": "graph",
                                                    "graph": {"h": h, "fd_only": True}})
        assert main(["classify", "--spec", spec, "--out", str(tmp_path / f"c{i}")]) == 0
        verdict = json.loads((tmp_path / f"c{i}" / "report.json").read_text())["result"]
        assert verdict["kind"] == kind


# one spec of each verdict kind, with the payload's keys in order and the types of their values
CLASSIFY_PAYLOADS = {
    "class1": ("(4 - x - 2*y)/2", {"plane": [float] * 4, "sigma": [float] * 3, "residual": float}),
    "class2": ("x*y/2 + 0.3*x + 0.1", {"direction": [float] * 2, "base": [float] * 3,
                                       "alpha": (float, type(None)), "rebuild_error": float}),
    "not-minimal": ("(x^2+y^2)/4", {"max_curvature": float, "at": [float] * 2}),
    "not-entire": ("x*y/2 + 1e-300*sqrt(x^2 + y^2)^3", {"reason": str}),
}


@pytest.mark.parametrize("kind", list(CLASSIFY_PAYLOADS))
def test_classify_reports_its_payload(tmp_path, capsys, kind):
    h, types = CLASSIFY_PAYLOADS[kind]
    payload = {"kind": "graph", "graph": {"h": h}}
    result = classify_entire_graph(cli.graph_from_spec(payload))
    assert main(["classify", "--spec", write_spec(tmp_path, "g.json", payload),
                 "--out", str(tmp_path / "c")]) == 0
    report = json.loads((tmp_path / "c" / "report.json").read_text())
    assert report["result"] == result   # report.json sorts its keys
    assert list(result) == ["kind", *types]
    assert result["kind"] == kind
    for key, want in types.items():
        if isinstance(want, list):
            assert [type(v) for v in result[key]] == want
        else:
            assert isinstance(result[key], want)
    assert capsys.readouterr().out == f"classification: {kind}  {result!r}\n"
    assert [(c["name"], c["note"]) for c in report["checks"]] == [
        (f"classified_{kind}", json.dumps(result))]


def test_fd_only_inset_of_a_domain_2e_4_wide_is_one_line():
    graph = {**FD_ONLY["graph"], "domain": {"xmin": 0.0, "xmax": 2e-4, "ymin": -1.0, "ymax": 1.0}}
    dom = cli.graph_from_spec({"kind": "graph", "graph": graph}).domain
    assert (dom.xmin, dom.xmax, dom.ymin, dom.ymax) == (1e-4, 1e-4, -1.0 + 1e-4, 1.0 - 1e-4)


def test_gallery_command(tmp_path):
    assert main(["gallery", "nope", "--out", str(tmp_path / "g0")]) == 4
    assert main(["gallery", "catenoid", "--a", "2",
                 "--out", str(tmp_path / "g1")]) == 0
    rep = json.loads((tmp_path / "g1" / "report.json").read_text())
    assert rep["pass"] is True


def test_gallery_all_nine_entries(tmp_path):
    out = tmp_path / "gall"
    assert main(["gallery", "all", "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    entries = {c["name"].split(".")[0] for c in rep["checks"]}
    assert len(entries) == 9
    assert rep["pass"] is True


def test_gallery_two_names(tmp_path):
    assert main(["gallery", "char-plane", "hyperbolic",
                 "--out", str(tmp_path / "g2")]) == 0


def test_gallery_all_takes_a_parameter_of_one_entry(tmp_path):
    # only iso-profile takes R; the other eight entries run at their defaults
    out = tmp_path / "gR"
    assert main(["gallery", "all", "--R", "2", "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert len({c["name"].split(".")[0] for c in rep["checks"]}) == 9


@pytest.mark.parametrize("args,message", [
    (["gencurve-2", "--n", "4"], "'gencurve-2' has n = 2 but n = 4 is given"),
    (["gencurve-3", "--n", "-3"], "'gencurve-3' has n = 3 but n = -3 is given"),
    (["hyperbolic", "hyperbolic"], "a gallery entry is named once; named more than once: "
                                   "'hyperbolic'"),
    (["char-plane", "hyperbolic", "char-plane"], "a gallery entry is named once; named more "
                                                 "than once: 'char-plane'"),
    (["all", "hyperbolic"], "'all' names every entry, so it takes no other name"),
    (["hyperbolic", "all"], "'all' names every entry, so it takes no other name"),
    (["all", "all"], "'all' names every entry, so it takes no other name"),
    (["gencurve-n", "gencurve-3"], "a gallery entry is named once; 'gencurve-n' and 'gencurve-3' "
                                   "both name gencurve-n with n = 3"),
    (["gencurve-3", "gencurve-03"], "a gallery entry is named once; 'gencurve-3' and "
                                    "'gencurve-03' both name gencurve-n with n = 3"),
    (["gencurve-n", "gencurve-4", "--n", "4"], "a gallery entry is named once; 'gencurve-n' and "
                                               "'gencurve-4' both name gencurve-n with n = 4"),
    (["catenoid", "optreg2", "nope"], "unknown gallery entry 'nope'"),
], ids=["suffix-2-n-4", "suffix-3-n-minus-3", "repeated", "repeated-among-others",
        "all-first", "all-last", "all-twice", "suffix-and-default", "two-suffixes",
        "suffix-and-n", "unknown-after-known"])
def test_gallery_names_that_disagree_or_repeat_exit_4(tmp_path, capsys, monkeypatch, args,
                                                      message):
    # the request is rejected before any entry's battery runs
    batteries = []
    monkeypatch.setattr(gallery, "gallery_verify", lambda name, **params: batteries.append(name))
    assert main(["gallery", *args, "--out", str(tmp_path / "g")]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: " + message)
    assert not (tmp_path / "g").exists()
    assert batteries == []


def test_gallery_spec_holds_params_n_to_its_gencurve_suffix(tmp_path, capsys):
    spec = write_spec(tmp_path, "gc.json", {"kind": "gallery", "gallery": {
        "name": "gencurve-2", "params": {"n": 4}}})
    assert main(["loci", "--spec", spec, "--out", str(tmp_path / "o")]) == 4
    assert capsys.readouterr().err.splitlines() == [
        "error: 'gencurve-2' has n = 2 but n = 4 is given"]


@pytest.mark.parametrize("command,name,params,message", [
    ("verify", "gencurve-n", {"n": 2.5}, "n = 2.5 is not a whole number"),
    ("verify", "gencurve-n", {"n": True}, "n = True is not a number"),
    ("classify", "catenoid", {"a": True}, "a = True is not a number"),
    ("classify", "catenoid", {"a": "2"}, "a = '2' is not a number"),
    ("classify", "catenoid", {"a": None}, "a = None is not a number"),
    ("classify", "catenoid", {"a": [1]}, "a = [1] is not a number"),
], ids=["n-fraction", "n-bool", "a-bool", "a-string", "a-null", "a-list"])
def test_gallery_spec_parameter_that_is_no_number_exit_4(tmp_path, capsys, command, name,
                                                         params, message):
    spec = write_spec(tmp_path, "g.json", {"kind": "gallery",
                                           "gallery": {"name": name, "params": params}})
    assert main([command, "--spec", spec, "--out", str(tmp_path / "o")]) == 4
    assert capsys.readouterr().err.splitlines() == [
        f"error: bad parameters for {name!r}: {message}"]


def test_two_gencurve_entries_run_both(tmp_path):
    out = tmp_path / "g"
    assert main(["gallery", "gencurve-2", "gencurve-3", "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert {c["name"].split(".")[0] for c in rep["checks"]} == {"gencurve-2", "gencurve-3"}


def test_gencurve_suffix_agrees_with_an_equal_or_absent_n(tmp_path):
    reports = []
    for i, args in enumerate([["gencurve-4"], ["gencurve-4", "--n", "4"], ["gencurve-n", "--n", "4"]]):
        assert main(["gallery", *args, "--out", str(tmp_path / str(i))]) == 0
        report = json.loads((tmp_path / str(i) / "report.json").read_text())
        reports.append([{**c, "name": c["name"].split(".", 1)[1]} for c in report["checks"]])
    assert reports[0] == reports[1] == reports[2]


# the README's ruled cylinder spec
CYLINDER = {"kind": "ruled",
            "ruled": {"seed": {"kind": "expression", "x": "s", "y": "0"},
                      "h0": "sqrt(1 - s^2)",
                      "s_range": [-0.9, 0.9], "r_range": [-1, 1]}}

# seed (s, 0) with h0 = sqrt(1 - s^2) is undefined for |s| > 1
NAN_RULED = {"kind": "ruled",
             "ruled": {"seed": {"kind": "expression", "x": "s", "y": "0"},
                       "h0": "sqrt(1 - s^2)",
                       "s_range": [-1.5, 1.5], "r_range": [-1, 1]}}


def test_verify_nan_samples_fail(tmp_path):
    spec = write_spec(tmp_path, "nan.json", NAN_RULED)
    assert main(["verify", "--spec", spec, "--out", str(tmp_path / "v")]) == 1
    report = json.loads((tmp_path / "v" / "report.json").read_text())
    check = [c for c in report["checks"] if c["name"] == "built_patch_minimal"][0]
    assert math.isnan(check["measured"]) and check["pass"] is False


# h is NaN for x < 0, but 0*sqrt(x) differentiates to 0, so the analytic
# curvature scan alone sees a minimal surface there
ZERO_SQRT = {"kind": "graph",
             "graph": {"h": "x*y/2 + 0*sqrt(x)",
                       "domain": {"xmin": -1, "xmax": 1, "ymin": -1, "ymax": 1}}}


@pytest.mark.parametrize("command,payload,extra", [
    ("build", NAN_RULED, []),
    ("loci", NAN_RULED, []),
    ("verify", ZERO_SQRT, []),
    ("build", ZERO_SQRT, ["--grid", "11", "11"]),
    ("seed", {"kind": "graph", "graph": {"h": "x*y/2"}}, ["--z0", "5", "5"]),
    ("verify", {"kind": "graph", "graph": {"h": "x*y/2"}}, ["--grid", "0", "0"]),
    ("build", CYLINDER, ["--grid", "1", "5"]),
    # the settable numeric section is gone, so the schema rejects it
    ("verify", {"kind": "graph", "graph": {"h": "x*y/2"}, "numeric": {"tol_h_fd": 1e-300}}, []),
    # the seed's arclength half-span must be finite and positive
    ("seed", {"kind": "graph", "graph": {"h": "x*y/2"}}, ["--z0", "0", "1", "--span", "0"]),
    ("seed", {"kind": "graph", "graph": {"h": "x*y/2"}}, ["--z0", "0", "1", "--span", "-1"]),
    ("seed", {"kind": "graph", "graph": {"h": "x*y/2"}}, ["--z0", "0", "1", "--span", "inf"]),
    ("seed", {"kind": "graph", "graph": {"h": "x*y/2"}}, ["--z0", "0", "1", "--span", "nan"]),
    # an expression may use only its field's variables
    ("verify", {"kind": "graph", "graph": {"h": "x*t"}}, []),
    ("verify", {"kind": "ruled", "ruled": {**CYLINDER["ruled"], "h0": "x + s"}}, []),
    # a domain must not be inverted
    ("verify", {"kind": "graph", "graph": {"h": "x*y/2", "domain": {
        "xmin": 1, "xmax": -1, "ymin": -1, "ymax": 1}}}, []),
    ("verify", {"kind": "implicit", "implicit": {"phi": "t - x*y/2", "window": {
        "xmin": -1, "xmax": 1, "ymin": 1, "ymax": -1}}}, []),
    # a spec interval must have finite bounds and width, and be ordered
    ("verify", {"kind": "graph", "graph": {"h": "x*y/2", "domain": {
        "xmin": -math.inf, "xmax": 1, "ymin": -1, "ymax": 1}}}, []),
    ("classify", {"kind": "graph", "graph": {"h": "x*y/2", "domain": {
        "xmin": -1e308, "xmax": 1e308, "ymin": -1e308, "ymax": 1e308}}}, []),
    ("build", {"kind": "ruled", "ruled": {**CYLINDER["ruled"], "r_range": [1, -1]}}, []),
    # a finite span whose count of RK4 steps overflows
    ("seed", {"kind": "graph", "graph": {"h": "x*y/2"}}, ["--z0", "0", "1", "--span", "1e308"]),
    # a finite span of more RK4 steps than the tracer is allowed
    ("seed", {"kind": "graph", "graph": {"h": "x*y/2"}}, ["--z0", "0", "1", "--span", "1e300"]),
    # undefined on the other half of the characteristic line y = 0
    ("verify", {"kind": "graph", "graph": {**ZERO_SQRT["graph"], "h": "x*y/2 + 0*sqrt(-x)"}}, []),
    # W0 is NaN for |s| > 1: no characteristic root is solved there
    ("loci", {"kind": "ruled", "ruled": {**NAN_RULED["ruled"], "r_range": [-0.9, 0.9]}}, []),
    # no height at z0, though its derivatives are finite
    ("seed", {"kind": "graph", "graph": {"h": "1/0"}}, ["--z0", "0.5", "1"]),
    # the schema takes no implicit orientation: the sign of phi is the orientation
    ("verify", {"kind": "implicit", "implicit": {"phi": "t - x*y/2", "orientation": -1}}, []),
])
def test_undefined_input_exit_2(tmp_path, capsys, command, payload, extra):
    spec = write_spec(tmp_path, "in.json", payload)
    assert main([command, "--spec", spec, *extra, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("payload", [
    # every node is skipped: no real t solves t^2 + 1 = 0
    {"kind": "implicit", "implicit": {"phi": "t^2 + 1"}},
    # every node is characteristic
    {"kind": "graph", "graph": {"h": "x*y/2", "domain": {
        "xmin": 0, "xmax": 0, "ymin": 0, "ymax": 0}}},
    {"kind": "graph", "graph": {"h": "x*y/2", "domain": {
        "xmin": -1, "xmax": 1, "ymin": 0, "ymax": 0}}},
    # no height off the characteristic line y = 0, whose flagged nodes have
    # one: only a flagged node without a height is an input error (exit 2)
    {"kind": "graph", "graph": {**ZERO_SQRT["graph"], "h": "x*y/2 + 0*sqrt(y)"}},
    {"kind": "graph", "graph": {**ZERO_SQRT["graph"], "h": "0*sqrt(-y)"}},
], ids=["implicit-no-height", "graph-point", "graph-x-axis", "graph-sqrt-y", "graph-sqrt-minus-y"])
def test_curvature_scan_without_samples_fails(tmp_path, payload):
    spec = write_spec(tmp_path, "in.json", payload)
    assert main(["verify", "--spec", spec, "--grid", "11", "11",
                 "--out", str(tmp_path / "v")]) == 1
    report = json.loads((tmp_path / "v" / "report.json").read_text())
    check = report["checks"][0]
    assert check["name"] == "max_abs_h_curvature" and math.isnan(check["measured"])


# the seed's curvature puts the fold at r = -1, so every chart sample of
# r_range [-1.1, -0.9] lies within FOLD_GUARD of it and none is evaluated
FOLD_RULED = {"kind": "ruled",
              "ruled": {"seed": {"kind": "expression", "x": "cos(s)", "y": "sin(s)"},
                        "h0": "0", "s_range": [-1, 1], "r_range": [-1.1, -0.9]}}


@pytest.mark.parametrize("command,extra,name", [
    ("verify", [], "built_patch_minimal"),
    ("build", ["--grid", "5", "5"], "post_build_minimal"),
])
def test_ruled_chart_check_without_samples_fails(tmp_path, command, extra, name):
    spec = write_spec(tmp_path, "fold.json", FOLD_RULED)
    assert main([command, "--spec", spec, *extra, "--out", str(tmp_path / "o")]) == 1
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    check = [c for c in report["checks"] if c["name"] == name][0]
    assert math.isnan(check["measured"]) and check["pass"] is False


# W reaches 1e300 on this domain, where p*p overflows a float
HUGE_DOMAIN = {"kind": "graph", "graph": {"h": "x*y/2", "domain": {
    "xmin": -1e300, "xmax": 1e300, "ymin": -1e300, "ymax": 1e300}}}


def test_verify_huge_domain_fails_without_overflow(tmp_path):
    spec = write_spec(tmp_path, "huge.json", HUGE_DOMAIN)
    assert main(["verify", "--spec", spec, "--out", str(tmp_path / "v")]) == 1
    report = json.loads((tmp_path / "v" / "report.json").read_text())
    failed = [c for c in report["checks"] if not c["pass"]]
    assert failed and all(not math.isfinite(c["measured"]) for c in failed)


@pytest.mark.parametrize("nodes", [[0.0, 0.0, 0.5, 1.0], [0.0, 0.5, 0.25, 1.0]],
                         ids=["repeated", "unsorted"])
def test_seed_samples_must_increase(tmp_path, capsys, nodes):
    samples = tmp_path / "seed.csv"
    samples.write_text("s,x,y,dx,dy\n" + "".join(f"{s},{s},0,1,0\n" for s in nodes))
    spec = write_spec(tmp_path, "in.json", {"kind": "ruled", "ruled": {
        "seed": {"kind": "samples", "path": str(samples)}, "h0": "s",
        "s_range": [0, 1], "r_range": [-1, 1]}})
    assert main(["verify", "--spec", spec, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: seed sample s must be strictly increasing"]


@pytest.mark.parametrize("name,param,value", [
    ("catenoid", "--a", "0"),
    ("catenoid", "--a", "-1"),
    ("iso-profile", "--R", "0"),
    ("iso-profile", "--R", "-1"),
    ("catenoid", "--u0", "inf"),
    ("hyperbolic", "--R", "2"),      # no named entry takes R
])
def test_bad_gallery_parameter_exit_4(tmp_path, capsys, name, param, value):
    assert main(["gallery", name, param, value, "--out", str(tmp_path / "g")]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


BIG_INT = "9" * 401   # an int beyond the float range


@pytest.mark.parametrize("args", [
    ["gencurve-n", "--n", BIG_INT],
    [f"gencurve-{BIG_INT}"],
    ["catenoid", "--a", "1e300"],      # a*a overflows in the implicit form
    ["iso-profile", "--R", "1e300"],   # R*R overflows in the height
    # the seed base point is not finite, or not in the graph's domain
    ["general-plane", "--c", "1e-320"],
    ["general-plane", "--a", "1e308", "--c", "1e-10"],
    ["catenoid", "--a", "1e150"],
    ["catenoid", "--a", "1e-320"],     # an infinite base point in an infinite box
    # the characteristic point (-3.9, 0) is off the verify window
    ["general-plane", "--a", "0", "--b", "3.9", "--c", "2"],
], ids=["n", "gencurve-suffix", "catenoid-a-squared", "iso-profile-R-squared",
        "general-plane-c-tiny", "general-plane-a-huge", "catenoid-a-huge", "catenoid-a-tiny",
        "general-plane-point-off-window"])
def test_gallery_parameter_beyond_the_float_range_exit_4(tmp_path, capsys, args):
    assert main(["gallery", *args, "--out", str(tmp_path / "g")]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


GRAPH = {"kind": "graph", "graph": {"h": "x*y/2"}}
UNIT = {"xmin": -1, "xmax": 1, "ymin": -1, "ymax": 1}
IMPLICIT = {"kind": "implicit", "implicit": {"phi": "t - x*y/2"}}
# seed sample files, relative to the test's working directory
SAMPLE_FILES = {
    "four.csv": "s,x,y,dx\n0,0,0,1\n1,1,0,1\n",
    "short-row.csv": "s,x,y,dx,dy\n0,0,0,1,0\n1,1,0,1\n",
    "text-cell.csv": "s,x,y,dx,dy\n0,0,0,1,0\n1,one,0,1,0\n",
    "latin-1.csv": b"s,x,y,dx,dy\n0,0,0,1,0\n1,1,0,1,0\xff\n",
    "header-only.csv": "s,x,y,dx,dy\n",
    "one-row.csv": "s,x,y,dx,dy\n0,0,0,1,0\n",
}


def _samples(path: str) -> dict:
    seed = {"kind": "samples", "path": path}
    return {"kind": "ruled", "ruled": {**CYLINDER["ruled"], "seed": seed}}


@pytest.mark.parametrize("command,payload,extra,message", [
    ("verify", '{"kind": "graph", ', [], "invalid JSON in "),
    ("verify", b'{"kind": "graph", "graph": {"h": "x*y/2\xff"}}', [], "invalid JSON in "),
    ("verify", "[" * 100_000 + "]" * 100_000, [], "invalid JSON in "),
    ("verify", '{"kind": "graph", "graph": {"h": "x*y/2"}, "n": ' + "1" * 5000 + "}", [],
     "invalid JSON in "),
    ("verify", {"kind": "implicit", "implicit": {"phi": "t - x*"}}, [],
     "bad level-set expression: syntax error at position 6"),
    ("verify", {"kind": "ruled", "ruled": {**CYLINDER["ruled"], "h0": "sqrt(1 - s^2"}}, [],
     "bad ruled-spec expression: syntax error at position 12"),
    ("verify", {"kind": "ruled", "ruled": {**CYLINDER["ruled"], "seed": {
        "kind": "expression", "x": "2*s", "y": "0"}}}, [],
     "seed is not arclength-parameterized: max ||gamma'|-1| = 1.0"),
    ("verify", _samples("missing.csv"), [], "cannot read seed samples: "),
    ("verify", _samples("four.csv"), [], "seed sample file needs columns s,x,y,dx,dy"),
    ("verify", _samples("short-row.csv"), [],
     "cannot read seed samples: the number of columns changed from 5 to 4 at row 2"),
    ("verify", _samples("text-cell.csv"), [],
     "cannot read seed samples: could not convert string 'one' to float64"),
    ("verify", _samples("latin-1.csv"), [], "cannot read seed samples: 'utf-8' codec can't decode"),
    ("verify", _samples("header-only.csv"), [],
     "seed sample file needs at least two rows of samples"),
    ("verify", _samples("one-row.csv"), [], "seed sample file needs at least two rows of samples"),
    ("seed", CYLINDER, ["--z0", "0", "1"],
     "seed needs a graph spec or a gallery entry with a graph form"),
    ("build", IMPLICIT, [], "build needs a ruled or graph spec, or a gallery entry with either"),
    ("loci", GRAPH, [], "loci needs a ruled spec or a gallery entry with a ruled construction"),
    ("classify", IMPLICIT, [], "classify needs a graph spec or a gallery entry with a graph form"),
    # the inset by 2*max(fd_step, hess_step) = 1e-4 per side inverts a thinner range
    ("verify", {"kind": "graph", "graph": {"h": "x*y/2", "fd_only": True, "domain": {
        "xmin": 0, "xmax": 0, "ymin": -1, "ymax": 1}}}, [],
     "fd_only inset x range [0.0001, -0.0001] needs min <= max"),
    # a grid too large to build is refused before any lattice is formed
    ("build", GRAPH, ["--grid", "2", "99999999999999999999"], "--grid 2 99999999999999999999: "),
    ("build", GRAPH, ["--grid", "2", "9223372036854775807"], "--grid 2 9223372036854775807: "),
    ("build", GRAPH, ["--grid", "2000", "2001"],
     "--grid 2000 2001: every value must be at least 2 and their product at most 4000000"),
    # a Newton start that is not finite is refused before any node is solved
    ("verify", {"kind": "implicit", "implicit": {**IMPLICIT["implicit"], "t0": math.nan}},
     ["--grid", "11", "11"], "implicit t0 nan needs to be finite"),
    ("verify", {"kind": "implicit", "implicit": {**IMPLICIT["implicit"], "t0": math.inf}},
     ["--grid", "11", "11"], "implicit t0 inf needs to be finite"),
    ("verify", {"kind": "implicit", "implicit": {**IMPLICIT["implicit"], "t0": -math.inf}},
     ["--grid", "11", "11"], "implicit t0 -inf needs to be finite"),
    # JSON integers beyond the float range
    ("verify", {"kind": "implicit", "implicit": {**IMPLICIT["implicit"], "t0": int(BIG_INT)}},
     ["--grid", "11", "11"], f"implicit t0 {BIG_INT} needs to be finite"),
    ("verify", {"kind": "graph", "graph": {"h": "x*y/2", "domain": {
        "xmin": -int(BIG_INT), "xmax": 1, "ymin": -1, "ymax": 1}}}, [],
     f"domain x range [-{BIG_INT}, 1] needs finite bounds and a finite width"),
    # the gradient of sqrt(x) is NaN at x < 0: the Gauss map is undefined, not characteristic
    ("seed", {"kind": "graph", "graph": {"h": "x*y/2 + sqrt(x)", "domain": UNIT}},
     ["--z0", "-0.5", "1"], "horizontal Gauss map undefined at z0=(-0.5, 1.0), W=nan"),
    # expressions nested past the interpreter's recursion limit
    ("verify", {"kind": "graph", "graph": {"h": "+".join(["x"] * 600), "domain": UNIT}}, [],
     "expression nested too deeply to evaluate"),
    ("verify", {"kind": "graph", "graph": {"h": "(" * 200 + "x" + ")" * 200, "domain": UNIT}}, [],
     "expression nested too deeply to evaluate"),
    ("verify", {"kind": "graph", "graph": {"h": "-" * 3000 + "x", "domain": UNIT}}, [],
     "expression nested too deeply to evaluate"),
    ("verify", {"kind": "implicit", "implicit": {"phi": "+".join(["t"] * 600)}}, [],
     "expression nested too deeply to evaluate"),
    ("verify", {"kind": "ruled", "ruled": {**CYLINDER["ruled"], "h0": "+".join(["s"] * 600)}}, [],
     "expression nested too deeply to evaluate"),
], ids=["invalid-json", "spec-not-utf-8", "spec-nested-too-deep", "spec-int-of-5000-digits",
        "implicit-phi", "ruled-h0", "seed-not-arclength", "seed-csv-missing",
        "seed-csv-four-columns", "seed-csv-short-row", "seed-csv-text-cell", "seed-csv-not-utf-8",
        "seed-csv-header-only", "seed-csv-one-row", "seed-of-ruled", "build-of-implicit",
        "loci-of-graph", "classify-of-implicit", "fd-only-thin-domain", "grid-beyond-numpy", "grid-int64-max",
        "grid-past-the-cap", "implicit-t0-nan", "implicit-t0-inf", "implicit-t0-minus-inf",
        "implicit-t0-beyond-float", "domain-bound-beyond-float", "seed-start-where-w-is-nan",
        "graph-sum-of-600-terms", "graph-200-parentheses", "graph-3000-minus-signs",
        "implicit-sum-of-600-terms", "ruled-h0-sum-of-600-terms"])
def test_input_error_exit_2(tmp_path, capsys, monkeypatch, command, payload, extra, message):
    monkeypatch.chdir(tmp_path)   # the seed sample paths are relative
    for name, text in SAMPLE_FILES.items():
        path = tmp_path / name
        path.write_bytes(text) if isinstance(text, bytes) else path.write_text(text)
    spec = tmp_path / "in.json"
    if isinstance(payload, bytes):
        spec.write_bytes(payload)
    else:
        spec.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert main([command, "--spec", str(spec), *extra, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: " + message)
    assert seen == []


def _nested(value, depth: int) -> str:
    return "[" * depth + json.dumps(value) + "]" * depth


@pytest.mark.parametrize("domain", [json.dumps({**UNIT, "ymax": "a" * 100_000}),
                                    _nested(UNIT, 900)], ids=["long-string", "nested-900-deep"])
def test_a_validation_error_line_is_cut(tmp_path, capsys, domain):
    spec = tmp_path / "in.json"
    spec.write_text('{"kind": "graph", "graph": {"h": "x*y/2", "domain": %s}}' % domain)
    assert main(["verify", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: spec validation failed: ")
    assert err[0].endswith("...") and len(err[0]) == len("error: spec validation failed: ") + 203


@pytest.mark.parametrize("args,message", [
    (["general-plane", "--c", "0"], "general-plane requires c != 0"),
    (["gencurve-0"], "gencurve requires a nonzero integer n"),
])
def test_gallery_entry_without_a_surface_exit_4(tmp_path, capsys, args, message):
    assert main(["gallery", *args, "--out", str(tmp_path / "g")]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: " + message)


def test_classify_of_a_gallery_plane_does_not_need_its_seed_base(tmp_path, capsys):
    # the battery's seed base (-3, 10) lies off the plane's domain, so
    # `gallery` rejects these parameters, but the plane itself classifies
    params = {"a": 5.0, "c": 1.0}
    assert main(["gallery", "general-plane", "--a", "5", "--c", "1",
                 "--out", str(tmp_path / "g")]) == 4
    spec = write_spec(tmp_path, "gp.json", {"kind": "gallery",
                                            "gallery": {"name": "general-plane", "params": params}})
    assert main(["classify", "--spec", spec, "--out", str(tmp_path / "c")]) == 0
    report = json.loads((tmp_path / "c" / "report.json").read_text())
    assert report["result"]["kind"] == "class1"


def test_report_defaults_are_module_constants(tmp_path):
    spec = write_spec(tmp_path, "hyp.json", {"kind": "graph", "graph": {"h": "x*y/2"}})
    assert main(["verify", "--spec", spec, "--grid", "5", "5",
                 "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["defaults"] == {
        "fd_step": fields.FD_STEP, "hess_step": fields.HESS_STEP,
        "rk4_step": fields.RK4_STEP, "eps_char": surface.EPS_CHAR,
        "tol_h_analytic": surface.TOL_H_ANALYTIC, "tol_h_fd": surface.TOL_H_FD,
        "w_margin": surface.W_MARGIN,
    }


# -- the spec validator, built once per process --------------------------------


def _schema():
    return json.loads((Path(cli.__file__).parent / "spec.schema.json").read_text())


def test_spec_schema_is_valid_against_its_metaschema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = _schema()
    jsonschema.validators.validator_for(schema).check_schema(schema)


def _literal_specs() -> list:
    """Every dict literal with a "kind" key in the test files."""
    specs = []
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Dict) and any(
                    isinstance(k, ast.Constant) and k.value == "kind" for k in node.keys):
                try:
                    specs.append(ast.literal_eval(node))
                except ValueError:
                    pass
    return specs


def _mutations(spec: dict):
    yield spec
    for key in spec:
        yield {k: v for k, v in spec.items() if k != key}
    yield {**spec, "unknown": 1}
    section = spec.get(spec.get("kind"))
    if isinstance(section, dict):
        # several errors at once, where jsonschema picks the best match
        yield {**spec, "unknown": 1, spec["kind"]: {k: "x" for k in section}}
        yield {**spec, spec["kind"]: {k: None for k in section}}
        for key in section:
            yield {**spec, spec["kind"]: {k: v for k, v in section.items() if k != key}}
            for bad in ("x", -1.5, None, [], {"unknown": 1}):
                yield {**spec, spec["kind"]: {**section, key: bad}}


def test_cached_validator_agrees_with_jsonschema_validate(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    schema = _schema()
    cases = {json.dumps(m, sort_keys=True): m for spec in _literal_specs()
             for m in _mutations(spec)}
    valid = 0
    for i, spec in enumerate(cases.values()):
        try:
            jsonschema.validate(spec, schema)
            want = None
            valid += 1
        except jsonschema.ValidationError as err:
            want = f"spec validation failed: {err.message}"
        try:
            cli.load_spec(write_spec(tmp_path, f"{i}.json", spec))
            got = None
        except SpecError as err:
            got = str(err) if str(err).startswith("spec validation failed") else None
        assert got == want, spec
    assert valid >= 10 and len(cases) - valid >= 100


@pytest.mark.parametrize("R", ["1e-320", "0.004"])
def test_gallery_domain_too_small_for_the_difference_stencils_exit_4(tmp_path, capsys, R):
    # iso-profile's scan domain is about 2R wide; below ~0.005 the 1e-5
    # stencils of its difference scan leave it
    assert main(["gallery", "iso-profile", "--R", R, "--out", str(tmp_path / "g")]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: bad parameters for 'iso-profile': ")


def test_gallery_domain_that_fits_the_stencils_still_runs_its_checks(tmp_path, capsys):
    # at R = 0.01 the stencils fit and the difference scan's check fails
    assert main(["gallery", "iso-profile", "--R", "0.01", "--out", str(tmp_path / "g")]) == 1
    report = json.loads((tmp_path / "g" / "report.json").read_text())
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    assert failed == ["iso-profile.h_scan_fd"]


def _stripped_report(out: Path) -> dict:
    report = json.loads((out / "report.json").read_text())
    del report["wall_time_s"], report["outputs"]
    return report


def test_the_shared_parser_carries_nothing_from_one_call_into_the_next(tmp_path, monkeypatch):
    spec = write_spec(tmp_path, "imp.json", IMPLICIT)
    calls = [["verify", "--spec", spec, "--grid", "11", "11"],
             ["verify", "--spec", spec],
             ["gallery", "iso-profile", "--R", "2"],
             ["gallery", "iso-profile"],
             ["verify", "--spec", spec, "--grid", "11", "eleven"],
             ["verify", "--spec", spec, "--grid", "5", "7"]]
    grids = []
    verify = cli.cmd_verify
    # a command function rebound after the parser is built still runs
    monkeypatch.setattr(cli, "cmd_verify", lambda args, *rest: grids.append(tuple(args.grid))
                        or verify(args, *rest))
    shared, fresh = [], []
    for i, argv in enumerate(calls):
        for reports, build in ((shared, False), (fresh, True)):
            if build:
                cli._build_parser.cache_clear()
            out = tmp_path / f"{'fresh' if build else 'shared'}{i}"
            if "eleven" in argv:
                with pytest.raises(SystemExit) as exit_:
                    main([*argv, "--out", str(out)])
                assert exit_.value.code == 2 and not out.exists()
                continue
            assert main([*argv, "--out", str(out)]) == 0
            reports.append(_stripped_report(out))
    assert shared == fresh
    assert grids == [(11, 11), (11, 11), (101, 101), (101, 101), (5, 7), (5, 7)]
    # the default grid is the 101x101 lattice, whatever grid the call before it asked for
    assert shared[1]["checks"][0]["note"].endswith(", 0 without a height")
    assert sum(int(w) for w in shared[1]["checks"][0]["note"].split()
               if w.isdigit()) == 101 * 101
    assert shared[3]["checks"] != shared[2]["checks"]


def test_main_constructs_no_parser_after_its_first_call(tmp_path, monkeypatch):
    spec = write_spec(tmp_path, "graph.json", GRAPH)
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(k.get("prog")) or init(self, *a, **k))
    cli._build_parser.cache_clear()
    for i in range(4):
        argv = (["verify", "--spec", spec, "--grid", "5", "5"] if i % 2
                else ["classify", "--spec", spec])
        assert main([*argv, "--out", str(tmp_path / str(i))]) == 0
        # the first call builds the parser and its six subparsers
        assert len(built) == 7
