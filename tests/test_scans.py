"""The chunked curvature and characteristic scans against node-by-node oracles.

The oracles are the per-node loops the scans were written as before they
read chunks of nodes; every float, component and error message must be
the same.
"""

import functools
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from hmin import expr as ex
from hmin.cli import main, ruled_from_spec
from hmin.errors import FieldUndefined, StencilOutOfDomain
from hmin.fields import CHUNK, Grid2, PlanarDomain, ScalarField2, square
from hmin.gallery import gallery_get, gallery_names, gallery_verify, max_curvature_deviation
from hmin.heis import HPoint
from hmin.report import worst_abs
from hmin.ruled import classify_entire_graph, roundtrip
from hmin.seed import SeedCurve, curvature, extract_seed
from hmin.surface import (EPS_CHAR, TOL_H_FD, W_MARGIN, CharacteristicScan, GraphPatch,
                          ScanComponent, ScanLattice, _pq, characteristic_scan, h_mean_curvature,
                          horizontal_data, rotate_graph, translate_graph, w_from_pq)


def _nodes(domain, nx, ny):
    xs, ys = (a.tolist() for a in Grid2(domain, nx, ny).lattice())
    return [(x, y) for x in xs for y in ys if domain.contains(x, y)]


def deviation_by_node(patch, domain, nx=101, ny=101, expect=0.0):
    """max |H - expect| over the nodes with W > W_MARGIN, one node at a time."""
    field = patch.h
    deviations = []
    for x, y in _nodes(domain, nx, ny):
        jet = field.jet(x, y)
        if horizontal_data(patch, (x, y), jet=jet) <= W_MARGIN:
            continue
        deviations.append(h_mean_curvature(patch, (x, y), jet=jet) - expect
                          if math.isfinite(jet[0]) else math.nan)
    return worst_abs(deviations) if deviations else math.nan


def scan_by_node(patch, grid):
    """``characteristic_scan`` of ``grid``, one node at a time."""
    xs, ys = grid.lattice()
    ni, nj = len(xs), len(ys)
    w = np.full((ni, nj), np.inf)
    inside = np.zeros((ni, nj), dtype=bool)
    for i, x in enumerate(xs.tolist()):
        for j, y in enumerate(ys.tolist()):
            if not grid.domain.contains(x, y):
                continue
            inside[i, j] = True
            w[i, j] = w_from_pq(*_pq(patch, x, y))
    flagged = inside & (w < EPS_CHAR)
    for i, j in np.argwhere(flagged).tolist():
        if not math.isfinite(patch.h.value(float(xs[i]), float(ys[j]))):
            raise FieldUndefined(f"height not finite at ({float(xs[i])}, {float(ys[j])})")
    comp = -np.ones((ni, nj), dtype=int)
    comps = []
    for i in range(ni):
        for j in range(nj):
            if not flagged[i, j] or comp[i, j] >= 0:
                continue
            stack = [(i, j)]
            comp[i, j] = len(comps)
            members = []
            while stack:
                ci, cj = stack.pop()
                members.append((ci, cj))
                for di in (-1, 0, 1):
                    for dj in (-1, 0, 1):
                        ai, aj = ci + di, cj + dj
                        if 0 <= ai < ni and 0 <= aj < nj and flagged[ai, aj] and comp[ai, aj] < 0:
                            comp[ai, aj] = len(comps)
                            stack.append((ai, aj))
            comps.append(members)
    return CharacteristicScan([ScanComponent([(float(xs[i]), float(ys[j])) for i, j in members])
                               for members in comps],
                              int(np.count_nonzero(inside & ~np.isfinite(w))))


def scan_of(patch, grid):
    """The characteristic scan of the lattice that a curvature scan of ``grid`` fills."""
    lattice = ScanLattice(grid)
    max_curvature_deviation(patch, grid.domain, grid.nx, grid.ny, lattice=lattice)
    return characteristic_scan(lattice)


def _gallery_scans():
    for name in gallery_names():
        entry = gallery_get(name)
        if entry.graph is None:
            continue
        expect = entry.expected_curvature
        for which, patch, sign in (("analytic", entry.graph, 1.0),
                                   ("fd", entry.graph.fd_only(), 1.0),
                                   ("lower", entry.graph_lower, -1.0)):
            if patch is not None:
                yield pytest.param(patch, entry.verify_domain, sign * expect,
                                   id=f"{name}-{which}")


@pytest.mark.parametrize("patch,domain,expect", list(_gallery_scans()))
def test_chunked_scan_equals_the_node_loop_on_gallery_graphs(patch, domain, expect):
    assert (repr(max_curvature_deviation(patch, domain, expect=expect))
            == repr(deviation_by_node(patch, domain, expect=expect)))


def test_chunked_scan_equals_the_node_loop_on_closure_graphs():
    # the moved graphs of the invariance criteria carry the trees of their height
    rng = np.random.default_rng(11)
    for name in ("hyperbolic", "catenoid"):
        entry = gallery_get(name)
        for graph in (entry.graph, entry.graph.fd_only()):
            inner = GraphPatch(entry.verify_domain, graph.h)
            g0 = HPoint(*(float(v) for v in rng.uniform(-1.0, 1.0, size=3)))
            theta = float(rng.uniform(0.0, 2 * math.pi))
            for patch, domain in ((translate_graph(graph, g0), translate_graph(inner, g0).domain),
                                  (rotate_graph(graph, theta), rotate_graph(inner, theta).domain)):
                assert len(patch.h.exprs) == len(graph.h.exprs)
                got = max_curvature_deviation(patch, domain, 21, 21)
                assert math.isfinite(got)
                assert repr(got) == repr(deviation_by_node(patch, domain, 21, 21))


@pytest.mark.parametrize("nx,ny", [(41, 25), (33, 31), (101, 101)])
def test_chunked_scan_on_grids_that_do_not_fill_their_last_chunk(nx, ny):
    entry = gallery_get("iso-profile")
    assert len(Grid2(entry.verify_domain, nx, ny).points()[0]) % CHUNK
    for patch in (entry.graph, entry.graph.fd_only()):
        assert (repr(max_curvature_deviation(patch, entry.verify_domain, nx, ny, 2.0))
                == repr(deviation_by_node(patch, entry.verify_domain, nx, ny, 2.0)))


def test_chunks_without_an_evaluated_node_do_not_make_the_scan_nan():
    # W = |y| sqrt(1 + y^2): the first 2251 nodes lie on y = 0, so whole
    # chunks are skipped
    patch = GraphPatch.from_expr("x*y/2 + y^3/3", PlanarDomain(-1, 1, -1, 1))
    domain = PlanarDomain(-1, 1, -1, 1, lambda x, y: (y == 0.0) | (x > 0.5))
    grid = Grid2(domain, 3001, 11)
    assert int((grid.points()[1][:3 * CHUNK] == 0.0).sum()) > 2 * CHUNK
    got = max_curvature_deviation(patch, domain, 3001, 11)
    assert math.isfinite(got) and got > 0.0
    assert repr(got) == repr(deviation_by_node(patch, domain, 3001, 11))


# -- StencilOutOfDomain: the first offending node, with the oracle's message ---


def _message(fn, *args):
    with pytest.raises(StencilOutOfDomain) as err:
        fn(*args)
    return str(err.value)


def _fd_patch():
    return GraphPatch.from_expr("x*y/2", PlanarDomain(-1, 1, -1, 1)).fd_only()


def _stencil_cases():
    fd = _fd_patch()
    # node 0 (x = 1 - 2e-5) fails only its Hessian stencil (step 5e-5); node 1
    # (x = 1 - 5e-6) fails its gradient stencil (step 1e-5); W = |y| = 0.5
    hess_first = PlanarDomain(1 - 2e-5, 1 - 5e-6, 0.5, 0.5)
    # 100 nodes in each column: the column at x = 1 - 2e-5 is nodes 1900-1999,
    # in the second chunk, and the next column starts at node 2000
    wide = PlanarDomain(1 - 2e-5 - 19 * 1e-4, 1 - 2e-5 + 1e-4, 0.1, 0.9,
                        lambda x, y: (x < 1 - 1e-5) | (y > 0.5))
    yield pytest.param(fd, hess_first, 2, 1, id="expr-hessian-first")
    yield pytest.param(fd, wide, 21, 100, id="expr-second-chunk")
    # only the gradient stencil leaves the domain: at x = 1 - 5e-6
    yield pytest.param(fd, PlanarDomain(0.5, 1 - 5e-6, 0.5, 0.5), 3, 1, id="expr-gradient")


@pytest.mark.parametrize("patch,domain,nx,ny", list(_stencil_cases()))
def test_chunked_scan_raises_the_node_loops_stencil_error(patch, domain, nx, ny):
    want = _message(deviation_by_node, patch, domain, nx, ny)
    assert _message(max_curvature_deviation, patch, domain, nx, ny) == want


def test_hessian_first_case_is_the_hessian_stencil():
    patch, domain = _fd_patch(), PlanarDomain(1 - 2e-5, 1 - 5e-6, 0.5, 0.5)
    x0 = 1 - 2e-5
    assert _message(max_curvature_deviation, patch, domain, 2, 1) == (
        f"stencil point ({x0 + 5e-5}, 0.5) outside domain")


# -- characteristic scan ---------------------------------------------------------


@pytest.mark.parametrize("name", [n for n in gallery_names()
                                  if gallery_get(n).expected_scan is not None])
def test_characteristic_scan_equals_the_node_loop_on_gallery_scan_domains(name):
    entry = gallery_get(name)
    grid = Grid2(entry.verify_domain, 101, 101)
    assert scan_of(entry.graph, grid).undefined_w == 0
    assert _scan_outcome(scan_of, entry.graph, grid) == _scan_outcome(scan_by_node, entry.graph, grid)


def test_characteristic_scan_counts_nodes_where_w_is_not_finite():
    # sqrt(x) has no derivative for x <= 0, so W is NaN on 51 of 101 columns
    patch = GraphPatch.from_expr("x*y/2 + sqrt(x)", PlanarDomain(-1, 1, -1, 1))
    scan = scan_of(patch, Grid2(patch.domain, 101, 101))
    assert len(scan.components) == 1
    assert scan.undefined_w == 51 * 101


def _scan_outcome(scan, *args):
    """repr of ``scan(*args)``: its components, their representatives and
    its undefined W count, or its error."""
    try:
        scan = scan(*args)
    except Exception as err:  # noqa: BLE001 -- the error is the outcome
        return repr(err)
    return repr(([c.nodes for c in scan.components],
                 [c.representative for c in scan.components], scan.undefined_w))


@pytest.mark.parametrize("src,dom,fd", [
    ("x*y/2", PlanarDomain(-2, 2, -2, 2), False),
    ("x*y/2", PlanarDomain(-2, 2, -2, 2), True),
    # the characteristic point of t = 0 is the middle node
    ("0", PlanarDomain(-2, 2, -2, 2), True),
    # W is NaN on 51 columns
    ("x*y/2 + sqrt(x)", PlanarDomain(-1, 1, -1, 1), False),
    # the x-axis is characteristic, and at x < 0 the height is not finite there
    ("x*y/2 + 0*sqrt(x)", PlanarDomain(-1, 1, -1, 1), False),
])
def test_scan_of_the_curvature_scans_lattice_is_the_scan_that_reads_the_nodes(src, dom, fd):
    patch = GraphPatch.from_expr(src, dom)
    if fd:
        # the stencils of the grid's nodes stay inside the patch
        patch, dom = patch.fd_only(), PlanarDomain(-1.9, 1.9, -1.9, 1.9)
    grid = Grid2(dom, 101, 101)
    assert _scan_outcome(scan_of, patch, grid) == _scan_outcome(scan_by_node, patch, grid)


def test_a_lattice_of_another_grid_is_refused():
    patch = GraphPatch.from_expr("x*y/2", square(1.0))
    lattice = ScanLattice(Grid2(square(1.0), 11, 11))
    with pytest.raises(ValueError):
        max_curvature_deviation(patch, square(1.0), 11, 12, lattice=lattice)
    with pytest.raises(ValueError):
        max_curvature_deviation(patch, square(2.0), 11, 11, lattice=lattice)


def _lattice_reads(monkeypatch) -> list:
    """Spies on ScalarField2.jet; returns the list that each read of a
    chunk's jet (not the completion of a 1-jet) appends (f's text, whether
    the field is analytic, nodes, whether it came with lattice axes) to."""
    reads = []
    jet = ScalarField2.jet

    def spy(self, x, y, first=None, axes=None):
        if isinstance(x, np.ndarray) and first is None:
            reads.append((ex.to_str(self.exprs[0]), self.analytic, len(x), axes is not None))
        return jet(self, x, y, first, axes)
    monkeypatch.setattr(ScalarField2, "jet", spy)
    return reads


@pytest.mark.parametrize("fd", [False, True])
def test_graph_verify_reads_each_node_once(monkeypatch, tmp_path, fd):
    spec = tmp_path / "graph.json"
    spec.write_text(json.dumps({"kind": "graph", "graph": {
        "h": "x*y/2", "fd_only": fd, "domain": {"xmin": -2, "xmax": 2, "ymin": -2, "ymax": 2}}}))
    reads = _lattice_reads(monkeypatch)
    assert main(["verify", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 0
    # the curvature scan and the characteristic scan share one read of the
    # 101 x 101 lattice: 10 chunks, where each scan read them all
    assert len(reads) == 10 and sum(n for *_, n, _ in reads) == 101 * 101


@pytest.mark.parametrize("name", [n for n in gallery_names()
                                  if gallery_get(n).expected_scan is not None])
def test_gallery_verify_reads_the_verify_lattice_once(monkeypatch, name):
    entry = gallery_get(name)
    reads = _lattice_reads(monkeypatch)
    gallery_verify(name)
    upper = ex.to_str(entry.graph.h.exprs[0])
    nodes = len(Grid2(entry.verify_domain, 101, 101).points()[0])
    assert sum(n for f, analytic, n, axes in reads if f == upper and analytic and axes) == nodes


def test_counterexample_battery_maps_its_sector_by_no_float_function(monkeypatch):
    # the sector's atan2 mapped every stencil and lattice point, and the
    # characteristic scan read the verify lattice again: 450,212 elements
    mapped = []
    pointwise = ex.pointwise

    def spy(fn, *args):
        mapped.append(next((len(a) for a in args if isinstance(a, np.ndarray)), 0))
        return pointwise(fn, *args)
    monkeypatch.setattr(ex, "pointwise", spy)
    assert all(c.passed for c in gallery_verify("counterexample"))
    # 266,608 while the derivative rules squared by pow; 202,627 since
    assert 0 < sum(mapped) <= 205_000


@pytest.mark.parametrize("name,lower", [("iso-profile", False), ("counterexample", False),
                                        ("catenoid", False), ("catenoid", True)])
def test_analytic_scans_map_pow_over_axis_entries_only(monkeypatch, name, lower):
    # the derivative rules square by *, so no pow runs at the nodes: the
    # iso-profile scan mapped 54,515 pow elements over 1024-node chunks
    entry = gallery_get(name)
    patch = entry.graph_lower if lower else entry.graph
    sizes = []
    pointwise = ex.pointwise

    def spy(fn, *args):
        if fn is math.pow:
            sizes.append(next(len(a) for a in args if isinstance(a, np.ndarray)))
        return pointwise(fn, *args)
    monkeypatch.setattr(ex, "pointwise", spy)
    assert math.isfinite(max_curvature_deviation(patch, entry.verify_domain))
    # an axis of the 101 x 101 lattice has at most 101 entries
    assert all(n <= 101 for n in sizes)
    assert sum(sizes) <= 1_100


def _enumerations(monkeypatch) -> list:
    grids = []
    node_chunks = Grid2.node_chunks

    def spy(self):
        grids.append(self)
        return node_chunks(self)
    monkeypatch.setattr(Grid2, "node_chunks", spy)
    return grids


@pytest.mark.parametrize("name", gallery_names())
def test_gallery_verify_enumerates_its_verify_lattice_once(monkeypatch, name):
    entry = gallery_get(name)
    grids = _enumerations(monkeypatch)
    gallery_verify(name)
    # the analytic, fd and lower scans read one enumeration of the verify
    # lattice (each gallery_get makes its own membership closure)
    d = entry.verify_domain
    assert [(g.domain.xmin, g.domain.xmax, g.domain.ymin, g.domain.ymax, g.nx, g.ny)
            for g in grids] == ([(d.xmin, d.xmax, d.ymin, d.ymax, 101, 101)]
                                if entry.graph is not None else [])


def test_gallery_all_enumerates_eight_lattices(monkeypatch, tmp_path):
    grids = _enumerations(monkeypatch)
    assert main(["gallery", "all", "--out", str(tmp_path)]) == 0
    # one per entry with a graph, where each of its 18 scans enumerated its own
    assert len(grids) == 8


def test_a_shared_enumeration_of_another_grid_is_refused():
    entry = gallery_get("catenoid")
    nodes = Grid2(entry.verify_domain, 101, 101).enumerated()
    assert max_curvature_deviation(entry.graph, entry.verify_domain, nodes=nodes) == \
        max_curvature_deviation(entry.graph, entry.verify_domain)
    with pytest.raises(ValueError, match="a lattice of"):
        max_curvature_deviation(entry.graph, entry.verify_domain, 51, 51, nodes=nodes)


# -- per-element cost --------------------------------------------------------------


def _counted(calls, fn):
    """fn, counting its calls in ``calls``; it keeps fn's attributes."""
    @functools.wraps(fn)
    def counting(*args):
        calls.append(1)
        return fn(*args)
    return counting


def test_fd_scan_calls_no_float_function_per_node(monkeypatch):
    entry = gallery_get("catenoid")
    member, contains_all, pow_calls = [], [], []
    dom, vdom = (replace(d, membership=_counted(member, d.membership))
                 for d in (entry.graph.domain, entry.verify_domain))
    patch = GraphPatch(dom, ScalarField2.from_tree(entry.graph.h.exprs[0], dom).fd_only())
    monkeypatch.setattr(PlanarDomain, "contains_all", _counted(contains_all, PlanarDomain.contains_all))
    monkeypatch.setattr(ex, "safe_pow", _counted(pow_calls, ex.safe_pow))
    assert math.isfinite(max_curvature_deviation(patch, vdom))
    # one membership call per array of points, where a call per point makes
    # about 16 per node (the 8 stencil points at two steps)
    assert len(contains_all) >= 2 and len(member) == len(contains_all)
    # the FD stencils read x^2 at every node; math.pow never raises there
    assert pow_calls == []
    # a chunk where math.pow raises is redone with safe_pow at each element
    ex.compile_fn(ex.parse("x^(-1)"), ("x",), array=True)(np.array([2.0, 0.0, 4.0]))
    assert len(pow_calls) == 3


def test_characteristic_scan_calls_no_scalar_gradient(monkeypatch):
    entry = gallery_get("hyperbolic")
    calls = []
    monkeypatch.setattr(ScalarField2, "gradient", _counted(calls, ScalarField2.gradient))
    scan = scan_of(entry.graph, Grid2(entry.verify_domain, 101, 101))
    assert calls == []
    assert [len(c.nodes) for c in scan.components] == [101]


def test_fd_scan_maps_each_one_variable_subexpression_once_per_lattice_coordinate(monkeypatch):
    # the catenoid's FD scan reads x^2, y^2 and their powers on the lattice
    # axes: 253,344 elements mapped when they were read at every node
    entry = gallery_get("catenoid")
    mapped = []
    pointwise = ex.pointwise

    def spy(fn, *args):
        mapped.append(next((len(a) for a in args if isinstance(a, np.ndarray)), 0))
        return pointwise(fn, *args)
    monkeypatch.setattr(ex, "pointwise", spy)
    assert math.isfinite(max_curvature_deviation(entry.graph.fd_only(), entry.verify_domain))
    assert 0 < sum(mapped) <= 60_000


def _evaluator_calls(monkeypatch, drop_axes: bool) -> list:
    """Wraps every evaluator compile_fn returns, as the benchmark's trace
    hooks do; returns the list each array call appends (nodes, axes) to,
    nodes being the size of its first argument.  With ``drop_axes`` the
    array code runs without the axes it is given."""
    calls = []
    compile_fn = ex.compile_fn

    def spy(e, var_order, array=False):
        fn = compile_fn(e, var_order, array)
        if not array:
            return fn

        def evaluator(*args, axes=None):
            calls.append((args[0].size, axes))
            return fn(*args, axes=None if drop_axes else axes)
        return evaluator
    monkeypatch.setattr(ex, "compile_fn", spy)
    return calls


@pytest.mark.parametrize("name,fd", [("catenoid", True), ("catenoid", False),
                                     ("hyperbolic", False)])
def test_evaluators_take_the_nodes_first_and_the_axes_apart(monkeypatch, name, fd):
    def scan():
        entry = gallery_get(name)
        patch = entry.graph.fd_only() if fd else entry.graph
        lattice = ScanLattice(Grid2(entry.verify_domain, 101, 101))
        return (max_curvature_deviation(patch, entry.verify_domain, lattice=lattice),
                characteristic_scan(lattice).undefined_w)

    calls = _evaluator_calls(monkeypatch, drop_axes=False)
    got = scan()
    lattice = [(n, axes) for n, axes in calls if axes is not None]
    assert lattice and all(len(i) == n and len(u) <= n for n, axes in lattice for u, i in axes)
    monkeypatch.undo()
    flat = _evaluator_calls(monkeypatch, drop_axes=True)
    # the same nodes in the same calls, and the same floats
    assert scan() == got and [n for n, _ in flat] == [n for n, _ in calls]


@pytest.mark.parametrize("x,y,r_range", [("cos(s)", "sin(s)", [-0.5, 0.5]), ("s", "0", [-1, 1])])
def test_expression_seed_calls_each_closed_form_once_per_array(monkeypatch, x, y, r_range):
    calls = {name: [] for name in ("gamma", "dgamma", "ddgamma")}
    sampled = []
    from_callables = SeedCurve.from_callables

    def spied(*args):
        fns = [_counted(calls[name], fn) for name, fn in zip(calls, args)]
        curve = from_callables(*fns, *args[3:])
        sampled.extend(len(c) for c in calls.values())
        return curve
    monkeypatch.setattr(SeedCurve, "from_callables", staticmethod(spied))
    curve = ruled_from_spec({"ruled": {"seed": {"kind": "expression", "x": x, "y": y},
                                       "h0": "s", "s_range": [-0.9, 0.9], "r_range": r_range}}).seed
    # one call each for the 257 samples
    assert sampled == [1, 1, 1]
    s = np.linspace(-0.5, 0.5, 33)
    for name, lookup in zip(calls, (curve.point, curve.tangent, curve.second)):
        before = len(calls[name])
        xs, ys = lookup(s)
        # one call for the 33 elements, where a call per element makes 33
        assert len(calls[name]) == before + 1
        assert [repr(v) for v in zip(xs.tolist(), ys.tolist())] == [
            repr(lookup(v)) for v in s.tolist()]


# -- classify: the window read in one pass ------------------------------------------


def classify_by_node(patch):
    """``classify_entire_graph`` as it read its window, one node at a time."""
    tol, tol_kappa = 1e-6, 1e-4
    tol_h = tol if patch.analytic else TOL_H_FD
    dom = patch.domain
    best = (0.0, (0.0, 0.0))
    read = []   # (|H|, node) at each node where W > W_MARGIN
    samples = []
    margin_x = 0.25 * (dom.xmax - dom.xmin)
    margin_y = 0.25 * (dom.ymax - dom.ymin)
    for x, y in zip(*(a.ravel().tolist() for a in Grid2(dom, 21, 21).mesh())):
        if not dom.contains(x, y):
            return _not_entire(f"window point ({x}, {y}) outside patch domain")
        jet = patch.h.jet(x, y)
        v = jet[0]
        if not math.isfinite(v):
            return _not_entire(f"height not finite at ({x}, {y})")
        samples.append((x, y, v))
        w = horizontal_data(patch, (x, y), jet=jet)
        if not math.isfinite(w):
            return _not_entire(f"angle function W not finite at ({x}, {y})")
        interior = (dom.xmin + margin_x <= x <= dom.xmax - margin_x
                    and dom.ymin + margin_y <= y <= dom.ymax - margin_y)
        if interior and w > best[0]:
            best = (w, (x, y))
        if w > W_MARGIN:
            hcur = abs(h_mean_curvature(patch, (x, y), jet=jet))
            if not math.isfinite(hcur):
                return _not_entire(f"mean curvature not finite at ({x}, {y})")
            read.append((hcur, (x, y)))
    peak = max((hcur for hcur, _ in read), default=0.0)
    if peak > tol_h:
        # the first node within a relative 1e-12 of the largest |H|
        at = next(z for hcur, z in read if hcur >= (1.0 - 1e-12) * peak)
        return {"kind": "not-minimal", "max_curvature": peak, "at": list(at)}
    if best[0] <= 1e-6:
        return _not_entire("no usable non-characteristic base point in the window")

    z0 = best[1]
    window = min(dom.xmax - dom.xmin, dom.ymax - dom.ymin)
    span = min(1.5, window / 4.0)
    curve = extract_seed(patch, z0, span)
    lo, hi = max(curve.s_min, -span / 2), min(curve.s_max, span / 2)
    kappas = curvature(curve, np.linspace(lo, hi, 41))
    if np.abs(kappas).max() <= tol_kappa:
        d = curve.tangent(0.0)
        g0 = curve.point(0.0)
        base = [g0[0], g0[1], patch.h.value(*g0)]
        alpha = -d[0] / (2.0 * d[1]) if abs(d[1]) > 1e-9 else None
        err = roundtrip(patch, curve, span, min(1.0, window / 6.0))
        return {"kind": "class2", "direction": list(d), "base": base, "alpha": alpha,
                "rebuild_error": err}
    if np.abs(kappas - kappas.mean()).max() <= tol_kappa * max(1.0, abs(kappas.mean())):
        arr = np.array(samples)
        design = np.column_stack([arr[:, 0], arr[:, 1], np.ones(len(arr))])
        coef, *_ = np.linalg.lstsq(design, arr[:, 2], rcond=None)
        alpha_c, beta_c, delta_c = map(float, coef)
        residual = float(np.abs(design @ coef - arr[:, 2]).max())
        if residual > tol:
            return _not_entire(f"circular seed but non-planar heights (residual {residual})")
        a, b, c, d0 = -alpha_c, -beta_c, 1.0, delta_c
        scale = math.sqrt(a * a + b * b + c * c)
        sigma = [-2.0 * b / c, 2.0 * a / c, d0 / c]
        return {"kind": "class1", "plane": [a / scale, b / scale, c / scale, d0 / scale],
                "sigma": sigma, "residual": residual}
    return _not_entire("seed curve is neither a line nor a circle at tolerance")


def _not_entire(reason):
    return {"kind": "not-entire", "reason": reason}


def _outcome(fn, patch):
    """The repr of fn's verdict, or the type and message of what it raised."""
    try:
        return repr(fn(patch))
    except Exception as err:  # noqa: BLE001 - the oracle's errors are compared too
        return f"{type(err).__name__}: {err}"


def _classify_heights():
    """Height trees: the gallery graphs, the cli-mix kinds and adversarial ones."""
    trees = [gallery_get(n).graph.h.exprs[0] for n in gallery_names()
             if gallery_get(n).graph is not None]
    srcs = [f"({c0!r} + {b!r}*x + {c!r}*y)/2"
            for c0, b, c in ((0.5, 0.2, 0.3), (-1.7, -0.3, 0.2), (1.2, 0.3, -0.2))]
    srcs += [f"x*y/2 + {a!r}*x + {c!r}" for a, c in ((-0.5, 0.3), (0.55, -0.9), (0.0, 0.0))]
    srcs += [f"x*y/2 + {a!r}*y + {c!r}" for a, c in ((0.25, 0.1), (-0.8, -0.6))]
    srcs += ["x^2 - x*y/2", "(x^2+y^2)/4", "x*y/2 + 1e-300*sqrt(x^2 + y^2)^3",
             "log(x)", "1/x", "exp(1000*x)"]
    return trees + [ex.parse(src) for src in srcs]


# the window domains, with the outcomes their graphs reach: a box, a cut
# whose first window node is outside, and one that leaves the first node
# inside and cuts nodes further on; each height field lives on a larger
# domain, so only the cut fails a stencil
_CLASSIFY_DOMAINS = {
    "box": (None, {"class1", "class2", "not-minimal", "not-entire"}),
    "first-node-outside": (lambda x, y: x + y > -3.5, {"not-entire"}),
    "cut-later": (lambda x, y: (x < 1.0) | (y <= 1.0), {"not-entire", "StencilOutOfDomain"}),
}


@pytest.mark.parametrize("cut", list(_CLASSIFY_DOMAINS))
def test_classify_equals_the_node_loop(cut):
    member, kinds = _CLASSIFY_DOMAINS[cut]
    window, field = PlanarDomain(-2, 2, -2, 2, member), PlanarDomain(-3, 3, -3, 3, member)
    seen = set()
    for tree in _classify_heights():
        analytic = GraphPatch(window, ScalarField2.from_tree(tree, field))
        for patch in (analytic, analytic.fd_only()):
            want = _outcome(classify_by_node, patch)
            assert _outcome(classify_entire_graph, patch) == want
            # the verdict's kind, or the name of the error raised
            seen.add(want.split("'")[3] if want.startswith("{") else want.split(":")[0])
    assert seen == kinds


def test_classify_equals_the_node_loop_on_the_gallery_graph_domains():
    for name in gallery_names():
        graph = gallery_get(name).graph
        if graph is None:
            continue
        for patch in (graph, graph.fd_only()):
            assert _outcome(classify_entire_graph, patch) == _outcome(classify_by_node, patch)


def test_classify_reports_a_bad_node_before_a_later_failed_stencil():
    # the height is NaN at the first window node; the gradient stencils of
    # the nodes on y = 0 with x > 0.5 leave the field's domain
    field = PlanarDomain(-2, 2, -2, 2, lambda x, y: (x <= 0.5) | (abs(y) >= 1e-5))
    patch = GraphPatch(PlanarDomain(-1, 1, -1, 1),
                       ScalarField2.from_expr("log(x + 0.95)", field).fd_only())
    want = "{'kind': 'not-entire', 'reason': 'height not finite at (-1.0, -1.0)'}"
    assert _outcome(classify_by_node, patch) == want
    assert _outcome(classify_entire_graph, patch) == want


def _hessian_fails_on_the_first_row(src):
    # the field's domain ends 3e-5 below the window: on the window's first
    # row the gradient stencils (step 1e-5) stay inside and the Hessian
    # stencils (step 5e-5) leave it
    field = PlanarDomain(-2, 2, -1 - 3e-5, 2)
    return GraphPatch(PlanarDomain(-1, 1, -1, 1), ScalarField2.from_expr(src, field).fd_only())


def test_classify_reports_a_bad_node_before_its_own_failed_hessian_stencil():
    # the height is inf at (-1, -1) while its differences, and so W, are finite
    patch = _hessian_fails_on_the_first_row("1/((x + 1)^2 + (y + 1)^2)")
    want = "{'kind': 'not-entire', 'reason': 'height not finite at (-1.0, -1.0)'}"
    assert _outcome(classify_by_node, patch) == want
    assert _outcome(classify_entire_graph, patch) == want


def test_classify_reports_a_nan_w_before_its_own_failed_hessian_stencil():
    # sqrt(x + 1) is 0 at (-1, -1) and NaN just left of it, so W is NaN there
    patch = _hessian_fails_on_the_first_row("sqrt(x + 1)")
    want = "{'kind': 'not-entire', 'reason': 'angle function W not finite at (-1.0, -1.0)'}"
    assert _outcome(classify_by_node, patch) == want
    assert _outcome(classify_entire_graph, patch) == want


@pytest.mark.parametrize("src,x0", [("sqrt(x + 1)", -1.0), ("1/(x + 1)", -0.9)])
def test_scan_reads_the_hessian_where_w_is_nan_and_the_height_finite(src, x0):
    # on x = -1, W is NaN; the height is finite for sqrt(x + 1), so the node
    # loop reads the Hessian there, and inf for 1/(x + 1), so it reads on
    patch = _hessian_fails_on_the_first_row(src)
    want = f"stencil point ({x0}, -1.00005) outside domain"
    assert _message(deviation_by_node, patch, patch.domain, 21, 21) == want
    assert _message(max_curvature_deviation, patch, patch.domain, 21, 21) == want


def test_classify_reads_its_window_in_one_pass(monkeypatch):
    import hmin.ruled
    import hmin.surface
    calls = {"horizontal_data": 0, "h_mean_curvature": 0}
    for name in calls:
        fn = getattr(hmin.surface, name)

        def spy(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        # every alias, as the benchmark's trace hooks do
        for module in (hmin.surface, hmin.ruled):
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, spy)
    patch = GraphPatch.from_expr("x*y/2 + 0.5*y + 0.3", PlanarDomain(-2, 2, -2, 2))
    assert classify_entire_graph(patch)["kind"] == "not-minimal"
    assert calls == {"horizontal_data": 1, "h_mean_curvature": 1}
