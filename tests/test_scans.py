"""The chunked curvature and characteristic scans against node-by-node oracles.

The oracles are the per-node loops the scans were written as before they
read chunks of nodes; every float, component and error message must be
the same.
"""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest

from hmin import expr as ex
from hmin.errors import StencilOutOfDomain
from hmin.fields import CHUNK, Grid2, PlanarDomain, ScalarField2
from hmin.gallery import gallery_get, gallery_names, max_curvature_deviation
from hmin.heis import HPoint
from hmin.report import worst_abs
from hmin.surface import (EPS_CHAR, W_MARGIN, GraphPatch, ScanComponent, _edge_min, _pq,
                          characteristic_scan, h_mean_curvature, horizontal_data,
                          rotate_graph, translate_graph)


def _nodes(domain, nx, ny):
    xs, ys = (a.tolist() for a in Grid2(domain, nx, ny).lattice())
    return [(x, y) for x in xs for y in ys if domain.contains(x, y)]


def deviation_by_node(patch, domain, nx=101, ny=101, expect=0.0):
    """max |H - expect| over the nodes with W > W_MARGIN, one node at a time."""
    field = patch.h
    deviations = []
    for x, y in _nodes(domain, nx, ny):
        jet = field.jet(x, y)
        if horizontal_data(patch, (x, y), jet=jet).w <= W_MARGIN:
            continue
        deviations.append(h_mean_curvature(patch, (x, y), cross_check=False, jet=jet) - expect
                          if math.isfinite(jet[0]) else math.nan)
    return worst_abs(deviations) if deviations else math.nan


def scan_by_node(patch, grid, eps):
    """The components of ``characteristic_scan``, one node at a time."""
    def wfun(x, y):
        p, q = _pq(patch, x, y)
        return math.hypot(p, q)

    xs, ys = grid.lattice()
    ni, nj = len(xs), len(ys)
    w = np.full((ni, nj), np.inf)
    inside = np.zeros((ni, nj), dtype=bool)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            if not grid.domain.contains(float(x), float(y)):
                continue
            inside[i, j] = True
            w[i, j] = wfun(float(x), float(y))
    flagged = inside & (w < eps)
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
    out = []
    for members in comps:
        nodes = [(float(xs[i]), float(ys[j])) for i, j in members]
        refined = []
        for i, j in members:
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ai, aj = i + di, j + dj
                if 0 <= ai < ni and 0 <= aj < nj and inside[ai, aj] and not flagged[ai, aj]:
                    pt, wmin = _edge_min(wfun, (float(xs[i]), float(ys[j])),
                                         (float(xs[ai]), float(ys[aj])))
                    if wmin < eps:
                        refined.append(pt)
        out.append(ScanComponent(nodes, refined, [patch.point(x, y) for x, y in nodes[:8]]))
    return out


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
    assert len(Grid2(entry.verify_domain, nx, ny).nodes) % CHUNK
    for patch in (entry.graph, entry.graph.fd_only()):
        assert (repr(max_curvature_deviation(patch, entry.verify_domain, nx, ny, 2.0))
                == repr(deviation_by_node(patch, entry.verify_domain, nx, ny, 2.0)))


def test_chunks_without_an_evaluated_node_do_not_make_the_scan_nan():
    # W = |y| sqrt(1 + y^2): the first 2251 nodes lie on y = 0, so whole
    # chunks are skipped
    patch = GraphPatch.from_expr("x*y/2 + y^3/3", PlanarDomain(-1, 1, -1, 1))
    domain = PlanarDomain(-1, 1, -1, 1, lambda x, y: y == 0.0 or x > 0.5)
    grid = Grid2(domain, 3001, 11)
    assert sum(1 for _, y in grid.nodes[:3 * CHUNK] if y == 0.0) > 2 * CHUNK
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
    closure = GraphPatch(fd.domain, ScalarField2(fd.h.f))   # the same field, without trees
    # node 0 (x = 1 - 2e-5) fails only its Hessian stencil (step 5e-5); node 1
    # (x = 1 - 5e-6) fails its gradient stencil (step 1e-5); W = |y| = 0.5
    hess_first = PlanarDomain(1 - 2e-5, 1 - 5e-6, 0.5, 0.5)
    # 100 nodes in each column: the column at x = 1 - 2e-5 is nodes 1900-1999,
    # in the second chunk, and the next column starts at node 2000
    wide = PlanarDomain(1 - 2e-5 - 19 * 1e-4, 1 - 2e-5 + 1e-4, 0.1, 0.9,
                        lambda x, y: x < 1 - 1e-5 or y > 0.5)
    for name, patch in (("expr", fd), ("closure", closure)):
        yield pytest.param(patch, hess_first, 2, 1, id=f"{name}-hessian-first")
        yield pytest.param(patch, wide, 21, 100, id=f"{name}-second-chunk")
        # only the gradient stencil leaves the domain: at x = 1 - 5e-6
        yield pytest.param(patch, PlanarDomain(0.5, 1 - 5e-6, 0.5, 0.5), 3, 1,
                           id=f"{name}-gradient")


@pytest.mark.parametrize("patch,domain,nx,ny", list(_stencil_cases()))
def test_chunked_scan_raises_the_node_loops_stencil_error(patch, domain, nx, ny):
    want = _message(deviation_by_node, patch, domain, nx, ny)
    assert _message(max_curvature_deviation, patch, domain, nx, ny) == want


def test_hessian_first_case_is_the_hessian_stencil():
    patch, domain = _fd_patch(), PlanarDomain(1 - 2e-5, 1 - 5e-6, 0.5, 0.5)
    x0 = 1 - 2e-5
    assert _message(max_curvature_deviation, patch, domain, 2, 1) == (
        f"stencil point ({x0 + 5e-5}, 0.5) outside domain")


def test_characteristic_scan_raises_the_node_loops_stencil_error():
    patch = _fd_patch()
    grid = Grid2(PlanarDomain(0.5, 1 - 5e-6, -0.5, 0.5), 41, 41)
    assert _message(characteristic_scan, patch, grid, EPS_CHAR) == _message(
        scan_by_node, patch, grid, EPS_CHAR)


# -- characteristic scan ---------------------------------------------------------


@pytest.mark.parametrize("name", [n for n in gallery_names()
                                  if gallery_get(n).expected_scan is not None])
def test_characteristic_scan_equals_the_node_loop_on_gallery_scan_domains(name):
    entry = gallery_get(name)
    grid = Grid2(entry.scan_domain or entry.verify_domain, 101, 101)
    got = characteristic_scan(entry.graph, grid, EPS_CHAR)
    want = scan_by_node(entry.graph, grid, EPS_CHAR)
    assert got.undefined_w == 0
    assert repr([(c.nodes, c.refined, c.images) for c in got.components]) == repr(
        [(c.nodes, c.refined, c.images) for c in want])
    assert [repr(c.representative) for c in got.components] == [
        repr(c.representative) for c in want]


def test_characteristic_scan_counts_nodes_where_w_is_not_finite():
    # sqrt(x) has no derivative for x <= 0, so W is NaN on 51 of 101 columns
    patch = GraphPatch.from_expr("x*y/2 + sqrt(x)", PlanarDomain(-1, 1, -1, 1))
    scan = characteristic_scan(patch, Grid2(patch.domain, 101, 101), EPS_CHAR)
    assert len(scan.components) == 1
    assert scan.undefined_w == 51 * 101


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
