import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmin import expr as ex
from hmin.errors import ParseError, SpecError

# (expression, sampling interval for every variable)
GALLERY_EXPRESSIONS = [
    ("0", (0.1, 1.0)),
    ("x*y/2", (-2.0, 2.0)),
    ("(4 - x - 2*y)/2", (-2.0, 2.0)),
    ("sqrt((x^2+y^2)/2 - 1)", (1.2, 2.5)),
    # keep y/x below tan(1) so atanh stays clear of its singularity
    ("-atanh(atan(y/x))", (1.4, 2.0)),
    ("sqrt(1 - x^2) + x*y/2", (-0.6, 0.6)),
    ("sign(x)*abs(x)^(1/3) + x*y/2", (0.3, 1.5)),
    ("0.25*sqrt(x^2+y^2)*sqrt(1 - x^2 - y^2)"
     " - 0.25*atan(sqrt((x^2+y^2)/(1 - x^2 - y^2))) + pi/8", (0.1, 0.55)),
]


def ev(src, **env):
    return ex.evaluate(ex.parse(src), env)


def test_number_literals():
    assert ev("1.5e2") == 150.0
    assert ev(".5 + 2.") == 2.5
    assert ev("3e-1") == pytest.approx(0.3)


def test_basic_arithmetic():
    assert ev("x*y/2", x=3.0, y=4.0) == 6.0
    assert ev("1 + 2*3") == 7.0
    assert ev("2^3^2") == 512.0          # right-associative
    assert ev("-2^2") == -4.0            # power binds tighter than unary minus
    assert ev("6/3/2") == 1.0            # left-associative
    assert ev("pi", ) == pytest.approx(math.pi)


def test_counterexample_expression_parses():
    tree = ex.parse("-x*tan(tanh(t))")
    assert ex.evaluate(tree, {"x": 2.0, "t": 0.7}) == pytest.approx(
        -2.0 * math.tan(math.tanh(0.7)))


def test_double_star_is_an_error():
    with pytest.raises(ParseError) as err:
        ex.parse("2**x")
    assert err.value.position == 2


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        ex.parse("2x")


def test_error_position_and_expected():
    with pytest.raises(ParseError) as err:
        ex.parse("sin(x")
    assert "')'" in err.value.expected
    with pytest.raises(ParseError):
        ex.parse("foo(x)")  # unknown function


def test_domain_errors_become_nan():
    assert math.isnan(ev("sqrt(0 - 1)"))
    assert math.isnan(ev("log(0 - 2)"))
    assert math.isnan(ev("1/0"))
    assert math.isnan(ev("atanh(2)"))
    assert math.isnan(ev("(0-2)^(1/2)"))


def test_zero_times_u_drops_the_domain_of_u():
    # mul(0, u) -> 0 keeps derivative trees small; the value keeps u's NaN
    tree = ex.parse("0*sqrt(x)")
    assert math.isnan(ex.evaluate(tree, {"x": -1.0}))
    assert ex.evaluate(ex.differentiate(tree, "x"), {"x": -1.0}) == 0.0


INF = math.inf


@pytest.mark.parametrize("src,env,expected", [
    ("x/y", {"x": 1.0, "y": 0.0}, "nan"),
    ("x/y", {"x": 0.0, "y": -0.0}, "nan"),
    ("x^y", {"x": 0.0, "y": -1.0}, "nan"),
    ("x^y", {"x": 10.0, "y": 400.0}, "nan"),      # overflow
    ("x^y", {"x": 0.0, "y": -INF}, "inf"),        # math.pow(0, -inf) is inf
    ("x^y", {"x": -8.0, "y": 1.0 / 3.0}, "nan"),
    ("exp(x)", {"x": 710.0}, "nan"),              # overflow
    ("exp(x)", {"x": INF}, "inf"),
    ("log(x)", {"x": 0.0}, "nan"),
    ("log(x)", {"x": -1.0}, "nan"),
    ("atanh(x)", {"x": 1.0}, "nan"),
    ("atanh(x)", {"x": -1.0}, "nan"),
    ("sqrt(x)", {"x": -0.0}, "-0.0"),
    ("sign(x)", {"x": -0.0}, "0.0"),
])
def test_compiled_evaluation_nan_edge_cases(src, env, expected):
    tree = ex.parse(src)
    names = sorted(env)
    compiled = ex.compile_fn(tree, names)(*(env[n] for n in names))
    assert repr(ex.evaluate(tree, env)) == repr(compiled) == expected


def test_compiled_trees_share_subexpressions(monkeypatch):
    calls = []

    def counted_pow(a, b):
        calls.append((a, b))
        return ex.safe_pow(a, b)

    monkeypatch.setitem(ex._TABLE, "pow", counted_pow)
    tree = ex.parse("sqrt(x^2 + y^2) + sqrt(x^2 + y^2)*x")
    value = ex.evaluate(tree, {"x": 3.0, "y": 4.0})
    assert ex.compile_fn([tree, ex.parse(ex.to_str(tree))], ("x", "y"))(3.0, 4.0) == (value, value)
    # x^2 and y^2 are computed once each, for both trees and both repeats
    assert sorted(calls) == [(3.0, 2.0), (4.0, 2.0)]


def test_compile_rejects_a_variable_the_field_does_not_take():
    with pytest.raises(SpecError, match="unknown variable 't': this field takes x, y"):
        ex.compile_fn(ex.parse("x*t"), ("x", "y"))
    assert ex.compile_fn(ex.parse("pi*s"), ("s",))(2.0) == 2.0 * math.pi


def test_simple_derivatives():
    d = ex.differentiate(ex.parse("x^2 + y"), "x")
    assert ex.evaluate(d, {"x": 3.0, "y": 9.0}) == 6.0
    d = ex.differentiate(ex.parse("tanh(t)"), "t")
    assert ex.to_str(d) == "1.0 - tanh(t)^2.0"
    assert ex.evaluate(d, {"t": 0.0}) == 1.0


def test_atanh_derivative_value():
    d = ex.differentiate(ex.parse("atanh(s)"), "s")
    assert abs(ex.evaluate(d, {"s": 0.5}) - 4.0 / 3.0) <= 1e-12


def test_abs_derivative_is_sign_with_kink_at_zero():
    d = ex.differentiate(ex.parse("abs(s)"), "s")
    assert ex.evaluate(d, {"s": 2.0}) == 1.0
    assert ex.evaluate(d, {"s": -2.0}) == -1.0
    assert ex.evaluate(d, {"s": 0.0}) == 0.0


@pytest.mark.parametrize("src,box", GALLERY_EXPRESSIONS)
def test_derivative_matches_finite_differences(src, box):
    tree = ex.parse(src)
    import random
    rng = random.Random(5)
    for var in sorted(set(re.findall(r"\b[xytsr]\b", src))):
        d = ex.differentiate(tree, var)
        hits, attempts = 0, 0
        while hits < 100:
            attempts += 1
            assert attempts < 5000, f"could not sample {src} in {box}"
            env = {v: rng.uniform(*box) for v in ("x", "y", "t", "s", "r")}
            f0 = ex.evaluate(tree, env)
            if not math.isfinite(f0):
                continue
            h = 1e-6
            up, dn = dict(env), dict(env)
            up[var] += h
            dn[var] -= h
            fd = (ex.evaluate(tree, up) - ex.evaluate(tree, dn)) / (2 * h)
            sym = ex.evaluate(d, env)
            if not (math.isfinite(fd) and math.isfinite(sym)):
                continue
            assert abs(sym - fd) <= 1e-7 * max(1.0, abs(sym), abs(fd)), (src, var, env)
            hits += 1


# -- grammar fuzzing ---------------------------------------------------------

_leaf = st.one_of(
    st.builds(ex.Num, st.floats(min_value=0.0, max_value=9.5,
                                allow_nan=False, allow_infinity=False).map(abs)),
    st.sampled_from([ex.Var(v) for v in ("x", "y", "t", "s", "r", "pi", "e")]),
)


def _extend(sub):
    return st.one_of(
        st.builds(ex.Neg, sub),
        st.builds(ex.Add, sub, sub),
        st.builds(ex.Sub, sub, sub),
        st.builds(ex.Mul, sub, sub),
        st.builds(ex.Div, sub, sub),
        st.builds(ex.Pow, sub, sub),
        st.builds(ex.Call, st.sampled_from(sorted(ex.FUNCTIONS)), sub),
    )


_trees = st.recursive(_leaf, _extend, max_leaves=64)   # depth <= 6 in practice


@given(_trees)
@settings(max_examples=1000, deadline=None)
def test_print_parse_round_trip_and_total_evaluation(tree):
    text = ex.to_str(tree)
    assert ex.parse(text) == tree
    # evaluation never raises; domain errors surface as NaN
    val = ex.evaluate(tree, {"x": 0.5, "y": -1.5, "t": 2.0, "s": 0.0, "r": 3.0})
    assert isinstance(val, float)


@given(_trees)
@settings(max_examples=300, deadline=None)
def test_differentiate_closes_over_the_language(tree):
    d = ex.differentiate(tree, "x")
    text = ex.to_str(d)
    assert ex.parse(text) == d


# points, one value per variable each: zeros, signs, |v| = 1 and overflow scales
_BATCH = {
    "x": [0.5, 0.0, -1.0, 1.0, 710.0, -2.5, 3.0, 1e-3, -0.0],
    "y": [-1.5, 1.0, 0.0, -1.0, 2.0, 0.5, -710.0, 7.0, 1.0],
    "t": [2.0, -1.0, 1.0, 0.0, -0.5, 400.0, 0.25, -3.0, 0.0],
    "s": [0.0, 0.5, -0.5, 2.0, 1.0, -1.0, 9.5, 0.1, -0.0],
    "r": [3.0, 0.0, 1.0, -2.0, 0.0, 1e-300, -1.0, 0.5, 2.0],
}


@given(_trees)
@settings(max_examples=1000, deadline=None)
@pytest.mark.filterwarnings("error")
def test_compiled_evaluation_matches_evaluate(tree):
    names = list(_BATCH)
    points = [dict(zip(names, values)) for values in zip(*_BATCH.values())]
    compiled = ex.compile_fn(tree, names)
    assert [repr(compiled(*env.values())) for env in points] == \
        [repr(ex.evaluate(tree, env)) for env in points]


@given(_trees)
@settings(max_examples=300, deadline=None)
@pytest.mark.filterwarnings("error")
def test_compiled_array_evaluation_matches_evaluate(tree):
    names = list(_BATCH)
    points = [dict(zip(names, values)) for values in zip(*_BATCH.values())]
    compiled = ex.compile_fn(tree, names, array=True)
    got = compiled(*(np.array(values) for values in _BATCH.values()))
    assert isinstance(got, np.ndarray) and got.shape == (len(points),)
    assert [repr(float(v)) for v in got] == [repr(ex.evaluate(tree, env)) for env in points]


@given(_trees, st.dictionaries(st.sampled_from(["x", "y", "t", "s", "r"]), _trees))
@settings(max_examples=300, deadline=None)
def test_substitution_evaluates_the_tree_at_the_substituted_values(tree, env):
    for values in zip(*_BATCH.values()):
        point = dict(zip(_BATCH, values))
        at = {**point, **{v: ex.evaluate(sub, point) for v, sub in env.items()}}
        assert repr(ex.evaluate(ex.substitute(tree, env), point)) == repr(ex.evaluate(tree, at))


# axis values: repeats are drawn, and values where pow and exp overflow
_AXIS_VALUES = [0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, -1.0, 0.5, -2.5, 3.0,
                710.0, -710.0, 1e200, -1e200, 1e-300]
_IN_X_AND_Y = {"t": ex.Var("x"), "s": ex.Var("y"), "r": ex.Var("x")}


@st.composite
def _lattice(draw):
    """Per variable, an axis u and an index array i (entries of u that no i
    uses, and a single node, included); the nodes are u[i]."""
    n = draw(st.integers(1, 12))
    axes = []
    for _ in "xy":
        u = np.array(draw(st.lists(st.sampled_from(_AXIS_VALUES), min_size=1, max_size=8)))
        i = np.array(draw(st.lists(st.integers(0, len(u) - 1), min_size=n, max_size=n)))
        axes.append((u, i))
    return tuple(axes)


def _same_bits(a, b):
    """a and b hold the same floats bit for bit, NaN where NaN."""
    nan = np.isnan(a)
    return (nan == np.isnan(b)).all() and (a.view(np.int64)[~nan] == b.view(np.int64)[~nan]).all()


@given(_trees, _lattice())
@settings(max_examples=200, deadline=None)
@pytest.mark.filterwarnings("error")
def test_array_code_over_lattice_axes_gives_the_floats_at_the_nodes(tree, axes):
    tree = ex.substitute(tree, _IN_X_AND_Y)
    compiled = ex.compile_fn(tree, ("x", "y"), array=True)
    x, y = (u[i] for u, i in axes)
    got = compiled(x, y, axes=axes)
    assert isinstance(got, np.ndarray) and got.shape == x.shape
    assert _same_bits(got, compiled(x, y))
    assert [repr(float(v)) for v in got] == [repr(ex.evaluate(tree, {"x": a, "y": b}))
                                             for a, b in zip(x.tolist(), y.tolist())]


def test_compiled_array_results_are_arrays_of_their_own():
    x, y = np.array([1.0, 2.0]), np.array([3.0, 4.0])
    const, same, both = ex.compile_fn([ex.parse("2*pi"), ex.parse("x"), ex.parse("x*y")],
                                      ("x", "y"), array=True)(x, y)
    assert const.tolist() == [2 * math.pi] * 2 and same.tolist() == [1.0, 2.0]
    assert same is not x and both.tolist() == [3.0, 8.0]


# every function at the values where the float rules matter
_SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e200, -1e200, 1.0, -1.0, 0.5, 1000.0]
_PAIRS = [(a, b) for a in _SPECIAL for b in _SPECIAL] + [
    (0.0, -1.0), (-8.0, 1.0 / 3.0), (1e200, 2.0), (1.0, -0.0), (-1.0, -0.0), (10.0, 400.0)]


def _reprs(values):
    return [repr(float(v)) for v in values]


def test_every_function_has_an_array_entry_with_the_floats_of_the_scalar_one():
    assert set(ex.FUNCTIONS) | {"div", "pow"} <= set(ex._ARRAY_TABLE)
    with np.errstate(all="ignore"):
        for name, fn in ex.FUNCTIONS.items():
            assert _reprs(ex._ARRAY_TABLE[name](np.array(_SPECIAL))) == _reprs(map(fn, _SPECIAL)), name
        a, b = (np.array(column) for column in zip(*_PAIRS))
        for name, fn in (("div", ex.safe_div), ("pow", ex.safe_pow)):
            want = [repr(fn(u, v)) for u, v in _PAIRS]
            assert _reprs(ex._ARRAY_TABLE[name](a, b)) == want, name
            # a constant operand, as folded literals appear in generated code
            assert _reprs(ex._ARRAY_TABLE[name](a, 2.0)) == [repr(fn(u, 2.0)) for u in a.tolist()]
        # the scalar rules turn an overflow into NaN where numpy gives inf
        assert _reprs(ex._ARRAY_TABLE["exp"](np.array([1000.0]))) == ["nan"]
        assert _reprs(ex._ARRAY_TABLE["pow"](np.array([1e200]), 2.0)) == ["nan"]
        assert np.exp(1000.0) == np.power(1e200, 2.0) == math.inf


# inputs where no function of the language raises, and, per function that
# can raise, one input where it does
_REGULAR = [0.5, 0.25, 0.75, 1e-300, 5e-324, 0.9999999999999999, 0.1]
_RAISES = {"sin": math.inf, "cos": -math.inf, "tan": math.inf, "atanh": 1.0,
           "sqrt": -1.0, "exp": 1000.0, "log": 0.0}


def test_array_entries_give_the_float_functions_on_regular_and_redone_chunks():
    with np.errstate(all="ignore"):
        for name, fn in ex.FUNCTIONS.items():
            bare = ex._LIBM.get(name, fn)
            assert all(math.isfinite(bare(v)) for v in _REGULAR), name
            assert _reprs(ex._ARRAY_TABLE[name](np.array(_REGULAR))) == _reprs(map(fn, _REGULAR)), name
            if name in _RAISES:
                # only the last element raises: the whole chunk is redone
                values = _REGULAR + [_RAISES[name]]
                with pytest.raises((ValueError, OverflowError)):
                    bare(values[-1])
                assert _reprs(ex._ARRAY_TABLE[name](np.array(values))) == _reprs(map(fn, values)), name
        for pairs in ([(0.5, 2.0), (3.0, -1.5), (1e-300, 0.5), (-8.0, 3.0)],
                      [(0.5, 2.0), (3.0, -1.5), (0.0, -1.0)],     # ValueError last
                      [(0.5, 2.0), (3.0, -1.5), (10.0, 400.0)]):  # OverflowError last
            a, b = (np.array(column) for column in zip(*pairs))
            assert _reprs(ex._ARRAY_TABLE["pow"](a, b)) == [repr(ex.safe_pow(u, v)) for u, v in pairs]
