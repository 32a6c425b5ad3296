"""Small expression language for scalar fields.

Surfaces, seeds and height functions are written as strings over the
variables {x, y, t, s, r}, decimal literals, the operators + - * / ^
(with ^ right-associative and binding tighter than unary minus, which
binds tighter than * and /), parentheses, the predefined constants
``pi`` and ``e``, and the functions

    sin cos tan tanh atan atanh sqrt abs exp log sign

``sign`` is included so that the symbolic derivative of ``abs`` stays
inside the language; its own derivative is defined as 0 (the kink of
``abs`` at 0 is flagged by this convention, not smoothed).  There is no
implicit multiplication: ``2x`` is a syntax error.

The grammar (see docs/grammar.md for the EBNF) is parsed by recursive
descent with byte-precise error positions.  Evaluation never raises on
domain errors (log of a negative number, division by zero, ...); such
values become NaN and propagate.

``evaluate`` walks a tree and is the oracle; ``compile_fn`` generates one
straight-line function for a list of trees, over floats or over arrays,
that returns the same floats.  Array code may also be given the lattice
axes of its nodes; it then computes each subexpression in one variable
once per axis entry, and gathers it to the nodes.
The simplifications used by ``differentiate`` include ``mul(0, u) -> 0``,
which keeps derivative trees small but drops u's NaN domain:
``0*sqrt(x)`` is NaN at x = -1, while its x-derivative there is 0.  A
check that reads derivatives must therefore also read the value itself
to see where a surface does not exist.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .errors import ParseError, SpecError

Expr = Union["Num", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow", "Call"]

VARIABLES = ("x", "y", "t", "s", "r")
CONSTANTS = {"pi": math.pi, "e": math.e}

_NAN = float("nan")


def _safe1(fn: Callable[[float], float]) -> Callable[[float], float]:
    def wrapped(v: float) -> float:
        try:
            return fn(v)
        except (ValueError, OverflowError):
            return _NAN

    return wrapped


def _sign(v: float) -> float:
    if v > 0.0:
        return 1.0
    if v < 0.0:
        return -1.0
    return 0.0 if v == 0.0 else _NAN


# the C-library functions of the language; each raises where it has no value
_LIBM: dict[str, Callable[[float], float]] = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan, "tanh": math.tanh,
    "atan": math.atan, "atanh": math.atanh, "sqrt": math.sqrt,
    "exp": math.exp, "log": math.log,
}
FUNCTIONS: dict[str, Callable[[float], float]] = {
    **{name: _safe1(fn) for name, fn in _LIBM.items()},
    "abs": abs,
    "sign": _sign,
}


def safe_div(a: float, b: float) -> float:
    try:
        return a / b
    except ZeroDivisionError:
        return _NAN


def safe_pow(a: float, b: float) -> float:
    try:
        return math.pow(a, b)
    except (ValueError, OverflowError):
        return _NAN


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: Expr


@dataclass(frozen=True)
class Add:
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub:
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul:
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div:
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow:
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call:
    fn: str
    arg: Expr


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_NUM_RE = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def _fail(self, expected: str):
        found = self.src[self.pos : self.pos + 1]
        raise ParseError(self.pos, expected, found)

    def parse(self) -> Expr:
        e = self._expr()
        self._skip_ws()
        if self.pos != len(self.src):
            self._fail("end of input")
        return e

    def _expr(self) -> Expr:
        e = self._term()
        while True:
            c = self._peek()
            if c == "+":
                self.pos += 1
                e = Add(e, self._term())
            elif c == "-":
                self.pos += 1
                e = Sub(e, self._term())
            else:
                return e

    def _term(self) -> Expr:
        e = self._unary()
        while True:
            c = self._peek()
            if c == "*":
                self.pos += 1
                e = Mul(e, self._unary())
            elif c == "/":
                self.pos += 1
                e = Div(e, self._unary())
            else:
                return e

    def _unary(self) -> Expr:
        if self._peek() == "-":
            self.pos += 1
            return Neg(self._unary())
        return self._power()

    def _power(self) -> Expr:
        base = self._atom()
        if self._peek() == "^":
            self.pos += 1
            # right-associative; the exponent may carry a unary minus
            return Pow(base, self._unary())
        return base

    def _atom(self) -> Expr:
        c = self._peek()
        if c == "(":
            self.pos += 1
            e = self._expr()
            if self._peek() != ")":
                self._fail("')'")
            self.pos += 1
            return e
        m = _NUM_RE.match(self.src, self.pos)
        if m:
            self.pos = m.end()
            return Num(float(m.group(0)))
        m = _IDENT_RE.match(self.src, self.pos)
        if m:
            name = m.group(0)
            start = self.pos
            self.pos = m.end()
            if self._peek() == "(":
                if name not in FUNCTIONS:
                    self.pos = start
                    self._fail("a function name")
                self.pos += 1
                arg = self._expr()
                if self._peek() != ")":
                    self._fail("')'")
                self.pos += 1
                return Call(name, arg)
            if name in CONSTANTS or name in VARIABLES:
                return Var(name)
            self.pos = start
            self._fail("a variable, constant or function")
        self._fail("a number, variable, '(' or unary '-'")
        raise AssertionError("unreachable")


def parse(src: str) -> Expr:
    return _Parser(src).parse()


# ---------------------------------------------------------------------------
# Printing (minimal parentheses; parse(print(e)) is structurally e)
# ---------------------------------------------------------------------------

# precedence levels: 1 additive, 2 multiplicative, 3 unary minus, 4 power, 5 atom
_LEVEL = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4, Num: 5, Var: 5, Call: 5}


def _render(e: Expr, min_level: int) -> str:
    level = _LEVEL[type(e)]
    if isinstance(e, Num):
        s = repr(e.value)
    elif isinstance(e, Var):
        s = e.name
    elif isinstance(e, Call):
        s = f"{e.fn}({_render(e.arg, 1)})"
    elif isinstance(e, Neg):
        s = "-" + _render(e.arg, 3)
    elif isinstance(e, Pow):
        # grammar: power := atom ('^' unary); the base must print as an atom
        s = _render(e.left, 5) + "^" + _render(e.right, 3)
    else:
        op = {Add: " + ", Sub: " - ", Mul: " * ", Div: " / "}[type(e)]
        # left-associative: the right operand needs one level more
        s = _render(e.left, level) + op + _render(e.right, level + 1)
    return f"({s})" if level < min_level else s


def to_str(e: Expr) -> str:
    """The text of a tree, an oracle for the parser: ``parse(to_str(e))``
    gives e back (the parse round trip)."""
    return _render(e, 1)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def evaluate(e: Expr, env: dict[str, float]) -> float:
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        if e.name in env:
            return env[e.name]
        return CONSTANTS[e.name]
    if isinstance(e, Neg):
        return -evaluate(e.arg, env)
    if isinstance(e, Add):
        return evaluate(e.left, env) + evaluate(e.right, env)
    if isinstance(e, Sub):
        return evaluate(e.left, env) - evaluate(e.right, env)
    if isinstance(e, Mul):
        return evaluate(e.left, env) * evaluate(e.right, env)
    if isinstance(e, Div):
        return safe_div(evaluate(e.left, env), evaluate(e.right, env))
    if isinstance(e, Pow):
        return safe_pow(evaluate(e.left, env), evaluate(e.right, env))
    if isinstance(e, Call):
        return FUNCTIONS[e.fn](evaluate(e.arg, env))
    raise TypeError(f"not an Expr: {e!r}")


def substitute(e: Expr, env: dict[str, Expr]) -> Expr:
    """``e`` with every variable named in ``env`` replaced by its tree, so
    evaluating the result evaluates e at the values of those trees."""
    if isinstance(e, Var):
        return env.get(e.name, e)
    if isinstance(e, (Neg, Call)):
        return replace(e, arg=substitute(e.arg, env))
    if type(e) in _BINARY:
        return type(e)(substitute(e.left, env), substitute(e.right, env))
    return e  # a number


def pointwise(fn: Callable[..., float], *args):
    """``fn`` at each element of equally long 1-d arrays (a float argument
    is the same at every element), as a float array; with no array among
    ``args``, the float ``fn(*args)``.

    Each element is the very float ``fn`` returns there, so an array path
    built from this agrees bit for bit with the scalar path.
    """
    n = next((len(a) for a in args if isinstance(a, np.ndarray)), None)
    if n is None:
        return fn(*args)
    cols = (a.tolist() if isinstance(a, np.ndarray) else [a] * n for a in args)
    return np.fromiter(map(fn, *cols), dtype=float, count=n)


def _mapped(bare: Callable[..., float], safe: Callable[..., float], *args) -> np.ndarray:
    """``pointwise(safe, *args)``, computed as ``pointwise(bare, *args)``
    unless ``bare`` raises at some element.

    ``bare`` is a C-library function and ``safe`` the float function that
    returns ``bare``'s value wherever it does not raise; mapping ``bare``
    costs no Python frame per element.
    """
    try:
        return pointwise(bare, *args)
    except (ValueError, OverflowError):
        return pointwise(safe, *args)


def _array_div(a, b):
    q = a / b
    if isinstance(b, np.ndarray):
        zero = b == 0.0
        if zero.any():
            q[zero] = _NAN
    elif b == 0.0:
        q[:] = _NAN
    return q


def _array_pow(a, b):
    return _mapped(math.pow, safe_pow, a, b)


def _array_sign(v):
    return np.where(v > 0.0, 1.0, np.where(v < 0.0, -1.0, np.where(v == 0.0, 0.0, _NAN)))


# The functions the generated code calls.  Over floats they are the ones
# ``evaluate`` uses.  Over arrays, / sqrt abs sign are numpy operations,
# which give exactly the float ones (``div`` and ``sign`` keep the rules
# for 0 and NaN); pow and the other functions map the C-library function
# over the chunk, because numpy's transcendentals and powers differ from
# it in the last bit.  See docs/grammar.md.
_TABLE: dict[str, Callable] = {"div": safe_div, "pow": safe_pow, **FUNCTIONS}
_ARRAY_TABLE: dict[str, Callable] = {
    **{name: partial(_mapped, fn, FUNCTIONS[name]) for name, fn in _LIBM.items()},
    "div": _array_div, "pow": _array_pow, "sqrt": np.sqrt, "abs": np.abs, "sign": _array_sign,
}

# node type -> (code template, scalar function folding constant operands)
_BINARY: dict[type, tuple[str, Callable[[float, float], float]]] = {
    Add: ("{} + {}", operator.add),
    Sub: ("{} - {}", operator.sub),
    Mul: ("{} * {}", operator.mul),
    Div: ("div({}, {})", safe_div),
    Pow: ("pow({}, {})", safe_pow),
}


def _unknown_variable(name: str, var_order: Iterable[str]) -> SpecError:
    return SpecError(f"unknown variable {name!r}: this field takes "
                     f"{', '.join(var_order) or 'no variables'}")


def variables(e: Expr) -> list[str]:
    """The variables of e (``pi`` and ``e`` are constants), in the order
    ``compile_fn`` first visits them."""
    found: dict[str, None] = {}
    seen: set[int] = set()

    def visit(node: Expr) -> None:
        if id(node) in seen:
            return
        seen.add(id(node))
        if isinstance(node, Var):
            if node.name not in CONSTANTS:
                found[node.name] = None
        elif isinstance(node, (Neg, Call)):
            visit(node.arg)
        elif type(node) in _BINARY:
            visit(node.left)
            visit(node.right)

    visit(e)
    return list(found)


def check_variables(e: Expr, var_order: Iterable[str]) -> None:
    """Raise the SpecError ``compile_fn(e, var_order)`` raises for a variable
    it does not take, without compiling anything: the first one it visits."""
    names = tuple(var_order)
    unknown = [v for v in variables(e) if v not in names]
    if unknown:
        raise _unknown_variable(unknown[0], names)


def compile_fn(e: Union[Expr, Sequence[Expr]], var_order: Iterable[str],
               array: bool = False) -> Callable:
    """Compile one tree, or a list of trees, into a positional-argument function.

    The trees are hash-consed into one DAG, so a subexpression they share is
    computed once, and emitted as a single straight-line Python function.  It
    returns one value for a tree and a tuple for a list.  Subtrees without
    variables are folded at compile time.  The operations and their order
    are those of ``evaluate``, so every result is the float it returns, NaN
    included (see docs/grammar.md).  With ``array`` the arguments are
    equally long 1-d float arrays (the nodes) and every result is an array
    of their length, each element the float of the scalar code at that node.

    Array code takes one more, optional argument, ``axes``: for each
    variable, a float axis u and an int index array i with nodes == u[i].
    A subexpression in one variable is then computed once per axis entry,
    and read at the nodes through one gather v[i]; one in several variables
    is computed at the nodes.  Without ``axes``, each axis is its node array
    and a gather reads it as it is.
    """
    many = isinstance(e, (list, tuple))
    params = {name: f"a{i}" for i, name in enumerate(var_order)}
    namespace: dict[str, object] = dict(_ARRAY_TABLE if array else _TABLE)
    lines: list[str] = []
    numbered: dict[str, str] = {}              # code of an operation -> its local name
    seen: dict[int, Union[str, float]] = {}    # id(node) -> local name or constant
    # array code: the variable (its index) a local in one variable runs over,
    # and that local read at the nodes; an axis u{k} is a{k} at the nodes
    over: dict[str, int] = {}
    at_nodes: dict[str, str] = {}
    if array:
        over.update((f"u{k}", k) for k in range(len(params)))
        at_nodes.update((f"u{k}", f"a{k}") for k in range(len(params)))

    def nodes(operand: Union[str, float]) -> Union[str, float]:
        if not isinstance(operand, str) or operand not in over:
            return operand
        if operand not in at_nodes:
            at_nodes[operand] = f"g{len(at_nodes)}"
            lines.append(f"{at_nodes[operand]} = {operand}[i{over[operand]}]")
        return at_nodes[operand]

    def text(operand: Union[str, float]) -> str:
        if isinstance(operand, str):
            return operand
        if math.isfinite(operand):
            literal = repr(operand)
            return f"({literal})" if literal.startswith("-") else literal
        name = f"c{len(namespace)}"
        namespace[name] = operand
        return name

    def visit(node: Expr) -> Union[str, float]:
        # memoized on node identity: derivative trees share subtrees, so a
        # walk of the tree would be far longer than one of the DAG
        hit = seen.get(id(node))
        if hit is not None:
            return hit
        if isinstance(node, Num):
            out = node.value
        elif isinstance(node, Var):
            out = params.get(node.name, CONSTANTS.get(node.name))
            if out is None:
                raise _unknown_variable(node.name, params)
            if array and isinstance(out, str):
                out = "u" + out[1:]  # array code reads a variable over its axis
        else:
            if isinstance(node, Neg):
                template, fold, args = "-{}", operator.neg, (visit(node.arg),)
            elif isinstance(node, Call):
                template, fold, args = node.fn + "({})", FUNCTIONS[node.fn], (visit(node.arg),)
            elif type(node) in _BINARY:
                (template, fold), args = _BINARY[type(node)], (visit(node.left), visit(node.right))
            else:
                raise TypeError(f"not an Expr: {node!r}")
            if not any(isinstance(a, str) for a in args):
                out = fold(*args)
            else:
                var = None
                if array:
                    # in one variable: over its axis; in several: at the nodes
                    var = {over.get(a) for a in args if isinstance(a, str)}
                    var = var.pop() if len(var) == 1 else None
                    if var is None:
                        args = tuple(map(nodes, args))
                code = template.format(*map(text, args))
                out = numbered.get(code)
                if out is None:
                    out = numbered[code] = f"v{len(numbered)}"
                    lines.append(f"{out} = {code}")
                    if var is not None:
                        over[out] = var
        seen[id(node)] = out
        return out

    results = [nodes(visit(t)) for t in (e if many else [e])]
    outs = [text(r) for r in results]
    args = list(params.values())
    signature = args
    if array:
        # a result that is a constant or an argument gets an array of its own
        namespace["full"] = np.full
        outs = [o if isinstance(r, str) and r not in args else f"full(len(a0), {o})"
                for r, o in zip(results, outs)]
        # IEEE results such as inf - inf = NaN are the point, not a warning
        namespace["errstate"] = np.errstate
        lines = ['with errstate(all="ignore"):', *(f"    {line}" for line in lines or ["pass"])]
        signature = [*args, "axes=None"]
        if len(at_nodes) > len(args):
            # code that gathers runs over the axes; without axes, each axis is its nodes
            axes = ", ".join(f"(u{k}, i{k})" for k in range(len(args)))
            own = ", ".join(f"({a}, ...)" for a in args)
            lines.insert(0, f"{axes}, = axes or ({own},)")
    ret = f"({', '.join(outs)},)" if many else outs[0]
    src = "\n    ".join([f"def compiled({', '.join(signature)}):", *lines, f"return {ret}"])
    exec(compile(src, "<hmin.expr.compile_fn>", "exec"), namespace)
    return namespace["compiled"]


# ---------------------------------------------------------------------------
# Symbolic differentiation
# ---------------------------------------------------------------------------

_ZERO = Num(0.0)
_ONE = Num(1.0)


def _is_num(e: Expr, v: float | None = None) -> bool:
    return isinstance(e, Num) and (v is None or e.value == v)


def _const(v: float) -> Expr:
    # literals are non-negative in the grammar; negatives print as unary minus
    if v == 0.0:
        return _ZERO
    return Num(v) if v > 0.0 else Neg(Num(-v))


def add(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return _const(a.value + b.value)
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if _is_num(b, 0.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return _const(a.value - b.value)
    if _is_num(a, 0.0):
        return Neg(b) if not isinstance(b, Neg) else b.arg
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return _ZERO
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return _const(a.value * b.value)
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0) and not _is_num(b, 0.0):
        return _ZERO
    if _is_num(b, 1.0):
        return a
    return Div(a, b)


def _square(u: Expr) -> Expr:
    # u * u, the one subtree twice: compiled as v * v, the IEEE product in
    # numpy and in floats alike, where pow(v, 2.0) maps the C library per
    # element.  Not ``mul``: it folds 0 * 0 to a 0 that ``div`` keeps as a
    # 0/0, so the derivative of a constant 1/0 would read NaN
    return Mul(u, u)


def pow_(a: Expr, b: Expr) -> Expr:
    if _is_num(b, 1.0):
        return a
    if _is_num(b, 0.0):
        return _ONE
    return Pow(a, b)


def differentiate(e: Expr, var: str) -> Expr:
    d = lambda u: differentiate(u, var)  # noqa: E731
    if isinstance(e, Num):
        return _ZERO
    if isinstance(e, Var):
        return _ONE if e.name == var else _ZERO
    if isinstance(e, Neg):
        inner = d(e.arg)
        return _ZERO if _is_num(inner, 0.0) else sub(_ZERO, inner)
    if isinstance(e, Add):
        return add(d(e.left), d(e.right))
    if isinstance(e, Sub):
        return sub(d(e.left), d(e.right))
    if isinstance(e, Mul):
        return add(mul(d(e.left), e.right), mul(e.left, d(e.right)))
    if isinstance(e, Div):
        return div(sub(mul(d(e.left), e.right), mul(e.left, d(e.right))), _square(e.right))
    if isinstance(e, Pow):
        u, v = e.left, e.right
        du, dv = d(u), d(v)
        if _is_num(dv, 0.0):
            expo = sub(v, _ONE)
            return mul(mul(v, pow_(u, expo)), du)
        # general case via u^v * (v' log u + v u'/u)
        return mul(e, add(mul(dv, Call("log", u)), mul(v, div(du, u))))
    if isinstance(e, Call):
        u, du = e.arg, d(e.arg)
        outer = {
            "sin": lambda: Call("cos", u),
            "cos": lambda: sub(_ZERO, Call("sin", u)),
            "tan": lambda: add(_ONE, _square(Call("tan", u))),
            "tanh": lambda: sub(_ONE, _square(Call("tanh", u))),
            "atan": lambda: div(_ONE, add(_ONE, _square(u))),
            "atanh": lambda: div(_ONE, sub(_ONE, _square(u))),
            "sqrt": lambda: div(_ONE, mul(Num(2.0), Call("sqrt", u))),
            "abs": lambda: Call("sign", u),
            "exp": lambda: Call("exp", u),
            "log": lambda: div(_ONE, u),
            "sign": lambda: _ZERO,  # kink of abs at 0; see module docstring
        }[e.fn]()
        return mul(outer, du)
    raise TypeError(f"not an Expr: {e!r}")
