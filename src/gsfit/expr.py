"""Expression trees: parsing, evaluation, printing, complexity.

Trees are immutable and evaluate deterministically. Points outside an
operator's domain (ln of a non-positive number, division by zero, 0 raised
to a negative power) produce NaN, the single "invalid" marker, which
propagates to the root instead of raising.

Templates are trees with parameter leaves `p0, p1, ...`: they are parsed
with `parse_template`, evaluated with a parameter vector, and turned into
ordinary trees by `bind`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

UNARY_OPS = ("neg", "sin", "cos", "exp", "ln", "sqrt", "square")
BINARY_OPS = ("add", "sub", "mul", "div", "pow")

_FUNC_NAMES = {"sin": "sin", "cos": "cos", "exp": "exp", "ln": "ln", "sqrt": "sqrt"}


def _div(a, b):
    return np.where(b != 0.0, a / np.where(b != 0.0, b, 1.0), np.nan)


def _ln(a):
    return np.where(a > 0.0, np.log(np.where(a > 0.0, a, 1.0)), np.nan)


def _sqrt(a):
    return np.where(a >= 0.0, np.sqrt(np.where(a >= 0.0, a, 0.0)), np.nan)


def _square(a):
    return a * a


# unary kinds other than neg, as one-argument functions
_UNARY_FUNCS = {
    "sin": np.sin, "cos": np.cos, "exp": np.exp,
    "ln": _ln, "sqrt": _sqrt, "square": _square,
}


class ParseError(ValueError):
    """Syntax or arity error while parsing an expression string."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


@dataclass(frozen=True)
class Expr:
    """One node of an expression tree.

    kind is 'const', 'var', 'param', a unary op or a binary op. Constants
    carry `value`, variables a 1-based `index`, parameters a 0-based slot
    in `index`, operators their children in `args`.
    """

    kind: str
    value: float = 0.0
    index: int = 0
    args: tuple["Expr", ...] = field(default_factory=tuple)

    def __post_init__(self):
        # Per-node summaries, read off the children, which already hold
        # theirs, so that building a tree of any depth recurses nowhere.
        # Not fields, so equality, hashing and repr ignore them.
        args = self.args
        self.__dict__.update(
            _arity_bound=(self.index if self.kind == "var"
                          else max((a._arity_bound for a in args), default=0)),
            _param_bound=(self.index + 1 if self.kind == "param"
                          else max((a._param_bound for a in args), default=0)),
            _complexity=1 + sum(a._complexity for a in args),
            _compiled=self._compile(),
        )

    def arity_bound(self) -> int:
        """Largest variable index referenced anywhere in the tree."""
        return self._arity_bound

    def param_bound(self) -> int:
        """Number of parameter slots the tree uses (largest slot plus one)."""
        return self._param_bound

    def bind(self, theta, var_map) -> "Expr":
        """Copy with parameters set to theta and local x<k> renamed to
        x<var_map[k-1]>."""
        if self.kind == "param":
            return const(theta[self.index])
        if self.kind == "var":
            return var(var_map[self.index - 1])
        if not self.args:
            return self
        return Expr(self.kind, args=tuple(a.bind(theta, var_map) for a in self.args))

    def complexity(self) -> int:
        """Total node count; constants and variables count one each."""
        return self._complexity

    def eval_batch(self, points: np.ndarray) -> np.ndarray:
        """Vectorized evaluation over an (N, n) array of points.

        Non-finite results (overflow, domain errors) are mapped to NaN.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise ValueError("points must be a 2-D array of shape (N, n)")
        if self.arity_bound() > points.shape[1]:
            raise ValueError(
                f"expression references x{self.arity_bound()} but points have "
                f"{points.shape[1]} columns"
            )
        with np.errstate(all="ignore"):
            vals = self._eval(points)
            vals = np.where(np.isfinite(vals), vals, np.nan)
        return vals

    def _eval(self, pts: np.ndarray, theta=()) -> np.ndarray:
        # a parameter evaluates to theta[slot]: a scalar, or a (P, 1)
        # column that makes the result (P, N), one row per parameter row
        return self._compiled(pts, theta)

    def _compile(self):
        # The node as a closure over its children's: each runs the same
        # numpy operations, in the same order, as a recursive walk over the
        # node kinds would, without re-dispatching on them at every call.
        # Constants stay full arrays, since np.power with a scalar exponent
        # of 2 or 0.5 takes a fast path that is not bit-identical to the
        # array form.
        k = self.kind
        if k == "const":
            v = self.value
            return lambda pts, theta: np.full(pts.shape[0], v)
        if k == "var":
            j = self.index - 1
            return lambda pts, theta: pts[:, j].copy()
        if k == "param":
            j = self.index
            return lambda pts, theta: theta[j]
        if k in BINARY_OPS:
            fa, fb = self.args[0]._compiled, self.args[1]._compiled
            if k == "add":
                return lambda pts, theta: fa(pts, theta) + fb(pts, theta)
            if k == "sub":
                return lambda pts, theta: fa(pts, theta) - fb(pts, theta)
            if k == "mul":
                return lambda pts, theta: fa(pts, theta) * fb(pts, theta)
            if k == "div":
                return lambda pts, theta: _div(fa(pts, theta), fb(pts, theta))
            return lambda pts, theta: np.power(fa(pts, theta), fb(pts, theta))
        fa = self.args[0]._compiled
        if k == "neg":
            return lambda pts, theta: -fa(pts, theta)
        if k in _UNARY_FUNCS:
            f = _UNARY_FUNCS[k]
            return lambda pts, theta: f(fa(pts, theta))
        raise ValueError(f"unknown node kind {k!r}")

    def __getstate__(self):
        # the fields only: a closure cannot be pickled
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}

    def __setstate__(self, state):
        # the children are unpickled first, so they hold their summaries
        self.__dict__.update(state)
        self.__post_init__()

    # -- printing ----------------------------------------------------------

    def to_text(self) -> str:
        """Render with minimal parentheses; reparses to a tree of equal
        value. A negative constant prints as (-2), which reparses as
        neg(2): equal values, not equal trees."""
        return self._print(0)

    def _print(self, parent_prec: int) -> str:
        k = self.kind
        if k == "const":
            if self.value < 0:
                s = format(self.value, ".17g")
                return f"({s})" if parent_prec > 0 else s
            return format(self.value, ".17g")
        if k == "var":
            return f"x{self.index}"
        if k == "param":
            return f"p{self.index}"
        if k in _FUNC_NAMES:
            return f"{_FUNC_NAMES[k]}({self.args[0]._print(0)})"
        if k == "square":
            # grammar allows only atoms around '^'; force parens on compounds
            s = f"{self.args[0]._print(5)}^2"
            return f"({s})" if parent_prec > 4 else s
        if k == "neg":
            # '-' binds looser than '^', so '-a^2' re-parses as -(a^2), but
            # '-a*b' would re-parse as (-a)*b; wrap any operator child
            body = self.args[0]._print(5)
            s = f"-{body}"
            return f"({s})" if parent_prec > 1 else s
        prec = {"add": 1, "sub": 1, "mul": 2, "div": 2, "pow": 4}[k]
        left = self.args[0]._print(prec if k != "pow" else 5)
        # the parser groups left to right, so a right operand of equal
        # precedence keeps its parentheses: x1*(x2/x3), x1+(x2+x3)
        right = self.args[1]._print(prec + 1)
        sym = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "^"}[k]
        s = f"{left}{sym}{right}"
        return f"({s})" if prec < parent_prec else s

    def __str__(self) -> str:
        return self.to_text()


def const(v: float) -> Expr:
    return Expr("const", value=float(v))


def var(i: int) -> Expr:
    if i < 1:
        raise ValueError("variable indices are 1-based")
    return Expr("var", index=i)


def unary(op: str, a: Expr) -> Expr:
    if op not in UNARY_OPS:
        raise ValueError(f"unknown unary op {op!r}")
    return Expr(op, args=(a,))


def binary(op: str, a: Expr, b: Expr) -> Expr:
    if op not in BINARY_OPS:
        raise ValueError(f"unknown binary op {op!r}")
    return Expr(op, args=(a, b))


def add(a: Expr, b: Expr) -> Expr:
    return binary("add", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    return binary("mul", a, b)


class _Parser:
    """Recursive-descent parser for the CLI grammar.

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' base)?
    base   := number | 'x' digits | func '(' expr ')' | '(' expr ')' | '-' base

    A leading '-' binds looser than '^': -x1^2 is -(x1^2). The '-' of base
    is reached only after '^', as in x1^-2. With `params`, base also
    accepts 'p' digits, a template parameter.
    """

    def __init__(self, text: str, arity: int, params: bool = False):
        if arity < 1:
            raise ValueError("arity must be at least 1")
        self.text = text
        self.arity = arity
        self.params = params
        self.pos = 0

    def parse(self) -> Expr:
        e = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise ParseError(f"unexpected character {self.text[self.pos]!r}", self.pos)
        return e

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self) -> Expr:
        e = self.term()
        while self.peek() in ("+", "-"):
            op = "add" if self.peek() == "+" else "sub"
            self.pos += 1
            e = binary(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek() in ("*", "/"):
            op = "mul" if self.peek() == "*" else "div"
            self.pos += 1
            e = binary(op, e, self.factor())
        return e

    def factor(self) -> Expr:
        if self.peek() == "-":
            self.pos += 1
            return unary("neg", self.factor())
        e = self.base()
        if self.peek() == "^":
            self.pos += 1
            rhs = self.base()
            if rhs.kind == "const" and rhs.value == 2.0:
                return unary("square", e)
            return binary("pow", e, rhs)
        return e

    def base(self) -> Expr:
        c = self.peek()
        start = self.pos
        if c == "":
            raise ParseError("unexpected end of input", self.pos)
        if c == "-":
            self.pos += 1
            return unary("neg", self.base())
        if c == "(":
            self.pos += 1
            e = self.expr()
            if self.peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            return e
        if c.isdigit() or c == ".":
            return self.number()
        if c.isalpha():
            name = self.ident()
            if name == "x" or (name.startswith("x") and name[1:].isdigit()):
                if name == "x":
                    raise ParseError("variable needs an index, e.g. x1", start)
                idx = int(name[1:])
                if idx < 1 or idx > self.arity:
                    raise ParseError(
                        f"variable x{idx} out of range for arity {self.arity}", start
                    )
                return var(idx)
            if self.params and name[0] == "p" and name[1:].isdigit():
                return Expr("param", index=int(name[1:]))
            if name in _FUNC_NAMES:
                if self.peek() != "(":
                    raise ParseError(f"expected '(' after {name}", self.pos)
                self.pos += 1
                e = self.expr()
                if self.peek() != ")":
                    raise ParseError("expected ')'", self.pos)
                self.pos += 1
                return unary(name, e)
            raise ParseError(f"unknown identifier {name!r}", start)
        raise ParseError(f"unexpected character {c!r}", self.pos)

    def number(self) -> Expr:
        start = self.pos
        t = self.text
        while self.pos < len(t) and (t[self.pos].isdigit() or t[self.pos] == "."):
            self.pos += 1
        if self.pos < len(t) and t[self.pos] in "eE":
            save = self.pos
            self.pos += 1
            if self.pos < len(t) and t[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(t) and t[self.pos].isdigit():
                while self.pos < len(t) and t[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = save
        try:
            return const(float(t[start:self.pos]))
        except ValueError:
            raise ParseError(f"bad number {t[start:self.pos]!r}", start) from None

    def ident(self) -> str:
        start = self.pos
        t = self.text
        while self.pos < len(t) and (t[self.pos].isalnum() or t[self.pos] == "_"):
            self.pos += 1
        return t[start:self.pos]


def parse(text: str, arity: int) -> Expr:
    """Parse an expression over variables x1..x<arity>."""
    return _Parser(text, arity).parse()


def parse_template(text: str, arity: int) -> Expr:
    """Parse a template over x1..x<arity> and parameters p0, p1, ..."""
    return _Parser(text, arity, params=True).parse()
