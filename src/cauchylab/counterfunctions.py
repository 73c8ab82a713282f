"""Total functions on the naturals, with a guarded evaluation budget.

Counterfunctions are the function arguments quantified over in
metastability statements.  Rate functionals compose them in ways that
can explode combinatorially, so every evaluation inside a top-level
rate query charges a shared budget; exceeding it raises a diagnosable
error instead of hanging.

A tiny expression grammar lets configurations define counterfunctions
over the variable n: natural constants, +, *, max(a, b), parentheses,
and composition with previously named functions.  All arithmetic is
exact Python integer arithmetic, capped at the float range: every rate
bound built on a value is compared as a float, so a literal or an
intermediate value above ``sys.float_info.max`` is a ``ContractError``.
"""

from __future__ import annotations

import contextvars
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from decimal import Decimal
from typing import Callable, Mapping

from .errors import ContractError, EvaluationCapExceeded

DEFAULT_EVALUATION_CAP = 10**6
GRAMMAR = (
    "expr := term ('+' term)* ; term := atom ('*' atom)* ; "
    "atom := natural | 'n' | 'max(' expr ',' expr ')' | name '(' expr ')' "
    "| '(' expr ')'  -- names refer to earlier entries in "
    "scenario.counterfunctions; all arithmetic is exact, up to the float range"
)

_active_budget: contextvars.ContextVar["EvaluationBudget | None"] = contextvars.ContextVar(
    "cauchylab_rate_budget", default=None
)


class EvaluationBudget:
    """Shared call counter for one top-level rate query."""

    def __init__(self, cap: int = DEFAULT_EVALUATION_CAP):
        self.cap = cap
        self.used = 0

    def charge(self, amount: int = 1, offender: str = "") -> None:
        self.used += amount
        if self.used > self.cap:
            raise EvaluationCapExceeded(
                f"evaluation cap {self.cap} exceeded"
                + (f" while evaluating {offender}" if offender else ""),
                offender=offender,
            )


@contextmanager
def query_budget(cap: int = DEFAULT_EVALUATION_CAP):
    """Install a budget for a top-level query; nested queries share it."""
    existing = _active_budget.get()
    if existing is not None:
        yield existing
        return
    budget = EvaluationBudget(cap)
    token = _active_budget.set(budget)
    try:
        yield budget
    finally:
        _active_budget.reset(token)


def charge(amount: int = 1, offender: str = "") -> None:
    budget = _active_budget.get()
    if budget is not None:
        budget.charge(amount, offender)


@dataclass(frozen=True)
class Counterfunction:
    """Total map from naturals to naturals with a readable description."""

    fn: Callable[[int], int]
    description: str = "<anonymous>"

    def __call__(self, n: int) -> int:
        if not isinstance(n, int) or n < 0:
            raise ContractError(f"counterfunction argument must be a natural, got {n!r}")
        charge(1, self.description)
        value = self.fn(n)
        if not isinstance(value, int) or value < 0:
            raise ContractError(
                f"counterfunction {self.description} returned non-natural {value!r}"
            )
        return value

    @staticmethod
    def constant(c: int, description: str | None = None) -> "Counterfunction":
        if c < 0:
            raise ValueError("constant must be a natural")
        return Counterfunction(lambda n: c, description if description is not None else str(c))

    @staticmethod
    def identity() -> "Counterfunction":
        return Counterfunction(lambda n: n, "n")


@dataclass(frozen=True)
class MetastabilityRate:
    """Functional (k, f) -> natural bounding a metastable witness.

    ``f_independent`` marks rates that ignore their counterfunction
    argument (every rate derived from a plain rate of convergence is of
    this shape); downstream enumerations over such rates collapse to a
    single evaluation instead of walking the whole index range.
    """

    fn: Callable[[int, Counterfunction], int]
    f_independent: bool = False
    description: str = "<metastability rate>"

    def __call__(self, k: int, f: Counterfunction) -> int:
        if not isinstance(k, int) or k < 0:
            raise ContractError(f"rate argument must be a natural, got {k!r}")
        charge(1, self.description)
        value = self.fn(k, f)
        if not isinstance(value, int) or value < 0:
            raise ContractError(f"{self.description} returned non-natural {value!r}")
        return value

    @staticmethod
    def from_convergence_rate(
        roc: Callable[[int], int], description: str = "from rate of convergence"
    ) -> "MetastabilityRate":
        return MetastabilityRate(
            fn=lambda k, f: roc(k), f_independent=True, description=description
        )

    @staticmethod
    def zero() -> "MetastabilityRate":
        return MetastabilityRate(fn=lambda k, f: 0, f_independent=True, description="0")


# -- expression grammar -------------------------------------------------------

_NAME = "[A-Za-z_][A-Za-z_0-9]*"
_TOKEN_RE = re.compile(rf"\s*(?:(\d+)|({_NAME})|([()+*,]))")
NAME_RULE = "a name is a letter or _ followed by letters, digits or _, and not n or max"


def callable_name(name: str) -> bool:
    """Whether an expression over n can call a function named ``name``."""
    return re.fullmatch(_NAME, name) is not None and name not in ("n", "max")


def _capped(value) -> int:
    """``value`` as an int; above the float range, a ContractError instead."""
    if value > sys.float_info.max:
        raise ContractError(f"expression value {Decimal(value):.3e} exceeds the float range")
    return int(value)


# an expression compiles to a closure over its variables' values
_Expr = Callable[[Mapping[str, int]], int]


def _binop(op: str, left: _Expr, right: _Expr) -> _Expr:
    """``left`` is evaluated before ``right``, as written."""
    if op == "+":
        return lambda env: _capped(left(env) + right(env))
    if op == "*":
        return lambda env: _capped(left(env) * right(env))
    return lambda env: max(left(env), right(env))


class _Parser:
    def __init__(self, text: str, variables: tuple[str, ...], named: Mapping[str, Counterfunction]):
        self.text = text
        self.variables = variables
        self.named = named
        self.tokens = self._tokenize(text)
        self.pos = 0

    @staticmethod
    def _tokenize(text: str):
        tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                raise ContractError(f"bad token in counterfunction expression at {text[pos:]!r}")
            if m.group(1):
                # a Decimal: int() of a long digit string meets Python's digit limit
                tokens.append(("nat", _capped(Decimal(m.group(1)))))
            elif m.group(2):
                tokens.append(("name", m.group(2)))
            else:
                tokens.append(("sym", m.group(3)))
            pos = m.end()
        return tokens

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def _next(self):
        tok = self._peek()
        self.pos += 1
        return tok

    def _expect(self, sym: str):
        kind, val = self._next()
        if kind != "sym" or val != sym:
            raise ContractError(f"expected {sym!r} in expression {self.text!r}")

    def parse(self) -> _Expr:
        node = self._expr()
        if self.pos != len(self.tokens):
            raise ContractError(f"trailing tokens in expression {self.text!r}")
        return node

    def _expr(self) -> _Expr:
        node = self._term()
        while self._peek() == ("sym", "+"):
            self._next()
            node = _binop("+", node, self._term())
        return node

    def _term(self) -> _Expr:
        node = self._atom()
        while self._peek() == ("sym", "*"):
            self._next()
            node = _binop("*", node, self._atom())
        return node

    def _atom(self) -> _Expr:
        kind, val = self._next()
        if kind == "nat":
            return lambda env: val
        if kind == "name":
            if val == "max":
                self._expect("(")
                left = self._expr()
                self._expect(",")
                right = self._expr()
                self._expect(")")
                return _binop("max", left, right)
            if val in self.variables:
                return lambda env: env[val]
            if val in self.named:
                func = self.named[val]
                self._expect("(")
                arg = self._expr()
                self._expect(")")
                return lambda env: func(arg(env))
            raise ContractError(f"unknown name {val!r} in expression {self.text!r}")
        if kind == "sym" and val == "(":
            node = self._expr()
            self._expect(")")
            return node
        raise ContractError(f"unexpected token {val!r} in expression {self.text!r}")


def parse_expression(
    text: str,
    variables: tuple[str, ...],
    named: Mapping[str, Counterfunction] | None = None,
) -> _Expr:
    if not text.strip():
        raise ContractError("empty counterfunction expression")
    return _Parser(text, variables, named or {}).parse()


def parse_counterfunction(
    text: str, named: Mapping[str, Counterfunction] | None = None
) -> Counterfunction:
    """Compile an expression over n into a counterfunction."""
    expr = parse_expression(text, ("n",), named)
    return Counterfunction(fn=lambda n: expr({"n": n}), description=text.strip())


def parse_nat_function2(text: str, variables: tuple[str, str]) -> Callable[[int, int], int]:
    """Compile a two-variable expression into a natural-valued function."""
    expr = parse_expression(text, variables)

    def fn(a: int, b: int) -> int:
        value = expr({variables[0]: a, variables[1]: b})
        if value < 0:
            raise ContractError(f"expression {text!r} produced a negative value")
        return value

    return fn
