"""Tiny evaluator for the C expression subset that shows up in contract clauses.

Integer-only, C semantics where they differ from Python: division and modulo
truncate toward zero, relational and logical operators yield 0/1. Arrays are
plain Python sequences in the valuation. No casts, no calls, no assignment.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple, Union

Value = Union[int, Sequence[int]]


class EvalError(Exception):
    """Expression cannot be parsed or evaluated over the given valuation."""


_TOKEN_RE = re.compile(
    r"""
    \s*(
        0[xX][0-9a-fA-F]+[uUlL]* |
        \d+[uUlL]*               |
        [A-Za-z_]\w*             |
        << | >> | <= | >= | == | != | && | \|\| |
        [-+*/%~!<>=&^|?:()\[\],]
    )
    """,
    re.VERBOSE,
)

_INT_SUFFIX_RE = re.compile(r"[uUlL]+$")


def tokenize(text: str) -> List[str]:
    tokens: List[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise EvalError(f"bad token at {text[pos:pos + 12]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def identifiers(text: str) -> Tuple[str, ...]:
    """All identifier tokens in order of first appearance, deduplicated."""
    seen: Dict[str, None] = {}
    try:
        tokens = tokenize(text)
    except EvalError:
        tokens = re.findall(r"[A-Za-z_]\w*", text)
    for tok in tokens:
        if re.match(r"[A-Za-z_]\w*$", tok) and not tok[0].isdigit():
            seen.setdefault(tok)
    return tuple(seen)


def _c_div(a: int, b: int) -> int:
    if b == 0:
        raise EvalError("division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _c_mod(a: int, b: int) -> int:
    return a - _c_div(a, b) * b


class _Parser:
    """Recursive descent over the token list; evaluates as it parses.

    `&&`, `||` and `?:` short-circuit the way C does. The untaken side still
    has to be parsed (the token stream moves forward), so it runs with
    `self.dead` set, which turns evaluation errors into zeros: structural
    errors still raise, but `d != 0 && n / d > 1` is fine at d == 0.
    """

    def __init__(self, tokens: List[str], valuation: Dict[str, Value]):
        self.toks = tokens
        self.i = 0
        self.env = valuation
        self.dead = 0

    def peek(self) -> Optional[str]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, expected: Optional[str] = None) -> str:
        tok = self.peek()
        if tok is None:
            raise EvalError("unexpected end of expression")
        if expected is not None and tok != expected:
            raise EvalError(f"expected {expected!r}, got {tok!r}")
        self.i += 1
        return tok

    def _skip(self, production) -> None:
        self.dead += 1
        try:
            production()
        finally:
            self.dead -= 1

    def _as_int(self, v: Value) -> int:
        if isinstance(v, bool):
            return int(v)
        if not isinstance(v, int):
            if self.dead:
                return 0
            raise EvalError("array used where an integer is needed")
        return v

    def _truthy(self, v: Value) -> bool:
        return self._as_int(v) != 0

    def parse(self) -> Value:
        val = self.ternary()
        if self.peek() is not None:
            raise EvalError(f"trailing tokens at {self.peek()!r}")
        return val

    def ternary(self) -> Value:
        cond = self.logic_or()
        if self.peek() == "?":
            self.take()
            taken = self._truthy(cond)
            if taken:
                val = self.ternary()
                self.take(":")
                self._skip(self.ternary)
            else:
                self._skip(self.ternary)
                self.take(":")
                val = self.ternary()
            return val
        return cond

    def logic_or(self) -> Value:
        left = self.logic_and()
        while self.peek() == "||":
            self.take()
            if self._truthy(left):
                self._skip(self.logic_and)
                left = 1
            else:
                left = 1 if self._truthy(self.logic_and()) else 0
        return left

    def logic_and(self) -> Value:
        left = self.bit_or()
        while self.peek() == "&&":
            self.take()
            if not self._truthy(left):
                self._skip(self.bit_or)
                left = 0
            else:
                left = 1 if self._truthy(self.bit_or()) else 0
        return left

    def bit_or(self) -> Value:
        left = self.bit_xor()
        while self.peek() == "|":
            self.take()
            left = self._as_int(left) | self._as_int(self.bit_xor())
        return left

    def bit_xor(self) -> Value:
        left = self.bit_and()
        while self.peek() == "^":
            self.take()
            left = self._as_int(left) ^ self._as_int(self.bit_and())
        return left

    def bit_and(self) -> Value:
        left = self.equality()
        while self.peek() == "&":
            self.take()
            left = self._as_int(left) & self._as_int(self.equality())
        return left

    def equality(self) -> Value:
        left = self.relational()
        while self.peek() in ("==", "!="):
            op = self.take()
            right = self.relational()
            hit = self._as_int(left) == self._as_int(right)
            left = int(hit if op == "==" else not hit)
        return left

    def relational(self) -> Value:
        left = self.shift()
        while self.peek() in ("<", "<=", ">", ">="):
            op = self.take()
            right = self._as_int(self.shift())
            a = self._as_int(left)
            left = int(
                a < right if op == "<"
                else a <= right if op == "<="
                else a > right if op == ">"
                else a >= right
            )
        return left

    def shift(self) -> Value:
        left = self.additive()
        while self.peek() in ("<<", ">>"):
            op = self.take()
            right = self._as_int(self.additive())
            if not 0 <= right <= 256:
                if self.dead:
                    left = 0
                    continue
                raise EvalError(f"shift amount {right} out of range")
            left = self._as_int(left) << right if op == "<<" \
                else self._as_int(left) >> right
        return left

    def additive(self) -> Value:
        left = self.multiplicative()
        while self.peek() in ("+", "-"):
            op = self.take()
            right = self._as_int(self.multiplicative())
            left = self._as_int(left) + right if op == "+" \
                else self._as_int(left) - right
        return left

    def multiplicative(self) -> Value:
        left = self.unary()
        while self.peek() in ("*", "/", "%"):
            op = self.take()
            right = self._as_int(self.unary())
            if op == "*":
                left = self._as_int(left) * right
            elif right == 0 and self.dead:
                left = 0
            elif op == "/":
                left = _c_div(self._as_int(left), right)
            else:
                left = _c_mod(self._as_int(left), right)
        return left

    def unary(self) -> Value:
        tok = self.peek()
        if tok == "!":
            self.take()
            return int(not self._truthy(self.unary()))
        if tok == "-":
            self.take()
            return -self._as_int(self.unary())
        if tok == "+":
            self.take()
            return self._as_int(self.unary())
        if tok == "~":
            self.take()
            return ~self._as_int(self.unary())
        return self.postfix()

    def postfix(self) -> Value:
        val = self.primary()
        while self.peek() == "[":
            self.take()
            idx = self._as_int(self.ternary())
            self.take("]")
            if not isinstance(val, (list, tuple)):
                if self.dead:
                    val = 0
                    continue
                raise EvalError("indexing a non-array value")
            if not 0 <= idx < len(val):
                if self.dead:
                    val = 0
                    continue
                raise EvalError(f"index {idx} out of range")
            val = val[idx]
        return val

    def primary(self) -> Value:
        tok = self.take()
        if tok == "(":
            val = self.ternary()
            self.take(")")
            return val
        if re.match(r"0[xX]", tok):
            return int(_INT_SUFFIX_RE.sub("", tok), 16)
        if tok[0].isdigit():
            return int(_INT_SUFFIX_RE.sub("", tok))
        if re.match(r"[A-Za-z_]\w*$", tok):
            if tok not in self.env:
                if self.dead:
                    return 0
                raise EvalError(f"unbound identifier {tok!r}")
            return self.env[tok]
        raise EvalError(f"unexpected token {tok!r}")


def _parser(text: str, valuation: Dict[str, Value]) -> _Parser:
    tokens = tokenize(text)
    if not tokens:
        raise EvalError("empty expression")
    return _Parser(tokens, valuation)


def evaluate(text: str, valuation: Dict[str, Value]) -> Value:
    """Evaluate *text* over *valuation*. Raises EvalError on anything dubious."""
    return _parser(text, valuation).parse()


def evaluate_bool(text: str, valuation: Dict[str, Value]) -> bool:
    parser = _parser(text, valuation)
    return parser._truthy(parser.parse())


def try_evaluate_bool(text: str, valuation: Dict[str, Value]) -> Optional[bool]:
    """Best effort: None when the clause is outside the evaluator's dialect."""
    try:
        return evaluate_bool(text, valuation)
    except EvalError:
        return None
