"""Tiny evaluator for the C expression subset that shows up in contract clauses,
and the one definition of the names an expression mentions (`identifiers`).

Integer-only, over C's `int`, C semantics where they differ from Python:
division and modulo truncate toward zero, relational and logical operators
yield 0/1, and a shift amount must lie in 0..31. A value outside `int`'s
range (a literal, a valuation's value or any intermediate result, including
a left shift of a negative value or past the sign bit) raises EvalError:
signed overflow is undefined (ISO C11 6.5p5), so no value would be right.
Arrays are plain Python sequences in the valuation. No casts, no calls, no
assignment. A decimal, octal (leading 0) or hexadecimal literal without a
suffix has its value, and a character literal of one plain character or a
simple escape its C value. Every other literal is no `int` here: a floating
or string literal, another character literal, an unsigned or long literal
(a `u` or `l` suffix, or a value no `int` holds, whose type converts the
other operand under ISO C11 6.3.1.8, so `-1 < 10u` is false in C).
Evaluating one raises EvalError.

Binary operators come from one precedence table, `_LEVELS`, loosest level
first, and `_apply` holds their C rules. `&&`, `||` and `?:` short-circuit the
way C does. The untaken side is still parsed, as a dead branch where an
evaluation error gives 0: division by zero, a shift out of range, an array
used as an integer, an unbound name or a bad index. So `d != 0 && n / d > 1`
is fine at d == 0, while malformed text raises everywhere. A literal or value
that is no `int` gives 0 on the untaken side of `&&` or `||`, whose result is
an `int` whatever its operands are; it still raises in the untaken arm of a
`?:`, whose type is that of both arms.
"""

from __future__ import annotations

import operator
import re
from typing import Dict, List, Optional, Sequence, Tuple, Union

Value = Union[int, Sequence[int]]

INT_MIN, INT_MAX = -2 ** 31, 2 ** 31 - 1


class EvalError(Exception):
    """Expression cannot be parsed or evaluated over the given valuation."""


# floating literals: hexadecimal with a binary exponent, decimal with a point
# or an exponent
_FLOAT = r"""
    0[xX](?:[0-9a-fA-F]+\.?[0-9a-fA-F]*|\.[0-9a-fA-F]+)[pP][+-]?\d+[fFlL]?
    | (?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?[fFlL]?
    | \d+[eE][+-]?\d+[fFlL]?
"""
# character, string, floating and integer literals, each floating one before
# the integer it starts with; a literal names nothing
_LITERAL = r"""
    '(?:\\.|[^'\\\n])+' | "(?:\\.|[^"\\\n])*" |
""" + _FLOAT + r"""
    | 0[xX][0-9a-fA-F]+[uUlL]* | \d+[uUlL]*
"""
_NAME = r"[A-Za-z_]\w*"
_TOKEN_RE = re.compile(r"\s*(" + _LITERAL + "|" + _NAME + r"""
    | << | >> | <= | >= | == | != | && | \|\|
    | [-+*/%~!<>=&^|?:()\[\],]
)""", re.VERBOSE)
# a literal or a name, wherever it stands in text of any shape
_LEXEME_RE = re.compile(_LITERAL + "|" + _NAME, re.VERBOSE)
_NAME_RE = re.compile(_NAME)
# an integer literal without a suffix: hexadecimal, octal (a leading 0) or decimal
_INT_RE = re.compile(r"0[xX][0-9a-fA-F]+|0[0-7]*|[1-9]\d*")
# the value of each one-character literal's text between the quotes
_CHAR_VALUES = {**{chr(c): c for c in range(32, 127) if chr(c) not in "\\'"},
                "\\0": 0, "\\t": 9, "\\n": 10, "\\r": 13,
                "\\\\": 92, "\\'": 39, '\\"': 34}

# binary operators by precedence, loosest first; each level is left-associative
_LEVELS = (
    ("||",), ("&&",), ("|",), ("^",), ("&",), ("==", "!="),
    ("<", "<=", ">", ">="), ("<<", ">>"), ("+", "-"), ("*", "/", "%"),
)
_OPERATORS = {
    "||": lambda a, b: a != 0 or b != 0, "&&": lambda a, b: a != 0 and b != 0,
    "|": operator.or_, "^": operator.xor, "&": operator.and_,
    "==": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge, "<<": operator.lshift, ">>": operator.rshift,
    "+": operator.add, "-": operator.sub, "*": operator.mul,
}
_UNARY = {"!": operator.not_, "-": operator.neg, "+": operator.pos, "~": operator.invert}


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
    """All identifiers in order of first appearance, deduplicated, read from
    text in or outside the evaluator's dialect. A literal such as `0x7f`,
    `10u`, `1e5`, `1.5f`, `'a'` or `"s"` names nothing."""
    return tuple(dict.fromkeys(t for t in _LEXEME_RE.findall(text) if _NAME_RE.fullmatch(t)))


def _int(v: int) -> int:
    """v, when an `int` holds it."""
    if not INT_MIN <= v <= INT_MAX:
        raise EvalError(f"{v} is outside int's range")
    return v


def _literal_value(tok: str) -> Optional[int]:
    """A literal's value when its type may be `int`, else None."""
    if tok[0] == "'":
        return _CHAR_VALUES.get(tok[1:-1])
    if _INT_RE.fullmatch(tok):
        return int(tok, 16 if tok[1:2] in ("x", "X") else 8 if tok[0] == "0" else 10)
    return None


def _apply(op: str, a: int, b: int) -> int:
    """One binary operator under C's rules on `int`; EvalError where C gives
    no value."""
    if op in ("/", "%"):
        if b == 0:
            raise EvalError("division by zero")
        q = _int(abs(a) // abs(b) * (1 if (a >= 0) == (b >= 0) else -1))
        return q if op == "/" else a - q * b
    if op in ("<<", ">>") and not 0 <= b <= 31:
        raise EvalError(f"shift amount {b} out of range")
    if op == "<<" and a < 0:
        raise EvalError(f"left shift of negative value {a}")
    return _int(int(_OPERATORS[op](a, b)))


class _Parser:
    """Recursive descent over the token list; evaluates as it parses. While
    `self.dead` is set, the parser is in an untaken branch, and while
    `self.typed` is set a literal's or a value's type still counts (see the
    module docstring)."""

    def __init__(self, tokens: List[str], valuation: Dict[str, Value]):
        self.toks = tokens
        self.i = 0
        self.env = valuation
        self.dead = False
        self.typed = True

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

    def _skip(self, production, *args, arm: bool = False) -> None:
        """Parse production as an untaken branch, a `?:` arm when arm is set."""
        dead, typed = self.dead, self.typed
        self.dead, self.typed = True, typed and arm
        try:
            production(*args)
        finally:
            self.dead, self.typed = dead, typed

    def _leaf(self, v: Optional[Value], tok: str) -> Value:
        """tok's value v (None for a literal that is no `int`), where its type
        counts only if an `int` holds it."""
        if v is None or isinstance(v, int) and not INT_MIN <= v <= INT_MAX:
            if self.typed:
                raise EvalError(f"{tok} is no int here")
            return 0
        return v

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
        cond = self.binary(0)
        if self.peek() == "?":
            self.take()
            taken = self._truthy(cond)
            if taken:
                val = self.ternary()
                self.take(":")
                self._skip(self.ternary, arm=True)
            else:
                self._skip(self.ternary, arm=True)
                self.take(":")
                val = self.ternary()
            return val
        return cond

    def binary(self, level: int) -> Value:
        """The operators of `_LEVELS[level]` over operands of the next level."""
        if level == len(_LEVELS):
            return self.unary()
        left = self.binary(level + 1)
        while self.peek() in _LEVELS[level]:
            op = self.take()
            if op in ("&&", "||") and self._truthy(left) == (op == "||"):
                self._skip(self.binary, level + 1)
                left = int(op == "||")
                continue
            a, b = self._as_int(left), self._as_int(self.binary(level + 1))
            try:
                left = _apply(op, a, b)
            except EvalError:
                if not self.dead:
                    raise
                left = 0
        return left

    def unary(self) -> Value:
        fn = _UNARY.get(self.peek())
        if fn is None:
            return self.postfix()
        self.take()
        val = int(fn(self._as_int(self.unary())))
        return val if self.dead else _int(val)

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
            val = self._leaf(val[idx], "an element")
        return val

    def primary(self) -> Value:
        tok = self.take()
        if tok == "(":
            val = self.ternary()
            self.take(")")
            return val
        if _NAME_RE.fullmatch(tok):
            if tok not in self.env:
                if self.dead:
                    return 0
                raise EvalError(f"unbound identifier {tok!r}")
            return self._leaf(self.env[tok], tok)
        if tok[0] in "'\"." or tok[0].isdigit():
            return self._leaf(_literal_value(tok), tok)
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
    """The clause's truth in C, or None when the evaluator cannot vouch for
    it: the clause is outside its dialect or a value is no `int`."""
    try:
        return evaluate_bool(text, valuation)
    except EvalError:
        return None
