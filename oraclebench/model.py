"""The benchmark's own model of a generated C program.

A program is a small statement tree, kept as plain JSON-able lists, from
which two things are derived in one traversal: the C text handed to
`contractor`, and a Python function per C function that the oracle executes.
Both carry the same line numbers, so an oracle trace points at the C line the
statement sits on.

Statements (expressions are C text restricted to integer + - *, comparisons,
&&, || and parentheses; they read the same in Python once && and || are
spelled out):

    ["decl", var, expr]                       int var = expr;
    ["set", var, expr]                        var = expr;
    ["call", var, fname, [args...]]           int var = fname(args);
    ["if", cond, [then...], [else...]]        if (cond) { .. } else { .. }
    ["while", cond, [body...]]                while (cond) { .. }
    ["for", var, init, cond, step, [body]]    for (var = init; cond; var = step) { .. }
    ["return", expr]                          return expr;

A function is a dict: name, params ([name, lo, hi] with the bounded input
domain the oracle enumerates), ret ([lo, hi], the value domain a contract
stub may havoc over), static, doc (comment lines placed above it) and body.
`main` is a straight-line list of decl/call statements plus one property.
Parameters are never assigned, so a postcondition's reading of them is the
entry value in both C and the model.
"""

from __future__ import annotations

import re
from typing import Dict, List, Sequence, Tuple

RETURN_VALUE = "__ESBMC_return_value"
INDENT = "    "

_IDENT_RE = re.compile(r"[A-Za-z_]\w*")


def py_expr(c_text: str) -> str:
    """C expression text of the supported subset as a Python expression."""
    out = c_text.replace("&&", " and ").replace("||", " or ")
    return re.sub(r"!(?!=)", " not ", out)


def identifiers(expr: str) -> List[str]:
    seen: Dict[str, None] = {}
    for name in _IDENT_RE.findall(expr):
        if name not in ("and", "or", "not"):
            seen.setdefault(name)
    return list(seen)


def split_conjuncts(expr: str) -> List[str]:
    """Top-level && operands of a C expression."""
    parts: List[str] = []
    depth = 0
    start = 0
    i = 0
    while i < len(expr):
        c = expr[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif depth == 0 and expr.startswith("&&", i):
            parts.append(expr[start:i].strip())
            start = i + 2
            i += 2
            continue
        i += 1
    parts.append(expr[start:].strip())
    return [p for p in parts if p]


class _Emitter:
    """Renders C and Python side by side, numbering C lines as it goes."""

    def __init__(self):
        self.c_lines: List[str] = []
        # original C line (1-based) -> ("head", fname) | ("loop", fname, ordinal)
        self.anchors: Dict[int, Tuple] = {}
        self.stmt_lines: Dict[Tuple[str, str], int] = {}

    def c(self, text: str) -> int:
        self.c_lines.append(text)
        return len(self.c_lines)


def _function_py(em: _Emitter, fn: Dict) -> str:
    name = fn["name"]
    params = [p[0] for p in fn["params"]]
    sig = ", ".join(f"int {p}" for p in params) or "void"
    for doc in fn.get("doc", ()):
        em.c(doc)
    head = ("static " if fn.get("static") else "") + f"int {name}({sig}) {{"
    line = em.c(head)
    em.anchors[line] = ("head", name)
    py: List[str] = [f"def F_{name}({', '.join(params)}):", "    T = CTX.trace"]
    for p in params:
        py.append(f"    T.append(({name!r}, {line}, {p!r}, {p}))")
    loops = [0]

    def block(stmts: Sequence, depth: int, pdepth: int) -> None:
        pad = "    " * pdepth
        if not stmts:
            py.append(pad + "pass")
        for st in stmts:
            kind = st[0]
            ind = INDENT * depth
            if kind == "decl" or kind == "set":
                _, var, expr = st
                ln = em.c(f"{ind}{'int ' if kind == 'decl' else ''}{var} = {expr};")
                py.append(f"{pad}{var} = {py_expr(expr)}")
                py.append(f"{pad}T.append(({name!r}, {ln}, {var!r}, {var}))")
            elif kind == "call":
                _, var, callee, args = st
                ln = em.c(f"{ind}int {var} = {callee}({', '.join(args)});")
                pargs = "".join(f"{py_expr(a)}, " for a in args)
                py.append(f"{pad}{var} = CTX.call({callee!r}, ({pargs}), {name!r}, {ln})")
                py.append(f"{pad}T.append(({name!r}, {ln}, {var!r}, {var}))")
            elif kind == "if":
                _, cond, then, other = st
                em.c(f"{ind}if ({cond}) {{")
                py.append(f"{pad}if {py_expr(cond)}:")
                block(then, depth + 1, pdepth + 1)
                if other:
                    em.c(f"{ind}}} else {{")
                    py.append(f"{pad}else:")
                    block(other, depth + 1, pdepth + 1)
                em.c(f"{ind}}}")
            elif kind in ("while", "for"):
                ordinal = loops[0]
                loops[0] += 1
                if kind == "while":
                    _, cond, body = st
                    ln = em.c(f"{ind}while ({cond}) {{")
                else:
                    _, var, init, cond, step, body = st
                    ln = em.c(f"{ind}for ({var} = {init}; {cond}; {var} = {step}) {{")
                    py.append(f"{pad}{var} = {py_expr(init)}")
                    py.append(f"{pad}T.append(({name!r}, {ln}, {var!r}, {var}))")
                em.anchors[ln] = ("loop", name, ordinal)
                py.append(f"{pad}while True:")
                py.append(f"{pad}    CTX.head({name!r}, {ordinal}, {ln}, locals())")
                py.append(f"{pad}    if not ({py_expr(cond)}):")
                py.append(f"{pad}        break")
                block(body, depth + 1, pdepth + 1)
                if kind == "for":
                    py.append(f"{pad}    {var} = {py_expr(step)}")
                    py.append(f"{pad}    T.append(({name!r}, {ln}, {var!r}, {var}))")
                em.c(f"{ind}}}")
            elif kind == "return":
                ln = em.c(f"{ind}return {st[1]};")
                em.stmt_lines[(name, "return")] = ln
                py.append(f"{pad}RV = {py_expr(st[1])}")
                py.append(f"{pad}T.append(({name!r}, {ln}, {RETURN_VALUE!r}, RV))")
                py.append(f"{pad}return RV")
            else:
                raise ValueError(f"unknown statement {kind!r}")

    block(fn["body"], 1, 1)
    em.c("}")
    em.c("")
    return "\n".join(py)


def render(program: Dict) -> Dict:
    """C text, the line anchors of function heads and loops, main's statement
    lines, and the Python source of every function."""
    em = _Emitter()
    em.c("#include <assert.h>")
    em.c("")
    py_parts = [_function_py(em, fn) for fn in program["functions"]]
    em.c("int main() {")
    main_lines: List[int] = []
    for st in program["main"]:
        if st[0] == "decl":
            main_lines.append(em.c(f"{INDENT}int {st[1]} = {st[2]};"))
        elif st[0] == "call":
            main_lines.append(em.c(f"{INDENT}int {st[1]} = {st[2]}({', '.join(st[3])});"))
        else:
            raise ValueError("main holds decl and call statements only")
    assert_line = em.c(f"{INDENT}assert({program['property']});")
    em.c(f"{INDENT}return 0;")
    em.c("}")
    return {
        "text": "\n".join(em.c_lines) + "\n",
        "anchors": em.anchors,
        "main_lines": main_lines,
        "assert_line": assert_line,
        "returns": em.stmt_lines,
        "python": "\n\n".join(py_parts) + "\n",
    }
