"""Lexical model of a C translation unit.

No real C grammar here, deliberately: a masked-text scan (comments and string
bodies blanked, offsets preserved) is enough to find top-level function
definitions, the single system assertion in main, and the complexity signals
the tier split needs. Anything deeper belongs to the backend.

The source is masked once; each function body is a slice of that mask,
scanned once for its call heads, and every other layer reads the records
stored here. `LoopSite` is the only place a loop is read: `_loop_sites` finds
each loop's keyword, header condition and extent in one pass over a body.
`FunctionInfo.writes` (`_writes`) serves the unbounded-loop test and the
fallback contract's assigns, `FunctionInfo.body_names` the invariant check.

The file scope is read in one linear pass, since the paper's hardest inputs
are large C files: `_scan_file_scope` jumps from one brace, `;`, `#` or call
head to the next and reads each item once, a directive with the lines it
continues, a function definition whole, a declaration up to its `;`. Every
declarator, a parameter's or a global's, is read by `_declarator`. The same
pass records the names a clause may use that are no globals: each `#define`
and each file-scope enum constant.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from .cexpr import identifiers
from .errors import (
    MultiplePropertiesError,
    NoMainError,
    NoPropertyError,
    UnbalancedSourceError,
)

C_KEYWORDS = {
    "if", "else", "for", "while", "do", "switch", "case", "default", "return",
    "break", "continue", "goto", "sizeof", "typedef", "struct", "union",
    "enum", "static", "extern", "const", "volatile", "inline", "register",
    "void", "int", "char", "long", "short", "float", "double", "signed",
    "unsigned", "_Bool",
}

TYPE_KEYWORDS = {
    "void", "int", "char", "long", "short", "float", "double", "signed",
    "unsigned", "_Bool", "const", "volatile", "struct", "union", "enum",
    "size_t", "ssize_t", "ptrdiff_t", "intptr_t", "uintptr_t",
    "int8_t", "int16_t", "int32_t", "int64_t",
    "uint8_t", "uint16_t", "uint32_t", "uint64_t",
    "u8", "u16", "u32", "u64", "i8", "i16", "i32", "i64", "bool",
}

ALLOC_FUNCTIONS = {"malloc", "calloc", "realloc", "aligned_alloc", "alloca"}

_WORD_RE = re.compile(r"[A-Za-z_]\w*")
_ASSERT_RE = re.compile(r"\b(__ESBMC_assert|assert)\s*\(")
_FUNC_HEAD_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
# at file scope the next brace, `;`, `#` or call head, whichever comes first
_FILE_SCOPE_STOP_RE = re.compile(r"[{};#]|" + _FUNC_HEAD_RE.pattern)
_BRACE_RE = re.compile(r"[{}]")
_BODY_OPEN_RE = re.compile(r"\s*\{")
# a struct, union or enum tag, which is no declarator
_TAG_RE = re.compile(r"\b(struct|union|enum)\s+[A-Za-z_]\w*")
# `lvalue = callee(`, the lvalue a name or a `.`/`->` path spelled without spaces
_ASSIGNED_CALL_RE = re.compile(
    r"\b([A-Za-z_]\w*(?:(?:\.|->)[A-Za-z_]\w*)*)\s*=\s*([A-Za-z_]\w*)\s*\(")
# a directive's own line and every line it continues with a backslash
_DIRECTIVE_LINES_RE = re.compile(r"(?:.*\\\n)*.*\n?")
# the name a `#define` directive defines (object-like or function-like) or
# an `#undef` directive drops
_DEFINE_RE = re.compile(r"#[ \t]*(define|undef)[ \t]+([A-Za-z_]\w*)")
# the head of an enum's enumerator list, just before its brace
_ENUM_HEAD_RE = re.compile(r"\benum(?:\s+[A-Za-z_]\w*)?\s*$")
_ARRAY_BOUND_RE = re.compile(r"\[[^\]]*\]")
# the name a pointer declarator such as `(*fp)(int)` declares
_POINTER_DECLARATOR_RE = re.compile(r"\(\s*\*+\s*([A-Za-z_]\w*)\s*\)")
# the outer parameter list of a function that returns a function pointer,
# `int (*pick(int w))(int)`, after pick's own list
_RETURNED_PARAMS_RE = re.compile(r"\s*\)\s*\(")
_LOOP_KEYWORD_RE = re.compile(r"\b(for|while|do)\b")
_DO_TAIL_RE = re.compile(r"\s*while\b")


class Tier(str, Enum):
    MINIMAL = "minimal"
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


# tier boundaries are half-open: score < 5 minimal, [5, 10) low,
# [10, 20) medium, >= 20 high
TIER_LOW = 5.0
TIER_MEDIUM = 10.0
TIER_HIGH = 20.0


@dataclass(frozen=True)
class ComplexityMetrics:
    loop_count: int
    max_nesting_depth: int
    has_recursion: bool
    has_unbounded_loop: bool
    dynamic_alloc_count: int
    branch_count: int
    pointer_op_count: int
    score: float
    tier: Tier


@dataclass(frozen=True)
class Param:
    name: str
    type_text: str


@dataclass(frozen=True)
class LoopSite:
    keyword: str  # for | while | do; a do-while's tail `while` is not a site
    offset: int  # of the keyword
    body_open: Optional[int]  # of the body's '{'; None when the body is braceless
    end: int  # just past the body's '}', or past a braceless body's ';'
    condition: str  # masked; "" for `for (;;)`; a do's is its tail `while`'s


@dataclass(frozen=True)
class FunctionInfo:
    name: str
    signature_text: str
    body_span: Tuple[int, int]  # [start, end) of the braced block, inclusive of braces
    body_text: str
    params: Tuple[Param, ...]
    calls: Tuple[str, ...]
    is_static: bool
    metrics: ComplexityMetrics
    loops: Tuple[LoopSite, ...]  # in textual order; offsets into body_text
    writes: Tuple[str, ...]  # the body's write targets, see `_writes`
    body_names: Tuple[str, ...]  # the body's names outside comments and strings


@dataclass(frozen=True)
class SystemProperty:
    assertion_text: str


@dataclass(frozen=True)
class ProgramModel:
    source_text: str
    functions: Tuple[FunctionInfo, ...]
    property: SystemProperty
    global_names: Tuple[str, ...] = ()
    # file-scope macro and enum-constant names: a clause may use them, but
    # they are no globals, so they are neither covered nor assigned
    constant_names: Tuple[str, ...] = ()
    # (lvalue, callee) of each `lvalue = callee(` outside comments and strings,
    # in text order
    assigned_calls: Tuple[Tuple[str, str], ...] = ()
    _by_name: Dict[str, FunctionInfo] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the first definition of a name wins
        object.__setattr__(self, "_by_name", {f.name: f for f in reversed(self.functions)})

    def function(self, name: str) -> Optional[FunctionInfo]:
        return self._by_name.get(name)


def mask_comments_and_strings(src: str) -> str:
    """Blank comments and string/char literal bodies, preserving length and newlines."""
    out = list(src)
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        nxt = src[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            while i < n and src[i] != "\n":
                out[i] = " "
                i += 1
        elif ch == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (src[i] == "*" and i + 1 < n and src[i + 1] == "/"):
                if src[i] != "\n":
                    out[i] = " "
                i += 1
            if i + 1 < n:
                out[i] = out[i + 1] = " "
                i += 2
        elif ch in "\"'":
            quote = ch
            i += 1
            while i < n and src[i] != quote:
                if src[i] == "\\" and i + 1 < n:
                    out[i] = out[i + 1] = " "
                    i += 2
                    continue
                if src[i] != "\n":
                    out[i] = " "
                i += 1
            i += 1
        else:
            i += 1
    return "".join(out)


_CLOSERS = {"{": "}", "(": ")"}


def match_close(text: str, open_pos: int) -> int:
    """Index just past the bracket matching the '{' or '(' at text[open_pos]."""
    opener = text[open_pos]
    closer = _CLOSERS[opener]
    depth = 0
    for i in range(open_pos, len(text)):
        c = text[i]
        if c == opener:
            depth += 1
        elif c == closer:
            depth -= 1
            if depth == 0:
                return i + 1
    raise UnbalancedSourceError("unmatched '%s' at offset %d" % (opener, open_pos))


def _split_top_level(text: str) -> List[str]:
    """text cut at each comma outside parentheses and brackets."""
    parts: List[str] = []
    depth = 0
    start = 0
    for i, c in enumerate(text):
        if c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
        elif c == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def _declarator(part: str) -> Tuple[str, bool]:
    """The name one declarator declares ("" when it names none) and whether
    it declares a function. Array bounds, an initializer after its `=` and
    struct, union or enum tags are left out; `(*name)` declares name, and
    otherwise the name is the last word before any parenthesis."""
    head = _ARRAY_BOUND_RE.sub(" ", _TAG_RE.sub(r"\1", part)).split("=", 1)[0]
    pointer = _POINTER_DECLARATOR_RE.search(head)
    if pointer:
        return pointer.group(1), False
    names = [w for w in _WORD_RE.findall(head.split("(", 1)[0])
             if w not in TYPE_KEYWORDS and w not in C_KEYWORDS]
    return (names[-1] if names else ""), "(" in head


def _parse_params(param_text: str) -> Tuple[Param, ...]:
    """The named parameters; a function declarator keeps its name."""
    inner = param_text.strip()
    if inner in ("", "void"):
        return ()
    named = ((_declarator(part)[0], part.strip()) for part in _split_top_level(inner))
    return tuple(Param(name=name, type_text=text) for name, text in named if name)


def _declared(decl: str) -> List[str]:
    """The names one file-scope declaration declares, read with its brace
    blocks left out; a prototype declares nothing."""
    words = _WORD_RE.findall(decl)
    if not words or words[0] == "typedef" or not any(w in TYPE_KEYWORDS for w in words):
        return []
    return [name for name, is_function in map(_declarator, _split_top_level(decl))
            if name and not is_function]


@dataclass(frozen=True)
class _RawFunction:
    name: str
    signature_text: str
    body_span: Tuple[int, int]
    params: Tuple[Param, ...]
    is_static: bool


def _scan_file_scope(src: str, masked: str
                     ) -> Tuple[List[_RawFunction], Tuple[str, ...], Tuple[str, ...]]:
    """The function definitions, the declared global names and the macro and
    enum-constant names, in one pass that reads each file-scope item once: a
    directive with every line it continues, a function definition whole, and
    a declaration up to its `;` with its brace blocks (an initializer, a
    struct body, an enumerator list) left out. An enumerator list nested in a
    struct or union body declares its constants at file scope too, and an
    `#undef` drops the macro it names."""
    raws: List[_RawFunction] = []
    found: List[str] = []
    # each constant name in order, True for an enum constant, which no
    # `#undef` drops
    constants: Dict[str, bool] = {}
    enum_open: Optional[int] = None  # the brace of the enumerator list being read
    decl: List[str] = []  # the declaration read so far, outside its brace blocks
    depth = 0
    i = 0
    item = 0  # start of the current file-scope item
    while True:
        start = i
        m = (_BRACE_RE if depth else _FILE_SCOPE_STOP_RE).search(masked, i)
        if m is None:
            break
        i = m.start()
        c = masked[i]
        if c == "{":
            if depth == 0:
                decl.append(masked[item:i])
            if _ENUM_HEAD_RE.search(masked, start, i):
                enum_open = i
            depth += 1
            i += 1
            continue
        if c == "}":
            depth -= 1
            if depth < 0:
                raise UnbalancedSourceError("unmatched '}' at offset %d" % i)
            if enum_open is not None:  # an enumerator list holds no brace
                enumerators = _split_top_level(masked[enum_open + 1:i])
                constants.update((m.group(), True) for m in map(_WORD_RE.search, enumerators) if m)
                enum_open = None
            if depth == 0:
                item = i + 1
            i += 1
            continue
        if c == ";":
            found += _declared(" ".join(decl + [masked[item:i]]))
            decl = []
            item = i = i + 1
            continue
        if c == "#":  # a directive's lines declare no global
            decl.append(masked[item:i])
            define = _DEFINE_RE.match(masked, i)
            if define and define.group(1) == "define":
                constants.setdefault(define.group(2), False)
            elif define and constants.get(define.group(2)) is False:
                del constants[define.group(2)]
            item = i = _DIRECTIVE_LINES_RE.match(masked, i).end()
            continue
        if m.group(1) not in C_KEYWORDS:
            close = params_end = match_close(masked, m.end() - 1)
            while (outer := _RETURNED_PARAMS_RE.match(masked, close)):
                close = match_close(masked, outer.end() - 1)
            body = _BODY_OPEN_RE.match(masked, close)
            if body:
                j = body.end() - 1
                sig_start = i - len(masked[item:i].lstrip())
                body_end = match_close(masked, j)
                head_words = _WORD_RE.findall(masked[sig_start:i + len(m.group(1))])
                raws.append(_RawFunction(
                    name=m.group(1),
                    signature_text=" ".join(src[sig_start:close].split()),
                    body_span=(j, body_end),
                    params=_parse_params(src[m.end():params_end - 1]),
                    is_static="static" in head_words,
                ))
                decl = []
                item = i = body_end
                continue
        i = m.end()
    if depth != 0:
        raise UnbalancedSourceError("source has %d unclosed brace(s)" % depth)
    return raws, tuple(dict.fromkeys(found)), tuple(constants)


def _header(masked_body: str, pos: int) -> Tuple[str, int]:
    """Text inside the first `(...)` at or after pos and the offset just past
    its `)`; ("", pos) when there is none."""
    open_paren = masked_body.find("(", pos)
    if open_paren < 0:
        return "", pos
    close = match_close(masked_body, open_paren)
    return masked_body[open_paren + 1:close - 1], close


def _loop_sites(masked_body: str) -> List[LoopSite]:
    """Every loop of a masked body in textual order. A do's tail `while` is
    the one starting right at the do's end; it gives the do its condition and
    is no site itself, while a `while` after any other block opens a loop."""
    sites: List[LoopSite] = []
    tails = set()
    for m in _LOOP_KEYWORD_RE.finditer(masked_body):
        pos, kw = m.start(), m.group(1)
        if pos in tails:
            continue
        condition, header_end = ("", m.end()) if kw == "do" else _header(masked_body, m.end())
        brace = header_end
        while brace < len(masked_body) and masked_body[brace].isspace():
            brace += 1
        if brace < len(masked_body) and masked_body[brace] == "{":
            body_open, end = brace, match_close(masked_body, brace)
        else:  # one statement, or a header with no parenthesis
            body_open = None
            semi = masked_body.find(";", header_end)
            end = semi + 1 if semi >= 0 else len(masked_body)
        if kw == "do":
            tail = _DO_TAIL_RE.match(masked_body, end)
            if tail:
                tails.add(tail.end() - len("while"))
                condition = _header(masked_body, tail.end())[0]
        elif kw == "for":
            parts = condition.split(";")
            condition = parts[1] if len(parts) >= 2 else ""
        sites.append(LoopSite(kw, pos, body_open, end, condition.strip()))
    return sites


# a target as spelled, `*p`, `p->f` or a name, before an assignment operator
# or a postfix `++`/`--`; the lookahead consumes neither `==` nor the next name
_WRITE_RE = re.compile(
    r"(\*\s*[A-Za-z_]\w*|[A-Za-z_]\w*\s*->\s*[A-Za-z_]\w*|[A-Za-z_]\w*)"
    r"\s*(?:=(?!=)|\+=|-=|\*=|/=|%=|\|=|&=|\^=|<<=|>>=|\+\+|--)"
)
_PREFIX_WRITE_RE = re.compile(r"(?:\+\+|--)\s*([A-Za-z_]\w*)")


def _writes(masked: str) -> Tuple[str, ...]:
    """The write targets of masked text as spelled: assignment and postfix
    targets in text order, then prefix ones."""
    return tuple([m.group(1) for m in _WRITE_RE.finditer(masked)]
                 + [m.group(1) for m in _PREFIX_WRITE_RE.finditer(masked)])


def _loop_is_unbounded(masked_body: str, site: LoopSite) -> bool:
    cond = site.condition
    if cond == "" or re.fullmatch(r"\(*\s*(1|true)\s*\)*", cond):
        return True  # for (;;), while (1)
    cond_vars = [w for w in identifiers(cond) if w not in C_KEYWORDS]
    if not cond_vars:
        return True  # constant condition
    # bounded iff the condition mentions something the loop itself changes
    written = {_WORD_RE.findall(t)[-1] for t in _writes(masked_body[site.offset:site.end])}
    return not any(v in written for v in cond_vars)


def _max_loop_nesting(sites: Sequence[LoopSite]) -> int:
    """Depth of the deepest loop keyword, counting enclosing loop bodies;
    a braceless body cannot enclose another loop."""
    spans = [(s.body_open, s.end) for s in sites if s.body_open is not None]
    return max((1 + sum(1 for a, b in spans if a < s.offset < b) for s in sites), default=0)


def _pointer_op_count(masked_body: str) -> int:
    tokens = re.findall(r"->|\+\+|--|&&|\|\||<<|>>|[A-Za-z_]\w*|\d[\w.]*|[^\s]", masked_body)
    count = 0
    for idx, tok in enumerate(tokens):
        if tok == "->":
            count += 1
            continue
        if tok not in ("*", "&"):
            continue
        prev = tokens[idx - 1] if idx > 0 else None
        if prev is not None and (_WORD_RE.fullmatch(prev) or prev[0].isdigit() or prev in (")", "]")):
            continue  # declarator star (int *p), multiplication or bitwise and
        count += 1
    return count


def _metrics(masked_body: str, loops: Sequence[LoopSite], heads: Sequence[str],
             has_recursion: bool) -> ComplexityMetrics:
    branches = len(re.findall(r"\bif\b", masked_body))
    branches += len(re.findall(r"\bcase\b", masked_body))
    branches += masked_body.count("?")
    nesting = _max_loop_nesting(loops)
    unbounded = any(_loop_is_unbounded(masked_body, s) for s in loops)
    allocs = sum(1 for h in heads if h in ALLOC_FUNCTIONS)
    pointer_ops = _pointer_op_count(masked_body)
    # one fixed weight per signal
    score = (5.0 * len(loops) + 1.0 * nesting + 20.0 * has_recursion + 20.0 * unbounded
             + 3.0 * allocs + 0.5 * branches + 0.5 * pointer_ops)
    return ComplexityMetrics(
        loop_count=len(loops),
        max_nesting_depth=nesting,
        has_recursion=has_recursion,
        has_unbounded_loop=unbounded,
        dynamic_alloc_count=allocs,
        branch_count=branches,
        pointer_op_count=pointer_ops,
        score=score,
        tier=tier_for(score),
    )


def tier_for(score: float) -> Tier:
    if score < TIER_LOW:
        return Tier.MINIMAL
    if score < TIER_MEDIUM:
        return Tier.LOW
    if score < TIER_HIGH:
        return Tier.MEDIUM
    return Tier.HIGH


def _extract_property(masked_main: str, src_main: str) -> SystemProperty:
    hits = list(_ASSERT_RE.finditer(masked_main))
    if not hits:
        raise NoPropertyError("main() asserts nothing")
    if len(hits) > 1:
        raise MultiplePropertiesError("main() asserts %d properties, want exactly 1" % len(hits))
    m = hits[0]
    open_paren = m.end() - 1
    close = match_close(masked_main, open_paren)
    inner_masked = masked_main[open_paren + 1:close - 1]
    inner_src = src_main[open_paren + 1:close - 1]
    if m.group(1) == "__ESBMC_assert":
        # first top-level argument only; the second is a message string
        inner_src = inner_src[:len(_split_top_level(inner_masked)[0])]
    return SystemProperty(assertion_text=inner_src.strip())


def _recursive_functions(calls: Dict[str, set]) -> set:
    """Functions that can reach themselves through the call graph."""
    recursive = set()
    for start in calls:
        seen, stack = set(), [start]
        while stack:
            for callee in calls[stack.pop()] - seen:
                seen.add(callee)
                stack.append(callee)
        if start in seen:
            recursive.add(start)
    return recursive


def parse_program(source_text: str) -> ProgramModel:
    """Build the model. Raises on missing main, zero or multiple assertions,
    and brace imbalance."""
    masked = mask_comments_and_strings(source_text)
    raws, global_names, constant_names = _scan_file_scope(source_text, masked)

    main_raw = next((r for r in raws if r.name == "main"), None)
    if main_raw is None:
        raise NoMainError("no main() definition found")

    defined = {r.name for r in raws}
    bodies = [masked[r.body_span[0]:r.body_span[1]] for r in raws]
    heads = [[m.group(1) for m in _FUNC_HEAD_RE.finditer(body)] for body in bodies]
    # a name defined twice keeps the calls of its last definition
    call_names = {r.name: {h for h in hs if h not in C_KEYWORDS} & defined
                  for r, hs in zip(raws, heads)}
    recursive = _recursive_functions(call_names)

    functions: List[FunctionInfo] = []
    for r, body, hs in zip(raws, bodies, heads):
        if r.name == "main":
            continue
        loops = _loop_sites(body)
        functions.append(FunctionInfo(
            name=r.name,
            signature_text=r.signature_text,
            body_span=r.body_span,
            body_text=source_text[r.body_span[0]:r.body_span[1]],
            params=r.params,
            calls=tuple(sorted(call_names[r.name])),
            is_static=r.is_static,
            metrics=_metrics(body, loops, hs, r.name in recursive),
            loops=tuple(loops),
            writes=_writes(body),
            body_names=identifiers(body),
        ))

    prop = _extract_property(
        masked[main_raw.body_span[0]:main_raw.body_span[1]],
        source_text[main_raw.body_span[0]:main_raw.body_span[1]],
    )

    return ProgramModel(
        source_text=source_text,
        functions=tuple(functions),
        property=prop,
        global_names=global_names,
        constant_names=constant_names,
        assigned_calls=tuple(m.groups() for m in _ASSIGNED_CALL_RE.finditer(masked)),
    )


def partition_functions(
    model: ProgramModel, tau: float = 10.0
) -> Tuple[Tuple[FunctionInfo, ...], Tuple[FunctionInfo, ...]]:
    """(low, high) split on the complexity threshold; score < tau is low."""
    low = tuple(f for f in model.functions if f.metrics.score < tau)
    high = tuple(f for f in model.functions if f.metrics.score >= tau)
    return low, high

