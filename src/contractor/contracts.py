"""Contracts and source instrumentation.

A contract is (requires, ensures, assigns) plus optional loop invariants.
Rendering injects backend annotation statements into the program text and
records every insertion, so removing the recorded segments gives back the
original bytes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import cexpr
from .errors import LoopOrdinalError, UnbalancedSourceError, UnknownFunctionError
from .program_model import C_KEYWORDS, FunctionInfo, ProgramModel, match_close

REQUIRES_KW = "__ESBMC_requires"
ENSURES_KW = "__ESBMC_ensures"
ASSIGNS_KW = "__ESBMC_assigns"
INVARIANT_KW = "__ESBMC_loop_invariant"
RETURN_VALUE = "__ESBMC_return_value"

# identifiers a clause may always use, beyond params and globals
BUILTIN_NAMES = {
    RETURN_VALUE, "NULL", "INT_MAX", "INT_MIN", "UINT_MAX",
    "LONG_MAX", "LONG_MIN", "SIZE_MAX", "CHAR_MAX", "CHAR_MIN",
}

ILLEGAL_LITERALS = {"true", "false"}


class ContractOrigin(str, Enum):
    LLM_PRECISE = "llm_precise"
    LLM_ABSTRACTION = "llm_abstraction"
    HEURISTIC_FALLBACK = "heuristic_fallback"
    DELTA_REDUCED = "delta_reduced"
    CEGIS = "cegis"


@dataclass(frozen=True)
class Contract:
    function: str
    requires: Tuple[str, ...]
    ensures: Tuple[str, ...]
    assigns: Tuple[str, ...]
    loop_invariants: Tuple[Tuple[int, str], ...] = ()
    origin: ContractOrigin = ContractOrigin.LLM_PRECISE

    def __post_init__(self):
        object.__setattr__(self, "requires", tuple(self.requires))
        object.__setattr__(self, "ensures", tuple(self.ensures))
        object.__setattr__(self, "assigns", tuple(self.assigns))
        object.__setattr__(self, "loop_invariants", tuple(self.loop_invariants))


class ParseFailureReason(str, Enum):
    NO_CLAUSES = "no_clauses"
    ILLEGAL_LITERAL = "illegal_literal"
    UNKNOWN_IDENTIFIER = "unknown_identifier"
    UNBALANCED = "unbalanced"
    QUANTIFIED = "quantified"
    LOOP_ORDINAL = "loop_ordinal"


@dataclass(frozen=True)
class ParseFailure:
    """Parsing a model reply did not yield a usable contract. A value, not an
    exception: the refinement loop classifies and routes these."""
    reason: ParseFailureReason
    detail: str = ""


@dataclass(frozen=True)
class Injection:
    offset: int  # insertion offset into the ORIGINAL source
    text: str


@dataclass(frozen=True)
class InstrumentedSource:
    text: str
    mode: str  # "system" | "function:<name>", the check's one name
    functions: Tuple[str, ...]  # functions carrying annotations
    injections: Tuple[Injection, ...] = ()


_INDENT_RE = re.compile(r"[ \t]*")


def _indent_of_line(src: str, pos: int) -> str:
    return _INDENT_RE.match(src, src.rfind("\n", 0, pos) + 1).group(0)


def _contract_lines(c: Contract) -> List[str]:
    """The annotation lines in emission order: requires, assigns, ensures."""
    return ([f"{REQUIRES_KW}({e});" for e in c.requires]
            + [f"{ASSIGNS_KW}({t});" for t in c.assigns]
            + [f"{ENSURES_KW}({e});" for e in c.ensures])


def _apply_injections(original: str, injections: Sequence[Injection]) -> str:
    pieces: List[str] = []
    cursor = 0
    for inj in sorted(injections, key=lambda j: j.offset):
        pieces.append(original[cursor:inj.offset])
        pieces.append(inj.text)
        cursor = inj.offset
    pieces.append(original[cursor:])
    return "".join(pieces)


def _injections_for(model: ProgramModel, c: Contract) -> List[Injection]:
    f = model.function(c.function)
    if f is None:
        raise UnknownFunctionError(c.function)
    src = model.source_text
    open_brace = f.body_span[0]
    anchor_indent = _indent_of_line(src, open_brace)
    # one Injection per annotation line, all anchored just past the brace
    injections = [Injection(offset=open_brace + 1, text="\n" + anchor_indent + "    " + ln)
                  for ln in _contract_lines(c)]
    for ordinal, expr in c.loop_invariants:
        if ordinal < 0 or ordinal >= len(f.loops):
            raise LoopOrdinalError(
                f"{c.function}: loop ordinal {ordinal} out of range (have {len(f.loops)})"
            )
        site = f.loops[ordinal]
        if site.body_open is None:
            raise LoopOrdinalError("loop body is not braced; cannot lead with an invariant")
        loop_indent = _indent_of_line(src, open_brace + site.offset)
        seg = "\n" + loop_indent + "    " + f"{INVARIANT_KW}({expr});"
        injections.append(Injection(offset=open_brace + site.body_open + 1, text=seg))
    return injections


def _render(model: ProgramModel, ordered: Sequence[Contract], mode: str) -> InstrumentedSource:
    """The source with each contract's annotations, in the given order."""
    injections = [inj for c in ordered for inj in _injections_for(model, c)]
    return InstrumentedSource(
        text=_apply_injections(model.source_text, injections),
        mode=mode,
        functions=tuple(c.function for c in ordered),
        injections=tuple(injections),
    )


def render_enforce(model: ProgramModel, c: Contract) -> InstrumentedSource:
    """Annotate exactly one function for an enforce-mode check; everything else
    stays untouched."""
    return _render(model, [c], f"function:{c.function}")


def render_replace(model: ProgramModel, contracts: Iterable[Contract]) -> InstrumentedSource:
    """Annotate every contracted function for a system-level check; calls to them
    get substituted by their contract stubs, uncontracted functions stay concrete."""
    return _render(model, sorted(contracts, key=lambda c: c.function), "system")


def sanitize_assigns(targets: Sequence[str]) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """Drop targets the backend's assigns clause cannot take (dereferences,
    arrow paths). Returns (kept, stripped). Idempotent, order preserved."""
    kept: List[str] = []
    stripped: List[str] = []
    for t in targets:
        t = t.strip()
        if not t:
            continue
        if t.startswith("*") or "->" in t:
            stripped.append(t)
        elif t in kept:
            continue
        else:
            kept.append(t)
    return tuple(kept), tuple(stripped)


_ANNOT_RE = re.compile(
    r"\b(__ESBMC_requires|__ESBMC_ensures|__ESBMC_assigns|__ESBMC_loop_invariant)\s*\(",
)
_FENCE_RE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)
_QUANT_RE = re.compile(r"\\forall|\\exists|∀|∃")


def _balanced_argument(text: str, open_paren: int) -> Optional[str]:
    try:
        return text[open_paren + 1:match_close(text, open_paren) - 1]
    except UnbalancedSourceError:
        return None


def _validate_clause(
    expr: str,
    allowed: set,
    kind: str,
) -> Optional[ParseFailure]:
    expr = expr.strip()
    if not expr:
        return ParseFailure(ParseFailureReason.NO_CLAUSES, f"empty {kind} clause")
    # quantifier check first: ACSL-style binders carry ';' and would
    # otherwise misreport as unbalanced
    if _QUANT_RE.search(expr):
        return ParseFailure(ParseFailureReason.QUANTIFIED, expr)
    # parentheses need no count: `_balanced_argument` cut expr at its match
    if expr.count("[") != expr.count("]"):
        return ParseFailure(ParseFailureReason.UNBALANCED, expr)
    if ";" in expr:
        return ParseFailure(ParseFailureReason.UNBALANCED, f"statement in {kind}: {expr}")
    for name in cexpr.identifiers(expr):
        if name in ILLEGAL_LITERALS:
            return ParseFailure(
                ParseFailureReason.ILLEGAL_LITERAL,
                f"boolean literal {name!r} in {kind}: {expr}",
            )
        if name in C_KEYWORDS or name in BUILTIN_NAMES:
            continue
        if name not in allowed:
            return ParseFailure(
                ParseFailureReason.UNKNOWN_IDENTIFIER,
                f"{name!r} in {kind}: {expr}",
            )
    return None


def parse_contract_text(
    raw: str,
    f: FunctionInfo,
    known_globals: Iterable[str] = (),
    known_constants: Iterable[str] = (),
):
    """Extract a Contract from a model reply (fenced code or bare annotation
    lines). Returns Contract or ParseFailure; never raises on bad replies.

    requires/ensures/assigns may reference parameters, globals, the file's
    macro and enum-constant names, and the return value placeholder; loop
    invariants may additionally use body locals, and the n-th invariant goes
    to f's n-th loop, which must exist and be braced. The literals true/false
    are rejected outright: the backend has no stdbool in scope and a bare
    `true` produces a silently wrong check.
    """
    fences = _FENCE_RE.findall(raw)
    search_space = "\n".join(fences) if fences else raw

    base_allowed = {p.name for p in f.params} | set(known_globals) | set(known_constants)
    inv_allowed = base_allowed | set(f.body_names)

    clauses: Dict[str, List[str]] = {
        kw: [] for kw in (REQUIRES_KW, ENSURES_KW, ASSIGNS_KW, INVARIANT_KW)}
    for m in _ANNOT_RE.finditer(search_space):
        arg = _balanced_argument(search_space, m.end() - 1)
        if arg is None:
            return ParseFailure(ParseFailureReason.UNBALANCED, m.group(1))
        clauses[m.group(1)].append(" ".join(arg.split()))
    if not any(clauses.values()):
        return ParseFailure(ParseFailureReason.NO_CLAUSES, "no annotation clauses found")

    for kw, kind, allowed in ((REQUIRES_KW, "requires", base_allowed),
                              (ENSURES_KW, "ensures", base_allowed),
                              (INVARIANT_KW, "loop invariant", inv_allowed)):
        for expr in clauses[kw]:
            bad = _validate_clause(expr, allowed, kind)
            if bad:
                return bad
    invariants = clauses[INVARIANT_KW]
    for n, expr in enumerate(invariants):
        if n >= len(f.loops) or f.loops[n].body_open is None:
            return ParseFailure(ParseFailureReason.LOOP_ORDINAL,
                                f"no braced loop {n} to lead with: {expr}")
    if "" in clauses[ASSIGNS_KW]:
        return ParseFailure(ParseFailureReason.NO_CLAUSES, "empty assigns target")

    return Contract(
        function=f.name,
        requires=tuple(clauses[REQUIRES_KW]),
        ensures=tuple(clauses[ENSURES_KW]),
        assigns=tuple(clauses[ASSIGNS_KW]),
        loop_invariants=tuple(enumerate(invariants)),
    )
