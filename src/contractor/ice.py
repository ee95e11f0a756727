"""Counterexample triage and the example database.

Failures are classified before anything touches the database:

    tool level      timeout, internal error, backend parse rejection
    syntax_error    the model reply never parsed into clauses
    unparsed        backend failed but emitted no usable counterexample
    unconstrained_init
                    violation driven by a nondet input nothing assumed over
    semantic        a real behavioural mismatch

Only the last two may teach a state. Tool-level noise is recorded by the run
log and never mutates the database; the reason: one bad backend run
polluting the examples poisons every later synthesis prompt.

Examples are labelled as in ICE (Garg, Löding, Madhusudan and Neider, CAV
2014), once each, by the check that produced them. A function check's
semantic counterexample is a state the implementation really reaches: it
enters E+ for that function. An unconstrained_init function failure was
driven by an input nothing assumed over, so it teaches no state. A system
counterexample breaks the property: the blamed function's state enters E-.
Loop iterations give implication pairs either way. Admissions that clash
with the opposite polarity go to the conflict log instead, keeping E+ and
E- disjoint at all times.

Every prompt reads the database through `render_examples`. It shows one
function's own sections only, since a sample constrains only the predicate
being learned, and keeps the most recent DIAGNOSTIC_EXAMPLE_LIMIT entries of
each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple, Union

from .cexpr import identifiers
from .contracts import Contract, ParseFailure
from .errors import NoResponsibleFunctionError
from .program_model import ProgramModel
from .verifier import ParsedCounterexample, Status, VerificationResult, normalize_value

DIAGNOSTIC_EXAMPLE_LIMIT = 10

POSITIVE_SECTION = "Known-good states (E+):"
NEGATIVE_SECTION = "Known-bad states (E-):"
IMPLICATION_SECTION = "Implication pairs:"
CONFLICT_SECTION = "Conflicts:"


class Level(str, Enum):
    TOOL = "tool_level"
    SEMANTIC = "semantic_level"


class Category(str, Enum):
    SYNTAX_ERROR = "syntax_error"
    UNPARSED = "unparsed"
    TOOL_ERROR = "tool_error"
    UNCONSTRAINED_INIT = "unconstrained_init"
    SEMANTIC = "semantic"


ADMISSIBLE_CATEGORIES = (Category.UNCONSTRAINED_INIT, Category.SEMANTIC)


@dataclass(frozen=True)
class Classification:
    level: Level
    category: Category


@dataclass(frozen=True)
class StateExample:
    function: str
    items: Tuple[Tuple[str, str], ...]  # sorted (name, normalized value)
    provenance: str = ""

    @staticmethod
    def make(function: str, valuation: Mapping[str, str], provenance: str = "") -> "StateExample":
        items = tuple(sorted((k, normalize_value(v)) for k, v in valuation.items()))
        return StateExample(function=function, items=items, provenance=provenance)

    @property
    def valuation(self) -> Dict[str, str]:
        return dict(self.items)

    def same_state(self, other: "StateExample") -> bool:
        return self.function == other.function and self.items == other.items

    def render(self) -> str:
        return ", ".join(f"{k}={v}" for k, v in self.items)


@dataclass(frozen=True)
class ConflictRecord:
    polarity: str  # polarity that was REFUSED: "positive" | "negative"
    candidate: StateExample
    existing: StateExample


def _pair_key(pair: Tuple[StateExample, StateExample]) -> Tuple:
    return tuple((ex.function, ex.items) for ex in pair)


@dataclass
class IceDatabase:
    positives: List[StateExample] = field(default_factory=list)
    negatives: List[StateExample] = field(default_factory=list)
    implications: List[Tuple[StateExample, StateExample]] = field(default_factory=list)
    conflicts: List[ConflictRecord] = field(default_factory=list)
    # the (function, items) keys of the held implication pairs
    _held: Set[Tuple] = field(default_factory=set, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._held.update(_pair_key(pair) for pair in self.implications)

    def _find(self, pool: List[StateExample], ex: StateExample) -> Optional[StateExample]:
        for member in pool:
            if member.same_state(ex):
                return member
        return None

    def positive_for(self, function: str) -> List[StateExample]:
        return [e for e in self.positives if e.function == function]

    def negative_for(self, function: str) -> List[StateExample]:
        return [e for e in self.negatives if e.function == function]

    def add_implications(self, pairs: Iterable[Tuple[StateExample, StateExample]]) -> int:
        """Append each (pre, post) pair whose two states are not yet held as a
        pair, in order; returns how many were appended."""
        before = len(self.implications)
        for pair in pairs:
            key = _pair_key(pair)
            if key not in self._held:
                self._held.add(key)
                self.implications.append(pair)
        return len(self.implications) - before


def classify(result: Union[VerificationResult, ParseFailure]) -> Classification:
    """Total over failures. Passing results are a caller bug, not a category."""
    if isinstance(result, ParseFailure):
        return Classification(Level.SEMANTIC, Category.SYNTAX_ERROR)
    if result.status in (Status.TIMEOUT, Status.TOOL_ERROR):
        return Classification(Level.TOOL, Category.TOOL_ERROR)
    if result.status is not Status.FAIL:
        raise ValueError("classify() is defined over failing results only")
    parsed = result.parsed
    if parsed is None:
        return Classification(Level.SEMANTIC, Category.UNPARSED)
    if _has_unconstrained_nondet(parsed):
        return Classification(Level.SEMANTIC, Category.UNCONSTRAINED_INIT)
    return Classification(Level.SEMANTIC, Category.SEMANTIC)


def _has_unconstrained_nondet(parsed: ParsedCounterexample) -> bool:
    relevant = {n.split("[")[0] for n, _ in parsed.key_variables}
    relevant.update(identifiers(parsed.violated_property))
    assumed_so_far: set = set()
    for step in parsed.trace:
        if step.kind == "assume":
            assumed_so_far.update(identifiers(step.note))
            continue
        for name, value in step.assignments:
            base = name.split("[")[0]
            if "nondet" in value and base in relevant and base not in assumed_so_far:
                return True
    return False


def admit(db: IceDatabase, classification: Classification, example: StateExample) -> str:
    """Negative-side gate. Returns what it did: "admitted_negative",
    "blocked_conflict" (the state is a known positive; logged as a conflict),
    or "rejected_or_duplicate" (tool-level, inadmissible, or already held)."""
    if classification.level is Level.TOOL:
        return "rejected_or_duplicate"
    if classification.category not in ADMISSIBLE_CATEGORIES:
        return "rejected_or_duplicate"
    clash = db._find(db.positives, example)
    if clash is not None:
        db.conflicts.append(ConflictRecord("negative", example, clash))
        return "blocked_conflict"
    if db._find(db.negatives, example) is not None:
        return "rejected_or_duplicate"
    db.negatives.append(example)
    return "admitted_negative"


def record_positive(db: IceDatabase, example: StateExample) -> str:
    """Positive-side gate. Returns what it did: "recorded_positive",
    "blocked_conflict" (the state is a known negative), or "duplicate"."""
    clash = db._find(db.negatives, example)
    if clash is not None:
        db.conflicts.append(ConflictRecord("positive", example, clash))
        return "blocked_conflict"
    if db._find(db.positives, example) is not None:
        return "duplicate"
    db.positives.append(example)
    return "recorded_positive"


def valuation_for(parsed: ParsedCounterexample, function: str) -> Dict[str, str]:
    """Final valuation of the trace restricted to one function's steps."""
    final: Dict[str, str] = {}
    for step in parsed.trace:
        if step.function != function:
            continue
        for name, value in step.assignments:
            final[name] = value
    return final


def extract_implications(
    parsed: ParsedCounterexample, function: str
) -> List[Tuple[StateExample, StateExample]]:
    """Loop-carried (pre, post) state pairs: consecutive steps of the function
    where the later one re-assigns something already bound, in trace order
    and with repeats; IceDatabase.add_implications holds each pair once. The
    parser has normalized every value."""
    pairs: List[Tuple[StateExample, StateExample]] = []
    running: Dict[str, str] = {}
    prev: Optional[StateExample] = None
    for step in parsed.trace:
        if step.function != function or step.kind != "assign":
            continue
        reassigns = any(name in running for name, _ in step.assignments)
        running.update(step.assignments)
        state = StateExample(function, tuple(sorted(running.items())), "implication")
        if prev is not None and reassigns:
            pairs.append((prev, state))
        prev = state
    return pairs


def _contract_mentions(c: Contract, key: Set[str]) -> bool:
    """Whether one clause of c names every name of a key: `x`, or `s` and
    `x` for `s.x`. A character or string literal names nothing."""
    clauses = c.requires + c.ensures + c.assigns + tuple(e for _, e in c.loop_invariants)
    return any(key <= set(identifiers(clause)) for clause in clauses)


def _lvalue_ends_in(lvalue: str, key: str) -> bool:
    """Whether an assigned path is the key or ends in `.key` or `->key`:
    `p->s.x` ends in `x` and in `s.x`, not in `p` or `s`."""
    return lvalue == key or lvalue.endswith(("." + key, "->" + key))


def weakest_link(
    parsed: ParsedCounterexample,
    contracts: Mapping[str, Contract],
    model: ProgramModel,
) -> str:
    """The contracted function most suspect for a system-level failure.

    Each key variable maps to the functions whose contracts name it, plus
    the function that produced it at a call site (`v = f(...)` or
    `s.v = f(...)`, as recorded in `model.assigned_calls`). Gap score per function: mapped variables over
    (1 + ensures clauses touching any key variable); the highest gap is the
    least-constrained responsible function.
    Ties break lexicographically so reruns pick the same target.
    """
    # each key variable's base and the names it is spelled with
    keys: Dict[str, Set[str]] = {}
    for name, _ in parsed.key_variables:
        base = name.split("[")[0]
        keys.setdefault(base, set(identifiers(base)))

    mapped: Dict[str, set] = {fname: set() for fname in contracts}
    for var, names in keys.items():
        for fname, c in contracts.items():
            if _contract_mentions(c, names):
                mapped[fname].add(var)
        for lvalue, producer in model.assigned_calls:
            if producer in contracts and _lvalue_ends_in(lvalue, var):
                mapped[producer].add(var)

    candidates = {f: vars_ for f, vars_ in mapped.items() if vars_}
    if not candidates:
        raise NoResponsibleFunctionError(
            "no key variable maps to any contracted function: %s" % ", ".join(keys)
        )

    def gap(fname: str) -> float:
        relevant_ensures = sum(
            1 for clause in contracts[fname].ensures
            if any(names <= set(identifiers(clause)) for names in keys.values())
        )
        return len(candidates[fname]) / (1.0 + relevant_ensures)

    best = max(sorted(candidates), key=gap)  # sorted() first => lexicographic tie-break
    return best


def render_trace(parsed: ParsedCounterexample) -> str:
    lines = [f"Violated property: {parsed.violated_property}"]
    lines.append("Trace:")
    if not parsed.trace:
        lines.append("  (no steps)")
    for i, step in enumerate(parsed.trace, 1):
        where = f"{step.function or '?'} line {step.line}"
        if step.kind == "assume":
            lines.append(f"  {i}. [{where}] assume({step.note})")
        elif step.kind in ("call", "return"):
            lines.append(f"  {i}. [{where}] {step.kind} {step.note}")
        else:
            body = "; ".join(f"{n} = {v}" for n, v in step.assignments)
            lines.append(f"  {i}. [{where}] {body}")
    return "\n".join(lines)


def render_examples(db: IceDatabase, function: str) -> str:
    """function's own E+, E-, implication pairs and refused admissions, the
    most recent DIAGNOSTIC_EXAMPLE_LIMIT of each: same inputs, same bytes.
    Only the entries shown are rendered."""
    sections = (
        (POSITIVE_SECTION, db.positive_for(function), StateExample.render),
        (NEGATIVE_SECTION, db.negative_for(function), StateExample.render),
        (IMPLICATION_SECTION, [pair for pair in db.implications if pair[0].function == function],
         lambda pair: f"{{{pair[0].render()}}} -> {{{pair[1].render()}}}"),
        (CONFLICT_SECTION, [rec for rec in db.conflicts if rec.candidate.function == function],
         lambda rec: f"refused {rec.polarity}: {rec.candidate.render()}"),
    )
    lines: List[str] = []
    for title, entries, render in sections:
        lines.append(title)
        omitted = len(entries) - DIAGNOSTIC_EXAMPLE_LIMIT
        if omitted > 0:
            lines.append(f"  {function}: ({omitted} earlier omitted)")
        lines += [f"  {function}: {render(entry)}" for entry in entries[-DIAGNOSTIC_EXAMPLE_LIMIT:]]
        if not entries:
            lines.append("  (none)")
    return "\n".join(lines)


def render_diagnostics(
    db: IceDatabase,
    parsed: Optional[ParsedCounterexample],
    classification: Classification,
    function: str,
) -> str:
    """Diagnostics block for a relax or strengthen prompt on function: the
    failure category, the counterexample, then function's examples."""
    lines = [f"Failure category: {classification.category.value}"]
    if parsed is not None:
        lines.append(render_trace(parsed))
    else:
        lines.append("Violated property: (no counterexample available)")
    lines.append(render_examples(db, function))
    return "\n".join(lines)
