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
Loop iterations give implication pairs either way.

The sample set is plain values. An example is `(function, items)`, its own
key whatever check produced it. The database keeps one insertion-ordered map
from each labelled state to its polarity, one ordered map of implication
pairs and the list of conflicts; `IceDatabase.samples` is the one reader of
them, per function or whole. Every label goes through one gate, `_label`,
which `admit` and `record_positive` call: a new state joins E+ or E-, one
held under the other polarity is logged as a conflict instead, keeping E+
and E- disjoint at all times, and one held under the same polarity is a
duplicate.

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

    @property
    def level(self) -> Level:
        return Level.TOOL if self is Category.TOOL_ERROR else Level.SEMANTIC


ADMISSIBLE_CATEGORIES = (Category.UNCONSTRAINED_INIT, Category.SEMANTIC)


@dataclass(frozen=True)
class StateExample:
    """A state of one function's predicate, and its own key in the database."""
    function: str
    items: Tuple[Tuple[str, str], ...]  # sorted (name, normalized value)

    @staticmethod
    def make(function: str, valuation: Mapping[str, str]) -> "StateExample":
        return StateExample(function, tuple(sorted((k, normalize_value(v))
                                                   for k, v in valuation.items())))

    def render(self) -> str:
        return ", ".join(f"{k}={v}" for k, v in self.items)


@dataclass(frozen=True)
class ConflictRecord:
    polarity: str  # polarity that was REFUSED: "positive" | "negative"
    example: StateExample


@dataclass
class IceDatabase:
    # each labelled state's polarity, in the order labelled
    labels: Dict[StateExample, str] = field(default_factory=dict, init=False)
    # the implication pairs, in the order first held
    pairs: Dict[Tuple[StateExample, StateExample], None] = field(default_factory=dict, init=False)
    conflicts: List[ConflictRecord] = field(default_factory=list, init=False)

    def samples(self, function: Optional[str] = None) -> Dict[str, list]:
        """function's E+, E-, implication pairs (a pair is its first state's)
        and conflicts, each in the order first held; every function's when
        function is None."""
        own = lambda ex: function is None or ex.function == function
        return {"positives": [ex for ex, p in self.labels.items() if p == "positive" and own(ex)],
                "negatives": [ex for ex, p in self.labels.items() if p == "negative" and own(ex)],
                "implications": [pair for pair in self.pairs if own(pair[0])],
                "conflicts": [rec for rec in self.conflicts if own(rec.example)]}

    def sizes(self) -> Dict[str, int]:
        return {name: len(entries) for name, entries in self.samples().items()}

    def add_implications(self, pairs: Iterable[Tuple[StateExample, StateExample]]) -> int:
        """Hold each (pre, post) pair not yet held, in order; returns how many
        were new."""
        before = len(self.pairs)
        self.pairs.update(dict.fromkeys(pairs))
        return len(self.pairs) - before


def classify(result: Union[VerificationResult, ParseFailure]) -> Category:
    """Total over failures. Passing results are a caller bug, not a category."""
    if isinstance(result, ParseFailure):
        return Category.SYNTAX_ERROR
    if result.status in (Status.TIMEOUT, Status.TOOL_ERROR):
        return Category.TOOL_ERROR
    if result.status is not Status.FAIL:
        raise ValueError("classify() is defined over failing results only")
    parsed = result.parsed
    if parsed is None:
        return Category.UNPARSED
    if _has_unconstrained_nondet(parsed):
        return Category.UNCONSTRAINED_INIT
    return Category.SEMANTIC


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


# what the gate reports for each polarity: (added, duplicate); a clash with
# the other polarity is "blocked_conflict"
_ACTIONS = {"positive": ("recorded_positive", "duplicate"),
            "negative": ("admitted_negative", "rejected_or_duplicate")}


def _label(db: IceDatabase, example: StateExample, polarity: str) -> str:
    """Label example's state with polarity ("positive" or "negative") unless
    it is labelled already: held under the other polarity, the refusal is
    logged as a conflict; under the same one, it is a duplicate."""
    held = db.labels.get(example)
    if held is None:
        db.labels[example] = polarity
        return _ACTIONS[polarity][0]
    if held != polarity:
        db.conflicts.append(ConflictRecord(polarity, example))
        return "blocked_conflict"
    return _ACTIONS[polarity][1]


def admit(db: IceDatabase, category: Category, example: StateExample) -> str:
    """Negative-side gate. Returns what it did: "admitted_negative",
    "blocked_conflict" (the state is a known positive; logged as a conflict),
    or "rejected_or_duplicate" (an inadmissible category, or already held)."""
    if category not in ADMISSIBLE_CATEGORIES:
        return "rejected_or_duplicate"
    return _label(db, example, "negative")


def record_positive(db: IceDatabase, example: StateExample) -> str:
    """Positive-side gate. Returns what it did: "recorded_positive",
    "blocked_conflict" (the state is a known negative), or "duplicate"."""
    return _label(db, example, "positive")


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
        state = StateExample(function, tuple(sorted(running.items())))
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
) -> Optional[str]:
    """The contracted function most suspect for a system-level failure, or
    None when no key variable maps to any of them.

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
        return None

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
    own = db.samples(function)
    sections = (
        (POSITIVE_SECTION, own["positives"], StateExample.render),
        (NEGATIVE_SECTION, own["negatives"], StateExample.render),
        (IMPLICATION_SECTION, own["implications"],
         lambda pair: f"{{{pair[0].render()}}} -> {{{pair[1].render()}}}"),
        (CONFLICT_SECTION, own["conflicts"],
         lambda rec: f"refused {rec.polarity}: {rec.example.render()}"),
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
    category: Category,
    function: str,
) -> str:
    """Diagnostics block for a relax or strengthen prompt on function: the
    failure category, the counterexample, then function's examples."""
    lines = [f"Failure category: {category.value}"]
    if parsed is not None:
        lines.append(render_trace(parsed))
    else:
        lines.append("Violated property: (no counterexample available)")
    lines.append(render_examples(db, function))
    return "\n".join(lines)
