"""Counterexample triage, the example database gate, weakest-link blame, and
diagnostics rendering."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contractor.contracts import Contract, ContractOrigin, ParseFailure, ParseFailureReason
from contractor.ice import (
    ADMISSIBLE_CATEGORIES,
    Category,
    ConflictRecord,
    IceDatabase,
    Level,
    StateExample,
    admit,
    classify,
    extract_implications,
    normalize_value,
    record_positive,
    render_diagnostics,
    render_examples,
    weakest_link,
)
from contractor.program_model import parse_program
from contractor.verifier import Status, VerificationResult, final_valuation
from conftest import corpus_sources, failure_output, parsed_from


def result_with(status: Status, output: str = "") -> VerificationResult:
    from contractor.verifier import parse_verifier_output
    if output:
        st_, parsed = parse_verifier_output(output)
        return VerificationResult(status=st_, raw_output=output, parsed=parsed,
                                  wall_time_s=0.0, mode="system", command=())
    return VerificationResult(status=status, raw_output="", parsed=None,
                              wall_time_s=0.0, mode="system", command=())


def test_classify_parse_failure():
    pf = ParseFailure(ParseFailureReason.NO_CLAUSES, "nothing")
    c = classify(pf)
    assert c.level is Level.SEMANTIC
    assert c is Category.SYNTAX_ERROR


def test_classify_timeout_and_tool_error_are_tool_level():
    for status in (Status.TIMEOUT, Status.TOOL_ERROR):
        c = classify(result_with(status))
        assert c.level is Level.TOOL
        assert c is Category.TOOL_ERROR


def test_classify_fail_without_counterexample_is_unparsed():
    r = VerificationResult(status=Status.FAIL, raw_output="VERIFICATION FAILED",
                           parsed=None, wall_time_s=0.0, mode="system", command=())
    c = classify(r)
    assert c.level is Level.SEMANTIC
    assert c is Category.UNPARSED


def test_classify_unconstrained_nondet():
    out = failure_output("x > 0", steps=[
        {"function": "f", "line": 2, "assigns": [("x", "nondet_symbol!0")]},
    ])
    c = classify(result_with(Status.FAIL, out))
    assert c is Category.UNCONSTRAINED_INIT
    assert c.level is Level.SEMANTIC


def test_assume_before_nondet_makes_it_semantic():
    out = failure_output("x > 0", steps=[
        {"function": "f", "line": 1, "assume": "x < 100"},
        {"function": "f", "line": 2, "assigns": [("x", "nondet_symbol!0")]},
    ])
    c = classify(result_with(Status.FAIL, out))
    assert c is Category.SEMANTIC


def test_classify_rejects_pass():
    with pytest.raises(ValueError):
        classify(result_with(Status.PASS, "VERIFICATION SUCCESSFUL"))


def test_admissible_categories_are_exactly_two():
    assert set(ADMISSIBLE_CATEGORIES) == {Category.UNCONSTRAINED_INIT, Category.SEMANTIC}


def sem() -> Category:
    return Category.SEMANTIC


def test_admit_and_dedup():
    db = IceDatabase()
    ex = StateExample.make("f", {"x": "1"})
    assert admit(db, sem(), ex) == "admitted_negative"
    assert admit(db, sem(), StateExample.make("f", {"x": "1"})) == "rejected_or_duplicate"
    assert len(db.samples()["negatives"]) == 1


def test_tool_level_never_admitted():
    db = IceDatabase()
    action = admit(db, Category.TOOL_ERROR, StateExample.make("f", {"x": "1"}))
    assert action == "rejected_or_duplicate"
    assert db.samples()["negatives"] == [] and db.conflicts == []


def test_syntax_and_unparsed_not_admitted():
    db = IceDatabase()
    for cat in (Category.SYNTAX_ERROR, Category.UNPARSED):
        action = admit(db, cat, StateExample.make("f", {"x": "1"}))
        assert action == "rejected_or_duplicate"
    assert db.samples()["negatives"] == []


def test_conflicting_negative_goes_to_log():
    db = IceDatabase()
    ex = StateExample.make("f", {"x": "1"})
    assert record_positive(db, ex) == "recorded_positive"
    assert admit(db, sem(), StateExample.make("f", {"x": "1"})) == "blocked_conflict"
    assert len(db.samples()["negatives"]) == 0
    assert len(db.conflicts) == 1
    assert db.conflicts[0].polarity == "negative"
    assert db.samples()["positives"][0] == ex


def test_conflicting_positive_goes_to_log():
    db = IceDatabase()
    ex = StateExample.make("f", {"x": "1"})
    admit(db, sem(), ex)
    assert record_positive(db, StateExample.make("f", {"x": "1"})) == "blocked_conflict"
    assert len(db.samples()["positives"]) == 0
    assert db.conflicts[0].polarity == "positive"


def test_record_positive_and_dedup():
    db = IceDatabase()
    assert record_positive(db, StateExample.make("f", {"x": "1"})) == "recorded_positive"
    assert record_positive(db, StateExample.make("f", {"x": "1"})) == "duplicate"
    assert len(db.samples()["positives"]) == 1 and db.conflicts == []


def test_same_values_different_function_no_conflict():
    db = IceDatabase()
    record_positive(db, StateExample.make("f", {"x": "1"}))
    admit(db, sem(), StateExample.make("g", {"x": "1"}))
    assert len(db.samples()["positives"]) == 1 and len(db.samples()["negatives"]) == 1
    assert db.conflicts == []


def test_an_example_is_keyed_by_its_state_alone():
    # the same (function, items), whichever check it came from, is one key
    sys_ex = StateExample.make("f", {"x": "0x1"})
    fn_ex = StateExample("f", (("x", "1"),))
    assert sys_ex == fn_ex and hash(sys_ex) == hash(fn_ex)
    assert len({sys_ex, fn_ex, StateExample.make("g", {"x": "1"})}) == 2
    db = IceDatabase()
    assert admit(db, sem(), sys_ex) == "admitted_negative"
    assert record_positive(db, fn_ex) == "blocked_conflict"
    assert db.samples()["positives"] == [] and db.samples()["negatives"] == [sys_ex]
    assert db.conflicts == [ConflictRecord("positive", fn_ex)]


def test_only_tool_error_is_tool_level():
    for category in Category:
        expected = Level.TOOL if category is Category.TOOL_ERROR else Level.SEMANTIC
        assert category.level is expected


def test_normalize_value():
    assert normalize_value("5") == "5"
    assert normalize_value("0x10") == "16"
    assert normalize_value("-3") == "-3"
    assert normalize_value("5 (00000101)") == "5"
    assert normalize_value("two  words") == "two words"


def test_normalized_equality_detects_conflicts():
    db = IceDatabase()
    record_positive(db, StateExample.make("f", {"x": "16"}))
    admit(db, sem(), StateExample.make("f", {"x": "0x10"}))
    assert db.conflicts and db.samples()["negatives"] == []


def test_final_valuation_takes_last_assignment():
    out = failure_output("x > 0", steps=[
        {"function": "f", "line": 2, "assigns": [("x", "1")]},
        {"function": "g", "line": 9, "assigns": [("x", "7")]},
        {"function": "f", "line": 3, "assigns": [("x", "2"), ("y", "0")]},
    ])
    parsed = parsed_from(out)
    assert final_valuation(parsed.trace, "f") == {"x": "2", "y": "0"}
    assert final_valuation(parsed.trace, "g") == {"x": "7"}
    assert final_valuation(parsed.trace, "h") == {}
    assert final_valuation(parsed.trace) == {"x": "2", "y": "0"}


def test_extract_implications_on_reassignment():
    out = failure_output("s == 3", steps=[
        {"function": "f", "line": 3, "assigns": [("i", "0"), ("s", "0")]},
        {"function": "f", "line": 4, "assigns": [("s", "1")]},
        {"function": "f", "line": 4, "assigns": [("s", "3")]},
    ])
    parsed = parsed_from(out)
    pairs = extract_implications(parsed, "f")
    assert len(pairs) == 2
    pre, post = pairs[0]
    assert dict(pre.items) == {"i": "0", "s": "0"}
    assert dict(post.items) == {"i": "0", "s": "1"}


def test_extract_implications_keeps_repeats_for_the_database():
    # a loop that comes back to a state yields its pair again; the database
    # holds the first occurrence only
    out = failure_output("s == 2", steps=[
        {"function": "f", "line": 3, "assigns": [("s", "0")]},
        {"function": "f", "line": 4, "assigns": [("s", "1")]},
        {"function": "f", "line": 4, "assigns": [("s", "0")]},
        {"function": "f", "line": 4, "assigns": [("s", "1")]},
    ])
    pairs = extract_implications(parsed_from(out), "f")
    assert [(dict(pre.items)["s"], dict(post.items)["s"]) for pre, post in pairs] == [
        ("0", "1"), ("1", "0"), ("0", "1")]
    db = IceDatabase()
    assert db.add_implications(pairs) == 2
    assert db.samples()["implications"] == pairs[:2]


def test_add_implications_appends_each_pair_once():
    # a pair is held by its two states, across calls
    a, b, c = (StateExample.make("f", {"i": v}) for v in ("0", "1", "2"))
    db = IceDatabase()
    assert db.add_implications([(a, b), (b, c), (a, b)]) == 2
    again = StateExample("f", (("i", "0"),))
    assert db.add_implications([(again, b), (c, a)]) == 1
    assert db.samples()["implications"] == [(a, b), (b, c), (c, a)]
    # one copy of each pair: the same pairs, however given, are the same database
    built = IceDatabase()
    built.add_implications([(a, b), (b, c), (c, a), (again, b)])
    assert db == built and repr(db) == repr(built)


def test_extract_implications_needs_reassignment():
    out = failure_output("a == 1", steps=[
        {"function": "f", "line": 1, "assigns": [("a", "1")]},
        {"function": "f", "line": 2, "assigns": [("b", "2")]},
    ])
    parsed = parsed_from(out)
    assert extract_implications(parsed, "f") == []


WEAKEST_SRC = """\
int source(int x) {
    return x + 1;
}

int sink(int v) {
    return v * 2;
}

int main() {
    int a = source(3);
    int b = sink(a);
    assert(b > 8);
    return 0;
}
"""


def contract(fn, ensures=()):
    return Contract(function=fn, requires=(), ensures=tuple(ensures), assigns=(),
                    origin=ContractOrigin.LLM_PRECISE)


def test_weakest_link_key_vars_follow_the_property():
    model = parse_program(WEAKEST_SRC)
    # property mentions only b, so a never maps anywhere
    out = failure_output("b > 8", steps=[
        {"function": "main", "line": 10, "assigns": [("a", "4")]},
        {"function": "main", "line": 11, "assigns": [("b", "8")]},
    ])
    parsed = parsed_from(out)
    contracts = {"source": contract("source"), "sink": contract("sink")}
    assert weakest_link(parsed, contracts, model) == "sink"  # b = sink(a)


def test_weakest_link_gap_formula():
    model = parse_program(WEAKEST_SRC)
    out = failure_output("b > a", steps=[
        {"function": "main", "line": 10, "assigns": [("a", "4"), ("b", "8")]},
    ])
    parsed = parsed_from(out)
    contracts = {
        "source": contract("source", ensures=[]),
        "sink": contract("sink", ensures=["b >= 0"]),  # one clause on a key var
    }
    # key vars: a, b. producer scan: a = source(...), b = sink(...).
    # gap(source) = |{a}| / (1 + 0) = 1.0
    # gap(sink)   = |{b}| / (1 + 1) = 0.5, its contract already binds b
    assert weakest_link(parsed, contracts, model) == "source"


def test_weakest_link_tie_breaks_lexicographically():
    model = parse_program(WEAKEST_SRC)
    out = failure_output("b > a", steps=[
        {"function": "main", "line": 10, "assigns": [("a", "4"), ("b", "8")]},
    ])
    parsed = parsed_from(out)
    contracts = {"source": contract("source"), "sink": contract("sink")}
    # gap 1.0 on both; "sink" < "source"
    assert weakest_link(parsed, contracts, model) == "sink"


CHAIN_SRC = """\
int deep(int n) {
    if (n <= 0) {
        return 0;
    }
    return deep(n - 1) + 1;
}

int lift(int k) {
    return k + 10;
}

int main() {
    int x = deep(3);
    int y = lift(x);
    assert(y >= 15);
    return 0;
}
"""


def chain_failure(prop):
    return parsed_from(failure_output(prop, steps=[
        {"function": "main", "line": 13, "assigns": [("x", "3")]},
        {"function": "main", "line": 14, "assigns": [("y", "13")]},
    ]))


def test_weakest_link_chain_yields_both_producers():
    model = parse_program(CHAIN_SRC)
    assert model.assigned_calls == (("x", "deep"), ("y", "lift"))
    contracts = {"deep": contract("deep"), "lift": contract("lift")}
    # the key variables are the property's: y alone is one assignment deep
    assert weakest_link(chain_failure("y >= 15"), contracts, model) == "lift"
    # x = deep(3) and y = lift(x): gap 1.0 on both, "deep" < "lift"
    assert weakest_link(chain_failure("x + y >= 15"), contracts, model) == "deep"
    # an ensures clause on x halves deep's gap, so lift is mapped too
    contracts["deep"] = contract("deep", ensures=["x >= 0"])
    assert weakest_link(chain_failure("x + y >= 15"), contracts, model) == "lift"


TWO_PRODUCERS_SRC = """\
int first(int a) {
    return a + 1;
}

int second(int b) {
    return b * 2;
}

int main() {
    int v = first(1);
    v = second(v);
    assert(v > 8);
    return 0;
}
"""


def test_weakest_link_variable_assigned_from_two_callees_maps_to_both():
    model = parse_program(TWO_PRODUCERS_SRC)
    parsed = parsed_from(failure_output("v > 8", steps=[
        {"function": "main", "line": 11, "assigns": [("v", "4")]},
    ]))
    contracts = {"first": contract("first"), "second": contract("second")}
    assert weakest_link(parsed, contracts, model) == "first"  # tie on v
    contracts["first"] = contract("first", ensures=["v >= 2"])
    assert weakest_link(parsed, contracts, model) == "second"
    contracts = {"first": contract("first", ensures=["v >= 2"]),
                 "second": contract("second", ensures=["v >= 4", "v > 0"])}
    assert weakest_link(parsed, contracts, model) == "first"


NOT_PRODUCERS_SRC = """\
int f(int a) {
    return a;
}

int main() {
    int x = 0;
    int ax = 0;
    if (x == f(1)) {
        x = 1;
    }
    if (x <= f(2)) {
        x = 2;
    }
    ax = f(3);
    assert(x > 5);
    return 0;
}
"""


def test_weakest_link_comparisons_and_longer_names_produce_nothing():
    model = parse_program(NOT_PRODUCERS_SRC)
    assert model.assigned_calls == (("ax", "f"),)
    parsed = parsed_from(failure_output("x > 5", steps=[
        {"function": "main", "line": 6, "assigns": [("x", "0")]},
    ]))
    assert weakest_link(parsed, {"f": contract("f")}, model) is None


def test_weakest_link_member_key_reads_the_source_text():
    src = ("struct pt { int x; };\n\nint f(int a) {\n    return a;\n}\n\n"
           "int main() {\n    struct pt s;\n    s.x = f(1);\n    assert(s.x > 5);\n"
           "    return 0;\n}\n")
    model = parse_program(src)
    parsed = parsed_from(failure_output("s.x > 5", steps=[
        {"function": "main", "line": 9, "assigns": [("s.x", "1")]},
    ]))
    assert [name for name, _ in parsed.key_variables] == ["s.x"]
    assert model.assigned_calls == (("s.x", "f"),)
    assert weakest_link(parsed, {"f": contract("f")}, model) == "f"


PATHS_SRC = """\
struct pt { int x; };
struct box { struct pt s; };

int f(int a) {
    return a;
}

int g(int a) {
    return a + 1;
}

int main() {
    struct box b;
    struct box *p = &b;
    int x = 0;
    p->s.x = f(1);
    b.s . x = g(2);
    assert(x + p->s.x > 5);
    return 0;
}
"""


@pytest.mark.parametrize("key, blamed", [
    ("x", {"f", "g"}),  # the last name of either path
    ("s.x", {"f"}),  # `b.s . x` is spelled with spaces: only its last name is recorded
    ("p->s.x", {"f"}),
    ("s", set()),  # a path does not end in its own prefix
    ("p", set()),
])
def test_weakest_link_path_lvalues_end_in_the_key(key, blamed):
    model = parse_program(PATHS_SRC)
    assert model.assigned_calls == (("p->s.x", "f"), ("x", "g"))
    parsed = parsed_from(failure_output("x > 5", steps=[
        {"function": "main", "line": 16, "assigns": [(key, "1")]},
    ]))
    for fname in ("f", "g"):  # one contracted function at a time
        if fname in blamed:
            assert weakest_link(parsed, {fname: contract(fname)}, model) == fname
        else:
            assert weakest_link(parsed, {fname: contract(fname)}, model) is None


def test_weakest_link_no_candidate_gives_none():
    model = parse_program(WEAKEST_SRC)
    out = failure_output("z > 0", steps=[
        {"function": "main", "line": 3, "assigns": [("z", "0")]},
    ])
    parsed = parsed_from(out)
    contracts = {"source": contract("source"), "sink": contract("sink")}
    assert weakest_link(parsed, contracts, model) is None


def test_weakest_link_reads_no_name_inside_a_character_literal():
    # x is neither assigned from a call nor named by the contract: its 'x'
    # is a character
    model = parse_program(WEAKEST_SRC)
    parsed = parsed_from(failure_output("x > 0", steps=[
        {"function": "main", "line": 3, "assigns": [("x", "0")]},
    ]))
    contracts = {"source": contract("source", ensures=("__ESBMC_return_value != 'x'",))}
    assert weakest_link(parsed, contracts, model) is None


def test_weakest_link_maps_a_member_key_its_contract_names():
    model = parse_program(WEAKEST_SRC)
    parsed = parsed_from(failure_output("g.x > 0", steps=[
        {"function": "main", "line": 3, "assigns": [("g.x", "0")]},
    ]))
    contracts = {"sink": contract("sink"),
                 "source": contract("source", ensures=("g.x == __ESBMC_return_value",))}
    assert weakest_link(parsed, contracts, model) == "source"


def test_diagnostics_sections_always_present():
    db = IceDatabase()
    text = render_diagnostics(db, None, sem(), "f")
    for section in ("Known-good states (E+):", "Known-bad states (E-):",
                    "Implication pairs:", "Conflicts:"):
        assert section in text
    assert "(none)" in text


def test_diagnostics_truncation_keeps_most_recent():
    db = IceDatabase()
    for i in range(14):
        admit(db, sem(), StateExample.make("f", {"x": str(i)}))
    text = render_diagnostics(db, None, sem(), "f")
    assert "(4 earlier omitted)" in text
    assert "x=13" in text
    assert "x=3" not in text  # dropped: only the 10 most recent render


def test_diagnostics_deterministic():
    db = IceDatabase()
    admit(db, sem(), StateExample.make("f", {"x": "1"}))
    record_positive(db, StateExample.make("g", {"y": "2"}))
    a = render_diagnostics(db, None, sem(), "f")
    b = render_diagnostics(db, None, sem(), "f")
    assert a == b


def test_render_examples_shows_only_the_target_function():
    db = IceDatabase()
    admit(db, sem(), StateExample.make("other", {"y": "9"}))
    admit(db, sem(), StateExample.make("inc", {"x": "1"}))
    record_positive(db, StateExample.make("inc", {"x": "5"}))
    text = render_examples(db, "inc")
    neg = text.index("Known-bad states (E-):")
    assert text.index("inc: x=1") > neg
    assert text.index("Known-good states (E+):") < text.index("inc: x=5") < neg
    assert "other" not in text and "y=9" not in text


def test_render_examples_renders_only_the_entries_it_shows(monkeypatch):
    # every section is capped before its entries are rendered
    # built through the gate, E+ and E- disjoint: 25 E+, 12 E-, 15 pairs and 11
    # conflicts, each a refused E- for a held E+
    good = [StateExample.make("f", {"x": str(i)}) for i in range(25)]
    bad = [StateExample.make("f", {"x": str(-i)}) for i in range(1, 13)]
    db = IceDatabase()
    for ex in good:
        record_positive(db, ex)
    for ex in bad + good[:11]:
        admit(db, sem(), ex)
    db.add_implications(list(zip(good, good[1:]))[:15])
    expected = render_examples(db, "f")
    rendered = []
    real = StateExample.render
    monkeypatch.setattr(StateExample, "render", lambda ex: rendered.append(ex) or real(ex))
    assert render_examples(db, "f") == expected
    assert len(rendered) == 10 + 10 + 2 * 10 + 10
    for omitted in (15, 2, 5, 1):
        assert f"  f: ({omitted} earlier omitted)" in expected


@st.composite
def example_strategy(draw):
    fn = draw(st.sampled_from(["f", "g", "h"]))
    n_vars = draw(st.integers(1, 3))
    valuation = {
        f"v{i}": str(draw(st.integers(-3, 3))) for i in range(n_vars)
    }
    return StateExample.make(fn, valuation)


@settings(max_examples=300)
@given(st.lists(st.tuples(st.booleans(), example_strategy()), max_size=30))
def test_pools_stay_disjoint_under_any_sequence(ops):
    db = IceDatabase()
    for is_positive, ex in ops:
        if is_positive:
            record_positive(db, ex)
        else:
            admit(db, sem(), ex)
    held = db.samples()
    for p in held["positives"]:
        assert not any(p == n for n in held["negatives"])
