"""Annotation rendering, byte-exact stripping, contract-text parsing and assigns
sanitization."""

from __future__ import annotations

import pytest

from contractor.contracts import (
    Contract,
    ContractOrigin,
    ParseFailure,
    ParseFailureReason,
    parse_contract_text,
    render_enforce,
    render_replace,
    sanitize_assigns,
)
from contractor.errors import LoopOrdinalError, UnknownFunctionError
from contractor.program_model import parse_program
from conftest import CONSTANTS_SRC, contract_reply, corpus_sources, strip_annotations


def mk(function="increment", requires=(), ensures=(), assigns=(), invariants=()):
    return Contract(function=function, requires=tuple(requires),
                    ensures=tuple(ensures), assigns=tuple(assigns),
                    loop_invariants=tuple(invariants),
                    origin=ContractOrigin.LLM_PRECISE)


INC = dict(corpus_sources())["inc_basic.c"]
SUM = dict(corpus_sources())["sum_loop.c"]


def test_enforce_layout_matches_backend_convention():
    model = parse_program(INC)
    c = mk(requires=["x > 0"], assigns=["x"], ensures=["__ESBMC_return_value > x"])
    out = render_enforce(model, c).text
    expected = (
        "int increment(int x) {\n"
        "    __ESBMC_requires(x > 0);\n"
        "    __ESBMC_assigns(x);\n"
        "    __ESBMC_ensures(__ESBMC_return_value > x);\n"
        "    return x + 1;\n"
        "}"
    )
    assert expected in out


def test_clause_order_is_requires_assigns_ensures():
    model = parse_program(INC)
    c = mk(ensures=["__ESBMC_return_value > x"], requires=["x > 0"], assigns=["x"])
    out = render_enforce(model, c).text
    r = out.index("__ESBMC_requires")
    a = out.index("__ESBMC_assigns")
    e = out.index("__ESBMC_ensures")
    assert r < a < e


def test_loop_invariant_is_first_loop_statement():
    model = parse_program(SUM)
    c = mk(function="sum_below",
           invariants=[(0, "sum == i * (i - 1) / 2")])  # ordinals are 0-based
    out = render_enforce(model, c).text
    loop_open = out.index("{", out.index("for (int i = 0"))
    after = out[loop_open + 1:].lstrip()
    assert after.startswith("__ESBMC_loop_invariant(sum == i * (i - 1) / 2);")


def test_braceless_loop_rejected():
    src = (
        "int f(int n) {\n"
        "    int s = 0;\n"
        "    while (n > 0)\n"
        "        n--;\n"
        "    return s;\n"
        "}\n\n"
        "int main() {\n    int r = f(3);\n    assert(r == 0);\n    return 0;\n}\n"
    )
    model = parse_program(src)
    c = mk(function="f", invariants=[(0, "s == 0")])
    with pytest.raises(LoopOrdinalError):
        render_enforce(model, c)


def test_while_after_a_block_takes_its_invariant():
    src = ("int f(int n){int i = 0; if (n < 0) { n = 0; } while (i < n) { i++; } return i;}\n\n"
           "int main() {\n    int r = f(3);\n    assert(r == 3);\n    return 0;\n}\n")
    model = parse_program(src)
    instr = render_enforce(model, mk(function="f", invariants=[(0, "i <= n")]))
    loop_open = instr.text.index("{", instr.text.index("while (i < n)"))
    assert instr.text[loop_open + 1:].lstrip().startswith("__ESBMC_loop_invariant(i <= n);")
    assert strip_annotations(instr) == src


@pytest.mark.parametrize("source,function", [
    (INC, "increment"),  # no loop at all
    ("int f(int x) {\n    while (x > 0)\n        x--;\n    return x;\n}\n\n"
     "int main() {\n    int r = f(3);\n    assert(r == 0);\n    return 0;\n}\n", "f"),
])
def test_parse_rejects_invariant_without_a_braced_loop(source, function):
    f = parse_program(source).function(function)
    result = parse_contract_text(contract_reply(ensures=["1"], invariants=["x >= 0"]), f)
    assert isinstance(result, ParseFailure)
    assert result.reason is ParseFailureReason.LOOP_ORDINAL


def test_bad_loop_ordinal_rejected():
    model = parse_program(SUM)
    c = mk(function="sum_below", invariants=[(1, "sum >= 0")])
    with pytest.raises(LoopOrdinalError):
        render_enforce(model, c)


def test_unknown_function_rejected():
    model = parse_program(INC)
    with pytest.raises(UnknownFunctionError):
        render_enforce(model, mk(function="ghost"))


def test_replace_annotates_every_contract():
    src = dict(corpus_sources())["multi_fn.c"]
    model = parse_program(src)
    cs = [mk(function="scale", ensures=["__ESBMC_return_value == x * 3"]),
          mk(function="offset", ensures=["__ESBMC_return_value == x + 7"])]
    instr = render_replace(model, cs)
    assert instr.functions == ("offset", "scale")  # name order, deterministic
    assert "__ESBMC_ensures(__ESBMC_return_value == x * 3)" in instr.text
    assert "__ESBMC_ensures(__ESBMC_return_value == x + 7)" in instr.text


def test_strip_round_trip_simple():
    model = parse_program(INC)
    c = mk(requires=["x > 0"], ensures=["__ESBMC_return_value > x"])
    instr = render_enforce(model, c)
    assert strip_annotations(instr) == INC


def test_provenance_records_every_injection():
    model = parse_program(SUM)
    c = mk(function="sum_below", requires=["n >= 0"],
           ensures=["__ESBMC_return_value >= 0"],
           invariants=[(0, "sum >= 0")])
    instr = render_enforce(model, c)
    kinds = sorted(i.text.strip().split("(")[0] for i in instr.injections)
    assert kinds == ["__ESBMC_ensures", "__ESBMC_loop_invariant", "__ESBMC_requires"]
    for inj in instr.injections:
        assert instr.text[inj.offset:].startswith(inj.text) or inj.text in instr.text


def test_parse_plain_reply():
    model = parse_program(INC)
    f = model.function("increment")
    raw = (
        "```\n__ESBMC_requires(x > 0);\n__ESBMC_assigns(x);\n"
        "__ESBMC_ensures(__ESBMC_return_value > x);\n```\n"
    )
    c = parse_contract_text(raw, f)
    assert isinstance(c, Contract)
    assert c.requires == ("x > 0",)
    assert c.assigns == ("x",)
    assert c.ensures == ("__ESBMC_return_value > x",)


def test_parse_unfenced_reply_with_prose():
    model = parse_program(INC)
    f = model.function("increment")
    raw = (
        "Given the call site, the function needs a positive input.\n"
        "__ESBMC_requires(x > 0);\n"
        "__ESBMC_ensures(__ESBMC_return_value == x + 1);\n"
    )
    c = parse_contract_text(raw, f)
    assert isinstance(c, Contract)
    assert c.requires == ("x > 0",)


def test_parse_no_clauses_is_failure():
    model = parse_program(INC)
    f = model.function("increment")
    r = parse_contract_text("I cannot determine a contract here.", f)
    assert isinstance(r, ParseFailure)
    assert r.reason is ParseFailureReason.NO_CLAUSES


def test_parse_rejects_true_false_literals():
    model = parse_program(INC)
    f = model.function("increment")
    r = parse_contract_text("__ESBMC_ensures(true);", f)
    assert isinstance(r, ParseFailure)
    assert r.reason is ParseFailureReason.ILLEGAL_LITERAL


def test_parse_rejects_quantifiers():
    model = parse_program(INC)
    f = model.function("increment")
    r = parse_contract_text("__ESBMC_ensures(\\forall int i; i < x);", f)
    assert isinstance(r, ParseFailure)
    assert r.reason is ParseFailureReason.QUANTIFIED


def test_parse_rejects_unknown_identifier():
    model = parse_program(INC)
    f = model.function("increment")
    r = parse_contract_text("__ESBMC_ensures(__ESBMC_return_value > y);", f)
    assert isinstance(r, ParseFailure)
    assert r.reason is ParseFailureReason.UNKNOWN_IDENTIFIER


def test_parse_accepts_known_global():
    src = dict(corpus_sources())["counter_global.c"]
    model = parse_program(src)
    f = model.function("bump")
    r = parse_contract_text("__ESBMC_assigns(counter);\n__ESBMC_ensures(counter > 0);",
                            f, known_globals=model.global_names)
    assert isinstance(r, Contract)
    assert r.assigns == ("counter",)


def test_a_clause_may_name_a_macro_or_an_enum_constant():
    model = parse_program(CONSTANTS_SRC)
    # file-scope names only, and none of them a global
    assert model.constant_names == ("LIMIT", "CLAMP", "RED", "GREEN", "BLUE", "INNER")
    assert model.global_names == ("shade",)
    f = model.function("pick")
    reply = ("__ESBMC_ensures(__ESBMC_return_value <= LIMIT);\n"
             "__ESBMC_ensures(__ESBMC_return_value != GREEN);")
    c = parse_contract_text(reply, f, model.global_names, model.constant_names)
    assert isinstance(c, Contract)
    assert c.ensures == ("__ESBMC_return_value <= LIMIT", "__ESBMC_return_value != GREEN")
    assert isinstance(parse_contract_text("__ESBMC_ensures(__ESBMC_return_value != INNER);",
                                          f, model.global_names, model.constant_names),
                      Contract)
    for name in ("LOCAL", "TOP"):
        r = parse_contract_text(f"__ESBMC_ensures(__ESBMC_return_value != {name});", f,
                                model.global_names, model.constant_names)
        assert r.reason is ParseFailureReason.UNKNOWN_IDENTIFIER


@pytest.mark.parametrize("clause", ["c == 'a'", "x < 1e5", "x < 1.5f"])
def test_parse_accepts_character_and_floating_literals(clause):
    model = parse_program("int f(char c, int x) { return x; }\n"
                          "int main() { int r = f('a', 1); assert(r >= 0); }\n")
    c = parse_contract_text(f"__ESBMC_requires({clause});", model.function("f"))
    assert isinstance(c, Contract)
    assert c.requires == (clause,)


def test_parse_rejects_invariant_naming_a_comment_word():
    model = parse_program("int f(int n) {\n  int i = 0;\n  /* counter hidden */\n"
                          "  while (i < n) { i++; }\n  return i;\n}\n"
                          "int main() { int r = f(3); assert(r >= 0); }\n")
    f = model.function("f")
    assert isinstance(parse_contract_text("__ESBMC_loop_invariant(i >= 0);", f), Contract)
    r = parse_contract_text("__ESBMC_loop_invariant(hidden >= 0);", f)
    assert isinstance(r, ParseFailure)
    assert r.reason is ParseFailureReason.UNKNOWN_IDENTIFIER


def test_parse_rejects_unbalanced():
    model = parse_program(INC)
    f = model.function("increment")
    r = parse_contract_text("__ESBMC_ensures((x > 0;", f)
    assert isinstance(r, ParseFailure)
    assert r.reason is ParseFailureReason.UNBALANCED


def test_parse_accepts_an_array_parameter_with_a_macro_bound():
    model = parse_program("#define LEN 4\nint sum(int a[LEN], int n) {\n  return n;\n}\n"
                          "int main() { int b[LEN] = {0}; int r = sum(b, 1); assert(r >= 0); }\n")
    c = parse_contract_text("__ESBMC_requires(a[0] >= 0);", model.function("sum"))
    assert isinstance(c, Contract)
    assert c.requires == ("a[0] >= 0",)


@pytest.mark.parametrize("raw, reason, detail", [
    ("__ESBMC_requires( );", ParseFailureReason.NO_CLAUSES, "empty requires clause"),
    ("__ESBMC_ensures(x[0 > 1);", ParseFailureReason.UNBALANCED, "x[0 > 1"),
    ("__ESBMC_requires(x > 0; x < 9);", ParseFailureReason.UNBALANCED,
     "statement in requires: x > 0; x < 9"),
    ("__ESBMC_assigns();\n__ESBMC_ensures(x > 0);", ParseFailureReason.NO_CLAUSES,
     "empty assigns target"),
], ids=["empty_clause", "unbalanced_brackets", "statement", "empty_assigns_target"])
def test_parse_rejects_a_malformed_clause(raw, reason, detail):
    r = parse_contract_text(raw, parse_program(INC).function("increment"))
    assert isinstance(r, ParseFailure)
    assert (r.reason, r.detail) == (reason, detail)


def test_parse_numbers_invariants_by_appearance():
    model = parse_program(SUM)
    f = model.function("sum_below")
    raw = (
        "__ESBMC_ensures(__ESBMC_return_value >= 0);\n"
        "__ESBMC_loop_invariant(sum >= 0);\n"
    )
    c = parse_contract_text(raw, f)
    assert isinstance(c, Contract)
    assert c.loop_invariants == ((0, "sum >= 0"),)


def test_sanitize_assigns():
    kept, stripped = sanitize_assigns(["x", "*p", "q->field", "x", "buf"])
    assert kept == ("x", "buf")
    assert stripped == ("*p", "q->field")
    again_kept, again_stripped = sanitize_assigns(kept)
    assert again_kept == kept and again_stripped == ()


def test_round_trip_random_contracts_whole_corpus():
    import random
    rng = random.Random(7)
    pool_req = ["x > 0", "n >= 0", "a != b", "len > 0"]
    pool_ens = ["__ESBMC_return_value >= 0", "__ESBMC_return_value == 0",
                "__ESBMC_return_value > 1"]
    for name, src in corpus_sources():
        model = parse_program(src)
        for f in model.functions:
            c = Contract(
                function=f.name,
                requires=tuple(rng.sample(pool_req, rng.randint(0, 2))),
                ensures=tuple(rng.sample(pool_ens, rng.randint(0, 2))),
                assigns=tuple(p.name for p in f.params[:1]),
                origin=ContractOrigin.LLM_PRECISE,
            )
            instr = render_enforce(model, c)
            assert strip_annotations(instr) == src, (name, f.name)
