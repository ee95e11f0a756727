"""Source scanning: function discovery, property extraction, complexity
scoring, and the tier split."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
from typing import Dict, List, Tuple

import pytest

from contractor.errors import (
    MultiplePropertiesError,
    NoMainError,
    NoPropertyError,
)
from contractor.program_model import (
    Tier,
    mask_comments_strings_and_directives,
    parse_program,
    partition_functions,
    tier_for,
)
from conftest import CONSTANTS_SRC, CORPUS_DIR, WORKLOADS, corpus_paths, corpus_sources


def wrap(fn_body: str, call: str, prop: str = "r >= 0") -> str:
    return (
        f"{fn_body}\n\n"
        f"int main() {{\n    int r = {call};\n    assert({prop});\n    return 0;\n}}\n"
    )


def test_masking_preserves_length():
    src = 'int f() { /* brace } in comment */ char *s = "}}"; return 1; } // }\n'
    masked = mask_comments_strings_and_directives(src)
    assert len(masked) == len(src)
    assert "}" not in masked[src.index("/*"):src.index("*/")]


@pytest.mark.parametrize("src, masked", [
    ('x = "a\\"b"; y', 'x = "    "; y'),
    ("c = '\\'';", "c = '  ';"),
    ('s = "a\\\nb";', 's = "  \n ";'),
    ("a /* b\nc */ d // e\nf", "a     \n     d     \nf"),
    ('t = "open\n', 't = "    \n'),
    ("u /* open\n", "u        \n"),
    ('t = "open\nx;', 't = "    \nx;'),
    ("#define B {\nx", "           \nx"),
    ("  # if A /* (\n */ + \\\n  }\ny", "             \n       \n   \ny"),
    ('#define G "/*"\nx; /* c */', '              \nx;        '),
    ("#error don't\nx = 'y';", "            \nx = ' ';"),
], ids=["escaped_quote", "escaped_char_quote", "continued_literal", "comments",
        "open_literal", "open_comment", "literal_open_to_its_line_end", "directive",
        "continued_directive", "directive_literal_holding_a_comment_opener",
        "directive_apostrophe"])
def test_masking_keeps_quotes_and_newlines(src, masked):
    # a literal keeps its quotes; every other character of a comment, a
    # directive or a literal is blanked but a newline, even one a backslash
    # continues; a directive runs through the lines it continues and its
    # comments, and a literal left open ends with its line
    assert mask_comments_strings_and_directives(src) == masked


def test_corpus_all_parse():
    for name, text in corpus_sources():
        model = parse_program(text)
        assert model.property.assertion_text, name
        assert any(f.name != "main" for f in model.functions), name
        for f in model.functions:  # do_while.c's `} while (n > 0);` is no site
            assert len(f.loops) == f.metrics.loop_count, (name, f.name)


def test_corpus_parse_matches_the_pinned_table():
    # tests/corpus/parse_table.json pins what the parser reads from each
    # corpus function; a refactor of this layer keeps every entry
    table = json.loads((CORPUS_DIR / "parse_table.json").read_text(encoding="utf-8"))
    got = {}
    for name, text in corpus_sources():
        got[name] = {
            f.name: {
                "metrics": {k: (v.value if k == "tier" else v) for k, v in vars(f.metrics).items()},
                "params": [[q.name, q.type_text] for q in f.params],
                "calls": list(f.calls),
                "loops": [[s.keyword, s.offset, s.body_open] for s in f.loops],
            }
            for f in parse_program(text).functions
        }
    assert got == table


def test_function_discovery():
    model = parse_program(corpus_text("multi_fn.c"))
    assert [f.name for f in model.functions] == ["scale", "offset", "pipeline"]
    pipeline = model.function("pipeline")
    assert set(pipeline.calls) >= {"scale", "offset"}


def corpus_text(name: str) -> str:
    return dict(corpus_sources())[name]


def test_static_detection():
    model = parse_program(corpus_text("static_helper.c"))
    assert model.function("square").is_static
    assert not model.function("sum_of_squares").is_static


def test_recursion_detection():
    model = parse_program(corpus_text("gcd_rec.c"))
    assert model.function("gcd").metrics.has_recursion
    model2 = parse_program(corpus_text("multi_fn.c"))
    assert not any(f.metrics.has_recursion for f in model2.functions)


def test_mutual_recursion_via_scc():
    src = wrap(
        "int is_even(int n) {\n"
        "    if (n == 0) { return 1; }\n"
        "    return is_odd(n - 1);\n"
        "}\n\n"
        "int is_odd(int n) {\n"
        "    if (n == 0) { return 0; }\n"
        "    return is_even(n - 1);\n"
        "}",
        "is_even(4)",
        "r == 1",
    )
    model = parse_program(src)
    assert model.function("is_even").metrics.has_recursion
    assert model.function("is_odd").metrics.has_recursion


def test_property_extraction():
    model = parse_program(corpus_text("clamp.c"))
    assert model.property.assertion_text == "c >= 0 && c <= 100"


def test_no_main_raises():
    with pytest.raises(NoMainError):
        parse_program("int f(int x) { return x; }\n")


def test_no_assert_raises():
    with pytest.raises(NoPropertyError):
        parse_program("int main() { return 0; }\n")


def test_two_asserts_raise():
    src = "int main() {\n    assert(1);\n    assert(2);\n    return 0;\n}\n"
    with pytest.raises(MultiplePropertiesError):
        parse_program(src)


def test_globals_scanned():
    model = parse_program(corpus_text("global_pair.c"))
    assert set(model.global_names) >= {"low", "high"}


# one loop at depth 1: 5.0 + 1.0 nesting = 6.0, squarely in the low tier
def test_single_loop_scores_six():
    model = parse_program(corpus_text("parity.c"))
    f = model.function("parity")
    assert f.metrics.loop_count == 1
    assert f.metrics.max_nesting_depth == 1
    assert f.metrics.score == pytest.approx(6.0)
    assert f.metrics.tier is Tier.LOW


def test_straight_line_is_minimal():
    model = parse_program(corpus_text("inc_basic.c"))
    f = model.function("increment")
    assert f.metrics.score == pytest.approx(0.0)
    assert f.metrics.tier is Tier.MINIMAL


def test_recursion_lands_high():
    model = parse_program(corpus_text("gcd_rec.c"))
    f = model.function("gcd")
    assert f.metrics.has_recursion
    assert f.metrics.score >= 20.0
    assert f.metrics.tier is Tier.HIGH


def test_unbounded_loop_scored():
    model = parse_program(corpus_text("unbounded_poll.c"))
    f = model.function("poll_until_ready")
    assert f.metrics.has_unbounded_loop
    assert f.metrics.tier is Tier.HIGH


def test_bounded_loop_not_flagged_unbounded():
    model = parse_program(corpus_text("parity.c"))
    assert not model.function("parity").metrics.has_unbounded_loop


def test_assignment_does_not_hide_the_next_write():
    # `i=j++` writes i, then j: the assignment's `=` must leave j to its `++`,
    # so the loop changes its own condition and is bounded
    fns = ("int f(int n) {\n    int i = 0, j = 0;\n"
           "    while (j < n) { i=j++; }\n    return i;\n}")
    f = parse_program(wrap(fns, "f(2)")).function("f")
    assert not f.metrics.has_unbounded_loop
    assert f.metrics.score == 6.0
    assert f.writes == ("i", "j", "i", "j")


def test_writes_and_body_names_read_outside_comments_and_strings():
    fns = ("int g;\nint f(int *p, int n) {\n    /* h = 1; */ char *s = \"k = 2\";\n"
           "    *p = n; p->v += 1; ++g; n--;\n    return n;\n}")
    f = parse_program(wrap(fns, "f(0, 2)")).function("f")
    # assignment and postfix targets in text order, then prefix ones
    assert f.writes == ("*s", "*p", "p->v", "n", "g")
    assert f.body_names == ("char", "s", "p", "n", "v", "g", "return")


@pytest.mark.parametrize("literal, counter", [("10u", "u"), ("0x7", "x7"), ("1u", "u")])
def test_literal_in_condition_names_nothing(literal, counter):
    # the loop writes only counter, which a literal's suffix or hex digits
    # spell but do not name: the condition reads k alone, so it is unbounded
    fns = (f"int f(int k) {{\n    int {counter} = 0;\n"
           f"    while (k < {literal}) {{ {counter}++; }}\n    return {counter};\n}}")
    f = parse_program(wrap(fns, "f(2)")).function("f")
    assert f.metrics.has_unbounded_loop
    assert f.metrics.score == pytest.approx(26.0)
    assert f.metrics.tier is Tier.HIGH


@pytest.mark.parametrize("later_block", ["{ i = i + 1; }", "{ g(1); }"])
def test_braceless_loop_does_not_borrow_a_later_block(later_block):
    # the braceless body is `g(n);` alone, which never changes i, so the loop
    # is unbounded whatever the unrelated block after it does
    fns = (
        "int g(int n) {\n    return n;\n}\n\n"
        "int f(int n) {\n    int i = 0;\n    while (i < n)\n        g(n);\n"
        f"    if (n > 3) {later_block}\n    return i;\n}}"
    )
    model = parse_program(wrap(fns, "f(2)"))
    f = model.function("f")
    assert f.loops[0].body_open is None
    assert f.metrics.has_unbounded_loop


def test_nested_loops_counted():
    model = parse_program(corpus_text("nested_loops.c"))
    f = model.function("grid_count")
    assert f.metrics.loop_count == 2
    assert f.metrics.max_nesting_depth == 2


def test_do_while_counts_once():
    model = parse_program(corpus_text("do_while.c"))
    f = model.function("count_digits")
    assert f.metrics.loop_count == 1


def test_while_after_closed_block_is_a_new_loop():
    # only `} while (cond);` is a do-while tail; a while loop opening right
    # after another block must still be counted
    src = """\
int twice(int x) {
    int i = 0;
    int j = 0;
    while (i < x) {
        i = i + 1;
    }
    while (j < x) {
        j = j + 1;
    }
    return i + j;
}

int main() {
    int r = twice(3);
    assert(r >= 0);
    return 0;
}
"""
    f = parse_program(src).function("twice")
    assert f.metrics.loop_count == 2
    assert f.metrics.max_nesting_depth == 1


def loops_of(body: str):
    """f(int n) with the given body, parsed, and its masked body."""
    model = parse_program(wrap("int f(int n) {\n    int i = 0;\n" + body + "    return i;\n}",
                               "f(2)"))
    f = model.function("f")
    masked = mask_comments_strings_and_directives(model.source_text)
    return f, masked[f.body_span[0]:f.body_span[1]]


MACRO_LOOP_BODY = ("#define EACH(k) for (k = 0; k < n; k++)\n"
                   "    while (i < n) {\n        i++;\n    }\n")


@pytest.mark.parametrize("body, expected", [
    ("    for (;;) {\n        i++;\n    }\n",
     [("for", "", "for (;;) {\n        i++;\n    }")]),
    ("    while (i < n)\n        i++;\n",
     [("while", "i < n", "while (i < n)\n        i++;")]),
    ("    do {\n        i++;\n    } while (i < n);\n",
     [("do", "i < n", "do {\n        i++;\n    }")]),
    ("    do i++; while (i < n);\n",
     [("do", "i < n", "do i++;")]),
    ("    do {\n        do {\n            i++;\n        } while (i < n);\n    } while (1);\n",
     [("do", "1", "do {\n        do {\n            i++;\n        } while (i < n);\n    }"),
      ("do", "i < n", "do {\n            i++;\n        }")]),
    ("    if (n < 0) {\n        n = 0;\n    } while (i < n) {\n        i++;\n    }\n",
     [("while", "i < n", "while (i < n) {\n        i++;\n    }")]),
    (MACRO_LOOP_BODY, [("while", "i < n", "while (i < n) {\n        i++;\n    }")]),
], ids=["for_ever", "braceless_while", "do_while", "braceless_do_while", "nested_do",
        "while_after_if_block", "macro_body_is_no_loop"])
def test_loop_site_records_condition_and_extent(body, expected):
    # a do's condition is its own tail's, and the tail is no site; a while
    # after any other block opens a loop
    f, masked = loops_of(body)
    got = [(s.keyword, s.condition, masked[s.offset:s.end]) for s in f.loops]
    assert got == expected
    assert f.metrics.loop_count == len(expected)


def test_outer_do_reads_its_own_tail():
    # the inner tail's `i < n` is not the outer loop's condition
    f, _ = loops_of(
        "    do {\n        do {\n            i++;\n        } while (i < n);\n    } while (1);\n")
    assert f.metrics.has_unbounded_loop
    assert f.metrics.max_nesting_depth == 2
    assert f.metrics.score == pytest.approx(32.0)


def test_a_macro_body_scores_and_writes_nothing():
    f, _ = loops_of(MACRO_LOOP_BODY)
    assert f.metrics.score == pytest.approx(6.0)
    assert f.metrics.tier is Tier.LOW
    assert f.writes == ("i", "i")


def test_braceless_do_while_is_one_bounded_loop():
    f, _ = loops_of("    do i++; while (i < n);\n")
    assert not f.metrics.has_unbounded_loop
    assert f.metrics.score == pytest.approx(6.0)
    assert f.metrics.tier is Tier.LOW


def test_alloc_counted():
    model = parse_program(corpus_text("alloc_buf.c"))
    f = model.function("make_buffer")
    assert f.metrics.dynamic_alloc_count == 1


def test_pointer_ops():
    model = parse_program(corpus_text("swap_ptr.c"))
    f = model.function("swap")
    assert f.metrics.pointer_op_count >= 3  # *a read, *a write, *b write at least


def test_tier_boundaries_are_half_open():
    assert tier_for(4.999) is Tier.MINIMAL
    assert tier_for(5.0) is Tier.LOW
    assert tier_for(9.999) is Tier.LOW
    assert tier_for(10.0) is Tier.MEDIUM
    assert tier_for(19.999) is Tier.MEDIUM
    assert tier_for(20.0) is Tier.HIGH


def many_functions(n: int, doc_lines: int = 0):
    """A program of n functions with a file-scope declaration, a prototype
    or nothing between them; returns it with its globals in declaration
    order. With doc_lines, each function also gets a `/* */` doc comment of
    that many lines and a `//` line, both holding `;`, `{`, `}` and `#`, and
    the gaps get `#define` and `#include` lines, each with a declaration on
    the line after it."""
    parts, globals_ = [], []
    for k in range(n):
        if k % 3 == 0:
            parts.append(f"unsigned long g{k} = {k};" if k % 2 else f"int g{k};")
            globals_.append(f"g{k}")
        elif k % 3 == 1:
            parts.append(f"int f{k}(int a);")
            if doc_lines:
                parts.append(f"#define K{k} {k}\nstatic int d{k} = K{k};")
                globals_.append(f"d{k}")
        elif doc_lines:
            parts.append(f"#include <lib{k}.h>\nunsigned h{k} /* ; */ = {k};")
            globals_.append(f"h{k}")
        if doc_lines:
            lines = [f" * step {j}: x = f{k}(x); if (x) {{ y--; }} # {j};" for j in range(doc_lines)]
            parts.append("/**\n" + "\n".join(lines) + "\n */")
            parts.append(f"// f{k}: int w{k}; {{ # }} returns a + {k};")
        parts.append(f"int f{k}(int a) {{\n    int t{k} = a + {k};\n"
                     f"    static int s{k} = 0;\n    return t{k} + s{k};\n}}")
    parts.append("int main() {\n    int r = f0(1);\n    assert(r >= 0);\n    return 0;\n}")
    return "\n".join(parts) + "\n", globals_


def test_globals_scan_matches_the_construction_at_scale():
    # locals and static locals sit inside a body; prototypes are not variables
    src, expected = many_functions(240)
    model = parse_program(src)
    assert len(model.functions) == 240
    assert model.global_names == tuple(expected)


@pytest.mark.parametrize("doc_lines", [1, 16])
def test_globals_scan_matches_the_construction_with_long_comments(doc_lines):
    # the masked comments are long runs with no `;` ending at a brace; the
    # names in them are neither globals nor call results
    src, expected = many_functions(120, doc_lines)
    assert src.startswith("int g0;")  # a global at offset 0
    model = parse_program(src)
    assert [f.name for f in model.functions] == [f"f{k}" for k in range(120)]
    assert model.global_names == tuple(expected)
    assert model.assigned_calls == (("r", "f0"),)


def test_file_scope_edge_cases():
    src = (
        "int first;\n"
        "#include <stdint.h>\n"
        "uint8_t after_include;\n"
        "/* int hidden; { # */ int after_comment;\n"
        "int /* ; */ split = 1;\n"
        "// long lost;\n"
        "#define LIMIT 3\n"
        "static int bump(int a) {\n    return a + LIMIT;\n}\n"
        "int main() {\n    int r = bump(first);\n    assert(r >= 0);\n    return 0;\n}\n"
    )
    model = parse_program(src)
    assert model.global_names == ("first", "after_include", "after_comment", "split")
    # a preprocessor line ends the chunk before the signature
    assert model.function("bump").signature_text == "static int bump(int a)"


@pytest.mark.parametrize("file_scope, expected", [
    ("int a, b;\nunsigned *p, q = 3;\n", ("a", "b", "p", "q")),
    ("#define MAX(a, b) ((a) > (b) ? (a) : (b))\nint limit;\n", ("limit",)),
    ("#define N 4\nint buf[N];\nchar grid[N][N + 1], row[2 * N];\n", ("buf", "grid", "row")),
    ("#define SQ(a) \\\n  ((a) * (a))\nint k;\n", ("k",)),
    ("int arr[3] = {1, 2, 3};\nint k;\nstruct pt { int x; int y; } origin;\n",
     ("arr", "k", "origin")),
    ("enum c { R };\nstruct pt;\nint k;\n", ("k",)),
    ("struct pt{int x;}a, *b = 0;\ntypedef struct { int t; } T;\n", ("a", "b")),
    ("int k = MAX(1, 2);\n", ("k",)),
    ("int n = sizeof(int);\n", ("n",)),
    ("int (*fp)(int);\n", ("fp",)),
    ("int f(int);\nint g(int a, int b), h;\n", ("h",)),
    ("int t[2] = {\n#if W\n  1, 2 }; int w[2] = {\n#endif\n  3, 4 };\n", ("t", "w")),
], ids=["multi_declarator", "after_function_like_define", "array_bound", "after_continued_define",
        "brace_blocks", "tags_declare_nothing", "tag_body_then_declarators",
        "call_initializer", "sizeof_initializer", "function_pointer", "prototypes_declare_nothing",
        "directive_inside_initializer"])
def test_globals_take_every_declarator(file_scope, expected):
    src = file_scope + "int main() {\n    int r = 0;\n    assert(r >= 0);\n    return 0;\n}\n"
    assert parse_program(src).global_names == expected


def test_continued_define_ends_where_its_last_line_does():
    src = ("#define COUNTER(n) \\\n    static int n = 0\n"
           "int f(int x) {\n    return x;\n}\n")
    f = parse_program(wrap(src, "f(1)")).function("f")
    assert f.signature_text == "int f(int x)"
    assert not f.is_static


@pytest.mark.parametrize("param, name", [
    ("int a[LEN]", "a"),
    ("int m[n]", "m"),
    ("int grid[N][N + 1]", "grid"),
    ("struct pt *p", "p"),
    ("int fn(int)", "fn"),
    ("int (*fn)(int)", "fn"),
    ("void (*cb)(int a)", "cb"),
], ids=["macro_bound", "vla_bound", "two_bounds", "tagged", "function", "function_pointer",
        "named_inner_parameter"])
def test_parameter_takes_its_declarator_name(param, name):
    src = wrap(f"#define LEN 4\n#define N 2\nint g(int n, {param}) {{\n    return n;\n}}",
               "0")
    assert [p.name for p in parse_program(src).function("g").params] == ["n", name]


@pytest.mark.parametrize("params", [
    "int a /* lo, hi */, int b",
    "int a, // first, really\n      int b",
    "int a /* *p */, int b",
], ids=["block_comment", "line_comment", "comment_star"])
def test_parameter_list_is_read_outside_its_comments(params):
    # a comment's comma cuts no parameter, and its words and `*` are no part
    # of one; the signature keeps the comment verbatim
    f = parse_program(wrap(f"int f({params}) {{\n    return a + b;\n}}", "f(1, 2)")).function("f")
    assert [(p.name, p.type_text) for p in f.params] == [("a", "int a"), ("b", "int b")]
    assert f.signature_text == " ".join(f"int f({params})".split())


# id: (file scope, the body of f, the constant names the file leaves defined)
DIRECTIVE_CASES = {
    "define_in_body": ("", "#define CAP 4\n", ("CAP",)),
    "undef_in_body": ("#define CAP 4\n#define LO 1\nenum { RED };\n",
                      "#undef CAP\n#undef RED\n", ("LO", "RED")),
    "define_in_struct_body": ("enum { RED };\nstruct s {\n    int v;\n#define FIELD 1\n};\n",
                              "#define CAP 4\n", ("RED", "FIELD", "CAP")),
    "define_opening_a_brace": ("", "#define BEGIN {\n", ("BEGIN",)),
    "define_closing_a_brace": ("", "#define END }\n", ("END",)),
    "continued_define_holding_a_brace": ("", "#define OPEN(x) \\\n    do {\n", ("OPEN",)),
    "undef_in_body_of_a_brace": ("#define LO 1\n", "#define OPEN {\n#undef OPEN\n", ("LO",)),
    "conditional_in_enumerator_list":
        ("#define WIDE\nenum mode {\n    A,\n#ifdef WIDE\n    B,\n#endif\n    C\n};\n", "",
         ("WIDE", "A", "B", "C")),
    "literal_holding_a_comment_opener": ('#define GLOB "/usr/*"\n', "    /* glob */\n",
                                         ("GLOB",)),
    "comments_around_a_define": ("/* a */ #/* b */define/* c */TOP 9\n", "", ("TOP",)),
}


def directive_source(file_scope: str, body: str) -> str:
    return wrap(f"#include <assert.h>\n{file_scope}int f(int a) {{\n{body}    return a;\n}}",
                "f(1)")


@pytest.mark.parametrize("file_scope, body, expected", list(DIRECTIVE_CASES.values()),
                         ids=list(DIRECTIVE_CASES))
def test_a_directive_counts_wherever_it_stands(file_scope, body, expected):
    # the preprocessor keeps a macro from its `#define` to its `#undef`, in
    # a function body or a struct body as at file scope; a directive's
    # braces and words are no part of the code around it
    model = parse_program(directive_source(file_scope, body))
    assert model.constant_names == expected
    assert [f.name for f in model.functions] == ["f"]


FUNCTION_POINTER_RETURN_SRC = wrap(
    "#include <assert.h>\n"
    "int twice(int a) {\n    return 2 * a;\n}\n"
    "int (*pick(int w))(int) {\n    return w > 0 ? twice : 0;\n}\n"
    "int g = 3;",
    "pick(g)(1)")


def test_a_function_returning_a_function_pointer_is_found():
    model = parse_program(FUNCTION_POINTER_RETURN_SRC)
    pick = model.function("pick")
    assert pick is not None and pick.signature_text == "int (*pick(int w))(int)"
    assert [p.name for p in pick.params] == ["w"]
    assert model.global_names == ("g",)


_LINE_MARKER_RE = re.compile(r'# \d+ "(.*)"')
_MACRO_RE = re.compile(r"#(define|undef) ([A-Za-z_]\w*)")


def own_macros(path) -> List[str]:
    """The macros path itself defines and leaves defined, in the order of
    their first definition, read from `gcc -E -dD`, whose line markers name
    the file each `#define` and `#undef` stands in."""
    out = subprocess.run(["gcc", "-E", "-dD", str(path)], capture_output=True, text=True,
                         check=True, timeout=60).stdout
    macros: Dict[str, None] = {}
    current = None
    for line in out.splitlines():
        marker = _LINE_MARKER_RE.match(line)
        if marker:
            current = marker.group(1)
        elif current == str(path) and (d := _MACRO_RE.match(line)):
            if d.group(1) == "define":
                macros.setdefault(d.group(2))
            else:
                macros.pop(d.group(2), None)
    return list(macros)


def compiled_symbols(path) -> List[Tuple[str, str]]:
    """(symbol type, name) of each name `nm` lists for the object gcc
    compiles from path; the names the compiler makes up, such as
    `__PRETTY_FUNCTION__.0` for an `assert`, are left out."""
    obj = path.with_suffix(".o")
    subprocess.run(["gcc", "-w", "-c", "-o", str(obj), str(path)], check=True, timeout=60)
    nm = subprocess.run(["nm", str(obj)], capture_output=True, text=True, check=True,
                        timeout=60).stdout
    symbols = [tuple(line.split()[1:]) for line in nm.splitlines() if len(line.split()) == 3]
    return [(kind, name) for kind, name in symbols if "." not in name]


@pytest.mark.skipif(shutil.which("gcc") is None or shutil.which("nm") is None,
                    reason="gcc or nm not on PATH")
@pytest.mark.parametrize("case", ["function_pointer_return", "constants"]
                         + [p.name for p in corpus_paths()] + list(WORKLOADS)
                         + [f"directive:{case}" for case in DIRECTIVE_CASES])
def test_functions_and_globals_match_the_compiled_symbols(case, request, tmp_path):
    # a corpus program, each program of a workload at seed 1, or a fixture
    if case in WORKLOADS:
        oracle, workloads = request.getfixturevalue("bench")
        sources = [oracle.Program(p["model"]).text for p in workloads.GENERATORS[case](1)]
    elif case.startswith("directive:"):
        sources = [directive_source(*DIRECTIVE_CASES[case[len("directive:"):]][:2])]
    else:
        sources = [{"function_pointer_return": FUNCTION_POINTER_RETURN_SRC,
                    "constants": "#include <assert.h>\n" + CONSTANTS_SRC}.get(case)
                   or corpus_text(case)]
    for k, text in enumerate(sources):
        path = tmp_path / f"prog{k}.c"
        path.write_text(text)
        model = parse_program(text)
        # the file's own macros are its constant names that are no enum
        # constant, in the same order; every other constant name compiles as
        # an integer constant expression at the end of the file
        macros = own_macros(path)
        assert [n for n in model.constant_names if n in macros] == macros, k
        others = [n for n in model.constant_names if n not in macros]
        path.write_text(text + "".join(f"enum {{ probe_{j} = ({n}) }};\n"
                                       for j, n in enumerate(others)))
        symbols = compiled_symbols(path)
        of = lambda kinds: {name for kind, name in symbols if kind in kinds}
        # T and t mark defined functions, external and static; D, B, C and R
        # initialized, zeroed, common and read-only globals, d, b and r static ones
        assert {f.name for f in model.functions if not f.is_static} | {"main"} == of("T"), k
        assert {f.name for f in model.functions if f.is_static} == of("t"), k
        assert set(model.global_names) == of("DdBbCRr"), k


def test_partition_by_tau():
    model = parse_program(corpus_text("gcd_rec.c"))
    low, high = partition_functions(model, tau=10.0)
    assert [f.name for f in high if f.name != "main"] == ["gcd"]
    assert all(f.name == "main" for f in low)
