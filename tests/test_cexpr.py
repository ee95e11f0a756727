"""Integer C expression evaluation, including the truncation rules that make
it usable as an oracle for counterexample arithmetic."""

from __future__ import annotations

import shutil
import subprocess

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contractor.cexpr import (
    _LEVELS,
    INT_MAX,
    INT_MIN,
    EvalError,
    evaluate,
    evaluate_bool,
    identifiers,
    try_evaluate_bool,
)


# One case per precedence level, loosest first, each giving a different value
# if that level bound tighter or looser than its neighbour, then mixed
# chains. Every value is what gcc prints for the same expression as C `int`
# (`test_precedence_table_matches_gcc`).
PRECEDENCE = [
    ("1 || 0 && 0", 1),
    ("1 | 2 && 0", 0),
    ("1 ^ 1 | 1", 1),
    ("3 ^ 1 & 2", 3),
    ("2 & 2 == 2", 0),
    ("2 == 2 < 3", 0),
    ("3 != 2 > 1", 1),
    ("1 < 1 << 2", 1),
    ("8 >> 1 + 1", 2),
    ("1 << 1 + 1", 4),
    ("1 + 2 * 3", 7),
    ("10 - 3 - 2", 5),
    ("7 - 5 % 3", 5),
    ("-7 / 2", -3),
    ("100 / 10 / 5", 2),
    ("-2 * -3", 6),
    ("!0 + ~0", 0),
    ("~5 & 7", 2),
    ("0 ? 1 : 2 ? 3 : 4", 3),
    ("1 + 2 * 3 << 1 > 12 == 1 & 5 ^ 4 | 2 && 3 || 0", 1),
    ("2 + 3 * 4 % 5 - 6 / 4 << 2 >> 1 >= 5 != 0 & 1 | 8 ^ 3", 11),
]


@pytest.mark.parametrize("text, value", PRECEDENCE)
def test_precedence_table(text, value):
    assert evaluate(text, {}) == value


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc on PATH")
def test_precedence_table_matches_gcc(tmp_path):
    lines = "".join(f'    printf("%d\\n", {text});\n' for text, _ in PRECEDENCE)
    src = tmp_path / "table.c"
    src.write_text("#include <stdio.h>\nint main(void) {\n" + lines + "    return 0;\n}\n")
    subprocess.run(["gcc", "-w", "-o", str(tmp_path / "table"), str(src)], check=True, timeout=60)
    out = subprocess.run([str(tmp_path / "table")], check=True, capture_output=True, text=True,
                         timeout=60)
    assert [int(v) for v in out.stdout.split()] == [v for _, v in PRECEDENCE]


def test_dead_branch_errors_give_zero():
    # the untaken side is parsed but cannot fail
    assert evaluate("0 && 1 / 0", {}) == 0
    assert evaluate("1 || 1 << 300", {}) == 1
    assert evaluate("0 ? buf : 1", {"buf": [1, 2]}) == 1
    assert evaluate("1 ? 2 : buf[9] % 0", {"buf": [1, 2]}) == 2
    # taken, each one fails
    for text in ("1 && 1 / 0", "0 || 1 << 300", "1 << -1", "1 ? buf + 1 : 1"):
        with pytest.raises(EvalError):
            evaluate(text, {"buf": [1, 2]})
    # malformed text fails even where it is never evaluated
    with pytest.raises(EvalError):
        evaluate("0 && (1 +", {})


def test_identifiers_skip_literals():
    assert identifiers("x <= 0x7f && y > 10u && z != 5UL") == ("x", "y", "z")
    assert identifiers("p->next == 0") == ("p", "next")
    # outside the dialect: every identifier outside a literal
    assert identifiers("s.f == 1.5") == ("s", "f")


@pytest.mark.parametrize("clause", ["c == 'a'", "x < 1e5", "x < 1.5f"])
def test_character_and_floating_literals_name_nothing(clause):
    assert identifiers(clause) == (clause[0],)
    assert identifiers("s->" + clause) == ("s", clause[0])  # outside the dialect
    assert identifiers('strcmp(s, "b c")') == ("strcmp", "s")


def test_character_literals_have_their_c_value():
    assert evaluate("c == 'a'", {"c": 97}) == 1
    assert evaluate("' ' + '\\n' + '\\0' + '\\\\'", {}) == 32 + 10 + 0 + 92


@pytest.mark.parametrize("clause", ["x < 1e5", "x < 1.5f", "x < 0x1p3", "c == 'ab'",
                                    "c == '\\x41'", "c == \"a\"", "-1 < 10u", "x < 09",
                                    # the conditional has the type both arms
                                    # convert to, so C compares no -1 or 3
                                    "(0 ? 10u : -1) < 0", "(0 ? 1.5 : 3) / 2 == 1",
                                    "(0 ? 2147483648 : -1) < 0", "(0 ? big : -1) < 0"])
def test_literals_without_an_integer_value_raise(clause):
    valuation = {"x": 1, "c": 97, "big": 2 ** 31}
    with pytest.raises(EvalError):
        evaluate(clause, valuation)
    with pytest.raises(EvalError):
        evaluate_bool(clause, valuation)
    assert evaluate("0 && " + clause, valuation) == 0


def test_arithmetic_precedence():
    assert evaluate("1 + 2 * 3", {}) == 7
    assert evaluate("(1 + 2) * 3", {}) == 9
    assert evaluate("2 + 3 << 1", {}) == 10  # shift binds looser than +


def test_division_truncates_toward_zero():
    assert evaluate("-7 / 2", {}) == -3
    assert evaluate("7 / -2", {}) == -3
    assert evaluate("-7 % 2", {}) == -1
    assert evaluate("7 % -2", {}) == 1


def test_ternary_and_logic():
    assert evaluate("x > 0 ? x : -x", {"x": -4}) == 4
    assert evaluate("1 && 0", {}) == 0
    assert evaluate("1 || 0", {}) == 1
    assert evaluate("!5", {}) == 0
    assert evaluate("!0", {}) == 1


def test_short_circuit_avoids_division_by_zero():
    assert evaluate("d != 0 && n / d > 1", {"d": 0, "n": 10}) == 0
    assert evaluate("d == 0 || n / d > 1", {"d": 0, "n": 10}) == 1


def test_hex_and_suffixed_literals():
    assert evaluate("0x7f", {}) == 127
    with pytest.raises(EvalError):  # unsigned and long are no int
        evaluate("1u + 2L", {})
    assert evaluate("0x10 == 16", {}) == 1
    assert evaluate("010 + 0", {}) == 8  # octal


def test_array_indexing():
    assert evaluate("buf[2]", {"buf": [10, 20, 30]}) == 30
    assert evaluate("buf[i] <= 0x7f", {"buf": [1, 200], "i": 1}) == 0


def test_unknown_identifier_raises():
    with pytest.raises(EvalError):
        evaluate("x + y", {"x": 1})


def test_division_by_zero_raises():
    with pytest.raises(EvalError):
        evaluate("1 / 0", {})
    with pytest.raises(EvalError):
        evaluate("1 % 0", {})


def test_identifiers_ordered_dedup():
    assert identifiers("a + b * a - c") == ("a", "b", "c")
    assert identifiers("buf[i] > 0 && buf[i] < cap") == ("buf", "i", "cap")


def test_try_evaluate_bool_outside_dialect():
    assert try_evaluate_bool("f(x) > 0", {"x": 1}) is None  # calls unsupported
    assert try_evaluate_bool("x > 0", {}) is None  # unknown name
    assert try_evaluate_bool("x > 0", {"x": 3}) is True
    assert try_evaluate_bool("x > 0", {"x": -3}) is False


@pytest.mark.parametrize("clause, valuation", [
    ("-1 < 10u", {}),  # C converts -1 to unsigned: false
    ("x * x >= 0", {"x": 50000}),  # signed overflow
    ("x + 1 > x", {"x": 2147483647}),  # signed overflow
    ("(x << 31) < 0", {"x": 1}),  # the shift passes the sign bit
])
def test_try_evaluate_bool_gives_none_where_c_differs(clause, valuation):
    assert try_evaluate_bool(clause, valuation) is None


def test_values_stay_in_int_range():
    assert evaluate("(x - 1) * 2 + 1", {"x": 1073741824}) == 2147483647
    assert evaluate("-2147483647 - 1", {}) == -2147483648
    assert evaluate("x >> 1", {"x": -8}) == -4
    assert try_evaluate_bool("x > 0", {"x": 2 ** 31}) is None  # no int holds x
    for text in ("2147483648", "-x", "x / -1", "x % -1", "x << 1", "1 << 32"):
        with pytest.raises(EvalError):
            evaluate(text, {"x": -2147483648})
    # an untaken branch still gives 0
    assert evaluate("0 && x * x > 0", {"x": 50000}) == 0


def test_evaluate_bool():
    assert evaluate_bool("a == b", {"a": 2, "b": 2}) is True
    assert evaluate_bool("a - b", {"a": 2, "b": 2}) is False


@given(st.integers(-1000, 1000), st.integers(-1000, 1000))
def test_comparison_matches_python(a, b):
    assert evaluate("a < b", {"a": a, "b": b}) == int(a < b)
    assert evaluate("a == b", {"a": a, "b": b}) == int(a == b)
    assert evaluate("a >= b", {"a": a, "b": b}) == int(a >= b)


@given(st.integers(-100, 100), st.integers(1, 50))
def test_div_mod_identity(n, d):
    q = evaluate("n / d", {"n": n, "d": d})
    r = evaluate("n % d", {"n": n, "d": d})
    assert q * d + r == n
    assert abs(r) < d


def test_bitwise_vs_python():
    assert evaluate("12 & 10", {}) == 12 & 10
    assert evaluate("12 | 10", {}) == 12 | 10
    assert evaluate("12 ^ 10", {}) == 12 ^ 10
    assert evaluate("~5", {}) == ~5


# clauses over x, y and z: every binary operator of `_LEVELS`, the unary
# operators, `?:`, parentheses, and decimal, octal, hex, character and
# suffixed literals, some of them past `int`'s range
_LITERALS = st.one_of(
    st.integers(0, 40).map(str),
    st.integers(0, 2 ** 32).map(str),
    st.integers(0, 64).map(lambda n: f"0{n:o}"),
    st.integers(0, 2 ** 32).map(hex),
    st.sampled_from(["'a'", "' '", "'\\n'", "'\\0'", "'\\\\'", "'\\''"]),
    st.builds("{}{}".format, st.integers(0, 40), st.sampled_from(["u", "U", "l", "L", "ul"])),
)
_CLAUSES = st.recursive(
    st.one_of(st.sampled_from(["x", "y", "z"]), _LITERALS),
    lambda sub: st.one_of(
        st.builds("({})".format, sub),
        st.builds("{}({})".format, st.sampled_from(["-", "+", "~", "!"]), sub),
        st.builds("{} {} {}".format, sub, st.sampled_from([op for ops in _LEVELS for op in ops]),
                  sub),
        st.builds("{} ? {} : {}".format, sub, sub, sub),
    ),
    max_leaves=8,
)
_VALUES = st.one_of(st.integers(-9, 9), st.sampled_from([INT_MIN, INT_MAX]),
                    st.integers(INT_MIN, INT_MAX))


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc on PATH")
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(st.lists(_CLAUSES, min_size=30, max_size=30),
       st.lists(st.tuples(_VALUES, _VALUES, _VALUES), min_size=6, max_size=6))
def test_every_definite_value_is_what_gcc_computes(tmp_path_factory, clauses, valuations):
    # one program per batch evaluates each clause at each valuation where
    # try_evaluate_bool has a value; undefined behaviour there fails the run
    pairs = [(clause, v) for clause in clauses for v in valuations
             if try_evaluate_bool(clause, dict(zip("xyz", v))) is not None]
    assert pairs
    body = "".join(f"    x = v[{i}][0]; y = v[{i}][1]; z = v[{i}][2];\n"
                   f"    printf(\"%d\\n\", ({clause}) != 0);\n"
                   for i, (clause, _) in enumerate(pairs))
    table = ", ".join("{%d, %d, %d}" % v for _, v in pairs)
    tmp = tmp_path_factory.mktemp("clauses")
    (tmp / "clauses.c").write_text(
        f"#include <stdio.h>\nint v[][3] = {{{table}}};\n"
        f"int main(void) {{\n    int x, y, z;\n{body}    return 0;\n}}\n")
    subprocess.run(["gcc", "-w", "-fsanitize=undefined", "-fno-sanitize-recover",
                    "-o", str(tmp / "clauses"), str(tmp / "clauses.c")],
                   check=True, timeout=60)
    run = subprocess.run([str(tmp / "clauses")], capture_output=True, text=True, timeout=60)
    got = [line == "1" for line in run.stdout.split()]
    assert run.returncode == 0, (pairs[len(got)], run.stderr)
    for (clause, v), c_value in zip(pairs, got):
        assert try_evaluate_bool(clause, dict(zip("xyz", v))) is c_value, (clause, v)
