"""Bounded brute-force oracle: the benchmark's stand-in for a model checker.

The oracle decides a check from the instrumented C text alone, like a real
backend would. It recovers the annotations by diffing the text against the
program's own rendering, then executes the Python form of the program:

  enforce (function) mode: every input in the bounded parameter domain that
      satisfies the requires clauses runs the body; loop invariants are
      evaluated at every loop head, ensures at the return. Callees run
      concretely.
  replace (system) mode: main runs with every annotated function replaced
      by its stub: its requires are asserted at the call site and its return
      value ranges over every value of the function's return domain that
      satisfies its ensures. The property must hold on every path.

Failures come back as backend-style text with a counterexample trace of the
failing execution, so `contractor` parses them like real output. Nothing
here imports `contractor`: this is the ground truth the benchmark checks
the pipeline against.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from model import RETURN_VALUE, identifiers, py_expr, render, split_conjuncts

_ANNOT_RE = re.compile(
    r"^\s*__ESBMC_(requires|ensures|assigns|loop_invariant)\((.*)\);\s*$")

PATH_LIMIT = 20000  # executions explored per concrete call in replace mode

HEADER = (
    "ESBMC version 7.6.1 64-bit x86_64 linux\n"
    "Target: 64-bit little-endian x86_64-unknown-linux with esbmclibc\n"
    "Parsing program.c\n"
    "Converting\n"
    "Generating GOTO Program\n"
    "GOTO program processing time: 0.004s\n"
)


class OracleError(Exception):
    """The text is not an instrumentation of the program, or a bound was hit."""


@dataclass
class Spec:
    """One function's contract as the oracle reads it."""
    requires: List[str] = field(default_factory=list)
    ensures: List[str] = field(default_factory=list)
    assigns: List[str] = field(default_factory=list)
    invariants: Dict[int, List[str]] = field(default_factory=dict)

    @property
    def has_head(self) -> bool:
        return bool(self.requires or self.ensures or self.assigns)


class _Violation(Exception):
    def __init__(self, kind: str, clause: str, fname: str, line: int):
        super().__init__(clause)
        self.kind, self.clause, self.fname, self.line = kind, clause, fname, line


class _Infeasible(Exception):
    pass


class _Ctx:
    """Runtime hooks the generated Python calls into."""

    def __init__(self, program: "Program"):
        self.prog = program
        self.trace: List[Tuple] = []
        self.target: Optional[str] = None
        self.invariants: Dict[int, List[str]] = {}
        self.stubs: Dict[str, Spec] = {}
        self.path: List[int] = []
        self.counts: List[int] = []
        self.pos = 0

    def head(self, fname: str, ordinal: int, line: int, env: Dict) -> None:
        if fname != self.target:
            return
        for inv in self.invariants.get(ordinal, ()):
            if not self.prog.holds(inv, env):
                raise _Violation("loop invariant", inv, fname, line)

    def call(self, callee: str, args: Tuple[int, ...], caller: str, line: int) -> int:
        spec = self.stubs.get(callee)
        if spec is None:
            return self.prog.fns[callee](*args)
        env = self.prog.param_env(callee, args)
        for req in spec.requires:
            if not self.prog.holds(req, env):
                raise _Violation("precondition", req, caller, line)
        options = self.prog.stub_values(callee, args, spec)
        if not options:
            raise _Infeasible()
        if self.pos == len(self.path):
            self.path.append(0)
            self.counts.append(len(options))
        value = options[self.path[self.pos]]
        self.pos += 1
        return value


class Program:
    """A generated program: its model, its C text, and its executable form."""

    def __init__(self, model: Dict):
        self.model = model
        r = render(model)
        self.text: str = r["text"]
        self.lines = self.text.splitlines()
        self.anchors: Dict[int, Tuple] = r["anchors"]
        self.main_lines: List[int] = r["main_lines"]
        self.assert_line: int = r["assert_line"]
        self.returns = r["returns"]
        self.python: str = r["python"]
        self.fn_models = {fn["name"]: fn for fn in model["functions"]}
        self.ctx = _Ctx(self)
        ns: Dict = {"CTX": self.ctx}
        exec(compile(self.python, f"<model {model['name']}>", "exec"), ns)
        self.fns = {name: ns[f"F_{name}"] for name in self.fn_models}
        self._code: Dict[str, object] = {}
        self._stub_cache: Dict[Tuple, List[int]] = {}

    # -- expressions -------------------------------------------------------

    def holds(self, expr: str, env: Dict) -> bool:
        code = self._code.get(expr)
        if code is None:
            code = compile(py_expr(expr), "<clause>", "eval")
            self._code[expr] = code
        try:
            return bool(eval(code, {}, env))
        except (NameError, TypeError, ZeroDivisionError) as exc:
            raise OracleError(f"cannot evaluate {expr!r}: {exc}") from None

    def value(self, expr: str, env: Dict) -> int:
        code = self._code.get(expr)
        if code is None:
            code = compile(py_expr(expr), "<expr>", "eval")
            self._code[expr] = code
        return int(eval(code, {}, env))

    def param_env(self, fname: str, args: Sequence[int]) -> Dict[str, int]:
        return {p[0]: a for p, a in zip(self.fn_models[fname]["params"], args)}

    def stub_values(self, fname: str, args: Tuple[int, ...], spec: Spec) -> List[int]:
        key = (fname, args, tuple(spec.ensures))
        hit = self._stub_cache.get(key)
        if hit is None:
            lo, hi = self.fn_models[fname]["ret"]
            env = self.param_env(fname, args)
            hit = []
            for v in range(lo, hi + 1):
                env[RETURN_VALUE] = v
                if all(self.holds(e, env) for e in spec.ensures):
                    hit.append(v)
            self._stub_cache[key] = hit
        return hit

    # -- reading an instrumented text --------------------------------------

    def read_annotations(self, text: str) -> Dict[str, Spec]:
        """Per-function specs from an instrumentation of this program; raises
        OracleError when stripping the annotations does not give back the
        program's own text."""
        specs: Dict[str, Spec] = {}
        orig = 0
        anchor: Optional[Tuple] = None
        for ln in text.splitlines():
            m = _ANNOT_RE.match(ln)
            if m:
                if anchor is None:
                    raise OracleError(f"annotation outside a function or loop head: {ln!r}")
                kind, expr = m.group(1), " ".join(m.group(2).split())
                spec = specs.setdefault(anchor[1], Spec())
                if kind == "loop_invariant":
                    if anchor[0] != "loop":
                        raise OracleError(f"loop invariant on a function head: {ln!r}")
                    spec.invariants.setdefault(anchor[2], []).append(expr)
                elif anchor[0] != "head":
                    raise OracleError(f"{kind} inside a loop body: {ln!r}")
                else:
                    getattr(spec, kind).append(expr)
                continue
            if orig >= len(self.lines) or ln != self.lines[orig]:
                raise OracleError(f"line {orig + 1} differs from the program text")
            orig += 1
            anchor = self.anchors.get(orig)
        if orig != len(self.lines):
            raise OracleError("instrumented text is missing program lines")
        return specs

    # -- the two checks ----------------------------------------------------

    def _inputs(self, fname: str):
        doms = [range(hi, lo - 1, -1) for _, lo, hi in self.fn_models[fname]["params"]]
        return itertools.product(*doms)

    def check_function(self, fname: str, spec: Spec) -> Optional[Dict]:
        """None when the contract holds on every bounded input, else the
        failing execution."""
        ctx = self.ctx
        fn = self.fns[fname]
        for args in self._inputs(fname):
            env = self.param_env(fname, args)
            if not all(self.holds(r, env) for r in spec.requires):
                continue
            ctx.trace = []
            ctx.target, ctx.invariants, ctx.stubs = fname, spec.invariants, {}
            try:
                rv = fn(*args)
            except _Violation as v:
                return {"steps": ctx.trace, "kind": v.kind, "clause": v.clause,
                        "fname": v.fname, "line": v.line, "assumed": spec.requires}
            finally:
                ctx.target = None
            env[RETURN_VALUE] = rv
            for e in spec.ensures:
                if not self.holds(e, env):
                    return {"steps": ctx.trace, "kind": "postcondition", "clause": e,
                            "fname": fname, "line": self.returns[(fname, "return")],
                            "assumed": spec.requires}
        return None

    def _call_outcomes(self, callee: str, args: Tuple[int, ...], stubs: Dict[str, Spec]):
        """Every distinct execution of a concrete call under the stubs:
        ("ret", value, steps) or ("fail", violation, steps)."""
        ctx = self.ctx
        ctx.stubs = stubs
        ctx.target = None
        ctx.path, ctx.counts = [], []
        seen = set()
        out = []
        for _ in range(PATH_LIMIT):
            ctx.pos = 0
            ctx.trace = []
            try:
                rv = self.fns[callee](*args)
                if rv not in seen:
                    seen.add(rv)
                    out.append(("ret", rv, ctx.trace))
            except _Violation as v:
                out.append(("fail", v, ctx.trace))
                return out
            except _Infeasible:
                pass
            # odometer over the stub choices made on this path
            del ctx.counts[ctx.pos:]
            del ctx.path[ctx.pos:]
            while ctx.path and ctx.path[-1] + 1 >= ctx.counts[-1]:
                ctx.path.pop()
                ctx.counts.pop()
            if not ctx.path:
                return out
            ctx.path[-1] += 1
        raise OracleError(f"more than {PATH_LIMIT} paths through {callee}")

    def check_system(self, stubs: Dict[str, Spec]) -> Optional[Dict]:
        """None when the property holds on every path of main under the
        stubs, else a failing path."""
        main = self.model["main"]
        prop = self.model["property"]
        conjuncts = split_conjuncts(prop)
        defined_at: Dict[str, int] = {st[1]: k for k, st in enumerate(main)}
        due: Dict[int, List[str]] = {}
        for c in conjuncts:
            names = [n for n in identifiers(c) if n in defined_at]
            due.setdefault(max((defined_at[n] for n in names), default=-1), []).append(c)
        # live[k]: variables statements k.. or pending conjuncts still read
        live: List[Tuple[str, ...]] = []
        for k in range(len(main) + 1):
            names: set = set()
            for st in main[k:]:
                for e in ([st[2]] if st[0] == "decl" else st[3]):
                    names |= set(identifiers(e))
            for j, cs in due.items():
                if j >= k:
                    for c in cs:
                        names |= set(identifiers(c))
            live.append(tuple(sorted(n for n in names if defined_at.get(n, k) < k)))
        ctx = self.ctx
        memo: set = set()
        for c in due.get(-1, ()):
            if not self.holds(c, {}):
                return {"steps": [], "kind": "assertion", "clause": prop,
                        "fname": "main", "line": self.assert_line}

        def walk(k: int, env: Dict, failed: bool, steps: List) -> Optional[List]:
            key = (k, failed, tuple(env[v] for v in live[k]))
            if key in memo:
                return None
            memo.add(key)
            if k == len(main):
                return steps if failed else None
            st = main[k]
            line = self.main_lines[k]
            if st[0] == "decl":
                branches = [("ret", self.value(st[2], env), [])]
            else:
                args = tuple(self.value(a, env) for a in st[3])
                spec = stubs.get(st[2])
                if spec is None:
                    branches = self._call_outcomes(st[2], args, stubs)
                else:
                    penv = self.param_env(st[2], args)
                    for req in spec.requires:
                        if not self.holds(req, penv):
                            raise _Found(steps, _Violation("precondition", req, "main", line))
                    branches = [("ret", v, []) for v in self.stub_values(st[2], args, spec)]
            for kind, val, sub in branches:
                if kind == "fail":
                    raise _Found(steps + sub, val)
                env2 = dict(env)
                env2[st[1]] = val
                now_failed = failed or any(not self.holds(c, env2) for c in due.get(k, ()))
                found = walk(k + 1, env2, now_failed, steps + sub + [("main", line, st[1], val)])
                if found is not None:
                    return found
            return None

        try:
            steps = walk(0, {}, False, [])
        except _Found as f:
            v = f.violation
            return {"steps": f.steps, "kind": v.kind, "clause": v.clause,
                    "fname": v.fname, "line": v.line}
        finally:
            ctx.stubs = {}
        if steps is None:
            return None
        return {"steps": steps, "kind": "assertion", "clause": prop,
                "fname": "main", "line": self.assert_line}

    def concrete_property(self) -> bool:
        """Ground truth: does the assertion hold when nothing is stubbed?"""
        return self.check_system({}) is None

    # -- backend-style text --------------------------------------------------

    def decide(self, text: str, enforce: Optional[str]) -> str:
        """Backend output for one check of an instrumented text."""
        try:
            specs = self.read_annotations(text)
            if enforce is not None:
                spec = specs.get(enforce, Spec())
                others = sorted(n for n in specs if n != enforce)
                if others:
                    raise OracleError(f"enforce text annotates {', '.join(others)}")
                failure = self.check_function(enforce, spec)
                banner = f"Enforcing contract of function {enforce}\n"
            else:
                stubs = {n: s for n, s in specs.items() if s.has_head}
                failure = self.check_system(stubs)
                banner = "".join(f"Replacing calls to {n} with its contract\n"
                                 for n in sorted(stubs))
        except OracleError as exc:
            return HEADER + f"ERROR: {exc}\n"
        out = [HEADER, banner, "Symex completed\n"]
        if failure is None:
            out.append("\nVERIFICATION SUCCESSFUL\n")
            return "".join(out)
        out.append(render_failure(failure))
        return "".join(out)


class _Found(Exception):
    def __init__(self, steps: List, violation: _Violation):
        super().__init__(violation.clause)
        self.steps, self.violation = steps, violation


def _bits(v: int) -> str:
    b = format(v & 0xFFFFFFFF, "032b")
    return " ".join(b[i:i + 8] for i in range(0, 32, 8))


def render_failure(failure: Dict) -> str:
    lines = ["", "[Counterexample]", "", ""]
    n = 0
    for req in failure.get("assumed", ()):
        n += 1
        lines.append(f"State {n} file program.c line 1 function {failure['fname']} thread 0")
        lines.append("-" * 52)
        lines.append(f"  assume({req})")
        lines.append("")
    for fname, line, var, value in failure["steps"]:
        n += 1
        lines.append(f"State {n} file program.c line {line} column 5 function {fname} thread 0")
        lines.append("-" * 52)
        lines.append(f"  {var} = {value} ({_bits(value)})")
        lines.append("")
    lines.append("Violated property:")
    lines.append(f"  file program.c line {failure['line']} column 5 function {failure['fname']}")
    lines.append(f"  {failure['kind']}")
    lines.append(f"  {failure['clause']}")
    lines.append("")
    lines.append("")
    lines.append("VERIFICATION FAILED")
    return "\n".join(lines) + "\n"


class OracleVerifier:
    """The verifier protocol `contractor` drives, answered by the oracle of
    the one program it is built for. Results are made by parsing the oracle's
    text with the caller's own parser, exactly as for a subprocess backend."""

    def __init__(self, program: Program, parse):
        self.program = program
        self.parse = parse  # text, mode -> result object
        self.seen: List[Tuple[str, str, str]] = []  # (source, mode, output)

    def system(self, src, timeout_s=None):
        out = self.program.decide(src.text, None)
        self.seen.append((src.text, "system", out))
        return self.parse(out, "system")

    def function(self, src, name, timeout_s=None):
        out = self.program.decide(src.text, name)
        mode = f"function:{name}"
        self.seen.append((src.text, mode, out))
        return self.parse(out, mode)
