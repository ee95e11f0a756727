"""Shared helpers: corpus loading, backend-output builders, in-memory
verifiers, a recording wrapper that turns any run into mock-backend
transcripts, the instrumentation round-trip oracle, and the benchmark's
workload generators."""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import pytest

from contractor.contracts import InstrumentedSource
from contractor.mock_backend import write_transcript
from contractor.verifier import (
    ParsedCounterexample,
    Status,
    VerificationResult,
    parse_verifier_output,
)

CORPUS_DIR = Path(__file__).parent / "corpus"
ORACLEBENCH = Path(__file__).resolve().parents[1] / "oraclebench"
BENCH_MODULES = ("model", "oracle", "workloads")
WORKLOADS = ("frama-small", "refine-deep", "preabs-large")


# file-scope macros and enum constants (one inside a struct body, which C
# gives file scope), a macro dropped by `#undef`, and a function-local enum
CONSTANTS_SRC = """\
#define LIMIT 10
#define CLAMP(v) \\
    ((v) > LIMIT ? LIMIT : (v))
#define TOP 3
#undef TOP
enum color { RED, GREEN = 4, BLUE };
struct box { enum { INNER = 2 } kind; int v; };
int shade;

int pick(int x) {
    enum { LOCAL = 1 };
    shade = x;
    return CLAMP(x);
}

int main() {
    int r = pick(3);
    assert(r != GREEN + 1);
    return 0;
}
"""


def corpus_paths() -> List[Path]:
    return sorted(CORPUS_DIR.glob("*.c"))


def corpus_sources() -> List[Tuple[str, str]]:
    return [(p.name, p.read_text(encoding="utf-8")) for p in corpus_paths()]


@pytest.fixture
def corpus() -> List[Tuple[str, str]]:
    return corpus_sources()


@pytest.fixture
def bench(monkeypatch):
    """The oracle and workload modules, imported from the benchmark's
    directory without writing bytecode there, and dropped from sys.modules
    afterwards."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ORACLEBENCH))
    loaded = [name for name in BENCH_MODULES if name in sys.modules]
    import oracle
    import workloads

    yield oracle, workloads
    for name in BENCH_MODULES:
        if name not in loaded:
            sys.modules.pop(name, None)


def success_output() -> str:
    return "Parsing program.c\nSymex completed\n\nVERIFICATION SUCCESSFUL\n"


def failure_output(
    violated: str,
    steps: Sequence[Dict] = (),
    at_line: int = 9,
    at_function: str = "main",
) -> str:
    """Backend-style counterexample text.

    Each step dict: {"function": str, "line": int, "assigns": [(name, value)]}
    or {"function", "line", "assume": expr}.
    """
    lines = ["[Counterexample]", ""]
    n = 0
    for step in steps:
        n += 1
        fn = step.get("function", "main")
        ln = step.get("line", 1)
        lines.append(f"State {n} file program.c line {ln} function {fn} thread 0")
        lines.append("-" * 50)
        if "assume" in step:
            lines.append(f"  assume({step['assume']})")
        for name, value in step.get("assigns", ()):
            lines.append(f"  {name} = {value}")
        lines.append("")
    lines.append("Violated property:")
    lines.append(f"  file program.c line {at_line} function {at_function}")
    lines.append("  assertion")
    lines.append(f"  {violated}")
    lines.append("")
    lines.append("VERIFICATION FAILED")
    lines.append("")
    return "\n".join(lines)


def contract_reply(
    requires: Sequence[str] = (),
    assigns: Sequence[str] = (),
    ensures: Sequence[str] = (),
    invariants: Sequence[str] = (),
    fenced: bool = True,
) -> str:
    body: List[str] = []
    for e in requires:
        body.append(f"__ESBMC_requires({e});")
    for t in assigns:
        body.append(f"__ESBMC_assigns({t});")
    for e in ensures:
        body.append(f"__ESBMC_ensures({e});")
    for e in invariants:
        body.append(f"__ESBMC_loop_invariant({e});")
    text = "\n".join(body)
    if fenced:
        return f"Here is the contract:\n```\n{text}\n```\n"
    return text


Rule = Callable[[InstrumentedSource, str], Union[str, Status]]


class RuleVerifier:
    """Check outcomes computed from the instrumented source text. The rule
    returns raw backend output (parsed like real output) or a bare Status
    for timeout/tool-error shortcuts."""

    concurrent_checks = True  # the rule reads nothing but its arguments

    def __init__(self, rule: Rule):
        self.rule = rule
        self.calls: List[Tuple[str, str]] = []

    def _run(self, src: InstrumentedSource, mode: str) -> VerificationResult:
        self.calls.append((mode, src.text))
        out = self.rule(src, mode)
        if isinstance(out, Status):
            return VerificationResult(status=out, raw_output="", parsed=None,
                                      wall_time_s=0.0, mode=mode, command=("rule",))
        status, parsed = parse_verifier_output(out)
        return VerificationResult(status=status, raw_output=out, parsed=parsed,
                                  wall_time_s=0.0, mode=mode, command=("rule",))

    def system(self, src: InstrumentedSource,
               timeout_s: Optional[float] = None) -> VerificationResult:
        return self._run(src, "system")

    def function(self, src: InstrumentedSource, name: str,
                 timeout_s: Optional[float] = None) -> VerificationResult:
        return self._run(src, f"function:{name}")


class PassVerifier(RuleVerifier):
    def __init__(self):
        super().__init__(lambda src, mode: success_output())


class RecordingVerifier:
    """Wraps a verifier and writes every (source, mode, output) triple as a
    mock-backend transcript, so the same run replays through a real
    subprocess later."""

    def __init__(self, inner, fixtures_dir: Union[str, Path]):
        self.inner = inner
        self.fixtures_dir = str(fixtures_dir)
        self.seen: List[Tuple[str, str, str]] = []  # (source, mode, output)

    def _record(self, src: InstrumentedSource, result: VerificationResult) -> None:
        write_transcript(self.fixtures_dir, src.text, src.mode, result.raw_output)
        self.seen.append((src.text, src.mode, result.raw_output))

    def system(self, src: InstrumentedSource,
               timeout_s: Optional[float] = None) -> VerificationResult:
        result = self.inner.system(src, timeout_s)
        self._record(src, result)
        return result

    def function(self, src: InstrumentedSource, name: str,
                 timeout_s: Optional[float] = None) -> VerificationResult:
        result = self.inner.function(src, name, timeout_s)
        self._record(src, result)
        return result


def strip_annotations(instr: InstrumentedSource) -> str:
    """Undo every recorded insertion; returns the original bytes."""
    text = instr.text
    # rebuild by replaying insertions against the original offsets, back to front
    pieces: List[str] = []
    cursor = 0
    shift = 0
    for inj in sorted(instr.injections, key=lambda j: j.offset):
        insert_at = inj.offset + shift
        pieces.append(text[cursor:insert_at])
        cursor = insert_at + len(inj.text)
        shift += len(inj.text)
    pieces.append(text[cursor:])
    return "".join(pieces)


def parsed_from(output: str) -> ParsedCounterexample:
    status, parsed = parse_verifier_output(output)
    assert status is Status.FAIL and parsed is not None
    return parsed
