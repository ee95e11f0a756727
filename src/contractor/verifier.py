"""Driver for the bounded-model-checker backend.

One child process per check. The backend is anything that takes an annotated
C file plus mode flags and prints a verdict marker; the bundled mock
(`contractor.mock_backend`) replays recorded transcripts and is a first-class
backend choice, not a test shim, so whole runs work offline. The mock is
started as `python -I -S -c <bootstrap> <flags> <source>` (`MOCK_COMMAND`):
the bootstrap appends the directory of `mock_backend.py` to `sys.path`,
imports `mock_backend` from its cached bytecode and ends with
`mock_backend.exit_now(mock_backend.main())`. Outside `site`, the check loads
nothing a bare `python -I -S -c pass` does not load except the SHA-256
module, and `exit_now` ends the child with `posix._exit` once its reply is
flushed, skipping interpreter finalization, whose work (garbage collection,
module teardown) the driver never reads. A check thus costs interpreter
start-up plus the replay.
Every other backend is started by its own name.

Every reply is read by one rule, `parse_verifier_output`, in order: no exit
code (a timeout) is a timeout, a function-not-found message a tool error, a
failure marker a failure whatever else the reply holds, a success marker
with exit code 0 a pass, and anything else a tool error.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from . import mock_backend
from .cexpr import identifiers
from .contracts import InstrumentedSource
from .errors import BackendNotFoundError
from .mock_backend import ENFORCE_FLAG, FIXTURES_ENV

# with -I the appended directory comes after the stdlib, so it shadows nothing
_MOCK_BOOTSTRAP = ("import sys; sys.path.append(%r); "
                   "import mock_backend; mock_backend.exit_now(mock_backend.main())")
MOCK_COMMAND = (sys.executable, "-I", "-S", "-c",
                _MOCK_BOOTSTRAP % os.path.dirname(os.path.abspath(mock_backend.__file__)))
REPLACE_FLAG = "--replace-call-with-contract"
SUCCESS_MARKERS = ("VERIFICATION SUCCESSFUL",)
FAILURE_MARKERS = ("VERIFICATION FAILED",)
NOT_FOUND_MARKERS = (
    "could not find function",
    "no contract for function",
    "function not found",
)


class Status(str, Enum):
    PASS = "pass"
    FAIL = "fail"
    TIMEOUT = "timeout"
    TOOL_ERROR = "tool_error"


@dataclass(frozen=True)
class VerifierConfig:
    backend_path: str = "esbmc"
    extra_flags: Tuple[str, ...] = ()
    timeout_s: float = 600.0
    fixtures_dir: Optional[str] = None  # the backend's CONTRACTOR_MOCK_FIXTURES


@dataclass(frozen=True)
class TraceStep:
    function: str
    line: int
    assignments: Tuple[Tuple[str, str], ...]  # (name, normalized value) pairs
    kind: str = "assign"  # assign | assume | call | return
    note: str = ""


@dataclass(frozen=True)
class ParsedCounterexample:
    violated_property: str
    trace: Tuple[TraceStep, ...]
    key_variables: Tuple[Tuple[str, str], ...]

    def key_map(self) -> Dict[str, str]:
        return dict(self.key_variables)


@dataclass(frozen=True)
class VerificationResult:
    status: Status
    raw_output: str
    parsed: Optional[ParsedCounterexample]
    wall_time_s: float
    mode: str  # "system" | "function:<name>"
    command: Tuple[str, ...] = ()


_ANNOTATION_RE = re.compile(r"\s*\([^()]*\)\s*$")
_HEX_RE = re.compile(r"[+-]?0[xX]")


def normalize_value(text: str) -> str:
    """Canonical value text: a trailing parenthetical annotation dropped,
    integers in canonical decimal, whitespace collapsed. The trace parser
    reads every assigned value through it, so `150 (00000000 ... 10010110)`
    is kept, logged and shown as `150`."""
    s = text.strip()
    s = _ANNOTATION_RE.sub("", s).strip() or s
    try:
        return str(int(s, 16 if _HEX_RE.match(s) else 10))
    except ValueError:
        return " ".join(s.split())


_STATE_RE = re.compile(
    r"^State\s+\d+\s+file\s+\S+\s+line\s+(\d+)(?:\s+column\s+\d+)?"
    r"(?:\s+function\s+(\S+))?(?:\s+thread\s+\d+)?\s*$"
)
_ASSIGN_RE = re.compile(r"^\s{2,}([A-Za-z_][\w\[\]\.\->]*)\s*=\s*(.+?)\s*$")
_ASSUME_RE = re.compile(r"^\s{2,}assume\s*\((.*)\)\s*$")
_CALL_RE = re.compile(r"^\s{2,}(call|return)\s+(.*)$")


def _parse_trace(lines: Sequence[str]) -> Tuple[TraceStep, ...]:
    steps: List[TraceStep] = []
    i = 0
    while i < len(lines):
        m = _STATE_RE.match(lines[i].strip())
        if not m:
            i += 1
            continue
        line_no = int(m.group(1))
        fn = m.group(2) or ""
        i += 1
        if i < len(lines) and set(lines[i].strip()) <= {"-"} and lines[i].strip():
            i += 1  # separator rule
        assigns: List[Tuple[str, str]] = []
        kind = "assign"
        note = ""
        while i < len(lines) and lines[i].strip():
            am = _ASSUME_RE.match(lines[i])
            cm = _CALL_RE.match(lines[i])
            xm = _ASSIGN_RE.match(lines[i])
            if am:
                kind = "assume"
                note = am.group(1).strip()
            elif cm:
                kind = cm.group(1)
                note = cm.group(2).strip()
            elif xm:
                assigns.append((xm.group(1), normalize_value(xm.group(2))))
            i += 1
        if assigns or kind != "assign":
            steps.append(TraceStep(
                function=fn, line=line_no,
                assignments=tuple(assigns), kind=kind, note=note,
            ))
    return tuple(steps)


def _parse_violated(lines: Sequence[str]) -> str:
    """The expression on the last populated line of the violated-property block."""
    expr = ""
    for ln in lines:
        text = ln.strip()
        if not text:
            break
        if text.lower().startswith(("file ", "assertion")):
            tail = text[len("assertion"):].strip() if text.lower().startswith("assertion") else ""
            if tail:
                expr = tail
            continue
        expr = text
    return expr


def final_valuation(trace: Sequence[TraceStep], function: Optional[str] = None) -> Dict[str, str]:
    """Each name's last assigned value in trace, over function's steps only
    when one is given."""
    final: Dict[str, str] = {}
    for step in trace:
        if function is None or step.function == function:
            final.update(step.assignments)
    return final


def parse_verifier_output(raw: str, returncode: Optional[int] = 0,
                          ) -> Tuple[Status, Optional[ParsedCounterexample]]:
    """A reply's status by the module's rule, with its counterexample on a
    failure. returncode is None for a check stopped at its timeout; a failure
    may exit with any code (ESBMC exits 1 on one)."""
    if returncode is None:
        return Status.TIMEOUT, None
    if any(m in raw for m in NOT_FOUND_MARKERS):
        return Status.TOOL_ERROR, None
    if not any(m in raw for m in FAILURE_MARKERS):
        passed = returncode == 0 and any(m in raw for m in SUCCESS_MARKERS)
        return (Status.PASS if passed else Status.TOOL_ERROR), None

    lines = raw.splitlines()
    trace = _parse_trace(lines)
    violated = ""
    for i, ln in enumerate(lines):
        if ln.strip().lower().startswith("violated property"):
            violated = _parse_violated(lines[i + 1:])
            break

    final = final_valuation(trace)
    prop_idents = set(identifiers(violated))
    keyed = {n: v for n, v in final.items() if n.split("[")[0] in prop_idents}
    if not keyed:
        keyed = final
    parsed = ParsedCounterexample(
        violated_property=violated,
        trace=trace,
        key_variables=tuple(sorted(keyed.items())),
    )
    return Status.FAIL, parsed


class SubprocessVerifier:
    """The protocol object the refinement loop drives: one child process per
    check, named by the instrumentation's mode."""

    # each check is its own child process, so checks may run on several
    # threads at once and overlap in time
    concurrent_checks = True

    def __init__(self, cfg: VerifierConfig):
        self.cfg = cfg

    def system(self, src: InstrumentedSource, timeout_s: Optional[float] = None) -> VerificationResult:
        """Replace-mode check of the whole program: every annotated function's
        call sites use the contract stub instead of the body."""
        if src.mode != "system":
            raise ValueError("a system check needs a replace-mode instrumentation")
        flags: List[str] = []
        for name in src.functions:
            flags += [REPLACE_FLAG, name]
        return self._run(src, flags, timeout_s)

    def function(self, src: InstrumentedSource, name: str,
                 timeout_s: Optional[float] = None) -> VerificationResult:
        """Enforce-mode check of one function body against its own contract."""
        if src.mode != f"function:{name}":
            raise ValueError(f"instrumentation does not enforce {name!r}")
        return self._run(src, [ENFORCE_FLAG, name], timeout_s)

    def _run(self, src: InstrumentedSource, flags: Sequence[str],
             timeout_s: Optional[float]) -> VerificationResult:
        cfg = self.cfg
        budget = cfg.timeout_s if timeout_s is None else min(cfg.timeout_s, timeout_s)
        budget = max(budget, 0.05)
        fd, src_path = tempfile.mkstemp(prefix="contractor-", suffix=".c")
        try:
            with open(fd, "w", encoding="utf-8") as fh:
                fh.write(src.text)
            backend = MOCK_COMMAND if cfg.backend_path == "mock" else (cfg.backend_path,)
            cmd = [*backend, *flags, *cfg.extra_flags, src_path]
            env = dict(os.environ)
            if cfg.fixtures_dir:
                env[FIXTURES_ENV] = cfg.fixtures_dir
            started = time.monotonic()
            try:
                done = subprocess.run(
                    cmd,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.STDOUT,
                    timeout=budget,
                    env=env,
                )
                out, returncode = done.stdout, done.returncode
            except OSError as exc:  # missing, not executable, or no process to run it
                raise BackendNotFoundError(f"backend cannot be started: {cmd[0]}: {exc}") from exc
            except subprocess.TimeoutExpired as exc:
                out, returncode = exc.stdout or b"", None
            elapsed = time.monotonic() - started
        finally:
            os.unlink(src_path)
        raw = out.decode("utf-8", errors="replace")
        status, parsed = parse_verifier_output(raw, returncode)
        return VerificationResult(
            status=status, raw_output=raw, parsed=parsed,
            wall_time_s=elapsed, mode=src.mode, command=tuple(cmd),
        )
