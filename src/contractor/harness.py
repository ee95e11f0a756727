"""Batch harness: run the pipeline over one program or a directory of them.

Outcome taxonomy for a single run:

  converged    the pipeline proved the property compositionally
  system_only  the final system check passed but at least one function never
               validated its own contract, so the composition is unsound
  failed       a concrete refutation, refinement went nowhere, or an error
               (unparseable source, a client that cannot answer) ended the run
  timeout      the wall budget expired mid-run

system_only is computed here, at reporting time, from the last verified
round; the pipeline itself never claims success for it.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Dict, Optional, Sequence, Tuple

from .errors import ContractorError, DeadlineExceededError, EmptySuiteError, SourceParseError
from .program_model import parse_program
from .refinement import PipelineConfig, Verdict, VerdictOutcome, run_pipeline
from .runlog import RunLog
from .synthesis import LlmClient


class RunOutcome(str, Enum):
    CONVERGED = "converged"
    SYSTEM_ONLY = "system_only"
    FAILED = "failed"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class RunReport:
    name: str
    outcome: RunOutcome
    verdict: Optional[Verdict]
    log: RunLog
    error: Optional[str] = None

    @property
    def iterations(self) -> int:
        return self.verdict.iterations_used if self.verdict else 0

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "outcome": self.outcome.value,
            "iterations": self.iterations,
            "error": self.error,
            "verdict": self.verdict.to_dict() if self.verdict else None,
        }


def classify_outcome(verdict: Verdict) -> RunOutcome:
    if verdict.outcome is VerdictOutcome.VERIFIED:
        return RunOutcome.CONVERGED
    if verdict.outcome is VerdictOutcome.FALSIFIED:
        return RunOutcome.FAILED
    statuses = verdict.status_map()
    if verdict.system_status == "pass" and any(s != "pass" for s in statuses.values()):
        return RunOutcome.SYSTEM_ONLY
    return RunOutcome.FAILED


def run_program(
    name: str,
    source_text: str,
    cfg: PipelineConfig,
    client: LlmClient,
    verifier,
) -> RunReport:
    log = RunLog()
    log.event("program", name=name)
    try:
        model = parse_program(source_text)
    except SourceParseError as exc:
        log.event("parse_error", detail=str(exc))
        return RunReport(name=name, outcome=RunOutcome.FAILED, verdict=None,
                         log=log, error=str(exc))
    try:
        verdict = run_pipeline(model, cfg, client, verifier, log=log)
    except DeadlineExceededError as exc:
        partial = getattr(exc, "partial", None)
        log.event("timeout", detail=str(exc))
        return RunReport(name=name, outcome=RunOutcome.TIMEOUT, verdict=partial,
                         log=log, error=str(exc))
    except ContractorError as exc:
        error = f"{type(exc).__name__}: {exc}"
        log.event("error", detail=error)
        return RunReport(name=name, outcome=RunOutcome.FAILED, verdict=None,
                         log=log, error=error)
    return RunReport(name=name, outcome=classify_outcome(verdict),
                     verdict=verdict, log=log)


def iteration_histogram(reports: Sequence[RunReport]) -> Dict[int, int]:
    """Refinement-iteration counts over converged runs only."""
    hist: Dict[int, int] = {}
    for r in reports:
        if r.outcome is RunOutcome.CONVERGED:
            hist[r.iterations] = hist.get(r.iterations, 0) + 1
    return dict(sorted(hist.items()))


@dataclass(frozen=True)
class SuiteReport:
    reports: Tuple[RunReport, ...]

    def totals(self) -> Dict[str, int]:
        out = {o.value: 0 for o in RunOutcome}
        for r in self.reports:
            out[r.outcome.value] += 1
        return out

    def outcome_map(self) -> Dict[str, str]:
        return {r.name: r.outcome.value for r in self.reports}

    def histogram(self) -> Dict[int, int]:
        return iteration_histogram(self.reports)

    def to_dict(self) -> Dict:
        return {
            "totals": self.totals(),
            "histogram": {str(k): v for k, v in self.histogram().items()},
            "programs": [r.to_dict() for r in self.reports],
        }


def run_suite(
    programs: Sequence[Tuple[str, str]],
    cfg: PipelineConfig,
    client_factory: Callable[[], LlmClient],
    verifier,
    workers: int = 1,
) -> SuiteReport:
    """Run every (name, source) pair. Each program gets a fresh client so
    stateful clients cannot leak replies across programs; reports come back
    in input order no matter how the pool schedules them.

    workers spreads the programs, and each program synthesizes and checks
    serially (cfg.workers is 1 here), so a suite holds at most workers
    checks in flight, not workers * cfg.workers."""
    if not programs:
        raise EmptySuiteError("no programs to run")
    serial = replace(cfg, workers=1)

    def one(item: Tuple[str, str]) -> RunReport:
        name, source = item
        return run_program(name, source, serial, client_factory(), verifier)

    with ThreadPoolExecutor(max_workers=max(workers, 1)) as pool:
        return SuiteReport(reports=tuple(pool.map(one, programs)))


def canonical_run_bytes(verdict: Optional[Verdict], log: RunLog) -> bytes:
    """The determinism surface: everything a run decided, nothing it timed."""
    payload = {
        "verdict": verdict.to_dict() if verdict else None,
        "log": log.to_list(),
    }
    return json.dumps(payload, sort_keys=True, ensure_ascii=False).encode("utf-8")


def write_report(report: SuiteReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
