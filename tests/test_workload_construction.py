"""The benchmark's construction, checked in-process: every `oraclebench`
workload program at seeds 1, 2, 3 and 7, run against the oracle's own
verifier, ends with the outcome, verdict, stage and iteration count its
construction fixes. A refinement change the benchmark would call `incorrect`
fails here first.

`tests/corpus/run_table.json` pins the SHA-256 of each program's
`canonical_run_bytes` by workload and seed, so a change that should keep
behaviour keeps every decision of every run, not only how the run ended."""

from __future__ import annotations

import hashlib
import json

import pytest

from contractor.harness import canonical_run_bytes, run_program
from contractor.refinement import PipelineConfig, Strategy
from contractor.synthesis import ScriptedLlmClient
from contractor.verifier import VerificationResult, parse_verifier_output
from conftest import CORPUS_DIR, WORKLOADS

RUN_TABLE = CORPUS_DIR / "run_table.json"
SEEDS = (1, 2, 3, 7)


def parse(out: str, mode: str) -> VerificationResult:
    status, parsed = parse_verifier_output(out)
    return VerificationResult(status=status, raw_output=out, parsed=parsed,
                              wall_time_s=0.0, mode=mode)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_program_ends_as_constructed(bench, workload):
    oracle, workloads = bench
    table = json.loads(RUN_TABLE.read_text(encoding="utf-8"))[workload]
    assert sorted(table) == sorted(map(str, SEEDS))
    for seed in SEEDS:
        programs = workloads.GENERATORS[workload](seed)
        pinned = table[str(seed)]
        assert sorted(p["name"] for p in programs) == sorted(pinned), seed
        for p in programs:
            prog = oracle.Program(p["model"])
            cfg = PipelineConfig(**dict(p["config"], strategy=Strategy(p["config"]["strategy"])))
            report = run_program(p["name"], prog.text, cfg, ScriptedLlmClient(p["script"]),
                                 oracle.OracleVerifier(prog, parse))
            got = {"outcome": report.outcome.value,
                   "verdict": report.verdict.outcome.value if report.verdict else None,
                   "stage": report.verdict.stage if report.verdict else None,
                   "iterations": report.iterations}
            where = (seed, p["name"])
            assert got == {k: p["expect"][k] for k in got}, where
            stalled = [e["mode"] for e in report.log.of_kind("verification")
                       if e["status"] in ("tool_error", "timeout")]
            assert stalled == [], where
            run_bytes = canonical_run_bytes(report.verdict, report.log)
            assert hashlib.sha256(run_bytes).hexdigest() == pinned[p["name"]], where
