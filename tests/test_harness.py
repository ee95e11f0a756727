"""Batch runs: outcome taxonomy, per-suite aggregation, worker invariance,
and the canonical byte form used for determinism checks."""

from __future__ import annotations

import json

import pytest

from conftest import PassVerifier, RuleVerifier, contract_reply, failure_output, success_output
from contractor.errors import EmptySuiteError
from contractor.harness import (
    RunOutcome,
    RunReport,
    SuiteReport,
    canonical_run_bytes,
    classify_outcome,
    iteration_histogram,
    run_program,
    run_suite,
    write_report,
)
from contractor.refinement import (
    PipelineConfig,
    Verdict,
    VerdictOutcome,
)
from contractor.synthesis import RecordingLlmClient, ReplayLlmClient, ScriptedLlmClient
from contractor.verifier import SubprocessVerifier, VerifierConfig

INC_SRC = """\
int inc(int x) {
    return x + 1;
}

int main() {
    int a = 5;
    int b = inc(a);
    assert(b > 5);
    return 0;
}
"""

INC_REPLY = contract_reply(
    requires=("x > 0",),
    assigns=("x",),
    ensures=("__ESBMC_return_value > x",),
)

CFG = PipelineConfig(timeout_s=60.0)


def make_verdict(outcome, system_status, fn_status):
    return Verdict(
        outcome=outcome,
        stage="cegar",
        iterations_used=1,
        contracts=(),
        per_function_status=tuple(fn_status.items()),
        system_status=system_status,
    )


def test_classify_outcome_taxonomy():
    v = make_verdict(VerdictOutcome.VERIFIED, "pass", {"f": "pass"})
    assert classify_outcome(v) is RunOutcome.CONVERGED
    v = make_verdict(VerdictOutcome.FALSIFIED, "fail", {"f": "no_contract"})
    assert classify_outcome(v) is RunOutcome.FAILED
    v = make_verdict(VerdictOutcome.INCONCLUSIVE, "pass", {"f": "pass", "g": "fail"})
    assert classify_outcome(v) is RunOutcome.SYSTEM_ONLY
    v = make_verdict(VerdictOutcome.INCONCLUSIVE, "fail", {"f": "fail"})
    assert classify_outcome(v) is RunOutcome.FAILED
    # a system pass with every function green but an inconclusive verdict can
    # only mean the gate never saw them together; that is not system_only
    v = make_verdict(VerdictOutcome.INCONCLUSIVE, "pass", {"f": "pass"})
    assert classify_outcome(v) is RunOutcome.FAILED


def test_run_program_converges():
    report = run_program("inc.c", INC_SRC, CFG,
                         ScriptedLlmClient({"inc|initial": INC_REPLY}),
                         PassVerifier())
    assert report.outcome is RunOutcome.CONVERGED
    assert report.iterations == 0
    assert report.error is None
    assert report.to_dict()["verdict"]["outcome"] == "verified"
    assert report.log.of_kind("program")[0]["name"] == "inc.c"


def test_run_program_flags_unparseable_source():
    report = run_program("broken.c", "int main( { nope", CFG,
                         ScriptedLlmClient({"*": INC_REPLY}), PassVerifier())
    assert report.outcome is RunOutcome.FAILED
    assert report.verdict is None
    assert report.error
    assert report.log.of_kind("parse_error")
    assert report.iterations == 0


def test_run_program_timeout_keeps_partial_verdict():
    cfg = PipelineConfig(timeout_s=0.0)
    report = run_program("inc.c", INC_SRC, cfg,
                         ScriptedLlmClient({"inc|initial": INC_REPLY}),
                         PassVerifier())
    assert report.outcome is RunOutcome.TIMEOUT
    assert report.verdict is not None
    assert report.verdict.outcome is VerdictOutcome.INCONCLUSIVE
    assert report.log.of_kind("timeout")


BAD_SRC = """\
int bump(int x) {
    return x + 1;
}

int main() {
    int a = 5;
    int b = bump(a);
    assert(b > 9);
    return 0;
}
"""


def suite_programs():
    return [
        ("ok_a.c", INC_SRC),
        ("ok_b.c", INC_SRC),
        ("bad.c", BAD_SRC),
    ]


def suite_verifier():
    def rule(src, mode):
        if mode == "system" and "b > 9" in src.text:
            return failure_output("b > 9", steps=[
                {"function": "main", "line": 7, "assigns": [("b", "6")]}])
        return success_output()
    return RuleVerifier(rule)


def suite_factory():
    # bump's replies never parse, so bad.c keeps its function concrete and
    # the system counterexample is a real refutation
    return ScriptedLlmClient({
        "inc|initial": INC_REPLY,
        "bump|initial": "not a contract",
    })


def test_run_suite_totals_and_order():
    suite = run_suite(suite_programs(), CFG, suite_factory, suite_verifier())
    assert [r.name for r in suite.reports] == ["ok_a.c", "ok_b.c", "bad.c"]
    assert suite.totals() == {"converged": 2, "system_only": 0,
                              "failed": 1, "timeout": 0}
    assert suite.outcome_map() == {"ok_a.c": "converged", "ok_b.c": "converged",
                                   "bad.c": "failed"}
    assert suite.histogram() == {0: 2}


LOOP_FREE_SRC = """\
int dec(int i) {
    return i - 1;
}

int main() {
    int b = dec(5);
    assert(b == 4);
    return 0;
}
"""


def test_bad_loop_invariant_reply_fails_one_program_not_the_suite():
    def factory():
        # dec has no loop, so its reply's invariant has nowhere to go
        return ScriptedLlmClient({
            "inc|initial": INC_REPLY,
            "bump|initial": "not a contract",
            "dec": contract_reply(ensures=("__ESBMC_return_value == i - 1",),
                                  invariants=("i >= 0",)),
        })

    base = run_suite(suite_programs(), CFG, factory, suite_verifier())
    suite = run_suite(suite_programs() + [("loop_free.c", LOOP_FREE_SRC)], CFG,
                      factory, suite_verifier())
    assert [r.name for r in suite.reports] == ["ok_a.c", "ok_b.c", "bad.c", "loop_free.c"]
    assert {n: o for n, o in suite.outcome_map().items() if n != "loop_free.c"} \
        == base.outcome_map()
    reasons = [e["reason"] for e in suite.reports[-1].log.of_kind("synthesis")]
    assert "loop_ordinal" in reasons


def test_run_program_reports_an_exhausted_client_as_failed():
    report = run_program("inc.c", INC_SRC, CFG, ScriptedLlmClient({}), PassVerifier())
    assert report.outcome is RunOutcome.FAILED
    assert report.verdict is None
    assert report.error.startswith("ClientUnavailableError")
    assert report.log.of_kind("error")[0]["detail"] == report.error


@pytest.mark.parametrize("stored", [b"{not json", b"[]", b"{}", b'{"reply": null}', b"\xff"])
def test_a_corrupt_replay_store_fails_each_program_not_the_suite(tmp_path, stored):
    programs = [("a.c", INC_SRC), ("b.c", INC_SRC)]
    run_suite(programs, CFG, lambda: RecordingLlmClient(
        ScriptedLlmClient({"inc|initial": INC_REPLY}), str(tmp_path)), PassVerifier())
    transcripts = list(tmp_path.glob("*.json"))
    assert transcripts
    for transcript in transcripts:
        transcript.write_bytes(stored)
    suite = run_suite(programs, CFG, lambda: ReplayLlmClient(str(tmp_path)), PassVerifier())
    assert [r.outcome for r in suite.reports] == [RunOutcome.FAILED, RunOutcome.FAILED]
    assert all(r.error.startswith("ClientUnavailableError") for r in suite.reports)


@pytest.mark.parametrize("backend", ["missing", "not_executable"])
def test_a_backend_that_cannot_start_fails_each_program_not_the_suite(tmp_path, backend):
    path = tmp_path / "esbmc"
    if backend == "not_executable":
        path.write_text("#!/bin/sh\necho 'VERIFICATION SUCCESSFUL'\n")
        path.chmod(0o644)
    verifier = SubprocessVerifier(VerifierConfig(backend_path=str(path), timeout_s=5.0))
    suite = run_suite([("a.c", INC_SRC), ("b.c", INC_SRC)], CFG,
                      lambda: ScriptedLlmClient({"inc|initial": INC_REPLY}), verifier)
    assert [r.outcome for r in suite.reports] == [RunOutcome.FAILED, RunOutcome.FAILED]
    assert all(r.error.startswith("BackendNotFoundError") for r in suite.reports)


def test_run_suite_worker_invariance():
    maps = []
    for workers in (1, 3):
        suite = run_suite(suite_programs(), CFG, suite_factory,
                          suite_verifier(), workers=workers)
        maps.append((suite.outcome_map(), suite.totals(), suite.histogram()))
    assert maps[0] == maps[1]


def test_fresh_client_per_program():
    # a shared client would burn the good replies on the first program; the
    # factory isolates each run
    made = []

    def factory():
        c = ScriptedLlmClient({"inc|initial": INC_REPLY})
        made.append(c)
        return c

    suite = run_suite([("a.c", INC_SRC), ("b.c", INC_SRC)], CFG, factory,
                      PassVerifier())
    assert len(made) == 2
    assert suite.totals()["converged"] == 2


def test_empty_suite_raises():
    with pytest.raises(EmptySuiteError):
        run_suite([], CFG, suite_factory, PassVerifier())


def test_iteration_histogram_counts_converged_only():
    from contractor.runlog import RunLog

    def fake(outcome, iters):
        v = Verdict(outcome=VerdictOutcome.VERIFIED, stage="cegar",
                    iterations_used=iters, contracts=(),
                    per_function_status=(), system_status="pass")
        return RunReport(name=f"p{iters}", outcome=outcome, verdict=v, log=RunLog())

    reports = [
        fake(RunOutcome.CONVERGED, 0),
        fake(RunOutcome.CONVERGED, 0),
        fake(RunOutcome.CONVERGED, 3),
        fake(RunOutcome.FAILED, 2),
        fake(RunOutcome.TIMEOUT, 1),
    ]
    assert iteration_histogram(reports) == {0: 2, 3: 1}


def test_canonical_bytes_stable_across_runs():
    blobs = set()
    for _ in range(3):
        report = run_program("inc.c", INC_SRC, CFG,
                             ScriptedLlmClient({"inc|initial": INC_REPLY}),
                             PassVerifier())
        blobs.add(canonical_run_bytes(report.verdict, report.log))
    assert len(blobs) == 1
    payload = json.loads(blobs.pop())
    assert payload["verdict"]["outcome"] == "verified"
    assert isinstance(payload["log"], list)


def test_write_report_round_trips(tmp_path):
    suite = run_suite(suite_programs(), CFG, suite_factory, suite_verifier())
    out = tmp_path / "report.json"
    write_report(suite, str(out))
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["totals"]["converged"] == 2
    assert data["histogram"] == {"0": 2}
    assert [p["name"] for p in data["programs"]] == ["ok_a.c", "ok_b.c", "bad.c"]
