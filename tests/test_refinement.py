"""End-to-end pipeline behavior with scripted replies and rule-driven check
outcomes: convergence, dropping and reseeding, strengthening after a system
counterexample, stagnation handling, escalation, refutation, budgets, the
wall clock, and the layered abstraction strategy."""

from __future__ import annotations

import ast
import importlib.util
import inspect
import os
import sys
import threading
import time
from pathlib import Path
from typing import Dict

import pytest

from conftest import (
    CONSTANTS_SRC,
    PassVerifier,
    RuleVerifier,
    contract_reply,
    failure_output,
    success_output,
)
from contractor.contracts import ContractOrigin
from contractor.errors import ClientUnavailableError, DeadlineExceededError
from contractor.harness import RunOutcome, classify_outcome
from contractor.ice import (
    DIAGNOSTIC_EXAMPLE_LIMIT,
    IMPLICATION_SECTION,
    NEGATIVE_SECTION,
    POSITIVE_SECTION,
    IceDatabase,
)
from contractor.program_model import parse_program
from contractor.refinement import (
    PipelineConfig,
    Strategy,
    VerdictOutcome,
    run_pipeline,
)
from contractor.runlog import RunLog
from contractor.synthesis import ScriptedLlmClient
from contractor.verifier import Status, VerificationResult

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


def run(src: str, script, verifier, **cfg_kw):
    model = parse_program(src)
    cfg = PipelineConfig(**{"timeout_s": 60.0, **cfg_kw})
    client = ScriptedLlmClient(script)
    log = RunLog()
    verdict = run_pipeline(model, cfg, client, verifier, log=log)
    return verdict, log, client, verifier


def kinds(log: RunLog):
    return [e["event"] for e in log.events]


def prompts(log: RunLog, intent: str = None):
    out = []
    for e in log.of_kind("synthesis"):
        if intent is None or e["intent"] == intent:
            out.append(e["prompt"])
    return out


def test_initial_convergence():
    verdict, log, client, _ = run(INC_SRC, {"inc|initial": INC_REPLY}, PassVerifier())
    assert verdict.outcome is VerdictOutcome.VERIFIED
    assert verdict.stage == "initial"
    assert verdict.iterations_used == 0
    assert verdict.system_status == "pass"
    assert verdict.status_map() == {"inc": "pass"}
    assert verdict.contract_map()["inc"].ensures == ("__ESBMC_return_value > x",)
    assert client.calls == [{"function": "inc", "intent": "initial"}]


def test_unparseable_replies_leave_functions_concrete_and_falsify():
    rule = lambda src, mode: (
        failure_output("b > 5", steps=[{"function": "main", "line": 7,
                                        "assigns": [("a", "5"), ("b", "5")]}])
        if mode == "system" else success_output()
    )
    verdict, log, client, verifier = run(
        INC_SRC, {"*": "I cannot produce a contract for this."}, RuleVerifier(rule)
    )
    assert verdict.outcome is VerdictOutcome.FALSIFIED
    assert verdict.falsified_property == "b > 5"
    assert verdict.stage == "initial"
    assert verdict.status_map() == {"inc": "no_contract"}
    assert verdict.contracts == ()
    assert verdict.system_status == "fail"
    # three parse attempts (retries=2), then the function stays concrete
    assert len(client.calls) == 3
    assert any(e["category"] in ("unparsed", "syntax_error")
               for e in log.of_kind("classification"))
    # only the system check ran; it stubbed nothing, so it blames nothing
    assert [mode for mode, _ in verifier.calls] == ["system"]
    assert log.of_kind("weakest_link") == []


TWO_FN_SRC = """\
int produce(int x) {
    return x + 2;
}

int shift(int y) {
    return y + 1;
}

int main() {
    int v = produce(1);
    int w = shift(v);
    assert(w > 3);
    return 0;
}
"""


def test_failed_function_contract_is_dropped_then_relaxed():
    script = {
        "produce|initial": contract_reply(
            assigns=("x",), ensures=("__ESBMC_return_value == x + 2",)),
        "shift|initial": contract_reply(
            assigns=("y",), ensures=("__ESBMC_return_value == y + 5",)),
        "shift|relax": contract_reply(
            assigns=("y",), ensures=("__ESBMC_return_value == y + 1",)),
    }

    def rule(src, mode):
        if mode == "function:shift" and "y + 5" in src.text:
            return failure_output(
                "(y + 5) == __ESBMC_return_value",
                steps=[{"function": "shift", "line": 6,
                        "assigns": [("y", "3"), ("__ESBMC_return_value", "4")]}],
                at_function="shift")
        return success_output()

    # serial checks, so the backend sees them in the order asserted below
    verdict, log, client, verifier = run(TWO_FN_SRC, script, RuleVerifier(rule), workers=1)
    assert verdict.outcome is VerdictOutcome.VERIFIED
    assert verdict.stage == "cegar"
    assert verdict.iterations_used == 1
    drops = log.of_kind("drop")
    assert len(drops) == 1
    assert drops[0]["functions"] == ["shift"]
    assert drops[0]["survivors"] == ["produce"]
    assert verdict.contract_map()["shift"].ensures == ("__ESBMC_return_value == y + 1",)
    # the dropped-survivor system check ran between the two full rounds; the
    # second round's produce check repeats the first one's text, so it is
    # answered from the program's check memo
    modes = [mode for mode, _ in verifier.calls]
    assert modes == ["system", "function:produce", "function:shift",
                     "system",
                     "system", "function:shift"]
    assert len(log.of_kind("verification")) == 7


CHAIN_SRC = """\
int gain(int s) {
    return s + 4;
}

int route(int t) {
    return t + 1;
}

int main() {
    int a = gain(2);
    int b = route(a);
    assert(a > 4 && b > a);
    return 0;
}
"""

CHAIN_SCRIPT = {
    "gain|initial": contract_reply(
        assigns=("s",), ensures=("__ESBMC_return_value > s",)),
    "gain|strengthen": contract_reply(
        assigns=("s",), ensures=("__ESBMC_return_value == s + 4",)),
    "route|initial": contract_reply(
        assigns=("t",), ensures=("__ESBMC_return_value == t + 1",)),
}


def chain_rule(src, mode):
    if mode == "system" and "__ESBMC_return_value == s + 4" not in src.text:
        return failure_output(
            "a > 4 && b > a",
            steps=[{"function": "main", "line": 10, "assigns": [("a", "3")]},
                   {"function": "main", "line": 11, "assigns": [("b", "4")]}])
    return success_output()


def test_system_counterexample_strengthens_the_weakest_contract():
    verdict, log, client, _ = run(CHAIN_SRC, dict(CHAIN_SCRIPT), RuleVerifier(chain_rule))
    assert verdict.outcome is VerdictOutcome.VERIFIED
    assert verdict.stage == "cegar"
    assert verdict.iterations_used == 1
    assert verdict.contract_map()["gain"].ensures == ("__ESBMC_return_value == s + 4",)

    links = log.of_kind("weakest_link")
    assert links and links[0]["chosen"] == "gain"
    assert links[0]["fallback"] is False
    asks = [e["function"] for e in log.of_kind("synthesis") if e["intent"] == "strengthen"]
    assert asks and set(asks) == {"gain"}
    assert any(e["action"] == "admitted_negative" for e in log.of_kind("db"))

    strengthen_prompts = prompts(log, "strengthen")
    assert strengthen_prompts
    assert "(E-)" in strengthen_prompts[0]
    assert "(E+)" in strengthen_prompts[0]


def test_no_ice_strengthens_without_example_sections():
    verdict, log, client, _ = run(CHAIN_SRC, dict(CHAIN_SCRIPT),
                                  RuleVerifier(chain_rule), strategy=Strategy.NO_ICE)
    assert verdict.outcome is VerdictOutcome.VERIFIED
    assert verdict.iterations_used == 1
    assert log.of_kind("db") == []
    for p in prompts(log):
        assert "(E+)" not in p
        assert "(E-)" not in p
    # the raw trace still reaches the strengthen prompt
    assert any("a = 3" in p for p in prompts(log, "strengthen"))


STEP_SRC = """\
int step(int z) {
    return z + 1;
}

int main() {
    int q = step(0);
    assert(q >= 1);
    return 0;
}
"""


def step_rule(bad_marker: str):
    def rule(src, mode):
        if mode == "function:step" and bad_marker in src.text:
            return failure_output(
                "contract postcondition",
                steps=[{"function": "step", "line": 2,
                        "assigns": [("z", "0"), ("__ESBMC_return_value", "-7")]}],
                at_function="step")
        return success_output()
    return rule


def test_stagnation_triggers_clause_reduction():
    poisoned = contract_reply(
        assigns=("z",),
        ensures=("__ESBMC_return_value >= 1", "__ESBMC_return_value < 0"),
    )
    script = {"step|initial": poisoned, "step|relax": poisoned}
    verdict, log, client, _ = run(STEP_SRC, script, RuleVerifier(step_rule("< 0")))
    assert verdict.outcome is VerdictOutcome.VERIFIED
    assert verdict.stage == "cegar"
    assert verdict.iterations_used == 1
    assert log.of_kind("stagnation")
    dd = log.of_kind("delta_debug")
    assert dd and dd[0]["removed"] == ["__ESBMC_return_value < 0"]
    reduced = verdict.contract_map()["step"]
    assert reduced.ensures == ("__ESBMC_return_value >= 1",)
    assert reduced.origin is ContractOrigin.DELTA_REDUCED


def test_cegis_escalation_converges():
    script = {
        "step|initial": contract_reply(assigns=("z",),
                                       ensures=("__ESBMC_return_value < -5",)),
        "step|relax": contract_reply(assigns=("z",),
                                     ensures=("__ESBMC_return_value < -6",)),
        "step|cegis": contract_reply(assigns=("z",),
                                     ensures=("__ESBMC_return_value >= 1",)),
    }
    verdict, log, client, _ = run(STEP_SRC, script, RuleVerifier(step_rule("< -")),
                                  k_cegar=1)
    assert verdict.outcome is VerdictOutcome.VERIFIED
    assert verdict.stage == "cegis"
    assert verdict.iterations_used == 2
    loops = [(e["loop"], e["index"]) for e in log.of_kind("iteration")]
    assert loops == [("cegar", 1), ("cegis", 1)]
    assert log.of_kind("cegis_migrate")
    assert verdict.contract_map()["step"].origin is ContractOrigin.CEGIS
    cegis_prompts = prompts(log, "cegis")
    assert cegis_prompts and "(E-)" in cegis_prompts[0]


def test_budget_exhaustion_is_inconclusive():
    wrong = lambda n: contract_reply(assigns=("z",),
                                     ensures=(f"__ESBMC_return_value < -{n}",))
    script = {
        "step|initial": wrong(5),
        "step|relax": [wrong(6), wrong(7)],
        "step|cegis": [wrong(8), wrong(9)],
    }
    verdict, log, client, _ = run(STEP_SRC, script, RuleVerifier(step_rule("< -")),
                                  k_cegar=2, k_cegis=2)
    assert verdict.outcome is VerdictOutcome.INCONCLUSIVE
    assert verdict.stage == "cegis"
    assert verdict.iterations_used == 4
    assert verdict.system_status == "pass"
    assert verdict.status_map() == {"step": "fail"}
    assert log.of_kind("budget_exhausted")
    loops = [(e["loop"], e["index"]) for e in log.of_kind("iteration")]
    assert loops == [("cegar", 1), ("cegar", 2), ("cegis", 1), ("cegis", 2)]


def test_total_budget_caps_both_loops():
    wrong = lambda n: contract_reply(assigns=("z",),
                                     ensures=(f"__ESBMC_return_value < -{n}",))
    script = {
        "step|initial": wrong(1),
        "step|relax": [wrong(2), wrong(3), wrong(4)],
        "step|cegis": wrong(5),
    }
    verdict, log, client, _ = run(STEP_SRC, script, RuleVerifier(step_rule("< -")),
                                  k_cegar=5, k_cegis=5, total_budget=3)
    assert verdict.outcome is VerdictOutcome.INCONCLUSIVE
    assert verdict.iterations_used == 3
    loops = [(e["loop"], e["index"]) for e in log.of_kind("iteration")]
    assert loops == [("cegar", 1), ("cegar", 2), ("cegar", 3)]


def test_wall_budget_raises_with_partial_verdict():
    with pytest.raises(DeadlineExceededError) as exc:
        run(INC_SRC, {"inc|initial": INC_REPLY}, PassVerifier(), timeout_s=0.0)
    partial = exc.value.partial
    assert partial.outcome is VerdictOutcome.INCONCLUSIVE
    assert partial.stage == "initial"
    assert partial.iterations_used == 0


def test_dereference_assigns_targets_are_stripped_and_logged():
    reply = contract_reply(requires=("x > 0",), assigns=("x", "*x"),
                           ensures=("__ESBMC_return_value > x",))
    verdict, log, client, _ = run(INC_SRC, {"inc|initial": reply}, PassVerifier())
    assert verdict.outcome is VerdictOutcome.VERIFIED
    assert verdict.contract_map()["inc"].assigns == ("x",)
    stripped = log.of_kind("assigns_stripped")
    assert stripped and stripped[0]["stripped"] == ["*x"]


PRE_ABS_SRC = """\
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
    assert(y >= 10);
    return 0;
}
"""


def test_pre_abstraction_converges_with_mixed_tiers():
    script = {
        "deep|overapproximate": contract_reply(
            assigns=("n",), ensures=("__ESBMC_return_value >= 0",)),
        "lift|initial": contract_reply(
            assigns=("k",), ensures=("__ESBMC_return_value == k + 10",)),
    }
    verdict, log, client, _ = run(PRE_ABS_SRC, script, PassVerifier(),
                                  strategy=Strategy.PRE_ABSTRACTION)
    assert verdict.outcome is VerdictOutcome.VERIFIED
    assert verdict.stage == "pre_abstraction:3"
    assert verdict.iterations_used == 0
    assert verdict.contract_map()["deep"].origin is ContractOrigin.LLM_ABSTRACTION
    assert verdict.contract_map()["lift"].origin is ContractOrigin.LLM_PRECISE
    stages = [e["stage"] for e in log.of_kind("phase")]
    assert stages == ["initial", "pre_abstraction:1a", "pre_abstraction:1b",
                      "pre_abstraction:2", "pre_abstraction:3"]


def test_pre_abstraction_flags_ensures_that_cover_nothing():
    script = {
        "deep|overapproximate": contract_reply(
            assigns=("n",), ensures=("__ESBMC_return_value >= 0",)),
        "lift|initial": [contract_reply(ensures=("1 > 0",)),
                         contract_reply(ensures=("2 > 1",))],
    }
    verdict, log, client, _ = run(PRE_ABS_SRC, script, PassVerifier(),
                                  strategy=Strategy.PRE_ABSTRACTION)
    assert verdict.outcome is VerdictOutcome.VERIFIED
    warnings = log.of_kind("coverage_warning")
    assert len(warnings) == 1
    assert warnings[0]["function"] == "lift"
    assert warnings[0]["wanted"] == ["__ESBMC_return_value", "k"]
    assert verdict.contract_map()["lift"].ensures == ("2 > 1",)
    # the retry carried the coverage hint
    lift_prompts = [e["prompt"] for e in log.of_kind("synthesis")
                    if e["function"] == "lift"]
    assert len(lift_prompts) == 2
    assert "mentioned none of" in lift_prompts[1]


SUBST_SRC = PRE_ABS_SRC.replace("assert(y >= 10);", "assert(y >= 15);")


def test_pre_abstraction_substitutes_verified_precise_contracts():
    script = {
        "deep|overapproximate": contract_reply(
            assigns=("n",), ensures=("__ESBMC_return_value >= 0",)),
        "deep|initial": contract_reply(
            assigns=("n",), ensures=("__ESBMC_return_value >= 5",)),
        "lift|initial": contract_reply(
            assigns=("k",), ensures=("__ESBMC_return_value == k + 10",)),
    }

    def rule(src, mode):
        if mode == "system" and "__ESBMC_return_value >= 5" not in src.text:
            return failure_output(
                "y >= 15",
                steps=[{"function": "main", "line": 14, "assigns": [("x", "0")]},
                       {"function": "main", "line": 15, "assigns": [("y", "10")]}])
        return success_output()

    verdict, log, client, _ = run(SUBST_SRC, script, RuleVerifier(rule),
                                  strategy=Strategy.PRE_ABSTRACTION)
    assert verdict.outcome is VerdictOutcome.VERIFIED
    assert verdict.stage == "pre_abstraction:5"
    assert verdict.iterations_used == 0
    subs = log.of_kind("substitute")
    assert subs == [{"event": "substitute", "function": "deep", "kept": "precise"}]
    assert verdict.contract_map()["deep"].ensures == ("__ESBMC_return_value >= 5",)


def test_pre_abstraction_classifies_an_unusable_precise_reply():
    script = {
        "deep|overapproximate": contract_reply(
            assigns=("n",), ensures=("__ESBMC_return_value >= 0",)),
        "deep|initial": "I cannot produce a contract for this.",
        "strengthen": contract_reply(
            assigns=("n",), ensures=("__ESBMC_return_value >= 5",)),
        "lift|initial": contract_reply(
            assigns=("k",), ensures=("__ESBMC_return_value == k + 10",)),
    }

    def rule(src, mode):
        if mode == "system" and "__ESBMC_return_value >= 5" not in src.text:
            return failure_output(
                "y >= 15",
                steps=[{"function": "main", "line": 14, "assigns": [("x", "0")]},
                       {"function": "main", "line": 15, "assigns": [("y", "10")]}])
        return success_output()

    verdict, log, _, _ = run(SUBST_SRC, script, RuleVerifier(rule),
                             strategy=Strategy.PRE_ABSTRACTION)
    assert verdict.outcome is VerdictOutcome.VERIFIED
    assert verdict.stage == "cegar"
    stages = [e.get("stage") for e in log.events]
    start = stages.index("pre_abstraction:4")
    end = stages.index("pre_abstraction:5")
    phase4 = log.events[start + 1:end]
    assert [e["event"] for e in phase4] == ["synthesis"] * 3 + ["classification"]
    assert phase4[-1]["function"] == "deep"
    assert phase4[-1]["category"] == "syntax_error"
    assert "substitute" not in kinds(log)


def test_phase_1b_keeps_a_coverage_retry_that_covers():
    script = {
        "deep|overapproximate": contract_reply(
            assigns=("n",), ensures=("__ESBMC_return_value >= 0",)),
        "lift|initial": [contract_reply(ensures=("1 > 0",)),
                         contract_reply(ensures=("__ESBMC_return_value == k + 10",))],
    }
    verdict, log, client, _ = run(PRE_ABS_SRC, script, PassVerifier(),
                                  strategy=Strategy.PRE_ABSTRACTION)
    assert verdict.outcome is VerdictOutcome.VERIFIED
    assert verdict.contract_map()["lift"].ensures == ("__ESBMC_return_value == k + 10",)
    assert "coverage_warning" not in kinds(log)


def test_phase_1b_leaves_a_function_whose_reply_never_parses_concrete():
    script = {
        "deep|overapproximate": contract_reply(
            assigns=("n",), ensures=("__ESBMC_return_value >= 0",)),
        "deep|initial": contract_reply(
            assigns=("n",), ensures=("__ESBMC_return_value >= 0",)),
        "lift|initial": "I cannot produce a contract for this.",
    }
    verdict, log, client, _ = run(PRE_ABS_SRC, script, PassVerifier(),
                                  strategy=Strategy.PRE_ABSTRACTION, total_budget=0)
    assert verdict.outcome is VerdictOutcome.INCONCLUSIVE
    assert verdict.status_map() == {"deep": "pass", "lift": "no_contract"}
    # three parse attempts, no coverage retry, one classification
    assert client.calls.count({"function": "lift", "intent": "initial"}) == 3
    assert [(e["function"], e["category"]) for e in log.of_kind("classification")] == [
        ("lift", "syntax_error")]
    assert "coverage_warning" not in kinds(log)


@pytest.mark.parametrize("outcome, events", [
    ("fail", [("classification", "semantic")]),
    (Status.TIMEOUT, [("classification", "tool_error"), ("tool_quarantine", "timeout")]),
], ids=["fail", "timeout"])
def test_stage_four_keeps_the_abstraction_its_precise_check_does_not_pass(outcome, events):
    script = {
        "deep|overapproximate": contract_reply(
            assigns=("n",), ensures=("__ESBMC_return_value >= 0",)),
        "deep|initial": contract_reply(
            assigns=("n",), ensures=("__ESBMC_return_value >= 5",)),
        "lift|initial": contract_reply(
            assigns=("k",), ensures=("__ESBMC_return_value == k + 10",)),
    }

    def rule(src, mode):
        if mode == "function:deep" and "__ESBMC_return_value >= 5" in src.text:
            return outcome if outcome is Status.TIMEOUT else failure_output(
                "__ESBMC_return_value >= 5", at_function="deep",
                steps=[{"function": "deep", "line": 5, "assigns": [("n", "1")]}])
        if mode == "system":
            return failure_output("y >= 15", steps=[
                {"function": "main", "line": 15, "assigns": [("y", "10")]}])
        return success_output()

    verdict, log, _, _ = run(SUBST_SRC, script, RuleVerifier(rule),
                             strategy=Strategy.PRE_ABSTRACTION, total_budget=0)
    assert verdict.outcome is VerdictOutcome.INCONCLUSIVE
    assert verdict.contract_map()["deep"].origin is ContractOrigin.LLM_ABSTRACTION
    assert verdict.status_map()["deep"] == "pass"
    stages = [e.get("stage") for e in log.events]
    phase4 = log.events[stages.index("pre_abstraction:4") + 1:stages.index("pre_abstraction:5")]
    assert [e["event"] for e in phase4] == ["synthesis", "verification", "substitute"] + [
        kind for kind, _ in events]
    assert phase4[2] == {"event": "substitute", "function": "deep", "kept": "abstraction"}
    assert [(e["event"], e.get("category", e.get("status"))) for e in phase4[3:]] == events
    assert all(e["function"] == "deep" for e in phase4[3:])


@pytest.mark.parametrize("outcome, events", [
    ("fail", ["classification", "weakest_link"]),
    (Status.TIMEOUT, ["classification", "tool_quarantine"]),
    (Status.TOOL_ERROR, ["classification", "tool_quarantine"]),
], ids=["fail", "timeout", "tool_error"])
def test_a_non_passing_system_check_is_classified_once(outcome, events):
    rule = lambda src, mode: success_output() if mode != "system" else (
        outcome if isinstance(outcome, Status) else failure_output(
            "b > 5", steps=[{"function": "main", "line": 7, "assigns": [("b", "5")]}]))
    verdict, log, _, _ = run(INC_SRC, {"inc|initial": INC_REPLY}, RuleVerifier(rule),
                             total_budget=0)
    assert verdict.outcome is VerdictOutcome.INCONCLUSIVE
    assert verdict.system_status == (outcome if isinstance(outcome, Status) else Status.FAIL).value
    held = [e for e in log.events if e.get("function") == "__system__" or
            e["event"] == "weakest_link"]
    assert [e["event"] for e in held] == events


def test_a_failing_contract_with_no_ensures_is_not_reduced():
    no_ensures = contract_reply(requires=("z > 100",), assigns=("z",))
    verifier = RuleVerifier(step_rule("z > 100"))
    verdict, log, client, _ = run(STEP_SRC, {"step|initial": no_ensures, "step|relax": no_ensures},
                                  verifier, k_cegis=0)
    assert verdict.outcome is VerdictOutcome.INCONCLUSIVE
    assert verdict.status_map() == {"step": "fail"}
    assert log.of_kind("stagnation")
    assert "delta_debug" not in kinds(log)
    # the relaxed round read the memo; the skipped reduction checked nothing
    assert [mode for mode, _ in verifier.calls].count("function:step") == 1


class SlowFunctionVerifier(RuleVerifier):
    """Checks by rule; a function check takes delay seconds first."""

    def __init__(self, rule, delay: float):
        super().__init__(rule)
        self.delay = delay

    def function(self, src, name, timeout_s=None):
        time.sleep(self.delay)
        return super().function(src, name, timeout_s)


@pytest.mark.parametrize("stage, k_cegar", [("cegar", 5), ("cegis", 0)])
def test_a_round_that_starts_after_the_budget_asks_no_model(stage, k_cegar):
    # the initial round's function check ends past the deadline and the
    # system check fails, so the next round's turn comes with no budget left
    rule = lambda src, mode: success_output() if mode != "system" else failure_output(
        "b > 5", steps=[{"function": "main", "line": 7, "assigns": [("b", "5")]}])
    client = ScriptedLlmClient({"*": INC_REPLY})
    log = RunLog()
    with pytest.raises(DeadlineExceededError) as exc:
        run_pipeline(parse_program(INC_SRC), PipelineConfig(timeout_s=0.5, k_cegar=k_cegar),
                     client, SlowFunctionVerifier(rule, 0.6), log=log)
    assert (exc.value.partial.stage, exc.value.partial.iterations_used) == (stage, 0)
    assert client.calls == [{"function": "inc", "intent": "initial"}]
    assert "iteration" not in kinds(log)


MULTI_LOW_SRC = """\
int gain(int a) {
    return a + 2;
}

int trim(int b) {
    return b - 1;
}

int deep(int n) {
    if (n <= 0) {
        return 0;
    }
    return deep(n - 1) + 1;
}

int main() {
    int x = deep(4);
    int y = gain(x);
    int z = trim(y);
    assert(z >= 0);
    return 0;
}
"""

MULTI_LOW_SCRIPT = {
    "gain|initial": contract_reply(assigns=("a",),
                                   ensures=("__ESBMC_return_value == a + 2",)),
    "trim|initial": contract_reply(assigns=("b",),
                                   ensures=("__ESBMC_return_value == b - 1",)),
    "deep|overapproximate": contract_reply(assigns=("n",),
                                           ensures=("__ESBMC_return_value >= 0",)),
}


def test_parallel_synthesis_keeps_log_order():
    from contractor.harness import canonical_run_bytes

    runs = []
    for workers in (1, 3):
        verdict, log, client, _ = run(MULTI_LOW_SRC, dict(MULTI_LOW_SCRIPT),
                                      PassVerifier(),
                                      strategy=Strategy.PRE_ABSTRACTION,
                                      workers=workers)
        assert verdict.outcome is VerdictOutcome.VERIFIED
        runs.append(canonical_run_bytes(verdict, log))
    assert runs[0] == runs[1]
    # synthesis entries appear in declaration order regardless of worker count
    order = [e["function"] for e in log.of_kind("synthesis")]
    assert order == ["deep", "gain", "trim"]


def test_verdict_to_dict_shape():
    verdict, _, _, _ = run(INC_SRC, {"inc|initial": INC_REPLY}, PassVerifier())
    d = verdict.to_dict()
    assert d["outcome"] == "verified"
    assert d["contracts"]["inc"]["ensures"] == ["__ESBMC_return_value > x"]
    assert d["per_function_status"] == {"inc": "pass"}
    assert d["system_status"] == "pass"


# -- soundness after clause reduction -----------------------------------------

LOOSE_SRC = """\
int f(int x) {
    int r = x + 1;
    return r;
}

int main() {
    int b = f(3);
    assert(b == 4);
    return 0;
}
"""


def loose_run():
    # f cannot prove "== 4" on its own, so delta debugging keeps only "> x",
    # which no longer implies b == 4
    reply = contract_reply(ensures=("__ESBMC_return_value > x",
                                    "__ESBMC_return_value == 4"))

    def rule(src, mode):
        tight = "__ESBMC_return_value == 4" in src.text
        if mode == "function:f":
            if not tight:
                return success_output()
            return failure_output(
                "__ESBMC_return_value == 4",
                steps=[{"function": "f", "line": 3, "assigns": [("x", "0"), ("r", "1")]}],
                at_function="f")
        if tight or "__ESBMC_return_value" not in src.text:
            return success_output()
        return failure_output(
            "b == 4", steps=[{"function": "main", "line": 7, "assigns": [("b", "5")]}])

    return run(LOOSE_SRC, {"*": reply}, RuleVerifier(rule))


def test_reduced_contract_is_rechecked_against_the_property():
    # the gate must see the system failure under the reduced contract
    verdict, log, _, _ = loose_run()
    assert verdict.outcome is not VerdictOutcome.VERIFIED
    kinds_seen = kinds(log)
    dd = kinds_seen.index("delta_debug")
    assert log.events[dd]["kept"] == ["__ESBMC_return_value > x"]
    after = [e for e in log.events[dd + 1:] if e["event"] == "verification"]
    assert after[0]["mode"] == "system" and after[0]["status"] == "fail"


def test_system_only_failure_asks_cegis_for_the_weakest_link():
    # after the reduction only the system check fails; CEGIS must still ask
    verdict, log, _, _ = loose_run()
    cegis = log.events[kinds(log).index("cegis_migrate"):]
    assert cegis[1]["event"] == "synthesis"
    assert cegis[1]["function"] == "f" and cegis[1]["intent"] == "cegis"
    asked, iterations = False, 0
    for e in cegis:
        if e["event"] == "synthesis" and e["intent"] == "cegis":
            asked = True
        elif e["event"] == "iteration":
            # the event names what the round asked for, not the empty failing set
            assert e["loop"] == "cegis" and asked and e["failing"] == ["f"], e
            asked, iterations = False, iterations + 1
    assert iterations == 5


# -- no serial check that cannot change the outcome ---------------------------

ACC_STEP_SRC = """\
int acc(int n) {
    int s = 0;
    int i = 0;
    while (i < n) {
        s = s + 2;
        i = i + 1;
    }
    return s;
}

int step(int z) {
    return z + 1;
}

int main() {
    int t = acc(3);
    int q = step(0);
    assert(q >= 1 && t == 6);
    return 0;
}
"""

ACC_INVARIANT = "i >= 0 && i <= n && s == i * 3"
ACC_REPLY = contract_reply(requires=("n >= 0",),
                           ensures=("__ESBMC_return_value == n * 2",
                                    "__ESBMC_return_value >= 0"),
                           invariants=(ACC_INVARIANT,))
STEP_POISONED = contract_reply(assigns=("z",),
                               ensures=("__ESBMC_return_value >= 1", "__ESBMC_return_value < 0"))


def acc_rule(violated: str):
    """acc's check fails on violated while "n * 2" is in its contract; step's
    fails on "< 0"; the system passes."""
    def rule(src, mode):
        if mode == "function:acc" and "n * 2" in src.text:
            return failure_output(
                violated, at_function="acc",
                steps=[{"function": "acc", "line": 5, "assigns": [("i", "1"), ("s", "2")]}])
        return step_rule("< 0")(src, mode)
    return rule


def acc_step_run(violated: str = ACC_INVARIANT, **cfg_kw):
    script = {"acc": ACC_REPLY, "step": STEP_POISONED}
    return run(ACC_STEP_SRC, script, RuleVerifier(acc_rule(violated)), **cfg_kw)


def acc_checks(verifier):
    return [text for mode, text in verifier.calls if mode == "function:acc"]


def test_a_failing_loop_invariant_spends_no_reduction_check():
    _, log, _, verifier = acc_step_run(k_cegis=0)
    dd = {e["function"]: e for e in log.of_kind("delta_debug")}
    assert dd["acc"] == {"event": "delta_debug", "function": "acc",
                         "kept": ["__ESBMC_return_value == n * 2", "__ESBMC_return_value >= 0"],
                         "removed": [], "checks": 0, "irreducible": True}
    # acc's one contract reached the backend once; no trial dropped a clause
    assert len(acc_checks(verifier)) == 1
    assert dd["step"]["removed"] == ["__ESBMC_return_value < 0"]


def test_a_failing_ensures_still_runs_the_search():
    verdict, log, _, verifier = acc_step_run(violated="__ESBMC_return_value == n * 2",
                                             k_cegis=0)
    dd = {e["function"]: e for e in log.of_kind("delta_debug")}
    assert dd["acc"]["removed"] == ["__ESBMC_return_value == n * 2"]
    # one of the four trials repeats a phase-1 render, so it is a memo hit
    # that the event does not count
    assert dd["acc"]["checks"] == 3 and len(acc_checks(verifier)) == 4
    # every target passes after the reduction, so the system is checked
    # under the reduced set and the run concludes
    assert verdict.outcome is VerdictOutcome.VERIFIED
    after = log.events[kinds(log).index("delta_debug"):]
    system = [e for e in after if e["event"] == "verification" and e["mode"] == "system"]
    assert [e["contract_set"] for e in system] == [["acc", "step"]]


def test_no_system_check_between_a_reduction_and_the_cegis_round():
    verdict, log, _, verifier = acc_step_run(k_cegis=1)
    assert verdict.outcome is VerdictOutcome.INCONCLUSIVE
    seen = kinds(log)
    reduced, cegis = seen.index("stagnation"), seen.index("cegis_migrate")
    assert "delta_debug" in seen[reduced:cegis]
    assert [e["mode"] for e in log.events[reduced:cegis]
            if e["event"] == "verification"] == ["function:step"] * 2
    between = log.events[cegis:seen.index("iteration", cegis)]
    assert [e["event"] for e in between if e["event"] != "synthesis"] == ["cegis_migrate"]
    # the CEGIS round checks the system under its own set, and the run ends on it
    first = log.events[seen.index("verification", cegis)]
    assert (first["mode"], first["status"], first["contract_set"]) == ("system", "pass",
                                                                       ["acc", "step"])
    assert [m for m, _ in verifier.calls].count("system") == 3
    assert verdict.system_status == "pass"


def test_without_a_cegis_round_the_system_is_checked_under_the_reduced_set():
    from contractor.harness import RunOutcome, classify_outcome

    verdict, log, _, verifier = acc_step_run(k_cegis=0)
    seen = kinds(log)
    last = log.events[seen.index("budget_exhausted") - 1]
    assert (last["event"], last["mode"], last["status"]) == ("verification", "system", "pass")
    mode, text = verifier.calls[-1]
    assert mode == "system" and "__ESBMC_return_value < 0" not in text
    assert "__ESBMC_return_value >= 1" in text
    assert verdict.system_status == "pass"
    assert verdict.status_map() == {"acc": "fail", "step": "pass"}
    assert classify_outcome(verdict) is RunOutcome.SYSTEM_ONLY


# -- one backend check per (mode, text) within a program -----------------------

KEEP_STEP_SRC = """\
int keep(int a) {
    return a;
}

int step(int z) {
    return z + 1;
}

int main() {
    int k = keep(2);
    int q = step(0);
    assert(q >= 1 && k == 2);
    return 0;
}
"""


def keep_step_run():
    wrong = lambda n: contract_reply(assigns=("z",),
                                     ensures=(f"__ESBMC_return_value < -{n}",))
    script = {
        "keep": contract_reply(assigns=("a",), ensures=("__ESBMC_return_value == a",)),
        "step|initial": wrong(5),
        "step|relax": [wrong(6), wrong(7)],
        "step|cegis": [wrong(8), wrong(9)],
    }
    return run(KEEP_STEP_SRC, script, RuleVerifier(step_rule("< -")),
               k_cegar=2, k_cegis=2)


def test_unchanged_contract_reaches_the_backend_once():
    verdict, log, _, verifier = keep_step_run()
    assert verdict.outcome is VerdictOutcome.INCONCLUSIVE
    assert len(verifier.calls) == len(set(verifier.calls))
    assert [m for m, _ in verifier.calls].count("function:keep") == 1
    # keep's pass is still logged in every round
    logged = [e["mode"] for e in log.of_kind("verification")]
    assert logged.count("function:keep") == 5


def test_a_set_changed_only_in_an_invariant_is_one_system_check():
    # a stubbed body never runs under replace mode, so a relax that changes
    # only acc's invariant renders the system text of the round before it
    relaxed = contract_reply(requires=("n >= 0",),
                             ensures=("__ESBMC_return_value == n * 2",
                                      "__ESBMC_return_value >= 0"),
                             invariants=("i >= 0 && i <= n && s == i * 2",))

    def rule(src, mode):
        if mode == "function:acc" and ACC_INVARIANT in src.text:
            return failure_output(ACC_INVARIANT, at_function="acc")
        return success_output()

    script = {"acc|initial": ACC_REPLY, "acc|relax": relaxed,
              "step": contract_reply(ensures=("__ESBMC_return_value == z + 1",))}
    verdict, log, _, verifier = run(ACC_STEP_SRC, script, RuleVerifier(rule))
    assert verdict.outcome is VerdictOutcome.VERIFIED and verdict.iterations_used == 1
    full = [e for e in log.of_kind("verification") if e.get("contract_set") == ["acc", "step"]]
    assert [(e["status"], e["iteration"]) for e in full] == [("pass", 0), ("pass", 1)]
    # the full set's one text and round 0's drop check reach the backend
    system = [text for mode, text in verifier.calls if mode == "system"]
    assert len(system) == 2 and not any("__ESBMC_loop_invariant" in t for t in system)


def test_memo_keeps_the_verification_events():
    _, log, _, _ = keep_step_run()
    events = [(e["mode"], e["status"], e["iteration"], e.get("contract_set"))
              for e in log.of_kind("verification")]
    both = ["keep", "step"]
    expected = [("system", "pass", 0, both), ("function:keep", "pass", 0, None),
                ("function:step", "fail", 0, None), ("system", "pass", 0, ["keep"])]
    for i in range(1, 5):
        expected += [("system", "pass", i, both), ("function:keep", "pass", i, None),
                     ("function:step", "fail", i, None)]
    assert events == expected


def test_a_check_hashes_its_text_once(monkeypatch):
    # the key `_start` hashes is the one `_check` stores, memo hit or not
    from contractor import refinement

    hashed = []
    digest = refinement.source_digest
    monkeypatch.setattr(refinement, "source_digest",
                        lambda text: hashed.append(text) or digest(text))
    _, log, _, verifier = keep_step_run()
    events = log.of_kind("verification")
    assert len(verifier.calls) < len(events)  # the memo answered some
    assert len(hashed) == len(events)


def test_timeout_is_checked_again():
    def rule(src, mode):
        return Status.TIMEOUT if mode == "function:inc" else success_output()

    verdict, log, _, verifier = run(INC_SRC, {"inc": INC_REPLY}, RuleVerifier(rule))
    assert verdict.outcome is not VerdictOutcome.VERIFIED
    full = [text for mode, text in verifier.calls
            if mode == "function:inc" and "__ESBMC_return_value > x" in text]
    assert len(full) >= 2 and len(set(full)) == 1


def test_verified_is_read_from_the_check_memo(monkeypatch):
    # inc fails its own check; after every round a stale PASS record is put
    # where the run once held its results, and nothing reads it
    from contractor import refinement

    stale = VerificationResult(status=Status.PASS, raw_output=success_output(),
                               parsed=None, wall_time_s=0.0, mode="function:inc")
    verify_round = refinement._verify_round
    rounds = []

    def stale_round(ctx, contracts):
        verify_round(ctx, contracts)
        rounds.append(ctx)
        ctx.fn_results = {"inc": stale}

    monkeypatch.setattr(refinement, "_verify_round", stale_round)
    rule = lambda src, mode: (failure_output("x > 0") if mode == "function:inc"
                              else success_output())
    verdict, log, _, _ = run(INC_SRC, {"*": INC_REPLY}, RuleVerifier(rule),
                             k_cegar=1, k_cegis=1)
    assert verdict.outcome is VerdictOutcome.INCONCLUSIVE
    assert verdict.status_map() == {"inc": "fail"}
    assert log.of_kind("budget_exhausted")
    # the check store is the one place a result is kept
    ctx = rounds[-1]
    del ctx.fn_results
    held = [name for name, value in vars(ctx).items()
            if isinstance(value, VerificationResult)
            or isinstance(value, dict) and any(isinstance(v, VerificationResult)
                                               for v in value.values())]
    assert held == ["checked"]


# -- one round's checks in one pool -------------------------------------------

class SleepyVerifier:
    """Passes a check after delay seconds, or times out when the budget it is
    given is shorter; records each check's mode, start and timeout."""

    concurrent_checks = True

    def __init__(self, delay: float):
        self.delay = delay
        self.calls = []

    def _run(self, mode, timeout_s):
        self.calls.append((mode, time.monotonic(), timeout_s))
        time.sleep(min(self.delay, timeout_s))
        passed = timeout_s >= self.delay
        return VerificationResult(status=Status.PASS if passed else Status.TIMEOUT,
                                  raw_output=success_output() if passed else "",
                                  parsed=None, wall_time_s=0.0, mode=mode)

    def system(self, src, timeout_s=None):
        return self._run("system", timeout_s)

    def function(self, src, name, timeout_s=None):
        return self._run(f"function:{name}", timeout_s)


@pytest.mark.parametrize("workers, checked, statuses", [
    # serially the system check passes at 0.6 s, deep starts with 0.4 s left
    # and times out at the deadline, so gain's turn comes after the budget
    (1, ["function:deep", "system"],
     {"deep": "timeout", "gain": "unchecked", "trim": "unchecked"}),
    # two at a time, gain and trim wait in the queue until 0.6 s and time
    # out with the 0.4 s left; the check of the survivors never starts
    (2, ["function:deep", "function:gain", "function:trim", "system"],
     {"deep": "pass", "gain": "timeout", "trim": "timeout"}),
], ids=["serial", "two-workers"])
def test_a_check_gets_the_budget_left_when_it_starts(workers, checked, statuses):
    verifier = SleepyVerifier(0.6)
    reply = contract_reply(ensures=("__ESBMC_return_value >= 0",))
    with pytest.raises(DeadlineExceededError) as exc:
        run(MULTI_LOW_SRC, {"*": reply}, verifier, timeout_s=1.0, workers=workers)
    assert sorted(mode for mode, _, _ in verifier.calls) == checked
    deadline = verifier.calls[0][1] + verifier.calls[0][2]
    for mode, start, timeout_s in verifier.calls:
        assert start < deadline
        assert start + timeout_s <= deadline + 0.05, mode
    partial = exc.value.partial
    assert partial.outcome is VerdictOutcome.INCONCLUSIVE
    assert (partial.stage, partial.iterations_used) == ("initial", 0)
    assert partial.system_status == "pass"
    assert partial.status_map() == statuses


class BarrierVerifier(RuleVerifier):
    """Every check that waits (all of them by default) waits until parties
    of them are in flight."""

    def __init__(self, rule=lambda src, mode: success_output(),
                 waits=lambda src, mode: True, parties: int = 2):
        super().__init__(rule)
        self.waits = waits
        self.barrier = threading.Barrier(parties, timeout=5)

    def _run(self, src, mode):
        if self.waits(src, mode):
            self.barrier.wait()
        return super()._run(src, mode)


def cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def test_checks_overlap_on_every_cpu_by_default():
    assert PipelineConfig().workers == cpus()


def test_a_round_keeps_two_checks_in_flight():
    verdict, _, _, verifier = run(INC_SRC, {"inc|initial": INC_REPLY}, BarrierVerifier(),
                                  workers=2)
    assert verdict.outcome is VerdictOutcome.VERIFIED
    assert sorted(mode for mode, _ in verifier.calls) == ["function:inc", "system"]


def test_every_check_of_a_round_is_submitted_before_the_first_is_read():
    # three checks on three threads wait for each other: the round ends only
    # if the third was submitted before the first result was read
    script = {
        "keep": contract_reply(assigns=("a",), ensures=("__ESBMC_return_value == a",)),
        "step": contract_reply(assigns=("z",), ensures=("__ESBMC_return_value == z + 1",)),
    }
    verdict, _, _, verifier = run(KEEP_STEP_SRC, script, BarrierVerifier(parties=3), workers=3)
    assert verdict.outcome is VerdictOutcome.VERIFIED
    assert sorted(mode for mode, _ in verifier.calls) == [
        "function:keep", "function:step", "system"]


@pytest.mark.skipif(cpus() < 2, reason="one CPU: checks are serial by default")
def test_a_default_round_keeps_two_checks_in_flight():
    verdict, _, _, verifier = run(INC_SRC, {"inc|initial": INC_REPLY}, BarrierVerifier())
    assert verdict.outcome is VerdictOutcome.VERIFIED
    assert sorted(mode for mode, _ in verifier.calls) == ["function:inc", "system"]


TWO_HIGH_SRC = """\
int deep(int n) {
    if (n <= 0) {
        return 0;
    }
    return deep(n - 1) + 1;
}

int down(int m) {
    if (m <= 0) {
        return 0;
    }
    return down(m - 1) + 2;
}

int main() {
    int x = deep(3);
    int y = down(2);
    assert(x + y >= 7);
    return 0;
}
"""

TWO_HIGH_SCRIPT = {
    "deep|overapproximate": contract_reply(assigns=("n",),
                                           ensures=("__ESBMC_return_value >= 0",)),
    "down|overapproximate": contract_reply(assigns=("m",),
                                           ensures=("__ESBMC_return_value >= 0",)),
    "deep|initial": contract_reply(assigns=("n",), ensures=("__ESBMC_return_value == n",)),
    "down|initial": contract_reply(assigns=("m",),
                                   ensures=("__ESBMC_return_value == m * 2",)),
}


def two_high_rule(src, mode):
    # the system fails while an abstraction is in place
    if mode == "system" and "__ESBMC_return_value >= 0" in src.text:
        return failure_output(
            "x + y >= 7",
            steps=[{"function": "main", "line": 16, "assigns": [("x", "0")]},
                   {"function": "main", "line": 17, "assigns": [("y", "0")]}])
    return success_output()


def is_precise_check(src, mode):
    return mode.startswith("function:") and "__ESBMC_return_value >= 0" not in src.text


def test_stage_four_keeps_the_log_of_a_serial_run():
    from contractor.harness import canonical_run_bytes

    runs = []
    for workers in (1, 2):
        verdict, log, _, _ = run(TWO_HIGH_SRC, dict(TWO_HIGH_SCRIPT), RuleVerifier(two_high_rule),
                                 strategy=Strategy.PRE_ABSTRACTION, workers=workers)
        assert (verdict.outcome, verdict.stage) == (VerdictOutcome.VERIFIED,
                                                    "pre_abstraction:5")
        runs.append(canonical_run_bytes(verdict, log))
    assert runs[0] == runs[1]
    stages = [e.get("stage") for e in log.events]
    phase4 = log.events[stages.index("pre_abstraction:4") + 1:stages.index("pre_abstraction:5")]
    # the asks in model order, then each function's check and substitution
    assert [(e["event"], e.get("function") or e.get("mode")) for e in phase4] == [
        ("synthesis", "deep"), ("synthesis", "down"),
        ("verification", "function:deep"), ("substitute", "deep"),
        ("verification", "function:down"), ("substitute", "down")]


@pytest.mark.skipif(cpus() < 2, reason="one CPU: checks are serial by default")
def test_stage_four_keeps_two_checks_in_flight():
    verifier = BarrierVerifier(two_high_rule, waits=is_precise_check)
    verdict, log, _, _ = run(TWO_HIGH_SRC, dict(TWO_HIGH_SCRIPT), verifier,
                             strategy=Strategy.PRE_ABSTRACTION)
    assert (verdict.outcome, verdict.stage) == (VerdictOutcome.VERIFIED, "pre_abstraction:5")
    assert [e["kept"] for e in log.of_kind("substitute")] == ["precise", "precise"]


class ThreadVerifier:
    """Passes every check; records the thread each one ran on. Like any
    verifier that does not set concurrent_checks, it may keep state."""

    def __init__(self):
        self.threads = []

    def system(self, src, timeout_s=None):
        self.threads.append(threading.current_thread())
        return PassVerifier().system(src, timeout_s)

    def function(self, src, name, timeout_s=None):
        self.threads.append(threading.current_thread())
        return PassVerifier().function(src, name, timeout_s)


def test_an_in_process_verifier_is_checked_on_the_pipeline_thread():
    verifier = ThreadVerifier()
    verdict, _, _, _ = run(MULTI_LOW_SRC, dict(MULTI_LOW_SCRIPT), verifier,
                           strategy=Strategy.PRE_ABSTRACTION, workers=3)
    assert verdict.outcome is VerdictOutcome.VERIFIED
    assert verifier.threads and set(verifier.threads) == {threading.current_thread()}


def route_rule(src, mode):
    # the system fails until gain is exact, route's own check fails on "t + 2"
    if mode == "function:route" and "t + 2" in src.text:
        return failure_output(
            "(t + 2) == __ESBMC_return_value",
            steps=[{"function": "route", "line": 6,
                    "assigns": [("t", "3"), ("__ESBMC_return_value", "4")]}],
            at_function="route")
    return chain_rule(src, mode)


ROUTE_SCRIPT = dict(
    CHAIN_SCRIPT,
    **{"route|initial": contract_reply(assigns=("t",),
                                       ensures=("__ESBMC_return_value == t + 2",)),
       "route|relax": contract_reply(assigns=("t",),
                                     ensures=("__ESBMC_return_value == t + 1",))})


def lift_rule(src, mode):
    # the system fails until deep's precise contract is in, lift's own check
    # fails on "k + 11"
    if mode == "function:lift" and "k + 11" in src.text:
        return failure_output(
            "(k + 11) == __ESBMC_return_value",
            steps=[{"function": "lift", "line": 9,
                    "assigns": [("k", "0"), ("__ESBMC_return_value", "10")]}],
            at_function="lift")
    if mode == "system" and "__ESBMC_return_value >= 5" not in src.text:
        return failure_output(
            "y >= 15",
            steps=[{"function": "main", "line": 14, "assigns": [("x", "0")]},
                   {"function": "main", "line": 15, "assigns": [("y", "10")]}])
    return success_output()


LIFT_SCRIPT = {
    "deep|overapproximate": contract_reply(assigns=("n",),
                                           ensures=("__ESBMC_return_value >= 0",)),
    "deep|initial": contract_reply(assigns=("n",), ensures=("__ESBMC_return_value >= 5",)),
    "lift|initial": contract_reply(assigns=("k",), ensures=("__ESBMC_return_value == k + 11",)),
    "lift|relax": contract_reply(assigns=("k",), ensures=("__ESBMC_return_value == k + 10",)),
}


@pytest.mark.parametrize("src, script, rule, strategy", [
    (CHAIN_SRC, ROUTE_SCRIPT, route_rule, Strategy.SMART_ICE),
    (SUBST_SRC, LIFT_SCRIPT, lift_rule, Strategy.PRE_ABSTRACTION),
], ids=["smart-ice", "pre-abstraction"])
def test_worker_count_keeps_the_log_of_failing_rounds(src, script, rule, strategy):
    from contractor.harness import canonical_run_bytes

    runs = {}
    for workers in (1, 3):
        verdict, log, _, verifier = run(src, dict(script), RuleVerifier(rule),
                                        strategy=strategy, workers=workers)
        assert verdict.outcome is VerdictOutcome.VERIFIED
        checks = [(e["mode"], e["status"], e["iteration"])
                  for e in log.of_kind("verification")]
        runs[workers] = (canonical_run_bytes(verdict, log), checks, sorted(verifier.calls))
    assert runs[1] == runs[3]
    # the first round failed on the system side and on a function's own check
    first = [(mode, status) for mode, status, i in runs[1][1][:3]]
    assert ("system", "fail") in first
    assert any(m.startswith("function:") and s == "fail" for m, s in first)


# -- one pool per program -----------------------------------------------------

def thread_starts(monkeypatch):
    """Every thread started from here on, in start order."""
    started = []
    start = threading.Thread.start

    def counting(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return started


def test_a_program_starts_no_more_threads_than_its_workers(monkeypatch):
    started = thread_starts(monkeypatch)
    verdict, log, _, verifier = run(CHAIN_SRC, dict(ROUTE_SCRIPT), RuleVerifier(route_rule),
                                    workers=2)
    assert (verdict.outcome, verdict.stage) == (VerdictOutcome.VERIFIED, "cegar")
    # two rounds of three checks each, with the drop check between them
    assert [e["mode"] for e in log.of_kind("verification")] == [
        "system", "function:gain", "function:route", "system",
        "system", "function:gain", "function:route"]
    assert 1 <= len(started) <= 2


class ThreadClient(ScriptedLlmClient):
    """Replies as scripted; records the thread each ask ran on."""

    def __init__(self, script):
        super().__init__(script)
        self.threads = []

    def complete(self, prompt, tags=None):
        self.threads.append(threading.current_thread())
        return super().complete(prompt, tags)


def test_a_serial_run_asks_on_the_pipeline_thread(monkeypatch):
    started = thread_starts(monkeypatch)
    client = ThreadClient(dict(MULTI_LOW_SCRIPT))
    cfg = PipelineConfig(strategy=Strategy.PRE_ABSTRACTION, workers=1, timeout_s=60.0)
    verdict = run_pipeline(parse_program(MULTI_LOW_SRC), cfg, client, PassVerifier(), RunLog())
    assert verdict.outcome is VerdictOutcome.VERIFIED
    assert {"function": "gain", "intent": "initial"} in client.calls  # a phase-1b ask
    assert set(client.threads) == {threading.current_thread()}
    assert started == []


@pytest.mark.parametrize("case", ["phase-1b-ask-fails", "budget-spent-in-a-round"])
def test_a_program_that_ends_on_an_error_leaves_no_pool_thread(case):
    from contractor.harness import RunOutcome, run_program

    if case == "phase-1b-ask-fails":
        script = {k: v for k, v in MULTI_LOW_SCRIPT.items() if k != "gain|initial"}
        cfg = PipelineConfig(strategy=Strategy.PRE_ABSTRACTION, workers=2, timeout_s=60.0)
        verifier, outcome, error = PassVerifier(), RunOutcome.FAILED, "ClientUnavailableError"
    else:
        script = {"*": contract_reply(ensures=("__ESBMC_return_value >= 0",))}
        cfg = PipelineConfig(workers=2, timeout_s=1.0)
        verifier, outcome, error = SleepyVerifier(0.6), RunOutcome.TIMEOUT, "wall budget"
    baseline = threading.active_count()
    report = run_program("multi_low", MULTI_LOW_SRC, cfg, ScriptedLlmClient(script), verifier)
    assert report.outcome is outcome
    assert error in report.error
    assert threading.active_count() == baseline


# -- one ask path ---------------------------------------------------------------

def relax_rule(src, mode):
    """Everything passes under "== x + 1" or with no contract; otherwise inc's
    own check and the system check fail."""
    if "__ESBMC_return_value == x + 1" in src.text or "__ESBMC_return_value" not in src.text:
        return success_output()
    if mode == "system":
        return failure_output("b > 5", steps=[
            {"function": "main", "line": 6, "assigns": [("a", "5")]},
            {"function": "main", "line": 7, "assigns": [("b", "5")]}])
    return failure_output("__ESBMC_return_value > x + 1", at_function="inc", steps=[
        {"function": "inc", "line": 2, "assigns": [("x", "5"), ("__ESBMC_return_value", "6")]}])


@pytest.mark.parametrize("workers", [1, 2])
def test_a_strengthen_reads_the_relax_kept_before_it_in_its_round(workers):
    script = {
        "inc|initial": contract_reply(ensures=("__ESBMC_return_value > x + 9",)),
        "inc|relax": [contract_reply(ensures=("__ESBMC_return_value > x + 5",)),
                      contract_reply(ensures=("__ESBMC_return_value >= x",))],
        "inc|strengthen": contract_reply(ensures=("__ESBMC_return_value == x + 1",)),
    }
    verdict, log, client, _ = run(INC_SRC, script, RuleVerifier(relax_rule), workers=workers)
    assert (verdict.outcome, verdict.stage, verdict.iterations_used) == (
        VerdictOutcome.VERIFIED, "cegar", 2)
    # the second round relaxes inc, then strengthens what that relax kept
    assert client.calls[-2:] == [{"function": "inc", "intent": "relax"},
                                 {"function": "inc", "intent": "strengthen"}]
    [strengthen] = prompts(log, "strengthen")
    assert "__ESBMC_return_value >= x" in strengthen
    assert "__ESBMC_return_value > x + 5" not in strengthen


class OneReplyClient(ScriptedLlmClient):
    """Answers its first call as scripted; every later call finds no reply."""

    def complete(self, prompt, tags=None):
        if self.calls:
            raise ClientUnavailableError("no reply left")
        return super().complete(prompt, tags)


def failed_run(src, client, verifier=None, **cfg_kw):
    from contractor.harness import RunOutcome, run_program

    report = run_program("p", src, PipelineConfig(timeout_s=60.0, **cfg_kw), client,
                         verifier or PassVerifier())
    assert report.outcome is RunOutcome.FAILED
    assert "ClientUnavailableError" in report.error
    return report.log


def test_a_client_error_keeps_the_log_of_every_ask_before_it():
    log = failed_run(TWO_FN_SRC, ScriptedLlmClient({"produce|initial": INC_REPLY}))
    assert [(e["function"], e["outcome"]) for e in log.of_kind("synthesis")] == [
        ("produce", "parsed")]


def test_a_client_error_keeps_the_attempts_of_the_ask_it_ends():
    log = failed_run(INC_SRC, OneReplyClient({"*": "I cannot produce a contract for this."}))
    assert [(e["function"], e["attempt"]) for e in log.of_kind("synthesis")] == [("inc", 0)]


def test_a_phase_1b_client_error_keeps_the_log_of_every_ask_before_it():
    script = {k: v for k, v in MULTI_LOW_SCRIPT.items() if k != "trim|initial"}
    logs = [failed_run(MULTI_LOW_SRC, ScriptedLlmClient(script), workers=workers,
                       strategy=Strategy.PRE_ABSTRACTION).events
            for workers in (1, 2)]
    assert logs[0] == logs[1]
    assert [e["function"] for e in logs[0] if e["event"] == "synthesis"] == ["deep", "gain"]


def test_a_stage_4_client_error_keeps_the_log_of_every_ask_before_it():
    script = {k: v for k, v in TWO_HIGH_SCRIPT.items() if k != "down|initial"}
    logs = [failed_run(TWO_HIGH_SRC, ScriptedLlmClient(script), RuleVerifier(two_high_rule),
                       workers=workers, strategy=Strategy.PRE_ABSTRACTION).events
            for workers in (1, 2)]
    assert logs[0] == logs[1]
    stages = [e.get("stage") for e in logs[0]]
    phase4 = logs[0][stages.index("pre_abstraction:4") + 1:]
    # deep's precise ask was kept before down's ended the run
    assert [(e["event"], e.get("function"), e.get("outcome")) for e in phase4] == [
        ("synthesis", "deep", "parsed"), ("error", None, None)]


def test_a_reply_naming_a_macro_and_an_enum_constant_is_kept():
    reply = contract_reply(assigns=("shade",), ensures=("__ESBMC_return_value <= LIMIT",
                                                        "__ESBMC_return_value != GREEN"))
    verdict, log, client, _ = run(CONSTANTS_SRC, {"pick|initial": reply}, PassVerifier())
    assert verdict.outcome is VerdictOutcome.VERIFIED
    assert verdict.contract_map()["pick"].ensures == ("__ESBMC_return_value <= LIMIT",
                                                      "__ESBMC_return_value != GREEN")
    assert len(client.calls) == 1 and log.of_kind("classification") == []


# -- each state labelled once, each prompt shown its own function's examples ---

def examples_rule(keep_a: str):
    """keep's check fails on "a + 1" with a = keep_a; step's always fails on
    "< -", through a loop that reassigns i twelve times."""
    def rule(src, mode):
        if mode == "function:keep" and "a + 1" in src.text:
            return failure_output(
                "(a + 1) == __ESBMC_return_value",
                steps=[{"function": "keep", "line": 2,
                        "assigns": [("a", keep_a), ("__ESBMC_return_value", "2")]}],
                at_function="keep")
        if mode == "function:step" and "< -" in src.text:
            loop = [{"function": "step", "line": 6, "assigns": [("i", str(k))]}
                    for k in range(13)]
            return failure_output(
                "contract postcondition",
                steps=[{"function": "step", "line": 5, "assigns": [("z", "0")]}] + loop
                + [{"function": "step", "line": 7,
                    "assigns": [("__ESBMC_return_value", "-7")]}],
                at_function="step")
        return success_output()
    return rule


def examples_run(monkeypatch, keep_a: str = "2"):
    """keep fails its first check and passes once relaxed; step fails every
    check through CEGIS. Returns run()'s tuple plus the example database."""
    from contractor import refinement

    made = []

    class Kept(IceDatabase):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(refinement, "IceDatabase", Kept)
    wrong = lambda n: contract_reply(assigns=("z",),
                                     ensures=(f"__ESBMC_return_value < -{n}",))
    script = {
        "keep|initial": contract_reply(assigns=("a",),
                                       ensures=("__ESBMC_return_value == a + 1",)),
        "keep|relax": contract_reply(assigns=("a",), ensures=("__ESBMC_return_value == a",)),
        "step|initial": wrong(5),
        "step|relax": wrong(6),
        "step|cegis": wrong(7),
    }
    out = run(KEEP_STEP_SRC, script, RuleVerifier(examples_rule(keep_a)),
              k_cegar=1, k_cegis=1)
    return out + (made[-1],)


def test_a_function_counterexample_is_a_positive_example(monkeypatch):
    verdict, log, _, _, db = examples_run(monkeypatch)
    assert verdict.outcome is VerdictOutcome.INCONCLUSIVE
    assert verdict.status_map()["keep"] == "pass"
    state = (("__ESBMC_return_value", "2"), ("a", "2"))
    assert [e.items for e in db.samples("keep")["positives"]] == [state]
    assert db.samples()["negatives"] == [] and db.samples()["conflicts"] == []
    actions = [(e["action"], e["function"]) for e in log.of_kind("db")]
    assert ("recorded_positive", "keep") in actions
    assert all(action != "blocked_conflict" for action, _ in actions)


def test_an_unconstrained_function_failure_teaches_no_state(monkeypatch):
    verdict, log, _, _, db = examples_run(monkeypatch, keep_a="nondet_symbol!0")
    assert verdict.outcome is VerdictOutcome.INCONCLUSIVE
    assert [e["category"] for e in log.of_kind("classification")
            if e["function"] == "keep"] == ["unconstrained_init"]
    keep = db.samples("keep")
    assert keep["positives"] == [] and keep["negatives"] == []
    assert [e["action"] for e in log.of_kind("db") if e["function"] == "keep"] == []


def test_a_cegis_prompt_shows_only_its_function_capped(monkeypatch):
    _, log, _, _, db = examples_run(monkeypatch)
    held = db.samples()
    assert any(e.function == "keep" for e in held["positives"] + held["negatives"])
    assert len(held["implications"]) > DIAGNOSTIC_EXAMPLE_LIMIT
    (prompt,) = prompts(log, "cegis")
    block = prompt[prompt.index(POSITIVE_SECTION):prompt.index("\n\nCurrent contract:")]
    sections: Dict[str, list] = {}
    for line in block.splitlines():
        if line.startswith("  "):
            sections[title].append(line)
        else:
            title = line
            sections[title] = []
    for title, lines in sections.items():
        shown = [ln for ln in lines if ln != "  (none)" and "earlier omitted" not in ln]
        assert len(shown) <= DIAGNOSTIC_EXAMPLE_LIMIT, title
        assert all(ln.startswith("  step: ") for ln in shown), (title, shown)
    assert "  step: (2 earlier omitted)" in sections[IMPLICATION_SECTION]


# -- the last round's results are the one record later steps read -------------

INC_R_SRC = """\
int inc(int x) {
    int r = x + 1;
    return r;
}

int main() {
    int a = 5;
    int b = inc(a);
    assert(b > 5);
    return 0;
}
"""


def test_a_relax_prompt_shows_the_last_check_not_an_earlier_trace():
    # inc's first contract fails with r = 31337 in its trace; the first relax
    # reply's check ends in a tool error, which has no trace to show
    first = contract_reply(assigns=("x",), ensures=("__ESBMC_return_value == x + 2",))
    script = {
        "inc|initial": first,
        "inc|relax": [
            contract_reply(assigns=("x",), ensures=("__ESBMC_return_value == x + 3",)),
            contract_reply(assigns=("x",), ensures=("__ESBMC_return_value == x + 1",)),
        ],
    }

    def rule(src, mode):
        if mode == "function:inc" and "x + 2" in src.text:
            return failure_output(
                "__ESBMC_return_value == x + 2",
                steps=[{"function": "inc", "line": 2, "assigns": [("x", "5"), ("r", "31337")]}],
                at_function="inc")
        if mode == "function:inc" and "x + 3" in src.text:
            return Status.TOOL_ERROR
        return success_output()

    verdict, log, _, _ = run(INC_R_SRC, script, RuleVerifier(rule))
    assert verdict.outcome is VerdictOutcome.VERIFIED
    relax = prompts(log, "relax")
    assert len(relax) == 2
    assert "Failure category: semantic" in relax[0] and "r = 31337" in relax[0]
    assert ("Failure category: tool_error\n"
            "Violated property: (no counterexample available)") in relax[1]
    # the earlier trace is gone; its state stays in E+ as a positive example
    assert "r = 31337" not in relax[1] and "inc: r=31337, x=5" in relax[1]


GH_SRC = """\
int g;
int h;

void f1(int k) {
    g = k;
}

void f2(int k) {
    h = k;
}

int main() {
    f1(1);
    f2(2);
    assert(g + h > 5);
    return 0;
}
"""

GH_SCRIPT = {
    "f1|initial": contract_reply(assigns=("g",), ensures=("g == k",)),
    "f1|strengthen": contract_reply(assigns=("g",), ensures=("g == k + 4",)),
    # f2's first contract fails its own check; the relax reply drops the h clause
    "f2|initial": contract_reply(assigns=("h",), ensures=("h == k + 1",)),
    "f2|relax": contract_reply(assigns=("h",), ensures=("k == k",)),
    "f2|strengthen": contract_reply(assigns=("h",), ensures=("h == k + 4",)),
}


def gh_rule(src, mode):
    if mode == "function:f2" and "h == k + 1" in src.text:
        return failure_output(
            "h == k + 1",
            steps=[{"function": "f2", "line": 9, "assigns": [("k", "2"), ("h", "2")]}],
            at_function="f2")
    if mode == "system" and "k + 4" not in src.text:
        return failure_output(
            "g + h > 5",
            steps=[{"function": "main", "line": 13, "assigns": [("g", "1")]},
                   {"function": "main", "line": 14, "assigns": [("h", "2")]}],
            at_line=15)
    return success_output()


def test_a_system_counterexample_is_blamed_once():
    verdict, log, _, _ = run(GH_SRC, dict(GH_SCRIPT), RuleVerifier(gh_rule))
    assert verdict.outcome is VerdictOutcome.VERIFIED
    # the initial round's counterexample and the one with f2 concrete after the drop
    assert [e["chosen"] for e in log.of_kind("weakest_link")] == ["f1", "f1"]
    negatives = {e["function"] for e in log.of_kind("db") if e["action"] == "admitted_negative"}
    assert negatives == {"f1"}
    (ask,) = [e for e in log.of_kind("synthesis") if e["intent"] == "strengthen"]
    assert ask["function"] == "f1"
    block = ask["prompt"][ask["prompt"].index(NEGATIVE_SECTION):]
    assert block.splitlines()[1] == "  f1: g=1, h=2"
    assert verdict.contract_map()["f1"].ensures == ("g == k + 4",)


def test_the_drop_check_blames_only_the_contracts_it_stubbed():
    # f1's first contract fails its own check, so the drop check stubs only
    # f2; blamed on the full set, the tie would go to f1, concrete there
    script = dict(GH_SCRIPT, **{
        "f1|initial": contract_reply(assigns=("g",), ensures=("g == k + 1",)),
        "f1|relax": contract_reply(assigns=("g",), ensures=("g == k",)),
        "f2|initial": contract_reply(assigns=("h",), ensures=("h == k",)),
    })

    def rule(src, mode):
        if mode == "function:f1" and "g == k + 1" in src.text:
            return failure_output(
                "g == k + 1",
                steps=[{"function": "f1", "line": 5, "assigns": [("k", "1"), ("g", "1")]}],
                at_function="f1")
        return gh_rule(src, mode)

    verdict, log, _, _ = run(GH_SRC, script, RuleVerifier(rule))
    seen = kinds(log)
    drop = seen.index("drop")
    assert log.events[drop]["survivors"] == ["f2"]
    chosen = log.events[seen.index("weakest_link", drop)]["chosen"]
    assert chosen == "f2"
    negatives = [e["function"] for e in log.events[drop:seen.index("phase", drop)]
                 if e["event"] == "db" and e["action"] == "admitted_negative"]
    assert negatives == ["f2"]
    (ask,) = [e for e in log.of_kind("synthesis") if e["intent"] == "strengthen"]
    assert ask["function"] == "f2"


def test_no_ice_strengthens_the_function_the_round_blamed():
    verdict, log, _, _ = run(GH_SRC, dict(GH_SCRIPT), RuleVerifier(gh_rule),
                             strategy=Strategy.NO_ICE)
    assert verdict.outcome is VerdictOutcome.VERIFIED
    assert log.of_kind("db") == []
    asks = [e["function"] for e in log.of_kind("synthesis") if e["intent"] == "strengthen"]
    assert asks == ["f1"]


def f2_stub_rule(src, mode):
    """f2's first contract fails its own check, and the system fails exactly
    while that contract stands in for f2."""
    if mode == "system" and "h == k + 1" not in src.text:
        return success_output()
    return gh_rule(src, mode)


def test_a_system_pass_with_a_contract_dropped_is_not_reported_for_the_full_set():
    # the drop check passes with f2 concrete, but no round follows it: the
    # verdict reports both contracts, so it reads the system check under
    # both, which failed; that check is in the memo, so no backend call is added
    verifier = RuleVerifier(f2_stub_rule)
    verdict, log, _, _ = run(GH_SRC, dict(GH_SCRIPT), verifier,
                             k_cegar=0, k_cegis=0, total_budget=0)
    assert sorted(verdict.contract_map()) == ["f1", "f2"]
    assert verdict.system_status == "fail"
    assert classify_outcome(verdict) is RunOutcome.FAILED
    assert [mode for mode, _ in verifier.calls] == [
        "system", "function:f1", "function:f2", "system"]


def test_a_falsifying_drop_check_is_classified_and_blames_nothing():
    # inc's contract fails its own check and every system check fails: the
    # drop check, which runs inc concrete, is classified like every failing
    # system check and falsifies; with no stub in it, it blames nothing
    def rule(src, mode):
        if mode == "function:inc":
            return failure_output("__ESBMC_return_value > x", at_function="inc")
        return failure_output("b > 5", steps=[{"function": "main", "line": 7,
                                               "assigns": [("a", "5"), ("b", "5")]}])

    verdict, log, _, _ = run(INC_SRC, {"inc|initial": INC_REPLY}, RuleVerifier(rule))
    assert verdict.outcome is VerdictOutcome.FALSIFIED
    assert verdict.system_status == "fail"
    seen = kinds(log)
    assert seen[seen.index("drop"):] == ["drop", "verification", "classification", "falsified"]
    assert log.events[-2]["function"] == "__system__"
    assert [e["chosen"] for e in log.of_kind("weakest_link")] == ["inc"]


# -- one round record, read from the check store -------------------------------

def acc_reduced_run():
    # acc fails on an ensures clause, so both contracts are reduced and pass
    return acc_step_run(violated="__ESBMC_return_value == n * 2", k_cegis=0)


def two_high_run():
    return run(TWO_HIGH_SRC, dict(TWO_HIGH_SCRIPT), RuleVerifier(two_high_rule),
               strategy=Strategy.PRE_ABSTRACTION)


@pytest.mark.parametrize("scenario", [
    keep_step_run, lambda: acc_step_run(k_cegis=1), acc_reduced_run,
], ids=["relax-rounds", "reduction-deferred", "reduction-verified"])
def test_each_check_renders_its_text_once(monkeypatch, scenario):
    # the conclusion reads the round's keys and renders nothing again
    from contractor import refinement

    renders = []
    for name in ("render_replace", "render_enforce"):
        render = getattr(refinement, name)
        monkeypatch.setattr(refinement, name,
                            lambda *a, _render=render: renders.append(a) or _render(*a))
    _, log, _, _ = scenario()
    assert len(renders) == len(log.of_kind("verification"))


def subst_run():
    script = {
        "deep|overapproximate": contract_reply(
            assigns=("n",), ensures=("__ESBMC_return_value >= 0",)),
        "deep|initial": contract_reply(
            assigns=("n",), ensures=("__ESBMC_return_value >= 5",)),
        "lift|initial": contract_reply(
            assigns=("k",), ensures=("__ESBMC_return_value == k + 10",)),
    }

    def rule(src, mode):
        if mode == "system" and "__ESBMC_return_value >= 5" not in src.text:
            return failure_output(
                "y >= 15",
                steps=[{"function": "main", "line": 14, "assigns": [("x", "0")]},
                       {"function": "main", "line": 15, "assigns": [("y", "10")]}])
        return success_output()

    return run(SUBST_SRC, script, RuleVerifier(rule), strategy=Strategy.PRE_ABSTRACTION)


STORE_SCENARIOS = {
    # name: (run, whether a reduction defers a system check before a conclusion)
    "subst": (subst_run, False),
    "subst-relax": (lambda: run(SUBST_SRC, dict(LIFT_SCRIPT), RuleVerifier(lift_rule),
                                strategy=Strategy.PRE_ABSTRACTION), False),
    "two-high": (two_high_run, False),
    "reduction-deferred": (lambda: acc_step_run(k_cegis=1), True),
    "reduction-verified": (acc_reduced_run, False),
    "reduction-loose": (loose_run, False),
    "drop": (lambda: run(GH_SRC, dict(GH_SCRIPT), RuleVerifier(gh_rule)), False),
}


def assert_function_keys(ctx, complete: bool) -> None:
    """Each function key of the round is the enforce render of that
    function's current contract; when complete, every contract has one."""
    from contractor.contracts import render_enforce
    from contractor.refinement import _key

    want = {name: _key(render_enforce(ctx.model, c)) for name, c in ctx.round.contracts.items()
            if complete or name in ctx.round.fn_keys}
    assert ctx.round.fn_keys == want


@pytest.mark.parametrize("scenario, defers", list(STORE_SCENARIOS.values()),
                         ids=list(STORE_SCENARIOS))
def test_every_conclusion_reads_the_keys_of_the_current_set(monkeypatch, scenario, defers):
    # the round's keys are the renders of the set the run holds, except
    # while a reduction defers the system check, which leaves no system key;
    # a function's key changes only with its contract, so that holds at
    # every check too
    from contractor import refinement
    from contractor.contracts import render_replace
    from contractor.refinement import _key

    checks, conclude = refinement._checks, refinement._conclude
    deferred = []

    def checked_checks(ctx, instrs):
        assert_function_keys(ctx, complete=False)
        for item in checks(ctx, instrs):
            yield item
            assert_function_keys(ctx, complete=False)

    def checked_conclude(ctx):
        assert_function_keys(ctx, complete=True)
        if refinement._settled(ctx) is None:
            seen = [e["event"] for e in ctx.log.events]
            last_round = len(seen) - seen[::-1].index("iteration")
            assert "delta_debug" in seen[seen.index("stagnation", last_round):]
            deferred.append(ctx.iterations)
        else:
            assert ctx.round.stubbed == ctx.round.contracts
            assert ctx.round.sys_key == _key(render_replace(ctx.model,
                                                            ctx.round.contracts.values()))
        return conclude(ctx)

    monkeypatch.setattr(refinement, "_checks", checked_checks)
    monkeypatch.setattr(refinement, "_conclude", checked_conclude)
    scenario()
    assert bool(deferred) is defers


def test_a_system_pass_under_another_set_verifies_nothing():
    # the drop check holds the survivors' system key: inc's contract was
    # dropped from it, so its pass says nothing about the full set
    from contractor import refinement
    from contractor.contracts import render_enforce

    model = parse_program(INC_SRC)
    ctx = refinement._Ctx(model, PipelineConfig(), ScriptedLlmClient({}), PassVerifier(),
                          RunLog())
    verdict, _, _, _ = run(INC_SRC, {"inc|initial": INC_REPLY}, PassVerifier())
    c = verdict.contract_map()["inc"]
    key, _, _ = next(refinement._checks(ctx, [render_enforce(model, c)]))
    ctx.round = refinement.Round({"inc": c}, {"inc": key})
    refinement._check_system(ctx, {})
    assert refinement._conclude(ctx) is None
    refinement._check_system(ctx, ctx.round.contracts)
    assert refinement._conclude(ctx).outcome is VerdictOutcome.VERIFIED


class SlowRelaxClient(ScriptedLlmClient):
    """Replies as scripted; a relax reply takes delay seconds."""

    def __init__(self, script, delay: float):
        super().__init__(script)
        self.delay = delay

    def complete(self, prompt, tags=None):
        if (tags or {}).get("intent") == "relax":
            time.sleep(self.delay)
        return super().complete(prompt, tags)


def test_a_round_cut_by_the_deadline_reports_nothing_of_the_round_before():
    # the relax ask spends the budget, so no check of the round runs: the
    # partial verdict holds the relaxed contract and no result under it
    relaxed = contract_reply(requires=("x > 0",), assigns=("x",),
                             ensures=("__ESBMC_return_value >= x",))
    rule = lambda src, mode: (failure_output("x > 0") if "> x)" in src.text
                              and mode == "function:inc" else success_output())
    with pytest.raises(DeadlineExceededError) as exc:
        run_pipeline(parse_program(INC_SRC), PipelineConfig(timeout_s=1.0),
                     SlowRelaxClient({"inc|initial": INC_REPLY, "inc|relax": relaxed}, 1.1),
                     RuleVerifier(rule), log=RunLog())
    partial = exc.value.partial
    assert (partial.stage, partial.iterations_used) == ("cegar", 1)
    assert partial.contract_map()["inc"].ensures == ("__ESBMC_return_value >= x",)
    assert partial.status_map() == {"inc": "unchecked"}
    assert partial.system_status is None


class FakeClock:
    """A monotonic clock that moves only when told to."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self) -> float:
        return self.now


class ClockVerifier(RuleVerifier):
    """Checks by rule; a check that spends(src, mode) moves the clock 2 s."""

    def __init__(self, rule, clock: FakeClock, spends):
        super().__init__(rule)
        self.clock, self.spends = clock, spends

    def _run(self, src, mode):
        if self.spends(src, mode):
            self.clock.now += 2.0
        return super()._run(src, mode)


def test_a_substitution_cut_by_the_deadline_reports_no_system_status(monkeypatch):
    # the system fails only while deep's abstraction is stubbed; deep's
    # precise check spends the budget, so the partial verdict holds deep's
    # precise contract, and the one system check made stubbed its abstraction
    from contractor import refinement

    clock = FakeClock()
    monkeypatch.setattr(refinement, "time", clock)
    script = {**TWO_HIGH_SCRIPT, "down|overapproximate": contract_reply(
        assigns=("m",), ensures=("__ESBMC_return_value >= -1",))}
    verifier = ClockVerifier(two_high_rule, clock, lambda src, mode: (
        mode == "function:deep" and "__ESBMC_return_value == n" in src.text))
    with pytest.raises(DeadlineExceededError) as exc:
        run(TWO_HIGH_SRC, script, verifier, strategy=Strategy.PRE_ABSTRACTION,
            timeout_s=1.0, workers=1)
    partial = exc.value.partial
    assert partial.stage == "pre_abstraction:4"
    assert partial.contract_map()["deep"].ensures == ("__ESBMC_return_value == n",)
    assert [m for m, _ in verifier.calls].count("system") == 1
    assert partial.system_status is None


def test_a_reduction_cut_by_the_deadline_reports_no_system_status(monkeypatch):
    # step's first reduction trial spends the budget, so the system check
    # under the reduced set never runs; the round's pass was under the
    # unreduced set
    from contractor import refinement

    clock = FakeClock()
    monkeypatch.setattr(refinement, "time", clock)
    verifier = ClockVerifier(acc_rule("__ESBMC_return_value == n * 2"), clock,
                             lambda src, mode: (mode == "function:step"
                                                and "__ESBMC_return_value < 0" not in src.text))
    with pytest.raises(DeadlineExceededError) as exc:
        run(ACC_STEP_SRC, {"acc": ACC_REPLY, "step": STEP_POISONED}, verifier,
            k_cegis=0, timeout_s=1.0, workers=1)
    partial = exc.value.partial
    assert {c.origin for c in partial.contract_map().values()} == {
        ContractOrigin.DELTA_REDUCED}
    assert partial.status_map() == {"acc": "pass", "step": "pass"}
    assert partial.system_status is None


def stagnation_run():
    poisoned = contract_reply(
        assigns=("z",),
        ensures=("__ESBMC_return_value >= 1", "__ESBMC_return_value < 0"),
    )
    script = {"step|initial": poisoned, "step|relax": poisoned}
    return run(STEP_SRC, script, RuleVerifier(step_rule("< 0")))


PASS_SCENARIOS = {
    # name: (source, run, the functions whose key the run replaced)
    "substitution": (SUBST_SRC, subst_run, {"deep"}),
    "two-substitutions": (TWO_HIGH_SRC, two_high_run, {"deep", "down"}),
    "reduction": (STEP_SRC, stagnation_run, {"step"}),
    "two-reductions": (ACC_STEP_SRC, acc_reduced_run, {"acc", "step"}),
}


@pytest.mark.parametrize("src, scenario, replaced", list(PASS_SCENARIOS.values()),
                         ids=list(PASS_SCENARIOS))
def test_each_reported_pass_is_a_backend_pass_of_the_final_contract(src, scenario, replaced):
    # stage 4 and delta debugging replace one function's key with its contract
    from contractor.contracts import render_enforce
    from contractor.verifier import parse_verifier_output

    verdict, log, _, verifier = scenario()
    assert verdict.outcome is VerdictOutcome.VERIFIED
    final = verdict.contract_map()
    assert {name for name, c in final.items()
            if c.origin is ContractOrigin.DELTA_REDUCED} | {
        e["function"] for e in log.of_kind("substitute") if e["kept"] == "precise"} == replaced
    model = parse_program(src)
    for name, status in verdict.per_function_status:
        assert status == "pass"
        mode, instr = f"function:{name}", render_enforce(model, final[name])
        assert (mode, instr.text) in verifier.calls
        out = verifier.rule(instr, mode)
        assert not isinstance(out, Status) and parse_verifier_output(out)[0] is Status.PASS


# -- the entry points the benchmark's tracer rebinds ---------------------------

TRACING_PY = Path(__file__).resolve().parents[1] / "oraclebench" / "tracing.py"


def test_tracer_rebinds_only_names_refinement_calls(monkeypatch):
    # loaded by file path so sys.path stays as it is; a dataclass module must
    # be in sys.modules while it executes
    spec = importlib.util.spec_from_file_location("_oraclebench_tracing", TRACING_PY)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    from contractor import refinement

    before = dict(vars(refinement))
    with tracing.rebound(tracing.Tracer()):
        rebound = sorted(n for n, v in vars(refinement).items() if before.get(n) is not v)
    assert all(getattr(refinement, n) is before[n] for n in rebound)
    called = {node.func.id for node in ast.walk(ast.parse(inspect.getsource(refinement)))
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert rebound and set(rebound) <= called, sorted(set(rebound) - called)
