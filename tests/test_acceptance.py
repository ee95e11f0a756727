"""Acceptance gate: nine checks, one test per criterion, each runnable from
this repository alone.

Mock-backend replays stand in for a real bounded model checker, so the
end-to-end criteria hold on any machine; when an `esbmc` binary is on PATH
the same scenarios are additionally driven through it. Every expected value
here is either frozen from an independent oracle computed in this file or an
exact structural requirement of the pipeline.
"""

from __future__ import annotations

import json
import random
import shutil
import threading
import time
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    PassVerifier,
    RecordingVerifier,
    RuleVerifier,
    contract_reply,
    corpus_sources,
    failure_output,
    strip_annotations,
    success_output,
)
from contractor import refinement
from contractor.cexpr import evaluate_bool
from contractor.contracts import (
    Contract,
    ParseFailure,
    ParseFailureReason,
    render_enforce,
    render_replace,
)
from contractor.errors import LoopOrdinalError
from contractor.harness import (
    RunOutcome,
    canonical_run_bytes,
    run_program,
    run_suite,
)
from contractor.ice import (
    ADMISSIBLE_CATEGORIES,
    Category,
    IceDatabase,
    Level,
    StateExample,
    admit,
    classify,
    record_positive,
)
from contractor.program_model import Tier, parse_program, partition_functions
from contractor.refinement import (
    PipelineConfig,
    Strategy,
    VerdictOutcome,
    run_pipeline,
)
from contractor.runlog import RunLog
from contractor.synthesis import ScriptedLlmClient, make_client
from contractor.verifier import (
    Status,
    SubprocessVerifier,
    VerificationResult,
    VerifierConfig,
    parse_verifier_output,
)
from test_delta_debug import run_oracle_sweep

ESBMC = shutil.which("esbmc")


def _pipeline(src: str, script, verifier, **cfg_kw):
    model = parse_program(src)
    cfg = PipelineConfig(**{"timeout_s": 60.0, **cfg_kw})
    log = RunLog()
    verdict = run_pipeline(model, cfg, ScriptedLlmClient(script), verifier, log=log)
    return verdict, log


# --------------------------------------------------------------------------
# Criterion 1: the increment program converges end to end at iteration zero,
# and a mock-backend replay of the run is byte-identical across repetitions.
# --------------------------------------------------------------------------

INCREMENT_SRC = """\
int increment(int x) {
    return x + 1;
}

int main() {
    int a = 1;
    int b = increment(a);
    assert(b > a);
    return 0;
}
"""

INCREMENT_REPLY = contract_reply(
    requires=("x > 0",),
    assigns=("x",),
    ensures=("__ESBMC_return_value > x",),
)


def _increment_client() -> ScriptedLlmClient:
    return ScriptedLlmClient({"increment|initial": INCREMENT_REPLY})


def test_criterion_01_increment_end_to_end(tmp_path):
    started = time.monotonic()
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    cfg = PipelineConfig(timeout_s=30.0)

    recorded = run_program("increment.c", INCREMENT_SRC, cfg, _increment_client(),
                           RecordingVerifier(PassVerifier(), fixtures))
    assert recorded.outcome is RunOutcome.CONVERGED

    replay = SubprocessVerifier(VerifierConfig(
        backend_path="mock", timeout_s=30.0, fixtures_dir=str(fixtures)))
    blobs = []
    for _ in range(3):
        report = run_program("increment.c", INCREMENT_SRC, cfg,
                             _increment_client(), replay)
        assert report.outcome is RunOutcome.CONVERGED
        assert report.verdict is not None
        assert report.verdict.stage == "initial"
        assert report.iterations == 0
        derived = report.verdict.contract_map()["increment"]
        assert derived.ensures == ("__ESBMC_return_value > x",)
        blobs.append(canonical_run_bytes(report.verdict, report.log))
    assert blobs[0] == blobs[1] == blobs[2]

    if ESBMC:
        live = run_program(
            "increment.c", INCREMENT_SRC, cfg, _increment_client(),
            SubprocessVerifier(VerifierConfig(backend_path=ESBMC, timeout_s=30.0)))
        assert live.outcome is RunOutcome.CONVERGED
        assert live.iterations == 0

    assert time.monotonic() - started < 30.0


# --------------------------------------------------------------------------
# Criterion 2: a loop invariant rides into the instrumented source as the
# first statement of its loop body, and the invariant itself is correct
# against a Python simulation of the loop.
# --------------------------------------------------------------------------

SUMMATION_SRC = """\
int sum_to(int n) {
    int sum = 0;
    int i = 0;
    while (i < n) {
        sum = sum + i;
        i = i + 1;
    }
    return sum;
}

int main() {
    int r = sum_to(5);
    assert(r == 10);
    return 0;
}
"""

SUM_INVARIANT = "sum == i * (i - 1) / 2"
SUM_ENSURES = "__ESBMC_return_value == n * (n - 1) / 2"


def _simulate_sum(n: int) -> int:
    """Oracle: execute the loop, checking the invariant at the loop head on
    every evaluation of the guard, including the final failing one."""
    total, i = 0, 0
    while True:
        assert evaluate_bool(SUM_INVARIANT, {"sum": total, "i": i})
        if not i < n:
            return total
        total += i
        i += 1


def test_criterion_02_loop_invariant_enforcement(tmp_path):
    started = time.monotonic()

    table = [(n, _simulate_sum(n)) for n in range(6)]
    assert table == [(0, 0), (1, 0), (2, 1), (3, 3), (4, 6), (5, 10)]
    for n, total in table:
        assert evaluate_bool(SUM_ENSURES, {"n": n, "__ESBMC_return_value": total})

    model = parse_program(SUMMATION_SRC)
    contract = Contract(
        function="sum_to",
        requires=("n >= 0",),
        ensures=(SUM_ENSURES,),
        assigns=("n",),
        loop_invariants=((0, SUM_INVARIANT),),
    )
    instrumented = render_enforce(model, contract)
    lines = instrumented.text.splitlines()
    head = next(i for i, line in enumerate(lines) if "while (i < n) {" in line)
    assert lines[head + 1].strip() == f"__ESBMC_loop_invariant({SUM_INVARIANT});"
    assert strip_annotations(instrumented) == SUMMATION_SRC

    reply = contract_reply(requires=("n >= 0",), assigns=("n",),
                           ensures=(SUM_ENSURES,), invariants=(SUM_INVARIANT,))
    verdict, _ = _pipeline(SUMMATION_SRC, {"sum_to|initial": reply}, PassVerifier())
    assert verdict.outcome is VerdictOutcome.VERIFIED
    assert verdict.contract_map()["sum_to"].loop_invariants == ((0, SUM_INVARIANT),)

    if ESBMC:
        live = SubprocessVerifier(VerifierConfig(backend_path=ESBMC, timeout_s=30.0))
        result = live.function(instrumented, "sum_to")
        assert result.status is Status.PASS

    assert time.monotonic() - started < 30.0


# --------------------------------------------------------------------------
# Criterion 3: a stack of candidate contracts that never passes burns exactly
# the refinement budget: five relax iterations, then five example-guided
# iterations, then an inconclusive verdict. No tolerance.
# --------------------------------------------------------------------------

STAIR_SRC = """\
int step(int q) {
    return q + 2;
}

int main() {
    int out = step(1);
    assert(out >= 1);
    return 0;
}
"""


def _doomed_reply(n: int) -> str:
    return contract_reply(assigns=("q",),
                          ensures=(f"__ESBMC_return_value < -{n}",))


def test_criterion_03_budget_law_exact_iteration_counts():
    script = {
        "step|initial": _doomed_reply(0),
        "step|relax": [_doomed_reply(n) for n in range(1, 6)],
        "step|cegis": [_doomed_reply(n) for n in range(6, 11)],
    }

    def rule(src, mode):
        if mode == "function:step" and "< -" in src.text:
            return failure_output(
                "contract postcondition",
                steps=[{"function": "step", "line": 2,
                        "assigns": [("q", "1"), ("__ESBMC_return_value", "3")]}],
                at_function="step")
        return success_output()

    verdict, log = _pipeline(STAIR_SRC, script, RuleVerifier(rule))
    assert verdict.outcome is VerdictOutcome.INCONCLUSIVE
    assert verdict.stage == "cegis"
    assert verdict.iterations_used == 10
    assert verdict.system_status == "pass"
    assert verdict.status_map()["step"] == "fail"

    laps = [(e["loop"], e["index"]) for e in log.of_kind("iteration")]
    assert laps == ([("cegar", k) for k in range(1, 6)]
                    + [("cegis", k) for k in range(1, 6)])
    assert log.of_kind("budget_exhausted")


# --------------------------------------------------------------------------
# Criterion 4: clause reduction agrees with a brute-force oracle on every
# monotone pass/fail predicate over ensures sets of up to four clauses.
# --------------------------------------------------------------------------

def test_criterion_04_clause_reduction_matches_brute_force_oracle():
    started = time.monotonic()
    checked, irreducible = run_oracle_sweep(4)
    elapsed = time.monotonic() - started
    # One downward-closed family per size contains the full clause set, so the
    # failing starts number (3 - 1) + (6 - 1) + (20 - 1) + (168 - 1).
    assert checked == 193
    # Only the empty family rejects the empty clause set: one per size.
    assert irreducible == 4
    assert elapsed < 5.0


# --------------------------------------------------------------------------
# Criterion 5: example-database laws. Positive and negative pools stay
# disjoint, every refused admission is logged as a conflict, tool-level
# failures never enter any pool, and classification of failing results is
# total and single-valued.
# --------------------------------------------------------------------------

_CLS = {
    "semantic": Category.SEMANTIC,
    "unconstrained": Category.UNCONSTRAINED_INIT,
    "syntax": Category.SYNTAX_ERROR,
    "unparsed": Category.UNPARSED,
    "tool": Category.TOOL_ERROR,
}

_admission_ops = st.lists(
    st.tuples(
        st.sampled_from(("pos", "semantic", "unconstrained", "syntax",
                         "unparsed", "tool")),
        st.sampled_from(("f", "g")),
        st.dictionaries(st.sampled_from(("a", "b")),
                        st.integers(-3, 3).map(str),
                        min_size=1, max_size=2),
    ),
    max_size=25,
)


@given(_admission_ops)
@settings(max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def _admission_matches_mirror(ops):
    db = IceDatabase()
    mirror_pos = {}
    mirror_neg = {}
    refused = 0
    for kind, fn, valuation in ops:
        example = StateExample.make(fn, valuation)
        key = (example.function, example.items)
        if kind == "pos":
            record_positive(db, example)
            if key in mirror_neg:
                refused += 1
            else:
                mirror_pos.setdefault(key, example)
            continue
        cls = _CLS[kind]
        admit(db, cls, example)
        if cls.level is Level.TOOL or cls not in ADMISSIBLE_CATEGORIES:
            continue  # must leave the database untouched
        if key in mirror_pos:
            refused += 1
        else:
            mirror_neg.setdefault(key, example)

    held = db.samples()
    assert {(e.function, e.items) for e in held["positives"]} == set(mirror_pos)
    assert {(e.function, e.items) for e in held["negatives"]} == set(mirror_neg)
    assert len(held["conflicts"]) == refused
    assert not set(mirror_pos) & set(mirror_neg)


def _failing_result(raw: str) -> VerificationResult:
    status, parsed = parse_verifier_output(raw)
    assert status is Status.FAIL
    return VerificationResult(status=status, raw_output=raw, parsed=parsed,
                              wall_time_s=0.0, mode="function:f")


def test_criterion_05_example_database_properties():
    _admission_matches_mirror()

    rng = random.Random(55)
    cases = []
    for _ in range(120):
        value = rng.choice(("2", "-7", "nondet_symex::nondet0"))
        var = rng.choice(("a", "b"))
        raw = failure_output(
            f"{var} > 0",
            steps=[{"function": "f", "line": 3, "assigns": [(var, value)]}])
        cases.append(_failing_result(raw))
    cases.append(_failing_result(failure_output(
        "a > 0", steps=[{"function": "f", "line": 3,
                         "assigns": [("a", "nondet_symex::nondet1")]}])))
    cases.append(_failing_result(failure_output(
        "a > 0", steps=[{"function": "f", "line": 3, "assigns": [("a", "4")]}])))
    cases.append(VerificationResult(Status.TIMEOUT, "", None, 0.0, "system"))
    cases.append(VerificationResult(Status.TOOL_ERROR, "backend crashed",
                                    None, 0.0, "system"))
    cases.append(VerificationResult(Status.FAIL, "VERIFICATION FAILED",
                                    None, 0.0, "system"))
    cases.append(ParseFailure(ParseFailureReason.NO_CLAUSES, "empty reply"))

    legal = {
        (Level.SEMANTIC, Category.SYNTAX_ERROR),
        (Level.TOOL, Category.TOOL_ERROR),
        (Level.SEMANTIC, Category.UNPARSED),
        (Level.SEMANTIC, Category.UNCONSTRAINED_INIT),
        (Level.SEMANTIC, Category.SEMANTIC),
    }
    seen = set()
    for case in cases:
        first = classify(case)
        second = classify(case)
        assert first == second
        assert (first.level, first) in legal
        seen.add((first.level, first))
    assert seen == legal

    with pytest.raises(ValueError):
        classify(VerificationResult(Status.PASS, success_output(), None,
                                    0.0, "system"))


# --------------------------------------------------------------------------
# Criterion 6: instrumentation round-trips. Stripping the annotations from a
# rendered source recovers the original bytes, for random contracts across
# the whole example corpus.
# --------------------------------------------------------------------------

def _random_contract(rng: random.Random, f) -> Contract:
    params = [p.name for p in f.params]
    lead = params[0] if params else None
    requires = ()
    if lead and rng.random() < 0.5:
        requires = (f"{lead} > -8",)
    pool = ["__ESBMC_return_value >= 0"]
    if lead:
        pool += [f"__ESBMC_return_value >= {lead}", f"{lead} < 100"]
    ensures = tuple(rng.sample(pool, rng.randint(1, len(pool))))
    assigns = tuple(p for p in params if rng.random() < 0.6)
    invariants = ()
    if f.metrics.loop_count and rng.random() < 0.5:
        invariants = ((rng.randrange(f.metrics.loop_count), "i >= 0"),)
    return Contract(function=f.name, requires=requires, ensures=ensures,
                    assigns=assigns, loop_invariants=invariants)


def test_criterion_06_instrumentation_round_trip_across_corpus():
    rng = random.Random(20)
    rendered_files = 0
    violations = []
    for name, source in corpus_sources():
        model = parse_program(source)
        targets = [f for f in model.functions if f.name != "main"]
        if not targets:
            continue
        chosen = {f.name: _random_contract(rng, f) for f in targets}
        for f in targets:
            contract = chosen[f.name]
            try:
                enforced = render_enforce(model, contract)
            except LoopOrdinalError:
                # the ordinal picked an unbraced loop; retry bare
                contract = replace(contract, loop_invariants=())
                chosen[f.name] = contract
                enforced = render_enforce(model, contract)
            if strip_annotations(enforced) != source:
                violations.append((name, f.name, "enforce"))
        replaced = render_replace(model, list(chosen.values()))
        if strip_annotations(replaced) != source:
            violations.append((name, "<all>", "replace"))
        rendered_files += 1
    assert violations == []
    assert rendered_files >= 20


# --------------------------------------------------------------------------
# Criterion 8: a six-program replay suite produces exactly the engineered
# outcome taxonomy and iteration histogram, identically for 1 and 3 workers.
# --------------------------------------------------------------------------

ALPHA_SRC = """\
int lift(int a) {
    return a + 3;
}

int main() {
    int r = lift(2);
    assert(r > 2);
    return 0;
}
"""

BETA_SRC = """\
int gainb(int b) {
    return b * 2;
}

int main() {
    int s = gainb(3);
    assert(s >= 6);
    return 0;
}
"""

GAMMA_SRC = """\
int emit(int c) {
    return c + 1;
}

int shot(int y) {
    return y + 4;
}

int main() {
    int m = emit(1);
    int t = shot(m);
    assert(t > m);
    return 0;
}
"""

DELTA_SRC = """\
int hold(int d) {
    return d + 2;
}

int stuck(int u) {
    return u * 3;
}

int main() {
    int p = hold(1);
    int v = stuck(p);
    assert(p + v >= 0);
    return 0;
}
"""

EPSILON_SRC = """\
int bump(int w) {
    return w + 5;
}

int main() {
    int w = bump(80);
    assert(w > 90);
    return 0;
}
"""

ZETA_SRC = """\
int tick(int z) {
    return z + 1;
}

int main() {
    int n = tick(9);
    assert(n > 9);
    return 0;
}
"""

SUITE_PROGRAMS = (
    ("alpha.c", ALPHA_SRC),
    ("beta.c", BETA_SRC),
    ("gamma.c", GAMMA_SRC),
    ("delta.c", DELTA_SRC),
    ("epsilon.c", EPSILON_SRC),
    ("zeta.c", ZETA_SRC),
)

SUITE_SCRIPT = {
    "lift|initial": contract_reply(
        requires=("a > 0",), assigns=("a",),
        ensures=("__ESBMC_return_value > a",)),
    "gainb|initial": contract_reply(
        assigns=("b",), ensures=("__ESBMC_return_value == b * 2",)),
    "emit|initial": contract_reply(
        assigns=("c",), ensures=("__ESBMC_return_value > c",)),
    # rejected by the rule below, then repaired on the first relax
    "shot|initial": contract_reply(
        assigns=("y",), ensures=("__ESBMC_return_value == y + 9",)),
    "shot|relax": contract_reply(
        assigns=("y",), ensures=("__ESBMC_return_value == y + 4",)),
    "hold|initial": contract_reply(
        assigns=("d",), ensures=("__ESBMC_return_value > d",)),
    # three distinct wrong answers so the run never stagnates, only exhausts
    "stuck|initial": contract_reply(
        assigns=("u",), ensures=("__ESBMC_return_value == u * 3 - 1",)),
    "stuck|relax": contract_reply(
        assigns=("u",), ensures=("__ESBMC_return_value == u * 4 - 1",)),
    "stuck|cegis": contract_reply(
        assigns=("u",), ensures=("__ESBMC_return_value == u * 5 - 1",)),
    "bump|initial": "no contract in this reply",
    "tick|initial": contract_reply(
        assigns=("z",), ensures=("__ESBMC_return_value > z",)),
}


def _suite_rule(src, mode):
    text = src.text
    if mode == "function:shot" and "y + 9" in text:
        return failure_output(
            "contract postcondition",
            steps=[{"function": "shot", "line": 2, "assigns": [("y", "4")]}],
            at_function="shot")
    if mode == "function:stuck":
        return failure_output(
            "contract postcondition",
            steps=[{"function": "stuck", "line": 2, "assigns": [("u", "2")]}],
            at_function="stuck")
    if mode == "system" and "w > 90" in text:
        return failure_output(
            "w > 90",
            steps=[{"function": "main", "line": 7, "assigns": [("w", "85")]}])
    return success_output()


class ThreadClock(threading.local):
    """A monotonic clock per thread that moves only when told to. A suite
    runs each program on one thread, so a program that spends its budget
    spends no other program's."""
    now = 0.0

    def monotonic(self) -> float:
        return self.now


class SpendingVerifier:
    """Checks through inner; a system check of one of texts first moves the
    clock past the budget it was given."""

    def __init__(self, inner, clock: ThreadClock, texts):
        self.inner, self.clock, self.texts = inner, clock, texts

    def system(self, src, timeout_s=None):
        if src.text in self.texts:
            self.clock.now += timeout_s + 1.0
        return self.inner.system(src, timeout_s)

    def function(self, src, name, timeout_s=None):
        return self.inner.function(src, name, timeout_s)


def test_criterion_08_outcome_taxonomy_and_histogram(tmp_path, monkeypatch):
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    transcripts = tmp_path / "transcripts"
    transcripts.mkdir()
    # a budget no real check spends: only zeta's system check spends it, on
    # a fake clock
    cfg = PipelineConfig(k_cegar=1, k_cegis=1, total_budget=2, timeout_s=600.0)

    expected_recording = {
        "alpha.c": RunOutcome.CONVERGED,
        "beta.c": RunOutcome.CONVERGED,
        "gamma.c": RunOutcome.CONVERGED,
        "delta.c": RunOutcome.SYSTEM_ONLY,
        "epsilon.c": RunOutcome.FAILED,
        "zeta.c": RunOutcome.CONVERGED,  # poisoned into a timeout below
    }
    zeta_recorder = None
    for name, source in SUITE_PROGRAMS:
        recorder = RecordingVerifier(RuleVerifier(_suite_rule), fixtures)
        report = run_program(name, source, cfg,
                             ScriptedLlmClient(dict(SUITE_SCRIPT)), recorder)
        assert report.outcome is expected_recording[name], name
        if name == "zeta.c":
            zeta_recorder = recorder

    # zeta's replayed system check spends the wall budget, turning its run
    # into a timeout
    zeta_system = {text for text, mode, _ in zeta_recorder.seen if mode == "system"}
    assert zeta_system

    (transcripts / "scripts.json").write_text(
        json.dumps(SUITE_SCRIPT, indent=2), encoding="utf-8")

    clock = ThreadClock()
    monkeypatch.setattr(refinement, "time", clock)
    replay = SpendingVerifier(SubprocessVerifier(VerifierConfig(
        backend_path="mock", timeout_s=600.0, fixtures_dir=str(fixtures))), clock, zeta_system)
    suites = {}
    for workers in (1, 3):
        suites[workers] = run_suite(
            SUITE_PROGRAMS, cfg,
            lambda: make_client("scripted", str(transcripts)),
            replay, workers=workers)

    expected_outcomes = {
        "alpha.c": "converged",
        "beta.c": "converged",
        "gamma.c": "converged",
        "delta.c": "system_only",
        "epsilon.c": "failed",
        "zeta.c": "timeout",
    }
    for suite in suites.values():
        assert suite.outcome_map() == expected_outcomes
        assert suite.totals() == {"converged": 3, "system_only": 1,
                                  "failed": 1, "timeout": 1}
        assert suite.histogram() == {0: 2, 1: 1}

    assert suites[1].to_dict() == suites[3].to_dict()
    for one, three in zip(suites[1].reports, suites[3].reports):
        assert (canonical_run_bytes(one.verdict, one.log)
                == canonical_run_bytes(three.verdict, three.log))


# --------------------------------------------------------------------------
# Criterion 9: complexity scoring is deterministic across a fixture set that
# spans all four tiers, with the boundary scores 5.0, 10.0 and 20.0 landing
# in the upper tier of each half-open split.
# --------------------------------------------------------------------------

def _if_chain(n: int) -> str:
    return "\n".join(f"    if (x > {j}) {{ x = x + 1; }}" for j in range(n))


TIER_SRC = f"""\
int m1(int x) {{
    return x;
}}

int m2(int x) {{
{_if_chain(1)}
    return x;
}}

int m3(int x) {{
{_if_chain(4)}
    return x;
}}

int l1(int x) {{
{_if_chain(10)}
    return x;
}}

int l2(int x) {{
    int i = 0;
    while (i < x) {{
        i = i + 1;
    }}
    return i;
}}

int l3(int x) {{
    int i = 0;
    while (i < x) {{
        i = i + 1;
    }}
{_if_chain(4)}
    return x;
}}

int d1(int x) {{
{_if_chain(20)}
    return x;
}}

int d2(int x) {{
    int i = 0;
    int j = 0;
    while (i < x) {{
        i = i + 1;
    }}
    while (j < x) {{
        j = j + 1;
    }}
    return i + j;
}}

int d3(int x) {{
    int i = 0;
    int total = 0;
    while (i < x) {{
        int j = 0;
        while (j < x) {{
            j = j + 1;
            total = total + 1;
        }}
        i = i + 1;
    }}
    return total;
}}

int h1(int n) {{
    return h1(n);
}}

int h2(int n) {{
    if (n > 0) {{ return h2(n - 1); }}
    return 0;
}}

int h3(int x) {{
    while (1) {{
        x = x + 1;
        break;
    }}
    return x;
}}

int main() {{
    int r = m1(1) + m2(1) + m3(1) + l1(1) + l2(1) + l3(1);
    int s = d1(1) + d2(1) + d3(1) + h2(1) + h3(1);
    assert(r + s >= 0);
    return 0;
}}
"""

EXPECTED_TIERS = {
    "m1": (0.0, Tier.MINIMAL),
    "m2": (0.5, Tier.MINIMAL),
    "m3": (2.0, Tier.MINIMAL),
    "l1": (5.0, Tier.LOW),       # lower boundary of the low tier
    "l2": (6.0, Tier.LOW),
    "l3": (8.0, Tier.LOW),
    "d1": (10.0, Tier.MEDIUM),   # lower boundary of the medium tier
    "d2": (11.0, Tier.MEDIUM),
    "d3": (12.0, Tier.MEDIUM),
    "h1": (20.0, Tier.HIGH),     # lower boundary of the high tier
    "h2": (20.5, Tier.HIGH),
    "h3": (26.0, Tier.HIGH),
}


def test_criterion_09_complexity_tiers_and_boundaries():
    model = parse_program(TIER_SRC)
    assert len(model.functions) == 12

    scored = {f.name: (f.metrics.score, f.metrics.tier) for f in model.functions}
    assert scored == EXPECTED_TIERS
    assert {tier for _, tier in scored.values()} == set(Tier)

    again = parse_program(TIER_SRC)
    assert {f.name: f.metrics.score for f in again.functions} == {
        name: score for name, (score, _) in EXPECTED_TIERS.items()}

    low, high = partition_functions(model, 10.0)
    assert {f.name for f in low} == {"m1", "m2", "m3", "l1", "l2", "l3"}
    assert {f.name for f in high} == {"d1", "d2", "d3", "h1", "h2", "h3"}


# --------------------------------------------------------------------------
# Criterion 10: the example-learning ablation shows in the prompts. With
# learning on, a populated database puts example sections into the
# strengthen prompt; with learning off, no prompt carries them.
# --------------------------------------------------------------------------

ABLATION_SRC = """\
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

ABLATION_SCRIPT = {
    "gain|initial": contract_reply(
        assigns=("s",), ensures=("__ESBMC_return_value > s",)),
    "gain|strengthen": contract_reply(
        assigns=("s",), ensures=("__ESBMC_return_value == s + 4",)),
    "route|initial": contract_reply(
        assigns=("t",), ensures=("__ESBMC_return_value == t + 1",)),
}


def _ablation_rule(src, mode):
    if mode == "system" and "__ESBMC_return_value == s + 4" not in src.text:
        return failure_output(
            "a > 4 && b > a",
            steps=[{"function": "main", "line": 10, "assigns": [("a", "3")]},
                   {"function": "main", "line": 11, "assigns": [("b", "4")]}])
    return success_output()


def _prompts(log: RunLog, intent=None):
    return [e["prompt"] for e in log.of_kind("synthesis")
            if intent is None or e["intent"] == intent]


def test_criterion_10_example_learning_ablation_prompt_contract():
    smart_verdict, smart_log = _pipeline(
        ABLATION_SRC, dict(ABLATION_SCRIPT), RuleVerifier(_ablation_rule))
    assert smart_verdict.outcome is VerdictOutcome.VERIFIED
    assert any(e["action"] == "admitted_negative"
               for e in smart_log.of_kind("db"))
    strengthen_prompts = _prompts(smart_log, "strengthen")
    assert strengthen_prompts
    assert any("(E+)" in p and "(E-)" in p for p in strengthen_prompts)

    plain_verdict, plain_log = _pipeline(
        ABLATION_SRC, dict(ABLATION_SCRIPT), RuleVerifier(_ablation_rule),
        strategy=Strategy.NO_ICE)
    assert plain_verdict.outcome is VerdictOutcome.VERIFIED
    assert plain_log.of_kind("db") == []
    all_prompts = _prompts(plain_log)
    assert all_prompts
    for prompt in all_prompts:
        assert "(E+)" not in prompt
        assert "(E-)" not in prompt
