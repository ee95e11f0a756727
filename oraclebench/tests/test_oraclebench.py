"""Tests of the benchmark itself: the oracle, the generator, the model
against a real compiler, and a tiny run of every workload.

    python -m pytest oraclebench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import run  # noqa: E402

assert run.use_sources()

from contractor.contracts import Contract, render_enforce, render_replace  # noqa: E402
from contractor.program_model import Tier, parse_program  # noqa: E402
from oracle import Program  # noqa: E402
from workloads import GENERATORS, WORKLOADS  # noqa: E402

RV = "__ESBMC_return_value"


def _single(name, fn_name, param, body, call_arg, prop):
    return Program({
        "name": name,
        "functions": [{"name": fn_name, "params": [[param, -20, 20]], "ret": [-60, 60],
                       "body": body, "doc": [], "static": False}],
        "main": [["decl", "a", str(call_arg)], ["call", "b", fn_name, ["a"]]],
        "property": prop,
    })


INCREMENT = _single("increment", "increment", "x", [["return", "x + 1"]], 1, "b > a")
STEP = _single("step", "step", "q", [["return", "q + 2"]], 1, "b >= 1")


def test_oracle_accepts_the_increment_contract():
    model = parse_program(INCREMENT.text)
    c = Contract("increment", requires=("x > 0",), ensures=(f"{RV} > x",), assigns=("x",))
    assert "VERIFICATION SUCCESSFUL" in INCREMENT.decide(render_enforce(model, c).text, "increment")
    assert "VERIFICATION SUCCESSFUL" in INCREMENT.decide(render_replace(model, [c]).text, None)
    # without the contract the system check runs increment concretely
    assert "VERIFICATION SUCCESSFUL" in INCREMENT.decide(INCREMENT.text, None)


@pytest.mark.parametrize("n", range(0, 11))
def test_oracle_rejects_the_doomed_step_replies(n):
    model = parse_program(STEP.text)
    c = Contract("step", requires=(), ensures=(f"{RV} < -{n}",), assigns=("q",))
    out = STEP.decide(render_enforce(model, c).text, "step")
    assert "VERIFICATION FAILED" in out
    assert f"{RV} < -{n}" in out.split("Violated property:")[1]
    assert f"  {RV} = " in out  # the trace carries the offending return value


def test_oracle_rejects_a_false_invariant_at_a_loop_head():
    p = GENERATORS["refine-deep"](3)[0]
    prog = Program(p["model"])
    model = parse_program(prog.text)
    name = p["model"]["functions"][0]["name"]
    c = Contract(name, requires=("n >= 0 && n <= 150",), ensures=(f"{RV} >= 0",),
                 assigns=(), loop_invariants=((0, "s <= 40"),))
    out = prog.decide(render_enforce(model, c).text, name)
    assert "loop invariant" in out and "VERIFICATION FAILED" in out
    assert out.count("State ") > 20


def test_oracle_refuses_text_that_is_not_the_program():
    assert "ERROR" in INCREMENT.decide(INCREMENT.text.replace("x + 1", "x + 2"), None)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    gen = GENERATORS[workload]
    assert json.dumps(gen(5), sort_keys=True) == json.dumps(gen(5), sort_keys=True)
    assert json.dumps(gen(5), sort_keys=True) != json.dumps(gen(6), sort_keys=True)


def test_frama_small_stays_in_the_low_tiers():
    for p in GENERATORS["frama-small"](2):
        for f in parse_program(Program(p["model"]).text).functions:
            assert f.metrics.tier in (Tier.MINIMAL, Tier.LOW), (p["name"], f.name)


def test_preabs_large_spans_every_tier():
    for p in GENERATORS["preabs-large"](2):
        text = Program(p["model"]).text
        assert len(text) > 16000
        tiers = {f.metrics.tier for f in parse_program(text).functions}
        assert tiers == set(Tier)


@pytest.mark.skipif(shutil.which("gcc") is None, reason="gcc not on PATH")
@pytest.mark.parametrize("workload", WORKLOADS)
def test_compiled_programs_agree_with_the_model(workload, tmp_path):
    for seed in (1, 2):
        for p in GENERATORS[workload](seed):
            prog = Program(p["model"])
            src = tmp_path / "prog.c"
            exe = tmp_path / "prog"
            src.write_text(prog.text)
            subprocess.run(["gcc", "-w", "-O0", "-o", str(exe), str(src)], check=True,
                           timeout=60)
            rc = subprocess.run([str(exe)], capture_output=True, timeout=60).returncode
            assert (rc == 0) == prog.concrete_property() == p["expect"]["property"], p["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_of_every_workload(workload, tmp_path):
    bench = run.Bench(workload, 4, tmp_path)
    bench.programs = bench.programs[:2]
    metrics, attempted, problems = run.measure(bench, 0.0)
    assert problems == [] and attempted == 2
    assert set(metrics) | {"setup_s"} == set(run.END_TO_END_UNITS)
    traced, attempted, problems = run.measure_traced(bench, tmp_path / "out", 4)
    assert problems == [] and attempted == 4
    assert traced["verifier.tool_errors"]["value"] == 0
    assert traced["verifier.checks"]["value"] > 0
    assert list((tmp_path / "out").glob("trace-*.jsonl"))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("_work", "_out"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "frama-small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
