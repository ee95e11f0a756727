"""Backend output parsing and the subprocess driver, exercised end to end
against the bundled transcript-replay backend."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from contractor.contracts import Contract, ContractOrigin, render_enforce, render_replace
from contractor.errors import BackendNotFoundError
from contractor.mock_backend import source_digest, write_transcript
from contractor.program_model import parse_program
from contractor.verifier import (
    Status,
    SubprocessVerifier,
    VerifierConfig,
    mode_key,
    parse_verifier_output,
    verify_function,
    verify_system,
)
from conftest import corpus_sources, failure_output, success_output

INC = dict(corpus_sources())["inc_basic.c"]


def inc_contract() -> Contract:
    return Contract(function="increment", requires=("x > 0",),
                    ensures=("__ESBMC_return_value > x",), assigns=("x",),
                    origin=ContractOrigin.LLM_PRECISE)


def test_parse_success():
    status, parsed = parse_verifier_output(success_output())
    assert status is Status.PASS
    assert parsed is None


def test_parse_failure_extracts_property_and_trace():
    out = failure_output(
        "r > n",
        steps=[
            {"function": "main", "line": 7, "assigns": [("n", "5")]},
            {"function": "increment", "line": 3, "assigns": [("x", "5")]},
            {"function": "main", "line": 8, "assigns": [("r", "5")]},
        ],
    )
    status, parsed = parse_verifier_output(out)
    assert status is Status.FAIL
    assert parsed.violated_property == "r > n"
    assert [s.function for s in parsed.trace] == ["main", "increment", "main"]
    assert parsed.key_map() == {"n": "5", "r": "5"}  # x not in the property


def test_parse_failure_key_vars_fall_back_to_all():
    out = failure_output("0", steps=[{"function": "f", "line": 2,
                                      "assigns": [("a", "1"), ("b", "2")]}])
    status, parsed = parse_verifier_output(out)
    assert status is Status.FAIL
    assert parsed.key_map() == {"a": "1", "b": "2"}


def test_parse_assume_steps():
    out = failure_output(
        "x > 0",
        steps=[
            {"function": "f", "line": 2, "assume": "n < 10"},
            {"function": "f", "line": 3, "assigns": [("x", "0")]},
        ],
    )
    _, parsed = parse_verifier_output(out)
    kinds = [s.kind for s in parsed.trace]
    assert kinds == ["assume", "assign"]
    assert parsed.trace[0].note == "n < 10"


def test_unknown_output_is_tool_error():
    status, parsed = parse_verifier_output("segfault\n")
    assert status is Status.TOOL_ERROR
    assert parsed is None


def test_empty_output_is_tool_error():
    status, _ = parse_verifier_output("")
    assert status is Status.TOOL_ERROR


def test_mode_key():
    model = parse_program(INC)
    c = inc_contract()
    assert mode_key(render_enforce(model, c)) == "function:increment"
    assert mode_key(render_replace(model, [c])) == "system"


def test_mock_backend_round_trip(tmp_path):
    model = parse_program(INC)
    c = inc_contract()
    enf = render_enforce(model, c)
    rep = render_replace(model, [c])
    write_transcript(str(tmp_path), enf.text, "function:increment", success_output())
    write_transcript(str(tmp_path), rep.text, "system",
                     failure_output("r > n", steps=[
                         {"function": "main", "line": 8, "assigns": [("r", "5"), ("n", "5")]}]))

    cfg = VerifierConfig(backend_path="mock", fixtures_dir=str(tmp_path), timeout_s=30.0)
    fn_result = verify_function(enf, "increment", cfg)
    assert fn_result.status is Status.PASS

    sys_result = verify_system(rep, cfg)
    assert sys_result.status is Status.FAIL
    assert sys_result.parsed.violated_property == "r > n"
    assert sys_result.parsed.key_map() == {"r": "5", "n": "5"}


def test_mock_backend_miss_is_tool_error(tmp_path):
    model = parse_program(INC)
    enf = render_enforce(model, inc_contract())
    cfg = VerifierConfig(backend_path="mock", fixtures_dir=str(tmp_path), timeout_s=30.0)
    result = verify_function(enf, "increment", cfg)
    assert result.status is Status.TOOL_ERROR
    assert "no transcript" in result.raw_output


def test_mock_backend_sleep_triggers_timeout(tmp_path):
    model = parse_program(INC)
    enf = render_enforce(model, inc_contract())
    write_transcript(str(tmp_path), enf.text, "function:increment",
                     success_output(), sleep_s=5.0)
    cfg = VerifierConfig(backend_path="mock", fixtures_dir=str(tmp_path), timeout_s=0.8)
    result = verify_function(enf, "increment", cfg)
    assert result.status is Status.TIMEOUT


def test_missing_backend_raises(tmp_path):
    model = parse_program(INC)
    enf = render_enforce(model, inc_contract())
    cfg = VerifierConfig(backend_path="/nonexistent/esbmc-bin", timeout_s=5.0)
    with pytest.raises(BackendNotFoundError):
        verify_function(enf, "increment", cfg)


def test_subprocess_verifier_protocol(tmp_path):
    model = parse_program(INC)
    c = inc_contract()
    enf = render_enforce(model, c)
    rep = render_replace(model, [c])
    for instr, key in ((enf, "function:increment"), (rep, "system")):
        write_transcript(str(tmp_path), instr.text, key, success_output())
    v = SubprocessVerifier(VerifierConfig(backend_path="mock",
                                          fixtures_dir=str(tmp_path), timeout_s=30.0))
    assert v.system(rep).status is Status.PASS
    assert v.function(enf, "increment").status is Status.PASS


def test_wrong_mode_rejected():
    model = parse_program(INC)
    c = inc_contract()
    cfg = VerifierConfig()
    with pytest.raises(ValueError):
        verify_system(render_enforce(model, c), cfg)
    with pytest.raises(ValueError):
        verify_function(render_replace(model, [c]), "increment", cfg)


def test_digest_stability():
    assert source_digest("abc") == source_digest("abc")
    assert source_digest("abc") != source_digest("abd")


def test_mock_backend_imports_no_third_party_package():
    # every mock check starts an interpreter that imports this module
    code = ("import sys, contractor.mock_backend\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('networkx', 'requests')))")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
