"""Backend output parsing and the subprocess driver, exercised end to end
against the bundled transcript-replay backend."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest

from contractor.contracts import Contract, ContractOrigin, render_enforce, render_replace
from contractor.errors import BackendNotFoundError
from contractor.ice import render_trace
from contractor import mock_backend
from contractor.mock_backend import lookup, source_digest, transcript_name, write_transcript
from contractor.program_model import parse_program
from contractor.verifier import (
    MOCK_COMMAND,
    Status,
    SubprocessVerifier,
    VerifierConfig,
    parse_verifier_output,
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


def test_trace_values_are_normalized_once_at_parse():
    out = failure_output("r > n", steps=[
        {"function": "main", "line": 7,
         "assigns": [("n", "150 (00000000 00000000 00000000 10010110)"), ("p", "0x10")]},
        {"function": "main", "line": 8, "assigns": [("r", "nondet_symbol!0")]},
    ])
    status, parsed = parse_verifier_output(out)
    assert status is Status.FAIL
    assert [s.assignments for s in parsed.trace] == [
        (("n", "150"), ("p", "16")), (("r", "nondet_symbol!0"),)]
    assert parsed.key_map() == {"n": "150", "r": "nondet_symbol!0"}
    assert "n = 150; p = 16" in render_trace(parsed).splitlines()[2]


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


def test_call_and_return_steps_are_parsed_and_rendered():
    rule = "-" * 50
    out = (f"[Counterexample]\n\nState 1 file program.c line 9 function main thread 0\n"
           f"{rule}\n  call increment(n)\n\n"
           f"State 2 file program.c line 4 function increment thread 0\n"
           f"{rule}\n  return x + 1\n\n"
           "Violated property:\n  file program.c line 10 function main\n  assertion\n"
           "  r > n\n\nVERIFICATION FAILED\n")
    status, parsed = parse_verifier_output(out)
    assert status is Status.FAIL
    assert [(s.kind, s.function, s.line, s.note) for s in parsed.trace] == [
        ("call", "main", 9, "increment(n)"), ("return", "increment", 4, "x + 1")]
    assert render_trace(parsed).splitlines()[2:] == [
        "  1. [main line 9] call increment(n)", "  2. [increment line 4] return x + 1"]


def test_unknown_output_is_tool_error():
    status, parsed = parse_verifier_output("segfault\n")
    assert status is Status.TOOL_ERROR
    assert parsed is None


def test_empty_output_is_tool_error():
    status, _ = parse_verifier_output("")
    assert status is Status.TOOL_ERROR


FAILURE = failure_output("r > n", steps=[{"function": "main", "line": 8,
                                          "assigns": [("r", "5")]}])

# (reply, exit code, status); None is a backend stopped at its timeout
STATUS_TABLE = [
    pytest.param(success_output(), None, Status.TIMEOUT, id="timeout"),
    pytest.param("could not find function increment\n" + FAILURE, 1, Status.TOOL_ERROR,
                 id="not-found-and-failure"),
    pytest.param(FAILURE, 1, Status.FAIL, id="failure-exit-1"),
    pytest.param(success_output() + FAILURE, 0, Status.FAIL, id="both-markers-exit-0"),
    pytest.param(success_output(), 0, Status.PASS, id="success-exit-0"),
    pytest.param(success_output(), 3, Status.TOOL_ERROR, id="success-exit-3"),
    pytest.param("segfault\n", 0, Status.TOOL_ERROR, id="no-marker"),
    pytest.param("", 0, Status.TOOL_ERROR, id="empty"),
]


def script_backend_reading(tmp_path, reply, code):
    """(status, parsed) of a SubprocessVerifier check on a script backend
    that prints reply and exits with code, or hangs past the timeout when
    code is None."""
    (tmp_path / "reply.txt").write_text(reply, encoding="utf-8")
    end = "exec sleep 30" if code is None else f"exit {code}"
    backend = tmp_path / "backend.sh"
    backend.write_text(f"#!/bin/sh\ncat '{tmp_path / 'reply.txt'}'\n{end}\n", encoding="utf-8")
    backend.chmod(0o755)
    cfg = VerifierConfig(backend_path=str(backend), timeout_s=0.5 if code is None else 30.0)
    result = SubprocessVerifier(cfg).function(render_enforce(parse_program(INC), inc_contract()),
                                              "increment")
    if code is not None:
        assert result.raw_output == reply
    return result.status, result.parsed


@pytest.mark.parametrize("reading", ["parse", "subprocess"])
@pytest.mark.parametrize("reply, code, status", STATUS_TABLE)
def test_every_reply_is_read_by_one_rule(tmp_path, reading, reply, code, status):
    # the subprocess verifier and every in-process reader see one status
    if reading == "parse":
        got, parsed = parse_verifier_output(reply, code)
    else:
        got, parsed = script_backend_reading(tmp_path, reply, code)
    assert got is status
    assert (parsed is not None) is (status is Status.FAIL)
    if status is Status.FAIL:
        assert parsed == parse_verifier_output(FAILURE)[1]


def test_mode_key():
    model = parse_program(INC)
    c = inc_contract()
    assert render_enforce(model, c).mode == "function:increment"
    assert render_replace(model, [c]).mode == "system"


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
    fn_result = SubprocessVerifier(cfg).function(enf, "increment")
    assert fn_result.status is Status.PASS

    sys_result = SubprocessVerifier(cfg).system(rep)
    assert sys_result.status is Status.FAIL
    assert sys_result.parsed.violated_property == "r > n"
    assert sys_result.parsed.key_map() == {"r": "5", "n": "5"}


def test_mock_backend_miss_is_tool_error(tmp_path):
    # the miss line is printed, and still arrives whole from a child that
    # ends without finalizing
    model = parse_program(INC)
    enf = render_enforce(model, inc_contract())
    cfg = VerifierConfig(backend_path="mock", fixtures_dir=str(tmp_path), timeout_s=30.0)
    result = SubprocessVerifier(cfg).function(enf, "increment")
    assert result.status is Status.TOOL_ERROR
    assert result.raw_output == (f"MOCK: no transcript for digest={source_digest(enf.text)}"
                                 " mode=function:increment\n")


def test_mock_backend_sleep_triggers_timeout(tmp_path):
    model = parse_program(INC)
    enf = render_enforce(model, inc_contract())
    write_transcript(str(tmp_path), enf.text, "function:increment",
                     success_output(), sleep_s=5.0)
    cfg = VerifierConfig(backend_path="mock", fixtures_dir=str(tmp_path), timeout_s=0.8)
    result = SubprocessVerifier(cfg).function(enf, "increment")
    assert result.status is Status.TIMEOUT


def test_missing_backend_raises(tmp_path):
    model = parse_program(INC)
    enf = render_enforce(model, inc_contract())
    cfg = VerifierConfig(backend_path="/nonexistent/esbmc-bin", timeout_s=5.0)
    with pytest.raises(BackendNotFoundError):
        SubprocessVerifier(cfg).function(enf, "increment")


@pytest.mark.parametrize("outcome", ["pass", "fail", "timeout", "missing"])
def test_a_check_leaves_no_temporary_file(tmp_path, monkeypatch, outcome):
    # the source file of a check is removed however the check ends
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    enf = render_enforce(parse_program(INC), inc_contract())
    fixtures = str(tmp_path / "fixtures")
    reply = success_output() if outcome != "fail" else failure_output("r > n", steps=[])
    write_transcript(fixtures, enf.text, enf.mode, reply,
                     sleep_s=5.0 if outcome == "timeout" else None)
    backend = "/nonexistent/esbmc-bin" if outcome == "missing" else "mock"
    cfg = VerifierConfig(backend_path=backend, fixtures_dir=fixtures, timeout_s=0.8)
    if outcome == "missing":
        with pytest.raises(BackendNotFoundError):
            SubprocessVerifier(cfg).function(enf, "increment")
    else:
        result = SubprocessVerifier(cfg).function(enf, "increment")
        assert result.status is {"pass": Status.PASS, "fail": Status.FAIL,
                                 "timeout": Status.TIMEOUT}[outcome]
        assert Path(result.command[-1]).name.startswith("contractor-")
    assert list((tmp_path / "tmp").iterdir()) == []


@pytest.mark.parametrize("marker, code, status", [
    ("VERIFICATION SUCCESSFUL", 0, Status.PASS),
    # printed the marker, then crashed: nothing was proved
    ("VERIFICATION SUCCESSFUL", 1, Status.TOOL_ERROR),
    ("VERIFICATION FAILED", 0, Status.FAIL),
    ("VERIFICATION FAILED", 1, Status.FAIL),
    # the backend found no function to check
    ("could not find function increment", 0, Status.TOOL_ERROR),
])
def test_a_pass_needs_exit_code_zero(tmp_path, marker, code, status):
    backend = tmp_path / "backend.sh"
    backend.write_text(f"#!/bin/sh\necho '{marker}'\nexit {code}\n", encoding="utf-8")
    backend.chmod(0o755)
    enf = render_enforce(parse_program(INC), inc_contract())
    cfg = VerifierConfig(backend_path=str(backend), timeout_s=30.0)
    result = SubprocessVerifier(cfg).function(enf, "increment")
    assert result.status is status
    assert result.raw_output == f"{marker}\n"


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
        SubprocessVerifier(cfg).system(render_enforce(model, c))
    with pytest.raises(ValueError):
        SubprocessVerifier(cfg).function(render_replace(model, [c]), "increment")


def test_digest_stability():
    assert source_digest("abc") == source_digest("abc")
    assert source_digest("abc") != source_digest("abd")


@pytest.mark.parametrize("text", ["", "int main() { return 0; }", "assert(r \u2265 n); // \u00e9\n"],
                         ids=["empty", "ascii", "non-ascii"])
def test_digest_equals_hashlib_sha256(text):
    expected = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert source_digest(text) == expected
    assert source_digest(text.encode("utf-8")) == expected


def test_pipeline_imports_no_openssl_hashlib():
    # the package's one digest uses CPython's built-in SHA-256
    code = "import sys, contractor.harness, contractor.cli\nprint('_hashlib' in sys.modules)"
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def _modules_loaded_by_mock_backend():
    # every mock check starts an interpreter that imports this module
    code = "import sys, contractor.mock_backend\nprint('\\n'.join(sorted(sys.modules)))"
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True)
    return out.stdout.split()


def test_mock_backend_imports_no_third_party_package():
    loaded = _modules_loaded_by_mock_backend()
    assert [m for m in loaded if m.split(".")[0] in ("networkx", "requests")] == []


def test_mock_backend_imports_no_other_contractor_module():
    # the package resolves its public names lazily, so a check loads none of
    # the pipeline
    loaded = _modules_loaded_by_mock_backend()
    assert [m for m in loaded if m.startswith("contractor.")] == ["contractor.mock_backend"]


def test_package_names_resolve_lazily():
    import contractor

    for name in contractor.__all__:
        assert getattr(contractor, name) is not None
    assert contractor.run_suite is contractor.harness.run_suite
    with pytest.raises(AttributeError):
        contractor.nope


def _named_transcript(fixtures_dir: Path, digest: str, mode: str, header: str,
                      output: str) -> None:
    (fixtures_dir / transcript_name(digest, mode)).write_text(f"{header}\n{output}",
                                                              encoding="utf-8")


def test_lookup_reads_the_named_file(tmp_path):
    text = "int main() { return 0; }"
    digest = source_digest(text)
    write_transcript(str(tmp_path), text, "system", "EXACT\n")
    (tmp_path / "renamed.txt").write_text(f"# digest={digest} mode=function:f\nOTHER\n",
                                          encoding="utf-8")
    assert lookup(str(tmp_path), digest, "system") == ("EXACT\n", 0.0)
    assert lookup(str(tmp_path), digest, "function:f") is None


def test_lookup_misses_a_named_file_without_mode(tmp_path):
    digest = source_digest("int main() { return 0; }")
    _named_transcript(tmp_path, digest, "system", f"# digest={digest}", "LEGACY\n")
    assert lookup(str(tmp_path), digest, "system") is None


def test_lookup_misses_a_named_file_with_another_digest(tmp_path):
    digest = source_digest("int main() { return 0; }")
    other = digest[:16] + ("0" if digest[16] != "0" else "1") + digest[17:]
    _named_transcript(tmp_path, digest, "system", f"# digest={other} mode=system", "OTHER\n")
    assert lookup(str(tmp_path), digest, "system") is None
    assert lookup(str(tmp_path), other, "system") == ("OTHER\n", 0.0)


def test_lookup_miss_is_a_tool_error(tmp_path):
    model = parse_program(INC)
    rep = render_replace(model, [inc_contract()])
    digest = source_digest(rep.text)
    _named_transcript(tmp_path, digest, "system", f"# digest={digest}", success_output())
    cfg = VerifierConfig(backend_path="mock", fixtures_dir=str(tmp_path), timeout_s=30.0)
    result = SubprocessVerifier(cfg).system(rep)
    assert result.status is Status.TOOL_ERROR
    assert "no transcript" in result.raw_output


def test_backend_script_finds_fixtures_in_the_environment(tmp_path):
    # fixtures_dir reaches a backend named by path through the environment alone
    model = parse_program(INC)
    enf = render_enforce(model, inc_contract())
    fixtures = tmp_path / "fixtures"
    write_transcript(str(fixtures), enf.text, enf.mode, success_output())
    script = tmp_path / "mock-bmc"
    script.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m contractor.mock_backend "$@"\n',
                      encoding="utf-8")
    script.chmod(0o755)
    cfg = VerifierConfig(backend_path=str(script), fixtures_dir=str(fixtures), timeout_s=30.0)
    assert SubprocessVerifier(cfg).function(enf, "increment").status is Status.PASS


def test_mock_ignores_valued_backend_args(tmp_path):
    # a flag with a value ahead of the source must not be taken for the source
    model = parse_program(INC)
    enf = render_enforce(model, inc_contract())
    write_transcript(str(tmp_path), enf.text, enf.mode, success_output())
    cfg = VerifierConfig(backend_path="mock", fixtures_dir=str(tmp_path), timeout_s=30.0,
                         extra_flags=("--unwind", "5"))
    result = SubprocessVerifier(cfg).function(enf, "increment")
    assert result.status is Status.PASS
    assert result.command[-3:-1] == ("--unwind", "5")


def test_mock_replays_utf8_bytes_whatever_the_stdout_encoding(tmp_path, monkeypatch):
    # the wrapper runs `-m contractor.mock_backend` with site, so the
    # interpreter honours PYTHONIOENCODING
    model = parse_program(INC)
    enf = render_enforce(model, inc_contract())
    fixtures = tmp_path / "fixtures"
    output = success_output().replace("Symex completed", "Symex completed: r \u2265 n")
    write_transcript(str(fixtures), enf.text, enf.mode, output)
    script = tmp_path / "mock-bmc"
    script.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m contractor.mock_backend "$@"\n',
                      encoding="utf-8")
    script.chmod(0o755)
    monkeypatch.setenv("PYTHONIOENCODING", "ascii")
    cfg = VerifierConfig(backend_path=str(script), fixtures_dir=str(fixtures), timeout_s=30.0)
    result = SubprocessVerifier(cfg).function(enf, "increment")
    assert result.status is Status.PASS
    assert result.raw_output == output


def _modules_imported(cmd, env=None):
    """The modules `python -X importtime` reports cmd's interpreter importing,
    and the completed run."""
    run = subprocess.run([cmd[0], "-X", "importtime", *cmd[1:]], env=env,
                         capture_output=True, text=True, timeout=30)
    loaded = [line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines()
              if line.startswith("import time:") and line.count("|") == 2]
    return loaded[1:], run  # loaded[0] is the column heading


def test_mock_check_command_loads_only_the_stdlib(tmp_path):
    # re-run the exact command of a mock check under -X importtime: it loads
    # what a bare start loads, plus the SHA-256 module and itself
    model = parse_program(INC)
    enf = render_enforce(model, inc_contract())
    write_transcript(str(tmp_path), enf.text, enf.mode, success_output())
    cfg = VerifierConfig(backend_path="mock", fixtures_dir=str(tmp_path), timeout_s=30.0)
    result = SubprocessVerifier(cfg).function(enf, "increment")
    assert result.status is Status.PASS
    cmd = list(result.command)
    assert cmd[:5] == list(MOCK_COMMAND)
    assert cmd[:4] == [sys.executable, "-I", "-S", "-c"]
    assert repr(str(Path(mock_backend.__file__).resolve().parent)) in cmd[4]
    source = tmp_path / "program.c"  # the check's own temporary copy is gone
    source.write_text(enf.text, encoding="utf-8")
    loaded, rerun = _modules_imported(
        [*cmd[:-1], str(source)], env=dict(os.environ, CONTRACTOR_MOCK_FIXTURES=str(tmp_path)))
    assert rerun.stdout == success_output()
    bare, _ = _modules_imported([sys.executable, "-I", "-S", "-c", "pass"])
    sha256 = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
    assert sorted(set(loaded) - set(bare)) == sorted({sha256, "mock_backend"})


def test_mock_script_form_replays_the_same_bytes(tmp_path):
    # `python -I -S mock_backend.py` still works as a backend, byte for byte
    model = parse_program(INC)
    enf = render_enforce(model, inc_contract())
    output = success_output().replace("Symex completed", "Symex completed: r \u2265 n")
    write_transcript(str(tmp_path), enf.text, enf.mode, output)
    source = tmp_path / "program.c"
    source.write_text(enf.text, encoding="utf-8")
    args = ["--enforce-contract", "increment", "--unwind", "5", str(source)]
    env = dict(os.environ, CONTRACTOR_MOCK_FIXTURES=str(tmp_path))
    script = subprocess.run([sys.executable, "-I", "-S", mock_backend.__file__, *args],
                            env=env, capture_output=True, timeout=30)
    check = subprocess.run([*MOCK_COMMAND, *args], env=env, capture_output=True, timeout=30)
    assert script.returncode == check.returncode == 0
    assert script.stdout == check.stdout == output.encode("utf-8")
    assert script.stderr == check.stderr == b""


@pytest.fixture
def no_exit(monkeypatch):
    """mock_backend's posix, except that _exit fails the test instead of
    ending pytest: an in-process main must return its code."""
    def _exit(code):
        raise AssertionError(f"main ended the process with code {code}")

    real = mock_backend.posix
    monkeypatch.setattr(mock_backend, "posix",
                        SimpleNamespace(environ=real.environ, stat=real.stat, _exit=_exit))


@pytest.mark.parametrize("on_posix", [True, False])
def test_mock_main_in_process_reads_the_live_environment(tmp_path, monkeypatch, capsys, on_posix,
                                                          no_exit):
    # an in-process call sees a variable set after start-up, on POSIX or not
    model = parse_program(INC)
    enf = render_enforce(model, inc_contract())
    write_transcript(str(tmp_path / "fixtures"), enf.text, enf.mode, success_output())
    source = tmp_path / "program.c"
    source.write_text(enf.text, encoding="utf-8")
    if not on_posix:
        monkeypatch.setattr(mock_backend, "posix", None)
    monkeypatch.setenv("CONTRACTOR_MOCK_FIXTURES", str(tmp_path / "fixtures"))
    assert mock_backend.main(["--enforce-contract", "increment", str(source)]) == 0
    assert capsys.readouterr().out == success_output()
    monkeypatch.setenv("CONTRACTOR_MOCK_FIXTURES", str(source))  # a file
    assert mock_backend.main(["--enforce-contract", "increment", str(source)]) == 0
    assert capsys.readouterr().out == "MOCK: no fixtures directory configured\n"


@pytest.mark.parametrize("env_dir, flag_dir, replays", [
    (None, None, False),
    ("missing", None, False),
    ("program.c", None, False),  # a file, not a directory
    ("fixtures", None, True),
    ("missing", "fixtures", True),
])
def test_mock_reads_its_fixtures_directory(tmp_path, env_dir, flag_dir, replays):
    # the environment names the directory unless --fixtures does; anything
    # but a directory is no fixtures directory at all
    model = parse_program(INC)
    enf = render_enforce(model, inc_contract())
    write_transcript(str(tmp_path / "fixtures"), enf.text, enf.mode, success_output())
    source = tmp_path / "program.c"
    source.write_text(enf.text, encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "CONTRACTOR_MOCK_FIXTURES"}
    if env_dir:
        env["CONTRACTOR_MOCK_FIXTURES"] = str(tmp_path / env_dir)
    flags = ["--fixtures", str(tmp_path / flag_dir)] if flag_dir else []
    out = subprocess.run([*MOCK_COMMAND, *flags, "--enforce-contract", "increment", str(source)],
                         env=env, capture_output=True, text=True, timeout=30)
    assert out.returncode == 0
    assert out.stdout == (success_output() if replays else "MOCK: no fixtures directory configured\n")


# -- a check ends with posix._exit once its reply is flushed -------------------

def test_mock_replays_a_reply_larger_than_a_pipe_buffer(tmp_path):
    # the whole reply is written and flushed before the child ends unfinalized
    model = parse_program(INC)
    enf = render_enforce(model, inc_contract())
    filler = "".join(f"symex step {i}: r ≥ {i}\n" for i in range(16384))
    output = success_output().replace("Symex completed\n", "Symex completed\n" + filler)
    assert len(output.encode("utf-8")) > 256 * 1024
    write_transcript(str(tmp_path), enf.text, enf.mode, output)
    cfg = VerifierConfig(backend_path="mock", fixtures_dir=str(tmp_path), timeout_s=30.0)
    result = SubprocessVerifier(cfg).function(enf, "increment")
    assert result.status is Status.PASS
    assert result.raw_output == output


def test_mock_exit_codes_reach_the_caller(tmp_path):
    # main's usage code, and a traceback with code 1 when main raises
    usage = subprocess.run([*MOCK_COMMAND], capture_output=True, text=True, timeout=30)
    assert usage.returncode == 2
    assert (usage.stdout, usage.stderr.split(" ", 1)[0]) == ("", "usage:")
    missing = subprocess.run([*MOCK_COMMAND, "--fixtures", str(tmp_path),
                              str(tmp_path / "absent.c")],
                             capture_output=True, text=True, timeout=30)
    assert missing.returncode == 1
    assert "FileNotFoundError" in missing.stderr
    assert parse_verifier_output(missing.stdout + missing.stderr)[0] is Status.TOOL_ERROR


def test_exit_now_flushes_both_streams_before_it_ends():
    code = ("import sys; sys.path.append(%r); import mock_backend; "
            "print('reply', end=''); sys.stderr.write('note'); mock_backend.exit_now(3)"
            % str(Path(mock_backend.__file__).parent))
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                         capture_output=True, text=True, timeout=30)
    assert (out.returncode, out.stdout, out.stderr) == (3, "reply", "note")


def test_mock_main_in_process_returns_its_code(tmp_path, monkeypatch, capsys, no_exit):
    # main returns on its usage and miss paths too (the live-environment test
    # covers the others); only exit_now ends the process, off POSIX by raising
    model = parse_program(INC)
    source = tmp_path / "program.c"
    source.write_text(render_enforce(model, inc_contract()).text, encoding="utf-8")
    assert mock_backend.main([]) == 2
    assert capsys.readouterr().err.startswith("usage:")
    assert mock_backend.main(["--fixtures", str(tmp_path), str(source)]) == 0
    assert capsys.readouterr().out.startswith("MOCK: no transcript for digest=")
    monkeypatch.setattr(mock_backend, "posix", None)
    with pytest.raises(SystemExit) as exc:
        mock_backend.exit_now(2)
    assert exc.value.code == 2
