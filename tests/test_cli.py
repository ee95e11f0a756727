"""Command line behavior: argument wiring, the verify and suite subcommands
against the bundled replay backend, exit codes, and the report files."""

from __future__ import annotations

import json

import pytest

from conftest import RecordingVerifier, RuleVerifier, contract_reply, failure_output, success_output
from contractor import cli, harness
from contractor.harness import run_program
from contractor.refinement import PipelineConfig
from contractor.synthesis import ScriptedLlmClient

OK_SRC = """\
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

SCRIPT = {
    "inc|initial": contract_reply(requires=("x > 0",), assigns=("x",),
                                  ensures=("__ESBMC_return_value > x",)),
    "bump|initial": "not a contract",
}


def rule(src, mode):
    if mode == "system" and "b > 9" in src.text:
        return failure_output("b > 9", steps=[
            {"function": "main", "line": 7, "assigns": [("b", "6")]}])
    return success_output()


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """Program files, a scripts.json transcript dir, and mock-backend fixtures
    recorded from an in-process run of the same programs and replies."""
    root = tmp_path_factory.mktemp("cli")
    programs = root / "programs"
    programs.mkdir()
    (programs / "ok.c").write_text(OK_SRC, encoding="utf-8")
    (programs / "bad.c").write_text(BAD_SRC, encoding="utf-8")

    transcripts = root / "transcripts"
    transcripts.mkdir()
    (transcripts / "scripts.json").write_text(json.dumps(SCRIPT), encoding="utf-8")

    fixtures = root / "fixtures"
    fixtures.mkdir()
    cfg = PipelineConfig(timeout_s=60.0)
    for name, src in (("ok.c", OK_SRC), ("bad.c", BAD_SRC)):
        recorder = RecordingVerifier(RuleVerifier(rule), fixtures)
        run_program(name, src, cfg, ScriptedLlmClient(dict(SCRIPT)), recorder)
    return root


def mock_flags(world):
    return ["--backend", "mock", "--fixtures", str(world / "fixtures"),
            "--llm", "scripted", "--transcripts", str(world / "transcripts")]


def test_parser_defaults():
    args = cli.build_parser().parse_args(["verify", "p.c"])
    assert args.strategy == "smart-ice"
    assert args.backend == "esbmc"
    assert args.llm == "live"
    assert args.timeout_s == 600.0
    assert args.workers == PipelineConfig().workers  # the CPUs available
    assert args.tau == 10.0
    assert args.runlog is None
    assert args.max_iterations is None


def test_max_iterations_sets_both_loop_caps():
    args = cli.build_parser().parse_args(["verify", "p.c", "--max-iterations", "3"])
    cfg = cli._pipeline_config(args)
    assert cfg.k_cegar == 3
    assert cfg.k_cegis == 3
    assert cfg.total_budget == 6


def test_suite_workers_size_the_suite_pool_only(world, capsys, monkeypatch):
    # N suite threads, each program checking serially: never N * N checks
    seen = []
    real = harness.run_program

    def spy(name, source, cfg, *args, **kw):
        seen.append((name, cfg.workers))
        return real(name, source, cfg, *args, **kw)

    monkeypatch.setattr(harness, "run_program", spy)
    code = cli.main(["suite", str(world / "programs"), *mock_flags(world), "--workers", "3"])
    assert code == 1  # bad.c does not converge
    assert sorted(seen) == [("bad.c", 1), ("ok.c", 1)]


def test_verify_workers_size_phase_1b(world, capsys, monkeypatch):
    seen = []
    real = cli.run_program

    def spy(name, source, cfg, *args, **kw):
        seen.append(cfg.workers)
        return real(name, source, cfg, *args, **kw)

    monkeypatch.setattr(cli, "run_program", spy)
    code = cli.main(["verify", str(world / "programs" / "ok.c"),
                     *mock_flags(world), "--workers", "3"])
    assert code == 0
    assert seen == [3]


def test_verify_converged_exits_zero(world, capsys, tmp_path):
    runlog = tmp_path / "run.jsonl"
    report = tmp_path / "report.json"
    code = cli.main(["verify", str(world / "programs" / "ok.c"),
                     *mock_flags(world),
                     "--runlog", str(runlog), "--report", str(report)])
    out = capsys.readouterr().out
    assert code == 0
    assert "outcome: converged" in out
    assert "stage: initial" in out
    assert "inc: pass" in out
    assert "ensures(__ESBMC_return_value > x)" in out

    lines = [json.loads(l) for l in runlog.read_text().splitlines()]
    assert any(e["event"] == "verification" for e in lines)

    payload = json.loads(report.read_text())
    assert payload["outcome"] == "converged"
    assert len(payload["canonical_sha256"]) == 64


def test_verify_falsified_exits_one(world, capsys):
    code = cli.main(["verify", str(world / "programs" / "bad.c"),
                     *mock_flags(world)])
    out = capsys.readouterr().out
    assert code == 1
    assert "outcome: failed" in out
    assert "refuted property: b > 9" in out
    assert "bump: no_contract" in out


def test_verify_wall_timeout_exits_two(world, capsys):
    code = cli.main(["verify", str(world / "programs" / "ok.c"),
                     *mock_flags(world), "--timeout-s", "0.0"])
    out = capsys.readouterr().out
    assert code == 2
    assert "outcome: timeout" in out


def test_verify_missing_file_exits_two(world, capsys):
    code = cli.main(["verify", str(world / "programs" / "absent.c"),
                     *mock_flags(world)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")


def test_scripted_client_requires_transcripts(world, capsys):
    code = cli.main(["verify", str(world / "programs" / "ok.c"),
                     "--backend", "mock", "--fixtures", str(world / "fixtures"),
                     "--llm", "scripted"])
    assert code == 2
    assert "scripts.json" in capsys.readouterr().err


def test_suite_mixed_outcomes_exits_one(world, capsys, tmp_path):
    report = tmp_path / "suite.json"
    code = cli.main(["suite", str(world / "programs"),
                     *mock_flags(world), "--report", str(report)])
    out = capsys.readouterr().out
    assert code == 1
    assert "bad.c" in out and "failed" in out
    assert "ok.c" in out and "converged" in out
    assert "totals: converged=1, failed=1, system_only=0, timeout=0" in out
    assert "histogram (iterations over converged runs): 0: 1" in out

    payload = json.loads(report.read_text())
    assert payload["totals"] == {"converged": 1, "failed": 1,
                                 "system_only": 0, "timeout": 0}
    assert [p["name"] for p in payload["programs"]] == ["bad.c", "ok.c"]


def test_suite_all_converged_exits_zero(world, capsys):
    code = cli.main(["suite", str(world / "programs" / "ok.c"),
                     *mock_flags(world)])
    out = capsys.readouterr().out
    assert code == 0
    assert "totals: converged=1" in out


def test_suite_accepts_explicit_file_list(world, capsys):
    code = cli.main(["suite",
                     str(world / "programs" / "ok.c"),
                     str(world / "programs" / "bad.c"),
                     *mock_flags(world)])
    out = capsys.readouterr().out
    assert code == 1
    # explicit list order is preserved, unlike the sorted directory walk
    assert out.index("ok.c") < out.index("bad.c")
