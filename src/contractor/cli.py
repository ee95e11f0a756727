"""Command line front end.

Two subcommands: `verify` takes one C file and prints the verdict, `suite`
runs a directory (or an explicit list) of programs and prints the outcome
table. Exit code for `verify` is 0/1/2 for verified/falsified/inconclusive;
`suite` exits 0 only when every program converged.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .errors import ContractorError
from .harness import (
    RunReport,
    canonical_run_bytes,
    run_program,
    run_suite,
    write_report,
)
from .mock_backend import source_digest
from .refinement import PipelineConfig, Strategy, VerdictOutcome, available_cpus
from .synthesis import make_client
from .verifier import SubprocessVerifier, VerifierConfig


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strategy", choices=[s.value for s in Strategy],
                   default=Strategy.SMART_ICE.value)
    p.add_argument("--backend", default="esbmc",
                   help="verifier executable; 'mock' replays recorded transcripts")
    p.add_argument("--fixtures", default=None,
                   help="transcript directory for the mock backend")
    p.add_argument("--backend-arg", action="append", default=[],
                   help="extra flag passed through to the backend (repeatable)")
    p.add_argument("--llm", choices=["live", "replay", "scripted"], default="live")
    p.add_argument("--transcripts", default=None,
                   help="prompt/reply store for replay and scripted modes")
    p.add_argument("--max-iterations", type=int, default=None, metavar="N",
                   help="cap each refinement loop at N (total budget 2N)")
    p.add_argument("--timeout-s", type=float, default=600.0)
    p.add_argument("--workers", type=int, default=available_cpus(),
                   help="verify: checks of one round in flight at once, each a "
                        "backend process with its own memory (pass 1 for a "
                        "memory-hungry backend), and threads for pre-abstraction "
                        "synthesis; suite: programs run at once, each checking "
                        "serially (default: the CPUs available)")
    p.add_argument("--tau", type=float, default=10.0,
                   help="complexity threshold for the pre-abstraction split")
    p.add_argument("--report", default=None, help="write a JSON report here")


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    kw = dict(
        tau=args.tau,
        strategy=Strategy(args.strategy),
        timeout_s=args.timeout_s,
        workers=args.workers,
    )
    if args.max_iterations is not None:
        kw.update(k_cegar=args.max_iterations, k_cegis=args.max_iterations,
                  total_budget=2 * args.max_iterations)
    return PipelineConfig(**kw)


def _verifier(args: argparse.Namespace) -> SubprocessVerifier:
    cfg = VerifierConfig(
        backend_path=args.backend,
        extra_flags=tuple(args.backend_arg),
        timeout_s=args.timeout_s,
        fixtures_dir=args.fixtures,
    )
    return SubprocessVerifier(cfg)


def _print_verdict(report: RunReport) -> None:
    v = report.verdict
    print(f"program: {report.name}")
    print(f"outcome: {report.outcome.value}")
    if report.error:
        print(f"error: {report.error}")
    if v is None:
        return
    print(f"stage: {v.stage}")
    print(f"iterations: {v.iterations_used}")
    print(f"system check: {v.system_status or 'not run'}")
    if v.falsified_property:
        print(f"refuted property: {v.falsified_property}")
    for name, status in v.per_function_status:
        print(f"  {name}: {status}")
    for name, c in v.contracts:
        parts = []
        for kw, clauses in (("requires", c.requires), ("assigns", c.assigns),
                            ("ensures", c.ensures)):
            for cl in clauses:
                parts.append(f"{kw}({cl})")
        for ordinal, inv in c.loop_invariants:
            parts.append(f"loop[{ordinal}] invariant({inv})")
        print(f"  {name}: {'; '.join(parts) if parts else '(empty)'}")


def _cmd_verify(args: argparse.Namespace) -> int:
    source = Path(args.program).read_text(encoding="utf-8")
    cfg = _pipeline_config(args)
    client = make_client(args.llm, args.transcripts)
    verifier = _verifier(args)
    report = run_program(Path(args.program).name, source, cfg, client, verifier)
    _print_verdict(report)
    if args.runlog:
        Path(args.runlog).write_text(report.log.to_jsonl(), encoding="utf-8")
    if args.report:
        payload = report.to_dict()
        payload["canonical_sha256"] = source_digest(
            canonical_run_bytes(report.verdict, report.log))
        Path(args.report).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    v = report.verdict
    if v is not None and v.outcome is VerdictOutcome.VERIFIED:
        return 0
    if v is not None and v.outcome is VerdictOutcome.FALSIFIED:
        return 1
    return 2


def _collect_programs(paths: Sequence[str]) -> List[Tuple[str, str]]:
    out: List[Tuple[str, str]] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            for f in sorted(p.glob("*.c")):
                out.append((f.name, f.read_text(encoding="utf-8")))
        else:
            out.append((p.name, p.read_text(encoding="utf-8")))
    return out


def _cmd_suite(args: argparse.Namespace) -> int:
    programs = _collect_programs(args.paths)
    cfg = _pipeline_config(args)
    verifier = _verifier(args)
    factory = lambda: make_client(args.llm, args.transcripts)  # noqa: E731
    suite = run_suite(programs, cfg, factory, verifier, workers=args.workers)
    width = max((len(r.name) for r in suite.reports), default=4)
    for r in suite.reports:
        print(f"{r.name:<{width}}  {r.outcome.value:<11}  iterations={r.iterations}")
    totals = suite.totals()
    print("totals: " + ", ".join(f"{k}={v}" for k, v in sorted(totals.items())))
    hist = suite.histogram()
    if hist:
        print("histogram (iterations over converged runs): "
              + ", ".join(f"{k}: {v}" for k, v in hist.items()))
    if args.report:
        write_report(suite, args.report)
    every = totals["converged"] == len(suite.reports)
    return 0 if every else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contractor",
        description="Compositional verification of C programs: derive "
                    "per-function contracts from a system-level assertion, "
                    "check them with a bounded model checker, refine on "
                    "counterexamples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="verify a single program")
    pv.add_argument("program")
    pv.add_argument("--runlog", default=None, help="write the event log (JSONL) here")
    _add_common(pv)
    pv.set_defaults(func=_cmd_verify)

    ps = sub.add_parser("suite", help="run a directory or list of programs")
    ps.add_argument("paths", nargs="+")
    _add_common(ps)
    ps.set_defaults(func=_cmd_suite)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ContractorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
