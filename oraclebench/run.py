"""Oracle-backed replay benchmark for contractor.

    python3 oraclebench/run.py --workload frama-small --seed 1 --seconds 10 --trace 0

Set-up generates the workload's programs from the seed, runs each one
in-process against the oracle (oracle.py) to record the backend transcripts,
and keeps each run's canonical bytes. The timed phase then replays whole
rounds of the workload through `harness.run_suite` / `harness.run_program`
with the mock backend as a real subprocess per check, until --seconds have
passed. Every report is checked against the construction of its program and
re-validated by the oracle. The last line of output is one JSON object.

--trace 1 runs one untraced and one traced round instead and prints the
per-layer numbers; the spans go to oraclebench/_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

_T0 = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "setup_s": "s",
    "programs_per_s": "1/s",
    "verdict_s_p50": "s",
    "cpu_s_per_program": "s",
    "peak_rss_mb": "MB",
}
SUITE_WORKERS = 2
CHECK_TIMEOUT_S = 120.0


def use_sources() -> bool:
    """Import contractor from this checkout, in this process and in the mock
    backend's child processes."""
    if not (SRC / "contractor" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    rest = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p and p != str(SRC)]
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC)] + rest)
    return True


def process_age_s() -> float:
    """Seconds since this process started, from the kernel's start time."""
    try:
        with open("/proc/self/stat", "r", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T0


def cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Bench:
    """One workload at one seed: set-up, rounds, checks."""

    def __init__(self, workload: str, seed: int, work: Path):
        from contractor.harness import canonical_run_bytes, run_program
        from contractor.mock_backend import write_transcript
        from contractor.refinement import PipelineConfig, Strategy
        from contractor.synthesis import ScriptedLlmClient
        from contractor.verifier import SubprocessVerifier, VerifierConfig
        from oracle import OracleVerifier, Program
        from workloads import GENERATORS

        self.workload = workload
        self.store = work / "transcripts"
        self.store.mkdir(parents=True)
        self.programs = GENERATORS[workload](seed)
        self.oracles: Dict[str, Program] = {}
        self.recorded: Dict[str, bytes] = {}
        self.recorded_checks: List[Tuple[str, str]] = []
        self.configs: Dict[str, PipelineConfig] = {}
        for p in self.programs:
            prog = Program(p["model"])
            if prog.concrete_property() != p["expect"]["property"]:
                raise RuntimeError(f"{p['name']}: model disagrees with its construction")
            cfg = dict(p["config"], strategy=Strategy(p["config"]["strategy"]))
            self.configs[p["name"]] = PipelineConfig(**cfg)
            verifier = OracleVerifier(prog, _parse_result)
            report = run_program(p["name"], prog.text, self.configs[p["name"]],
                                 ScriptedLlmClient(p["script"]), verifier)
            for text, mode, out in verifier.seen:
                write_transcript(str(self.store), text, mode, out)
                self.recorded_checks.append((text, mode))
            self.oracles[p["name"]] = prog
            self.recorded[p["name"]] = canonical_run_bytes(report.verdict, report.log)
        self.script_all: Dict[str, object] = {}
        for p in self.programs:
            self.script_all.update(p["script"])
        self.verifier = SubprocessVerifier(VerifierConfig(
            backend_path="mock", fixtures_dir=str(self.store), timeout_s=CHECK_TIMEOUT_S))
        self._client = ScriptedLlmClient
        self._validated: Dict[str, Optional[str]] = {}

    # -- rounds ---------------------------------------------------------------

    def round(self, tracer=None):
        """Run every program once. Returns (reports, per-program seconds)."""
        from contractor import harness

        verifier = self.verifier

        def wrap_client(client, trace=None):
            return client
        if tracer is not None:
            from tracing import TracedClient, TracedVerifier
            verifier = TracedVerifier(verifier, tracer)

            def wrap_client(client, trace=None):  # noqa: F811
                return TracedClient(client, tracer, trace)
        if self.workload == "frama-small":
            return self._suite_round(harness, verifier, wrap_client)
        reports, latencies = [], []
        for p in self.programs:
            client = wrap_client(self._client(p["script"]), p["name"])
            started = time.perf_counter()
            try:
                reports.append(harness.run_program(p["name"], self.oracles[p["name"]].text,
                                                   self.configs[p["name"]], client, verifier))
            except Exception as exc:  # a program that raises out of run_program fails
                reports.append(exc)
            latencies.append(time.perf_counter() - started)
        return reports, latencies

    def _suite_round(self, harness, verifier, wrap_client):
        """run_suite with two workers. A program's time runs from its client
        being made, just before run_program, to the next client made on the
        same worker thread, or to the end of the suite."""
        starts: List[Tuple[int, float]] = []
        lock = threading.Lock()

        def factory():
            with lock:
                starts.append((threading.get_ident(), time.perf_counter()))
            return wrap_client(self._client(self.script_all))

        cfg = self.configs[self.programs[0]["name"]]
        items = [(p["name"], self.oracles[p["name"]].text) for p in self.programs]
        try:
            reports = list(harness.run_suite(items, cfg, factory, verifier,
                                             workers=SUITE_WORKERS).reports)
        except Exception as exc:  # one raising program aborts the whole suite
            reports = [exc] * len(items)
        ended = time.perf_counter()
        per_thread: Dict[int, List[float]] = {}
        for ident, t in starts:
            per_thread.setdefault(ident, []).append(t)
        latencies = []
        for ts in per_thread.values():
            latencies += [b - a for a, b in zip(ts, ts[1:] + [ended])]
        return reports, latencies

    # -- checks ---------------------------------------------------------------

    def check(self, reports) -> List[str]:
        """One line per program whose report is wrong; empty when all hold."""
        from contractor.harness import canonical_run_bytes

        problems = []
        for p, r in zip(self.programs, reports):
            why = self._check_one(p, r, canonical_run_bytes)
            if why:
                problems.append(f"{p['name']}: {why}")
        return problems

    def _check_one(self, p, r, canonical_run_bytes) -> Optional[str]:
        if isinstance(r, Exception):
            return f"raised {type(r).__name__}: {r}"
        if r.name != p["name"]:
            return f"report for {r.name}"
        if r.error is not None:
            return f"error: {r.error}"
        exp = p["expect"]
        got = {"outcome": r.outcome.value,
               "verdict": r.verdict.outcome.value if r.verdict else None,
               "stage": r.verdict.stage if r.verdict else None,
               "iterations": r.iterations}
        if any(got[k] != exp[k] for k in got):
            return f"got {got}, construction fixes {exp}"
        if not exp["property"] and got["outcome"] == "converged":
            return "false property ended converged"
        if exp["property"] and got["verdict"] == "falsified":
            return "true property ended falsified"
        bad = [e for e in r.log.of_kind("verification") if e["status"] in ("tool_error", "timeout")]
        if bad:
            return f"{len(bad)} checks were tool errors or timeouts"
        if canonical_run_bytes(r.verdict, r.log) != self.recorded[p["name"]]:
            return "replay differs from the in-process recording"
        if got["outcome"] == "converged":
            return self._revalidate(p["name"], r.verdict)
        return None

    def _revalidate(self, name: str, verdict) -> Optional[str]:
        """The oracle's own reading of a converged verdict's contracts."""
        from oracle import Spec

        key = name + json.dumps(verdict.to_dict(), sort_keys=True)
        if key not in self._validated:
            prog = self.oracles[name]
            specs = {}
            for fname, c in verdict.contracts:
                inv: Dict[int, List[str]] = {}
                for n, e in c.loop_invariants:
                    inv.setdefault(n, []).append(e)
                specs[fname] = Spec(list(c.requires), list(c.ensures), list(c.assigns), inv)
            why = None
            for fname, spec in specs.items():
                if prog.check_function(fname, spec) is not None:
                    why = f"contract of {fname} does not hold"
                    break
            if why is None and prog.check_system(specs) is not None:
                why = "contracts do not imply the property"
            self._validated[key] = why
        return self._validated[key]

    def lookup_p50(self, limit: int = 64) -> float:
        from contractor.mock_backend import lookup, source_digest

        times = []
        for text, mode in self.recorded_checks[:limit]:
            digest = source_digest(text)
            started = time.perf_counter()
            hit = lookup(str(self.store), digest, mode)
            times.append(time.perf_counter() - started)
            if hit is None:
                raise RuntimeError("recorded transcript not found in its store")
        return statistics.median(times)


def _parse_result(out: str, mode: str):
    from contractor.verifier import VerificationResult, parse_verifier_output

    status, parsed = parse_verifier_output(out)
    return VerificationResult(status=status, raw_output=out, parsed=parsed,
                              wall_time_s=0.0, mode=mode)


def metric(value: float, unit: str) -> Dict:
    return {"value": value, "unit": unit}


def measure(bench: Bench, seconds: float) -> Tuple[Dict, int, List[str]]:
    reports_all, latencies, problems = [], [], []
    cpu0, wall0 = cpu_s(), time.perf_counter()
    while True:
        reports, lat = bench.round()
        reports_all += reports
        latencies += lat
        if time.perf_counter() - wall0 >= seconds:
            break
    wall = time.perf_counter() - wall0
    cpu = cpu_s() - cpu0
    n = len(reports_all)
    for i in range(0, n, len(bench.programs)):
        problems += bench.check(reports_all[i:i + len(bench.programs)])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "programs_per_s": n / wall,
        "verdict_s_p50": statistics.median(latencies),
        "cpu_s_per_program": cpu / n,
        "peak_rss_mb": peak_kb / 1024,
    }
    return {k: metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}, n, problems


def measure_traced(bench: Bench, out_dir: Path, seed: int) -> Tuple[Dict, int, List[str]]:
    from tracing import Tracer, layer_metrics, log_metrics, rebound

    started = time.perf_counter()
    plain, _ = bench.round()
    plain_s = time.perf_counter() - started
    tracer = Tracer()
    started = time.perf_counter()
    with rebound(tracer):
        traced, _ = bench.round(tracer)
    traced_s = time.perf_counter() - started
    problems = bench.check(plain) + bench.check(traced)
    numbers = layer_metrics(tracer.spans)
    numbers.update(log_metrics(traced))
    numbers["mock_backend.fixtures"] = (len(list(bench.store.glob("*.txt"))), "count")
    numbers["mock_backend.lookup_s_p50"] = (bench.lookup_p50(), "s")
    numbers["trace.overhead_s"] = (traced_s - plain_s, "s")
    out_dir.mkdir(exist_ok=True)
    tracer.write(str(out_dir / f"trace-{bench.workload}-seed{seed}.jsonl"))
    metrics = {k: metric(v, u) for k, (v, u) in sorted(numbers.items())}
    return metrics, len(plain) + len(traced), problems


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not use_sources():
        print(f"oraclebench: no contractor sources under {SRC}", file=sys.stderr)
        return 2
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    tempfile.tempdir = str(work / "tmp")
    try:
        bench = Bench(args.workload, args.seed, work)
        setup_s = process_age_s()
        if args.trace:
            metrics, attempted, problems = measure_traced(bench, HERE / "_out", args.seed)
        else:
            metrics, attempted, problems = measure(bench, args.seconds)
            metrics["setup_s"] = metric(setup_s, END_TO_END_UNITS["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in problems:
        print("FAILED " + line, file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(problems), "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
