"""Re-measure the reference figures quoted in oraclebench/README.md.

    python3 oraclebench/reference.py

Each figure is the median of a few repetitions on an otherwise idle machine:
the cost of spawning a bare interpreter against one mock-backend check, the
import of networkx, render_replace at growing program sizes, mock_backend
lookup at growing store sizes, and extract_implications at growing trace
lengths. Scratch files go under oraclebench/_work/ and are removed.
"""

from __future__ import annotations

import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import run

REPEATS = 5


def timed(fn, repeats: int = REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _loop_program(n_functions: int):
    from oracle import Program
    from workloads import t_sum_while

    rng = random.Random(0)
    units = [t_sum_while(rng, f"f{i:03d}_acc") for i in range(n_functions)]
    fns = [fn for u in units for fn in u["fns"]]
    main = [["call", f"r{i}", u["entry"], u["args"]] for i, u in enumerate(units)]
    prog = Program({"name": "ref", "functions": fns, "main": main, "property": "1"})
    return prog, units


def main() -> int:
    if not run.use_sources():
        print("no contractor sources next to this directory", file=sys.stderr)
        return 2
    from contractor.contracts import Contract, render_replace
    from contractor.mock_backend import lookup, source_digest, write_transcript
    from contractor.program_model import parse_program
    from contractor.ice import extract_implications
    from contractor.verifier import ParsedCounterexample, SubprocessVerifier, TraceStep, \
        VerifierConfig

    work = run.HERE / "_work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(work)
    try:
        spawn = timed(lambda: subprocess.run([sys.executable, "-c", "pass"], check=True))
        print(f"spawn python -c pass          {spawn:8.3f} s")

        prog, units = _loop_program(1)
        model = parse_program(prog.text)
        store = work / "one"
        instr = render_replace(model, [])
        write_transcript(str(store), instr.text, "system", "VERIFICATION SUCCESSFUL\n")
        verifier = SubprocessVerifier(VerifierConfig(backend_path="mock", fixtures_dir=str(store)))
        check = timed(lambda: verifier.system(instr))
        print(f"one mock-backend check        {check:8.3f} s")

        nx = timed(lambda: subprocess.run([sys.executable, "-c", "import networkx"], check=True))
        print(f"import networkx (net of spawn){nx - spawn:8.3f} s")

        for n in (10, 40, 160):
            prog, units = _loop_program(n)
            model = parse_program(prog.text)
            contracts = []
            for u in units:
                good = u["contracts"][u["entry"]]["good"]
                contracts.append(Contract(u["entry"], tuple(good["requires"]),
                                          tuple(good["ensures"]), (),
                                          tuple(enumerate(good["invariants"]))))
            t = timed(lambda: render_replace(model, contracts), repeats=3)
            print(f"render_replace {n:4d} functions {t * 1000:8.1f} ms")

        for n in (100, 1000, 4000):
            store = work / f"store{n}"
            texts = [f"int main() {{ assert({i} >= 0); }}\n" for i in range(n)]
            for text in texts:
                write_transcript(str(store), text, "system", "VERIFICATION SUCCESSFUL\n")
            digest = source_digest(texts[n // 2])
            t = timed(lambda: lookup(str(store), digest, "system"))
            print(f"lookup {n:5d} transcripts       {t * 1000:8.1f} ms")

        for n in (50, 200, 800):
            steps = tuple(TraceStep("f", 3, ((("s", "i")[k % 2], str(k // 2)),))
                          for k in range(n))
            parsed = ParsedCounterexample("s <= 1", steps, ())
            t = timed(lambda: extract_implications(parsed, "f"))
            print(f"extract_implications {n:4d} steps {t * 1000:6.1f} ms")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
