"""Spans around the calls into each `contractor` layer, recorded from the
benchmark's side only.

A traced round wraps the verifier and client objects the benchmark passes in,
and for its duration rebinds the layer entry points that `harness`,
`refinement` and `synthesis` look up by name. Spans stay in memory; the
caller writes them out when the round is over. Spans of one program share a
trace id (the program name). A span opened on a worker thread with no open
span of its own (the phase-1b synthesis pool) hangs under the innermost open
span of its program's home thread.
"""

from __future__ import annotations

import functools
import hashlib
import json
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    id: int
    name: str
    trace: Optional[str]
    parent: Optional[int]
    start: float
    end: float = 0.0
    attrs: Dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home: Dict[str, List[Span]] = {}
        self._next = 0

    def _stack(self) -> List[Span]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @contextmanager
    def span(self, name: str, trace: Optional[str] = None, root: bool = False):
        st = self._stack()
        parent = None
        if st:
            parent = st[-1]
            trace = parent.trace
        elif trace is not None and not root:
            home = self._home.get(trace)
            parent = home[-1] if home else None
        with self._lock:
            self._next += 1
            sp = Span(self._next, name, trace, parent.id if parent else None, 0.0)
        if root and trace is not None:
            self._home[trace] = st
        st.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            st.pop()
            with self._lock:
                self.spans.append(sp)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sp in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps({"id": sp.id, "name": sp.name, "trace": sp.trace,
                                     "parent": sp.parent, "start": sp.start, "end": sp.end,
                                     **sp.attrs}, sort_keys=True) + "\n")


class TracedClient:
    """Client wrapper: one span per model call, tagged with its program."""

    def __init__(self, inner, tracer: Tracer, trace: Optional[str] = None):
        self.inner = inner
        self.tracer = tracer
        self.trace = trace
        self.backend_id = getattr(inner, "backend_id", "traced")

    def complete(self, prompt: str, tags=None) -> str:
        with self.tracer.span("client.complete", self.trace) as sp:
            sp.attrs["prompt_bytes"] = len(prompt.encode("utf-8"))
            return self.inner.complete(prompt, tags)


class TracedVerifier:
    """Verifier wrapper: one span per backend check."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def _check(self, kind: str, src, call):
        with self.tracer.span(f"verifier.{kind}") as sp:
            result = call()
            sp.attrs.update(
                status=result.status.value,
                mode=result.mode,
                digest=hashlib.sha256(src.text.encode("utf-8")).hexdigest(),
                output_bytes=len(result.raw_output.encode("utf-8")),
            )
            return result

    def system(self, src, timeout_s=None):
        return self._check("system", src, lambda: self.inner.system(src, timeout_s))

    def function(self, src, name, timeout_s=None):
        return self._check("function", src, lambda: self.inner.function(src, name, timeout_s))


def _client_trace(args, kwargs) -> Optional[str]:
    for a in list(args) + list(kwargs.values()):
        if isinstance(a, TracedClient):
            return a.trace
    return None


def _wrap(tracer: Tracer, name: str, fn, measure=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        root = name == "harness.run_program"
        trace = args[0] if root else _client_trace(args, kwargs)
        with tracer.span(name, trace, root=root) as sp:
            result = fn(*args, **kwargs)
            if measure is not None:
                sp.attrs.update(measure(args, result))
            return result
    return traced


def _parse_attrs(args, model):
    return {"source_bytes": len(args[0].encode("utf-8")), "functions": len(model.functions)}


def _render_attrs(args, instr):
    return {"out_bytes": len(instr.text.encode("utf-8"))}


ICE_ENTRIES = ("classify", "weakest_link", "extract_implications", "render_diagnostics",
               "admit", "record_positive")
SYNTHESIS_ENTRIES = ("synthesize", "cegis_synthesize", "overapproximate")


@contextmanager
def rebound(tracer: Tracer):
    """Rebind the layer entry points for the duration of a traced round."""
    from contractor import harness, refinement

    targets: List[Tuple[object, str, str, object]] = [
        (harness, "run_program", "harness.run_program", None),
        (harness, "parse_program", "program_model.parse", _parse_attrs),
        (harness, "run_pipeline", "refinement.run_pipeline", None),
        (refinement, "render_replace", "contracts.render_replace", _render_attrs),
        (refinement, "render_enforce", "contracts.render_enforce", _render_attrs),
    ]
    targets += [(refinement, n, f"synthesis.{n}", None) for n in SYNTHESIS_ENTRIES]
    targets += [(refinement, n, f"ice.{n}", None) for n in ICE_ENTRIES]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in targets]
    try:
        for mod, attr, name, measure in targets:
            setattr(mod, attr, _wrap(tracer, name, getattr(mod, attr), measure))
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


# ---------------------------------------------------------------------------
# Per-layer numbers
# ---------------------------------------------------------------------------

def _union(intervals: Iterable[Tuple[float, float]]) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(spans: List[Span], prefix: str) -> float:
    """Summed duration of the spans named `prefix*`, less what their child
    spans cover."""
    children: Dict[int, List[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    total = 0.0
    for sp in spans:
        if sp.name.startswith(prefix):
            kids = [(max(c.start, sp.start), min(c.end, sp.end)) for c in children.get(sp.id, ())]
            total += sp.duration - _union((s, e) for s, e in kids if e > s)
    return total


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: List[Span]) -> Dict[str, Tuple[float, str]]:
    def named(prefix: str) -> List[Span]:
        return [s for s in spans if s.name.startswith(prefix)]

    checks = named("verifier.")
    seen: Dict[str, set] = {}
    repeats = 0
    for sp in sorted(checks, key=lambda s: s.start):
        key = (sp.attrs["digest"], sp.attrs["mode"])
        bucket = seen.setdefault(sp.trace or "", set())
        repeats += key in bucket
        bucket.add(key)
    parses = named("program_model.parse")
    renders = named("contracts.render_")
    clients = named("client.complete")
    return {
        "verifier.checks": (len(checks), "count"),
        "verifier.system_checks": (len(named("verifier.system")), "count"),
        "verifier.function_checks": (len(named("verifier.function")), "count"),
        "verifier.repeat_checks": (repeats, "count"),
        "verifier.check_s_p50": (_median([s.duration for s in checks]), "s"),
        "verifier.busy_s": (sum(s.duration for s in checks), "s"),
        "verifier.output_kb": (sum(s.attrs["output_bytes"] for s in checks) / 1024, "KB"),
        "verifier.tool_errors": (sum(s.attrs["status"] in ("tool_error", "timeout")
                                     for s in checks), "count"),
        "program_model.parse_s": (sum(s.duration for s in parses), "s"),
        "program_model.source_kb": (sum(s.attrs["source_bytes"] for s in parses) / 1024, "KB"),
        "program_model.functions": (sum(s.attrs["functions"] for s in parses), "count"),
        "contracts.instrument_s": (sum(s.duration for s in renders), "s"),
        "contracts.instrument_calls": (len(renders), "count"),
        "contracts.instrumented_kb": (sum(s.attrs["out_bytes"] for s in renders) / 1024, "KB"),
        "synthesis.llm_calls": (len(clients), "count"),
        "synthesis.prompt_kb": (sum(s.attrs["prompt_bytes"] for s in clients) / 1024, "KB"),
        "synthesis.busy_s": (self_time(spans, "synthesis."), "s"),
        "ice.busy_s": (sum(s.duration for s in named("ice.")), "s"),
        "refinement.self_s": (self_time(spans, "refinement.run_pipeline"), "s"),
        "harness.self_s": (self_time(spans, "harness.run_program"), "s"),
    }


def log_metrics(reports) -> Dict[str, Tuple[float, str]]:
    """Per-layer numbers the run logs already carry."""
    parsed = failures = stag = dd = rounds = iters = 0
    pos = neg = imp = 0
    for r in reports:
        events = r.log.events
        for e in events:
            kind = e["event"]
            if kind == "synthesis" and e.get("attempt", -1) >= 0:
                parsed += e["outcome"] == "parsed"
                failures += e["outcome"] == "parse_failure"
            elif kind == "stagnation":
                stag += 1
            elif kind == "delta_debug":
                dd += e.get("checks", 0)
            elif kind == "verification" and e["mode"] == "system":
                rounds += 1
            elif kind == "drop":
                rounds -= 1
        sized = [e for e in events if e["event"] in ("db", "cegis_migrate")]
        if sized:
            pos += sized[-1]["positives"]
            neg += sized[-1]["negatives"]
            imp += sized[-1]["implications"]
        iters += r.iterations
    attempts = parsed + failures
    return {
        "synthesis.parse_failures": (failures, "count"),
        "synthesis.useful_ratio": (parsed / attempts if attempts else 0.0, "ratio"),
        "ice.positives": (pos, "count"),
        "ice.negatives": (neg, "count"),
        "ice.implications": (imp, "count"),
        "refinement.iterations": (iters, "count"),
        "refinement.rounds": (rounds, "count"),
        "refinement.stagnations": (stag, "count"),
        "refinement.delta_debug_checks": (dd, "count"),
    }
