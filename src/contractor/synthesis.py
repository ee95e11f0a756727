"""Contract synthesis through a language model.

Three interchangeable clients: live HTTP, transcript replay, and scripted
replies. Prompts are versioned text assets with straight {placeholder}
substitution; each intent's template carries a directive marker so a relax
prompt can never quietly ask for strengthening. Temperature is pinned to 0
everywhere, reproducibility beats creativity here. Parse failures are values;
the driver retries twice with the failure reason appended, then gives up and
hands the failure back.
"""

from __future__ import annotations

import functools
import json
import os
import re
import tempfile
import threading
import time
from dataclasses import dataclass, replace
from enum import Enum
from importlib import resources
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from . import cexpr
from .contracts import (
    INVARIANT_KW,
    Contract,
    ContractOrigin,
    ParseFailure,
    _contract_lines,
    parse_contract_text,
)
from .errors import ClientUnavailableError
from .ice import IceDatabase, StateExample, render_examples
from .mock_backend import source_digest as prompt_digest
from .program_model import FunctionInfo
from .runlog import RunLog

PARSE_RETRIES = 2

LLM_URL_ENV = "CONTRACTOR_LLM_URL"
LLM_MODEL_ENV = "CONTRACTOR_LLM_MODEL"
LLM_TOKEN_ENV = "CONTRACTOR_LLM_TOKEN"


class SynthesisIntent(str, Enum):
    INITIAL = "initial"
    OVERAPPROXIMATE = "overapproximate"
    RELAX = "relax"
    STRENGTHEN = "strengthen"
    CEGIS = "cegis"


# every template must contain its marker; relax and strengthen must not
# contain each other's
TEMPLATE_MARKERS: Dict[SynthesisIntent, str] = {
    SynthesisIntent.INITIAL: "Objective: initial contract derivation.",
    SynthesisIntent.OVERAPPROXIMATE: "Objective: conservative over-approximation.",
    SynthesisIntent.RELAX: "Direction: weaken the failing clauses.",
    SynthesisIntent.STRENGTHEN: "Direction: strengthen the contract.",
    SynthesisIntent.CEGIS: "Objective: example-guided contract repair.",
}

_INTENT_ORIGIN: Dict[SynthesisIntent, ContractOrigin] = {
    SynthesisIntent.INITIAL: ContractOrigin.LLM_PRECISE,
    SynthesisIntent.OVERAPPROXIMATE: ContractOrigin.LLM_ABSTRACTION,
    SynthesisIntent.RELAX: ContractOrigin.LLM_PRECISE,
    SynthesisIntent.STRENGTHEN: ContractOrigin.LLM_PRECISE,
    SynthesisIntent.CEGIS: ContractOrigin.CEGIS,
}


@functools.cache
def load_template(intent: SynthesisIntent) -> str:
    text = resources.files("contractor").joinpath(f"prompts/{intent.value}.txt").read_text("utf-8")
    marker = TEMPLATE_MARKERS[intent]
    if marker not in text:
        raise RuntimeError(f"template {intent.value} lost its directive marker {marker!r}")
    return text


@dataclass(frozen=True)
class SynthesisRequest:
    function: FunctionInfo
    property_text: str
    intent: SynthesisIntent
    current_contract: Optional[Contract] = None
    diagnostics: str = ""
    examples: str = ""
    known_globals: Tuple[str, ...] = ()
    known_constants: Tuple[str, ...] = ()  # macro and enum-constant names


def _contract_as_text(c: Optional[Contract]) -> str:
    if c is None:
        return "(none yet)"
    lines = _contract_lines(c) + [f"{INVARIANT_KW}({e});  /* loop {n} */"
                                  for n, e in c.loop_invariants]
    return "\n".join(lines) if lines else "(empty contract)"


_PLACEHOLDER = re.compile(r"\{(\w+)\}")


def render_prompt(req: SynthesisRequest, failure_note: str = "") -> str:
    template = load_template(req.intent)
    note = ""
    if failure_note:
        note = (
            "\nYour previous reply could not be used: "
            + failure_note
            + "\nReply again, following the format rules exactly."
        )
    fields = {
        "function_name": req.function.name,
        "signature": req.function.signature_text,
        "body": req.function.body_text,
        "property": req.property_text,
        "current_contract": _contract_as_text(req.current_contract),
        "diagnostics": req.diagnostics or "(none)",
        "examples": req.examples or "(no examples yet)",
        "failure_note": note,
    }
    # one pass over the template, not str.format: substituted C code is full
    # of braces, and a value (a body's comment, say) may hold "{property}"
    return _PLACEHOLDER.sub(lambda m: fields.get(m.group(1), m.group(0)), template)


class LlmClient:
    """Interface: complete(prompt, tags) -> reply text.
    tags carry routing metadata (function, intent); clients may ignore them."""

    backend_id = "unset"

    def complete(self, prompt: str, tags: Optional[Mapping[str, str]] = None) -> str:
        raise NotImplementedError


class HttpLlmClient(LlmClient):
    """OpenAI-style chat endpoint; credentials from the environment unless
    given explicitly."""

    def __init__(
        self,
        url: Optional[str] = None,
        model: Optional[str] = None,
        token: Optional[str] = None,
        timeout_s: float = 120.0,
    ):
        self.url = url or os.environ.get(LLM_URL_ENV, "")
        self.model = model or os.environ.get(LLM_MODEL_ENV, "")
        self.token = token or os.environ.get(LLM_TOKEN_ENV, "")
        self.timeout_s = timeout_s
        self.backend_id = f"http:{self.model or 'unknown'}"

    def complete(self, prompt: str, tags: Optional[Mapping[str, str]] = None) -> str:
        # not at the top: replay and scripted runs never load urllib.request,
        # whose import alone takes tens of milliseconds
        import urllib.request
        from http.client import HTTPException

        if not self.url:
            raise ClientUnavailableError(f"no endpoint configured ({LLM_URL_ENV} unset)")
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        payload = {
            "model": self.model,
            "temperature": 0,
            "messages": [{"role": "user", "content": prompt}],
        }
        request = urllib.request.Request(self.url, data=json.dumps(payload).encode("utf-8"),
                                         headers=headers, method="POST")
        try:
            # urlopen raises HTTPError (an OSError) on any status >= 400
            with urllib.request.urlopen(request, timeout=self.timeout_s) as resp:
                data = json.loads(resp.read())
            content = data["choices"][0]["message"]["content"]
        except (OSError, HTTPException, KeyError, IndexError, TypeError, ValueError) as exc:
            raise ClientUnavailableError(f"live endpoint failed: {exc}") from exc
        if not isinstance(content, str):
            raise ClientUnavailableError(f"live endpoint sent {type(content).__name__}, not text")
        return content


@dataclass(frozen=True)
class LlmTranscript:
    request_digest: str
    prompt: str
    reply: str
    backend_id: str
    timestamp: str


class ReplayLlmClient(LlmClient):
    """Deterministic playback from a transcript store keyed by prompt digest."""

    backend_id = "replay"

    def __init__(self, store_dir: str):
        self.store_dir = store_dir

    def complete(self, prompt: str, tags: Optional[Mapping[str, str]] = None) -> str:
        digest = prompt_digest(prompt)
        path = os.path.join(self.store_dir, digest + ".json")
        if not os.path.exists(path):
            raise ClientUnavailableError(f"no transcript for prompt digest {digest[:16]}")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                reply = json.load(fh)["reply"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ClientUnavailableError(f"unreadable transcript {digest[:16]}: {exc!r}") from exc
        if not isinstance(reply, str):
            raise ClientUnavailableError(f"transcript {digest[:16]} holds no text reply")
        return reply


class RecordingLlmClient(LlmClient):
    """Wrap a live client and persist every exchange for later replay."""

    def __init__(self, inner: LlmClient, store_dir: str):
        self.inner = inner
        self.store_dir = store_dir
        self.backend_id = inner.backend_id

    def complete(self, prompt: str, tags: Optional[Mapping[str, str]] = None) -> str:
        reply = self.inner.complete(prompt, tags)
        os.makedirs(self.store_dir, exist_ok=True)
        digest = prompt_digest(prompt)
        record = LlmTranscript(
            request_digest=digest,
            prompt=prompt,
            reply=reply,
            backend_id=self.inner.backend_id,
            timestamp=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        )
        # a temporary file of its own: two recorders of one prompt share none
        fd, tmp = tempfile.mkstemp(dir=self.store_dir, prefix=digest, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(record.__dict__, fh, indent=2)
        os.replace(tmp, os.path.join(self.store_dir, digest + ".json"))
        return reply


class ScriptedLlmClient(LlmClient):
    """Canned replies for tests and offline CLI runs.

    Takes a mapping keyed by "function|intent", "function", "intent", or "*";
    a value is a string or a list consumed call by call, whose last reply
    repeats. A bare sequence of replies is read as {"*": sequence}.
    """

    backend_id = "scripted"

    def __init__(self, script: Union[Sequence[str], Mapping[str, object]]):
        self._lock = threading.Lock()
        if not isinstance(script, Mapping):
            script = {"*": list(script)}
        self._map: Dict[str, object] = {k: (list(v) if isinstance(v, (list, tuple)) else v)
                                        for k, v in script.items()}
        self.calls: List[Dict[str, str]] = []

    def _next_from(self, value: object) -> str:
        if isinstance(value, list):
            if not value:
                raise ClientUnavailableError("scripted reply list exhausted")
            return value.pop(0) if len(value) > 1 else value[0]
        return str(value)

    def complete(self, prompt: str, tags: Optional[Mapping[str, str]] = None) -> str:
        tags = dict(tags or {})
        with self._lock:
            self.calls.append({"function": tags.get("function", ""),
                               "intent": tags.get("intent", "")})
            for key in (
                f"{tags.get('function', '')}|{tags.get('intent', '')}",
                tags.get("function", ""),
                tags.get("intent", ""),
                "*",
            ):
                if key and key in self._map:
                    return self._next_from(self._map[key])
            raise ClientUnavailableError(
                "no scripted reply for %s" % (tags.get("function") or "<unknown>")
            )


def make_client(kind: str, transcripts_dir: Optional[str] = None) -> LlmClient:
    """CLI factory. live records into the transcript dir when one is given;
    scripted loads <transcripts>/scripts.json."""
    if kind == "live":
        live = HttpLlmClient()
        if transcripts_dir:
            return RecordingLlmClient(live, transcripts_dir)
        return live
    if kind == "replay":
        if not transcripts_dir:
            raise ClientUnavailableError("replay needs --transcripts <dir>")
        return ReplayLlmClient(transcripts_dir)
    if kind == "scripted":
        if not transcripts_dir:
            raise ClientUnavailableError("scripted needs --transcripts <dir> with scripts.json")
        path = os.path.join(transcripts_dir, "scripts.json")
        with open(path, "r", encoding="utf-8") as fh:
            return ScriptedLlmClient(json.load(fh))
    raise ValueError(f"unknown client kind {kind!r}")


def synthesize(
    req: SynthesisRequest,
    client: LlmClient,
    retries: int = PARSE_RETRIES,
    log: Optional[RunLog] = None,
    failure_note: str = "",
) -> Union[Contract, ParseFailure]:
    """One synthesis round: prompt, parse, retry on parse failure with the
    reason appended. A caller-supplied failure_note seeds the first prompt,
    which is how a rejected earlier reply gets explained to the model.
    Raises ClientUnavailableError only if the client does."""
    tags = {"function": req.function.name, "intent": req.intent.value}
    last_failure: Optional[ParseFailure] = None
    for attempt in range(retries + 1):
        prompt = render_prompt(req, failure_note)
        reply = client.complete(prompt, tags)
        result = parse_contract_text(reply, req.function, req.known_globals,
                                     req.known_constants)
        if log is not None:
            log.event(
                "synthesis",
                function=req.function.name,
                intent=req.intent.value,
                attempt=attempt,
                prompt=prompt,
                outcome="parsed" if isinstance(result, Contract) else "parse_failure",
                reason=None if isinstance(result, Contract) else result.reason.value,
            )
        if isinstance(result, Contract):
            return replace(result, origin=_INTENT_ORIGIN[req.intent])
        last_failure = result
        failure_note = f"{result.reason.value}: {result.detail}"
    return last_failure  # type: ignore[return-value]


def heuristic_fallback(f: FunctionInfo, known_globals: Iterable[str] = ()) -> Contract:
    """Most conservative contract we can write without thinking: no
    precondition, trivially true postcondition, assigns from the body's write
    targets (`f.writes`): globals written, plus writes through pointer
    parameters; the latter get stripped later by assigns sanitization, which
    is the point: they are recorded for the log, not for the backend."""
    globals_set = set(known_globals)
    pointer_params = {p.name for p in f.params if "*" in p.type_text or "[" in p.type_text}
    targets: List[str] = []
    for t in f.writes:
        if t.startswith("*"):
            base = t.lstrip("* \t")
            t = "*" + base
        else:
            base = t.split("->")[0].strip()
        # a global counts, and so does a write through a pointer parameter
        if base in globals_set or (t != base and base in pointer_params):
            t = " ".join(t.split())
            if t not in targets:
                targets.append(t)

    return Contract(
        function=f.name,
        requires=(),
        ensures=("1",),
        assigns=tuple(targets),
        origin=ContractOrigin.HEURISTIC_FALLBACK,
    )


def overapproximate(
    req: SynthesisRequest,
    client: LlmClient,
    log: Optional[RunLog] = None,
) -> Contract:
    """Loose contract for a function too complex to treat precisely, asked
    under req's OVERAPPROXIMATE intent. Always returns a contract: when the
    model is unreachable or keeps misformatting, the scan-based fallback
    takes over."""
    try:
        result = synthesize(req, client, log=log)
    except ClientUnavailableError:
        result = None
    if isinstance(result, Contract):
        return result
    if log is not None:
        log.event("synthesis", function=req.function.name, intent=req.intent.value,
                  attempt=-1, prompt="", outcome="fallback", reason=None)
    return heuristic_fallback(req.function, req.known_globals)


def _example_env(ex: StateExample) -> Dict[str, int]:
    env: Dict[str, int] = {}
    for name, value in ex.items:
        try:
            env[name] = int(value, 10)
        except ValueError:
            continue
    return env


def check_example_consistency(c: Contract, db: IceDatabase) -> List[str]:
    """Best-effort warnings: a contract clause evaluating false on a known-good
    state, or every clause true on a known-bad one. Non-evaluable clauses are
    skipped; this is advice for the log, not a gate."""
    warnings: List[str] = []
    clauses = list(c.requires) + list(c.ensures)
    own = db.samples(c.function)
    for ex in own["positives"]:
        env = _example_env(ex)
        for clause in clauses:
            verdict = cexpr.try_evaluate_bool(clause, env)
            if verdict is False:
                warnings.append(
                    f"clause ({clause}) excludes known-good state {{{ex.render()}}}"
                )
    for ex in own["negatives"]:
        env = _example_env(ex)
        verdicts = [cexpr.try_evaluate_bool(cl, env) for cl in clauses]
        if verdicts and all(v is True for v in verdicts):
            warnings.append(
                f"contract admits known-bad state {{{ex.render()}}}"
            )
    return warnings


def cegis_synthesize(
    req: SynthesisRequest,
    client: LlmClient,
    db: IceDatabase,
    log: Optional[RunLog] = None,
) -> Union[Contract, ParseFailure]:
    """Example-conditioned synthesis. Example-inconsistent replies are accepted
    but flagged in the log; the verifier has the final word anyway."""
    full_req = replace(req, intent=SynthesisIntent.CEGIS,
                       examples=render_examples(db, req.function.name))
    result = synthesize(full_req, client, log=log)
    if isinstance(result, Contract) and log is not None:
        for warning in check_example_consistency(result, db):
            log.event("example_inconsistency", function=req.function.name, detail=warning)
    return result
