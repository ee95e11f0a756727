"""Prompt templates, client implementations, the synthesis retry loop, and
the example-conditioned variant."""

from __future__ import annotations

import json
import re
import threading
from dataclasses import replace
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from contractor.contracts import Contract, ContractOrigin, ParseFailure
from contractor.errors import ClientUnavailableError
from contractor.ice import IceDatabase, StateExample, admit, record_positive, Category
from contractor.program_model import parse_program
from contractor.runlog import RunLog
from contractor.synthesis import (
    PARSE_RETRIES,
    HttpLlmClient,
    ReplayLlmClient,
    RecordingLlmClient,
    ScriptedLlmClient,
    SynthesisIntent,
    SynthesisRequest,
    TEMPLATE_MARKERS,
    cegis_synthesize,
    check_example_consistency,
    heuristic_fallback,
    load_template,
    make_client,
    overapproximate,
    prompt_digest,
    render_prompt,
    synthesize,
)
from conftest import contract_reply, corpus_sources

INC = dict(corpus_sources())["inc_basic.c"]


def inc_request(intent=SynthesisIntent.INITIAL, **kw) -> SynthesisRequest:
    model = parse_program(INC)
    return SynthesisRequest(function=model.function("increment"),
                            property_text=model.property.assertion_text,
                            intent=intent, **kw)


def test_all_templates_carry_their_marker():
    for intent, marker in TEMPLATE_MARKERS.items():
        assert marker in load_template(intent)


def test_relax_and_strengthen_do_not_cross():
    relax = load_template(SynthesisIntent.RELAX)
    strengthen = load_template(SynthesisIntent.STRENGTHEN)
    assert TEMPLATE_MARKERS[SynthesisIntent.STRENGTHEN] not in relax
    assert TEMPLATE_MARKERS[SynthesisIntent.RELAX] not in strengthen


PLACEHOLDER_RE = re.compile(r"\{([a-z_]+)\}")


def test_each_template_reads_the_request_fields_its_intent_needs():
    reads = {intent: set(PLACEHOLDER_RE.findall(load_template(intent)))
             for intent in SynthesisIntent}
    # example-guided repair shows the example sets, not a failure report
    assert "examples" in reads[SynthesisIntent.CEGIS]
    assert "diagnostics" not in reads[SynthesisIntent.CEGIS]
    for intent in (SynthesisIntent.RELAX, SynthesisIntent.STRENGTHEN):
        assert "diagnostics" in reads[intent]
        assert "examples" not in reads[intent]
    for intent in SynthesisIntent:
        prompt = render_prompt(inc_request(intent=intent, diagnostics="d", examples="e"))
        assert PLACEHOLDER_RE.findall(prompt) == [], intent


def test_render_prompt_replaces_placeholders():
    req = inc_request(intent=SynthesisIntent.RELAX, diagnostics="diag text here")
    prompt = render_prompt(req)
    assert "{function_name}" not in prompt
    assert "{body}" not in prompt
    assert "{diagnostics}" not in prompt
    assert "increment" in prompt
    assert "return x + 1;" in prompt
    assert "diag text here" in prompt


def test_render_prompt_survives_braces_in_code():
    # the body contains C braces; a format()-based renderer would blow up
    req = inc_request()
    prompt = render_prompt(req)
    assert "r > n" in prompt  # the property made it through


def test_render_prompt_fills_each_placeholder_once():
    # a body that mentions a placeholder reaches the prompt as written
    req = inc_request(intent=SynthesisIntent.RELAX, diagnostics="trace here")
    body = req.function.body_text.replace("{", "{ /* see {property}, {diagnostics}, {n} */", 1)
    prompt = render_prompt(replace(req, function=replace(req.function, body_text=body)))
    assert "/* see {property}, {diagnostics}, {n} */" in prompt
    assert prompt.count("trace here") == 1


def test_render_prompt_appends_failure_note():
    req = inc_request()
    prompt = render_prompt(req, failure_note="unknown_identifier: 'y'")
    assert "could not be used" in prompt
    assert "unknown_identifier: 'y'" in prompt


def test_scripted_client_mapping_keys():
    client = ScriptedLlmClient({
        "increment|initial": "by pair",
        "increment": "by function",
        "relax": "by intent",
        "*": "wildcard",
    })
    assert client.complete("p", {"function": "increment", "intent": "initial"}) == "by pair"
    assert client.complete("p", {"function": "increment", "intent": "cegis"}) == "by function"
    assert client.complete("p", {"function": "other", "intent": "relax"}) == "by intent"
    assert client.complete("p", {"function": "other", "intent": "cegis"}) == "wildcard"


def test_scripted_client_list_values_consume_then_repeat():
    client = ScriptedLlmClient({"f|initial": ["a", "b", "c"]})
    tags = {"function": "f", "intent": "initial"}
    assert [client.complete("p", tags) for _ in range(5)] == ["a", "b", "c", "c", "c"]


def test_scripted_client_sequence_repeats_last():
    client = ScriptedLlmClient(["one", "two"])
    assert [client.complete("p") for _ in range(4)] == ["one", "two", "two", "two"]


def test_scripted_client_missing_key_raises():
    client = ScriptedLlmClient({"f|initial": "x"})
    with pytest.raises(ClientUnavailableError):
        client.complete("p", {"function": "g", "intent": "cegis"})


def test_scripted_client_records_calls():
    client = ScriptedLlmClient({"*": "x"})
    client.complete("p", {"function": "f", "intent": "relax"})
    assert client.calls == [{"function": "f", "intent": "relax"}]


def test_replay_and_recording_round_trip(tmp_path):
    class Canned:
        backend_id = "canned"

        def complete(self, prompt, tags=None):
            return "reply for " + prompt_digest(prompt)[:8]

    rec = RecordingLlmClient(Canned(), str(tmp_path))
    reply = rec.complete("some prompt")
    replay = ReplayLlmClient(str(tmp_path))
    assert replay.complete("some prompt") == reply
    with pytest.raises(ClientUnavailableError):
        replay.complete("a prompt never recorded")


def test_two_recorders_of_one_prompt_do_not_collide(tmp_path, monkeypatch):
    # both recordings stay inside json.dump until the other one is there too
    barrier = threading.Barrier(2, timeout=10)
    real_dump = json.dump

    def held_dump(obj, fh, **kw):
        real_dump(obj, fh, **kw)
        barrier.wait()

    monkeypatch.setattr(json, "dump", held_dump)
    rec = RecordingLlmClient(ScriptedLlmClient(["the reply"]), str(tmp_path))
    with ThreadPoolExecutor(max_workers=2) as pool:
        calls = [pool.submit(rec.complete, "one prompt") for _ in range(2)]
        assert [c.result() for c in calls] == ["the reply", "the reply"]
    assert [p.name for p in tmp_path.iterdir()] == [prompt_digest("one prompt") + ".json"]


class _ChatEndpoint(BaseHTTPRequestHandler):
    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.requests.append((dict(self.headers), json.loads(body)))
        self.send_response(self.server.reply_status)
        self.end_headers()
        self.wfile.write(self.server.reply_body)

    def log_message(self, *args):
        pass


@pytest.fixture
def endpoint(monkeypatch):
    """A chat endpoint on the loopback interface, reached with no proxy."""
    monkeypatch.setenv("no_proxy", "*")
    server = HTTPServer(("127.0.0.1", 0), _ChatEndpoint)
    server.requests, server.reply_status, server.reply_body = [], 200, b""
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join()


def _http_client(server) -> HttpLlmClient:
    return HttpLlmClient(url=f"http://127.0.0.1:{server.server_port}/v1/chat",
                         model="m1", token="sekrit", timeout_s=10.0)


def test_http_client_returns_the_reply_content(endpoint):
    endpoint.reply_body = json.dumps(
        {"choices": [{"message": {"role": "assistant", "content": "the reply"}}]}).encode()
    assert _http_client(endpoint).complete("the prompt") == "the reply"
    (headers, payload), = endpoint.requests
    assert headers["Authorization"] == "Bearer sekrit"
    assert payload == {"model": "m1", "temperature": 0,
                       "messages": [{"role": "user", "content": "the prompt"}]}


@pytest.mark.parametrize("status,body", [(500, b"{}"), (200, b"<html>not json</html>"),
                                         (200, b'{"choices": [{"message": {"content": null}}]}')])
def test_http_client_bad_reply_is_unavailable(endpoint, status, body):
    endpoint.reply_status, endpoint.reply_body = status, body
    with pytest.raises(ClientUnavailableError):
        _http_client(endpoint).complete("p")


def test_http_client_without_url_is_unavailable(monkeypatch):
    monkeypatch.delenv("CONTRACTOR_LLM_URL", raising=False)
    with pytest.raises(ClientUnavailableError, match="unset"):
        HttpLlmClient().complete("p")


def test_make_client_scripted_loads_scripts_json(tmp_path):
    (tmp_path / "scripts.json").write_text(json.dumps({"*": "canned"}))
    client = make_client("scripted", str(tmp_path))
    assert client.complete("p", {"function": "f", "intent": "initial"}) == "canned"


def test_make_client_replay_requires_dir():
    with pytest.raises(ClientUnavailableError):
        make_client("replay", None)


def test_synthesize_happy_path_sets_origin():
    reply = contract_reply(requires=["x > 0"], assigns=["x"],
                           ensures=["__ESBMC_return_value > x"])
    client = ScriptedLlmClient({"*": reply})
    out = synthesize(inc_request(), client)
    assert isinstance(out, Contract)
    assert out.origin is ContractOrigin.LLM_PRECISE

    out2 = synthesize(inc_request(intent=SynthesisIntent.CEGIS), client)
    assert out2.origin is ContractOrigin.CEGIS


def test_synthesize_retries_on_parse_failure_then_succeeds():
    bad = "__ESBMC_ensures(__ESBMC_return_value > y);"  # unknown identifier
    good = contract_reply(ensures=["__ESBMC_return_value > x"])
    client = ScriptedLlmClient({"increment|initial": [bad, good]})
    log = RunLog()
    out = synthesize(inc_request(), client, log=log)
    assert isinstance(out, Contract)
    events = log.of_kind("synthesis")
    assert [e["outcome"] for e in events] == ["parse_failure", "parsed"]
    # the retry prompt carries the failure reason forward
    assert "unknown_identifier" in events[1]["prompt"]


def test_synthesize_gives_up_after_budget():
    bad = "no clauses at all"
    client = ScriptedLlmClient({"*": bad})
    out = synthesize(inc_request(), client, retries=PARSE_RETRIES)
    assert isinstance(out, ParseFailure)
    assert len(client.calls) == PARSE_RETRIES + 1


def test_heuristic_fallback_scans_assigns():
    src = dict(corpus_sources())["counter_global.c"]
    model = parse_program(src)
    c = heuristic_fallback(model.function("bump"), model.global_names)
    assert c.requires == ()
    assert c.ensures == ("1",)
    assert "counter" in c.assigns
    assert c.origin is ContractOrigin.HEURISTIC_FALLBACK


def test_heuristic_fallback_skips_comments_and_strings():
    src = ('int counter = 0;\nint total = 0;\n\n'
           'void log_line(const char *s) {\n}\n\n'
           'int bump(int n) {\n'
           '    /* counter = 0 resets it */\n'
           '    log_line("total = 1; counter++");\n'
           '    // total += n;\n'
           '    return n + 1;\n'
           '}\n\n'
           'int main() {\n    int r = bump(2);\n    assert(r == 3);\n    return 0;\n}\n')
    model = parse_program(src)
    c = heuristic_fallback(model.function("bump"), model.global_names)
    assert model.global_names == ("counter", "total")
    assert c.assigns == ()


def test_heuristic_fallback_records_pointer_writes():
    src = dict(corpus_sources())["swap_ptr.c"]
    model = parse_program(src)
    c = heuristic_fallback(model.function("swap"))
    assert "*a" in c.assigns and "*b" in c.assigns


def test_overapproximate_falls_back_when_client_down():
    class Down:
        backend_id = "down"

        def complete(self, prompt, tags=None):
            raise ClientUnavailableError("no endpoint")

    log = RunLog()
    c = overapproximate(inc_request(SynthesisIntent.OVERAPPROXIMATE), Down(), log=log)
    assert c.origin is ContractOrigin.HEURISTIC_FALLBACK
    assert any(e["outcome"] == "fallback" for e in log.of_kind("synthesis"))


def test_overapproximate_falls_back_on_persistent_parse_failure():
    client = ScriptedLlmClient({"*": "still not a contract"})
    c = overapproximate(inc_request(SynthesisIntent.OVERAPPROXIMATE), client)
    assert c.origin is ContractOrigin.HEURISTIC_FALLBACK


def test_cegis_synthesize_flags_inconsistency():
    db = IceDatabase()
    record_positive(db, StateExample.make("increment", {"x": "0"}))
    reply = contract_reply(requires=["x > 0"], ensures=["__ESBMC_return_value > x"])
    client = ScriptedLlmClient({"*": reply})
    log = RunLog()
    out = cegis_synthesize(inc_request(), client, db, log=log)
    assert isinstance(out, Contract)  # accepted anyway, verifier decides
    notes = log.of_kind("example_inconsistency")
    assert notes and "excludes known-good state" in notes[0]["detail"]


def test_cegis_prompt_contains_example_sections():
    db = IceDatabase()
    admit(db, Category.SEMANTIC, StateExample.make("increment", {"x": "-1"}))
    reply = contract_reply(ensures=["__ESBMC_return_value > x"])
    client = ScriptedLlmClient({"*": reply})
    log = RunLog()
    cegis_synthesize(inc_request(), client, db, log=log)
    prompt = log.of_kind("synthesis")[0]["prompt"]
    assert "Known-bad states (E-):" in prompt
    assert "increment: x=-1" in prompt
    assert TEMPLATE_MARKERS[SynthesisIntent.CEGIS] in prompt


def test_check_example_consistency_warns_on_admitted_bad_state():
    db = IceDatabase()
    admit(db, Category.SEMANTIC, StateExample.make("f", {"x": "5"}))
    c = Contract(function="f", requires=("x > 0",), ensures=(), assigns=(),
                 origin=ContractOrigin.CEGIS)
    warnings = check_example_consistency(c, db)
    assert warnings and "admits known-bad state" in warnings[0]
