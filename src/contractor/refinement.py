"""The refinement pipeline.

Top-down flow: synthesize a contract per function, check the system with
calls replaced by contract stubs, check every implementation against its own
contract, and refine on failure. Function-level failures weaken that contract;
system-level failures strengthen the weakest responsible one. Two identical
iterations in a row count as stagnation, which triggers ensures-clause
reduction and an escalation to example-guided synthesis. A contract whose
check fails on one of its own loop invariants is not reduced: ensures are
asserted only at exit, so no subset of them can cure it. The system is
checked under the reduced set only when every target then passes; while a
target still fails, the next CEGIS round checks the system under its own
set, and a run that has no round left checks it before it ends.

The last round's results are the one record later steps read: one frozen
`Round`, holding the contract set and the keys its checks settled in the
check store, one for the system (with the contracts it stubbed, by value)
and one per function. A function check, a stage-4 substitution or a
reduction replaces the round with `Round.replaced`; nothing writes into
one. Statuses, diagnostics (the function's own check for a relax, the
system's for a strengthen), `system_status` and `verified` all read the
store by the round's keys. Every backend check goes through `_checks`,
one batch at a time, as every ask goes through `_ask`: a round's system
and function checks, stage 4's precise checks, or one reduction trial. It
hashes each text once, answers a stored PASS or FAIL from the store, and
yields each result in order once it is stored and logged. Every system
check goes through `_check_system`, which enters its key with the
contracts it stubbed (a round's, the drop step's survivors or a reduced
set). The weakest link is chosen there, once per system counterexample,
among those contracts, if any, the first of them when none is responsible.
Its E- label under SMART ICE, the CEGAR strengthen ask and CEGIS's ask when
only the system check fails all use that choice.

A held system result speaks only for the contracts it stubbed: it is
`_settled` when those equal the round's contracts, compared by value, so a
contract replaced under the same name unsettles it. `_conclude`,
`system_status` and the end-of-budget check read that one rule. `verified`
needs the settled system check and every function's own check to pass,
`falsified` a system counterexample against fully concrete code (no stubs
left to blame). Everything else, including budget exhaustion, is
`inconclusive`.

Every ask goes through `_ask`, each into its own log, and is kept on the
pipeline thread in ask order; only phase 1b's replies come from the pool, so
a strengthen reads the relax kept before it in its round. `_ask` merges each
log as soon as its ask is kept, or as it raises: a run that ends on a client
error keeps the log of every ask made before it and the attempts of the ask
it ends. Stage 4 logs its asks, then each precise check with its
substitution, as a round logs its asks before its checks. Every refinement
round is one `_loop`; CEGAR and CEGIS differ only in their asks and in
CEGAR's stagnation step.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from .cexpr import identifiers
from .contracts import (
    RETURN_VALUE,
    Contract,
    ContractOrigin,
    InstrumentedSource,
    ParseFailure,
    render_enforce,
    render_replace,
    sanitize_assigns,
)
from .errors import DeadlineExceededError, IrreducibleFailureError
from .ice import (
    Category,
    IceDatabase,
    Level,
    StateExample,
    admit,
    classify,
    extract_implications,
    record_positive,
    render_diagnostics,
    render_trace,
    weakest_link,
)
from .mock_backend import source_digest
from .program_model import FunctionInfo, ProgramModel, partition_functions
from .runlog import RunLog
from .synthesis import (
    LlmClient,
    SynthesisIntent,
    SynthesisRequest,
    cegis_synthesize,
    overapproximate,
    synthesize,
)
from .verifier import ParsedCounterexample, Status, VerificationResult, final_valuation


class Strategy(str, Enum):
    SMART_ICE = "smart-ice"
    NO_ICE = "no-ice"
    PRE_ABSTRACTION = "pre-abstraction"


class VerdictOutcome(str, Enum):
    VERIFIED = "verified"
    FALSIFIED = "falsified"
    INCONCLUSIVE = "inconclusive"


def available_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@dataclass(frozen=True)
class PipelineConfig:
    k_cegar: int = 5
    k_cegis: int = 5
    total_budget: int = 10
    tau: float = 10.0
    strategy: Strategy = Strategy.SMART_ICE
    timeout_s: float = 600.0  # wall budget for the whole program
    # threads of the program's one pool, which runs the phase-1b asks and,
    # when the verifier sets concurrent_checks, the backend checks; 1 makes
    # no pool and keeps both on the pipeline thread
    workers: int = field(default_factory=available_cpus)


@dataclass(frozen=True)
class Verdict:
    outcome: VerdictOutcome
    stage: str
    iterations_used: int
    contracts: Tuple[Tuple[str, Contract], ...]
    per_function_status: Tuple[Tuple[str, str], ...]
    system_status: Optional[str] = None
    falsified_property: Optional[str] = None

    def contract_map(self) -> Dict[str, Contract]:
        return dict(self.contracts)

    def status_map(self) -> Dict[str, str]:
        return dict(self.per_function_status)

    def to_dict(self) -> Dict:
        return {
            "outcome": self.outcome.value,
            "stage": self.stage,
            "iterations_used": self.iterations_used,
            "system_status": self.system_status,
            "falsified_property": self.falsified_property,
            "per_function_status": dict(self.per_function_status),
            "contracts": {
                name: {
                    "requires": list(c.requires),
                    "ensures": list(c.ensures),
                    "assigns": list(c.assigns),
                    "loop_invariants": [[n, e] for n, e in c.loop_invariants],
                    "origin": c.origin.value,
                }
                for name, c in self.contracts
            },
        }


Key = Tuple[str, str]  # (mode, SHA-256 of the instrumented text)


@dataclass(frozen=True)
class Round:
    """One round's record: its contract set and the keys its checks settled,
    each entered as its check settles; statuses, diagnostics, system_status
    and `verified` read the check store by these."""
    contracts: Dict[str, Contract] = field(default_factory=dict)
    fn_keys: Dict[str, Key] = field(default_factory=dict)
    sys_key: Optional[Key] = None
    stubbed: Dict[str, Contract] = field(default_factory=dict)  # what sys_key's check stubbed
    blamed: Optional[str] = None  # the contracted function its counterexample blames

    def replaced(self, name: str, contract: Contract, key: Key) -> Round:
        """This round with name's contract and function key replaced."""
        return replace(self, contracts={**self.contracts, name: contract},
                       fn_keys={**self.fn_keys, name: key})


class _Ctx:
    def __init__(self, model: ProgramModel, cfg: PipelineConfig, client: LlmClient,
                 verifier, log: RunLog, pool: Optional[ThreadPoolExecutor] = None):
        self.model = model
        self.cfg = cfg
        self.client = client
        self.verifier = verifier
        self.log = log
        self.db = IceDatabase()
        self.deadline = time.monotonic() + cfg.timeout_s
        self.stage = "initial"
        self.iterations = 0
        # the check store: each key's last result. A PASS or FAIL is a memo
        # hit; a timeout or tool error is checked again
        self.checked: Dict[Key, VerificationResult] = {}
        self.round = Round()  # replaced, never written into
        self.pool = pool  # the program's one pool; None runs all on this thread

    @property
    def targets(self) -> List[FunctionInfo]:
        # static functions cannot be checked in isolation; they stay concrete
        return [f for f in self.model.functions if not f.is_static]

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def check_deadline(self) -> None:
        if self.remaining() <= 0:
            raise _deadline_error(self)

    def set_stage(self, stage: str) -> None:
        self.stage = stage
        self.log.event("phase", stage=stage)


def _deadline_error(ctx: _Ctx) -> DeadlineExceededError:
    exc = DeadlineExceededError(f"wall budget spent at stage {ctx.stage}")
    exc.partial = _verdict(ctx, VerdictOutcome.INCONCLUSIVE)
    return exc


def _status(ctx: _Ctx, name: str) -> str:
    if name not in ctx.round.contracts:
        return "no_contract"
    result = ctx.checked.get(ctx.round.fn_keys.get(name))
    return "unchecked" if result is None else result.status.value


def _statuses(ctx: _Ctx) -> List[Tuple[str, str]]:
    """Each target's status under the current set, in model order."""
    return [(f.name, _status(ctx, f.name)) for f in ctx.targets]


def _verdict(ctx: _Ctx, outcome: VerdictOutcome,
             falsified_property: Optional[str] = None) -> Verdict:
    system = _settled(ctx)
    return Verdict(
        outcome=outcome,
        stage=ctx.stage,
        iterations_used=ctx.iterations,
        contracts=tuple(sorted(ctx.round.contracts.items())),
        per_function_status=tuple(_statuses(ctx)),
        system_status=None if system is None else system.status.value,
        falsified_property=falsified_property,
    )


def _keep(contracts: Dict[str, Contract], fname: str,
          result: Union[Contract, ParseFailure], log: RunLog) -> Optional[Contract]:
    """Store a reply's contract with its assigns sanitized and return it, or
    classify why the reply could not be used and return None."""
    if isinstance(result, Contract):
        kept, stripped = sanitize_assigns(result.assigns)
        if stripped:
            log.event("assigns_stripped", function=result.function,
                      stripped=list(stripped))
            result = replace(result, assigns=kept)
        contracts[fname] = result
        return result
    category = classify(result)
    log.event("classification", function=fname,
              level=category.level.value, category=category.value)
    return None


Ask = Tuple[FunctionInfo, SynthesisIntent]


def _reply(ctx: _Ctx, contracts: Dict[str, Contract], f: FunctionInfo,
           intent: SynthesisIntent, log: RunLog, cover: bool = False
           ) -> Union[Contract, ParseFailure]:
    """The client's reply for f's contract under intent, revising the one in
    contracts. An over-approximation falls back to a scan of the body; CEGIS
    under SMART ICE shows the model f's examples. With cover, a contract
    whose ensures mention none of f's parameters, its return value or the
    property's globals is asked for once more, with that said."""
    req = SynthesisRequest(
        function=f, property_text=ctx.model.property.assertion_text, intent=intent,
        current_contract=contracts.get(f.name), known_globals=ctx.model.global_names,
        known_constants=ctx.model.constant_names,
        diagnostics=_diagnostics_for(ctx, f.name, intent))
    if intent is SynthesisIntent.OVERAPPROXIMATE:
        return overapproximate(req, ctx.client, log)
    if intent is SynthesisIntent.CEGIS and ctx.cfg.strategy is Strategy.SMART_ICE:
        return cegis_synthesize(req, ctx.client, ctx.db, log=log)
    result = synthesize(req, ctx.client, log=log)
    if not cover or not isinstance(result, Contract):
        return result
    wanted = {p.name for p in f.params} | {RETURN_VALUE}
    wanted |= set(identifiers(ctx.model.property.assertion_text)) & set(ctx.model.global_names)
    covers = lambda c: any(not wanted.isdisjoint(identifiers(e)) for e in c.ensures)
    if covers(result):
        return result
    hint = f"previous ensures mentioned none of: {', '.join(sorted(wanted))}"
    retry = synthesize(req, ctx.client, retries=0, log=log, failure_note=hint)
    if isinstance(retry, Contract) and covers(retry):
        return retry
    accepted = retry if isinstance(retry, Contract) else result
    log.event("coverage_warning", function=f.name,
              wanted=sorted(wanted), ensures=list(accepted.ensures))
    return accepted


def _ask(ctx: _Ctx, contracts: Dict[str, Contract], asks: List[Ask],
         cover: bool = False, pool: Optional[ThreadPoolExecutor] = None
         ) -> List[Optional[Contract]]:
    """Each ask's kept contract, or None when its reply could not be used, in
    ask order. Replies come from pool.map when a pool is given, else one by
    one as they are read, so an ask sees every contract kept before it; each
    is kept into contracts on this thread. Each ask's own log is merged into
    ctx.log as soon as its reply is kept, or with its attempts so far as it
    raises."""
    logs = [RunLog() for _ in asks]
    replies = (map if pool is None else pool.map)(
        lambda ask, log: _reply(ctx, contracts, *ask, log, cover), asks, logs)
    kept: List[Optional[Contract]] = []
    for (f, _), log in zip(asks, logs):
        try:
            kept.append(_keep(contracts, f.name, next(replies), log))
        finally:
            ctx.log.events.extend(log.events)
    return kept


def _diagnostics_for(ctx: _Ctx, fname: str, intent: SynthesisIntent) -> str:
    """What the last round's check reported, for a relax prompt (fname's own
    check) or a strengthen prompt (the system check); under SMART ICE with
    fname's examples. Other intents, and a passing check, get none."""
    result = ctx.checked.get({SynthesisIntent.RELAX: ctx.round.fn_keys.get(fname),
                              SynthesisIntent.STRENGTHEN: ctx.round.sys_key}.get(intent))
    if result is None or result.status is Status.PASS:
        return ""
    if ctx.cfg.strategy is Strategy.SMART_ICE:
        return render_diagnostics(ctx.db, result.parsed, classify(result), fname)
    return "" if result.parsed is None else render_trace(result.parsed)


def _classified(ctx: _Ctx, key: str, result: VerificationResult) -> Optional[Category]:
    """Classify a check a round reads, unless it passed, and log it under key
    ("__system__" for the system check). None when there is nothing to learn
    from: a pass, a tool-level failure (quarantined) or no counterexample."""
    if result.status is Status.PASS:
        return None
    category = classify(result)
    ctx.log.event("classification", function=key, mode=result.mode,
                  level=category.level.value, category=category.value)
    if category.level is Level.TOOL:
        ctx.log.event("tool_quarantine", function=key, mode=result.mode,
                      status=result.status.value)
        return None
    return None if result.parsed is None else category


def _learn(ctx: _Ctx, parsed: ParsedCounterexample, category: Category, target: str,
           names: List[str], system: bool = False) -> None:
    """Under SMART ICE, label target's state in the counterexample once, by
    the check it came from: a system counterexample's state is a negative
    example, a function check's semantic one a positive (the implementation
    reaches it), an unconstrained_init one none. Then add the loop-iteration
    implication pairs of every function in names."""
    if ctx.cfg.strategy is not Strategy.SMART_ICE:
        return
    valuation = final_valuation(parsed.trace, target) or parsed.key_map()
    if valuation and (system or category is Category.SEMANTIC):
        ex = StateExample.make(target, valuation)
        action = admit(ctx.db, category, ex) if system else record_positive(ctx.db, ex)
        ctx.log.event("db", action=action, function=target, **ctx.db.sizes())
    for name in names:
        if ctx.db.add_implications(extract_implications(parsed, name)):
            ctx.log.event("db", action="implications", function=name, **ctx.db.sizes())


def _settled(ctx: _Ctx) -> Optional[VerificationResult]:
    """The held system result if its check stubbed the round's contracts
    (compared by value), else None."""
    held = ctx.round.sys_key is not None and ctx.round.stubbed == ctx.round.contracts
    return ctx.checked[ctx.round.sys_key] if held else None


def _key(instr: InstrumentedSource) -> Key:
    return (instr.mode, source_digest(instr.text))


# each check of a batch: its key, its stored result and whether the memo answered it
Batch = Iterator[Tuple[Key, VerificationResult, bool]]


def _checks(ctx: _Ctx, instrs: List[InstrumentedSource]) -> Batch:
    """Each instrumentation's key, its stored result and whether the memo
    answered it, in order, each yielded once the result is stored and logged.
    Each text is hashed once; a stored PASS or FAIL answers its key, so a
    program's PASS or FAIL for one (mode, text) reaches the backend once. The
    misses go through the pool, all submitted before the first is read, when
    there is one and the verifier sets concurrent_checks; otherwise each is
    checked as its result is read. A check gets the budget left when it
    starts; one whose turn came with none left ends the run."""
    keys = [_key(instr) for instr in instrs]
    hits = [r if r is not None and r.status in (Status.PASS, Status.FAIL) else None
            for r in map(ctx.checked.get, keys)]

    def call(instr: InstrumentedSource) -> Optional[VerificationResult]:
        left = ctx.remaining()
        if left <= 0:
            return None
        if instr.mode == "system":
            return ctx.verifier.system(instr, timeout_s=left)
        return ctx.verifier.function(instr, instr.functions[0], timeout_s=left)

    # checks overlap only outside this interpreter: an in-process verifier
    # holds the GIL while it checks, and may keep state from call to call
    concurrent = ctx.pool is not None and getattr(ctx.verifier, "concurrent_checks", False)
    results = (ctx.pool.map if concurrent else map)(
        call, [instr for instr, hit in zip(instrs, hits) if hit is None])
    for instr, key, hit in zip(instrs, keys, hits):
        result = next(results) if hit is None else hit
        if result is None:
            raise _deadline_error(ctx)
        ctx.checked[key] = result
        stubs = {"contract_set": list(instr.functions)} if instr.mode == "system" else {}
        ctx.log.event("verification", mode=key[0], status=result.status.value,
                      **stubs, iteration=ctx.iterations)
        yield key, result, hit is not None


def _check_system(ctx: _Ctx, stubbed: Dict[str, Contract],
                  batch: Optional[Batch] = None) -> None:
    """Check the system with stubbed's contracts as stubs, as the next item of
    batch or in a batch of one, and enter its key in the round with those
    contracts. A counterexample is blamed here, once, on them if any (the
    first stands in when none is responsible); under SMART ICE the blamed
    function's state becomes a negative example. Implication pairs are taken
    for every function of the round: one that ran as concrete code took real
    loop steps."""
    if batch is None:
        batch = _checks(ctx, [render_replace(ctx.model, stubbed.values())])
    key, result, _ = next(batch)
    blamed = None
    category = _classified(ctx, "__system__", result)
    if category is not None and stubbed:
        chosen = weakest_link(result.parsed, stubbed, ctx.model)
        blamed = min(stubbed) if chosen is None else chosen
        ctx.log.event("weakest_link", chosen=blamed, fallback=chosen is None)
        _learn(ctx, result.parsed, category, blamed, sorted(ctx.round.contracts), system=True)
    ctx.round = replace(ctx.round, sys_key=key, stubbed=dict(stubbed), blamed=blamed)


def _verify_round(ctx: _Ctx, contracts: Dict[str, Contract]) -> None:
    """System check plus every function check, under one contract set, in
    one batch, so they overlap as `_checks` allows. The round starts a new
    record; results are stored, logged and their keys entered on this thread
    in the serial order: system first, then the functions by name."""
    ctx.round = Round(contracts)
    names = sorted(contracts)
    batch = _checks(ctx, [render_replace(ctx.model, contracts.values())]
                    + [render_enforce(ctx.model, contracts[name]) for name in names])
    _check_system(ctx, contracts, batch)
    for name, (key, result, _) in zip(names, batch):
        ctx.round = ctx.round.replaced(name, contracts[name], key)
        category = _classified(ctx, name, result)
        if category is not None:
            _learn(ctx, result.parsed, category, name, [name])


def _falsified(ctx: _Ctx) -> Verdict:
    prop = ctx.model.property.assertion_text
    ctx.log.event("falsified", property=prop)
    return _verdict(ctx, VerdictOutcome.FALSIFIED, falsified_property=prop)


def _failing_functions(ctx: _Ctx) -> List[str]:
    """Targets whose check is not a pass under the current set, in model order."""
    return [name for name, status in _statuses(ctx) if status != Status.PASS.value]


def _conclude(ctx: _Ctx) -> Optional[Verdict]:
    """The verdict the round just verified supports, or None to go on.

    `verified` needs a system pass settled under the current set plus a
    passing check for every target function (one without a contract fails);
    `falsified` needs a system failure with no contract stub left to blame.
    Without a settled system check it concludes nothing."""
    system = _settled(ctx)
    if system is None:
        return None
    if system.status is Status.PASS and not _failing_functions(ctx):
        return _verdict(ctx, VerdictOutcome.VERIFIED)
    if system.status is Status.FAIL and not ctx.round.contracts:
        return _falsified(ctx)
    return None


def _iteration_snapshot(ctx: _Ctx) -> Tuple:
    """Failing set and their contracts' clauses; equal snapshots in
    consecutive rounds mean stagnation."""
    failing = _failing_functions(ctx)
    clauses = tuple(
        (name, (c.requires, c.ensures, c.assigns, c.loop_invariants) if c else None)
        for name, c in zip(failing, map(ctx.round.contracts.get, failing))
    )
    return (frozenset(failing), clauses)


def delta_debug(
    c: Contract,
    check: Callable[[Contract], bool],
    log: Optional[RunLog] = None,
    violated: Optional[str] = None,
    backend_checks: Optional[Callable[[], int]] = None,
) -> Contract:
    """Reduce the ensures list of a failing contract until the check passes.

    Clauses are removed from the tail one by one; once the check passes, each
    removed clause is offered back and kept only if the check still passes.
    Requires, assigns, and invariants are never touched. Worst case this
    spends 2n check calls. Raises IrreducibleFailureError when no subset
    can pass, which means the problem is not in the postcondition at all:
    at once, with no check spent, when violated (the property the failing
    check reported) is one of c's loop invariants and none of its ensures,
    since ensures are asserted only at exit; otherwise once even the empty
    ensures list fails. The logged event then keeps every clause. Its
    `checks` counts the trials that reached the backend: backend_checks()
    when given, since a memo may answer some, else every call to check.
    """
    ensures = list(c.ensures)
    calls = 0
    spent = backend_checks or (lambda: calls)

    def reduced(indices: List[int]) -> Contract:
        return replace(c, ensures=tuple(ensures[i] for i in sorted(indices)),
                       origin=ContractOrigin.DELTA_REDUCED)

    def attempt(indices: List[int]) -> bool:
        nonlocal calls
        calls += 1
        return bool(check(reduced(indices)))

    def irreducible() -> IrreducibleFailureError:
        if log is not None:
            log.event("delta_debug", function=c.function, kept=ensures,
                      removed=[], checks=spent(), irreducible=True)
        return IrreducibleFailureError(f"{c.function}: no subset of the ensures clauses passes")

    if violated in {e for _, e in c.loop_invariants} and violated not in ensures:
        raise irreducible()
    kept = list(range(len(ensures)))
    removed: List[int] = []
    while kept:
        removed.append(kept.pop())
        if attempt(kept):
            break
    else:
        raise irreducible()

    for i in sorted(removed):
        trial = sorted(kept + [i])
        if attempt(trial):
            kept = trial
            removed.remove(i)

    if log is not None:
        log.event("delta_debug", function=c.function,
                  kept=[ensures[i] for i in sorted(kept)],
                  removed=[ensures[i] for i in sorted(removed)], checks=spent())
    return reduced(kept)


def _delta_debug_stagnating(ctx: _Ctx) -> bool:
    """Reduce the ensures of every failing contract; True if any was reduced."""
    reduced_any = False
    for fname in sorted(ctx.round.contracts):
        r = ctx.checked.get(ctx.round.fn_keys.get(fname))
        if r is None or r.status is Status.PASS:
            continue
        c = ctx.round.contracts[fname]
        if not c.ensures:
            continue

        passed: List[Key] = []
        misses: List[Key] = []

        def check(trial: Contract) -> bool:
            key, result, hit = next(_checks(ctx, [render_enforce(ctx.model, trial)]))
            ok = result.status is Status.PASS
            if not hit:
                misses.append(key)
            if ok:
                passed.append(key)
            return ok

        try:
            reduced = delta_debug(c, check, log=ctx.log,
                                  violated=r.parsed.violated_property if r.parsed else None,
                                  backend_checks=lambda: len(misses))
        except IrreducibleFailureError:
            continue
        # the last passing trial is the reduced contract
        ctx.round = ctx.round.replaced(fname, reduced, passed[-1])
        reduced_any = True
    return reduced_any


def _stagnated(ctx: _Ctx, k: int) -> Optional[Verdict]:
    """After a round that repeats the one before: reduce the ensures of the
    failing contracts, and return the verdict that leaves."""
    ctx.log.event("stagnation", iteration=k, failing=_failing_functions(ctx))
    if _delta_debug_stagnating(ctx) and not _failing_functions(ctx):
        # a weaker ensures may no longer imply the property: the verdict
        # must read a system result under the reduced set. While a target
        # fails, no system check can conclude the run: the next round checks
        # the system under its own set (and `_refine` does when none follows)
        _check_system(ctx, ctx.round.contracts)
    # reduction alone may finish the job when the system side passes
    return _conclude(ctx)


def _cegar_asks(ctx: _Ctx) -> List[Ask]:
    """Relax each failing contract (ask afresh for a function without one),
    then strengthen the weakest link."""
    asks = [(ctx.model.function(name),
             SynthesisIntent.RELAX if name in ctx.round.contracts else SynthesisIntent.INITIAL)
            for name in _failing_functions(ctx)]
    if ctx.round.blamed is not None:
        asks.append((ctx.model.function(ctx.round.blamed), SynthesisIntent.STRENGTHEN))
    return asks


def _cegis_asks(ctx: _Ctx) -> List[Ask]:
    """Example-guided synthesis for every failing function or, when only the
    system check fails, for its weakest link."""
    names = _failing_functions(ctx)
    if not names and ctx.round.blamed is not None:
        names = [ctx.round.blamed]
    return [(ctx.model.function(name), SynthesisIntent.CEGIS) for name in names]


def _loop(ctx: _Ctx, loop: str, k_max: int, asks_for: Callable[[_Ctx], List[Ask]],
          stuck: Optional[Callable[[_Ctx, int], Optional[Verdict]]] = None
          ) -> Optional[Verdict]:
    """Rounds of asks_for(ctx) on a copy of the set, each verified and
    concluded, until one concludes or k_max rounds or the total budget are
    spent. With stuck, a round that repeats the one before ends the loop
    with stuck(ctx, k)."""
    previous = _iteration_snapshot(ctx)
    for k in range(1, k_max + 1):
        if ctx.iterations >= ctx.cfg.total_budget:
            break
        ctx.check_deadline()
        contracts = dict(ctx.round.contracts)
        asks = asks_for(ctx)
        _ask(ctx, contracts, asks)
        ctx.iterations += 1
        ctx.log.event("iteration", loop=loop, index=k, failing=[
            f.name for f, intent in asks if intent is not SynthesisIntent.STRENGTHEN])
        _verify_round(ctx, contracts)
        verdict = _conclude(ctx)
        if verdict is not None:
            return verdict
        snapshot = _iteration_snapshot(ctx)
        if stuck is not None and snapshot == previous:
            return stuck(ctx, k)
        previous = snapshot
    return None


def _refine(ctx: _Ctx) -> Verdict:
    """CEGAR, then CEGIS on the database CEGAR built; inconclusive once both
    have spent their budget."""
    ctx.set_stage("cegar")
    verdict = _loop(ctx, "cegar", ctx.cfg.k_cegar, _cegar_asks, _stagnated)
    if verdict is None:
        ctx.set_stage("cegis")
        ctx.log.event("cegis_migrate", **ctx.db.sizes())
        verdict = _loop(ctx, "cegis", ctx.cfg.k_cegis, _cegis_asks)
    if verdict is None:
        if _settled(ctx) is None:
            # held from the drop step or deferred after a reduction, and no
            # round since: the verdict reads a system result under the final set
            _check_system(ctx, ctx.round.contracts)
        ctx.log.event("budget_exhausted", iterations=ctx.iterations)
        verdict = _verdict(ctx, VerdictOutcome.INCONCLUSIVE)
    return verdict


def run_pipeline(
    model: ProgramModel,
    cfg: PipelineConfig,
    client: LlmClient,
    verifier,
    log: Optional[RunLog] = None,
) -> Verdict:
    """Full pipeline for one program. The caller owns the RunLog if it passes
    one in; wall-clock overrun raises DeadlineExceededError with a partial
    verdict attached."""
    pool = ThreadPoolExecutor(max_workers=cfg.workers) if cfg.workers > 1 else None
    ctx = _Ctx(model, cfg, client, verifier, log if log is not None else RunLog(), pool)
    try:
        ctx.set_stage("initial")
        ctx.log.event("config", strategy=cfg.strategy.value, k_cegar=cfg.k_cegar,
                      k_cegis=cfg.k_cegis, total_budget=cfg.total_budget, tau=cfg.tau)
        if cfg.strategy is Strategy.PRE_ABSTRACTION:
            return _run_pre_abstraction(ctx)
        return _run_top_down(ctx)
    finally:
        if pool is not None:
            # waits for what is running (a check was given no more than the
            # budget left) and cancels what is queued, on an error too
            pool.shutdown(cancel_futures=True)


def _run_top_down(ctx: _Ctx) -> Verdict:
    """One contract per target, a round under that set, the drop step, then
    refinement."""
    contracts: Dict[str, Contract] = {}
    _ask(ctx, contracts, [(f, SynthesisIntent.INITIAL) for f in ctx.targets])
    _verify_round(ctx, contracts)
    verdict = _conclude(ctx)
    if verdict is not None:
        return verdict

    # drop contracts that failed their own check, re-verify the system with
    # the survivors (dropped functions stay concrete); this seeds refinement
    failed = [name for name in ctx.round.fn_keys if _status(ctx, name) != Status.PASS.value]
    if failed:
        survivors = {n: c for n, c in ctx.round.contracts.items() if n not in failed}
        ctx.log.event("drop", functions=sorted(failed),
                      survivors=sorted(survivors))
        # only the system check sees the survivors: refinement starts from
        # the full set, and the failed contracts are what the relax side
        # works on
        _check_system(ctx, survivors)
        if not survivors and ctx.checked[ctx.round.sys_key].status is Status.FAIL:
            ctx.round = replace(ctx.round, contracts=survivors)
            return _falsified(ctx)
    return _refine(ctx)


def _run_pre_abstraction(ctx: _Ctx) -> Verdict:
    low, high = partition_functions(ctx.model, ctx.cfg.tau)
    low = [f for f in low if not f.is_static]
    high = [f for f in high if not f.is_static]
    contracts: Dict[str, Contract] = {}

    ctx.set_stage("pre_abstraction:1a")
    _ask(ctx, contracts, [(f, SynthesisIntent.OVERAPPROXIMATE) for f in high])

    ctx.set_stage("pre_abstraction:1b")
    _ask(ctx, contracts, [(f, SynthesisIntent.INITIAL) for f in low], cover=True, pool=ctx.pool)

    ctx.set_stage("pre_abstraction:2")
    _verify_round(ctx, contracts)

    ctx.set_stage("pre_abstraction:3")
    verdict = _conclude(ctx)
    if verdict is not None:
        return verdict

    ctx.set_stage("pre_abstraction:4")
    # an unverified abstraction stays in place for refinement; each verified
    # one's precise contract is asked for here, and their checks made in one
    # batch once every ask is kept
    passing = {name for name, status in _statuses(ctx) if status == Status.PASS.value}
    verified = [f for f in high if f.name in passing]
    asked = _ask(ctx, {}, [(f, SynthesisIntent.INITIAL) for f in verified])
    precise = [(f.name, c) for f, c in zip(verified, asked) if c is not None]
    batch = _checks(ctx, [render_enforce(ctx.model, c) for _, c in precise])
    for (name, c), (key, check, _) in zip(precise, batch):
        if check.status is Status.PASS:
            ctx.round = ctx.round.replaced(name, c, key)
            ctx.log.event("substitute", function=name, kept="precise")
        else:
            ctx.log.event("substitute", function=name, kept="abstraction")
            _classified(ctx, name, check)

    ctx.set_stage("pre_abstraction:5")
    _verify_round(ctx, dict(ctx.round.contracts))
    return _conclude(ctx) or _refine(ctx)
