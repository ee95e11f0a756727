"""Seeded workload generators.

Each workload is a list of programs. A program carries its model (see
model.py), the scripted model replies for every function and intent, and the
outcome its construction fixes. The seed picks templates, names and
constants; the shape that decides how many checks a program costs (how many
functions, which replies are wrong and how often) is fixed per position, so
every seed asks the pipeline for the same amount of work.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence

from model import RETURN_VALUE

RV = RETURN_VALUE

WORKLOADS = ("frama-small", "refine-deep", "preabs-large")


def reply(c: Dict) -> str:
    """A model reply carrying one contract, fenced like a chat answer."""
    body = [f"__ESBMC_requires({e});" for e in c.get("requires", ())]
    body += [f"__ESBMC_assigns({t});" for t in c.get("assigns", ())]
    body += [f"__ESBMC_ensures({e});" for e in c.get("ensures", ())]
    body += [f"__ESBMC_loop_invariant({e});" for e in c.get("invariants", ())]
    return "Here is the contract:\n```c\n" + "\n".join(body) + "\n```\n"


PARSE_FAILURE_REPLY = "Contract:\n```c\n__ESBMC_ensures(true);\n```\n"


# ---------------------------------------------------------------------------
# Function templates. Each returns a unit: the functions it adds (callees
# first), the entry main calls, the call arguments, and contracts: good (holds
# and pins the result at the call), bad (fails its own check) for the
# templates frama-small and refine-deep draw from, and loose (holds, only
# bounds the result) for the complex tiers.
# ---------------------------------------------------------------------------

def _fn(name, params, ret, body, doc=(), static=False):
    return {"name": name, "params": params, "ret": ret, "body": body,
            "doc": list(doc), "static": static}


def t_affine(rng, name, helper=None):
    k, c = rng.randint(2, 5), rng.randint(1, 9)
    lim = 10
    if helper is None:
        body = [["decl", "r", f"x * {k} + {c}"], ["return", "r"]]
        expr = f"x * {k} + {c}"
    else:
        hname, hk = helper
        body = [["call", "t", hname, ["x"]], ["decl", "r", f"t * {k} + {c}"], ["return", "r"]]
        expr = f"x * {hk * k} + {c}"
    fn = _fn(name, [["x", -lim - 2, lim + 2]], [-150, 150], body)
    good = {"requires": [f"x >= -{lim} && x <= {lim}"], "assigns": ["x"],
            "ensures": [f"{RV} == {expr}"]}
    bad = {"requires": good["requires"], "ensures": [f"{RV} == {expr} + 1"]}
    return {"fns": [fn], "entry": name, "args": [str(rng.randint(0, 8))], "k": k, "c": c,
            "contracts": {name: {"good": good, "bad": bad}}}


def t_max2(rng, name):
    body = [["decl", "r", "a"], ["if", "b > a", [["set", "r", "b"]], []], ["return", "r"]]
    fn = _fn(name, [["a", -8, 8], ["b", -8, 8]], [-12, 12], body)
    good = {"ensures": [f"{RV} >= a && {RV} >= b", f"{RV} == a || {RV} == b"]}
    bad = {"ensures": [f"{RV} > a"]}
    a, b = rng.randint(-6, 6), rng.randint(-6, 6)
    return {"fns": [fn], "entry": name, "args": [str(a), str(b)],
            "contracts": {name: {"good": good, "bad": bad}}}


def t_clamp(rng, name):
    lo, hi = rng.randint(0, 3), rng.randint(10, 15)
    body = [["decl", "r", "x"],
            ["if", f"r < {lo}", [["set", "r", str(lo)]], []],
            ["if", f"r > {hi}", [["set", "r", str(hi)]], []],
            ["return", "r"]]
    fn = _fn(name, [["x", -20, 30]], [-25, 35], body)
    good = {"ensures": [f"{RV} >= {lo} && {RV} <= {hi}",
                        f"x < {lo} || x > {hi} || {RV} == x"]}
    bad = {"ensures": [f"{RV} == x"]}
    return {"fns": [fn], "entry": name, "args": [str(rng.randint(lo, hi))],
            "contracts": {name: {"good": good, "bad": bad}}}


def t_abs(rng, name):
    body = [["decl", "r", "x"], ["if", "x < 0", [["set", "r", "0 - x"]], []], ["return", "r"]]
    fn = _fn(name, [["x", -15, 15]], [-20, 20], body)
    good = {"ensures": [f"{RV} >= 0", f"{RV} == x || {RV} == 0 - x"]}
    bad = {"ensures": [f"{RV} == x"]}
    x = rng.choice([-9, -7, -5, -3, 2, 4, 6, 8])
    return {"fns": [fn], "entry": name, "args": [str(x)],
            "contracts": {name: {"good": good, "bad": bad}}}


def t_sign(rng, name):
    body = [["decl", "r", "0"],
            ["if", "x > 0", [["set", "r", "1"]], [["if", "x < 0", [["set", "r", "0 - 1"]], []]]],
            ["return", "r"]]
    fn = _fn(name, [["x", -10, 10]], [-3, 3], body)
    good = {"ensures": [f"{RV} >= 0 - 1 && {RV} <= 1", f"x <= 0 || {RV} == 1",
                        f"x >= 0 || {RV} == 0 - 1", f"x != 0 || {RV} == 0"]}
    bad = {"ensures": [f"{RV} == 1"]}
    return {"fns": [fn], "entry": name, "args": [str(rng.randint(-8, 8))],
            "contracts": {name: {"good": good, "bad": bad}}}


def t_sat_add(rng, name):
    m = rng.randint(15, 25)
    body = [["decl", "r", "a + b"], ["if", f"r > {m}", [["set", "r", str(m)]], []], ["return", "r"]]
    fn = _fn(name, [["a", -5, 20], ["b", -5, 20]], [-12, 45], body)
    good = {"ensures": [f"{RV} <= {m}", f"a + b > {m} || {RV} == a + b",
                        f"a + b <= {m} || {RV} == {m}"]}
    bad = {"ensures": [f"{RV} == a + b"]}
    return {"fns": [fn], "entry": name, "args": [str(rng.randint(0, 15)), str(rng.randint(0, 15))],
            "contracts": {name: {"good": good, "bad": bad}}}


def t_chain(rng, name, callee):
    """Two functions: callee is affine, name adds an offset to its result."""
    inner = t_affine(rng, callee)
    k, c, d = inner["k"], inner["c"], rng.randint(2, 9)
    body = [["call", "t", callee, ["x"]], ["decl", "r", f"t + {d}"], ["return", "r"]]
    fn = _fn(name, [["x", -12, 12]], [-150, 150], body)
    good = {"requires": ["x >= -10 && x <= 10"], "ensures": [f"{RV} == x * {k} + {c + d}"]}
    bad = {"requires": good["requires"], "ensures": [f"{RV} == x * {k} + {c + d + 1}"]}
    contracts = dict(inner["contracts"])
    contracts[name] = {"good": good, "bad": bad}
    return {"fns": inner["fns"] + [fn], "entry": name, "args": inner["args"],
            "contracts": contracts}


def t_sum_while(rng, name, nmax=None):
    k = rng.randint(2, 4)
    nmax = nmax or rng.randint(12, 16)
    body = [["decl", "s", "0"], ["decl", "i", "0"],
            ["while", "i < n", [["set", "s", f"s + {k}"], ["set", "i", "i + 1"]]],
            ["return", "s"]]
    fn = _fn(name, [["n", -2, nmax + 2]], [-10, k * nmax + 10], body)
    inv = [f"i >= 0 && i <= n && s == i * {k}"]
    good = {"requires": [f"n >= 0 && n <= {nmax}"], "ensures": [f"{RV} == n * {k}"],
            "invariants": inv}
    bad = {"requires": good["requires"], "ensures": [f"{RV} == n * {k} + {k}"],
           "invariants": inv}
    return {"fns": [fn], "entry": name, "args": [str(rng.randint(3, nmax))], "k": k,
            "contracts": {name: {"good": good, "bad": bad}}}


def t_tri_for(rng, name):
    nmax = rng.randint(10, 14)
    body = [["decl", "s", "0"], ["decl", "i", "0"],
            ["for", "i", "0", "i < n", "i + 1", [["set", "s", "s + i"]]],
            ["return", "s"]]
    fn = _fn(name, [["n", -2, nmax + 2]], [-10, nmax * nmax], body)
    inv = ["i >= 0 && i <= n && 2 * s == i * (i - 1)"]
    good = {"requires": [f"n >= 0 && n <= {nmax}"], "ensures": [f"2 * {RV} == n * (n - 1)"],
            "invariants": inv}
    bad = {"requires": good["requires"], "ensures": [f"2 * {RV} == n * (n + 1)"],
           "invariants": inv}
    return {"fns": [fn], "entry": name, "args": [str(rng.randint(3, nmax))],
            "contracts": {name: {"good": good, "bad": bad}}}


def t_two_loops(rng, name):
    """Medium tier: two loops in sequence."""
    k, nmax = rng.randint(2, 4), rng.randint(8, 12)
    body = [["decl", "s", "0"], ["decl", "i", "0"],
            ["while", "i < n", [["set", "s", f"s + {k}"], ["set", "i", "i + 1"]]],
            ["decl", "t", "s"], ["decl", "j", "0"],
            ["while", "j < n", [["set", "t", "t + 1"], ["set", "j", "j + 1"]]],
            ["return", "t"]]
    fn = _fn(name, [["n", -2, nmax + 2]], [-10, (k + 1) * nmax + 10], body)
    inv = [f"i >= 0 && i <= n && s == i * {k}", f"j >= 0 && j <= n && t == n * {k} + j"]
    good = {"requires": [f"n >= 0 && n <= {nmax}"], "ensures": [f"{RV} == n * {k + 1}"],
            "invariants": inv}
    loose = {"requires": good["requires"], "ensures": [f"{RV} >= 0"], "invariants": inv}
    return {"fns": [fn], "entry": name, "args": [str(rng.randint(3, nmax))],
            "contracts": {name: {"good": good, "loose": loose}}}


def t_nested(rng, name):
    """Medium tier: a loop nest counting n * m."""
    nmax = rng.randint(5, 7)
    body = [["decl", "s", "0"], ["decl", "i", "0"], ["decl", "j", "0"],
            ["for", "i", "0", "i < n", "i + 1",
             [["for", "j", "0", "j < m", "j + 1", [["set", "s", "s + 1"]]]]],
            ["return", "s"]]
    fn = _fn(name, [["n", -1, nmax + 1], ["m", -1, nmax + 1]], [-5, nmax * nmax + 5], body)
    inv = ["i >= 0 && i <= n && s == i * m", "j >= 0 && j <= m && s == i * m + j"]
    req = [f"n >= 0 && n <= {nmax} && m >= 0 && m <= {nmax}"]
    good = {"requires": req, "ensures": [f"{RV} == n * m"], "invariants": inv}
    loose = {"requires": req, "ensures": [f"{RV} >= 0"], "invariants": inv}
    return {"fns": [fn], "entry": name,
            "args": [str(rng.randint(2, nmax)), str(rng.randint(2, nmax))],
            "contracts": {name: {"good": good, "loose": loose}}}


def t_rec(rng, name):
    """High tier: linear recursion."""
    k, nmax = rng.randint(2, 5), rng.randint(12, 18)
    body = [["if", "n <= 0", [["return", "0"]], []],
            ["call", "r", name, ["n - 1"]],
            ["return", f"r + {k}"]]
    fn = _fn(name, [["n", -2, nmax + 2]], [-5, k * nmax + 10], body)
    req = [f"n >= 0 && n <= {nmax}"]
    good = {"requires": req, "ensures": [f"{RV} == n * {k}"]}
    loose = {"requires": req, "ensures": [f"{RV} >= 0"]}
    return {"fns": [fn], "entry": name, "args": [str(rng.randint(3, nmax))],
            "contracts": {name: {"good": good, "loose": loose}}}


STRAIGHT = {"scale": t_affine, "pick": t_max2, "clip": t_clamp, "mag": t_abs,
            "sgn": t_sign, "satadd": t_sat_add}
LOOPED = {"tally": t_sum_while, "tri": t_tri_for}


# ---------------------------------------------------------------------------
# Assembling programs
# ---------------------------------------------------------------------------

def build_program(name: str, units: Sequence[Dict], bounded: Sequence[str] = (),
                  false_entry: Optional[str] = None, helpers: Sequence[Dict] = (),
                  calls: Optional[List] = None):
    """Assemble a model: the units' functions, main calling every entry, and
    a property conjoining one fact per call that the good contracts imply:
    `r == value`, or `r >= 0` for the entries in `bounded`. The conjunct of
    `false_entry` is made false."""
    from oracle import Program

    fns: List[Dict] = list(helpers)
    for u in units:
        fns.extend(u["fns"])
    calls = calls or [(u["entry"], u["args"]) for u in units]
    main = []
    for idx, (entry, args) in enumerate(calls):
        main.append(["call", f"r{idx}", entry, list(args)])
    model = {"name": name, "functions": fns, "main": main, "property": "1"}
    probe = Program(model)
    conj = []
    for idx, (entry, args) in enumerate(calls):
        value = probe.fns[entry](*[int(a) for a in args])
        if entry in bounded:
            conj.append(f"r{idx} >= 0")
        elif entry == false_entry:
            conj.append(f"r{idx} == {value + 1}")
        else:
            conj.append(f"r{idx} == {value}")
    model["property"] = " && ".join(conj)
    return model


def _program(name: str, model: Dict, script: Dict[str, object], expect: Dict,
             cfg: Dict) -> Dict:
    """One workload entry: the program, its replies, and what its construction
    fixes (outcome, verdict, stage, iterations, truth of the property)."""
    return {"name": name + ".c", "model": model, "script": script, "expect": expect,
            "config": cfg}


def _contracts(units: Sequence[Dict]) -> Dict[str, Dict]:
    out: Dict[str, Dict] = {}
    for u in units:
        out.update(u["contracts"])
    return out


# frama-small: position -> (functions, category). Categories:
#   A  every initial reply is right: converges at iteration 0
#   P  like A, but one first reply does not parse and its retry is right
#   B  one initial reply is wrong, its relax reply right: converges at 1
#   C  the property is false and every reply is wrong: falsified
FRAMA_PLAN = [
    (1, "A"), (2, "P"), (3, "A"), (2, "B"), (1, "A"),
    (2, "A"), (1, "C"), (3, "A"), (1, "B"), (2, "A"),
    (3, "P"), (1, "A"), (2, "A"), (3, "B"), (1, "A"),
    (2, "P"), (2, "C"), (1, "A"), (2, "B"), (3, "A"),
]

FRAMA_CONFIG = {"strategy": "smart-ice", "timeout_s": 300.0}
_CONVERGED = {"outcome": "converged", "verdict": "verified"}
FRAMA_EXPECT = {
    "A": dict(_CONVERGED, stage="initial", iterations=0),
    "P": dict(_CONVERGED, stage="initial", iterations=0),
    "B": dict(_CONVERGED, stage="cegar", iterations=1),
    "C": {"outcome": "failed", "verdict": "falsified", "stage": "initial", "iterations": 0},
}


def _frama_units(rng: random.Random, tag: str, nfun: int, looped: bool) -> List[Dict]:
    units: List[Dict] = []
    left = nfun
    letter = iter("abcdefgh")
    if looped:
        base = rng.choice(sorted(LOOPED))
        units.append(LOOPED[base](rng, f"{tag}{next(letter)}_{base}{rng.randint(1, 99)}"))
        left -= 1
    if left >= 2 and rng.random() < 0.4:
        callee = f"{tag}{next(letter)}_scale{rng.randint(1, 99)}"
        units.append(t_chain(rng, f"{tag}{next(letter)}_offs{rng.randint(1, 99)}", callee))
        left -= 2
    while left > 0:
        base = rng.choice(sorted(STRAIGHT))
        units.append(STRAIGHT[base](rng, f"{tag}{next(letter)}_{base}{rng.randint(1, 99)}"))
        left -= 1
    return units


def frama_small(seed: int) -> List[Dict]:
    rng = random.Random(f"frama-small:{seed}")
    programs = []
    for pos, (nfun, cat) in enumerate(FRAMA_PLAN):
        tag = f"p{pos:02d}"
        units = _frama_units(rng, tag, nfun, looped=(pos % 2 == 0))
        contracts = _contracts(units)
        names = sorted(contracts)
        script: Dict[str, object] = {}
        false_entry = None
        if cat == "C":
            false_entry = units[-1]["entry"]
            for n in names:
                script[f"{n}|initial"] = reply(contracts[n]["bad"])
        else:
            for n in names:
                script[f"{n}|initial"] = reply(contracts[n]["good"])
        if cat == "P":
            victim = rng.choice(names)
            script[f"{victim}|initial"] = [PARSE_FAILURE_REPLY, reply(contracts[victim]["good"])]
        if cat == "B":
            victim = rng.choice(names)
            script[f"{victim}|initial"] = reply(contracts[victim]["bad"])
            script[f"{victim}|relax"] = reply(contracts[victim]["good"])
        model = build_program(tag, units, false_entry=false_entry)
        expect = FRAMA_EXPECT[cat]
        programs.append(_program(tag, model, script, dict(expect, property=cat != "C"),
                                 FRAMA_CONFIG))
    return programs


# refine-deep: three programs of one shape, a loop function (a), a function
# whose wrong extra clause delta debugging removes (b), and a function whose
# first contract is true but too weak for the property (c), called twice so
# the weakest-link score singles it out. Kinds:
#   cegis    (a) keeps a wrong invariant through CEGAR, CEGIS repairs it
#   dd       (a) is right from the start; delta debugging finishes the job
#   never    (a) never gets a right invariant: the budget runs out
REFINE_PLAN = ["cegis", "dd", "never"]
REFINE_CONFIG = {"strategy": "smart-ice", "k_cegar": 3, "k_cegis": 2, "total_budget": 5,
                 "timeout_s": 300.0}
LOOP_NMAX = 150


def refine_deep(seed: int) -> List[Dict]:
    rng = random.Random(f"refine-deep:{seed}")
    programs = []
    for pos, kind in enumerate(REFINE_PLAN):
        tag = f"d{pos}"
        loop = t_sum_while(rng, f"{tag}a_acc{rng.randint(1, 99)}", nmax=LOOP_NMAX)
        loop["args"] = [str(rng.randint(40, 60))]
        aff = t_affine(rng, f"{tag}b_scale{rng.randint(1, 99)}")
        pick = t_max2(rng, f"{tag}c_pick{rng.randint(1, 99)}")
        la, sa, pa = loop["entry"], aff["entry"], pick["entry"]
        k = loop["k"]
        good_inv = loop["contracts"][la]["good"]["invariants"][0]
        ms = rng.sample(range(110, 131), 4)
        # true until s passes k * m, some 110-130 iterations into the loop
        wrong = [dict(loop["contracts"][la]["good"], invariants=[f"{good_inv} && s <= {k * m}"])
                 for m in ms]
        aff_good = aff["contracts"][sa]["good"]
        pick_args2 = [str(rng.randint(-6, 6)), str(rng.randint(-6, 6))]
        script: Dict[str, object] = {
            f"{la}|initial": reply(loop["contracts"][la]["good"] if kind == "dd" else wrong[0]),
            f"{la}|relax": reply(wrong[1]),
            f"{sa}|initial": reply(dict(aff_good, ensures=aff_good["ensures"] + [f"{RV} >= x"])),
            f"{sa}|relax": reply(dict(aff_good, ensures=aff_good["ensures"] + [f"{RV} > x"])),
            f"{pa}|initial": reply({"ensures": [f"{RV} >= a"]}),
            f"{pa}|strengthen": reply(pick["contracts"][pa]["good"]),
        }
        if kind == "cegis":
            script[f"{la}|cegis"] = reply(loop["contracts"][la]["good"])
            expect = dict(_CONVERGED, stage="cegis", iterations=3)
        elif kind == "dd":
            expect = dict(_CONVERGED, stage="cegar", iterations=2)
        else:
            script[f"{la}|cegis"] = [reply(wrong[2]), reply(wrong[3])]
            expect = {"outcome": "system_only", "verdict": "inconclusive", "stage": "cegis",
                      "iterations": 4}
        calls = [(la, loop["args"]), (sa, aff["args"]), (pa, pick["args"]), (pa, pick_args2)]
        model = build_program(tag, [loop, aff, pick], calls=calls)
        programs.append(_program(tag, model, script, dict(expect, property=True), REFINE_CONFIG))
    return programs


# preabs-large: two programs of 14 checked functions (6 minimal, 4 low, 2
# medium, 2 high) plus 4 static helpers, every function under a doc comment.
# In the first the property needs only the loose contracts of the complex
# functions; in the second it pins their results, so phase 4 substitutes the
# precise contracts and phase 5 re-verifies.
PREABS_CONFIG = {"strategy": "pre-abstraction", "workers": 2, "timeout_s": 300.0}
PREABS_PLAN = ["minimal"] * 6 + ["low"] * 4 + ["medium"] * 2 + ["high"] * 2
HELPERS = 4

_DOC_WORDS = ("value", "input", "bound", "counter", "result", "range", "total", "step",
              "offset", "limit", "checked", "caller", "domain", "index", "accumulator")


def _doc(rng: random.Random, name: str, lines: int) -> List[str]:
    out = ["/*", f" * {name}: generated routine."]
    for _ in range(lines):
        out.append(" * " + " ".join(rng.choice(_DOC_WORDS) for _ in range(11)) + ".")
    out.append(" */")
    return out


def _preabs_unit(rng: random.Random, name: str, tier: str, helper) -> Dict:
    if tier == "minimal":
        if helper is not None:
            return t_affine(rng, name + f"scale{rng.randint(1, 99)}", helper=helper)
        base = rng.choice(sorted(STRAIGHT))
        return STRAIGHT[base](rng, name + f"{base}{rng.randint(1, 99)}")
    if tier == "low":
        base = rng.choice(sorted(LOOPED))
        return LOOPED[base](rng, name + f"{base}{rng.randint(1, 99)}")
    if tier == "medium":
        maker = rng.choice((t_two_loops, t_nested))
        return maker(rng, name + f"nest{rng.randint(1, 99)}")
    return t_rec(rng, name + f"rec{rng.randint(1, 99)}")


def preabs_large(seed: int) -> List[Dict]:
    rng = random.Random(f"preabs-large:{seed}")
    programs = []
    for pos, precise_property in enumerate((False, True)):
        tag = f"q{pos}"
        helpers, helper_k = [], []
        for h in range(HELPERS):
            hk = rng.randint(2, 3)
            hname = f"h{pos}{h}_dbl{rng.randint(1, 99)}"
            helpers.append(_fn(hname, [["x", -30, 30]], [-100, 100],
                               [["decl", "y", f"x * {hk}"], ["return", "y"]],
                               doc=_doc(rng, hname, 6), static=True))
            helper_k.append((hname, hk))
        units: List[Dict] = []
        complex_ = set()
        for idx, tier in enumerate(PREABS_PLAN):
            helper = helper_k[idx] if idx < HELPERS else None
            u = _preabs_unit(rng, f"{tag}{idx:02d}_", tier, helper)
            for fn in u["fns"]:
                fn["doc"] = _doc(rng, fn["name"], 14)
            if tier in ("medium", "high"):
                complex_.add(u["entry"])
            units.append(u)
        contracts = _contracts(units)
        script: Dict[str, object] = {}
        for n in sorted(contracts):
            script[f"{n}|initial"] = reply(contracts[n]["good"])
            if n in complex_:
                script[f"{n}|overapproximate"] = reply(contracts[n]["loose"])
        bounded = () if precise_property else sorted(complex_)
        model = build_program(tag, units, bounded, helpers=helpers)
        stage = "pre_abstraction:5" if precise_property else "pre_abstraction:3"
        expect = dict(_CONVERGED, stage=stage, iterations=0)
        programs.append(_program(tag, model, script, dict(expect, property=True), PREABS_CONFIG))
    return programs


GENERATORS: Dict[str, Callable[[int], List[Dict]]] = {
    "frama-small": frama_small,
    "refine-deep": refine_deep,
    "preabs-large": preabs_large,
}
