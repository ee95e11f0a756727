"""Ensures-clause reduction checked against a brute-force oracle.

Clause removal only ever weakens a contract, so the pass predicate over kept
clause sets is downward closed (any subset of a passing set passes). The sweep
enumerates every such predicate for up to four clauses and checks the
reducer's result on each: passes, is a subsequence of the original, becomes
failing again if any single removed clause comes back, and makes at most 2n
check calls.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, FrozenSet, List, Set, Tuple

import pytest

from contractor.contracts import Contract, ContractOrigin
from contractor.errors import IrreducibleFailureError
from contractor.refinement import delta_debug
from contractor.runlog import RunLog


def monotone_families(n: int) -> List[Set[int]]:
    """All downward-closed families of subsets of {0..n-1}, each family given
    as the set of passing subset-bitmasks."""
    m = 1 << n
    families: List[Set[int]] = []
    for bits in range(1 << m):
        ok = True
        for s in range(m):
            if not (bits >> s) & 1:
                continue
            t = s
            while t:
                j = t & (-t)
                if not (bits >> (s ^ j)) & 1:
                    ok = False
                    break
                t ^= j
            if not ok:
                break
        if ok:
            families.append({s for s in range(m) if (bits >> s) & 1})
    return families


def test_family_counts_match_dedekind_numbers():
    # downward-closed families of subsets of an n-set = monotone boolean
    # functions on n variables: 3, 6, 20, 168
    assert len(monotone_families(1)) == 3
    assert len(monotone_families(2)) == 6
    assert len(monotone_families(3)) == 20
    assert len(monotone_families(4)) == 168


def make_contract(n: int) -> Contract:
    return Contract(
        function="f",
        requires=("p > 0",),
        ensures=tuple(f"c{i} > {i}" for i in range(n)),
        assigns=("p",),
        origin=ContractOrigin.LLM_PRECISE,
    )


def subset_mask(original: Tuple[str, ...], trial: Contract) -> int:
    kept = set(trial.ensures)
    mask = 0
    for i, clause in enumerate(original):
        if clause in kept:
            mask |= 1 << i
    return mask


def run_oracle_sweep(max_n: int = 4) -> Tuple[int, int]:
    """(cases checked, irreducible cases). Asserts every oracle property."""
    checked = 0
    irreducible = 0
    for n in range(1, max_n + 1):
        original = make_contract(n)
        full = (1 << n) - 1
        for passing in monotone_families(n):
            if full in passing:
                continue  # a passing full set never reaches the reducer
            calls = 0

            def check(trial: Contract) -> bool:
                nonlocal calls
                calls += 1
                return subset_mask(original.ensures, trial) in passing

            if 0 not in passing:
                with pytest.raises(IrreducibleFailureError):
                    delta_debug(original, check)
                irreducible += 1
                checked += 1
                continue

            reduced = delta_debug(original, check)
            checked += 1
            mask = subset_mask(original.ensures, reduced)

            assert mask in passing, (n, passing, mask)
            # subsequence of the original, order preserved
            it = iter(original.ensures)
            assert all(any(c == o for o in it) for c in reduced.ensures)
            # removal-minimal: re-adding any single removed clause fails
            for i in range(n):
                if not (mask >> i) & 1:
                    assert (mask | (1 << i)) not in passing, (n, passing, mask, i)
            assert calls <= 2 * n, (n, passing, calls)
            assert reduced.origin is ContractOrigin.DELTA_REDUCED
            assert reduced.requires == original.requires
            assert reduced.assigns == original.assigns
    return checked, irreducible


def test_oracle_sweep_all_monotone_predicates():
    checked, irreducible = run_oracle_sweep(4)
    # per n, exactly one downward-closed family contains the full set (the
    # powerset), so the sweep sees D(n) - 1 failing starts; and exactly one
    # family (the empty one) lacks the empty set, giving one irreducible case
    assert checked == (3 - 1) + (6 - 1) + (20 - 1) + (168 - 1)
    assert irreducible == 4


def test_duplicate_clause_texts_are_handled_by_index():
    c = Contract(function="f", requires=(), assigns=(),
                 ensures=("x > 0", "x > 0", "y > 0"),
                 origin=ContractOrigin.LLM_PRECISE)

    # passes only when at most one "x > 0" is present
    def check(trial: Contract) -> bool:
        return list(trial.ensures).count("x > 0") <= 1

    reduced = delta_debug(c, check)
    assert list(reduced.ensures).count("x > 0") <= 1
    assert check(reduced)


def test_empty_ensures_is_irreducible_without_calls():
    c = Contract(function="f", requires=("1",), assigns=(), ensures=(),
                 origin=ContractOrigin.LLM_PRECISE)
    calls = []
    with pytest.raises(IrreducibleFailureError):
        delta_debug(c, lambda t: calls.append(1) or True)
    assert calls == []


def test_all_fail_raises_irreducible():
    c = make_contract(3)
    with pytest.raises(IrreducibleFailureError):
        delta_debug(c, lambda t: False)


def test_irreducible_log_event_counts_the_checks_spent():
    c = make_contract(3)
    log = RunLog()
    calls = []
    with pytest.raises(IrreducibleFailureError):
        delta_debug(c, lambda t: calls.append(t.ensures) and False, log=log)
    assert calls == [c.ensures[:2], c.ensures[:1], ()]
    assert log.of_kind("delta_debug") == [{
        "event": "delta_debug", "function": c.function, "kept": list(c.ensures),
        "removed": [], "checks": 3, "irreducible": True,
    }]


def test_log_event_records_kept_and_removed():
    c = make_contract(3)
    log = RunLog()
    # passes iff clause c0 is absent
    reduced = delta_debug(c, lambda t: "c0 > 0" not in t.ensures, log=log)
    assert "c0 > 0" not in reduced.ensures
    events = log.of_kind("delta_debug")
    assert len(events) == 1
    assert events[0]["removed"] == ["c0 > 0"]
    assert sorted(events[0]["kept"]) == ["c1 > 1", "c2 > 2"]
    assert events[0]["checks"] <= 8


def test_already_passing_contract_keeps_everything():
    # degenerate but legal: the first phase-1 attempt after one removal passes,
    # and phase 2 then re-adds that clause
    c = make_contract(2)
    reduced = delta_debug(c, lambda t: True)
    assert reduced.ensures == c.ensures


@pytest.mark.parametrize("violated, reducible", [
    ("i <= n", False),  # a loop invariant: ensures are asserted only at exit
    ("c0 > 0", True),  # an ensures clause
    ("i <= n || c0 > 0", True),  # neither: the search decides
])
def test_a_failing_loop_invariant_is_irreducible_without_checks(violated, reducible):
    c = replace(make_contract(2), loop_invariants=((0, "i <= n"),))
    log = RunLog()
    calls = []

    def check(trial: Contract) -> bool:
        calls.append(trial.ensures)
        return "c0 > 0" not in trial.ensures

    if reducible:
        assert delta_debug(c, check, log=log, violated=violated).ensures == ("c1 > 1",)
        assert calls
    else:
        with pytest.raises(IrreducibleFailureError):
            delta_debug(c, check, log=log, violated=violated)
        assert calls == []
        assert log.of_kind("delta_debug") == [{
            "event": "delta_debug", "function": "f", "kept": list(c.ensures),
            "removed": [], "checks": 0, "irreducible": True,
        }]


def test_an_invariant_that_is_also_an_ensures_is_searched():
    c = replace(make_contract(2), loop_invariants=((0, "c0 > 0"),))
    reduced = delta_debug(c, lambda t: "c0 > 0" not in t.ensures, violated="c0 > 0")
    assert reduced.ensures == ("c1 > 1",)


def test_log_event_counts_only_the_trials_the_backend_ran():
    # a caller whose memo answered some trials says how many reached the backend
    c = make_contract(3)
    log = RunLog()
    calls = []
    delta_debug(c, lambda t: calls.append(t) or "c0 > 0" not in t.ensures, log=log,
                backend_checks=lambda: len(calls) - 1)
    (event,) = log.of_kind("delta_debug")
    assert event["checks"] == len(calls) - 1
