"""Compositional verification of C programs.

Derives per-function contracts from a single system-level assertion, checks
the composition with an external bounded model checker, and refines failing
contracts from counterexamples until the whole stack verifies or the budget
runs out.

The public names below are imported from their submodules on first access
(PEP 562), so that importing one submodule, such as the mock backend every
check starts, does not import the whole pipeline.
"""

from importlib import import_module

__version__ = "0.1.0"

_SOURCES = {
    "contracts": ("Contract", "ContractOrigin", "ParseFailure"),
    "errors": ("ContractorError",),
    "harness": ("RunOutcome", "RunReport", "SuiteReport", "run_program", "run_suite"),
    "program_model": ("ProgramModel", "Tier", "parse_program"),
    "refinement": ("PipelineConfig", "Strategy", "Verdict", "VerdictOutcome",
                   "delta_debug", "run_pipeline"),
    "verifier": ("Status", "SubprocessVerifier", "VerifierConfig"),
}
_SUBMODULE = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = [*_SUBMODULE, "__version__"]


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        # an AttributeError lets `from contractor import harness` fall back to
        # importing the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
