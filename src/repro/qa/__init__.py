"""Differential quality assurance: fuzzing the engine fleet against itself.

The :mod:`repro.qa` package turns the repo's redundancy — four exact
solvers, five approximation engines, two problem variants, two solve
paths — into an automated oracle.  A seeded fuzzer
(:mod:`repro.qa.fuzzer`) draws instances from the paper's workload
families and checks four relation classes (:mod:`repro.qa.oracles`):
cross-engine agreement, metamorphic invariants, wire/in-process service
equivalence, and the fidelity of every served PTAS answer to the
paper's table witness.  Failures are ddmin-minimized
(:mod:`repro.qa.reduce`) and written as replayable JSON repro files
(:mod:`repro.qa.corpus`).

Command line::

    repro-pcmax qa fuzz --seed 0 --budget 200
    repro-pcmax qa replay corpus/qa-cross_engine-<hash>.json
    python -m repro.qa fuzz ...      # same thing, module form

See ``docs/qa.md`` for the oracle catalogue and the
find → minimize → replay → fix workflow.
"""

from repro.qa.corpus import ReproCase, load_repro, write_repro
from repro.qa.fuzzer import (
    Failure,
    FuzzConfig,
    FuzzReport,
    draw_case,
    replay_case,
    replay_file,
    run_fuzz,
)
from repro.qa.oracles import (
    EngineRun,
    Violation,
    cross_engine_violations,
    metamorphic_violations,
    run_engine,
    run_engines,
    service_equivalence_violations,
)
from repro.qa.reduce import ddmin, shrink_case

__all__ = [
    "ReproCase",
    "load_repro",
    "write_repro",
    "FuzzConfig",
    "FuzzReport",
    "Failure",
    "draw_case",
    "run_fuzz",
    "replay_case",
    "replay_file",
    "Violation",
    "EngineRun",
    "run_engine",
    "run_engines",
    "cross_engine_violations",
    "metamorphic_violations",
    "service_equivalence_violations",
    "ddmin",
    "shrink_case",
]
