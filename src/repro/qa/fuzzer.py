"""The seeded differential fuzzer driving the :mod:`repro.qa` oracles.

:func:`run_fuzz` draws instances from the paper's workload families
(:mod:`repro.workloads.families`) — both ``p_cmax`` and ``q_cmax`` —
runs every registered engine whose declared capabilities match, and
applies the four oracle classes of :mod:`repro.qa.oracles`.  Every
failure is minimized with :func:`repro.qa.reduce.shrink_case` and
persisted as a replayable repro file (:mod:`repro.qa.corpus`).

Determinism: case ``k`` of a run is drawn from
``numpy.random.default_rng([seed, k])``, so a (seed, budget) pair names
the exact same case sequence on every machine, and any single case can
be regenerated without replaying its predecessors.

Cost gating keeps a 200-case run within a CI-sized budget: the
exhaustive ``brute`` engine only sees instances with at most
``brute_max_jobs`` jobs, the MILP engine runs on every ``ilp_every``-th
case (a HiGHS solve costs ~150ms; the others are sub-millisecond at
fuzz sizes), and the loopback-socket service oracle samples every
``service_every``-th case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from repro.model.problem import P_CMAX, Q_CMAX, canonical_problem_name
from repro.qa.corpus import ReproCase, write_repro
from repro.qa.oracles import (
    Violation,
    cross_engine_violations,
    fidelity_violations,
    metamorphic_violations,
    run_engines,
    service_equivalence_violations,
)
from repro.qa.reduce import shrink_case
from repro.service.registry import (
    EngineSpec,
    available_engines,
    get_engine,
)
from repro.workloads.families import FAMILIES, SPEED_FAMILIES

#: Engines too slow to re-run on every metamorphic twin (each invariant
#: costs the engine 1–3 extra solves per case).  They still face the
#: cross-engine oracle on their sampled cases.
HEAVY_ENGINES = frozenset({"ilp"})

#: Oracle-class names in reporting order.
ORACLES = ("cross_engine", "metamorphic", "fidelity", "service")


@dataclass(frozen=True)
class FuzzConfig:
    """Knobs of one fuzzing run.

    ``extra_engines`` maps extra engine names to :class:`EngineSpec`
    values that ride alongside the registry — the hook the acceptance
    test uses to inject a deliberately buggy engine and watch the
    oracles catch it.  Extra engines never reach the service oracle
    (the server resolves names against the real registry).
    """

    seed: int = 0
    budget: int = 200
    problem: str = "both"
    corpus_dir: str | Path = "qa-corpus"
    eps: float = 0.3
    max_jobs: int = 12
    max_machines: int = 4
    brute_max_jobs: int = 10
    ilp_every: int = 8
    service_every: int = 25
    max_failures: int = 10
    engines: tuple[str, ...] = ()
    extra_engines: Mapping[str, EngineSpec] = field(default_factory=dict)
    metamorphic: bool = True
    service: bool = True

    def __post_init__(self) -> None:
        if self.problem not in ("both", P_CMAX, Q_CMAX):
            raise ValueError(
                f"problem must be one of "
                f"{sorted(('both', P_CMAX, Q_CMAX))}, got {self.problem!r}"
            )
        if self.budget < 0:
            raise ValueError("budget must be >= 0")


@dataclass(frozen=True)
class Failure:
    """One persisted fuzzing failure: the oracle class, the minimized
    case, the original un-minimized case, the violations observed on the
    minimized case, and the repro file written."""

    oracle: str
    case: ReproCase
    original: ReproCase
    violations: tuple[Violation, ...]
    path: Path


@dataclass
class FuzzReport:
    """Outcome of one :func:`run_fuzz` call."""

    config: FuzzConfig
    cases: int = 0
    engine_case_runs: int = 0
    pairs_covered: set = field(default_factory=set)
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True iff no oracle reported a violation."""
        return not self.failures

    def summary(self) -> str:
        """A human-readable one-paragraph account of the run."""
        pairs = ", ".join(
            f"{e}/{p}" for e, p in sorted(self.pairs_covered)
        )
        lines = [
            f"fuzz: {self.cases} cases, {self.engine_case_runs} engine runs, "
            f"{len(self.failures)} failure(s) "
            f"(seed={self.config.seed}, budget={self.config.budget}, "
            f"problem={self.config.problem})",
            f"pairs covered: {pairs}",
        ]
        for failure in self.failures:
            lines.append(
                f"  [{failure.oracle}] {failure.case.num_jobs} jobs x "
                f"{failure.case.machines} machines -> {failure.path}"
            )
            for violation in failure.violations[:3]:
                lines.append(f"    {violation}")
        return "\n".join(lines)


def _case_rng(seed: int, index: int) -> np.random.Generator:
    """The per-case generator: independent of every other case."""
    return np.random.default_rng([seed, index])


def draw_case(config: FuzzConfig, index: int) -> ReproCase:
    """Case *index* of the run — a family-drawn instance with the
    problem variant, size, and (for ``q_cmax``) speed family chosen by
    the per-case generator."""
    rng = _case_rng(config.seed, index)
    if config.problem == "both":
        problem = Q_CMAX if rng.integers(0, 2) else P_CMAX
    else:
        problem = canonical_problem_name(config.problem)
    m = int(rng.integers(1, config.max_machines + 1))
    n = int(rng.integers(1, config.max_jobs + 1))
    family = FAMILIES[sorted(FAMILIES)[int(rng.integers(0, len(FAMILIES)))]]
    n = min(family.job_count(m, n), config.max_jobs)
    lo, hi = family.bounds(m, n)
    times = tuple(int(t) for t in rng.integers(lo, hi + 1, size=n))
    if problem == Q_CMAX:
        speed_family = SPEED_FAMILIES[
            sorted(SPEED_FAMILIES)[int(rng.integers(0, len(SPEED_FAMILIES)))]
        ]
        speeds = tuple(int(s) for s in speed_family.draw(m, rng))
        return ReproCase(
            problem=problem,
            times=times,
            machines=m,
            speeds=speeds,
            eps=config.eps,
        )
    return ReproCase(
        problem=problem, times=times, machines=m, eps=config.eps
    )


def engines_for(
    config: FuzzConfig, case: ReproCase, index: int
) -> list[tuple[str, EngineSpec]]:
    """The (name, spec) pairs the oracles run on this case: registry
    engines whose capabilities cover the case's problem, cost-gated,
    plus any :attr:`FuzzConfig.extra_engines` that match."""
    names = config.engines or available_engines()
    selected: list[tuple[str, EngineSpec]] = []
    for name in names:
        spec = get_engine(name)
        if case.problem not in spec.problems:
            continue
        if name == "brute" and case.num_jobs > config.brute_max_jobs:
            continue
        if name in HEAVY_ENGINES and index % config.ilp_every != 0:
            continue
        selected.append((name, spec))
    for name, spec in sorted(config.extra_engines.items()):
        if case.problem in spec.problems:
            selected.append((name, spec))
    return selected


def _metamorphic_engines(
    engines: Sequence[tuple[str, EngineSpec]],
) -> list[tuple[str, EngineSpec]]:
    """The engine subset cheap enough for per-twin re-solves."""
    return [(n, s) for n, s in engines if n not in HEAVY_ENGINES]


def _case_violations(
    config: FuzzConfig, case: ReproCase, oracle: str, index: int
) -> list[Violation]:
    """Re-run one oracle class on *case* — the reducer's failure
    predicate and the replay path share this single code path, so a
    minimized case is guaranteed to still trip the oracle it was
    minimized against."""
    instance = case.instance()
    engines = engines_for(config, case, index)
    if oracle == "cross_engine":
        runs = run_engines(engines, instance, case.eps)
        return cross_engine_violations(instance, runs)
    if oracle == "metamorphic":
        rng = np.random.default_rng(
            [config.seed, int(case.fingerprint(), 16) % 2**31]
        )
        return metamorphic_violations(
            _metamorphic_engines(engines), instance, case.eps, rng=rng
        )
    if oracle == "fidelity":
        return fidelity_violations(engines, instance, case.eps)
    if oracle == "service":
        violations: list[Violation] = []
        for name, _spec in engines:
            if name in config.extra_engines:
                continue
            violations.extend(
                service_equivalence_violations(instance, name, case.eps)
            )
        return violations
    raise ValueError(f"unknown oracle {oracle!r}; expected one of {sorted(ORACLES)}")


def _service_engine(
    engines: Sequence[tuple[str, EngineSpec]],
    config: FuzzConfig,
    rng: np.random.Generator,
) -> str | None:
    """One registry engine for the sampled service round trip."""
    eligible = sorted(
        n for n, _ in engines if n not in config.extra_engines
    )
    if not eligible:
        return None
    return eligible[int(rng.integers(0, len(eligible)))]


def _record_failure(
    report: FuzzReport,
    config: FuzzConfig,
    case: ReproCase,
    oracle: str,
    index: int,
    violations: list[Violation],
) -> None:
    """Minimize *case* against *oracle* and persist the repro file."""

    def fails(candidate: ReproCase) -> bool:
        return bool(_case_violations(config, candidate, oracle, index))

    minimized = shrink_case(case, fails)
    final = _case_violations(config, minimized, oracle, index) or violations
    path = write_repro(
        config.corpus_dir,
        minimized.replaced(
            engines=tuple(
                n for n, _ in engines_for(config, minimized, index)
            )
        ),
        final,
        oracle=oracle,
        original=case,
        seed=config.seed,
    )
    report.failures.append(
        Failure(
            oracle=oracle,
            case=minimized,
            original=case,
            violations=tuple(final),
            path=path,
        )
    )


def run_fuzz(config: FuzzConfig) -> FuzzReport:
    """Run the full differential fuzzing loop described in the module
    docstring; returns the :class:`FuzzReport` (``report.ok`` iff no
    oracle tripped).  Stops early after
    :attr:`FuzzConfig.max_failures` distinct failures."""
    report = FuzzReport(config=config)
    for index in range(config.budget):
        if len(report.failures) >= config.max_failures:
            break
        case = draw_case(config, index)
        instance = case.instance()
        engines = engines_for(config, case, index)
        report.cases += 1
        report.engine_case_runs += len(engines)
        for name, _spec in engines:
            report.pairs_covered.add((name, case.problem))

        runs = run_engines(engines, instance, case.eps)
        violations = cross_engine_violations(instance, runs)
        if violations:
            _record_failure(
                report, config, case, "cross_engine", index, violations
            )
            continue

        if config.metamorphic:
            rng = np.random.default_rng(
                [config.seed, int(case.fingerprint(), 16) % 2**31]
            )
            violations = metamorphic_violations(
                _metamorphic_engines(engines),
                instance,
                case.eps,
                rng=rng,
                base_runs={run.name: run for run in runs},
            )
            if violations:
                _record_failure(
                    report, config, case, "metamorphic", index, violations
                )
                continue

        violations = fidelity_violations(engines, instance, case.eps)
        if violations:
            _record_failure(report, config, case, "fidelity", index, violations)
            continue

        if config.service and index % config.service_every == 0:
            engine = _service_engine(
                engines, config, _case_rng(config.seed, index)
            )
            if engine is not None:
                violations = service_equivalence_violations(
                    instance, engine, case.eps
                )
                if violations:
                    _record_failure(
                        report, config, case, "service", index, violations
                    )
    return report


def replay_case(
    case: ReproCase,
    *,
    oracle: str | None = None,
    config: FuzzConfig | None = None,
) -> list[Violation]:
    """Re-run the oracles on a recorded case; empty list = the failure
    no longer reproduces.  *oracle* restricts to one class (the one the
    repro file names); ``None`` runs all four."""
    if config is None:
        config = FuzzConfig(
            corpus_dir="qa-corpus",
            engines=tuple(
                name for name in case.engines if name in available_engines()
            ),
            eps=case.eps,
        )
    names = ORACLES if oracle is None else (oracle,)
    violations: list[Violation] = []
    for name in names:
        # index=0 keeps every cost-gated engine eligible on replay.
        violations.extend(_case_violations(config, case, name, 0))
    return violations


def replay_file(
    path: str | Path, *, all_oracles: bool = False
) -> tuple[dict, list[Violation]]:
    """Replay one corpus file: load it, re-run the recorded oracle class
    (or all of them with *all_oracles*), and return ``(record,
    violations)``."""
    from repro.qa.corpus import load_repro

    record = load_repro(path)
    case: ReproCase = record["case"]
    oracle = None if all_oracles else record.get("oracle")
    return record, replay_case(case, oracle=oracle)
