"""The four oracle classes of the differential fuzzing harness.

Hand-written tests encode *expected outputs*; these oracles encode
*relations that must hold between outputs*, so they keep working on
instances nobody anticipated:

1. **Cross-engine agreement** (:func:`cross_engine_violations`) — every
   schedule verifies via :func:`repro.model.verify.verify_schedule`,
   exact engines agree with each other on the optimum, and approximate
   engines respect their registry-declared guarantee against the best
   exact reference (or, failing one, against the best makespan any
   engine achieved — a valid upper bound on OPT).
2. **Metamorphic invariants** (:func:`metamorphic_violations`) —
   permuting jobs (and machines) never changes the makespan of a
   multiset-deterministic engine, uniformly scaling all times scales the
   makespan exactly for scale-equivariant engines, a unit-speed
   ``q_cmax`` run collapses byte-for-byte onto the ``p_cmax`` path, and
   an extra (zero-load) machine never raises an exact engine's optimum.
3. **Service-path equivalence** (:func:`service_equivalence_violations`)
   — a solve through the JSON-lines wire protocol byte-matches the
   in-process facade result once both are reduced to the canonical
   fingerprint of :func:`repro.service.cache.canonicalize_result`.
4. **Paper fidelity** (:func:`fidelity_violations`) — every served PTAS
   answer is the paper's own table witness: the same final target and
   assignment as ``ptas(instance, eps, engine="table")``.

Each function returns a list of :class:`Violation` records (empty =
clean) rather than raising, so the fuzzer can collect, minimize, and
persist every failure it finds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from repro.model.instance import Instance
from repro.model.problem import Q_CMAX, problem_of_instance
from repro.model.qinstance import QInstance
from repro.model.verify import verify_schedule
from repro.service.registry import EngineSpec
from repro.service.requests import SolveRequest

#: Engines whose result legitimately depends on the *order* of the job
#: vector, and so are exempt from the permutation-invariance oracle:
#: plain Graham list scheduling processes jobs as given, and the PTAS
#: family maps rounded grid buckets back to original jobs in input
#: order — two jobs sharing a bucket (say times 92 and 94 at eps=0.3)
#: can swap machines under permutation, moving the true makespan within
#: the guarantee band.  The fuzzer found the PTAS case on its first
#: smoke run (minimized: times (92, 87, 94), m=2 → 181 vs 179).
ORDER_SENSITIVE = frozenset({"ls", "ptas", "parallel_ptas"})

#: Approximate engines whose makespan provably scales exactly with a
#: uniform integer scaling of the processing times (greedy placement is
#: scale-equivariant; the PTAS/MULTIFIT rounding boundaries are not).
SCALE_EQUIVARIANT_APPROX = frozenset({"lpt", "ls"})

#: The registry engines that serve PTAS answers, each held by the
#: fidelity oracle to the witness of the paper's full-table DP.
SERVED_PTAS_ENGINES = frozenset({"ptas", "parallel_ptas"})

#: Relative slack for float comparisons (``q_cmax`` makespans surface
#: exact Fractions as floats; products of floats can wobble one ulp).
REL_TOL = 1e-9


@dataclass(frozen=True)
class Violation:
    """One oracle violation: which oracle class, which concrete check,
    which engine, and a human-readable account."""

    oracle: str
    check: str
    engine: str
    message: str

    def __str__(self) -> str:
        return f"[{self.oracle}/{self.check}] {self.engine}: {self.message}"


@dataclass(frozen=True)
class EngineRun:
    """Outcome of one engine on one instance: the schedule and makespan,
    or the error message when the engine raised."""

    name: str
    exact: bool
    guarantee: float
    makespan: float | None = None
    schedule: object | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        """True iff the engine produced a schedule."""
        return self.error is None


def build_request(
    instance: Instance | QInstance, engine: str, eps: float
) -> SolveRequest:
    """The :class:`SolveRequest` the harness uses for *instance*: the
    deterministic single-worker configuration (``numpy-serial``
    wavefront backend) so reruns and the service path are bit-stable."""
    is_q = isinstance(instance, QInstance)
    return SolveRequest(
        times=instance.processing_times,
        machines=instance.num_machines,
        problem=problem_of_instance(instance),
        speeds=instance.speeds if is_q else (),
        engine=engine,
        eps=eps,
        workers=1,
        backend="numpy-serial",
        mode="wavefront",
    )


def run_engine(
    name: str, spec: EngineSpec, instance: Instance | QInstance, eps: float
) -> EngineRun:
    """Run one engine on *instance*, capturing any exception as an
    :class:`EngineRun` error instead of letting it escape — an engine
    crash on a valid instance is itself an oracle violation."""
    request = build_request(instance, name, eps)
    try:
        schedule = spec.solve(instance, request, None)
    except Exception as exc:  # noqa: BLE001 - the whole point is capture
        return EngineRun(
            name=name,
            exact=spec.exact,
            guarantee=spec.guarantee(request),
            error=f"{type(exc).__name__}: {exc}",
        )
    return EngineRun(
        name=name,
        exact=spec.exact,
        guarantee=spec.guarantee(request),
        makespan=schedule.makespan,
        schedule=schedule,
    )


def run_engines(
    engines: Sequence[tuple[str, EngineSpec]],
    instance: Instance | QInstance,
    eps: float,
) -> list[EngineRun]:
    """Run every (name, spec) pair on *instance*."""
    return [run_engine(name, spec, instance, eps) for name, spec in engines]


def q_opt_exact(
    instance: QInstance, *, max_states: int = 2_000_000
) -> Fraction | None:
    """Exact ``Q || Cmax`` optimum as a :class:`~fractions.Fraction`, by
    pruned depth-first enumeration — the reference the uniform-machine
    guarantee checks need, since no registry engine solves ``q_cmax``
    exactly.  Returns ``None`` when the state budget runs out (the
    caller simply skips the check)."""
    t = instance.processing_times
    s = instance.speeds
    n, m = instance.num_jobs, instance.num_machines
    order = instance.sorted_jobs_desc()
    loads = [0] * m
    best: list[Fraction | None] = [None]
    states = [0]

    def span() -> Fraction:
        return max(Fraction(loads[i], s[i]) for i in range(m))

    def dfs(pos: int) -> bool:
        states[0] += 1
        if states[0] > max_states:
            return False
        current = span()
        if best[0] is not None and current >= best[0]:
            return True
        if pos == n:
            best[0] = current
            return True
        j = order[pos]
        seen: set[tuple[int, int]] = set()
        for i in range(m):
            key = (s[i], loads[i])
            if key in seen:
                continue  # same speed and load: interchangeable machines
            seen.add(key)
            loads[i] += t[j]
            ok = dfs(pos + 1)
            loads[i] -= t[j]
            if not ok:
                return False
        return True

    completed = dfs(0)
    return best[0] if completed else None


def _guarantee_reference(
    instance: Instance | QInstance,
    runs: Sequence[EngineRun],
    *,
    q_opt_max_states: int = 2_000_000,
) -> tuple[float | None, str]:
    """The best available stand-in for OPT: the exact engines' agreed
    makespan when any ran, else (small ``q_cmax``) the Fraction
    brute-force optimum, else the best makespan any engine achieved —
    an upper bound on OPT, so ``makespan <= g * ref`` stays a sound
    (if weaker) implication of ``makespan <= g * OPT``."""
    exact = [r.makespan for r in runs if r.ok and r.exact]
    if exact:
        return min(exact), "exact optimum"
    if isinstance(instance, QInstance) and instance.num_jobs <= 10:
        opt = q_opt_exact(instance, max_states=q_opt_max_states)
        if opt is not None:
            return float(opt), "brute-force Q optimum"
    achieved = [r.makespan for r in runs if r.ok]
    if achieved:
        return min(achieved), "best achieved makespan (upper bound on OPT)"
    return None, "no reference"


def cross_engine_violations(
    instance: Instance | QInstance,
    runs: Sequence[EngineRun],
    *,
    q_opt_max_states: int = 2_000_000,
) -> list[Violation]:
    """Oracle class 1: verification, exact agreement, and guarantees.

    Checks, in order: no engine raised; every returned schedule passes
    the semantic verifier; all exact engines report the same makespan;
    every engine's makespan respects its declared a-priori guarantee
    against the best exact (or lower-bound) reference available.
    """
    violations: list[Violation] = []
    for run in runs:
        if not run.ok:
            violations.append(
                Violation(
                    "cross_engine", "error", run.name,
                    f"engine raised on a valid instance: {run.error}",
                )
            )
            continue
        report = verify_schedule(run.schedule, instance)
        for problem in report.violations:
            violations.append(
                Violation("cross_engine", "verify", run.name, problem)
            )

    exact_runs = [r for r in runs if r.ok and r.exact]
    if len({r.makespan for r in exact_runs}) > 1:
        detail = ", ".join(
            f"{r.name}={r.makespan}" for r in sorted(
                exact_runs, key=lambda r: r.name
            )
        )
        for run in exact_runs:
            violations.append(
                Violation(
                    "cross_engine", "exact_disagreement", run.name,
                    f"exact engines disagree: {detail}",
                )
            )

    ref, ref_kind = _guarantee_reference(
        instance, runs, q_opt_max_states=q_opt_max_states
    )
    if ref is not None and ref > 0:
        for run in runs:
            if not run.ok:
                continue
            bound = run.guarantee * ref
            if run.makespan > bound * (1.0 + REL_TOL) + REL_TOL:
                violations.append(
                    Violation(
                        "cross_engine", "guarantee", run.name,
                        f"makespan {run.makespan} exceeds declared "
                        f"guarantee {run.guarantee:.6g} x {ref} "
                        f"({ref_kind}) = {bound:.6g}",
                    )
                )
    return violations


def _close(a: float, b: float) -> bool:
    """Equality up to :data:`REL_TOL` (exact for ints)."""
    if a == b:
        return True
    scale = max(abs(a), abs(b), 1.0)
    return abs(a - b) <= REL_TOL * scale


def metamorphic_violations(
    engines: Sequence[tuple[str, EngineSpec]],
    instance: Instance | QInstance,
    eps: float,
    *,
    rng,
    base_runs: Mapping[str, EngineRun] | None = None,
) -> list[Violation]:
    """Oracle class 2: metamorphic invariants.

    For each engine (skipping inapplicable ones per invariant):

    * *permutation* — shuffling the job vector leaves the makespan
      unchanged for every engine that is a function of the instance
      multiset (all but the :data:`ORDER_SENSITIVE` set);
    * *machine_permutation* — shuffling the ``q_cmax`` speed vector
      leaves the *optimum* unchanged (exact engines only: greedy ECT
      tie-breaking is machine-order dependent);
    * *scaling* — multiplying every time by an integer ``c`` multiplies
      the makespan by exactly ``c`` for exact and greedy engines;
    * *unit_speed_collapse* — engines that solve both variants must
      produce the identical makespan **and assignment** for a ``P``
      instance and its all-speeds-1 ``Q`` lift;
    * *extra_machine* — an additional (empty) machine never raises an
      exact engine's optimum.

    *rng* is a :class:`numpy.random.Generator`; the fuzzer derives it
    from the case seed so every transformation is replayable.
    """
    violations: list[Violation] = []
    is_q = isinstance(instance, QInstance)
    times = instance.processing_times
    n = len(times)

    if base_runs is None:
        base_runs = {
            run.name: run for run in run_engines(engines, instance, eps)
        }

    job_perm = [int(i) for i in rng.permutation(n)]
    permuted_times = tuple(times[i] for i in job_perm)
    machine_permuted: Instance | QInstance | None = None
    if is_q:
        # Jobs-only permutation for everyone: shuffling the *speed*
        # vector is only invariant for exact engines — greedy ECT
        # heuristics (Q-LPT) break completion-time ties by machine
        # index, so a speed shuffle can legitimately move the makespan
        # within the guarantee band.
        permuted: Instance | QInstance = QInstance(
            permuted_times, instance.speeds
        )
        machine_perm = [int(i) for i in rng.permutation(instance.num_machines)]
        machine_permuted = QInstance(
            times, tuple(instance.speeds[i] for i in machine_perm)
        )
        scaled: Instance | QInstance = QInstance(
            tuple(3 * t for t in times), instance.speeds
        )
    else:
        permuted = Instance(permuted_times, instance.num_machines)
        scaled = Instance(
            tuple(3 * t for t in times), instance.num_machines
        )

    for name, spec in engines:
        base = base_runs.get(name)
        if base is None or not base.ok:
            continue

        if name not in ORDER_SENSITIVE:
            run = run_engine(name, spec, permuted, eps)
            if not run.ok:
                violations.append(
                    Violation(
                        "metamorphic", "permutation", name,
                        f"engine raised on a permuted twin: {run.error}",
                    )
                )
            elif not _close(run.makespan, base.makespan):
                violations.append(
                    Violation(
                        "metamorphic", "permutation", name,
                        f"permuting the instance changed the makespan: "
                        f"{base.makespan} -> {run.makespan}",
                    )
                )

        if spec.exact and machine_permuted is not None:
            run = run_engine(name, spec, machine_permuted, eps)
            if not run.ok:
                violations.append(
                    Violation(
                        "metamorphic", "machine_permutation", name,
                        f"engine raised on a machine-permuted twin: "
                        f"{run.error}",
                    )
                )
            elif not _close(run.makespan, base.makespan):
                violations.append(
                    Violation(
                        "metamorphic", "machine_permutation", name,
                        f"permuting the machines changed the optimum: "
                        f"{base.makespan} -> {run.makespan}",
                    )
                )

        if spec.exact or name in SCALE_EQUIVARIANT_APPROX:
            run = run_engine(name, spec, scaled, eps)
            if not run.ok:
                violations.append(
                    Violation(
                        "metamorphic", "scaling", name,
                        f"engine raised on a scaled twin: {run.error}",
                    )
                )
            elif not _close(run.makespan, 3 * base.makespan):
                violations.append(
                    Violation(
                        "metamorphic", "scaling", name,
                        f"scaling times x3 scaled the makespan "
                        f"{base.makespan} -> {run.makespan} (expected "
                        f"{3 * base.makespan})",
                    )
                )

        if not is_q and Q_CMAX in spec.problems:
            lifted = QInstance.from_identical(instance)
            run = run_engine(name, spec, lifted, eps)
            if not run.ok:
                violations.append(
                    Violation(
                        "metamorphic", "unit_speed_collapse", name,
                        f"engine raised on the unit-speed lift: {run.error}",
                    )
                )
            elif (
                run.makespan != float(base.makespan)
                or run.schedule.assignment != base.schedule.assignment
            ):
                violations.append(
                    Violation(
                        "metamorphic", "unit_speed_collapse", name,
                        f"unit-speed q_cmax diverged from p_cmax: "
                        f"makespan {base.makespan} -> {run.makespan}, "
                        f"assignments "
                        f"{'equal' if run.schedule is not None and run.schedule.assignment == base.schedule.assignment else 'differ'}",
                    )
                )

        if spec.exact and not is_q:
            widened = Instance(times, instance.num_machines + 1)
            run = run_engine(name, spec, widened, eps)
            if not run.ok:
                violations.append(
                    Violation(
                        "metamorphic", "extra_machine", name,
                        f"engine raised with an extra machine: {run.error}",
                    )
                )
            elif run.makespan > base.makespan:
                violations.append(
                    Violation(
                        "metamorphic", "extra_machine", name,
                        f"adding a machine raised the optimum: "
                        f"{base.makespan} -> {run.makespan}",
                    )
                )
    return violations


def service_equivalence_violations(
    instance: Instance | QInstance,
    engine: str,
    eps: float,
    *,
    timeout: float = 60.0,
) -> list[Violation]:
    """Oracle class 3: the wire path equals the in-process path.

    Solves the same request twice — through
    :func:`repro.service.registry.solve_to_result` in-process, and
    through a real JSON-lines server on a loopback socket — and demands
    the two results serialize to identical bytes after
    :func:`repro.service.cache.canonicalize_result` strips the
    caller-specific fields (request id, elapsed, cached flag).

    *engine* must be a registry engine (the server resolves names
    itself, so scratch engines cannot ride this oracle).
    """
    import asyncio

    from repro.service.cache import canonicalize_result
    from repro.service.registry import solve_to_result
    from repro.service.server import SolveService, start_server, submit

    request = build_request(instance, engine, eps)
    try:
        inproc = solve_to_result(request)
    except Exception as exc:  # noqa: BLE001 - capture, don't crash the fuzzer
        return [
            Violation(
                "service", "error", engine,
                f"in-process solve raised: {type(exc).__name__}: {exc}",
            )
        ]

    async def round_trip():
        service = SolveService(max_workers=1)
        try:
            server = await start_server(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                return await submit("127.0.0.1", port, request, timeout=timeout)
            finally:
                server.close()
                await server.wait_closed()
        finally:
            await service.aclose()

    try:
        wire = asyncio.run(round_trip())
    except Exception as exc:  # noqa: BLE001
        return [
            Violation(
                "service", "error", engine,
                f"wire solve raised: {type(exc).__name__}: {exc}",
            )
        ]
    if not wire.ok:
        return [
            Violation(
                "service", "status", engine,
                f"wire solve answered status={wire.status!r}: {wire.error}",
            )
        ]
    canonical_inproc = canonicalize_result(request, inproc).to_json()
    canonical_wire = canonicalize_result(request, wire).to_json()
    if canonical_inproc != canonical_wire:
        return [
            Violation(
                "service", "fingerprint", engine,
                "wire result diverged from the in-process facade: "
                f"{canonical_wire} != {canonical_inproc}",
            )
        ]
    return []


def fidelity_violations(
    engines: Sequence[tuple[str, EngineSpec]],
    instance: Instance | QInstance,
    eps: float,
) -> list[Violation]:
    """Oracle class 4: every served PTAS answer is the table witness.

    On a ``p_cmax`` instance, each :data:`SERVED_PTAS_ENGINES` member of
    *engines* solves through its registry adapter under a tracer (the
    ``solve`` span reports the certified target) and must return the
    final target and the assignment of ``ptas(instance, eps,
    engine="table")`` — Alg. 2's full-table sweep, which the golden
    suite pins.  The cache, store and shard keys ignore how an answer
    was computed, so a served path with another DP witness would make
    the answer depend on which permuted twin was solved first.
    """
    served = [(name, spec) for name, spec in engines if name in SERVED_PTAS_ENGINES]
    if not served or isinstance(instance, QInstance):
        return []
    from repro.core.context import SolveContext
    from repro.core.ptas import ptas
    from repro.obs.trace import Tracer

    reference = ptas(instance, eps, engine="table")
    violations: list[Violation] = []
    for name, spec in served:
        tracer = Tracer()
        try:
            schedule = spec.solve(
                instance,
                build_request(instance, name, eps),
                SolveContext(tracer=tracer),
            )
        except Exception as exc:  # noqa: BLE001 - capture, don't crash the fuzzer
            violations.append(
                Violation(
                    "fidelity", "error", name,
                    f"engine raised: {type(exc).__name__}: {exc}",
                )
            )
            continue
        target = tracer.find("solve")[0].attrs.get("final_target")
        if target != reference.final_target:
            violations.append(
                Violation(
                    "fidelity", "final_target", name,
                    f"certified target {target} != the table engine's "
                    f"{reference.final_target}",
                )
            )
        elif schedule.assignment != reference.schedule.assignment:
            violations.append(
                Violation(
                    "fidelity", "assignment", name,
                    f"assignment {schedule.assignment} (makespan "
                    f"{schedule.makespan}) != the table engine's "
                    f"{reference.schedule.assignment} (makespan "
                    f"{reference.makespan})",
                )
            )
    return violations
