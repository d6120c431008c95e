"""The benchmark's own answer checker (independent of the program).

An answer passes when every job is assigned exactly once to an existing
machine, the reported makespan equals the makespan recomputed from the
assignment (exact :class:`fractions.Fraction` arithmetic on uniformly
related machines), and that makespan is not below the trivial lower
bound.  The makespan-to-bound ratio of each passing answer feeds the
``makespan_ratio`` metric.
"""

from __future__ import annotations

from fractions import Fraction


def lower_bound(times, machines: int, speeds=()) -> Fraction:
    """P: max(ceil(sum p / m), max p).  Q: max(sum p / sum s, max p / max s)."""
    if speeds:
        return max(Fraction(sum(times), sum(speeds)), Fraction(max(times), max(speeds)))
    return Fraction(max(-(-sum(times) // machines), max(times)))


def check_answer(request: dict, answer: dict) -> tuple[bool, str, float]:
    """``(passed, reason, makespan / lower bound)`` for one answer."""
    times = request["times"]
    machines = request["machines"]
    speeds = request.get("speeds") or ()
    if answer.get("status") != "ok":
        return False, f"status {answer.get('status')!r}: {answer.get('error')}", 0.0
    assignment = answer.get("assignment")
    if not isinstance(assignment, list) or len(assignment) != machines:
        return False, "assignment does not have one row per machine", 0.0
    seen = [False] * len(times)
    loads = []
    for row in assignment:
        load = 0
        for job in row:
            if not isinstance(job, int) or not 0 <= job < len(times) or seen[job]:
                return False, f"job {job!r} is unknown or assigned twice", 0.0
            seen[job] = True
            load += times[job]
        loads.append(load)
    if not all(seen):
        return False, "some job is never assigned", 0.0
    if speeds:
        makespan = max(Fraction(load, s) for load, s in zip(loads, speeds))
    else:
        makespan = Fraction(max(loads))
    reported = answer.get("makespan")
    if not isinstance(reported, (int, float)) or float(makespan) != reported:
        return False, f"reported makespan {reported!r}, recomputed {makespan}", 0.0
    bound = lower_bound(times, machines, speeds)
    if makespan < bound:
        return False, f"makespan {makespan} below the lower bound {bound}", 0.0
    return True, "", float(makespan / bound)
