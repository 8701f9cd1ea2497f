"""The correctness oracle: reference answers from an in-process twin.

The oracle builds the same federation as the daemon (same seeds, same
public API) and answers every generated request on a cold cache:
``estimate_plan`` for ``/estimate`` and ``explain`` for ``/optimize``,
each after ``invalidate_cache()``.  It also simulates the actual run
time, with the engine's ``execute`` or ``IntelliSphere.run``, which the
accuracy metric compares the served estimate against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from federation import build_federation
from workloads import Request


@dataclass(frozen=True)
class Reference:
    """What a correct server answers, and what the query really costs."""

    expected: Tuple  # compared field by field with the served answer
    #: Simulated elapsed seconds; ``None`` when the simulator cannot
    #: observe the placement (it spans engines, so ``run`` reports the
    #: estimates themselves).
    actual: Optional[float]
    lookups: int  # estimate-cache lookups the request makes on a cold cache


def served(request: Request, answer: dict) -> Tuple:
    """The fields of a served answer that must equal the reference."""
    if request.route == "/optimize":
        return (answer.get("location"), answer.get("seconds"))
    return (answer.get("operator"), answer.get("approach"), answer.get("seconds"))


class Oracle:
    def __init__(self) -> None:
        from repro import parse_select

        self._parse = parse_select
        self.sphere = build_federation()
        self._references: Dict[Request, Reference] = {}

    def reference(self, request: Request) -> Reference:
        """The reference for one request (memoized: a pure function)."""
        known = self._references.get(request)
        if known is None:
            known = self._references[request] = self._compute(request)
        return known

    def _compute(self, request: Request) -> Reference:
        sphere = self.sphere
        cache = sphere.costing.cache
        sphere.costing.invalidate_cache()
        before = cache.hits + cache.misses
        if request.route == "/optimize":
            best = sphere.explain(request.sql).best
            lookups = cache.hits + cache.misses - before
            result = sphere.run(request.sql)
            observed = any(
                step.observed_seconds != step.estimated_seconds
                for step in result.steps
            )
            actual = result.observed_seconds if observed else None
            return Reference((best.location, best.seconds), actual, lookups)
        plan = self._parse(request.sql)
        estimate = sphere.costing.estimate_plan(request.system, plan, sphere.catalog)
        engine = sphere.costing.system(request.system)
        return Reference(
            (estimate.operator.value, estimate.approach.value, estimate.seconds),
            engine.execute(plan).elapsed_seconds,
            cache.hits + cache.misses - before,
        )
