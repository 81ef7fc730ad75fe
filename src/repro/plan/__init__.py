"""Query plans: generation.

* :mod:`~repro.plan.plan` — the plan data structures (cache predicates,
  provider specifications, the rewritten query and the Datalog rendering);
* :mod:`~repro.plan.minimal` — generation of a ⊂-minimal plan from the
  optimized d-graph (Section IV);
* :mod:`~repro.plan.bindings` — delta-driven binding generation over the
  cache tables' value logs.

Plans are executed by the shared fixpoint runtime (:mod:`repro.runtime`),
driven for every strategy by the engine's runner
(:mod:`repro.engine.runner`).
"""

from repro.plan.minimal import MinimalPlanGenerator, generate_minimal_plan
from repro.plan.plan import CachePredicate, ProviderSpec, QueryPlan

__all__ = [
    "CachePredicate",
    "MinimalPlanGenerator",
    "ProviderSpec",
    "QueryPlan",
    "generate_minimal_plan",
]
