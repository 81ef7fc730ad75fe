"""Cost model and join graph over a plan's atoms.

The planner prices an access order by simulating cardinality propagation
through the plan's provider network: an estimate of how many rows each
cache will hold determines how many bindings (and therefore accesses) the
caches it feeds will enumerate.  Per-relation fanout, selectivity and
latency estimates come from the session's
:class:`~repro.optimizer.stats.StatisticsCollector` when enough
observations exist, and fall back to conservative cold-start defaults
otherwise, so a cold session is planned structurally-sanely and a warm one
is planned from evidence.

The :class:`JoinGraph` views the same plan relationally — nodes are the
plan's atoms (cache predicates), edges are shared variables — which is the
classical shape join-order optimizers walk; here it feeds connectivity
tie-breaks and the explain output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, Mapping, Optional, Tuple

from repro.query.terms import Variable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.optimizer.stats import StatisticsCollector
    from repro.plan.plan import CachePredicate, QueryPlan

#: Assumed rows-per-access before any observation exists.  Deliberately
#: conservative (neither "selective" nor "explosive"): with no evidence the
#: cost model must not invent an aggressive reordering.
COLD_FANOUT = 4.0
#: Observations of a relation required before its statistics outrank the
#: cold default.
MIN_OBSERVATIONS = 3
#: Weight of simulated latency against the unit access cost: one access
#: costs ``1 + latency * LATENCY_WEIGHT`` units, so access counts dominate
#: among zero-latency sources and latency differentiates otherwise.
LATENCY_WEIGHT = 10.0
#: Cardinality cap keeping the propagation free of float overflow.
CARDINALITY_CAP = 1e12


@dataclass(frozen=True)
class RelationEstimate:
    """The cost model's belief about one relation.

    Attributes:
        relation: the relation name.
        fanout: estimated rows returned per access.
        latency: estimated simulated latency per access (retry-stretched
            when observed).
        empty_rate: estimated fraction of accesses returning nothing.
        observed: True when the estimate is backed by enough observations,
            False when it is the cold-start default.
    """

    relation: str
    fanout: float
    latency: float
    empty_rate: float
    observed: bool

    @property
    def unit_cost(self) -> float:
        """Cost units charged per access to this relation."""
        return 1.0 + self.latency * LATENCY_WEIGHT


class CostModel:
    """Per-relation estimates from collected statistics plus cold defaults.

    Args:
        statistics: the session's collector (None: everything is cold).
        latency_of: ``relation -> latency`` oracle (typically
            ``SourceRegistry.latency_of``) used for cold relations.
        default_latency: latency charged when no oracle or wrapper latency
            is available.
        overrides: ``{relation: fanout}`` live mid-run observations that
            outrank both statistics and defaults (the adaptive re-planner
            feeds the fanouts it just witnessed).
    """

    def __init__(
        self,
        statistics: Optional["StatisticsCollector"] = None,
        latency_of: Optional[Callable[[str, float], float]] = None,
        default_latency: float = 0.0,
        cold_fanout: float = COLD_FANOUT,
        min_observations: int = MIN_OBSERVATIONS,
        overrides: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.statistics = statistics
        self.latency_of = latency_of
        self.default_latency = default_latency
        self.cold_fanout = cold_fanout
        self.min_observations = min_observations
        self.overrides = dict(overrides or {})

    def estimate(self, relation: str) -> RelationEstimate:
        stats = self.statistics.get(relation) if self.statistics is not None else None
        latency = self.default_latency
        if self.latency_of is not None:
            latency = self.latency_of(relation, self.default_latency)
        if relation in self.overrides:
            fanout = self.overrides[relation]
            empty_rate = stats.empty_rate if stats is not None else 0.0
            if stats is not None and stats.accesses:
                latency = stats.avg_latency or latency
            return RelationEstimate(relation, fanout, latency, empty_rate, observed=True)
        if stats is not None and stats.accesses >= self.min_observations:
            return RelationEstimate(
                relation,
                fanout=stats.rows_per_access,
                latency=stats.avg_latency or latency,
                empty_rate=stats.empty_rate,
                observed=True,
            )
        return RelationEstimate(
            relation, fanout=self.cold_fanout, latency=latency, empty_rate=0.0, observed=False
        )


class JoinGraph:
    """Nodes = the plan's cache predicates, edges = shared variables.

    Auxiliary caches (relevant relations not occurring in the query) have
    no atom in the rewritten query; they are connected through the
    provider network instead (an edge to each origin cache that feeds
    them), so the graph is the full data-flow connectivity of the plan.
    """

    def __init__(self, plan: "QueryPlan") -> None:
        self.plan = plan
        self._variables: Dict[str, FrozenSet[str]] = {}
        self._adjacency: Dict[str, Dict[str, Tuple[str, ...]]] = {}
        atoms = {
            atom.predicate: atom
            for atom in plan.rewritten_query.body
            if atom.predicate in plan.caches
        }
        names = [name for name in plan.caches if not plan.caches[name].is_artificial]
        for name in names:
            atom = atoms.get(name)
            variables = (
                frozenset(str(term) for term in atom.terms if isinstance(term, Variable))
                if atom is not None
                else frozenset()
            )
            self._variables[name] = variables
            self._adjacency.setdefault(name, {})
        for index, left in enumerate(names):
            for right in names[index + 1:]:
                shared = tuple(sorted(self._variables[left] & self._variables[right]))
                if shared:
                    self._connect(left, right, shared)
        # Provider-origin edges: data-flow connectivity for caches without
        # query atoms (and extra evidence of correlation for those with).
        for name in names:
            for provider in plan.caches[name].providers:
                for origin, _position in provider.origins:
                    if origin != name and origin in self._adjacency:
                        if name not in self._adjacency[origin]:
                            self._connect(origin, name, ())
        self.nodes: Tuple[str, ...] = tuple(sorted(self._adjacency))

    def _connect(self, left: str, right: str, shared: Tuple[str, ...]) -> None:
        self._adjacency[left][right] = shared
        self._adjacency[right][left] = shared

    def neighbors(self, name: str) -> Tuple[str, ...]:
        return tuple(sorted(self._adjacency.get(name, ())))

    def degree(self, name: str) -> int:
        return len(self._adjacency.get(name, ()))

    def edges(self) -> Tuple[Tuple[str, str, Tuple[str, ...]], ...]:
        seen = []
        for left in self.nodes:
            for right, shared in sorted(self._adjacency[left].items()):
                if left < right:
                    seen.append((left, right, shared))
        return tuple(seen)


class PlanCostEstimator:
    """Simulates cardinality propagation along one access order.

    Placing a group estimates, for each of its caches, how many accesses
    its providers enable (product over input positions of the provider's
    value estimate: sum of origin cardinalities for disjunctive providers,
    min for conjunctive ones) and how many rows those accesses return
    (``accesses × fanout``).  The estimates for a cache depend only on the
    *set* of groups placed before it — never on their relative order —
    which is what makes exact subset DP sound.
    """

    def __init__(self, plan: "QueryPlan", model: CostModel) -> None:
        self.plan = plan
        self.model = model

    def place(
        self, group: Tuple[str, ...], rows_state: Mapping[str, float]
    ) -> Tuple[float, Dict[str, float], Dict[str, float]]:
        """Estimate the marginal cost of placing ``group`` next.

        Returns ``(cost, new_rows_state, accesses_by_cache)``.  Two passes
        let the caches of a cyclic group (who provide for each other) see
        one another's first-pass cardinalities.
        """
        rows: Dict[str, float] = dict(rows_state)
        cost = 0.0
        accesses_by_cache: Dict[str, float] = {}
        for _ in range(2):
            cost = 0.0
            for name in group:
                cache = self.plan.caches[name]
                if cache.is_artificial:
                    facts = self.plan.constant_facts.get(cache.relation.name, ())
                    accesses_by_cache[name] = 0.0
                    rows[name] = float(len(facts) or 1)
                    continue
                estimate = self.model.estimate(cache.relation.name)
                accesses = self._accesses_estimate(cache, rows)
                accesses_by_cache[name] = accesses
                rows[name] = min(accesses * max(estimate.fanout, 0.0), CARDINALITY_CAP)
                cost += accesses * estimate.unit_cost
        return cost, rows, accesses_by_cache

    def _accesses_estimate(
        self, cache: "CachePredicate", rows: Mapping[str, float]
    ) -> float:
        if not cache.input_positions:
            return 1.0  # a free relation is accessed once, with the empty binding
        product = 1.0
        for provider in cache.providers:
            values = [rows.get(origin, 0.0) for origin, _position in provider.origins]
            if provider.conjunctive:
                count = min(values) if values else 0.0
            else:
                count = sum(values)
            product = min(product * max(count, 0.0), CARDINALITY_CAP)
        return product
