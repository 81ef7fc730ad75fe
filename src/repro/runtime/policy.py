"""Pluggable scheduling policies: what is offered to the dispatcher, when.

A policy owns the run's cache state and tells the
:class:`~repro.runtime.kernel.FixpointKernel` which accesses are newly
enabled at every offer pass.  The three strategies of the paper are three
policies over the same kernel:

* :class:`EagerAllRelations` — the naive baseline of Figure 1: every
  relation of the schema is offered every binding drawn from the value
  pool ``B``, relevance and meta-caches be damned;
* :class:`OrderedFastFail` — Section IV: one phase per ordering position
  of the ⊂-minimal plan, with the early non-emptiness test between phases
  and meta-cache dedup of repeated accesses;
* :class:`SimulatedParallel` — Section V: every cache of the plan is
  offered eagerly to the discrete-event simulation of parallel wrappers.

Every policy runs either on its own simulated dispatcher
(``concurrency="simulated"``) or on the asyncio event loop
(``concurrency="async"``); see :meth:`SchedulingPolicy.make_dispatcher`.

The plan-driven policies share the delta-driven binding generators of
:mod:`repro.plan.bindings`: each offer pass enumerates only the bindings
enabled by values that arrived since the previous pass, so a pass costs
time proportional to the *new* values, not the full provider cross
product.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.plan.bindings import CacheBindingGenerator, DeltaProduct, initialize_plan_caches
from repro.runtime.dispatch import (
    AsyncDispatcher,
    Dispatcher,
    SequentialDispatcher,
    SimulatedParallelDispatcher,
)
from repro.runtime.kernel import AccessBudget, AccessRequest, Completion

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.domains import AbstractDomain
    from repro.model.schema import RelationSchema, Schema
    from repro.optimizer.planner import AccessOptimizer
    from repro.plan.plan import CachePredicate, QueryPlan
    from repro.query.conjunctive import ConjunctiveQuery
    from repro.sources.cache import CacheDatabase, MetaCache
    from repro.sources.log import AccessLog
    from repro.sources.wrapper import SourceRegistry

Row = Tuple[object, ...]

#: Emit callback handed to :meth:`SchedulingPolicy.offer`.
Emit = Callable[[AccessRequest], None]


class SchedulingPolicy(abc.ABC):
    """One way of deciding what the kernel dispatches, phase by phase."""

    #: What the kernel does when the access budget refuses work that is
    #: still pending: ``"raise"`` (sequential strategies) or ``"stop"``
    #: (distillation keeps the answers derived so far).
    budget_action: str = "stop"

    #: When True, dispatchers *claim* each binding on the relation's
    #: meta-cache before touching the source, so an access already made —
    #: or in flight on behalf of a concurrent execution of the session —
    #: is served locally instead of repeated.
    dedup_accesses: bool = True

    #: ``"simulated"`` runs on the policy's own simulated clock; ``"async"``
    #: dispatches every access as a task on the running event loop.
    concurrency: str = "simulated"
    #: In-flight task bound of an ``"async"`` run.
    max_in_flight: int = 64

    #: The ordering position at which the early non-emptiness test proved
    #: the answer empty (fast-failing policy only).
    failed_at: Optional[int] = None

    def bind_dispatcher(self, dispatcher: Dispatcher) -> None:
        """Called by the kernel once the dispatcher exists (for gating)."""
        self.dispatcher = dispatcher
        dispatcher.gate = self

    def make_dispatcher(
        self, registry: "SourceRegistry", log: "AccessLog", budget: AccessBudget
    ) -> Dispatcher:
        """Build the dispatcher this policy runs on."""
        if self.concurrency == "async":
            return AsyncDispatcher(registry, log, budget, max_in_flight=self.max_in_flight)
        return self.simulated_dispatcher(registry, log, budget)

    @abc.abstractmethod
    def simulated_dispatcher(
        self, registry: "SourceRegistry", log: "AccessLog", budget: AccessBudget
    ) -> Dispatcher:
        """The dispatcher of a ``concurrency="simulated"`` run."""

    def begin(self) -> bool:
        """Enter the first phase; False aborts before any work."""
        return True

    def advance(self) -> bool:
        """Enter the next phase; False ends the run."""
        return False

    @abc.abstractmethod
    def offer(self, emit: Emit) -> bool:
        """One offer pass: emit the newly enabled accesses of the phase.

        Accesses answerable from the session meta-cache are served locally
        instead of emitted; returns True when such local serving changed
        the cache state (enqueued work cannot enable further bindings, so
        it does not count), in which case the kernel offers again.
        """

    @abc.abstractmethod
    def absorb(self, completion: Completion) -> None:
        """Fold one completion's rows into the policy's cache state."""

    @abc.abstractmethod
    def evaluate(self) -> FrozenSet[Row]:
        """The query's answers over the current cache state."""

    def meta_for(self, relation: str) -> Optional["MetaCache"]:
        """The meta-cache accesses of ``relation`` are recorded in (None
        disables both recording and dedup for the relation)."""
        return None

    def budget_message(self) -> str:
        return "execution exceeded the access budget"


# ------------------------------------------------------------------------------
class _ValuePool:
    """The naive pool ``B``: per-domain membership sets plus value logs."""

    def __init__(self) -> None:
        self.sets: Dict["AbstractDomain", Set[object]] = {}
        self._logs: Dict["AbstractDomain", List[object]] = {}

    def log(self, domain_: "AbstractDomain") -> List[object]:
        """The live, append-only log of one domain (created on first use)."""
        return self._logs.setdefault(domain_, [])

    def add(self, domain_: "AbstractDomain", value: object) -> bool:
        values = self.sets.setdefault(domain_, set())
        if value in values:
            return False
        values.add(value)
        self.log(domain_).append(value)
        return True


class EagerAllRelations(SchedulingPolicy):
    """The naive all-relations extraction of Figure 1.

    Offers every relation of the schema every binding drawn from the value
    pool ``B`` (per abstract domain), pours every retrieved value back into
    the pool, and finally evaluates the query over the per-relation cache.
    Deliberately ignores relevance and the session meta-caches: it
    reproduces the paper's baseline, which is what the benchmarks compare
    against.
    """

    budget_action = "raise"
    dedup_accesses = False

    def __init__(
        self,
        schema: "Schema",
        query: "ConjunctiveQuery",
        optimizer: Optional["AccessOptimizer"] = None,
        concurrency: str = "simulated",
        max_in_flight: int = 64,
    ) -> None:
        self.schema = schema
        self.query = query
        self.optimizer = optimizer
        self.concurrency = concurrency
        self.max_in_flight = max_in_flight
        # An unordered policy cannot reorder phases, but it can dispatch
        # cheap, productive sources first: a fixed cost-ranked relation
        # iteration order.  The access *set* is order-independent (the
        # naive fixpoint enumerates every pool combination either way).
        self._relation_rank: Dict[str, object] = (
            optimizer.relation_priority() if optimizer is not None else {}
        )
        self.cache: Dict[str, Set[Row]] = {relation.name: set() for relation in schema}
        self.pool = _ValuePool()
        self._free_accessed: Set[str] = set()
        # One delta product per relation over the logs of its input
        # domains: each pass enumerates only the bindings not produced
        # before.
        self._products: Dict[str, DeltaProduct] = {
            relation.name: DeltaProduct(
                [self.pool.log(domain_) for domain_ in relation.input_domains]
            )
            for relation in schema
        }
        # The pool starts from the constants of the query, typed by the
        # abstract domains of the positions where they occur.
        for constant, domains in query.constant_domains(schema).items():
            for domain_ in domains:
                self.pool.add(domain_, constant.value)

    def simulated_dispatcher(
        self, registry: "SourceRegistry", log: "AccessLog", budget: AccessBudget
    ) -> Dispatcher:
        return SequentialDispatcher(registry, log, budget)

    def offer(self, emit: Emit) -> bool:
        excluded = self.dispatcher.resilience.excluded
        relations = list(self.schema)
        if self._relation_rank:
            default_rank = (float("inf"), 0.0)
            relations.sort(
                key=lambda r: (self._relation_rank.get(r.name, default_rank), r.name)
            )
        for relation in relations:
            if excluded(relation.name):
                # Open breaker / dead source: leave the relation's delta
                # unconsumed so a half-open recovery can resume it.
                continue
            for binding in self._fresh_bindings(relation):
                emit(AccessRequest(relation.name, relation.name, binding))
        return False  # nothing is ever served locally

    def _fresh_bindings(self, relation: "RelationSchema"):
        if not relation.input_domains:
            # A free relation is accessed exactly once, with the empty binding.
            if relation.name in self._free_accessed:
                return iter(())
            self._free_accessed.add(relation.name)
            return iter(((),))
        return self._products[relation.name].fresh()

    def absorb(self, completion: Completion) -> None:
        rows = completion.rows
        if not rows:
            return
        relation = self.schema[completion.request.relation]
        self.cache[relation.name].update(rows)
        # Rows are poured in sorted order so the pool logs — and therefore
        # the binding enumeration order — never depend on set iteration
        # order.
        for row in sorted(rows, key=repr):
            for position, value in enumerate(row):
                self.pool.add(relation.domain_at(position), value)

    def evaluate(self) -> FrozenSet[Row]:
        return self.query.evaluate(self.cache)

    def budget_message(self) -> str:
        return (
            "naive evaluation exceeded the access budget of "
            f"{self.dispatcher.budget.limit}"
        )


# ------------------------------------------------------------------------------
class PlanPolicy(SchedulingPolicy):
    """Shared machinery of the plan-driven policies.

    Owns the plan's cache tables and delta-driven binding generators in a
    (possibly session-shared) :class:`~repro.sources.cache.CacheDatabase`,
    serves meta-cache hits at offer time, absorbs completions into the
    cache tables, and evaluates the rewritten query over them.

    When an :class:`~repro.optimizer.planner.AccessOptimizer` is attached,
    the policy follows its (cost-based) access order instead of the plan's
    structural positions, feeds it every observed completion, and exposes
    its re-planning count to the kernel.  Any admissible order reaches the
    same least fixpoint — the order decides *when* accesses run, never
    *whether*.
    """

    def __init__(
        self,
        plan: "QueryPlan",
        cache_db: "CacheDatabase",
        optimizer: Optional["AccessOptimizer"] = None,
    ) -> None:
        self.plan = plan
        self.cache_db = cache_db
        self.optimizer = optimizer
        self.generators: Dict[str, CacheBindingGenerator] = initialize_plan_caches(
            plan, cache_db
        )

    @property
    def optimizer_replans(self) -> int:
        """Adaptive re-planning events this run (0 without an optimizer)."""
        return self.optimizer.replans if self.optimizer is not None else 0

    def _order_groups(self) -> List[List["CachePredicate"]]:
        """The access order as cache groups: the optimizer's when present,
        the plan's structural positions otherwise (same caches, same
        iteration order as ``plan.caches_at`` — byte-identical offers)."""
        if self.optimizer is not None:
            return [
                [self.plan.caches[name] for name in group]
                for group in self.optimizer.order.groups
            ]
        return [self.plan.caches_at(position) for position in self.plan.positions()]

    def _offer_caches(
        self,
        caches: List["CachePredicate"],
        emit: Emit,
        serve_from_meta: bool = True,
    ) -> bool:
        """Offer the fresh bindings of the given caches; True when a
        meta-cache hit changed some cache's contents.

        Caches over a relation whose circuit breaker is open (or whose
        source is known permanently down) are skipped *without consuming
        their binding deltas*: if the breaker half-opens later in the run
        (or a session-level retry succeeds), the pending bindings are
        offered then; otherwise the run ends incomplete with the relation
        in ``failed_relations``.
        """
        changed = False
        excluded = self.dispatcher.resilience.excluded
        for cache in caches:
            if excluded(cache.relation.name):
                continue
            fresh = self.generators[cache.name].fresh_bindings()
            meta = table = None
            relation_name = cache.relation.name
            # The generator yields each binding of this cache exactly once
            # over the whole run, so no dedup set is needed here.
            for binding in fresh:
                if serve_from_meta:
                    if meta is None:
                        meta = self.cache_db.meta_cache(cache.relation)
                        table = self.cache_db.cache(cache.name)
                    rows = meta.lookup(binding)
                    if rows is not None:
                        if table.add_all(rows):
                            changed = True
                        continue
                emit(AccessRequest(cache.name, relation_name, binding))
        return changed

    def absorb(self, completion: Completion) -> None:
        self.cache_db.cache(completion.request.target).add_all(completion.rows)
        if self.optimizer is not None and completion.counted:
            self.optimizer.note(completion.request.relation, len(completion.rows))

    def evaluate(self) -> FrozenSet[Row]:
        return self.plan.rewritten_query.evaluate(self.cache_db.contents())

    def evaluate_delta(self) -> Set[Row]:
        """Answers newly derivable since the previous delta call.

        Backed by the semi-naive evaluator over the cache tables' row logs
        (:mod:`repro.query.incremental`), so a call costs time proportional
        to the rows absorbed since the last one — this is what the kernel's
        intermediate (streaming) answer checks run instead of a full
        re-evaluation of the rewritten query.
        """
        if getattr(self, "_incremental", None) is None:
            from repro.query.incremental import IncrementalAnswerEvaluator

            self._incremental = IncrementalAnswerEvaluator(
                self.plan.rewritten_query, self.cache_db
            )
        return self._incremental.delta_answers()

    def meta_for(self, relation: str) -> Optional["MetaCache"]:
        return self.cache_db.meta_cache(self.plan.schema[relation])

    def _plan_relations(self) -> List[str]:
        """Accessed relations of the plan, in cache declaration order."""
        names: List[str] = []
        for cache in self.plan.caches.values():
            if cache.is_artificial or cache.relation.name in names:
                continue
            names.append(cache.relation.name)
        return names


class OrderedFastFail(PlanPolicy):
    """Section IV: populate positions in order, failing fast in between.

    One kernel phase per ordering position.  Before each phase the
    sub-query over the already-populated caches is checked for
    satisfiability; if it fails, the answer is certainly empty and the run
    stops without further accesses (``failed_at`` records the position).
    Within a phase, only the caches of the current position are offered.
    """

    budget_action = "raise"

    def __init__(
        self,
        plan: "QueryPlan",
        cache_db: "CacheDatabase",
        fast_fail: bool = True,
        use_meta_cache: bool = True,
        optimizer: Optional["AccessOptimizer"] = None,
        concurrency: str = "simulated",
        max_in_flight: int = 64,
    ) -> None:
        super().__init__(plan, cache_db, optimizer=optimizer)
        self.fast_fail = fast_fail
        self.use_meta_cache = use_meta_cache
        self.concurrency = concurrency
        self.max_in_flight = max_in_flight
        self.dedup_accesses = use_meta_cache
        self._groups = self._order_groups()
        # Reported positions: the plan's structural position values by
        # default (back-compat for ``failed_at``), 1..k along a cost order.
        self._position_labels = (
            plan.positions()
            if optimizer is None
            else list(range(1, len(self._groups) + 1))
        )
        self._rebuild_ranks()
        self._index = -1

    def _rebuild_ranks(self) -> None:
        self._rank: Dict[str, int] = {
            cache.name: rank
            for rank, group in enumerate(self._groups)
            for cache in group
        }

    def simulated_dispatcher(
        self, registry: "SourceRegistry", log: "AccessLog", budget: AccessBudget
    ) -> Dispatcher:
        return SequentialDispatcher(registry, log, budget)

    def begin(self) -> bool:
        return self.advance()

    def advance(self) -> bool:
        self._index += 1
        if (
            self.optimizer is not None
            and 0 < self._index < len(self._groups)
            and self.optimizer.maybe_replan(
                tuple(
                    tuple(cache.name for cache in group)
                    for group in self._groups[: self._index]
                )
            )
        ):
            # Observed cardinalities contradicted the estimates: the
            # remaining phases were re-ranked (the executed prefix is
            # preserved by construction).
            self._groups = self._order_groups()
            self._rebuild_ranks()
        if self._index >= len(self._groups):
            return False
        if self.fast_fail and not self._prefix_satisfiable(self._index):
            self.failed_at = self._position_labels[self._index]
            return False
        return True

    def offer(self, emit: Emit) -> bool:
        caches = [
            cache
            for cache in self._groups[self._index]
            if not cache.is_artificial
        ]
        return self._offer_caches(caches, emit, serve_from_meta=self.use_meta_cache)

    def evaluate(self) -> FrozenSet[Row]:
        if self.failed_at is not None:
            return frozenset()
        return super().evaluate()

    def budget_message(self) -> str:
        return (
            "plan execution exceeded the access budget of "
            f"{self.dispatcher.budget.limit}"
        )

    def _prefix_satisfiable(self, index: int) -> bool:
        """Early non-emptiness test over the already-populated caches.

        Evaluates the sub-conjunction of the rewritten query restricted to
        the atoms whose cache was populated in a phase strictly before
        ``index`` (along the active access order); if it is unsatisfiable,
        the whole query is certainly empty.
        """
        prefix_atoms = []
        for atom in self.plan.rewritten_query.body:
            rank = self._rank.get(atom.predicate)
            if rank is not None and rank < index:
                prefix_atoms.append(atom)
        if not prefix_atoms:
            return True
        from repro.query.evaluate import conjunction_is_satisfiable

        return conjunction_is_satisfiable(prefix_atoms, self.cache_db.contents())


class SimulatedParallel(PlanPolicy):
    """Section V: offer every cache eagerly, dispatch on the event-heap
    simulation of parallel wrappers — or, with ``concurrency="async"``,
    as asyncio tasks with a bounded in-flight window, where slow sources
    genuinely overlap.  The access *set* is the plan's least fixpoint
    either way; only the clock differs."""

    budget_action = "stop"

    def __init__(
        self,
        plan: "QueryPlan",
        cache_db: "CacheDatabase",
        default_latency: float = 0.01,
        queue_capacity: int = 64,
        respect_ordering: bool = False,
        optimizer: Optional["AccessOptimizer"] = None,
        concurrency: str = "simulated",
        max_in_flight: int = 64,
    ) -> None:
        super().__init__(plan, cache_db, optimizer=optimizer)
        self.default_latency = default_latency
        self.queue_capacity = queue_capacity
        self.respect_ordering = respect_ordering
        self.concurrency = concurrency
        self.max_in_flight = max_in_flight
        self._refresh_order()

    def _refresh_order(self) -> None:
        """(Re)materialize the offer order and phase ranks from the
        optimizer's current access order (structural when absent)."""
        if self.optimizer is None:
            self._offer_sequence = list(self.plan.caches.values())
            self._cache_rank = {
                cache.name: cache.position for cache in self.plan.caches.values()
            }
        else:
            groups = self.optimizer.order.groups
            self._offer_sequence = [
                self.plan.caches[name] for group in groups for name in group
            ]
            self._cache_rank = {
                name: rank for rank, group in enumerate(groups, start=1) for name in group
            }

    def simulated_dispatcher(
        self, registry: "SourceRegistry", log: "AccessLog", budget: AccessBudget
    ) -> Dispatcher:
        return SimulatedParallelDispatcher(
            registry,
            log,
            budget,
            self._plan_relations(),
            default_latency=self.default_latency,
            queue_capacity=self.queue_capacity,
        )

    def offer(self, emit: Emit) -> bool:
        if self.optimizer is not None and self.optimizer.maybe_replan(()):
            # Eager offers have no executed-prefix notion: a divergence
            # re-ranks the whole dispatch order (the access *set* — the
            # plan's least fixpoint — is order-independent).
            self._refresh_order()
        caches = [
            cache
            for cache in self._offer_sequence
            if not cache.is_artificial and not self._held_back(cache)
        ]
        return self._offer_caches(caches, emit)

    def _held_back(self, cache: "CachePredicate") -> bool:
        """With ``respect_ordering``, a cache's accesses are only offered
        once every cache of a strictly smaller phase (along the active
        access order) has drained."""
        if not self.respect_ordering:
            return False
        rank = self._cache_rank[cache.name]
        for other in self.plan.caches.values():
            if other.is_artificial or self._cache_rank[other.name] >= rank:
                continue
            if self.dispatcher.relation_active(other.relation.name):
                return True
        return False
