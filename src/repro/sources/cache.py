"""The cache database: cache tables, meta-caches and access tables.

Toorjah's data-extraction layer (Figure 5 of the paper) keeps three kinds of
auxiliary structures:

* **cache tables** — one physical table per cache predicate of the plan (one
  cache per occurrence of a relation in the query, plus one per relevant
  relation not occurring in the query), holding the tuples extracted so far;
* **meta-caches** — one per relation, defined as the union of all the caches
  over that relation; before accessing a relation, the runtime consults the
  meta-cache to check whether the access tuple was already used (possibly by
  another occurrence), in which case the extraction is read from the cache
  instead of hitting the source again;
* **access tables** — one per relation with limitations, storing the access
  tuples that are ready to be shipped to the corresponding wrapper (used by
  the distillation scheduler).

Every structure here is *append-only* and indexed for the runtime's hot
paths: cache tables maintain per-position value indexes (set + insertion
log), so reading the distinct values at an argument position — the operation
behind every domain-provider evaluation — is O(1) instead of a scan over all
rows, and the logs let the binding generators consume only the values that
appeared since their last visit (delta-driven binding generation, see
:mod:`repro.plan.bindings`).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import (
    Deque,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.model.schema import RelationSchema
from repro.sources.access import AccessTuple
from repro.sources.store import (
    CacheStore,
    ClaimStatus,
    MemoryCacheStore,
    RelationRecords,
)

Row = Tuple[object, ...]


class CacheTable:
    """The extension of one cache predicate.

    A cache table remembers, besides its tuples, which relation and which
    occurrence of the query it caches, and at which ordering position it must
    be populated.  It maintains one value index per argument position,
    updated on insertion: a set of the distinct values seen at that position
    (for O(1) reads and membership tests) and an append-only log of the same
    values in arrival order (so binding generators can read just the values
    added since a watermark).
    """

    def __init__(
        self,
        name: str,
        relation: RelationSchema,
        position: int = 0,
    ) -> None:
        self.name = name
        self.relation = relation
        self.position = position
        self._rows: Set[Row] = set()
        arity = relation.arity
        self._value_sets: List[Set[object]] = [set() for _ in range(arity)]
        self._value_logs: List[List[object]] = [[] for _ in range(arity)]
        self._row_log: List[Row] = []
        # position-group hash indexes, maintained lazily from the row log:
        # {positions: [{key: [rows]}, watermark-into-row-log]}
        self._indexes: Dict[Tuple[int, ...], List[object]] = {}

    # -- mutation -----------------------------------------------------------
    def add(self, row: Row) -> bool:
        row = tuple(row)
        if row in self._rows:
            return False
        self._rows.add(row)
        self._row_log.append(row)
        while len(self._value_sets) < len(row):  # tolerate over-arity rows
            self._value_sets.append(set())
            self._value_logs.append([])
        for position, value in enumerate(row):
            values = self._value_sets[position]
            if value not in values:
                values.add(value)
                self._value_logs[position].append(value)
        return True

    def add_all(self, rows: Iterable[Row]) -> int:
        return sum(1 for row in rows if self.add(row))

    # -- inspection ----------------------------------------------------------
    def rows(self) -> FrozenSet[Row]:
        return frozenset(self._rows)

    def values_at(self, position: int) -> Set[object]:
        """Distinct values at one argument position.

        Returns the live index set in O(1); callers must treat it as
        read-only (it keeps growing as rows are added).
        """
        return self._value_sets[position]

    def value_log(self, position: int) -> List[object]:
        """Append-only log of the distinct values at one position, in arrival order.

        The returned list is live: new values are appended as rows arrive,
        and existing entries never move, so ``value_log(p)[mark:]`` is
        exactly the values that appeared since a caller's watermark ``mark``.
        """
        return self._value_logs[position]

    def value_count(self, position: int) -> int:
        return len(self._value_logs[position])

    def row_log(self) -> List[Row]:
        """Append-only log of the distinct rows, in arrival order.

        The returned list is live (rows are appended as they arrive, and
        existing entries never move), so ``row_log()[mark:]`` is exactly the
        rows added since a caller's watermark ``mark`` — the hook behind the
        incremental (semi-naive) answer checks of the runtime kernel.
        """
        return self._row_log

    def index_for(self, positions: Tuple[int, ...]) -> Dict[Tuple[object, ...], List[Row]]:
        """Hash index ``{key: rows}`` grouping rows by the given positions.

        Indexes persist across calls and are brought up to date
        incrementally from the row log, so repeated probes cost O(new rows)
        instead of a rebuild per evaluation.  Rows too short for the
        requested positions are skipped (over-arity tolerance cuts both
        ways).  Callers must treat the returned buckets as read-only.
        """
        entry = self._indexes.get(positions)
        if entry is None:
            entry = [{}, 0]
            self._indexes[positions] = entry
        index: Dict[Tuple[object, ...], List[Row]] = entry[0]
        mark: int = entry[1]
        log = self._row_log
        if mark < len(log):
            width = max(positions) + 1 if positions else 0
            for i in range(mark, len(log)):
                row = log[i]
                if len(row) < width:
                    continue
                key = tuple(row[p] for p in positions)
                bucket = index.get(key)
                if bucket is None:
                    index[key] = [row]
                else:
                    bucket.append(row)
            entry[1] = len(log)
        return index

    def probe(self, positions: Tuple[int, ...], key: Tuple[object, ...]) -> Sequence[Row]:
        """Rows whose values at ``positions`` equal ``key`` (O(1) + new-row upkeep)."""
        return self.index_for(positions).get(key, ())

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, row: object) -> bool:
        return row in self._rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CacheTable({self.name!r}, {len(self)} rows)"


class MetaCache:
    """Per-relation record of the accesses already made and their results.

    The meta-cache is "a sort of cache defined as the union of all the caches
    on that relation" (Section IV): it maps every access tuple already used
    against the relation to the rows that the source returned, so that a
    repeated access (possibly issued on behalf of a different occurrence of
    the relation) can be answered locally at no cost.

    The union of all extracted rows is maintained incrementally on
    :meth:`record`, so :meth:`all_rows` is O(1) amortized instead of a union
    over every recorded access.  The union is append-only: re-recording a
    binding never removes rows from it (sources are assumed immutable within
    a session, so a repeated access returns the same rows anyway).

    Meta-caches are shared between the concurrent executions of an engine
    session, so every method is thread-safe, and the *claim* protocol
    extends the "never repeat an access" invariant across threads: a
    dispatcher :meth:`claim`\\ s a binding before touching the source.  The
    first claimant owns the access (and must :meth:`record` or
    :meth:`abandon` it); later claimants block until it is fulfilled and
    read the rows for free.  An owner never holds a claim while waiting on
    another, so claim chains always resolve.

    The binding→rows records themselves live in a pluggable
    :class:`~repro.sources.store.RelationRecords` handle (see
    :mod:`repro.sources.store`): the default in-memory handle reproduces the
    historical dictionary exactly, while a persistent handle makes the
    "never repeat an access" domain survive restarts and extends the claim
    protocol across processes.  Because a bounded store may *evict* records,
    a lookup miss no longer implies the access was never performed — it only
    means it must be (re-)performed, which the claim gate then arbitrates.
    The row union stays in-process and append-only regardless of the store.
    """

    def __init__(
        self,
        relation: RelationSchema,
        records: Optional[RelationRecords] = None,
        claim_poll_interval: float = 0.01,
    ) -> None:
        self.relation = relation
        if records is None:
            records = MemoryCacheStore().records(relation)
        self._records = records
        self._claim_poll_interval = claim_poll_interval
        self._union: Set[Row] = set()
        self._union_view: Optional[FrozenSet[Row]] = None
        self._inflight: Set[Tuple[object, ...]] = set()
        self._cond = threading.Condition()
        #: Accesses answered locally instead of hitting the source (offer
        #: passes and claim hits alike); feeds the session hit-rate stats.
        self.hits = 0

    def _absorb_union(self, rows: FrozenSet[Row]) -> None:
        """Fold served rows into the union (no-op when already absorbed).

        Must be called with the condition held.  Needed because a persistent
        store can serve rows recorded by an earlier process, which never
        passed through this instance's :meth:`record`.
        """
        if not rows <= self._union:
            self._union.update(rows)
            self._union_view = None

    def has_access(self, binding: Tuple[object, ...]) -> bool:
        with self._cond:
            return self._records.contains(tuple(binding))

    def record(self, binding: Tuple[object, ...], rows: FrozenSet[Row]) -> None:
        """Record one performed access, fulfilling any claim on its binding."""
        rows = frozenset(rows)
        binding = tuple(binding)
        # The store write also releases any cross-process claim, so remote
        # waiters see the rows no later than local ones.
        self._records.put(binding, rows)
        with self._cond:
            self._absorb_union(rows)
            if binding in self._inflight:
                self._inflight.discard(binding)
                self._cond.notify_all()

    def lookup(self, binding: Tuple[object, ...]) -> Optional[FrozenSet[Row]]:
        """The recorded rows for a binding, or None — counting a hit."""
        with self._cond:
            rows = self._records.get(tuple(binding))
            if rows is not None:
                self.hits += 1
                self._absorb_union(rows)
            return rows

    def claim(self, binding: Tuple[object, ...]) -> Optional[FrozenSet[Row]]:
        """Atomically take ownership of one access, or be served its rows.

        Returns None when the caller now owns the access (it must call
        :meth:`record` with the retrieved rows, or :meth:`abandon` on
        failure); returns the rows when the binding is already recorded —
        possibly after waiting out another execution's in-flight access.
        In-process contention is settled on the condition variable first;
        the surviving owner then contends with other *processes* through
        the store's claim table (trivially won for the in-memory store).
        """
        binding = tuple(binding)
        with self._cond:
            while True:
                rows = self._records.get(binding)
                if rows is not None:
                    self.hits += 1
                    self._absorb_union(rows)
                    return rows
                if binding not in self._inflight:
                    self._inflight.add(binding)
                    break
                self._cond.wait()
        # This thread owns the access in-process; win it across processes
        # too.  Polling happens outside the condition so local record() and
        # abandon() calls for other bindings are never blocked.
        while True:
            status, rows = self._records.claim(binding)
            if status is ClaimStatus.OWNED:
                return None
            if status is ClaimStatus.SERVED:
                served = rows if rows is not None else frozenset()
                with self._cond:
                    self.hits += 1
                    self._absorb_union(served)
                    self._inflight.discard(binding)
                    self._cond.notify_all()
                return served
            time.sleep(self._claim_poll_interval)

    def try_claim(
        self, binding: Tuple[object, ...]
    ) -> Tuple[ClaimStatus, Optional[FrozenSet[Row]]]:
        """One non-blocking round of the claim protocol.

        The async dispatcher cannot block on the condition variable (that
        would stall the event loop the fulfilling coroutine runs on), so it
        polls this method with ``await asyncio.sleep(...)`` between rounds.
        Returns ``(OWNED, None)`` when the caller now owns the access,
        ``(SERVED, rows)`` when the binding is recorded (a hit), or
        ``(WAIT, None)`` when another coroutine/thread/process holds the
        claim and the caller should retry after a pause.
        """
        binding = tuple(binding)
        with self._cond:
            rows = self._records.get(binding)
            if rows is not None:
                self.hits += 1
                self._absorb_union(rows)
                return ClaimStatus.SERVED, rows
            if binding in self._inflight:
                return ClaimStatus.WAIT, None
            self._inflight.add(binding)
        status, rows = self._records.claim(binding)
        if status is ClaimStatus.OWNED:
            return ClaimStatus.OWNED, None
        if status is ClaimStatus.SERVED:
            served = rows if rows is not None else frozenset()
            with self._cond:
                self.hits += 1
                self._absorb_union(served)
                self._inflight.discard(binding)
                self._cond.notify_all()
            return ClaimStatus.SERVED, served
        # Another *process* owns the claim: release the in-process marker so
        # local contenders (including this caller's retry) can re-contend.
        with self._cond:
            self._inflight.discard(binding)
            self._cond.notify_all()
        return ClaimStatus.WAIT, None

    def abandon(self, binding: Tuple[object, ...]) -> None:
        """Give up an owned claim (the access failed); waiters re-contend."""
        binding = tuple(binding)
        self._records.release(binding)
        with self._cond:
            self._inflight.discard(binding)
            self._cond.notify_all()

    def bindings(self) -> FrozenSet[Tuple[object, ...]]:
        with self._cond:
            return self._records.bindings()

    def all_rows(self) -> FrozenSet[Row]:
        """Union of all rows extracted from the relation so far."""
        with self._cond:
            if self._union_view is None:
                self._union_view = frozenset(self._union)
            return self._union_view

    def __len__(self) -> int:
        with self._cond:
            return len(self._records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetaCache({self.relation.name!r}, {len(self)} accesses)"


class AccessTable:
    """Pending access tuples for one relation with limitations.

    The paper's Figure 5 structure: access tuples generated from the cache
    database wait here before being shipped to the relation's wrapper.  The
    built-in distillation policy (:class:`~repro.runtime.policy.
    SimulatedParallel`) keeps its backlogs per *cache occurrence* rather
    than per relation (two caches
    over one relation may legitimately dispatch the same binding), so this
    per-relation table is the dedup-by-relation variant offered to external
    schedulers via :meth:`CacheDatabase.access_table`.  Offers are O(1): a
    seen-set rejects duplicates (whether still pending or already
    delivered) and the pending backlog is a deque, so :meth:`take` pops
    from the front without shifting the rest.
    """

    def __init__(self, relation: RelationSchema) -> None:
        self.relation = relation
        self.pending: Deque[AccessTuple] = deque()
        self.delivered: Set[AccessTuple] = set()
        self._seen: Set[AccessTuple] = set()

    def offer(self, access: AccessTuple) -> bool:
        """Add an access tuple unless it was already offered or delivered."""
        if access in self._seen:
            return False
        self._seen.add(access)
        self.pending.append(access)
        return True

    def take(self) -> Optional[AccessTuple]:
        """Remove and return the next pending access tuple, if any."""
        if not self.pending:
            return None
        access = self.pending.popleft()
        self.delivered.add(access)
        return access

    def __len__(self) -> int:
        return len(self.pending)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AccessTable({self.relation.name!r}, {len(self)} pending)"


class CacheDatabase:
    """All cache tables of one execution, plus the per-relation meta-caches.

    The meta-caches may be shared between several cache databases: an engine
    session passes the same ``shared_meta`` mapping to every execution it
    creates, so that the "never repeat an access" invariant holds *across*
    the queries of the session, not just within one plan.  Cache tables are
    always private to one execution (they are plan-specific, and mutated
    only by that execution's coordinating thread); the shared meta mapping
    is guarded by ``meta_lock`` (the session's lock), so concurrent
    executions agree on one :class:`MetaCache` object per relation.

    ``store`` selects where the meta-caches' records live (see
    :mod:`repro.sources.store`); when omitted, each meta-cache gets a
    private unbounded in-memory handle — the historical behaviour.
    """

    def __init__(
        self,
        shared_meta: Optional[Dict[str, MetaCache]] = None,
        meta_lock: Optional[threading.Lock] = None,
        store: Optional[CacheStore] = None,
    ) -> None:
        self._caches: Dict[str, CacheTable] = {}
        self._meta: Dict[str, MetaCache] = shared_meta if shared_meta is not None else {}
        self._meta_lock = meta_lock if meta_lock is not None else threading.Lock()
        self._store = store
        self._access_tables: Dict[str, AccessTable] = {}

    # -- cache tables ------------------------------------------------------------
    def create_cache(self, name: str, relation: RelationSchema, position: int = 0) -> CacheTable:
        if name not in self._caches:
            self._caches[name] = CacheTable(name, relation, position)
        return self._caches[name]

    def cache(self, name: str) -> CacheTable:
        return self._caches[name]

    def has_cache(self, name: str) -> bool:
        return name in self._caches

    def caches(self) -> List[CacheTable]:
        return list(self._caches.values())

    # -- meta-caches ----------------------------------------------------------------
    def meta_cache(self, relation: RelationSchema) -> MetaCache:
        meta = self._meta.get(relation.name)
        if meta is None:
            with self._meta_lock:
                meta = self._meta.get(relation.name)
                if meta is None:
                    if self._store is not None:
                        meta = MetaCache(
                            relation,
                            records=self._store.records(relation),
                            claim_poll_interval=getattr(
                                self._store, "claim_poll_interval", 0.01
                            ),
                        )
                    else:
                        meta = MetaCache(relation)
                    self._meta[relation.name] = meta
        return meta

    # -- access tables ----------------------------------------------------------------
    def access_table(self, relation: RelationSchema) -> AccessTable:
        if relation.name not in self._access_tables:
            self._access_tables[relation.name] = AccessTable(relation)
        return self._access_tables[relation.name]

    # -- views ---------------------------------------------------------------------------
    def contents(self) -> Dict[str, FrozenSet[Row]]:
        """Snapshot ``{cache_name: rows}`` used to evaluate queries over the caches."""
        return {name: cache.rows() for name, cache in self._caches.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CacheDatabase({len(self._caches)} caches, {len(self._meta)} meta-caches)"
