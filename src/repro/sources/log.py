"""Global access log.

The log records every access performed during the evaluation of a query, in
order, and offers the per-relation aggregations used by the experiment
harnesses: number of accesses and number of extracted (distinct) rows per
relation, which are exactly the columns of Figure 6 of the paper.
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, Iterator, List, Set, Tuple

from repro.sources.access import AccessRecord, AccessTuple


class AccessLog:
    """An ordered record of accesses with per-relation aggregation.

    Mutation is lock-protected: an engine session's cumulative log absorbs
    per-execution logs from concurrently finishing queries, so
    :meth:`record` and :meth:`extend` must be safe to call from several
    threads.  The aggregation views are meant to be read once the writers
    have quiesced (per-execution logs have a single writer by design).
    """

    def __init__(self) -> None:
        self._records: List[AccessRecord] = []
        self._seen: Set[AccessTuple] = set()
        self._rows_by_relation: Dict[str, Set[Tuple[object, ...]]] = {}
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------------
    def record(self, record: AccessRecord) -> None:
        with self._lock:
            self._record_locked(record)

    def _record_locked(self, record: AccessRecord) -> None:
        self._records.append(record)
        self._seen.add(record.access)
        self._rows_by_relation.setdefault(record.relation, set()).update(record.rows)

    def extend(self, other: "AccessLog") -> None:
        """Append every record of ``other`` (used to fold per-execution logs
        into an engine session's cumulative log)."""
        with self._lock:
            for record in other:
                self._record_locked(record)

    # -- aggregation -----------------------------------------------------------
    @property
    def total_accesses(self) -> int:
        return len(self._records)

    def accesses_of(self, relation: str) -> int:
        """Number of accesses made to the given relation."""
        return sum(1 for record in self._records if record.relation == relation)

    def rows_of(self, relation: str) -> FrozenSet[Tuple[object, ...]]:
        """Distinct rows extracted from the given relation."""
        return frozenset(self._rows_by_relation.get(relation, frozenset()))

    def row_count_of(self, relation: str) -> int:
        return len(self._rows_by_relation.get(relation, ()))

    def accessed_relations(self) -> List[str]:
        """Relations accessed at least once, in order of first access."""
        seen: List[str] = []
        for record in self._records:
            if record.relation not in seen:
                seen.append(record.relation)
        return seen

    def access_set(self) -> FrozenSet[AccessTuple]:
        """The set ``Acc(D, Π)`` of the paper: all distinct accesses made."""
        return frozenset(self._seen)

    def per_relation_summary(self) -> Dict[str, Tuple[int, int]]:
        """``{relation: (accesses, distinct_rows)}`` for every accessed relation."""
        return {
            relation: (self.accesses_of(relation), self.row_count_of(relation))
            for relation in self.accessed_relations()
        }

    # -- container protocol -------------------------------------------------------
    def __iter__(self) -> Iterator[AccessRecord]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AccessLog({self.total_accesses} accesses over {len(self._rows_by_relation)} relations)"
