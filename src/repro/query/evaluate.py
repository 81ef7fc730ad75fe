"""Evaluation of conjunctions of atoms over explicit relation contents.

This is the textbook join-by-backtracking evaluation of a conjunctive query
body against in-memory relations; it is used to answer queries over the cache
database, to perform the fast-failing satisfiability checks, and as the
reference semantics in tests.  Atoms are matched left to right after a greedy
reordering that prefers atoms with more bound terms (a simple bound-first
join order that keeps intermediate results small).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.query.atoms import Atom
from repro.query.substitution import Substitution
from repro.query.terms import Constant, Variable

RelationContents = Mapping[str, Iterable[Tuple[object, ...]]]


def _match_atom(
    atom: Atom, row: Tuple[object, ...], substitution: Substitution
) -> Optional[Substitution]:
    """Try to unify ``atom`` with a concrete ``row`` under ``substitution``."""
    if len(row) != atom.arity:
        return None
    current = substitution
    for term, value in zip(atom.terms, row):
        bound = current.apply(term)
        if isinstance(bound, Constant):
            if bound.value != value:
                return None
            continue
        extended = current.extended(bound, Constant(value))
        if extended is None:
            return None
        current = extended
    return current


def _bound_term_count(atom: Atom, bound_variables: Set[Variable]) -> int:
    """Number of terms of ``atom`` already bound (constants or bound variables)."""
    count = 0
    for term in atom.terms:
        if isinstance(term, Constant) or term in bound_variables:
            count += 1
    return count


def _order_atoms(atoms: Sequence[Atom]) -> List[Atom]:
    """Greedy bound-first ordering of the atoms of a conjunction."""
    remaining = list(atoms)
    ordered: List[Atom] = []
    bound: Set[Variable] = set()
    while remaining:
        remaining.sort(key=lambda atom: -_bound_term_count(atom, bound))
        chosen = remaining.pop(0)
        ordered.append(chosen)
        bound.update(chosen.variable_set())
    return ordered


def evaluate_conjunction(
    atoms: Sequence[Atom],
    contents: RelationContents,
    initial: Optional[Substitution] = None,
) -> Iterator[Substitution]:
    """Yield every substitution that satisfies all ``atoms`` over ``contents``.

    Relations missing from ``contents`` are treated as empty.  The returned
    substitutions bind exactly the variables occurring in ``atoms`` (plus any
    binding already present in ``initial``).

    The atom order is static, so the set of argument positions that are
    bound when an atom is reached (constants, variables bound by earlier
    atoms, variables ground in ``initial``) is known up front; each atom's
    relation is hash-indexed once on those positions and candidate rows are
    probed by key instead of scanning the whole relation at every branch.
    """
    start = initial or Substitution()
    materialized: Dict[str, List[Tuple[object, ...]]] = {}

    def rows_of(predicate: str) -> List[Tuple[object, ...]]:
        if predicate not in materialized:
            materialized[predicate] = [tuple(row) for row in contents.get(predicate, ())]
        return materialized[predicate]

    ordered = _order_atoms(atoms)

    # Positions of each atom that are ground when the search reaches it.
    ground_variables: Set[Variable] = {
        variable for variable in start if isinstance(start.apply(variable), Constant)
    }
    key_positions: List[Tuple[int, ...]] = []
    for atom in ordered:
        positions = tuple(
            position
            for position, term in enumerate(atom.terms)
            if isinstance(term, Constant) or term in ground_variables
        )
        key_positions.append(positions)
        ground_variables.update(atom.variable_set())

    indexes: List[Optional[Dict[Tuple[object, ...], List[Tuple[object, ...]]]]] = [
        None
    ] * len(ordered)

    def candidates(depth: int, substitution: Substitution) -> List[Tuple[object, ...]]:
        atom = ordered[depth]
        positions = key_positions[depth]
        if not positions:
            return rows_of(atom.predicate)
        index = indexes[depth]
        if index is None:
            index = {}
            for row in rows_of(atom.predicate):
                if len(row) != atom.arity:
                    continue
                key = tuple(row[position] for position in positions)
                index.setdefault(key, []).append(row)
            indexes[depth] = index
        probe: List[object] = []
        for position in positions:
            bound = substitution.apply(atom.terms[position])
            if not isinstance(bound, Constant):  # pragma: no cover - defensive
                return rows_of(atom.predicate)
            probe.append(bound.value)
        return index.get(tuple(probe), ())

    def search(depth: int, substitution: Substitution) -> Iterator[Substitution]:
        if depth == len(ordered):
            yield substitution
            return
        atom = ordered[depth]
        for row in candidates(depth, substitution):
            matched = _match_atom(atom, row, substitution)
            if matched is not None:
                yield from search(depth + 1, matched)

    yield from search(0, start)


def conjunction_is_satisfiable(
    atoms: Sequence[Atom],
    contents: RelationContents,
) -> bool:
    """True when at least one substitution satisfies the conjunction."""
    for _ in evaluate_conjunction(atoms, contents):
        return True
    return False
