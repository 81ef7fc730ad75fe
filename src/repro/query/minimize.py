"""Chandra–Merlin minimization of conjunctive queries.

Section IV of the paper assumes the input CQ is *minimal*: no equivalent CQ
exists whose body atoms are a proper subset of its body atoms.  Minimization
(computing the core of the query) is NP-complete in general, but queries have
a handful of atoms, so the simple fold-and-check procedure below is perfectly
adequate: repeatedly try to drop a body atom and keep the reduced query when
it is still equivalent to the original.
"""

from __future__ import annotations

from itertools import permutations
from typing import Dict, Tuple

from repro.query.atoms import Atom
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.homomorphism import is_equivalent_to
from repro.query.terms import Variable


def _is_safe_body(query: ConjunctiveQuery, body: Tuple[Atom, ...]) -> bool:
    """Check that dropping atoms kept every head variable in the body."""
    remaining_variables = set()
    for atom in body:
        remaining_variables.update(atom.variable_set())
    return all(variable in remaining_variables for variable in query.head_variables())


def minimize_query(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """Return an equivalent minimal conjunctive query.

    The result is obtained by greedily removing redundant atoms; the classical
    result that all cores of a CQ are isomorphic guarantees that greedy
    removal reaches a minimal equivalent query regardless of the removal
    order.
    """
    current = query
    changed = True
    while changed and len(current.body) > 1:
        changed = False
        for index in range(len(current.body)):
            candidate_body = current.body[:index] + current.body[index + 1:]
            if not _is_safe_body(current, candidate_body):
                continue
            candidate = current.with_body(candidate_body)
            if is_equivalent_to(candidate, query):
                current = candidate
                changed = True
                break
    return current


def _render_atoms(
    head_terms: Tuple[object, ...], body: Tuple[Atom, ...]
) -> Tuple[str, ...]:
    """Render head + body with variables renamed by first occurrence.

    Head variables become ``H0, H1, …`` (in head order), remaining body
    variables become ``B0, B1, …`` in order of first occurrence over the
    given body ordering; constants render via ``repr`` of their value.  Two
    alpha-equivalent queries with the same atom ordering render identically.
    """
    names: Dict[Variable, str] = {}
    rendered = []

    def term_label(term: object) -> str:
        if isinstance(term, Variable):
            label = names.get(term)
            if label is None:
                label = f"B{len(names)}"
                names[term] = label
            return label
        return f"c:{getattr(term, 'value', term)!r}"

    head_labels = []
    for term in head_terms:
        if isinstance(term, Variable) and term not in names:
            names[term] = f"H{len(names)}"
        head_labels.append(term_label(term))
    rendered.append("ans(" + ",".join(head_labels) + ")")
    for atom in body:
        rendered.append(atom.predicate + "(" + ",".join(map(term_label, atom.terms)) + ")")
    return tuple(rendered)


def canonical_form(query: ConjunctiveQuery, max_exact_atoms: int = 7) -> str:
    """A canonical string key equal for all equivalent conjunctive queries.

    The query is first minimized (all cores of a CQ are isomorphic), then
    rendered under a canonical variable naming chosen as the lexicographic
    minimum over body-atom orderings — so the key is invariant under both
    variable renaming and body reordering.  Bodies larger than
    ``max_exact_atoms`` fall back to a fixed heuristic ordering (sort by the
    rendering obtained from the original atom order); the fallback is still
    deterministic and still alpha-invariant for queries whose atoms differ
    structurally, and a missed match only costs a cache miss, never a wrong
    hit.  This is the key of the engine's query-result cache tier.
    """
    core = minimize_query(query)
    body = core.body
    if len(body) <= max_exact_atoms:
        candidates = permutations(body)
    else:
        baseline = _render_atoms(core.head_terms, body)
        order = sorted(range(len(body)), key=lambda i: baseline[i + 1])
        candidates = iter([tuple(body[i] for i in order)])
    best = min(_render_atoms(core.head_terms, ordering) for ordering in candidates)
    return ";".join(best)
