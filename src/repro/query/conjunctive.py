"""Conjunctive queries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Set, Tuple

from repro.exceptions import QueryError
from repro.model.domains import AbstractDomain
from repro.model.schema import Schema
from repro.query.atoms import Atom, atoms_constants, atoms_variables
from repro.query.terms import Constant, Term, Variable, term_from_object

#: An occurrence of a term in the body: (atom index, argument position).
Occurrence = Tuple[int, int]


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A conjunctive query ``q(X̄) ← conj(X̄, Ȳ)``.

    Attributes:
        head_predicate: name of the head predicate (``q`` by convention).
        head_terms: terms of the head; usually variables, but constants are
            allowed (they are simply copied into every answer).
        body: the conjunction of atoms.
    """

    head_predicate: str
    head_terms: Tuple[Term, ...]
    body: Tuple[Atom, ...]

    def __post_init__(self) -> None:
        if not self.head_predicate:
            raise QueryError("a conjunctive query must have a head predicate name")
        object.__setattr__(
            self, "head_terms", tuple(term_from_object(term) for term in self.head_terms)
        )
        object.__setattr__(self, "body", tuple(self.body))
        if not self.body:
            raise QueryError("a conjunctive query must have a non-empty body")
        missing = [
            variable
            for variable in self.head_variables()
            if variable not in self.body_variable_set()
        ]
        if missing:
            names = ", ".join(str(variable) for variable in missing)
            raise QueryError(f"head variable(s) {names} do not occur in the body (unsafe query)")

    # -- construction ------------------------------------------------------
    @classmethod
    def build(
        cls,
        head_terms: Sequence[object],
        body: Sequence[Atom],
        head_predicate: str = "q",
    ) -> "ConjunctiveQuery":
        """Build a query coercing raw values in the head into terms."""
        return cls(head_predicate, tuple(term_from_object(t) for t in head_terms), tuple(body))

    # -- basic inspection -----------------------------------------------------
    @property
    def arity(self) -> int:
        return len(self.head_terms)

    def head_variables(self) -> List[Variable]:
        return [term for term in self.head_terms if isinstance(term, Variable)]

    def body_variables(self) -> List[Variable]:
        """Variables of the body in order of first occurrence."""
        seen: List[Variable] = []
        for atom in self.body:
            for variable in atom.variables():
                if variable not in seen:
                    seen.append(variable)
        return seen

    def body_variable_set(self) -> Set[Variable]:
        return atoms_variables(self.body)

    def variables(self) -> Set[Variable]:
        return self.body_variable_set() | set(self.head_variables())

    def constants(self) -> Set[Constant]:
        """Constants occurring in the body or in the head."""
        found = atoms_constants(self.body)
        found.update(term for term in self.head_terms if isinstance(term, Constant))
        return found

    def predicates(self) -> List[str]:
        """Predicate names of the body atoms, in order and with repetitions."""
        return [atom.predicate for atom in self.body]

    def predicate_set(self) -> Set[str]:
        return set(self.predicates())

    def is_constant_free(self) -> bool:
        """True if neither the body nor the head mentions a constant."""
        return not self.constants()

    # -- occurrences and joins ---------------------------------------------------
    def occurrences(self) -> Dict[Term, List[Occurrence]]:
        """Map every term to its occurrences ``(atom_index, position)`` in the body."""
        occurrence_map: Dict[Term, List[Occurrence]] = {}
        for atom_index, atom in enumerate(self.body):
            for position, term in enumerate(atom.terms):
                occurrence_map.setdefault(term, []).append((atom_index, position))
        return occurrence_map

    def join_variables(self) -> Dict[Variable, List[Occurrence]]:
        """Variables occurring more than once in the body, with their occurrences."""
        return {
            term: occurrences
            for term, occurrences in self.occurrences().items()
            if isinstance(term, Variable) and len(occurrences) > 1
        }

    def join_count_of_atom(self, atom_index: int) -> int:
        """Number of join-variable occurrences in the given body atom.

        Used by the ordering heuristic of Section IV ("place sources involved
        in more joins first").
        """
        join_vars = set(self.join_variables())
        return sum(
            1
            for term in self.body[atom_index].terms
            if isinstance(term, Variable) and term in join_vars
        )

    # -- schema interaction ---------------------------------------------------------
    def validate_against(self, schema: Schema) -> None:
        """Check arities and the domain-consistency of joins and constants.

        A variable used at two positions with different abstract domains is
        rejected: such a join can never be satisfied under the abstract-domain
        discipline of the paper.
        """
        variable_domains: Dict[Variable, AbstractDomain] = {}
        for atom in self.body:
            relation = atom.validate_against(schema)
            for position, term in enumerate(atom.terms):
                if not isinstance(term, Variable):
                    continue
                domain_ = relation.domain_at(position)
                known = variable_domains.get(term)
                if known is None:
                    variable_domains[term] = domain_
                elif known != domain_:
                    raise QueryError(
                        f"variable {term} is used with abstract domains "
                        f"{known.name!r} and {domain_.name!r} in query {self}"
                    )

    def variable_domains(self, schema: Schema) -> Dict[Variable, AbstractDomain]:
        """Map every body variable to its abstract domain under ``schema``."""
        domains: Dict[Variable, AbstractDomain] = {}
        for atom in self.body:
            relation = schema[atom.predicate]
            for position, term in enumerate(atom.terms):
                if isinstance(term, Variable):
                    domains.setdefault(term, relation.domain_at(position))
        return domains

    def constant_domains(self, schema: Schema) -> Dict[Constant, Set[AbstractDomain]]:
        """Map every body constant to the abstract domains of its positions."""
        domains: Dict[Constant, Set[AbstractDomain]] = {}
        for atom in self.body:
            relation = schema[atom.predicate]
            for position, term in enumerate(atom.terms):
                if isinstance(term, Constant):
                    domains.setdefault(term, set()).add(relation.domain_at(position))
        return domains

    # -- transformation -----------------------------------------------------------------
    def substitute(self, mapping: Mapping[Variable, Term]) -> "ConjunctiveQuery":
        """Apply a substitution to head and body."""
        new_head = tuple(
            mapping.get(term, term) if isinstance(term, Variable) else term
            for term in self.head_terms
        )
        new_body = tuple(atom.substitute(mapping) for atom in self.body)
        return ConjunctiveQuery(self.head_predicate, new_head, new_body)

    def with_body(self, body: Sequence[Atom]) -> "ConjunctiveQuery":
        """Return a copy with a different body (same head)."""
        return ConjunctiveQuery(self.head_predicate, self.head_terms, tuple(body))

    def rename_apart(self, suffix: str) -> "ConjunctiveQuery":
        """Rename every variable by appending ``suffix`` (for freshness)."""
        mapping = {variable: Variable(f"{variable.name}{suffix}") for variable in self.variables()}
        return self.substitute(mapping)

    # -- evaluation ---------------------------------------------------------------------
    def evaluate(self, contents: Mapping[str, Iterable[Tuple[object, ...]]]) -> FrozenSet[Tuple[object, ...]]:
        """Evaluate the query over explicit relation contents (no access limits).

        ``contents`` maps predicate names to iterables of tuples.  This is the
        classical CQ semantics used to answer the query over the cache
        database once extraction is over.
        """
        from repro.query.evaluate import evaluate_conjunction

        answers: Set[Tuple[object, ...]] = set()
        for substitution in evaluate_conjunction(self.body, contents):
            row = []
            for term in self.head_terms:
                value = substitution.apply(term)
                if isinstance(value, Constant):
                    row.append(value.value)
                else:  # pragma: no cover - guarded by the safety check in __post_init__
                    raise QueryError(f"head term {term} is unbound after body evaluation")
            answers.add(tuple(row))
        return frozenset(answers)

    # -- rendering ------------------------------------------------------------------------
    def head_string(self) -> str:
        rendered = ", ".join(str(term) for term in self.head_terms)
        return f"{self.head_predicate}({rendered})"

    def __str__(self) -> str:
        body = ", ".join(str(atom) for atom in self.body)
        return f"{self.head_string()} <- {body}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConjunctiveQuery({str(self)!r})"
