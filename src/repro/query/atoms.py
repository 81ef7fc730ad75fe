"""Atoms: predicate symbols applied to terms."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Mapping, Set, Tuple

from repro.exceptions import QueryError
from repro.model.schema import RelationSchema, Schema
from repro.query.terms import Constant, Term, Variable, term_from_object


@dataclass(frozen=True)
class Atom:
    """An atom ``p(t1, ..., tn)`` over variables and constants.

    The predicate is referenced by name; resolution against a schema (arity
    and domain checks) is performed by :meth:`validate_against`.
    """

    predicate: str
    terms: Tuple[Term, ...]

    def __post_init__(self) -> None:
        if not self.predicate:
            raise QueryError("an atom must have a non-empty predicate name")
        if not isinstance(self.terms, tuple):
            object.__setattr__(self, "terms", tuple(self.terms))
        coerced = tuple(term_from_object(term) for term in self.terms)
        object.__setattr__(self, "terms", coerced)

    # -- construction ------------------------------------------------------
    @classmethod
    def build(cls, predicate: str, *terms: object) -> "Atom":
        """Build an atom coercing raw Python values into terms."""
        return cls(predicate, tuple(term_from_object(term) for term in terms))

    # -- inspection ---------------------------------------------------------
    @property
    def arity(self) -> int:
        return len(self.terms)

    def variables(self) -> List[Variable]:
        """Variables of the atom in positional order (with repetitions)."""
        return [term for term in self.terms if isinstance(term, Variable)]

    def variable_set(self) -> Set[Variable]:
        return set(self.variables())

    def constants(self) -> List[Constant]:
        """Constants of the atom in positional order (with repetitions)."""
        return [term for term in self.terms if isinstance(term, Constant)]

    def constant_set(self) -> Set[Constant]:
        return set(self.constants())

    def is_ground(self) -> bool:
        """True if the atom contains no variables."""
        return all(isinstance(term, Constant) for term in self.terms)

    # -- transformation ------------------------------------------------------
    def substitute(self, mapping: Mapping[Variable, Term]) -> "Atom":
        """Apply a substitution to the atom's variables."""
        new_terms = tuple(
            mapping.get(term, term) if isinstance(term, Variable) else term
            for term in self.terms
        )
        return Atom(self.predicate, new_terms)

    # -- validation -----------------------------------------------------------
    def validate_against(self, schema: Schema) -> RelationSchema:
        """Check that the atom is compatible with ``schema``.

        Returns the matching relation schema.  Raises :class:`QueryError` when
        the predicate is unknown or the arity does not match, and when the
        same variable occurs at two positions with different abstract domains
        (the paper's queries always join attributes of the same domain).
        """
        relation = schema.get(self.predicate)
        if relation is None:
            raise QueryError(f"atom {self} refers to unknown relation {self.predicate!r}")
        if relation.arity != self.arity:
            raise QueryError(
                f"atom {self} has arity {self.arity} but relation "
                f"{relation.name!r} has arity {relation.arity}"
            )
        return relation

    # -- rendering -------------------------------------------------------------
    def __str__(self) -> str:
        rendered = ", ".join(str(term) for term in self.terms)
        return f"{self.predicate}({rendered})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Atom({self.predicate!r}, {self.terms!r})"


def atoms_variables(atoms: Iterable[Atom]) -> Set[Variable]:
    """Union of the variables of a collection of atoms."""
    found: Set[Variable] = set()
    for atom in atoms:
        found.update(atom.variable_set())
    return found


def atoms_constants(atoms: Iterable[Atom]) -> Set[Constant]:
    """Union of the constants of a collection of atoms."""
    found: Set[Constant] = set()
    for atom in atoms:
        found.update(atom.constant_set())
    return found
