"""Terms of conjunctive queries: variables and constants."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True, order=True)
class Variable:
    """A query variable, identified by its name."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a variable must have a non-empty name")

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Variable({self.name!r})"

    @property
    def is_variable(self) -> bool:
        return True

    @property
    def is_constant(self) -> bool:
        return False


@dataclass(frozen=True)
class Constant:
    """A constant value appearing in a query.

    The wrapped value can be any hashable Python object (strings and integers
    in practice).  Constants compare by value, so ``Constant("a") ==
    Constant("a")``.
    """

    value: object

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Constant({self.value!r})"

    def __lt__(self, other: "Constant") -> bool:
        # Ordering is only used to produce deterministic output; fall back to
        # the string representation when the values are not comparable.
        if not isinstance(other, Constant):
            return NotImplemented
        try:
            return self.value < other.value  # type: ignore[operator]
        except TypeError:
            return str(self.value) < str(other.value)

    @property
    def is_variable(self) -> bool:
        return False

    @property
    def is_constant(self) -> bool:
        return True


Term = Union[Variable, Constant]


def term_from_object(value: object) -> Term:
    """Coerce an arbitrary object into a term.

    Strings beginning with an upper-case letter or an underscore become
    variables (the usual Datalog convention); everything else becomes a
    constant.  Existing :class:`Variable`/:class:`Constant` objects are
    returned unchanged.
    """
    if isinstance(value, (Variable, Constant)):
        return value
    if isinstance(value, str) and value and (value[0].isupper() or value[0] == "_"):
        return Variable(value)
    return Constant(value)
