"""Positive Datalog rules and programs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.exceptions import DatalogError
from repro.query.atoms import Atom
from repro.query.terms import Variable


@dataclass(frozen=True)
class Rule:
    """A positive Datalog rule ``head ← body``.

    A rule with an empty body and a ground head is a *fact*.  Rules must be
    *safe*: every variable of the head must occur in the body.
    """

    head: Atom
    body: Tuple[Atom, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", tuple(self.body))
        body_variables: Set[Variable] = set()
        for atom in self.body:
            body_variables.update(atom.variable_set())
        unsafe = [
            variable for variable in self.head.variable_set() if variable not in body_variables
        ]
        if unsafe:
            names = ", ".join(sorted(variable.name for variable in unsafe))
            raise DatalogError(f"unsafe rule {self}: head variable(s) {names} not in body")

    def predicates(self) -> Set[str]:
        """All predicate names mentioned by the rule."""
        return {self.head.predicate} | {atom.predicate for atom in self.body}

    def body_predicates(self) -> Set[str]:
        return {atom.predicate for atom in self.body}

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        rendered = ", ".join(str(atom) for atom in self.body)
        return f"{self.head} <- {rendered}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Rule({str(self)!r})"


class DatalogProgram:
    """A positive Datalog program: a list of rules plus explicit EDB facts.

    Predicates are partitioned into IDB predicates (those appearing in some
    rule head) and EDB predicates (all others).  EDB extensions are supplied
    either as explicit facts attached to the program or at evaluation time.
    """

    def __init__(
        self,
        rules: Iterable[Rule] = (),
        facts: Optional[Mapping[str, Iterable[Tuple[object, ...]]]] = None,
    ) -> None:
        self.rules: List[Rule] = list(rules)
        self.facts: Dict[str, Set[Tuple[object, ...]]] = {}
        if facts:
            for predicate, rows in facts.items():
                self.add_facts(predicate, rows)

    # -- construction ------------------------------------------------------
    def add_rule(self, rule: Rule) -> None:
        self.rules.append(rule)

    def add_facts(self, predicate: str, rows: Iterable[Tuple[object, ...]]) -> None:
        self.facts.setdefault(predicate, set()).update(tuple(row) for row in rows)

    # -- inspection ---------------------------------------------------------
    def idb_predicates(self) -> Set[str]:
        """Predicates defined by at least one rule head."""
        return {rule.head.predicate for rule in self.rules}

    def edb_predicates(self) -> Set[str]:
        """Predicates that only occur in rule bodies or as explicit facts."""
        idb = self.idb_predicates()
        mentioned: Set[str] = set(self.facts)
        for rule in self.rules:
            mentioned.update(rule.body_predicates())
        return mentioned - idb

    # -- rendering -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def __str__(self) -> str:
        lines = [str(rule) for rule in self.rules]
        for predicate in sorted(self.facts):
            for row in sorted(self.facts[predicate], key=repr):
                rendered = ", ".join(repr(value) for value in row)
                lines.append(f"{predicate}({rendered}).")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DatalogProgram({len(self.rules)} rules, {sum(map(len, self.facts.values()))} facts)"
