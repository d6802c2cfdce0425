"""Rule value types and containers (paper Section 2).

An implication rule ``c_i => c_j`` is *canonical* when
``ones(c_i) < ones(c_j)`` or (``ones(c_i) == ones(c_j)`` and ``i < j``):
the paper mines only the higher-confidence direction of each pair.  A
similarity rule is unordered; it is stored with the canonically-first
column on the left.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.matrix.binary_matrix import Vocabulary


def canonical_before(
    ones_i: int, column_i: int, ones_j: int, column_j: int
) -> bool:
    """True when column ``i`` canonically precedes column ``j``.

    This is the paper's eligibility order: a candidate ``c_k`` may appear
    on ``c_j``'s list only when ``c_j`` canonically precedes ``c_k``.
    """
    return ones_i < ones_j or (ones_i == ones_j and column_i < column_j)


@dataclass(frozen=True, order=True)
class ImplicationRule:
    """A mined rule ``antecedent => consequent`` with its exact confidence.

    ``hits`` is ``|S_i ∩ S_j|`` and ``ones`` is ``|S_i|``; the confidence
    is the exact fraction ``hits/ones``.
    """

    antecedent: int
    consequent: int
    hits: int
    ones: int

    @property
    def misses(self) -> int:
        """Rows where the antecedent is 1 but the consequent is 0."""
        return self.ones - self.hits

    @property
    def confidence(self) -> Fraction:
        """Exact confidence ``|S_i ∩ S_j| / |S_i|``."""
        return Fraction(self.hits, self.ones)

    @property
    def pair(self) -> Tuple[int, int]:
        """The ``(antecedent, consequent)`` column pair."""
        return (self.antecedent, self.consequent)

    def format(self, vocabulary: Optional[Vocabulary] = None) -> str:
        """Render like the paper's Figure 7, e.g. ``polgar -> chess``."""
        if vocabulary is not None:
            left = vocabulary.label_of(self.antecedent)
            right = vocabulary.label_of(self.consequent)
        else:
            left, right = f"c{self.antecedent}", f"c{self.consequent}"
        return f"{left} -> {right} ({float(self.confidence):.3f})"


@dataclass(frozen=True, order=True)
class SimilarityRule:
    """A mined similar pair ``first ~ second`` with its exact similarity.

    ``intersection`` is ``|S_i ∩ S_j|`` and ``union`` is ``|S_i ∪ S_j|``.
    ``first`` canonically precedes ``second``.
    """

    first: int
    second: int
    intersection: int
    union: int

    @property
    def similarity(self) -> Fraction:
        """Exact similarity ``|S_i ∩ S_j| / |S_i ∪ S_j|`` (Jaccard)."""
        return Fraction(self.intersection, self.union)

    @property
    def pair(self) -> Tuple[int, int]:
        """The ``(first, second)`` column pair."""
        return (self.first, self.second)

    def format(self, vocabulary: Optional[Vocabulary] = None) -> str:
        """Render as ``left ~ right (sim)``."""
        if vocabulary is not None:
            left = vocabulary.label_of(self.first)
            right = vocabulary.label_of(self.second)
        else:
            left, right = f"c{self.first}", f"c{self.second}"
        return f"{left} ~ {right} ({float(self.similarity):.3f})"


class RuleSet:
    """A deduplicating container for mined rules of one kind.

    Rules are keyed by their column pair; inserting the same pair twice
    (e.g. a 100% rule rediscovered by the <100% pass) keeps one copy and
    asserts the statistics agree.
    """

    def __init__(self, rules: Iterable = ()) -> None:
        self._by_pair: Dict[Tuple[int, int], object] = {}
        for rule in rules:
            self.add(rule)

    def add(self, rule) -> None:
        """Insert ``rule``, ignoring an identical duplicate."""
        existing = self._by_pair.get(rule.pair)
        if existing is None:
            self._by_pair[rule.pair] = rule
        elif existing != rule:
            raise ValueError(
                f"conflicting statistics for pair {rule.pair}: "
                f"{existing} vs {rule}"
            )

    def add_many(self, rules: List) -> None:
        """:meth:`add` every rule in ``rules``, comparing only the pairs
        already present; a conflict raises before anything is inserted."""
        batch = {rule.pair: rule for rule in rules}
        if len(batch) != len(rules):  # duplicates within the batch
            self.update(rules)
            return
        for pair in self._by_pair.keys() & batch.keys():
            if self._by_pair[pair] != batch[pair]:
                raise ValueError(
                    f"conflicting statistics for pair {pair}: "
                    f"{self._by_pair[pair]} vs {batch[pair]}"
                )
        self._by_pair.update(batch)

    def update(self, rules: Iterable) -> None:
        """Insert every rule in ``rules``."""
        for rule in rules:
            self.add(rule)

    def pairs(self) -> Set[Tuple[int, int]]:
        """Return the set of column pairs present."""
        return set(self._by_pair)

    def sorted(self) -> List:
        """Return rules sorted by pair for stable output."""
        return [self._by_pair[pair] for pair in sorted(self._by_pair)]

    def __iter__(self) -> Iterator:
        return iter(self._by_pair.values())

    def __len__(self) -> int:
        return len(self._by_pair)

    def __contains__(self, pair: Tuple[int, int]) -> bool:
        return pair in self._by_pair

    def __getitem__(self, pair: Tuple[int, int]):
        return self._by_pair[pair]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RuleSet):
            return NotImplemented
        return self._by_pair == other._by_pair

    def __repr__(self) -> str:
        return f"RuleSet({len(self)} rules)"
