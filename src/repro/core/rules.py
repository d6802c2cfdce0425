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
from functools import partial, reduce
from operator import attrgetter, index
from typing import Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.matrix.binary_matrix import Vocabulary, int64_array


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


#: Each rule kind's fields in column order: the pair, then the exact
#: fraction's ``(part, whole)``.
_FIELDS = {
    ImplicationRule: attrgetter("antecedent", "consequent", "hits", "ones"),
    SimilarityRule: attrgetter("first", "second", "intersection", "union"),
}

#: Column ids stay below this, so :func:`pair_keys` keys a pair.
ID_LIMIT = 1 << 31

#: A sorted run of rules: ``(keys, part, whole)`` int64 columns.
Run = Tuple[np.ndarray, np.ndarray, np.ndarray]
_EMPTY = np.zeros(0, dtype=np.int64)
_EMPTY_RUN: Run = (_EMPTY, _EMPTY, _EMPTY)


_int64_column = partial(int64_array, what="rule ids and counts")


def _check_ids(column: np.ndarray) -> None:
    if len(column) and (column.min() < 0 or column.max() >= ID_LIMIT):
        raise ValueError("column ids must lie in [0, 2**31)")


def rule_columns(rules: List) -> Tuple:
    """``(kind, left, right, part, whole)`` of a list of rules of one
    kind (``kind`` is None for an empty list)."""
    kinds = set(map(type, rules))
    if len(kinds) > 1:
        names = sorted(kind.__name__ for kind in kinds)
        raise ValueError(f"a RuleSet holds one rule kind, not {names}")
    kind = kinds.pop() if kinds else None
    if kind is None:
        return (None, _EMPTY, _EMPTY, _EMPTY, _EMPTY)
    if kind not in _FIELDS:
        raise ValueError(f"not a rule kind: {kind!r}")
    columns = zip(*map(_FIELDS[kind], rules))
    return (kind, *map(_int64_column, columns))


def _merge(older: Run, newer: Run) -> Run:
    """Merge two sorted runs whose keys are disjoint."""
    if not len(older[0]):
        return newer
    if not len(newer[0]):
        return older
    size = len(older[0]) + len(newer[0])
    at = np.searchsorted(older[0], newer[0]) + np.arange(len(newer[0]))
    from_older = np.ones(size, dtype=bool)
    from_older[at] = False
    merged = []
    for old, new in zip(older, newer):
        column = np.empty(size, dtype=np.int64)
        column[at] = new
        column[from_older] = old
        merged.append(column)
    return tuple(merged)


def _push(runs: Tuple[Run, ...], run: Run) -> Tuple[Run, ...]:
    """Append ``run``, then merge the last two runs while the newer is at
    least half the older: n rules in any batches cost O(n log n)."""
    if not len(run[0]):
        return runs
    runs = list(runs) + [run]
    while len(runs) > 1 and 2 * len(runs[-1][0]) >= len(runs[-2][0]):
        runs[-2:] = [_merge(runs[-2], runs[-1])]
    return tuple(runs)


def pair_keys(left, right):
    """The sort key ``left << 32 | right`` of pairs (arrays or ints)."""
    return left << 32 | right


def _sorted_run(left, right, part, whole) -> Run:
    keys = pair_keys(left, right)
    order = np.argsort(keys, kind="stable")
    return keys[order], part[order], whole[order]


def _readonly(column: np.ndarray) -> np.ndarray:
    view = column.view()
    view.flags.writeable = False
    return view


class RuleSet:
    """A deduplicating container for mined rules of one kind.

    Rules are keyed by their column pair; inserting the same pair twice
    (e.g. a 100% rule rediscovered by the <100% pass) keeps one copy and
    checks that the statistics agree.

    The set is columnar: four int64 columns ``(left, right, part,
    whole)`` (the pair, then the exact fraction's two counts) sorted by
    the key ``left << 32 | right``.  Rule objects are built only when a
    caller asks for rules, so iteration follows pair order.  Column ids
    must lie in ``[0, 2**31)``, counts must fit in int64, and one set
    holds one rule kind; anything else raises ``ValueError``.

    Every write is a batch (:meth:`add_columns`; :meth:`add_many`,
    :meth:`update` and :meth:`add` build one from rule objects) that
    lands as one sorted run, checked against every run before anything
    is inserted, so a conflict leaves the set unchanged; runs merge
    LSM-style (see :func:`_push`).  Only integer pairs (Python or numpy
    ints) are looked up; any other key is absent.
    """

    def __init__(self, rules: Iterable = ()) -> None:
        self._kind: Optional[type] = None
        #: Sorted runs with disjoint keys, replaced as one value.
        self._runs: Tuple[Run, ...] = ()
        self.update(rules)

    @property
    def kind(self) -> Optional[type]:
        """The rule class held, or None while the set is empty."""
        return self._kind

    def _check_kind(self, kind: type) -> None:
        if kind not in _FIELDS:
            raise ValueError(f"not a rule kind: {kind!r}")
        if self._kind is not None and kind is not self._kind:
            raise ValueError(
                f"a RuleSet holds one rule kind: cannot add "
                f"{kind.__name__} to a set of {self._kind.__name__}"
            )

    def _run(self) -> Run:
        """The whole set as one sorted run."""
        run = reduce(_merge, self._runs, _EMPTY_RUN)
        self._runs = (run,)
        return run

    def _lookup(self, pair) -> Optional[object]:
        """The rule at ``pair``, or None unless it is two integer ids."""
        try:
            left, right = map(index, pair)
        except (TypeError, ValueError):
            return None
        if not (0 <= left < ID_LIMIT and 0 <= right < ID_LIMIT):
            return None
        key = pair_keys(left, right)
        for keys, part, whole in self._runs:
            at = int(np.searchsorted(keys, key))
            if at < len(keys) and keys[at] == key:
                return self._kind(left, right, int(part[at]), int(whole[at]))
        return None

    def add(self, rule) -> None:
        """Insert ``rule`` (a one-rule :meth:`add_many`), ignoring an
        identical duplicate."""
        self.add_many([rule])

    def add_columns(self, kind: type, left, right, part, whole) -> None:
        """Insert the rules of ``kind`` given as four columns, ignoring
        identical duplicates; a conflicting pair (in the batch or
        against the set) raises before anything is inserted."""
        left, right, part, whole = map(
            _int64_column, (left, right, part, whole)
        )
        if not len(left) == len(right) == len(part) == len(whole):
            raise ValueError("rule columns must have equal lengths")
        if not len(left):
            return
        self._check_kind(kind)
        _check_ids(left)
        _check_ids(right)
        keys, part, whole = _sorted_run(left, right, part, whole)
        fresh = np.ones(len(keys), dtype=bool)
        repeat = np.flatnonzero(keys[1:] == keys[:-1])
        self._check_clash(kind, (keys, part, whole), repeat + 1, repeat)
        fresh[repeat + 1] = False
        runs = self._runs
        for run in runs:
            at = np.searchsorted(run[0], keys)
            found = np.flatnonzero(at < len(run[0]))
            found = found[run[0][at[found]] == keys[found]]
            self._check_clash(kind, (keys, part, whole), found, at[found], run)
            fresh[found] = False
        self._kind = kind
        self._runs = _push(runs, (keys[fresh], part[fresh], whole[fresh]))

    @staticmethod
    def _check_clash(kind, batch: Run, picked, at, run: Run = None) -> None:
        """Raise on the first of ``batch[picked]`` whose counts differ
        from ``run[at]`` (default: from ``batch[at]``)."""
        run = batch if run is None else run
        clash = (batch[1][picked] != run[1][at]) | (
            batch[2][picked] != run[2][at]
        )
        if np.any(clash):
            first = np.flatnonzero(clash)[0]
            new, old = int(picked[first]), int(at[first])
            pair = divmod(int(batch[0][new]), 1 << 32)
            existing = kind(*pair, int(run[1][old]), int(run[2][old]))
            rule = kind(*pair, int(batch[1][new]), int(batch[2][new]))
            raise ValueError(
                f"conflicting statistics for pair {pair}: "
                f"{existing} vs {rule}"
            )

    def add_many(self, rules: List) -> None:
        """Insert the rule objects in the list ``rules`` as one batch,
        ignoring identical duplicates: a conflict raises before anything
        is inserted."""
        kind, *columns = rule_columns(rules)
        if kind is not None:
            self.add_columns(kind, *columns)

    def update(self, rules: Iterable) -> None:
        """Insert every rule in ``rules`` as one batch (a
        :class:`RuleSet` by its columns): a conflict raises before
        anything is inserted."""
        if isinstance(rules, RuleSet):
            if rules.kind is not None:
                self.add_columns(rules.kind, *rules.columns())
        else:
            self.add_many(list(rules))

    def columns(self) -> Tuple[np.ndarray, ...]:
        """The read-only ``(left, right, part, whole)`` int64 columns,
        in pair order."""
        keys, part, whole = self._run()
        return (
            keys >> 32, keys & (ID_LIMIT - 1), _readonly(part),
            _readonly(whole),
        )

    def pairs(self) -> Set[Tuple[int, int]]:
        """Return the set of column pairs present."""
        left, right = self.columns()[:2]
        return set(zip(left.tolist(), right.tolist()))

    def sorted(self) -> List:
        """Return rules sorted by pair for stable output."""
        if self._kind is None:
            return []
        columns = (column.tolist() for column in self.columns())
        return list(map(self._kind, *columns))

    def __iter__(self) -> Iterator:
        return iter(self.sorted())

    def __len__(self) -> int:
        return sum(len(run[0]) for run in self._runs)

    def __contains__(self, pair: Tuple[int, int]) -> bool:
        return self._lookup(pair) is not None

    def __getitem__(self, pair: Tuple[int, int]):
        found = self._lookup(pair)
        if found is None:
            raise KeyError(pair)
        return found

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RuleSet):
            return NotImplemented
        mine, theirs = self._run(), other._run()
        if len(mine[0]) != len(theirs[0]):
            return False
        return not len(mine[0]) or (
            self._kind is other._kind
            and all(map(np.array_equal, mine, theirs))
        )

    def __repr__(self) -> str:
        return f"RuleSet({len(self)} rules)"
