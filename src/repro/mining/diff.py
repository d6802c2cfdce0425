"""Comparing two mined rule sets.

Typical uses: how did the rules change between two thresholds, two
data snapshots, or two algorithm configurations?  The diff is exact —
pairs are matched by columns, and "changed" means the underlying
integer statistics differ (e.g. a new data snapshot moved a rule's
confidence).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.core.rules import RuleSet
from repro.matrix.binary_matrix import Vocabulary


@dataclass(frozen=True)
class DiffEntry:
    """One atomic difference between two rule sets.

    ``kind`` is ``added`` (``before`` is None), ``removed`` (``after``
    is None) or ``changed`` (same pair, different statistics);
    ``pair`` is the unordered column pair the rules are keyed by.
    """

    kind: str
    pair: Tuple[int, int]
    before: Optional[object]
    after: Optional[object]

    def to_event(self) -> dict:
        """JSON-ready form (what journal consumers receive)."""
        return {
            "kind": self.kind,
            "pair": list(self.pair),
            "before": None if self.before is None else str(self.before),
            "after": None if self.after is None else str(self.after),
        }


@dataclass
class RuleDiff:
    """The outcome of :func:`diff_rules`."""

    added: RuleSet
    removed: RuleSet
    changed: List[Tuple[object, object]] = field(default_factory=list)
    unchanged: int = 0

    @property
    def is_empty(self) -> bool:
        """True when both sets are identical."""
        return (
            len(self.added) == 0
            and len(self.removed) == 0
            and not self.changed
        )

    def entries(self) -> List[DiffEntry]:
        """Every difference as a flat list in a *stable* order:
        sorted by pair, additions before removals before changes at
        equal pairs.  Two equal diffs always enumerate identically —
        the property the live rule-churn events build on."""
        kind_order = {"added": 0, "removed": 1, "changed": 2}
        entries = [
            DiffEntry("added", rule.pair, None, rule)
            for rule in self.added.sorted()
        ]
        entries.extend(
            DiffEntry("removed", rule.pair, rule, None)
            for rule in self.removed.sorted()
        )
        entries.extend(
            DiffEntry("changed", before.pair, before, after)
            for before, after in self.changed
        )
        entries.sort(key=lambda entry: (entry.pair, kind_order[entry.kind]))
        return entries

    def __iter__(self) -> Iterator[DiffEntry]:
        return iter(self.entries())

    def to_events(self) -> List[dict]:
        """The stable entry list as JSON-ready dicts."""
        return [entry.to_event() for entry in self.entries()]

    def render(self, vocabulary: Optional[Vocabulary] = None) -> str:
        """Plain-text summary, one section per change kind."""
        if self.is_empty:
            return f"no differences ({self.unchanged} identical rules)"
        lines = [
            f"+{len(self.added)} added, -{len(self.removed)} removed, "
            f"~{len(self.changed)} changed, "
            f"{self.unchanged} unchanged"
        ]
        for rule in self.added.sorted():
            lines.append(f"  + {rule.format(vocabulary)}")
        for rule in self.removed.sorted():
            lines.append(f"  - {rule.format(vocabulary)}")
        for before, after in self.changed:
            lines.append(
                f"  ~ {before.format(vocabulary)} -> "
                f"{after.format(vocabulary)}"
            )
        return "\n".join(lines)


def _subset(kind, run, keep) -> RuleSet:
    """The rules at ``keep`` (a mask or sorted indices) of a sorted
    run, as a new set."""
    return RuleSet.from_run(kind, tuple(column[keep] for column in run))


def diff_rules(before: RuleSet, after: RuleSet) -> RuleDiff:
    """Diff two rule sets of the same kind, pair by pair.

    One merge of the two sets' sorted ``(keys, part, whole)`` runs:
    ``added``, ``removed`` and the two sides of ``changed`` are
    subsets of them, and only the ``changed`` pairs become rule
    objects.
    """
    if before.kind and after.kind and before.kind is not after.kind:
        raise ValueError(
            f"cannot diff {before.kind.__name__} rules against "
            f"{after.kind.__name__} rules"
        )
    old, new = before.run(), after.run()
    at = np.searchsorted(new[0], old[0])
    common = np.flatnonzero(at < len(new[0]))
    common = common[new[0][at[common]] == old[0][common]]
    matched = at[common]
    differs = (old[1][common] != new[1][matched]) | (
        old[2][common] != new[2][matched]
    )
    only_old = np.ones(len(old[0]), dtype=bool)
    only_old[common] = False
    only_new = np.ones(len(new[0]), dtype=bool)
    only_new[matched] = False
    changed = list(zip(
        _subset(before.kind, old, common[differs]).sorted(),
        _subset(after.kind, new, matched[differs]).sorted(),
    ))
    return RuleDiff(
        added=_subset(after.kind, new, only_new),
        removed=_subset(before.kind, old, only_old),
        changed=changed,
        unchanged=len(common) - len(changed),
    )
