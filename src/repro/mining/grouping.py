"""Rule grouping and keyword expansion (paper Sections 6.3 and 7).

The paper's Figure 7 is produced "by selecting all rules related to
keyword *Polgar* and its successors, recursively" — i.e. a breadth-
first expansion of the directed implication-rule graph from a seed
word.  Section 7 suggests the same grouping idea as DMC's route to
rules over more than two attributes; for similarity rules the natural
grouping is connected components.  All of it runs on a
:class:`RuleSet`'s sorted int64 columns; the components come from
scipy's ``csgraph``, imported on first use to keep start-up cheap.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set
from typing import Union

import numpy as np

from repro.core.rules import ImplicationRule, RuleSet, SimilarityRule
from repro.core.thresholds import as_fraction, max_misses
from repro.matrix.binary_matrix import Vocabulary


def _rule_set(rules: Iterable) -> RuleSet:
    return rules if isinstance(rules, RuleSet) else RuleSet(rules)


def _largest_first(groups: List[Set[int]]) -> List[Set[int]]:
    return sorted(groups, key=lambda group: (-len(group), min(group)))


def expand_keyword(
    rules: Iterable[ImplicationRule],
    seed: Union[int, str],
    vocabulary: Optional[Vocabulary] = None,
    max_depth: Optional[int] = None,
) -> List[ImplicationRule]:
    """Figure 7 expansion: all rules reachable from ``seed``.

    Starting from the seed column (a label when a vocabulary is given),
    collect its outgoing rules, then its consequents' outgoing rules,
    recursively up to ``max_depth`` hops (unbounded by default).  Rules
    are returned in breadth-first discovery order, antecedent-grouped —
    the layout of the paper's figure.  An unknown seed reaches nothing.
    """
    if isinstance(seed, str):
        if vocabulary is None:
            raise ValueError("a vocabulary is required to resolve a label")
        if seed not in vocabulary:
            return []
        seed = vocabulary.id_of(seed)

    columns = _rule_set(rules).columns()
    left, right = columns[:2]
    picked: List[int] = []
    visited: Set[int] = {seed}
    frontier = [seed]
    depth = 0
    while frontier and (max_depth is None or depth < max_depth):
        next_frontier: List[int] = []
        for antecedent in frontier:
            start = left.searchsorted(antecedent)
            stop = left.searchsorted(antecedent, "right")
            picked.extend(range(start, stop))
            for consequent in right[start:stop].tolist():
                if consequent not in visited:
                    visited.add(consequent)
                    next_frontier.append(consequent)
        frontier = next_frontier
        depth += 1
    fields = (column[picked].tolist() for column in columns)
    return list(map(ImplicationRule, *fields))


def _components(left, right, **direction):
    """Components of the graph with an edge ``left[i] -> right[i]`` per i.

    Returns each component's columns, indexed by its label, and the
    ``(source, target)`` labels of every edge.  Only columns on an edge
    are nodes.  ``direction`` goes to scipy's ``connected_components``.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    nodes, ends = np.unique(np.concatenate([left, right]), return_inverse=True)
    ends = ends.reshape(2, -1)
    graph = csr_matrix(
        (np.ones(ends.shape[1], dtype=bool), (ends[0], ends[1])),
        shape=(len(nodes), len(nodes)),
    )
    count, labels = connected_components(graph, **direction)
    order = np.argsort(labels, kind="stable")
    cuts = np.searchsorted(labels[order], np.arange(1, count))
    members = np.split(nodes[order], cuts) if count else []
    groups = [set(chunk.tolist()) for chunk in members]
    return groups, labels.astype(np.int64)[ends]


def _implication_components(rules, ones, threshold):
    """Strong components of the implication graph, with reverse edges.

    DMC mines only the canonical (sparser -> denser) direction, but a
    rule ``a -> c`` with ``hits`` also gives ``c -> a`` whenever its
    misses, ``ones[c] - hits``, fit the miner's own budget
    ``max_misses(ones[c], threshold)``; given ``ones`` those reverse
    edges are added.
    """
    left, right, hits, _ = _rule_set(rules).columns()
    if ones is not None:
        cut = as_fraction(threshold)
        whole = np.asarray(ones, dtype=np.int64)[right]
        counts, at = np.unique(whole, return_inverse=True)
        budget = [max_misses(count, cut) for count in counts.tolist()]
        back = whole - hits <= np.array(budget, dtype=np.int64)[at]
        left, right = np.hstack([(left, right), (right[back], left[back])])
    return _components(left, right, connection="strong")


def implication_equivalence_groups(
    rules: Iterable[ImplicationRule],
    ones: Optional[Sequence[int]] = None,
    threshold=1,
) -> List[Set[int]]:
    """Groups of mutually-implying columns (strongly connected parts).

    Section 7's observation: although DMC mines only pairs, grouping
    the rules yields structure over more than two attributes.  A
    strongly connected component of the implication graph is a set of
    attributes that all imply each other at ``threshold`` — an
    equivalence class like the chess-story names of Figure 7.

    Because DMC emits only the canonical direction, pass the pre-scan
    ``ones`` counts (and the mining threshold) so the derivable
    reverse edges are included; without them only explicitly-present
    edges count.  Singleton components are dropped; largest first.
    """
    groups, _ = _implication_components(rules, ones, threshold)
    return _largest_first([group for group in groups if len(group) > 1])


def group_implication_dag(
    rules: Iterable[ImplicationRule],
    ones: Optional[Sequence[int]] = None,
    threshold=1,
) -> Dict[FrozenSet[int], Set[FrozenSet[int]]]:
    """The condensation: implications *between* equivalence groups.

    Maps every strongly connected group (a frozenset of columns,
    singletons included) to the set of groups it implies: ``G2`` is in
    ``dag[G1]`` when some attribute of ``G1`` implies some attribute of
    ``G2`` at the mining threshold.  The result is acyclic, giving a
    hierarchy of rule groups — the "more complicated rules among three
    or more attributes" the paper's conclusion sketches.  See
    :func:`implication_equivalence_groups` for the role of ``ones``.
    """
    members, (source, target) = _implication_components(
        rules, ones, threshold
    )
    groups = list(map(frozenset, members))
    between = source != target
    keys = np.unique(source[between] * len(groups) + target[between])
    dag = {group: set() for group in groups}
    for key in keys.tolist():
        implier, implied = divmod(key, len(groups))
        dag[groups[implier]].add(groups[implied])
    return dag


def similarity_components(
    rules: Iterable[SimilarityRule],
) -> List[Set[int]]:
    """Groups of mutually-reachable similar columns, largest first.

    This is the Section 7 grouping: each component is a cluster of
    attributes related by pairwise similarity (e.g. mirror pages, or a
    synonym family in the dictionary data).
    """
    left, right = _rule_set(rules).columns()[:2]
    components, _ = _components(left, right, directed=False)
    return _largest_first(components)


def format_rules(
    rules: Iterable[ImplicationRule],
    vocabulary: Optional[Vocabulary] = None,
    columns: int = 3,
) -> str:
    """Render rules in Figure 7's multi-column ``a -> b`` layout."""
    # Only the last " (" opens the confidence; a label may hold one too.
    entries = [rule.format(vocabulary).rsplit(" (", 1)[0] for rule in rules]
    if not entries:
        return "(no rules)"
    width = max(len(e) for e in entries) + 2
    lines = []
    for start in range(0, len(entries), columns):
        chunk = entries[start : start + columns]
        lines.append("".join(e.ljust(width) for e in chunk).rstrip())
    return "\n".join(lines)
