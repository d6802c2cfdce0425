"""Rule graphs and grouping (paper Sections 6.3 and 7).

The paper's Figure 7 is produced "by selecting all rules related to
keyword *Polgar* and its successors, recursively" — i.e. a breadth-
first expansion of the directed implication-rule graph from a seed
word.  Section 7 suggests the same grouping idea as DMC's route to
rules over more than two attributes; for similarity rules the natural
grouping is connected components, implemented here on networkx graphs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING
from typing import Iterable, List, Optional, Sequence, Set, Union

from repro.core.rules import ImplicationRule, RuleSet, SimilarityRule
from repro.matrix.binary_matrix import Vocabulary

if TYPE_CHECKING:  # networkx is imported where a graph is built
    import networkx as nx


def implication_rule_graph(rules: Iterable[ImplicationRule]) -> nx.DiGraph:
    """Directed graph: edge ``antecedent -> consequent`` per rule.

    Edge attribute ``confidence`` carries the exact confidence.
    """
    import networkx as nx
    graph = nx.DiGraph()
    for rule in rules:
        graph.add_edge(
            rule.antecedent, rule.consequent, confidence=rule.confidence
        )
    return graph


def similarity_rule_graph(rules: Iterable[SimilarityRule]) -> nx.Graph:
    """Undirected graph: edge per similar pair, weighted by similarity."""
    import networkx as nx
    graph = nx.Graph()
    for rule in rules:
        graph.add_edge(rule.first, rule.second, similarity=rule.similarity)
    return graph


def expand_keyword(
    rules: RuleSet,
    seed: Union[int, str],
    vocabulary: Optional[Vocabulary] = None,
    max_depth: Optional[int] = None,
) -> List[ImplicationRule]:
    """Figure 7 expansion: all rules reachable from ``seed``.

    Starting from the seed column (a label when a vocabulary is given),
    collect its outgoing rules, then its consequents' outgoing rules,
    recursively up to ``max_depth`` hops (unbounded by default).  Rules
    are returned in breadth-first discovery order, antecedent-grouped —
    the layout of the paper's figure.
    """
    if isinstance(seed, str):
        if vocabulary is None:
            raise ValueError("a vocabulary is required to resolve a label")
        seed_column = vocabulary.id_of(seed)
    else:
        seed_column = seed

    graph = implication_rule_graph(rules)
    if seed_column not in graph:
        return []

    collected: List[ImplicationRule] = []
    visited: Set[int] = {seed_column}
    frontier = [seed_column]
    depth = 0
    while frontier and (max_depth is None or depth < max_depth):
        next_frontier: List[int] = []
        for antecedent in frontier:
            for consequent in sorted(graph.successors(antecedent)):
                collected.append(rules[(antecedent, consequent)])
                if consequent not in visited:
                    visited.add(consequent)
                    next_frontier.append(consequent)
        frontier = next_frontier
        depth += 1
    return collected


def _bidirectional_graph(
    rules: Iterable[ImplicationRule],
    ones: Optional[Sequence[int]],
    threshold,
) -> nx.DiGraph:
    """The implication graph plus derivable reverse edges.

    DMC mines only the canonical (sparser -> denser) direction, but a
    rule's reverse confidence is ``hits / ones(consequent)``: given the
    pre-scan counts and the threshold, the reverse edge is added
    whenever it also clears the threshold.
    """
    from repro.core.thresholds import as_fraction, confidence_holds

    graph = implication_rule_graph(rules)
    if ones is not None:
        cut = as_fraction(threshold)
        for rule in rules:
            if confidence_holds(
                rule.hits, int(ones[rule.consequent]), cut
            ):
                graph.add_edge(rule.consequent, rule.antecedent)
    return graph


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
    import networkx as nx
    graph = _bidirectional_graph(rules, ones, threshold)
    groups = [
        set(component)
        for component in nx.strongly_connected_components(graph)
        if len(component) > 1
    ]
    groups.sort(key=lambda group: (-len(group), min(group)))
    return groups


def group_implication_dag(
    rules: Iterable[ImplicationRule],
    ones: Optional[Sequence[int]] = None,
    threshold=1,
) -> nx.DiGraph:
    """The condensation: implications *between* equivalence groups.

    Nodes are frozensets of columns (the strongly connected groups,
    including singletons); an edge ``G1 -> G2`` means some attribute of
    ``G1`` implies some attribute of ``G2`` at the mining threshold.
    The result is acyclic, giving a hierarchy of rule groups — the
    "more complicated rules among three or more attributes" the
    paper's conclusion sketches.  See
    :func:`implication_equivalence_groups` for the role of ``ones``.
    """
    import networkx as nx
    graph = _bidirectional_graph(rules, ones, threshold)
    condensation = nx.condensation(graph)
    dag = nx.DiGraph()
    for _, columns in condensation.nodes(data="members"):
        dag.add_node(frozenset(columns))
    for source, target in condensation.edges():
        dag.add_edge(
            frozenset(condensation.nodes[source]["members"]),
            frozenset(condensation.nodes[target]["members"]),
        )
    return dag


def similarity_components(
    rules: Iterable[SimilarityRule],
) -> List[Set[int]]:
    """Groups of mutually-reachable similar columns, largest first.

    This is the Section 7 grouping: each component is a cluster of
    attributes related by pairwise similarity (e.g. mirror pages, or a
    synonym family in the dictionary data).
    """
    import networkx as nx
    graph = similarity_rule_graph(rules)
    components = [set(c) for c in nx.connected_components(graph)]
    components.sort(key=lambda c: (-len(c), min(c)))
    return components


def format_rules(
    rules: Iterable[ImplicationRule],
    vocabulary: Optional[Vocabulary] = None,
    columns: int = 3,
) -> str:
    """Render rules in Figure 7's multi-column ``a -> b`` layout."""
    entries = [rule.format(vocabulary).split(" (")[0] for rule in rules]
    if not entries:
        return "(no rules)"
    width = max(len(e) for e in entries) + 2
    lines = []
    for start in range(0, len(entries), columns):
        chunk = entries[start : start + columns]
        lines.append("".join(e.ljust(width) for e in chunk).rstrip())
    return "\n".join(lines)
