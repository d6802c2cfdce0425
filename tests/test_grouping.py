"""Rule grouping and keyword expansion (repro.mining.grouping)."""

import graphlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rules import ImplicationRule, RuleSet, SimilarityRule
from repro.matrix.binary_matrix import Vocabulary
from repro.mining.grouping import (
    expand_keyword,
    format_rules,
    group_implication_dag,
    implication_equivalence_groups,
    similarity_components,
)


@pytest.fixture
def chess_rules():
    """A miniature Figure 7 rule graph: 0=polgar, 1=judit, 2=chess,
    3=kasparov, 4=unrelated."""
    return RuleSet(
        [
            ImplicationRule(0, 1, 9, 10),
            ImplicationRule(0, 2, 10, 10),
            ImplicationRule(1, 3, 9, 10),
            ImplicationRule(3, 2, 19, 20),
            ImplicationRule(4, 2, 5, 5),
        ]
    )


@pytest.fixture
def chess_vocabulary():
    return Vocabulary(["polgar", "judit", "chess", "kasparov", "other"])


class TestExpandKeyword:
    def test_expansion_reaches_successors(self, chess_rules):
        expanded = expand_keyword(chess_rules, 0)
        pairs = {rule.pair for rule in expanded}
        # polgar -> {judit, chess}; judit -> kasparov; kasparov -> chess.
        assert pairs == {(0, 1), (0, 2), (1, 3), (3, 2)}

    def test_unrelated_rules_excluded(self, chess_rules):
        expanded = expand_keyword(chess_rules, 0)
        assert all(rule.antecedent != 4 for rule in expanded)

    def test_depth_limit(self, chess_rules):
        expanded = expand_keyword(chess_rules, 0, max_depth=1)
        assert {rule.pair for rule in expanded} == {(0, 1), (0, 2)}

    def test_label_seed(self, chess_rules, chess_vocabulary):
        expanded = expand_keyword(
            chess_rules, "polgar", vocabulary=chess_vocabulary
        )
        assert expanded[0].antecedent == 0

    def test_label_without_vocabulary_rejected(self, chess_rules):
        with pytest.raises(ValueError):
            expand_keyword(chess_rules, "polgar")

    def test_unknown_seed_returns_empty(self, chess_rules):
        assert expand_keyword(chess_rules, 99) == []

    def test_unknown_label_returns_empty(self, chess_rules, chess_vocabulary):
        # Support pruning can drop the keyword from the vocabulary.
        assert expand_keyword(
            chess_rules, "fischer", vocabulary=chess_vocabulary
        ) == []

    def test_plain_rule_list_accepted(self, chess_rules):
        assert expand_keyword(list(chess_rules), 0) == expand_keyword(
            chess_rules, 0
        )

    def test_breadth_first_order(self, chess_rules):
        expanded = expand_keyword(chess_rules, 0)
        # Depth-1 rules (antecedent 0) come before depth-2 rules.
        antecedents = [rule.antecedent for rule in expanded]
        assert antecedents[:2] == [0, 0]

    def test_cycles_terminate(self):
        rules = RuleSet(
            [ImplicationRule(0, 1, 5, 5), ImplicationRule(1, 0, 5, 6)]
        )
        expanded = expand_keyword(rules, 0)
        assert {rule.pair for rule in expanded} == {(0, 1), (1, 0)}


class TestSimilarityComponents:
    def test_components_found(self):
        rules = [
            SimilarityRule(0, 1, 3, 4),
            SimilarityRule(1, 2, 3, 4),
            SimilarityRule(5, 6, 2, 2),
        ]
        components = similarity_components(rules)
        assert components == [{0, 1, 2}, {5, 6}]

    def test_largest_component_first(self):
        rules = [
            SimilarityRule(7, 8, 1, 1),
            SimilarityRule(0, 1, 1, 1),
            SimilarityRule(1, 2, 1, 1),
        ]
        assert len(similarity_components(rules)[0]) == 3

    def test_empty_rules(self):
        assert similarity_components([]) == []


class TestFormatRules:
    def test_layout_columns(self, chess_rules, chess_vocabulary):
        text = format_rules(
            expand_keyword(chess_rules, 0), chess_vocabulary, columns=2
        )
        lines = text.splitlines()
        assert "polgar -> judit" in lines[0]
        assert "polgar -> chess" in lines[0]

    def test_empty(self):
        assert format_rules([]) == "(no rules)"

    def test_labels_with_parentheses_kept(self):
        vocabulary = Vocabulary(["new york (city)", "nyc"])
        text = format_rules([ImplicationRule(0, 1, 3, 3)], vocabulary)
        assert text == "new york (city) -> nyc"


class TestEquivalenceGroups:
    def test_mutual_implications_form_a_group(self):
        rules = RuleSet(
            [
                ImplicationRule(0, 1, 9, 10),
                ImplicationRule(1, 0, 9, 10),
                ImplicationRule(2, 0, 5, 5),  # one-way only
            ]
        )
        groups = implication_equivalence_groups(rules)
        assert groups == [{0, 1}]

    def test_cycle_of_three(self):
        rules = RuleSet(
            [
                ImplicationRule(0, 1, 1, 1),
                ImplicationRule(1, 2, 1, 1),
                ImplicationRule(2, 0, 1, 1),
            ]
        )
        assert implication_equivalence_groups(rules) == [{0, 1, 2}]

    def test_largest_group_first(self):
        rules = RuleSet(
            [
                ImplicationRule(0, 1, 1, 1),
                ImplicationRule(1, 0, 1, 1),
                ImplicationRule(2, 3, 1, 1),
                ImplicationRule(3, 4, 1, 1),
                ImplicationRule(4, 2, 1, 1),
            ]
        )
        groups = implication_equivalence_groups(rules)
        assert [len(g) for g in groups] == [3, 2]

    def test_no_groups_in_a_dag(self):
        rules = RuleSet(
            [ImplicationRule(0, 1, 1, 1), ImplicationRule(1, 2, 1, 1)]
        )
        assert implication_equivalence_groups(rules) == []

    def test_identical_columns_group_on_real_data(self):
        from repro.core.dmc_imp import find_implication_rules
        from repro.matrix.binary_matrix import BinaryMatrix
        # Columns 0 and 1 identical => mutual 100% implication.
        matrix = BinaryMatrix(
            [[0, 1], [0, 1], [2], [0, 1, 2]], n_columns=3
        )
        rules = find_implication_rules(matrix, 1)
        # Canonical mining emits only 0 => 1; the reverse edge is
        # derivable from the pre-scan counts.
        groups = implication_equivalence_groups(
            rules, ones=matrix.column_ones(), threshold=1
        )
        assert groups == [{0, 1}]
        # Without the counts, no reverse edges => no groups.
        assert implication_equivalence_groups(rules) == []


class TestGroupDag:
    def test_condensation_is_acyclic(self):
        rules = RuleSet(
            [
                ImplicationRule(0, 1, 1, 1),
                ImplicationRule(1, 0, 1, 1),
                ImplicationRule(1, 2, 1, 1),
            ]
        )
        dag = group_implication_dag(rules)
        # static_order() raises CycleError on a cycle.
        assert len(list(graphlib.TopologicalSorter(dag).static_order())) == 2
        assert dag == {
            frozenset({0, 1}): {frozenset({2})},
            frozenset({2}): set(),
        }

    def test_singletons_kept_as_nodes(self):
        rules = RuleSet([ImplicationRule(0, 1, 1, 1)])
        dag = group_implication_dag(rules)
        assert dag == {frozenset({0}): {frozenset({1})}, frozenset({1}): set()}

    def test_empty_rules(self):
        assert group_implication_dag([]) == {}
        assert implication_equivalence_groups([], ones=[], threshold=1) == []


class TestReverseEdgeBoundary:
    """A reverse edge ``c -> a`` exists exactly when ``hits / ones[c]``
    reaches the threshold, including when ``ones[c] * θ`` is whole."""

    @pytest.mark.parametrize(
        "hits, grouped", [(3, True), (2, False)], ids=["at", "below"]
    )
    def test_boundary(self, hits, grouped):
        # ones[1] * 3/4 == 3: hits 3 gives 1 -> 0 at exactly 3/4.
        rules = RuleSet([ImplicationRule(0, 1, hits, 3)])
        groups = implication_equivalence_groups(
            rules, ones=[3, 4], threshold=Fraction(3, 4)
        )
        assert groups == ([{0, 1}] if grouped else [])


# -- the networkx oracle -------------------------------------------------

THRESHOLDS = [Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1)]


@st.composite
def rule_graphs(draw):
    """``(ones, threshold, implication rules)`` over a few columns.

    Small counts and thresholds with small denominators put many
    reverse edges exactly on their boundary; dense pair sets give
    cycles, and unconnected columns stay singletons.
    """
    n = draw(st.integers(1, 7))
    ones = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            unique=True,
            max_size=3 * n,
        )
    )
    rules = [
        ImplicationRule(
            a, c, draw(st.integers(1, min(ones[a], ones[c]))), ones[a]
        )
        for a, c in pairs
    ]
    return ones, draw(st.sampled_from(THRESHOLDS)), rules


def _oracle_graph(nx, rules, ones, threshold):
    graph = nx.DiGraph()
    for rule in rules:
        graph.add_edge(rule.antecedent, rule.consequent)
        if (
            ones is not None
            and Fraction(rule.hits, ones[rule.consequent]) >= threshold
        ):
            graph.add_edge(rule.consequent, rule.antecedent)
    return graph


def _oracle_expand(nx, rules, seed, max_depth):
    graph = nx.DiGraph([rule.pair for rule in rules])
    by_pair = {rule.pair: rule for rule in rules}
    if seed not in graph:
        return []
    collected, visited, frontier, depth = [], {seed}, [seed], 0
    while frontier and (max_depth is None or depth < max_depth):
        next_frontier = []
        for antecedent in frontier:
            for consequent in sorted(graph.successors(antecedent)):
                collected.append(by_pair[(antecedent, consequent)])
                if consequent not in visited:
                    visited.add(consequent)
                    next_frontier.append(consequent)
        frontier = next_frontier
        depth += 1
    return collected


@settings(max_examples=200, deadline=None)
@given(rule_graphs(), st.booleans())
def test_grouping_matches_networkx(case, with_ones):
    nx = pytest.importorskip("networkx")
    ones, threshold, rules = case
    counts = ones if with_ones else None
    graph = _oracle_graph(nx, rules, counts, threshold)

    groups = implication_equivalence_groups(rules, counts, threshold)
    expected = [
        set(c) for c in nx.strongly_connected_components(graph) if len(c) > 1
    ]
    assert groups == sorted(expected, key=lambda g: (-len(g), min(g)))

    dag = group_implication_dag(RuleSet(rules), counts, threshold)
    condensation = nx.condensation(graph)
    members = nx.get_node_attributes(condensation, "members")
    assert dag == {
        frozenset(members[node]): {
            frozenset(members[target])
            for target in condensation.successors(node)
        }
        for node in condensation.nodes
    }
    assert len(list(graphlib.TopologicalSorter(dag).static_order())) == len(
        dag
    )

    similar = [SimilarityRule(a, c, 1, 2) for a, c in {r.pair for r in rules}]
    undirected = nx.Graph([rule.pair for rule in similar])
    components = [set(c) for c in nx.connected_components(undirected)]
    assert similarity_components(similar) == sorted(
        components, key=lambda c: (-len(c), min(c))
    )

    for seed in range(len(ones) + 1):
        for max_depth in (None, 0, 1, 2):
            assert expand_keyword(
                rules, seed, max_depth=max_depth
            ) == _oracle_expand(nx, rules, seed, max_depth)
