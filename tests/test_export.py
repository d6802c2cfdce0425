"""Rule serialization (repro.mining.export)."""

import json
import os

import numpy as np
import pytest

import repro

from repro.baselines.bruteforce import (
    implication_rules_bruteforce,
    similarity_rules_bruteforce,
)
from repro.core.rules import ImplicationRule, RuleSet, SimilarityRule
from repro.core.stats import PipelineStats
from repro.matrix.binary_matrix import Vocabulary
from repro.mining.export import (
    implication_rules_from_csv,
    implication_rules_to_csv,
    rules_from_json,
    rules_to_json,
    rules_to_text,
    similarity_rules_from_csv,
    similarity_rules_to_csv,
    stats_from_json,
    stats_to_json,
)
from tests.conftest import random_binary_matrix


class TestText:
    def test_one_line_per_rule_sorted(self):
        rules = RuleSet(
            [
                ImplicationRule(2, 3, 1, 1),
                ImplicationRule(0, 1, 1, 2),
            ]
        )
        lines = rules_to_text(rules).splitlines()
        assert lines == ["c0 -> c1 (0.500)", "c2 -> c3 (1.000)"]

    def test_labels_used_when_available(self):
        rules = RuleSet([ImplicationRule(0, 1, 1, 1)])
        vocabulary = Vocabulary(["jam", "butter"])
        assert rules_to_text(rules, vocabulary) == "jam -> butter (1.000)"


class TestCsvRoundTrip:
    def test_implication(self, tmp_path):
        matrix = random_binary_matrix(3)
        rules = implication_rules_bruteforce(matrix, 0.6)
        path = str(tmp_path / "rules.csv")
        implication_rules_to_csv(rules, path)
        assert implication_rules_from_csv(path) == rules

    def test_similarity(self, tmp_path):
        matrix = random_binary_matrix(4)
        rules = similarity_rules_bruteforce(matrix, 0.4)
        path = str(tmp_path / "pairs.csv")
        similarity_rules_to_csv(rules, path)
        assert similarity_rules_from_csv(path) == rules

    def test_empty_rule_set(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        implication_rules_to_csv(RuleSet(), path)
        assert len(implication_rules_from_csv(path)) == 0

    @pytest.mark.parametrize("rules, write", [
        (RuleSet([SimilarityRule(0, 1, 1, 2)]), implication_rules_to_csv),
        (RuleSet([ImplicationRule(0, 1, 1, 2)]), similarity_rules_to_csv),
    ])
    def test_wrong_kind_rejected_before_the_file(
        self, tmp_path, rules, write
    ):
        """The wrong rule kind raises before anything is written: no
        header-only file is left behind."""
        path = str(tmp_path / "wrong.csv")
        with pytest.raises(ValueError):
            write(rules, path)
        assert not os.path.exists(path)


class TestJsonRoundTrip:
    def test_implication(self):
        matrix = random_binary_matrix(5)
        rules = implication_rules_bruteforce(matrix, 0.7)
        assert rules_from_json(rules_to_json(rules)) == rules

    def test_similarity(self):
        matrix = random_binary_matrix(6)
        rules = similarity_rules_bruteforce(matrix, 0.5)
        assert rules_from_json(rules_to_json(rules)) == rules

    def test_labels_embedded(self):
        rules = RuleSet([ImplicationRule(0, 1, 1, 1)])
        vocabulary = Vocabulary(["jam", "butter"])
        document = rules_to_json(rules, vocabulary)
        assert '"antecedent_label": "jam"' in document

    def test_tampered_confidence_rejected(self):
        rules = RuleSet([ImplicationRule(0, 1, 1, 2)])
        document = rules_to_json(rules).replace("1/2", "3/4")
        with pytest.raises(ValueError):
            rules_from_json(document)

    def test_fractional_column_rejected(self):
        document = rules_to_json(RuleSet([ImplicationRule(1, 2, 1, 2)]))
        record = json.loads(document)
        record["rules"][0]["antecedent"] = 1.5
        with pytest.raises(ValueError, match="integers"):
            rules_from_json(json.dumps(record))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            rules_from_json('{"rules": [{"kind": "bogus"}]}')

    def test_unreduced_fractions_accepted(self):
        """A fraction field is checked by value: ``"2/4"`` for 1/2 and
        ``"3/3"`` for a 100% rule load."""
        rules = RuleSet(
            [ImplicationRule(0, 1, 2, 4), ImplicationRule(2, 3, 3, 3)]
        )
        document = rules_to_json(rules)
        document = document.replace('"1/2"', '"2/4"').replace('"1"', '"3/3"')
        assert '"2/4"' in document and '"3/3"' in document
        assert rules_from_json(document) == rules

    def test_mixed_kinds_rejected(self):
        records = [
            json.loads(rules_to_json(RuleSet([kind(0, 1, 1, 2)])))["rules"][0]
            for kind in (ImplicationRule, SimilarityRule)
        ]
        with pytest.raises(ValueError, match="one rule kind"):
            rules_from_json(json.dumps({"rules": records}))

    def test_stats_round_trip_and_stats_less_document(self):
        """``stats_from_json`` reads the stats of a rules document, and
        refuses one that carries none instead of returning zeros."""
        result = repro.mine(
            [["a", "b"], ["a", "b", "c"], ["b"]], minconf="1/2"
        )
        document = rules_to_json(result.rules, None, result.stats)
        assert (
            stats_from_json(document).to_dict() == result.stats.to_dict()
        )
        with pytest.raises(ValueError, match="carries no stats"):
            stats_from_json(rules_to_json(result.rules))

    def test_exact_fractions_survive(self):
        rules = RuleSet([ImplicationRule(0, 1, hits=1, ones=3)])
        loaded = rules_from_json(rules_to_json(rules))
        from fractions import Fraction

        assert loaded[(0, 1)].confidence == Fraction(1, 3)


def _reference_json(rules, vocabulary=None, stats=None):
    """The document as dicts through ``json.dumps(..., indent=2)``."""
    records = []
    for rule in rules.sorted():
        if isinstance(rule, ImplicationRule):
            pair = ("antecedent", "consequent")
            record = {
                "kind": "implication",
                "antecedent": rule.antecedent,
                "consequent": rule.consequent,
                "hits": rule.hits,
                "ones": rule.ones,
                "confidence": str(rule.confidence),
            }
        else:
            pair = ("first", "second")
            record = {
                "kind": "similarity",
                "first": rule.first,
                "second": rule.second,
                "intersection": rule.intersection,
                "union": rule.union,
                "similarity": str(rule.similarity),
            }
        if vocabulary is not None:
            for key in pair:
                record[f"{key}_label"] = vocabulary.label_of(record[key])
        records.append(record)
    document = {"rules": records}
    if stats is not None:
        document["stats"] = stats.to_dict()
    return json.dumps(document, indent=2)


class _CyclicVocabulary(Vocabulary):
    """Labels ids of any size: the ``id % len``-th label, then the id."""

    def label_of(self, column: int) -> str:
        labels = self.labels()
        return f"{labels[column % len(labels)]}#{column}"


class TestJsonLayout:
    """rules_to_json writes its records from piece tables; the bytes must
    stay exactly those of the indenting JSON encoder."""

    LABELS = [
        'say "hi"', "back\\slash", "café", "日本語", "tab\there",
        "new\nline", "plain", "x", "y", "z",
    ]

    @pytest.fixture(scope="class")
    def transactions(self):
        rows = random_binary_matrix(9, max_rows=40, max_columns=10)
        return [
            [self.LABELS[column] for column in row]
            for _, row in rows.iter_rows()
        ]

    @pytest.mark.parametrize("threshold", [
        {"minconf": "3/5"}, {"minconf": 1}, {"minsim": "1/5"},
    ])
    def test_matches_the_indenting_encoder(self, transactions, threshold):
        result = repro.mine(transactions, **threshold)
        assert len(result.rules) > 0
        for vocabulary in (None, result.vocabulary):
            for stats in (None, result.stats):
                assert rules_to_json(
                    result.rules, vocabulary, stats
                ) == _reference_json(result.rules, vocabulary, stats)

    def test_edge_records(self):
        vocabulary = Vocabulary(self.LABELS[:4])
        for rules in (
            RuleSet(),
            RuleSet([ImplicationRule(0, 1, 0, 3), ImplicationRule(2, 3, 4, 4)]),
            RuleSet([SimilarityRule(0, 1, 2, 6), SimilarityRule(2, 3, 5, 5)]),
        ):
            for labels in (None, vocabulary):
                assert rules_to_json(rules, labels) == _reference_json(
                    rules, labels
                )

    def test_repeated_and_huge_fractions(self):
        """Each distinct ``(part, whole)`` is formatted once and gathered
        back to its records: many repeats, ``part == whole``, pairs that
        reduce to the same fraction, and counts near ``2**62`` (in both
        sort keys) keep the encoder's bytes."""
        big = 2**62
        counts = [
            (3, 3), (2, 4), (1, 2), (0, 5), (big, big), (big - 1, big),
            (big - 1, big + 1), (big - 2, big + 6), (1, big), (4, 6),
        ]
        for kind in (ImplicationRule, SimilarityRule):
            rules = RuleSet([
                kind(i, 1000 + i, *counts[(7 * i) % len(counts)])
                for i in range(120)
            ])
            assert rules_to_json(rules) == _reference_json(rules)

    def test_piece_tables_at_scale(self):
        """Thousands of rules whose ids span ``[0, 2**31)``: left ids
        that repeat with all-distinct right ids, the converse, and both
        all distinct, plus a one-rule set, so every id and fraction
        piece is gathered back to the right record and only the last
        record loses its separator."""
        rng = np.random.default_rng(36)
        limit = 2**31 - 1
        pool = np.concatenate([[0, limit], rng.integers(0, limit, 18)])
        spread = rng.choice(limit, size=3000, replace=False)
        left = np.concatenate([
            rng.choice(pool, 1000), spread[:1000], spread[1000:2000],
        ])
        right = np.concatenate([
            spread[2000:3000], rng.choice(pool, 1000), spread[2000:3000],
        ])
        pairs = sorted(set(zip(left.tolist(), right.tolist())))
        big = 2**62
        # The edge counts of test_repeated_and_huge_fractions.
        counts = [
            (3, 3), (2, 4), (1, 2), (0, 5), (big, big), (big - 1, big),
            (big - 1, big + 1), (big - 2, big + 6), (1, big), (4, 6),
        ]
        labels = _CyclicVocabulary(self.LABELS)
        stats = PipelineStats(columns_total=5, rules_partial=3)
        for kind in (ImplicationRule, SimilarityRule):
            many = RuleSet([
                kind(a, b, *counts[i % len(counts)])
                for i, (a, b) in enumerate(pairs)
            ])
            one = RuleSet([kind(limit, 0, *counts[6])])
            assert len(many) > 2500
            for rules in (many, one):
                for vocabulary in (None, labels):
                    for with_stats in (None, stats):
                        assert rules_to_json(
                            rules, vocabulary, with_stats
                        ) == _reference_json(rules, vocabulary, with_stats)


    def test_stats_with_edge_values(self):
        """The stats branch is the indenting encoder nested two spaces
        deep: empty lists and curves, big ints, and a string holding a
        newline (escaped, so the re-indent never touches it) match it."""
        result = repro.mine(
            [["a", "b"], ["a", "b", "c"], ["b"]], minconf="1/2"
        )
        stats = PipelineStats.from_dict(result.stats.to_dict())
        stats.hundred_percent_scan.pruning_curve.points = []
        stats.partition_candidates = [0, -1, 2**70]
        stats.degradations = ["spill-to-memory", "line\nbreak"]
        for rules in (RuleSet(), result.rules):
            assert rules_to_json(rules, None, stats) == _reference_json(
                rules, None, stats
            )
        assert stats_to_json(stats) == json.dumps(stats.to_dict(), indent=2)
