"""Rule-set diffing (repro.mining.diff)."""

import numpy as np
import pytest

from repro.core.rules import ImplicationRule, RuleSet, SimilarityRule
from repro.matrix.binary_matrix import Vocabulary
from repro.mining.diff import diff_rules


def _set(*rules):
    return RuleSet(rules)


class TestDiffRules:
    def test_identical_sets(self):
        rules = _set(ImplicationRule(0, 1, 4, 5))
        diff = diff_rules(rules, rules)
        assert diff.is_empty
        assert diff.unchanged == 1

    def test_added_and_removed(self):
        before = _set(ImplicationRule(0, 1, 4, 5))
        after = _set(ImplicationRule(2, 3, 1, 1))
        diff = diff_rules(before, after)
        assert diff.added.pairs() == {(2, 3)}
        assert diff.removed.pairs() == {(0, 1)}
        assert not diff.is_empty

    def test_changed_statistics(self):
        before = _set(ImplicationRule(0, 1, 4, 5))
        after = _set(ImplicationRule(0, 1, 5, 6))
        diff = diff_rules(before, after)
        assert len(diff.changed) == 1
        assert diff.changed[0][0].hits == 4
        assert diff.changed[0][1].hits == 5

    def test_threshold_diff_on_real_mining(self):
        from repro.core.dmc_imp import find_implication_rules
        from tests.conftest import random_binary_matrix

        matrix = random_binary_matrix(33)
        low = find_implication_rules(matrix, 0.5)
        high = find_implication_rules(matrix, 0.9)
        diff = diff_rules(low, high)
        # Raising the threshold only removes rules.
        assert len(diff.added) == 0
        assert not diff.changed
        assert len(diff.removed) == len(low) - len(high)

    def test_render_empty(self):
        rules = _set(ImplicationRule(0, 1, 1, 1))
        assert "no differences" in diff_rules(rules, rules).render()

    def test_render_with_labels(self):
        vocabulary = Vocabulary(["a", "b"])
        before = RuleSet()
        after = _set(ImplicationRule(0, 1, 1, 1))
        text = diff_rules(before, after).render(vocabulary)
        assert "+ a -> b" in text


def _columnar_set(kind, generator, size, n_columns):
    """``size`` distinct random pairs of ``kind``, built from columns."""
    keys = generator.choice(n_columns * n_columns, size, replace=False)
    left, right = np.divmod(keys, n_columns)
    whole = generator.integers(1, 4, size)
    part = generator.integers(0, 2, size) + whole - 1
    rules = RuleSet()
    rules.add_columns(kind, left, right, part, whole)
    return rules


class TestColumnarDiff:
    @pytest.mark.parametrize("kind", [ImplicationRule, SimilarityRule])
    def test_matches_a_dict_diff(self, kind):
        """Two ~10k-rule sets that overlap: the merge of sorted keys
        agrees with a pair-by-pair diff of plain dicts."""
        generator = np.random.default_rng(7)
        before = _columnar_set(kind, generator, 10_000, 150)
        after = _columnar_set(kind, generator, 10_000, 150)
        old = {rule.pair: rule for rule in before}
        new = {rule.pair: rule for rule in after}
        diff = diff_rules(before, after)
        assert diff.added.sorted() == [
            new[pair] for pair in sorted(new.keys() - old.keys())
        ]
        assert diff.removed.sorted() == [
            old[pair] for pair in sorted(old.keys() - new.keys())
        ]
        common = sorted(old.keys() & new.keys())
        assert diff.changed == [
            (old[pair], new[pair]) for pair in common
            if old[pair] != new[pair]
        ]
        assert diff.changed and diff.unchanged
        assert diff.unchanged == len(common) - len(diff.changed)
        assert diff.added.kind in (kind, None)
        assert diff_rules(after, after).is_empty

    def test_rejects_two_kinds(self):
        with pytest.raises(ValueError, match="cannot diff"):
            diff_rules(
                _set(ImplicationRule(0, 1, 1, 1)),
                _set(SimilarityRule(0, 1, 1, 1)),
            )
