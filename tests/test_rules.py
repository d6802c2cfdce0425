"""Rule value types and RuleSet semantics (repro.core.rules)."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.rules import (
    ImplicationRule,
    RuleSet,
    SimilarityRule,
    canonical_before,
    rule_columns,
)
from repro.matrix.binary_matrix import Vocabulary


class TestCanonicalBefore:
    def test_fewer_ones_comes_first(self):
        assert canonical_before(3, 9, 5, 1)

    def test_more_ones_comes_later(self):
        assert not canonical_before(5, 1, 3, 9)

    def test_tie_broken_by_column_id(self):
        assert canonical_before(4, 1, 4, 2)
        assert not canonical_before(4, 2, 4, 1)

    def test_self_is_not_before_itself(self):
        assert not canonical_before(4, 1, 4, 1)


class TestImplicationRule:
    def test_confidence_is_exact_fraction(self):
        rule = ImplicationRule(0, 1, hits=17, ones=20)
        assert rule.confidence == Fraction(17, 20)

    def test_misses(self):
        rule = ImplicationRule(0, 1, hits=17, ones=20)
        assert rule.misses == 3

    def test_pair(self):
        assert ImplicationRule(3, 7, 4, 5).pair == (3, 7)

    def test_format_without_vocabulary(self):
        assert ImplicationRule(0, 1, 1, 1).format() == "c0 -> c1 (1.000)"

    def test_format_with_vocabulary(self):
        vocabulary = Vocabulary(["polgar", "chess"])
        rule = ImplicationRule(0, 1, hits=9, ones=10)
        assert rule.format(vocabulary) == "polgar -> chess (0.900)"

    def test_frozen(self):
        rule = ImplicationRule(0, 1, 1, 1)
        with pytest.raises(AttributeError):
            rule.hits = 2

    def test_equality_and_hash(self):
        a = ImplicationRule(0, 1, 4, 5)
        b = ImplicationRule(0, 1, 4, 5)
        assert a == b and hash(a) == hash(b)


class TestSimilarityRule:
    def test_similarity_is_exact_fraction(self):
        rule = SimilarityRule(2, 5, intersection=3, union=4)
        assert rule.similarity == Fraction(3, 4)

    def test_pair(self):
        assert SimilarityRule(2, 5, 3, 4).pair == (2, 5)

    def test_format_with_vocabulary(self):
        vocabulary = Vocabulary(["a", "b", "big", "large"])
        rule = SimilarityRule(2, 3, intersection=1, union=2)
        assert rule.format(vocabulary) == "big ~ large (0.500)"

    def test_ordering_is_deterministic(self):
        rules = [SimilarityRule(1, 2, 1, 2), SimilarityRule(0, 3, 1, 2)]
        assert sorted(rules)[0].first == 0


class TestRuleSet:
    def test_add_and_len(self):
        rules = RuleSet()
        rules.add(ImplicationRule(0, 1, 4, 5))
        assert len(rules) == 1

    def test_duplicate_identical_is_ignored(self):
        rules = RuleSet()
        rules.add(ImplicationRule(0, 1, 4, 5))
        rules.add(ImplicationRule(0, 1, 4, 5))
        assert len(rules) == 1

    def test_conflicting_duplicate_raises(self):
        rules = RuleSet([ImplicationRule(0, 1, 4, 5)])
        with pytest.raises(ValueError):
            rules.add(ImplicationRule(0, 1, 3, 5))

    def test_pairs(self):
        rules = RuleSet([ImplicationRule(0, 1, 4, 5)])
        assert rules.pairs() == {(0, 1)}

    def test_contains_and_getitem(self):
        rule = ImplicationRule(0, 1, 4, 5)
        rules = RuleSet([rule])
        assert (0, 1) in rules
        assert rules[(0, 1)] == rule

    def test_sorted_is_stable_by_pair(self):
        rules = RuleSet(
            [
                ImplicationRule(2, 3, 1, 1),
                ImplicationRule(0, 9, 1, 1),
                ImplicationRule(0, 1, 1, 1),
            ]
        )
        assert [r.pair for r in rules.sorted()] == [
            (0, 1), (0, 9), (2, 3),
        ]

    def test_update(self):
        rules = RuleSet()
        rules.update([ImplicationRule(0, 1, 1, 1), ImplicationRule(1, 2, 1, 1)])
        assert len(rules) == 2

    def test_only_integer_pairs_match(self):
        rules = RuleSet([ImplicationRule(0, 1, 4, 5)])
        assert len(rules) == 1  # a read before and after the lookups
        for pair in ((0.5, 1), ("0", "1"), (0.0, 1.0), (0, 1, 2), 0, None):
            assert pair not in rules
            with pytest.raises(KeyError):
                rules[pair]
        with pytest.raises(KeyError):
            rules[(0.5, 1.2)]
        for pair in ((np.int64(0), np.int32(1)), np.array([0, 1])):
            assert pair in rules
            assert rules[pair] == ImplicationRule(0, 1, 4, 5)
        assert len(rules) == 1

    def test_update_is_atomic(self):
        kept = ImplicationRule(5, 6, 1, 1)
        batch = [
            ImplicationRule(0, 1, 4, 5),
            ImplicationRule(1, 2, 1, 1),
            ImplicationRule(0, 1, 3, 5),  # clashes with the first
        ]
        rules = RuleSet([kept])
        with pytest.raises(ValueError, match="conflicting"):
            rules.update(batch)
        with pytest.raises(ValueError, match="conflicting"):
            rules.update(iter(batch))
        with pytest.raises(ValueError, match="conflicting"):
            rules.update(
                [ImplicationRule(1, 2, 1, 1), ImplicationRule(5, 6, 0, 1)]
            )
        with pytest.raises(ValueError, match="one rule kind"):
            rules.update(
                [ImplicationRule(1, 2, 1, 1), SimilarityRule(3, 4, 1, 1)]
            )
        assert rules.sorted() == [kept]
        with pytest.raises(ValueError, match="conflicting"):
            RuleSet(batch)

    def test_equality(self):
        a = RuleSet([ImplicationRule(0, 1, 1, 1)])
        b = RuleSet([ImplicationRule(0, 1, 1, 1)])
        assert a == b

    def test_iter(self):
        rules = RuleSet([ImplicationRule(0, 1, 1, 1)])
        assert [r.pair for r in rules] == [(0, 1)]

    def test_iteration_follows_pair_order(self):
        rules = RuleSet([ImplicationRule(2, 3, 1, 1)])
        rules.add_columns(ImplicationRule, [0, 5], [9, 1], [1, 2], [1, 2])
        rules.add(ImplicationRule(0, 1, 1, 1))
        assert [r.pair for r in rules] == [(0, 1), (0, 9), (2, 3), (5, 1)]

    def test_copy_from_a_rule_set(self):
        rules = RuleSet([SimilarityRule(0, 1, 1, 2)])
        rules.add_columns(SimilarityRule, [3], [4], [2], [3])
        copy = RuleSet(rules)
        assert copy == rules and copy.kind is SimilarityRule
        assert copy.sorted() == rules.sorted()


class TestRuleSetLimits:
    """The columnar layout's limits raise ValueError and change nothing."""

    def test_column_id_of_2_31_raises(self):
        rules = RuleSet([ImplicationRule(0, 1, 1, 1)])
        for left, right in ((2**31, 0), (0, 2**31), (-1, 0)):
            with pytest.raises(ValueError, match="column ids"):
                rules.add(ImplicationRule(left, right, 1, 1))
            with pytest.raises(ValueError, match="column ids"):
                rules.add_columns(
                    ImplicationRule, [left], [right], [1], [1]
                )
        rules.add(ImplicationRule(2**31 - 1, 0, 1, 1))
        assert rules.pairs() == {(0, 1), (2**31 - 1, 0)}
        assert (2**31, 0) not in rules

    @pytest.mark.parametrize("count", [2**63, -(2**63) - 1, 2**80])
    def test_count_outside_int64_raises(self, count):
        rules = RuleSet([SimilarityRule(0, 1, 1, 2)])
        with pytest.raises(ValueError, match="int64"):
            rules.add(SimilarityRule(1, 2, 1, count))
        with pytest.raises(ValueError, match="int64"):
            rules.add_many([SimilarityRule(1, 2, count, 1)])
        with pytest.raises(ValueError, match="int64"):
            rules.add_columns(SimilarityRule, [1], [2], [1], [count])
        if count > 0:
            with pytest.raises(ValueError, match="int64"):
                rules.add_columns(
                    SimilarityRule, [1], [2], [1],
                    np.array([min(count, 2**64 - 1)], dtype=np.uint64),
                )
        assert rules.pairs() == {(0, 1)}

    def test_fractional_id_or_count_raises(self):
        """Non-integral ids and counts are refused, never truncated."""
        with pytest.raises(ValueError, match="integers"):
            RuleSet([ImplicationRule(0.9, 1, 1, 1)])
        rules = RuleSet([ImplicationRule(0, 1, 1, 1)])
        with pytest.raises(ValueError, match="integers"):
            rules.add(ImplicationRule(2, 3, 1.5, 2))
        with pytest.raises(ValueError, match="integers"):
            rules.add_columns(ImplicationRule, [2], [3.5], [1], [2])
        rules.add(ImplicationRule(2.0, 3, 1, 2))  # integral: taken as 2
        assert rules.pairs() == {(0, 1), (2, 3)}

    def test_mixing_kinds_raises(self):
        rules = RuleSet([ImplicationRule(0, 1, 1, 1)])
        with pytest.raises(ValueError, match="one rule kind"):
            rules.add(SimilarityRule(2, 3, 1, 1))
        with pytest.raises(ValueError, match="one rule kind"):
            rules.add_columns(SimilarityRule, [2], [3], [1], [1])
        with pytest.raises(ValueError, match="one rule kind"):
            RuleSet().add_many(
                [ImplicationRule(0, 1, 1, 1), SimilarityRule(2, 3, 1, 1)]
            )
        assert rules.kind is ImplicationRule and len(rules) == 1
        # An empty batch of the other kind adds nothing, so it is fine.
        rules.add_columns(SimilarityRule, [], [], [], [])
        rules.add_many([])
        assert len(rules) == 1


# ----------------------------------------------------------------------
# RuleSet against a plain pair-keyed dict
# ----------------------------------------------------------------------

KINDS = (ImplicationRule, SimilarityRule)

#: Few ids and counts, so identical duplicates and conflicts are common;
#: the largest id still fits the pair key.
_ids = st.sampled_from([0, 1, 2, 3, 2**31 - 1])
_counts = st.integers(min_value=0, max_value=2)


@st.composite
def _rules(draw, kind=None):
    kind = kind if kind is not None else draw(st.sampled_from(KINDS))
    return kind(draw(_ids), draw(_ids), draw(_counts), draw(_counts))


@st.composite
def _operations(draw):
    kind = draw(st.sampled_from(KINDS))
    # Mostly one kind, as a real run; now and then the other kind, which
    # must raise.
    rule = st.one_of(_rules(kind), _rules(kind), _rules(kind), _rules())
    batch = st.lists(rule, max_size=6)
    return draw(st.lists(
        st.one_of(
            st.tuples(st.just("add"), rule),
            st.tuples(st.just("add_many"), batch),
            st.tuples(st.just("add_columns"), st.lists(_rules(kind), max_size=6)),
            st.tuples(st.just("update"), batch),
            st.tuples(st.just("update_set"), batch),
        ),
        max_size=12,
    ))


class _Model:
    """What a RuleSet means: a pair-keyed dict of one kind."""

    def __init__(self):
        self.rules = {}

    def kind(self):
        return type(next(iter(self.rules.values()), None))

    def add(self, rule):
        if self.rules and type(rule) is not self.kind():
            raise ValueError("one rule kind")
        existing = self.rules.get(rule.pair)
        if existing is None:
            self.rules[rule.pair] = rule
        elif existing != rule:
            raise ValueError("conflicting")

    def add_batch(self, rules):
        """All or nothing."""
        trial = dict(self.rules)
        for rule in rules:
            if trial and type(rule) is not type(next(iter(trial.values()))):
                raise ValueError("one rule kind")
            if trial.setdefault(rule.pair, rule) != rule:
                raise ValueError("conflicting")
        self.rules = trial


def _apply(rules, model, operation):
    """Run ``operation`` on both; the set raises exactly when the model
    does, and a batch that raises changes neither."""
    name, argument = operation
    if name == "add":
        steps = (lambda: model.add(argument), lambda: rules.add(argument))
    elif name == "add_many":
        steps = (
            lambda: model.add_batch(argument),
            lambda: rules.add_many(argument),
        )
    elif name == "add_columns":
        kind, *columns = rule_columns(argument)
        steps = (
            lambda: model.add_batch(argument),
            lambda: rules.add_columns(kind or ImplicationRule, *columns),
        )
    elif name == "update":
        steps = (
            lambda: model.add_batch(argument),
            lambda: rules.update(argument),
        )
    else:
        built = _Model()
        try:
            built.add_batch(argument)
        except ValueError:
            with pytest.raises(ValueError):
                RuleSet(argument)
            return
        other = RuleSet(argument)
        _assert_matches(other, built)
        steps = (
            lambda: model.add_batch(list(built.rules.values())),
            lambda: rules.update(other),
        )
    on_model, on_rules = steps
    try:
        on_model()
    except ValueError:
        with pytest.raises(ValueError):
            on_rules()
    else:
        on_rules()


def _assert_matches(rules, model):
    want = sorted(model.rules.items())
    assert len(rules) == len(want)
    assert rules.pairs() == set(model.rules)
    assert [rule.pair for rule in rules.sorted()] == [p for p, _ in want]
    assert rules.sorted() == [rule for _, rule in want]
    assert list(rules) == rules.sorted()
    for pair, rule in want:
        assert pair in rules and rules[pair] == rule
        left, right = pair
        assert rules[(np.int64(left), np.int32(right))] == rule
        # Only integer ids match: no float, string or truncated key.
        for other in (
            (left + 0.5, right), (float(left), float(right)),
            (str(left), str(right)), (left + 0.5, right + 0.2),
        ):
            assert other not in rules
            with pytest.raises(KeyError):
                rules[other]
    for pair in ((4, 4), (0, 2**31), (2**31 - 1, 2**31 - 1)):
        if pair not in model.rules:
            assert pair not in rules
            with pytest.raises(KeyError):
                rules[pair]
    assert rules == RuleSet(rule for _, rule in want)
    assert (rules.kind is None) == (not want)
    if want:
        assert rules.kind is model.kind()
        other_kind = next(k for k in KINDS if k is not rules.kind)
        assert rules != RuleSet([other_kind(*want[0][1].pair, 1, 1)])


class TestRuleSetModel:
    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_operations())
    def test_matches_a_dict(self, operations):
        rules, model = RuleSet(), _Model()
        for operation in operations:
            _apply(rules, model, operation)
            _assert_matches(rules, model)
