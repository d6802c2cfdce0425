"""Post-processing of mined rules (paper Sections 6.3 and 7).

- :mod:`~repro.mining.grouping` — the recursive keyword expansion
  behind Figure 7, equivalence groups of implication rules and their
  condensation, and connected-component grouping of similarity rules
  (the paper's suggested route to >2-column rules), all on the rule
  columns.
- :mod:`~repro.mining.measures` — exact secondary interestingness
  measures (lift, conviction, Dice, ...) for ranking mined rules.
- :mod:`~repro.mining.export` — text/CSV/JSON serialization of rule
  sets with exact statistics.
- :mod:`~repro.mining.verify` — exact verification helpers shared by
  the randomized baselines and the experiment harness.
"""

from repro.mining.diff import RuleDiff, diff_rules
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
from repro.mining.grouping import (
    expand_keyword,
    format_rules,
    group_implication_dag,
    implication_equivalence_groups,
    similarity_components,
)
from repro.mining.measures import (
    conviction,
    dice,
    implication_measures,
    jaccard,
    lift,
    overlap,
    similarity_measures,
    support,
    top_rules,
)
from repro.mining.query import RuleQuery
from repro.mining.summarize import RuleSummary, summarize_rules
from repro.mining.verify import (
    check_no_false_negatives,
    check_no_false_positives,
    verify_implication_rules,
    verify_similarity_rules,
)

__all__ = [
    "RuleDiff",
    "RuleQuery",
    "RuleSummary",
    "check_no_false_negatives",
    "check_no_false_positives",
    "conviction",
    "dice",
    "diff_rules",
    "expand_keyword",
    "format_rules",
    "group_implication_dag",
    "implication_equivalence_groups",
    "implication_measures",
    "implication_rules_from_csv",
    "implication_rules_to_csv",
    "jaccard",
    "lift",
    "overlap",
    "rules_from_json",
    "rules_to_json",
    "rules_to_text",
    "similarity_components",
    "similarity_measures",
    "similarity_rules_from_csv",
    "similarity_rules_to_csv",
    "stats_from_json",
    "stats_to_json",
    "summarize_rules",
    "support",
    "top_rules",
    "verify_implication_rules",
    "verify_similarity_rules",
]
