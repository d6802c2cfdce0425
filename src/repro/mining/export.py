"""Exporting mined rules: text, CSV, and JSON serializations.

Rule sets survive a round trip through each format — the tests assert
it — so mined results can be archived and diffed across runs.  A JSON
export can additionally carry the run's
:class:`~repro.core.stats.PipelineStats` (``stats=``), so an archived
rule set keeps the provenance of how it was mined;
:func:`stats_to_json` / :func:`stats_from_json` round-trip the stats
on their own.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from typing import Optional

import numpy as np

from repro.core.rules import ImplicationRule, RuleSet, SimilarityRule
from repro.core.stats import PipelineStats
from repro.matrix.binary_matrix import Vocabulary


def rules_to_text(
    rules: RuleSet, vocabulary: Optional[Vocabulary] = None
) -> str:
    """One formatted rule per line, in stable pair order."""
    return "\n".join(rule.format(vocabulary) for rule in rules.sorted())


def implication_rules_to_csv(rules: RuleSet, path: str) -> None:
    """Write implication rules as CSV with exact integer statistics."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["antecedent", "consequent", "hits", "ones"])
        for rule in rules.sorted():
            writer.writerow(
                [rule.antecedent, rule.consequent, rule.hits, rule.ones]
            )


def implication_rules_from_csv(path: str) -> RuleSet:
    """Read rules written by :func:`implication_rules_to_csv`."""
    rules = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        for record in csv.DictReader(handle):
            rules.append(
                ImplicationRule(
                    antecedent=int(record["antecedent"]),
                    consequent=int(record["consequent"]),
                    hits=int(record["hits"]),
                    ones=int(record["ones"]),
                )
            )
    return RuleSet(rules)


def similarity_rules_to_csv(rules: RuleSet, path: str) -> None:
    """Write similar pairs as CSV with exact integer statistics."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["first", "second", "intersection", "union"])
        for rule in rules.sorted():
            writer.writerow(
                [rule.first, rule.second, rule.intersection, rule.union]
            )


def similarity_rules_from_csv(path: str) -> RuleSet:
    """Read pairs written by :func:`similarity_rules_to_csv`."""
    rules = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        for record in csv.DictReader(handle):
            rules.append(
                SimilarityRule(
                    first=int(record["first"]),
                    second=int(record["second"]),
                    intersection=int(record["intersection"]),
                    union=int(record["union"]),
                )
            )
    return RuleSet(rules)


#: Per rule kind: its record laid out exactly as ``json.dumps(document,
#: indent=2)`` nests it in the ``"rules"`` list (minus the closing
#: brace), and the labels that follow the fraction.
_RECORDS = {
    ImplicationRule: (
        '    {\n      "kind": "implication",\n      "antecedent": %d,\n'
        '      "consequent": %d,\n      "hits": %d,\n      "ones": %d,\n'
        '      "confidence": "%s"',
        ',\n      "antecedent_label": %s,\n      "consequent_label": %s',
    ),
    SimilarityRule: (
        '    {\n      "kind": "similarity",\n      "first": %d,\n'
        '      "second": %d,\n      "intersection": %d,\n'
        '      "union": %d,\n      "similarity": "%s"',
        ',\n      "first_label": %s,\n      "second_label": %s',
    ),
}


def rules_to_json(
    rules: RuleSet,
    vocabulary: Optional[Vocabulary] = None,
    stats: Optional[PipelineStats] = None,
) -> str:
    """Serialize a rule set (either kind) to a JSON document.

    Confidences/similarities are emitted as exact ``"p/q"`` strings in
    addition to the integer statistics.  When ``stats`` is given the
    document gains a ``"stats"`` key carrying the run's
    :class:`PipelineStats` (see :func:`stats_from_json`), so the export
    records how its rules were mined.

    The text is byte for byte ``json.dumps(document, indent=2)``, but
    the records are formatted from the set's columns with a fixed
    template instead of dicts run through the indenting encoder.
    """
    left, right, part, whole = rules.columns()
    if len(left):
        record, labels = _RECORDS[rules.kind]
        # Each distinct ``(part, whole)`` is formatted once: the runs of
        # the pairs in lexicographic order, gathered back per record.
        by_pair = np.lexsort((whole, part))
        pairs = np.stack([part, whole])[:, by_pair]
        head = np.ones(len(left), dtype=bool)
        head[1:] = (pairs[:, 1:] != pairs[:, :-1]).any(axis=0)
        run = np.empty(len(left), dtype=np.int64)
        run[by_pair] = np.cumsum(head) - 1
        distinct = pairs[:, head]
        numerator, denominator = distinct // np.gcd(*distinct)
        fractions = np.array([
            f"{p}/{q}" if q != 1 else str(p)
            for p, q in zip(numerator.tolist(), denominator.tolist())
        ], dtype=object)[run].tolist()
        fields = [
            left.tolist(), right.tolist(), part.tolist(), whole.tolist(),
            fractions,
        ]
        template = record
        if vocabulary is not None:
            used, slots = np.unique(
                np.concatenate([left, right]), return_inverse=True
            )
            names = np.array(
                [json.dumps(vocabulary.label_of(c)) for c in used.tolist()],
                dtype=object,
            )[slots]
            fields += [names[:len(left)].tolist(), names[len(left):].tolist()]
            template += labels
        # One ``%`` over the whole list: the fields interleaved record
        # by record, against the template repeated once per record.
        values = [None] * (len(fields) * len(left))
        for slot, field in enumerate(fields):
            values[slot::len(fields)] = field
        records = ",\n".join([template + "\n    }"] * len(left))
        document = '{\n  "rules": [\n' + records % tuple(values) + "\n  ]"
    else:
        document = '{\n  "rules": []'
    if stats is not None:
        document += ',\n  "stats": ' + json.dumps(
            stats.to_dict(), indent=2
        ).replace("\n", "\n  ")
    return document + "\n}"


def rules_from_json(document: str) -> RuleSet:
    """Parse rules serialized by :func:`rules_to_json`.

    The exact-fraction fields are validated against the integer
    statistics on load.
    """
    rules = []
    for record in json.loads(document)["rules"]:
        if record["kind"] == "implication":
            rule = ImplicationRule(
                antecedent=record["antecedent"],
                consequent=record["consequent"],
                hits=record["hits"],
                ones=record["ones"],
            )
            if Fraction(record["confidence"]) != rule.confidence:
                raise ValueError(
                    f"confidence mismatch for {rule.pair}: "
                    f"{record['confidence']}"
                )
        elif record["kind"] == "similarity":
            rule = SimilarityRule(
                first=record["first"],
                second=record["second"],
                intersection=record["intersection"],
                union=record["union"],
            )
            if Fraction(record["similarity"]) != rule.similarity:
                raise ValueError(
                    f"similarity mismatch for {rule.pair}: "
                    f"{record['similarity']}"
                )
        else:
            raise ValueError(f"unknown rule kind {record['kind']!r}")
        rules.append(rule)
    return RuleSet(rules)


def stats_to_json(stats: PipelineStats) -> str:
    """Serialize a run's :class:`PipelineStats` to a JSON document."""
    return json.dumps(stats.to_dict(), indent=2)


def stats_from_json(document: str) -> PipelineStats:
    """Rebuild :class:`PipelineStats` from :func:`stats_to_json` output,
    or from the ``"stats"`` key of a :func:`rules_to_json` document."""
    payload = json.loads(document)
    if "stats" in payload and "rules" in payload:
        payload = payload["stats"]
    return PipelineStats.from_dict(payload)
