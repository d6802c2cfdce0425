"""Exporting mined rules: text, CSV, and JSON serializations.

Rule sets survive a round trip through each format — the tests assert
it — so mined results can be archived and diffed across runs.  A JSON
export can additionally carry the run's
:class:`~repro.core.stats.PipelineStats` (``stats=``), so an archived
rule set keeps the provenance of how it was mined;
:func:`stats_to_json` / :func:`stats_from_json` round-trip the stats
on their own.

The CSV and JSON writers work from the set's columns.
:func:`rules_to_json` writes exactly the bytes of the indenting JSON
encoder without building the document: small piece tables, one entry
per distinct left id, right id, ``(part, whole)`` and (with a
vocabulary) label, are gathered back per record and joined once.
:func:`rules_from_json` reads the records into four int64 columns and
checks every exact fraction against its counts in numpy, parsing each
distinct fraction string once.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.rules import ImplicationRule, RuleSet, SimilarityRule
from repro.core.stats import PipelineStats
from repro.matrix.binary_matrix import Vocabulary, int64_array

#: Per rule kind: its ``"kind"`` name, its fields in column order (the
#: pair, then the exact fraction's ``(part, whole)``; also the CSV
#: header) and its exact-fraction field.
_FIELDS = {
    ImplicationRule: (
        "implication", ("antecedent", "consequent", "hits", "ones"),
        "confidence",
    ),
    SimilarityRule: (
        "similarity", ("first", "second", "intersection", "union"),
        "similarity",
    ),
}
_KINDS = {name: kind for kind, (name, _, _) in _FIELDS.items()}


def rules_to_text(
    rules: RuleSet, vocabulary: Optional[Vocabulary] = None
) -> str:
    """One formatted rule per line, in stable pair order."""
    return "\n".join(rule.format(vocabulary) for rule in rules.sorted())


def _rules_to_csv(rules: RuleSet, kind: type, path: str) -> None:
    """Write ``rules``, which must be of ``kind`` (or empty), as CSV
    with exact integer statistics; the wrong kind raises ``ValueError``
    before the file is created."""
    if rules.kind not in (None, kind):
        raise ValueError(
            f"cannot write {rules.kind.__name__}s as "
            f"{kind.__name__} CSV"
        )
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_FIELDS[kind][1])
        writer.writerows(zip(*(column.tolist() for column in rules.columns())))


def _rules_from_csv(path: str, kind: type) -> RuleSet:
    """Read the rules of ``kind`` written by :func:`_rules_to_csv`."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        records = list(csv.DictReader(handle))
    rules = RuleSet()
    if records:
        columns = zip(*map(itemgetter(*_FIELDS[kind][1]), records))
        rules.add_columns(kind, *(list(map(int, c)) for c in columns))
    return rules


def implication_rules_to_csv(rules: RuleSet, path: str) -> None:
    """Write implication rules as CSV with exact integer statistics."""
    _rules_to_csv(rules, ImplicationRule, path)


def implication_rules_from_csv(path: str) -> RuleSet:
    """Read rules written by :func:`implication_rules_to_csv`."""
    return _rules_from_csv(path, ImplicationRule)


def similarity_rules_to_csv(rules: RuleSet, path: str) -> None:
    """Write similar pairs as CSV with exact integer statistics."""
    _rules_to_csv(rules, SimilarityRule, path)


def similarity_rules_from_csv(path: str) -> RuleSet:
    """Read pairs written by :func:`similarity_rules_to_csv`."""
    return _rules_from_csv(path, SimilarityRule)


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

    The text is byte for byte ``json.dumps(document, indent=2)``, but no
    document is built: the record text is cut into pieces that depend on
    one value each, every piece is formatted once per distinct value
    (left id, right id, ``(part, whole)``, and with a vocabulary each
    id's JSON-encoded label), gathered back per record, and the whole
    document is one ``"".join``.
    """
    left, right, part, whole = rules.columns()
    document = ['{\n  "rules": []']
    if len(left):
        name, (first, second, count, total), fraction = _FIELDS[
            rules.kind
        ]
        # ``left`` is in pair order, so its distinct ids are run heads.
        head = np.ones(len(left), dtype=bool)
        head[1:] = left[1:] != left[:-1]
        lefts, left_at = left[head].tolist(), np.cumsum(head) - 1
        rights, right_at = np.unique(right, return_inverse=True)
        rights = rights.tolist()
        close = "\n    },\n"
        after_fraction = close if vocabulary is None else (
            f',\n      "{first}_label": '
        )
        # (table, index) per piece of a record, in record order.
        tables = [
            ([
                f'    {{\n      "kind": "{name}",\n      "{first}": {c},'
                f'\n      "{second}": '
                for c in lefts
            ], left_at),
            ([f'{c},\n      "{count}": ' for c in rights], right_at),
            _fraction_pieces(part, whole, (
                f',\n      "{total}": %d,\n      "{fraction}": "%s"'
                + after_fraction
            )),
        ]
        if vocabulary is not None:
            label = {
                c: json.dumps(vocabulary.label_of(c))
                for c in set(lefts).union(rights)
            }
            tables += [
                ([
                    f'{label[c]},\n      "{second}_label": ' for c in lefts
                ], left_at),
                ([label[c] + close for c in rights], right_at),
            ]
        # Interleave the per-record pieces; the last record ends the
        # list, so it drops its ",\n".
        document = [None] * (len(tables) * len(left))
        for slot, (table, at) in enumerate(tables):
            gathered = np.array(table, dtype=object)[at]
            document[slot::len(tables)] = gathered.tolist()
        document[0] = '{\n  "rules": [\n' + document[0]
        document[-1] = document[-1][:-2] + "\n  ]"
    if stats is not None:
        document.append(',\n  "stats": ' + json.dumps(
            stats.to_dict(), indent=2
        ).replace("\n", "\n  "))
    document.append("\n}")
    return "".join(document)


def _fraction_pieces(part, whole, template: str) -> Tuple[List, np.ndarray]:
    """The piece table of the distinct ``(part, whole)`` pairs, each
    ``part`` followed by ``template`` filled with ``whole`` and the
    exact fraction, and each record's index into it."""
    # The runs of the pairs in lexicographic order, gathered back per
    # record.
    by_pair = np.lexsort((whole, part))
    pairs = np.stack([part, whole])[:, by_pair]
    head = np.ones(len(part), dtype=bool)
    head[1:] = (pairs[:, 1:] != pairs[:, :-1]).any(axis=0)
    run = np.empty(len(part), dtype=np.int64)
    run[by_pair] = np.cumsum(head) - 1
    distinct = pairs[:, head]
    reduced = distinct // np.gcd(*distinct)
    return [
        f"{p}" + template % (q, f"{n}/{d}" if d != 1 else n)
        for p, q, n, d in zip(*distinct.tolist(), *reduced.tolist())
    ], run


def rules_from_json(document: str) -> RuleSet:
    """Parse rules serialized by :func:`rules_to_json`.

    The records become the set's four int64 columns, inserted with one
    :meth:`RuleSet.add_columns`.  Every exact-fraction field must equal
    its record's counts in value (``"2/4"`` is accepted for 1/2): each
    distinct string is parsed once with :class:`Fraction`, and its
    reduced numerator and denominator are compared with the
    ``gcd``-reduced counts in numpy.  A record of an unknown kind, a
    document mixing both kinds, a non-integer count or a mismatched
    fraction raises ``ValueError``.
    """
    records = json.loads(document)["rules"]
    rules = RuleSet()
    if not records:
        return rules
    kind = _kind_of(list(map(itemgetter("kind"), records)))
    _, fields, fraction = _FIELDS[kind]
    *counts, texts = (
        list(map(itemgetter(field), records)) for field in (*fields, fraction)
    )
    left, right, part, whole = (
        int64_array(column, "rule ids and counts") for column in counts
    )
    # Each distinct fraction string is parsed once; ``at`` maps records
    # to it.
    distinct: Dict[object, int] = {}
    at = np.fromiter(
        (distinct.setdefault(text, len(distinct)) for text in texts),
        dtype=np.int64, count=len(texts),
    )
    numerator, denominator = _fraction_table(distinct)
    # Reduced as Fraction reduces: the sign on the numerator.
    divisor = np.gcd(part, whole)
    divisor[divisor == 0] = 1
    divisor[whole < 0] *= -1
    wrong = np.flatnonzero(
        (numerator[at] != part // divisor)
        | (denominator[at] != whole // divisor)
    )
    if len(wrong):
        i = wrong[0]
        raise ValueError(
            f"{fraction} mismatch for {(int(left[i]), int(right[i]))}: "
            f"{texts[i]}"
        )
    rules.add_columns(kind, left, right, part, whole)
    return rules


def _kind_of(names: List) -> type:
    """The rule kind all of a document's ``"kind"`` values name."""
    known = {name: names.count(name) for name in _KINDS}
    if sum(known.values()) != len(names):
        unknown = next(name for name in names if name not in tuple(_KINDS))
        raise ValueError(f"unknown rule kind {unknown!r}")
    if all(known.values()):
        raise ValueError(
            "a rules document holds one rule kind, not "
            f"{sorted(known)}"
        )
    return _KINDS[names[0]]


def _fraction_table(texts: Iterable) -> Tuple[np.ndarray, np.ndarray]:
    """The int64 numerators and denominators of the fractions
    ``texts`` spell; one outside int64 gets denominator -1, which no
    pair of counts reduces to."""
    table = []
    for text in texts:
        value = Fraction(text)
        if (abs(value.numerator) | value.denominator) >> 63:
            table.append((0, -1))
        else:
            table.append((value.numerator, value.denominator))
    return np.array(table, dtype=np.int64).T


def stats_to_json(stats: PipelineStats) -> str:
    """Serialize a run's :class:`PipelineStats` to a JSON document."""
    return json.dumps(stats.to_dict(), indent=2)


def stats_from_json(document: str) -> PipelineStats:
    """Rebuild :class:`PipelineStats` from :func:`stats_to_json` output,
    or from the ``"stats"`` key of a :func:`rules_to_json` document."""
    payload = json.loads(document)
    if "rules" in payload:
        if "stats" not in payload:
            raise ValueError("document carries no stats")
        payload = payload["stats"]
    return PipelineStats.from_dict(payload)
