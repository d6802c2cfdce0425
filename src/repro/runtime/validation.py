"""Input validation policies for streaming transaction sources.

The paper's exactness guarantee (zero false positives / negatives)
assumes well-formed input; a production scan also has to survive
garbage tokens, negative column ids, and pathological row lengths
without either crashing a multi-hour run or silently corrupting the
counts.  :class:`RowValidator` centralizes that decision as a policy:

- ``strict`` (default) — reject the input with a
  :class:`RowValidationError` whose message names the offending line;
- ``skip``   — drop each malformed row and count it
  (``rows_skipped``), keeping the scan exact over the rows that remain;
- ``clamp``  — repair what is repairable: drop unparseable or negative
  tokens and truncate oversized rows, counting every touched row
  (``rows_clamped``) and dropped token (``tokens_dropped``).

A validator is attached to a source at construction time
(``FileSource(path, validator=...)``, ``IterableSource(rows,
validator=...)``) so diagnostics can carry real line numbers; the
streaming pipelines copy its counters into
:class:`repro.core.stats.ScanStats` after the first pass.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

#: The recognized validation modes.
VALIDATION_MODES = ("strict", "skip", "clamp")


def _describe_token(token) -> str:
    """A repr safe to embed in diagnostics (a malformed "token" can be
    an arbitrarily long garbage line)."""
    text = repr(token)
    if len(text) > 43:
        text = text[:40] + "..."
    return text


class RowValidationError(ValueError):
    """A malformed row rejected in ``strict`` mode.

    Carries the 1-based ``line_number`` and the source description so
    callers (and users) can locate the offending input.
    """

    def __init__(
        self,
        reason: str,
        line_number: Optional[int] = None,
        source: Optional[str] = None,
    ) -> None:
        self.reason = reason
        self.line_number = line_number
        self.source = source
        where = source if source is not None else "row stream"
        if line_number is not None:
            where = f"{where}, line {line_number}"
        super().__init__(f"{where}: {reason}")


class RowValidator:
    """Validate and normalize one row at a time under a chosen policy.

    Parameters
    ----------
    mode:
        One of :data:`VALIDATION_MODES`.
    max_row_length:
        Reject/truncate rows with more than this many (distinct) ids.
    max_column_id:
        Reject ids above this bound (``None`` = unbounded, ids only
        need to be non-negative integers).

    The validator is stateful: it accumulates ``rows_seen``,
    ``rows_skipped``, ``rows_clamped`` and ``tokens_dropped`` across
    every row it inspects.  Call :meth:`reset` to reuse one instance
    across independent runs.
    """

    def __init__(
        self,
        mode: str = "strict",
        max_row_length: Optional[int] = None,
        max_column_id: Optional[int] = None,
    ) -> None:
        if mode not in VALIDATION_MODES:
            raise ValueError(
                f"unknown validation mode {mode!r}; "
                f"choose from {', '.join(VALIDATION_MODES)}"
            )
        self.mode = mode
        self.max_row_length = max_row_length
        self.max_column_id = max_column_id
        self.reset()

    def reset(self) -> None:
        """Zero all counters."""
        self.rows_seen = 0
        self.rows_skipped = 0
        self.rows_clamped = 0
        self.tokens_dropped = 0

    def validate_row(
        self,
        values: Iterable,
        line_number: Optional[int] = None,
        source: Optional[str] = None,
    ) -> Optional[Tuple[int, ...]]:
        """Validate one row, given as raw text tokens or parsed values.

        Returns the normalized row (sorted, deduplicated ids), ``None``
        when the row was skipped, or raises :class:`RowValidationError`
        in ``strict`` mode.
        """
        raw = list(values)
        self.rows_seen += 1
        ids: List[int] = []
        problems: List[str] = []
        for token in raw:
            try:
                value = int(token)
            except (TypeError, ValueError):
                problems.append(
                    f"unparseable token {_describe_token(token)}"
                )
                continue
            if value < 0:
                problems.append(f"negative column id {value}")
                continue
            if self.max_column_id is not None and value > self.max_column_id:
                problems.append(
                    f"column id {value} exceeds "
                    f"max_column_id={self.max_column_id}"
                )
                continue
            ids.append(value)
        row = tuple(sorted(set(ids)))
        oversized = (
            self.max_row_length is not None
            and len(row) > self.max_row_length
        )
        if oversized:
            problems.append(
                f"row of {len(row)} ids exceeds "
                f"max_row_length={self.max_row_length}"
            )
        if not problems:
            return row

        if self.mode == "strict":
            raise RowValidationError(problems[0], line_number, source)
        if self.mode == "skip":
            self.rows_skipped += 1
            return None
        # clamp: keep what is salvageable.
        self.tokens_dropped += len(raw) - len(ids)
        if oversized:
            row = row[: self.max_row_length]
        self.rows_clamped += 1
        return row

    validate_tokens = validate_row

    def __repr__(self) -> str:
        return (
            f"RowValidator(mode={self.mode!r}, seen={self.rows_seen}, "
            f"skipped={self.rows_skipped}, clamped={self.rows_clamped})"
        )
