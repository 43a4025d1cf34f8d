"""Empirical hashtag time-series input: 15-day tweet and user counts."""

from __future__ import annotations

import math
import os

from .engine import DAY_OFFSETS, N_DAYS, PROFILE_CSV_HEADER, ActivityProfile

HASHTAG_CSV_HEADER = "day,tweets,users"


class HashtagCsvError(ValueError):
    """Invalid hashtag CSV; `row` is the 1-based data row, when known."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


def read_hashtag_csv(src) -> ActivityProfile:
    """Parse "day,tweets,users" (or profile-CSV) input for days -7..7.

    Returns the tweets as `activities` and the users as `distinct_users`,
    so an observed hashtag and a simulated ensemble are one type. Values
    may be decimals (ensemble means compose through here); rows must be in
    ascending day order with users <= tweets on every day.
    """
    if hasattr(src, "read"):
        text = src.read()
    else:
        with open(os.fspath(src), "r", encoding="utf-8") as fh:
            text = fh.read()

    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise HashtagCsvError("empty hashtag CSV")
    header = lines[0].strip()
    # cmd_simulate output is accepted unmodified as a fitting target
    if header not in (HASHTAG_CSV_HEADER, PROFILE_CSV_HEADER):
        raise HashtagCsvError(
            f"expected header {HASHTAG_CSV_HEADER!r} or "
            f"{PROFILE_CSV_HEADER!r}, got {header!r}")
    if len(lines) - 1 != N_DAYS:
        raise HashtagCsvError(
            f"expected {N_DAYS} data rows, got {len(lines) - 1}")

    tweets, users = [], []
    for row, (expected_day, line) in enumerate(zip(DAY_OFFSETS, lines[1:]),
                                               start=1):
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 3:
            raise HashtagCsvError(f"row {row}: expected 3 columns", row)
        try:
            day = int(fields[0])
            t_val = float(fields[1])
            u_val = float(fields[2])
        except ValueError:
            raise HashtagCsvError(
                f"row {row}: non-numeric value in {line!r}", row) from None
        if day != expected_day:
            raise HashtagCsvError(
                f"row {row}: expected day {expected_day}, got {day}", row)
        if not (math.isfinite(t_val) and math.isfinite(u_val)):
            raise HashtagCsvError(f"row {row}: non-finite count", row)
        if t_val < 0 or u_val < 0:
            raise HashtagCsvError(f"row {row}: negative count", row)
        if u_val > t_val:
            raise HashtagCsvError(
                f"row {row}: users ({u_val:g}) exceed tweets ({t_val:g})",
                row)
        tweets.append(t_val)
        users.append(u_val)
    return ActivityProfile(tweets, users)
