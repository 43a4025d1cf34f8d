import io

import numpy as np
import pytest

from hashsim import HashtagCsvError, read_hashtag_csv


def csv_text(rows):
    return "day,tweets,users\n" + "".join(
        f"{day},{t},{u}\n" for day, (t, u) in zip(range(-7, 8), rows))


def test_reads_fifteen_days():
    rows = [(d + 8, 1) for d in range(-7, 8)]
    record = read_hashtag_csv(io.StringIO(csv_text(rows)), name="tag")
    assert record.name == "tag"
    assert np.array_equal(record.tweets, np.arange(1, 16, dtype=float))
    assert np.all(record.users == 1.0)


@pytest.mark.parametrize("bad", [("nan", 1), (5, "nan"), ("inf", 1),
                                 ("-inf", 0)])
def test_non_finite_count_rejected_with_row(bad):
    rows = [(2, 1)] * 15
    rows[4] = bad
    with pytest.raises(HashtagCsvError) as exc:
        read_hashtag_csv(io.StringIO(csv_text(rows)))
    assert exc.value.row == 5
    assert "non-finite" in str(exc.value)
