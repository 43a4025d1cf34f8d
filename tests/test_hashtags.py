import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hashsim
from hashsim import ActivityProfile, HashtagCsvError, read_hashtag_csv
from hashsim.cli import main


def csv_text(rows):
    return "day,tweets,users\n" + "".join(
        f"{day},{t},{u}\n" for day, (t, u) in zip(range(-7, 8), rows))


def test_reads_fifteen_days():
    rows = [(d + 8, 1) for d in range(-7, 8)]
    profile = read_hashtag_csv(io.StringIO(csv_text(rows)))
    assert isinstance(profile, ActivityProfile)
    assert np.array_equal(profile.activities, np.arange(1, 16, dtype=float))
    assert np.all(profile.distinct_users == 1.0)


def test_hashtag_record_is_gone():
    assert not hasattr(hashsim, "HashtagRecord")
    assert not hasattr(hashsim.hashtags, "HashtagRecord")
    assert "HashtagRecord" not in hashsim.__all__


@pytest.mark.parametrize("bad", [("nan", 1), (5, "nan"), ("inf", 1),
                                 ("-inf", 0)])
def test_non_finite_count_rejected_with_row(bad):
    rows = [(2, 1)] * 15
    rows[4] = bad
    with pytest.raises(HashtagCsvError) as exc:
        read_hashtag_csv(io.StringIO(csv_text(rows)))
    assert exc.value.row == 5
    assert "non-finite" in str(exc.value)


@pytest.mark.parametrize("line,message", [
    ("-3,-1,0", "negative count"),
    ("-3,2,-1", "negative count"),
    ("-2,2,1", "expected day -3, got -2"),
    ("-3,two,1", "non-numeric value"),
    ("x,2,1", "non-numeric value"),
])
def test_bad_row_rejected_with_row(line, message):
    lines = csv_text([(2, 1)] * 15).splitlines()
    lines[5] = line
    with pytest.raises(HashtagCsvError, match=message) as exc:
        read_hashtag_csv(io.StringIO("\n".join(lines) + "\n"))
    assert exc.value.row == 5


# mostly well-formed CSVs with odd values, rows, headers and line breaks
_COUNT = st.one_of(st.integers(0, 50).map(str),
                   st.floats(allow_nan=True).map(repr),
                   st.sampled_from(["nan", "-inf", "1e308", "", "x", "-1",
                                    " 3 ", "1_0"]))
_ROW = st.tuples(st.integers(-8, 8).map(str), _COUNT, _COUNT,
                 st.sampled_from(["", ",", ",0"])).map(
    lambda r: f"{r[0]},{r[1]},{r[2]}{r[3]}")


@st.composite
def _csv_texts(draw):
    if draw(st.integers(0, 7)) == 0:
        return draw(st.text(max_size=60))
    header = draw(st.sampled_from(["day,tweets,users",
                                   "day,activities,distinct_users"] * 4
                                  + ["day,a,b", ""]))
    days = list(range(-7, 8))
    if draw(st.integers(0, 7)) == 0:
        days = draw(st.lists(st.integers(-8, 8), max_size=17))
    tweets = st.one_of(st.integers(1, 50), st.floats(1, 1e300))
    rows = [draw(_ROW) if draw(st.integers(0, 39)) == 0
            else f"{d},{draw(tweets)},{draw(st.integers(0, 3))}"
            for d in days]
    newline = draw(st.sampled_from(["\n", "\r\n", "\n\n", "\r"]))
    return newline.join([header] + rows) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300, deadline=None)
@given(text=_csv_texts())
def test_csv_is_rejected_or_finite(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "profile.csv"
    path.write_text(text, encoding="utf-8")
    try:
        profile = read_hashtag_csv(path)
    except HashtagCsvError:
        profile = None
    else:
        for arr in (profile.activities, profile.distinct_users):
            assert arr.shape == (15,) and np.all(np.isfinite(arr))
            assert np.all(arr >= 0)
        assert np.all(profile.distinct_users <= profile.activities)
    # classify --profile-csv reads through the same parser
    code = main(["classify", "--profile-csv", str(path)])
    assert code == 2 if profile is None else code in (0, 2)
