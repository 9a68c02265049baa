"""The package's public names."""

import rankci


def test_all_is_sorted_unique_and_bound():
    names = rankci.__all__
    assert names == sorted(set(names))
    assert [n for n in names if not hasattr(rankci, n)] == []
