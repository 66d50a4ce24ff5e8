import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainrank import InputError, MatchPreference
from chainrank.fileio import load_match_preference, load_state, load_tournament

KEYS = ("matrix", "rows", "cols", "a_labels", "b_labels", "x", "y")

# JSON values shaped like the three formats: small integers, cell pairs,
# skill levels (NaN and infinities included), labels and the format's keys
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 3) | st.floats() | st.text(max_size=3)
    | st.just("\ud800"),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(KEYS), inner, max_size=4),
    max_leaves=16,
)
CSV = st.lists(st.lists(st.sampled_from(["0", "1", " 1", "2", "x", ""]), max_size=3), max_size=3).map(
    lambda rows: "\n".join(",".join(row) for row in rows)
)
CONTENTS = st.one_of(
    st.binary(max_size=64),
    JSON.map(lambda v: json.dumps(v).encode()),
    CSV.map(str.encode),
)


class TestEveryLoaderReturnsOrRefuses:
    @settings(max_examples=300, deadline=None)
    @given(CONTENTS)
    def test_arbitrary_bytes(self, tmp_path_factory, content):
        path = tmp_path_factory.getbasetemp() / "loader-input"
        path.write_bytes(content)
        for load in (load_tournament, load_state, load_match_preference):
            try:
                load(str(path))
            except InputError:
                pass


class TestMatchPreferenceFile:
    def test_pairs_in_file_order(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text("[[2, 1], [1, 1], [1, 2], [2, 2]]")
        assert load_match_preference(str(path)) == MatchPreference.from_pairs(
            [(2, 1), (1, 1), (1, 2), (2, 2)]
        )

    @pytest.mark.parametrize("text", ["{}", "[[1]]", "[[1, 2, 3]]", '[["1", 1]]', "[[1.0, 1]]", "[[false, 1]]"])
    def test_only_lists_of_integer_pairs(self, tmp_path, text):
        path = tmp_path / "p.json"
        path.write_text(text)
        with pytest.raises(InputError, match=r"JSON list of \[row, col\] pairs"):
            load_match_preference(str(path))
