import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainrank import InputError, MatchPreference, Tournament
from chainrank.fileio import load_match_preference, load_state, load_tournament, parse_csv, to_json

from helpers import parse_csv_by_rows

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


class TestJsonWriter:
    @pytest.mark.parametrize("a_labels, b_labels", [
        (None, None),
        (["x", "y", "z"], None),
        (None, ['"matrix": null', 'q", "matrix": null, "r', "\\", "\u00e9"]),
        ([1, '"matrix": null}', "z"], ["p", "q", "r", "s"]),
    ])
    def test_equals_dumping_every_cell(self, a_labels, b_labels):
        # a label that spells the matrix key is escaped, so the matrix lands on the key
        K = Tournament.from_cells([[1, 0, 1, 1], [0, 0, 0, 0], [1, 0, 1, 1]])
        data = {"rows": 3, "cols": 4, "matrix": [list(row) for row in K.cells]}
        for key, names in (("a_labels", a_labels), ("b_labels", b_labels)):
            if names:
                data[key] = list(names)
        assert to_json(K, a_labels, b_labels) == json.dumps(data, sort_keys=True) + "\n"

    @pytest.mark.parametrize("cells", [[[0]], [[1]], [[1, 0, 1]], [[1], [0], [1]]])
    def test_single_row_and_column(self, cells):
        K = Tournament.from_cells(cells)
        assert json.loads(to_json(K)) == {"rows": K.rows, "cols": K.cols, "matrix": cells}


BOM = b"\xef\xbb\xbf"


class TestByteOrderMark:
    # a spreadsheet's "CSV UTF-8" export starts with a byte-order mark
    @pytest.mark.parametrize(
        "load, text",
        [
            (load_tournament, "1,0\n0,1\n"),
            (load_tournament, '{"matrix": [[1, 0], [1, 1]], "a_labels": ["p", "q"]}'),
            (load_state, '{"x": [1, 2], "y": [1.5]}'),
            (load_match_preference, "[[2, 1], [1, 1], [1, 2], [2, 2]]"),
        ],
        ids=["csv", "json", "state", "match-preference"],
    )
    def test_every_file_kind_loads_as_without_it(self, tmp_path, load, text):
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.write_bytes(text.encode())
        marked.write_bytes(BOM + text.encode())
        assert load(str(marked)) == load(str(plain))


def _outcome(parse, text):
    try:
        return parse(text)
    except InputError as exc:
        return str(exc)


# texts of a few distinct lines, each repeated: good and bad integers, empty
# tokens, unequal lengths, blank lines and comments; str.strip removes the
# unit separator U+001F, which int() alone refuses
TOKENS = st.sampled_from(["0", "1", " 1", "1 ", "1\x1f", "+1", "01", "-0", "2", "x", ""])


@st.composite
def repeated_lines(draw):
    pool = draw(st.lists(st.lists(TOKENS, min_size=1, max_size=3).map(",".join), min_size=1, max_size=4))
    return "\n".join(draw(st.lists(st.sampled_from(pool + ["", "  ", "# note"]), max_size=12)))


class TestCsvReader:
    @settings(max_examples=500, deadline=None)
    @given(repeated_lines())
    def test_matches_parsing_every_line(self, text):
        assert _outcome(parse_csv, text) == _outcome(parse_csv_by_rows, text)

    @pytest.mark.parametrize(
        "text, message",
        [
            # every line's integers are read before any cell value is checked
            ("2,0\n" + "0,1\n" * 7 + "x,1\n", "line 9: cells must be integers 0 or 1"),
            # a repeated bad line is named where it first appears
            ("1,0\n1,x\n0,1\n1,x\n", "line 2: cells must be integers 0 or 1"),
            # comments and blank lines count toward line numbers
            ("# header\n\n1,0\n x \n", "line 4: cells must be integers 0 or 1"),
        ],
    )
    def test_names_the_first_failing_line(self, text, message):
        with pytest.raises(InputError) as exc:
            parse_csv(text)
        assert str(exc.value) == message

    def test_from_cells_refuses_a_list_cell(self):
        # the reader, not from_cells, folds equal rows: a row of from_cells
        # may hold unhashable values, which it refuses as cells
        with pytest.raises(InputError, match=r"^cell value \[1\] is not 0 or 1$"):
            Tournament.from_cells([[[1]]])
