import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsd._serialize import dumps, parse_complex, parse_matrix
from qsd.errors import ValidationError


class TestDumps:
    def test_control_characters_round_trip(self):
        obj = {"a": "x\ny\t\x01", "q\"uote\\": "\x00\x1f\x7f é"}
        assert json.loads(dumps(obj)) == obj

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.text(), st.text(), max_size=4))
    def test_any_text_round_trips(self, obj):
        assert json.loads(dumps(obj)) == obj

    def test_plain_strings_unchanged(self):
        assert dumps({"p_error": "a/b"}) == '{"p_error": "a/b"}'


class TestParse:
    @pytest.mark.parametrize("bad", ["x", None, [1.0], {"re": "x"}, {"re": 1.0, "phase": 0.0}])
    def test_bad_complex_is_a_validation_error(self, bad):
        with pytest.raises(ValidationError):
            parse_complex(bad)

    @pytest.mark.parametrize("bad", [5, [1.0, 2.0], [[1.0, 0.0], [0.0]], [["x"]]])
    def test_bad_matrix_is_a_validation_error(self, bad):
        with pytest.raises(ValidationError):
            parse_matrix(bad)

    def test_matrix_entries(self):
        m = parse_matrix([[1, {"re": 0.5, "im": -0.5}], [{"im": 2.0}, 0.0]])
        assert np.array_equal(m, np.array([[1, 0.5 - 0.5j], [2j, 0]]))
