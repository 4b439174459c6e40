import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsd._serialize import dumps, fmt_float, parse_complex, parse_matrix
from qsd.errors import ValidationError


class TestDumps:
    def test_control_characters_round_trip(self):
        obj = {"a": "x\ny\t\x01", "q\"uote\\": "\x00\x1f\x7f é"}
        assert json.loads(dumps(obj)) == obj

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.text(), st.text(), max_size=4))
    def test_any_text_round_trips(self, obj):
        assert json.loads(dumps(obj)) == obj

    @pytest.mark.parametrize("bad", [{1, 2}, 1j, object(), {"p": b"bytes"}])
    def test_unserializable_refused(self, bad):
        with pytest.raises(TypeError, match="^cannot serialize "):
            dumps(bad)

    def test_plain_strings_unchanged(self):
        assert dumps({"p_error": "a/b"}) == '{"p_error": "a/b"}'

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_refused(self, bad):
        with pytest.raises(ValueError, match="non-finite float in output"):
            fmt_float(bad)
        with pytest.raises(ValueError, match="non-finite float in output"):
            dumps({"p_error": np.float64(bad)})


class TestParse:
    @pytest.mark.parametrize("bad", ["x", None, [1.0], {"re": "x"}, {"re": 1.0, "phase": 0.0}])
    def test_bad_complex_is_a_validation_error(self, bad):
        with pytest.raises(ValidationError):
            parse_complex(bad)

    @pytest.mark.parametrize("bad", [5, [1.0, 2.0], [[1.0, 0.0], [0.0]], [["x"]]])
    def test_bad_matrix_is_a_validation_error(self, bad):
        with pytest.raises(ValidationError):
            parse_matrix(bad)

    @pytest.mark.parametrize(
        "bad, echo",
        [
            (json.loads("[" * 500 + "]" * 500), "[[[[[[[...]]]]]]]"),
            ("x" * 10**5, "'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
            ({"re": "x" * 10**5}, "{'re': 'xxxxxxxxxxxx...xxxxxxxxxxxxx'}"),
        ],
        ids=["deep", "huge", "huge-re"],
    )
    def test_refusal_echo_is_bounded(self, bad, echo):
        with pytest.raises(ValidationError) as info:
            parse_complex(bad)
        assert str(info.value).endswith(echo)

    def test_matrix_entries(self):
        m = parse_matrix([[1, {"re": 0.5, "im": -0.5}], [{"im": 2.0}, 0.0]])
        assert np.array_equal(m, np.array([[1, 0.5 - 0.5j], [2j, 0]]))
