"""Deterministic JSON rendering of reports."""

import json

import pytest

from lvwaves.report import CheckItem, CheckReport, format_float, render_json


def test_strings_round_trip_through_json():
    text = "a\tb\rc\x01d\\e\"f\ngé "
    report = CheckReport(
        title=text,
        passed=True,
        items=(CheckItem(name=text, passed=True, margin=0.5, details={"note": text}),),
        verdict=text,
    )
    back = json.loads(render_json(report.to_json_dict()))
    assert back["title"] == back["verdict"] == text
    assert back["checks"][text]["note"] == text


def test_strings_written_as_the_json_module_writes_them():
    for text in ["plain", "quote \" and backslash \\", "line\nbreak", "café", ""]:
        assert render_json(text) == json.dumps(text, ensure_ascii=False)


def test_non_string_key_refused():
    with pytest.raises(TypeError, match="JSON object keys must be strings, got 1"):
        render_json({"a": {1: 2}})


def test_unknown_type_refused():
    with pytest.raises(TypeError, match="cannot render set as JSON"):
        render_json({"a": [{1, 2}]})


def test_item_of_a_missing_name_is_a_key_error():
    report = CheckReport(title="t", passed=True, items=(CheckItem("H1", True, 0.5),))
    assert report.item("H1").margin == 0.5
    with pytest.raises(KeyError) as info:
        report.item("H2")
    assert info.value.args == ("H2",)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_float_refused(value):
    with pytest.raises(ValueError) as info:
        format_float(value)
    assert str(info.value) == f"non-finite value in report: {value}"


def test_empty_containers_rendered_inline():
    assert render_json({"a": [], "b": (), "c": {}}) == '{\n  "a": [],\n  "b": [],\n  "c": {}\n}'
