"""Deterministic table rendering: CSV/JSON byte stability, float fidelity,
quoting, footers."""

import csv
import io
import json
import math

import pytest

from dce.config import FORMATS
from dce.tables import ResultTable, footer_line, format_number, write_table
from helpers import strip_footer


def _sample_table():
    t = ResultTable(columns=["name", "value", "flag"])
    t.add_row("alpha", 0.1234567890123456789, True)
    t.add_row("beta", -math.inf, False)
    t.add_row("gamma, delta", 3, True)
    return t


def test_row_width_checked():
    t = ResultTable(columns=["a", "b"])
    with pytest.raises(ValueError):
        t.add_row(1)


@pytest.mark.parametrize("fmt", FORMATS)
def test_render_deterministic_excluding_footer(fmt):
    a = _sample_table().render(fmt)
    b = _sample_table().render(fmt)
    assert strip_footer(a) == strip_footer(b)
    # the footer is the only commented line and sits at the end
    assert a.rstrip("\n").splitlines()[-1].startswith("# generated ")


def test_csv_seventeen_digit_round_trip():
    """Every float printed re-parses to the identical double."""
    values = [0.1, 1.0 / 3.0, 2.0 ** -40, 9.87654321e-17, 6.02214076e23]
    t = ResultTable(columns=["v"])
    for v in values:
        t.add_row(v)
    body = strip_footer(t.render("csv"))
    parsed = [float(line) for line in body.splitlines()[1:]]
    assert parsed == values  # exact equality, not approx


def test_csv_rfc4180_quoting():
    t = ResultTable(columns=["detail"])
    t.add_row('says "hello", twice')
    rendered = t.render_csv()
    assert rendered == 'detail\r\n"says ""hello"", twice"\r\n'
    # a conforming reader recovers the original text
    rows = list(csv.reader(io.StringIO(rendered)))
    assert rows[1] == ['says "hello", twice']


def test_negative_infinity_prints_as_inf():
    t = ResultTable(columns=["db"])
    t.add_row(-math.inf)
    assert "-inf" in t.render_csv()


def test_format_number_kinds():
    assert format_number(42) == "42"
    assert format_number("plain") == "plain"


def test_json_sorted_and_strict():
    rendered = _sample_table().render_json()
    payload = json.loads(rendered)  # strict: would choke on bare -Infinity
    assert payload["rows"][1][1] == "-inf"
    assert list(payload.keys()) == sorted(payload.keys())
    assert payload["columns"] == ["name", "value", "flag"]


def test_json_spells_nan_as_a_string():
    t = ResultTable(columns=["nmse", "inf"])
    t.add_row(math.nan, math.inf)
    assert json.loads(t.render_json())["rows"] == [["nan", "inf"]]


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        _sample_table().render("xml")


def test_strip_footer_only_removes_comments():
    # line endings are normalized on the way through; comments vanish
    text = "h\r\n1\r\n# generated now\n"
    assert strip_footer(text) == "h\n1"


def test_footer_line_shape():
    line = footer_line()
    assert line.startswith("# generated ")
    assert "+00:00" in line or "Z" in line  # UTC stamp


def test_write_table_file_and_stdout(tmp_path, capsys):
    t = _sample_table()
    path = tmp_path / "out.csv"
    write_table(t, "csv", str(path))
    on_disk = path.read_bytes().decode("utf-8")
    assert on_disk.startswith(t.render_csv())  # newline='' preserved CRLF
    write_table(t, "csv", None)
    captured = capsys.readouterr().out
    assert captured.startswith(t.render_csv())
    assert strip_footer(captured) == strip_footer(on_disk)
