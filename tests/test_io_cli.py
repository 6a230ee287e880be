import contextlib
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orthoposet import naive, verify
from orthoposet.adjoint import CONDITION_KEYS
from orthoposet.io_cli import (
    ParseError,
    document_to_op,
    document_to_poset,
    export_dot,
    fixture_text,
    json_report,
    load_fixture,
    load_poset_path,
    main,
    parse_poset,
    poset_to_document,
    render_table,
    serialize_document,
)
from orthoposet.poset_core import OpPoset, Poset, PosetError
from orthoposet.properties import PROPERTY_NAMES, op_reports
from orthoposet.sasaki import OpTable, is_sasaki_total, op_tables

from conftest import bounded_posets, two_chain

FIXTURES = ("ex1.poset", "m3.poset", "fig3.poset", "benzene.poset", "cube8.poset")


# -- parsing ------------------------------------------------------------------


def test_parse_two_chain_inline():
    doc = parse_poset("poset t\nelements 0 1\ncovers 0<1\nprime 0:1 1:0")
    assert doc.name == "t"
    assert doc.elements == ("0", "1")
    assert doc.covers == (("0", "1"),)
    assert doc.prime == {"0": "1", "1": "0"}


def test_parse_ex1_fixture():
    doc = load_fixture("ex1.poset")
    assert len(doc.elements) == 7
    assert len(doc.covers) == 10
    assert doc.prime is not None and len(doc.prime) == 7


@pytest.mark.parametrize("name", FIXTURES)
def test_roundtrip(name):
    doc = load_fixture(name)
    again = parse_poset(serialize_document(doc))
    assert again == doc


def test_poset_to_document_roundtrip(ex1):
    doc = poset_to_document(ex1.poset, "ex1", ex1.prime)
    op = document_to_op(parse_poset(serialize_document(doc)))
    assert op.poset.up == ex1.poset.up
    assert op.prime == ex1.prime


@pytest.mark.parametrize(
    "text,message",
    [
        ("elements 0 1", "missing poset"),
        ("poset t", "missing elements"),
        ("poset t\nelements", "empty"),
        ("poset t\nelements 0 0", "duplicate element"),
        ("poset t\nelements 0 1\ncovers 0<2", "unknown element"),
        ("poset t\nelements 0 1\ncovers 0<1 1<0", "antisymmetric"),
        ("poset t\nelements 0 1\ncovers 0<0", "itself"),
        ("poset t\nelements 0 1 2\ncovers 0<1", "greatest|least"),
        ("poset t\nelements 0 1\ncovers 0<1\nprime 0:1", "partial"),
        ("poset t\nelements 0 1\ncovers 0<1\nprime 0:2 1:0", "unknown element"),
        ("poset t\nelements 0 1\ncovers 0<1\nprime 0:1 0:0 1:0", "duplicate prime"),
        ("poset t\nelements a:b", "may not contain"),
        ("poset t\nelements 0 1\ncovers 0<1<1", "must be A<B"),
        ("poset t\nelements 0 1\nprime 0:1 1:0\ncovers 0<1", "out of order"),
        ("poset t\nposet u\nelements 0", "duplicate section"),
        ("orbit t\nelements 0", "unknown section"),
        ("poset t\nelements 0 1", "least"),
    ],
)
def test_parse_errors(text, message):
    with pytest.raises(PosetError, match=message):
        parse_poset(text)


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as exc:
        parse_poset("poset t\nelements 0 0")
    assert exc.value.line == 2
    assert "column" in str(exc.value)


@pytest.mark.parametrize(
    "line, col",
    [
        ("elements e x e", 14),  # the first match of "e" is inside the keyword
        ("elements 0 1 01\ncovers 0<01 0<0", 13),  # "0<0" also starts inside "0<01"
        ("elements 0 1 10\ncovers 0<10 10<1\nprime 10:1 0:1 1:0 0:1", 20),
        ("elements 0 1 2\ncovers 0<1 1<2 2<0", 16),  # the cover that closes the cycle
        ("elements 0 1", 1),  # no least element: the elements section
        ("elements 0 1\ncovers 0<1\nprime 0:1", 1),  # partial prime map: the prime section
    ],
)
def test_parse_error_column_is_the_token_column(line, col):
    text = "poset t\n" + line
    with pytest.raises(ParseError) as exc:
        parse_poset(text)
    assert exc.value.line == text.count("\n") + 1
    assert exc.value.col == col


def test_comments_and_blank_lines():
    doc = parse_poset("# heading\n\nposet t  # name\nelements 0 1\ncovers 0<1\n")
    assert doc.name == "t" and doc.prime is None


def test_one_element_document():
    doc = parse_poset("poset one\nelements z")
    p = document_to_poset(doc)
    assert p.n == 1 and p.bottom == p.top


def test_multiline_covers():
    doc = load_fixture("fig3.poset")
    assert len(doc.covers) == 24


@given(bounded_posets(), st.data())
@settings(max_examples=100, deadline=None)
def test_roundtrip_property(p, data):
    prime = data.draw(
        st.none() | st.tuples(*[st.integers(min_value=0, max_value=p.n - 1)] * p.n), label="prime"
    )
    doc = poset_to_document(p, "random", prime)
    assert parse_poset(serialize_document(doc)) == doc


@pytest.mark.parametrize("label", ["a#b", "#", "a b", "a\tb", "a<b", "a:b"])
def test_serialize_refuses_labels_that_do_not_read_back(label):
    # a label holding "#" was written as is and read back cut at the "#",
    # as a comment: "line 4, column 7: unknown element '1' in prime"
    p = Poset.from_covers(("0", label, "1"), [(0, 1), (1, 2)])
    doc = poset_to_document(p, "x", (2, 1, 0))
    with pytest.raises(PosetError, match=re.escape(f"labels {label!r} would not read back")):
        serialize_document(doc)
    assert serialize_document(poset_to_document(Poset(("0", "a", "1"), p.up), "x", (2, 1, 0)))


@pytest.mark.parametrize("name", ["a#b", "#", "my poset", "a\tb", "a\n", "", "a<b", "a:b", "<:"])
def test_document_names_read_back_or_are_refused(name):
    # a name was written as is: "a#b" read back as "a", and "my poset" or ""
    # failed to parse with "poset section expects exactly one name"; only
    # labels must avoid the separators "<" and ":"
    doc = poset_to_document(two_chain().poset, name, (1, 0))
    if re.search(r"\s|#", name) or not name:
        with pytest.raises(PosetError, match=re.escape(f"document name {name!r} would not read back")):
            serialize_document(doc)
    else:
        assert parse_poset(serialize_document(doc)) == doc


# Documents in the file format's shape with random labels, covers and prime
# entries and random lines spliced in, so that random text often gets past
# the section keywords to the label, cover, prime and order checks.
_LABELS = st.sampled_from(["a", "b", "c", "d"])
_TOKENS = (
    _LABELS
    | st.builds("{}<{}".format, _LABELS, _LABELS)
    | st.builds("{}:{}".format, _LABELS, _LABELS)
    | st.sampled_from(["<", ":", "a<b<c", "a:b:c", "#", "x#y"])
    | st.text(max_size=3)
)
_LINES = st.builds(
    lambda keyword, tokens: " ".join([keyword, *tokens]),
    st.sampled_from(["poset", "elements", "covers", "prime", "orbit", ""]),
    st.lists(_TOKENS, max_size=5),
)


@st.composite
def _shaped_text(draw):
    lines = [
        "poset t",
        " ".join(["elements", *draw(st.lists(_LABELS, max_size=4, unique=True))]),
        " ".join(["covers", *draw(st.lists(st.builds("{}<{}".format, _LABELS, _LABELS), max_size=6))]),
    ]
    if draw(st.booleans()):
        lines.append(" ".join(["prime", *draw(st.lists(st.builds("{}:{}".format, _LABELS, _LABELS), max_size=5))]))
    for line in draw(st.lists(_LINES, max_size=2)):
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), line)
    return "\n".join(lines)


documents_text = st.text() | _shaped_text()


@given(documents_text)
@settings(max_examples=300, deadline=None)
def test_arbitrary_text_parses_or_raises_parse_error(text):
    try:
        parse_poset(text)
    except ParseError:
        pass


def test_document_without_prime_rejects_op(ex1):
    doc = parse_poset("poset t\nelements 0 1\ncovers 0<1")
    with pytest.raises(PosetError, match="unary"):
        document_to_op(doc)


# -- renderers ----------------------------------------------------------------


def test_text_render_matches_goldens(ex1):
    odot_table, arrow_table = op_tables(ex1)
    assert render_table(odot_table, "text") == fixture_text("ex1_odot.golden")
    assert render_table(arrow_table, "text") == fixture_text("ex1_arrow.golden")


def test_criterion_1_names_the_golden_line_that_differs(monkeypatch):
    from orthoposet import io_cli

    assert verify._criterion_1(None) == (True, "98 cells match, all singletons")
    real = io_cli.fixture_text

    def altered(name):
        lines = real(name).splitlines(keepends=True)
        if name == "ex1_arrow.golden":
            lines[2] = lines[2].replace("1", "0")
        return "".join(lines)

    monkeypatch.setattr(io_cli, "fixture_text", altered)
    assert verify._criterion_1(None) == (False, "ex1_arrow.golden: rendered table differs at line 3")


def test_text_render_multi_element_cells(benzene):
    # force a multi-element cell through a non-singleton subset: the benzene
    # cells are singletons, so render a table from a carrier that is not a
    # lattice after dropping orthogonality is overkill; instead check the
    # braces path via a handmade table
    p = benzene.poset
    t = OpTable("odot", p, ((p.mask(["x", "y"]),) * p.n,) * p.n)
    out = render_table(t, "text")
    assert "{x y}" in out


def _diamond(middle):
    return Poset.from_covers(("0", *middle, "1"), [(0, 1), (0, 2), (1, 3), (2, 3)])


def _text_cells(text):
    """The body cells of a rendered text table, cut at the header's columns:
    labels hold no whitespace, so each header token starts a column."""
    lines = text.splitlines()
    starts = [m.start() for m in re.finditer(r"\S+", lines[0])]
    ends = [s - 2 for s in starts[1:]] + [None]
    return [[line[s:e].rstrip() for s, e in zip(starts, ends)][1:] for line in lines[1:]]


def test_text_cells_tell_comma_labels_apart():
    # both middle elements in every cell: "{a,b,c}" for either labeling if
    # members were joined by a comma
    cells = []
    for middle in (("a,b", "c"), ("a", "b,c")):
        p = _diamond(middle)
        pair = p.mask(middle)
        cells.append(_text_cells(render_table(OpTable("odot", p, ((pair,) * p.n,) * p.n), "text")))
    assert cells[0] == [["{a,b c}"] * 4] * 4
    assert cells[1] == [["{a b,c}"] * 4] * 4


# unique labels that a poset file can hold: no whitespace, "<", ":" or the
# comment sign "#"; the parts make commas, braces, quotes and the table names
# common
_label_text = st.text(
    st.characters(blacklist_categories=("Z", "C"), blacklist_characters="<:#"), min_size=1, max_size=3
)
_label_parts = st.lists(st.sampled_from([",", "{", "}", '"', "arrow", "odot", "a"]), min_size=1, max_size=3)
_labels = _label_text | _label_parts.map("".join)


@st.composite
def labeled_posets(draw):
    p = draw(bounded_posets())
    names = draw(st.lists(_labels, min_size=p.n, max_size=p.n, unique=True))
    return Poset.from_covers(names, p.covers())


@given(labeled_posets(), st.data())
@settings(max_examples=100, deadline=None)
def test_distinct_cell_masks_render_distinct_text_cells(p, data):
    masks = data.draw(st.lists(st.integers(1, p.full), min_size=p.n * p.n, max_size=p.n * p.n))
    cells = tuple(tuple(masks[x * p.n:(x + 1) * p.n]) for x in range(p.n))
    texts = [t for row in _text_cells(render_table(OpTable("odot", p, cells), "text")) for t in row]
    pairs = set(zip(masks, texts))
    assert len(pairs) == len({m for m, _ in pairs}) == len({t for _, t in pairs})


def _read_csv(text):
    return list(csv.reader(io.StringIO(text)))


def test_csv_render_lossless(m3):
    odot_table, _ = op_tables(m3)
    rows = _read_csv(render_table(odot_table, "csv"))
    p = m3.poset
    assert rows[0] == ["odot"] + list(p.names)
    for x, row in enumerate(rows[1:]):
        assert row[0] == p.names[x]
        for y, cell in enumerate(row[1:]):
            assert tuple(cell.split(" ")) == p.names_of(odot_table.cells[x][y])


LABEL_FILE = (
    "poset labels\n"
    "elements 0 a,b c|d 1\n"
    "covers 0<a,b 0<c|d a,b<1 c|d<1\n"
    "prime 0:1 a,b:c|d c|d:a,b 1:0\n"
)


def test_csv_keeps_commas_bars_and_quotes_in_labels(tmp_path, capsys):
    path = tmp_path / "labels.poset"
    path.write_text(LABEL_FILE)
    assert main(["tables", str(path), "--op", "odot", "--format", "csv"]) == 0
    rows = _read_csv(capsys.readouterr().out)
    assert rows[0] == ["odot", "0", "a,b", "c|d", "1"]
    assert [len(row) for row in rows] == [5] * 5
    assert [row[0] for row in rows[1:]] == ["0", "a,b", "c|d", "1"]
    # a set cell lists its members with a space, which no label contains
    p = Poset.from_covers(("0", 'a"b', "c,d", "1"), [(0, 1), (0, 2), (1, 3), (2, 3)])
    pair = p.mask(['a"b', "c,d"])
    table = OpTable("arrow", p, ((pair,) * p.n,) * p.n)
    rows = _read_csv(render_table(table, "csv"))
    assert rows[0] == ["arrow"] + list(p.names)
    for name, row in zip(p.names, rows[1:]):
        assert row[0] == name
        assert [cell.split(" ") for cell in row[1:]] == [['a"b', "c,d"]] * p.n


def test_csv_both_tables_split_at_one_empty_row(tmp_path, capsys):
    # an element labeled "arrow" starts a row like the arrow table's header
    p = _diamond(("arrow", "odot"))
    path = tmp_path / "arrow.poset"
    path.write_text(serialize_document(poset_to_document(p, "arrow", (3, 2, 1, 0))))
    assert main(["tables", str(path), "--op", "both", "--format", "csv"]) == 0
    rows = _read_csv(capsys.readouterr().out)
    assert rows.count([]) == 1
    cut = rows.index([])
    odot_rows, arrow_rows = rows[:cut], rows[cut + 1:]
    assert [len(odot_rows), len(arrow_rows)] == [p.n + 1] * 2
    assert odot_rows[0] == ["odot", *p.names] and arrow_rows[0] == ["arrow", *p.names]


@given(labeled_posets(), st.data())
@settings(max_examples=100, deadline=None)
def test_csv_both_reads_back_as_two_blocks(tmp_path_factory, p, data):
    prime = data.draw(st.tuples(*[st.integers(0, p.n - 1)] * p.n), label="prime")
    assume(is_sasaki_total(OpPoset(p, prime)))
    path = tmp_path_factory.getbasetemp() / "labels.poset"
    path.write_text(serialize_document(poset_to_document(p, "labels", prime)), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["tables", str(path), "--op", "both", "--format", "csv"]) == 0
    widths = [len(row) for row in csv.reader(io.StringIO(out.getvalue(), newline=""))]
    assert widths == [p.n + 1] * (p.n + 1) + [0] + [p.n + 1] * (p.n + 1)


def test_json_render_lossless(m3):
    _, arrow_table = op_tables(m3)
    payload = json.loads(render_table(arrow_table, "json"))
    p = m3.poset
    assert payload["op"] == "arrow"
    assert payload["elements"] == list(p.names)
    for x in range(p.n):
        for y in range(p.n):
            assert tuple(payload["cells"][x][y]) == p.names_of(arrow_table.cells[x][y])


def test_render_format_validation(m3):
    odot_table, _ = op_tables(m3)
    with pytest.raises(PosetError, match="format"):
        render_table(odot_table, "yaml")


# -- DOT export ---------------------------------------------------------------


def test_dot_edge_counts(ex1, fig3):
    chain = document_to_poset(parse_poset("poset t\nelements 0 1\ncovers 0<1"))
    assert export_dot(chain).count("->") == 1
    assert export_dot(ex1.poset).count("->") == 10
    assert export_dot(fig3.poset).count("->") == 24


def test_dot_matches_naive_reduction(fixture_ops):
    for op in fixture_ops.values():
        p = op.poset
        rel = naive.relation_pairs(p.up)
        dot = export_dot(p)
        for i, j in naive.covers(rel, p.n):
            assert f'"{p.names[i]}" -> "{p.names[j]}";' in dot
        assert dot.count("->") == len(naive.covers(rel, p.n))
    assert export_dot(fixture_ops["ex1"].poset).startswith("digraph poset {")


def test_dot_escapes_quotes_and_backslashes():
    p = Poset.from_covers(("0", 'a"b', "c\\d", "1"), [(0, 1), (0, 2), (1, 3), (2, 3)])
    dot = export_dot(p)
    assert '  "a\\"b";' in dot and '  "c\\\\d";' in dot
    assert '  "0" -> "a\\"b";' in dot
    assert '  "c\\\\d" -> "1";' in dot
    assert 'a"b"' not in dot


# -- JSON report ---------------------------------------------------------------


# The shape of `check --json` output.
REPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "name": {"type": "string"},
        "n": {"type": "integer", "minimum": 1},
        "properties": {
            "type": "object",
            "properties": {k: {"type": "boolean"} for k in PROPERTY_NAMES},
            "additionalProperties": False,
        },
        "witnesses": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "properties": {
                    "elements": {"type": "array", "items": {"type": "string"}},
                    "condition": {"type": "string"},
                },
                "required": ["elements", "condition"],
            },
        },
        "adjoint": {
            "type": "object",
            "properties": {
                "a1": {"type": "boolean"},
                "a2": {"type": "boolean"},
                "witnesses": {
                    "type": "object",
                    "properties": {
                        "a1": {"type": ["array", "null"], "items": {"type": "string"}},
                        "a2": {"type": ["array", "null"], "items": {"type": "string"}},
                    },
                    "required": ["a1", "a2"],
                },
            },
            "required": ["a1", "a2", "witnesses"],
        },
        "conditions": {
            "type": "object",
            "properties": {k: {"type": "boolean"} for k in CONDITION_KEYS},
            "required": list(CONDITION_KEYS),
            "additionalProperties": False,
        },
    },
    "required": ["name", "n", "properties"],
    "additionalProperties": False,
}


@pytest.mark.parametrize("name", FIXTURES)
def test_json_report_schema_and_reproducibility(name):
    doc = load_fixture(name)
    report = json_report(doc)
    jsonschema.validate(report, REPORT_SCHEMA)
    op = document_to_op(doc)
    fresh = {k: r.holds for k, r in op_reports(op).items()}
    assert report["properties"] == fresh
    assert list(report["properties"]) == list(PROPERTY_NAMES)
    if "conditions" in report:
        assert list(report["conditions"]) == ["i", "ii", "iii", "iv", "v", "vi"]
        from orthoposet.adjoint import is_adjoint_pair

        rep = is_adjoint_pair(op)
        assert report["conditions"] == rep.conditions
        assert report["adjoint"]["a1"] == rep.a1
        assert report["adjoint"]["a2"] == rep.a2


def test_json_report_without_prime():
    report = json_report(parse_poset("poset t\nelements 0 1\ncovers 0<1"))
    jsonschema.validate(report, REPORT_SCHEMA)
    assert "adjoint" not in report
    assert set(report["properties"]) == {"saturated", "modular", "lattice"}


# -- CLI ------------------------------------------------------------------------


def fixture_path(tmp_path, name):
    path = tmp_path / name
    path.write_text(fixture_text(name), encoding="utf-8")
    return str(path)


def test_cli_check_profile(tmp_path, capsys):
    path = fixture_path(tmp_path, "ex1.poset")
    code = main(["check", path, "--props", "orthogonal,complemented,involution"])
    out = capsys.readouterr().out
    assert "orthogonal: true" in out
    assert "complemented: true" in out
    assert "involution: false" in out
    assert "witness" in out
    assert code == 1  # a requested property failed


def test_cli_check_all_pass(tmp_path, capsys):
    path = fixture_path(tmp_path, "cube8.poset")
    assert main(["check", path]) == 0
    assert "orthomodular: true" in capsys.readouterr().out


def test_cli_check_json(tmp_path, capsys):
    path = fixture_path(tmp_path, "m3.poset")
    code = main(["check", path, "--json", "--props", "orthogonal"])
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert code == 0


def test_cli_check_unknown_property(tmp_path, capsys):
    path = fixture_path(tmp_path, "m3.poset")
    assert main(["check", path, "--props", "sparkly"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_check_repeated_property_prints_once(tmp_path, capsys):
    # repeated names are read once, in the order given, as --criteria reads them
    path = fixture_path(tmp_path, "m3.poset")
    assert main(["check", path, "--props", "lattice,lattice"]) == 0
    assert capsys.readouterr().out == "lattice: true\n"
    assert main(["check", path, "--props", "involution,lattice,involution"]) == 1
    assert capsys.readouterr().out == (
        "involution: false  [witness (a): double_image_differs]\nlattice: true\n"
    )


@pytest.mark.parametrize(
    "command",
    [
        ["verify-paper", "--criteria", ""],
        ["check", "FILE", "--props", ""],
        ["proj", "FILE", "--a", "a", "--x", ""],
        ["search", "--require", ""],
        ["search", "--forbid", ""],
    ],
    ids=lambda c: f"{c[0]}{c[-2]}",
)
def test_cli_empty_option_value_is_refused(tmp_path, capsys, command):
    # an empty value names nothing, so it is refused like any unknown name,
    # not read as the option's absence
    path = fixture_path(tmp_path, "ex1.poset")
    assert main([path if arg == "FILE" else arg for arg in command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert "''" in captured.err


def test_cli_check_op_property_needs_prime(tmp_path, capsys):
    path = tmp_path / "bare.poset"
    path.write_text("poset bare\nelements 0 1\ncovers 0<1\n")
    assert main(["check", str(path), "--props", "orthogonal"]) == 2
    assert "prime" in capsys.readouterr().err


def test_cli_check_bare_defaults_to_poset_properties(tmp_path, capsys):
    path = tmp_path / "bare.poset"
    path.write_text("poset bare\nelements 0 1\ncovers 0<1\n")
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "saturated: true" in out and "lattice: true" in out
    assert "orthogonal" not in out


def test_cli_tables_golden(tmp_path, capsys):
    path = fixture_path(tmp_path, "ex1.poset")
    assert main(["tables", path, "--op", "odot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("odot")
    assert main(["tables", path, "--format", "json", "--op", "both"]) == 0
    tables = json.loads(capsys.readouterr().out)  # one document
    assert [t["op"] for t in tables] == ["odot", "arrow"]


@pytest.mark.parametrize(
    "command", [["tables"], ["adjoint"], ["thm1"], ["proj", "--a", "c"]], ids=lambda c: c[0]
)
def test_cli_undefined_operations_one_stderr_line(tmp_path, capsys, butterfly, command):
    path = tmp_path / "butterfly.poset"
    path.write_text(serialize_document(poset_to_document(butterfly.poset, "butterfly", butterfly.prime)))
    assert main([command[0], str(path), *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert captured.err.startswith("operations undefined: the poset is not orthogonal (undefined meet of (d, c))")
    assert "total exactly on orthogonal posets" in captured.err
    assert "`check --props orthogonal`" in captured.err


def test_cli_adjoint(tmp_path, capsys):
    ex1 = fixture_path(tmp_path, "ex1.poset")
    assert main(["adjoint", ex1, "--witness"]) == 1
    out = capsys.readouterr().out
    assert "a1: true" in out and "a2: false" in out
    assert "a2 witness:" in out
    m3 = fixture_path(tmp_path, "m3.poset")
    assert main(["adjoint", m3]) == 0
    assert "adjoint pair: true" in capsys.readouterr().out


def test_cli_adjoint_prints_both_witnesses(tmp_path, capsys):
    benzene = fixture_path(tmp_path, "benzene.poset")
    assert main(["adjoint", benzene, "--witness"]) == 1
    assert capsys.readouterr().out == (
        "a1: false\na2: false\na1 witness: z, u, 0\na2 witness: x, z, x\nadjoint pair: false\n"
    )


def test_cli_thm1(tmp_path, capsys):
    m3 = fixture_path(tmp_path, "m3.poset")
    assert main(["thm1", m3]) == 0
    out = capsys.readouterr().out
    for key in ("(i)", "(ii)", "(iii)", "(iv)", "(v)", "(vi)"):
        assert f"{key}: true" in out
    assert "consistent: true" in out
    ex1 = fixture_path(tmp_path, "ex1.poset")
    assert main(["thm1", ex1]) == 1
    out = capsys.readouterr().out
    assert "a2: false" in out and "consistent: true" in out


def test_cli_o6(tmp_path, capsys):
    benzene = fixture_path(tmp_path, "benzene.poset")
    assert main(["o6", benzene]) == 0
    assert "O6 subalgebra:" in capsys.readouterr().out
    fig3 = fixture_path(tmp_path, "fig3.poset")
    assert main(["o6", fig3]) == 0
    assert "no O6 subalgebra" in capsys.readouterr().out
    ex1 = fixture_path(tmp_path, "ex1.poset")
    assert main(["o6", ex1]) == 2
    assert "lattice" in capsys.readouterr().err


def test_cli_proj(tmp_path, capsys):
    ex1 = fixture_path(tmp_path, "ex1.poset")
    assert main(["proj", ex1, "--a", "c"]) == 0
    out = capsys.readouterr().out
    assert "x=a: projection c  dual 1" in out
    assert main(["proj", ex1, "--a", "c", "--x", "a"]) == 0
    assert main(["proj", ex1, "--a", "zz"]) == 2


def test_cli_search(capsys):
    assert main(["search", "--require", "complemented", "--max-n", "2"]) == 0
    out = capsys.readouterr().out
    assert "3 match(es)" in out
    assert "prime" in out and "# flags:" in out


# sha256 of the whole stdout of two search goals, one over complementations
# and one over seeded map samples: a change to how search decides the flags it
# prints must keep both byte for byte.
SEARCH_STDOUT_SHA256 = {
    "--require modular,complemented --forbid orthomodular --max-n 5 --limit 100":
        "180809c11cb430bbbd4f0e7cab5269d79f51b9f4a8732dcfd5c40e6cab5cfa6f",
    "--require involution,orthogonal --forbid adjoint --max-n 5 --limit 20 --seed 3":
        "63339b821a94a34ca86b4d813351dac54dfd8069f1eaea8feb7e1693e65cbc9b",
}


@pytest.mark.parametrize("args", sorted(SEARCH_STDOUT_SHA256))
def test_cli_search_stdout_pinned(args, capsys):
    assert main(["search", *args.split()]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SEARCH_STDOUT_SHA256[args]


def test_cli_search_bad_flag(capsys):
    assert main(["search", "--require", "glitter"]) == 2
    assert "unknown search flags" in capsys.readouterr().err


def test_cli_search_empty_flag_is_named(capsys):
    assert main(["search", "--require", ","]) == 2
    assert capsys.readouterr().err == "error: unknown search flags: ''\n"


@pytest.mark.parametrize("limit", ["0", "-2"])
def test_cli_search_rejects_limit_below_one(limit, capsys):
    assert main(["search", "--limit", limit]) == 2
    captured = capsys.readouterr()
    assert "limit must be at least 1" in captured.err
    assert "match(es)" not in captured.out


def test_cli_dot(tmp_path, capsys):
    ex1 = fixture_path(tmp_path, "ex1.poset")
    target = tmp_path / "out.gv"
    assert main(["dot", ex1, "-o", str(target)]) == 0
    assert target.read_text().count("->") == 10
    assert main(["dot", ex1]) == 0
    assert capsys.readouterr().out.count("->") == 10


def test_cli_dot_unwritable_output(tmp_path, capsys):
    ex1 = fixture_path(tmp_path, "ex1.poset")
    target = tmp_path / "missing" / "out.gv"
    assert main(["dot", ex1, "-o", str(target)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {target}: No such file or directory\n"


def test_cli_verify_paper_subset(capsys):
    assert main(["verify-paper", "--criteria", "1,2,3"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3


def test_cli_verify_paper_runs_each_criterion_once_in_order(capsys):
    assert main(["verify-paper", "--criteria", "2,1,1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line[:7] for line in lines] == ["[ 1/12]", "[ 2/12]"]


# stdout of `verify-paper --criteria 6,7,8,9,10` with the timings stripped;
# the per-n lines are the sweep's progress, printed once, when it is built
VERIFY_SWEEPS_STDOUT = """\
n=1: 1 bounded posets, 1 orthogonal complemented instances
n=2: 2 bounded posets, 2 orthogonal complemented instances
n=3: 6 bounded posets, 0 orthogonal complemented instances
n=4: 36 bounded posets, 12 orthogonal complemented instances
n=5: 380 bounded posets, 400 orthogonal complemented instances
[ 6/12] PASS adjunction condition equivalences over the n<=5 sweep 415 instances, equivalences hold; 8 replayed on the slow path
[ 7/12] PASS orthomodular implies adjoint over the sweep 15 orthomodular sweep instances plus fixtures, all adjoint
[ 8/12] PASS adjointness consequences over the sweep 415 complemented + 9387 arbitrary-map orthogonal instances
[ 9/12] PASS projection laws over the sweep 415 orthogonal instances (15 orthomodular) pass
[10/12] PASS totality equals orthogonality for arbitrary maps 9387 instances agree; 97 replayed on the slow path
"""


def test_cli_verify_paper_sweep_output_pinned(capsys, monkeypatch):
    monkeypatch.setattr(verify, "_SWEEP", [])  # so this run builds the sweep
    assert main(["verify-paper", "--criteria", "6,7,8,9,10"]) == 0
    assert re.sub(r" \(\d+\.\d\ds\)", "", capsys.readouterr().out) == VERIFY_SWEEPS_STDOUT


@pytest.mark.parametrize("criteria, bad", [("99", "'99'"), ("x", "'x'"), ("1,99", "'99'"), ("1,,2", "''")])
def test_cli_verify_paper_unknown_criterion(criteria, bad, capsys):
    assert main(["verify-paper", "--criteria", criteria]) == 2
    captured = capsys.readouterr()
    assert f"unknown criterion {bad}" in captured.err
    assert "PASS" not in captured.out


def test_cli_missing_file(capsys):
    assert main(["check", "/nonexistent/x.poset"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_cli_parse_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.poset"
    bad.write_text("poset t\nelements 0 1\ncovers 0<1 1<0\n")
    assert main(["check", str(bad)]) == 2
    assert "antisymmetric" in capsys.readouterr().err


@given(documents_text.map(str.encode) | st.binary())
@settings(max_examples=150, deadline=None)
def test_cli_check_on_arbitrary_text(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.poset"
    path.write_bytes(data)
    assert main(["check", str(path)]) in (0, 1, 2)


def test_cli_non_utf8_file(tmp_path, capsys):
    bad = tmp_path / "bad.poset"
    # the column counts characters: the two-byte é before the bad byte is one
    bad.write_bytes("poset t\nelements é ".encode("utf-8") + b"\xff\n")
    assert main(["check", str(bad)]) == 2
    assert "line 2, column 12: file is not valid UTF-8" in capsys.readouterr().err


def test_cli_file_with_bom(tmp_path, capsys):
    # a leading UTF-8 BOM is skipped and takes no column of its own
    bom = b"\xef\xbb\xbf"
    good = tmp_path / "bom.poset"
    good.write_bytes(bom + fixture_text("ex1.poset").encode("utf-8"))
    assert load_poset_path(str(good)) == load_fixture("ex1.poset")
    bad = tmp_path / "bad.poset"
    for data, where in (
        (b"poset \xff\n", "line 1, column 7"),
        ("poset t\nelements é ".encode("utf-8") + b"\xff\n", "line 2, column 12"),
    ):
        bad.write_bytes(bom + data)
        assert main(["check", str(bad)]) == 2
        assert f"{where}: file is not valid UTF-8" in capsys.readouterr().err


def _module_argv_env(*args):
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return [sys.executable, "-m", "orthoposet", *args], {**os.environ, "PYTHONPATH": path}


def _run_module(*args):
    argv, env = _module_argv_env(*args)
    return subprocess.run(argv, env=env, capture_output=True, text=True)


def test_closed_stdout_gives_no_traceback():
    # 500 hits are about 130 kB, more than a pipe holds, so the search is
    # still writing when the reader goes away after the first line
    argv, env = _module_argv_env("search", "--max-n", "4", "--limit", "500")
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"poset hit1\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b"", err.decode()  # no traceback, and no "Exception ignored" either


def test_module_entry_point_runs_the_cli():
    fixture = Path(__file__).resolve().parent.parent / "src" / "orthoposet" / "fixtures" / "cube8.poset"
    done = _run_module("check", str(fixture))
    assert done.returncode == 0, done.stderr
    assert "RuntimeWarning" not in done.stderr
    assert _run_module("search", "--limit", "0").returncode == 2
