"""Poset file format, table/DOT renderers, JSON reports and the CLI.

File format (line oriented, ``#`` starts a comment, sections in this order,
``covers``/``prime`` lines may repeat):

    poset NAME
    elements L1 L2 ...
    covers A<B A<C ...
    prime A:B C:D ...

NAME is any non-whitespace string without ``#``, and labels are such strings
without ``<`` or ``:`` as well. The cover relation is closed
reflexively-transitively; the result must be a bounded poset. ``prime``, when
present, must be total.

Tables: a set cell lists its members separated by a space, which no label
contains (in braces in text, when there is more than one); two text or CSV
tables are separated by one blank line.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from . import verify
from .adjoint import CONDITION_KEYS, EQUIVALENCE_GROUPS, find_o6_subalgebra, is_adjoint_pair
from .enumeration import SEARCH_FLAGS, SearchGoal, instance_flag_map, search
from .poset_core import OpPoset, Poset, PosetError, UndefinedOperationError, add_cover
from .properties import PROPERTY_NAMES, PropertyReport, op_reports, poset_reports
from .sasaki import OpTable, op_tables, sasaki_proj, sasaki_proj_dual


class ParseError(PosetError):
    def __init__(self, line: int, col: int, message: str):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, column {col}: {message}")


@dataclass(frozen=True)
class PosetDocument:
    name: str
    elements: tuple[str, ...]
    covers: tuple[tuple[str, str], ...]
    prime: Optional[dict[str, str]]


_SECTION_ORDER = ("poset", "elements", "covers", "prime")


# What reads back as itself, as a document name or as a label: a nonempty
# token with no whitespace and no "#" (a comment); a label also holds none of
# the cover and prime separators "<" and ":".
_READABLE = {kind: re.compile(rf"[^\s#{separators}]+").fullmatch
             for kind, separators in (("name", ""), ("label", "<:"))}


def _check_label(label: str, line: int, col: int) -> str:
    if not _READABLE["label"](label):
        raise ParseError(line, col, f"label {label!r} may not contain '<' or ':'")
    return label


def parse_poset(text: str) -> PosetDocument:
    """Parse and fully validate a poset document."""
    name = None
    elements: list[str] = []
    covers: list[tuple[str, str]] = []
    prime: dict[str, str] = {}
    prime_at = None  # (line, column) of the first prime keyword
    stage = -1
    elements_at = (1, 1)
    index: dict[str, int] = {}
    up: list[int] = []  # reflexive-transitive closure of the covers read so far
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        spans = [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", line)]
        if not spans:
            continue
        keyword, col = spans[0]
        if keyword not in _SECTION_ORDER:
            raise ParseError(lineno, col, f"unknown section {keyword!r}")
        idx = _SECTION_ORDER.index(keyword)
        if idx < stage:
            raise ParseError(lineno, col, f"section {keyword!r} out of order")
        if keyword in ("poset", "elements") and idx == stage:
            raise ParseError(lineno, col, f"duplicate section {keyword!r}")
        stage = idx
        body = spans[1:]
        if keyword == "poset":
            if len(body) != 1:
                raise ParseError(lineno, col, "poset section expects exactly one name")
            name = body[0][0]
        elif keyword == "elements":
            for tok, tcol in body:
                label = _check_label(tok, lineno, tcol)
                if label in elements:
                    raise ParseError(lineno, tcol, f"duplicate element {label!r}")
                elements.append(label)
            if not elements:
                raise ParseError(lineno, col, "elements section is empty")
            elements_at = (lineno, col)
            index = {label: i for i, label in enumerate(elements)}
            up = [1 << i for i in range(len(elements))]
        elif keyword == "covers":
            for tok, tcol in body:
                if tok.count("<") != 1:
                    raise ParseError(lineno, tcol, f"cover {tok!r} must be A<B")
                a, b = tok.split("<")
                for lab in (a, b):
                    if lab not in elements:
                        raise ParseError(lineno, tcol, f"unknown element {lab!r} in cover")
                if a == b:
                    raise ParseError(lineno, tcol, f"cover {tok!r} relates an element to itself")
                i, j = index[a], index[b]
                if (up[j] >> i) & 1:
                    raise ParseError(
                        lineno, tcol, f"cover {tok!r} closes a cycle, so the order is not antisymmetric"
                    )
                add_cover(up, i, j)
                covers.append((a, b))
        else:
            prime_at = prime_at or (lineno, col)
            for tok, tcol in body:
                if tok.count(":") != 1:
                    raise ParseError(lineno, tcol, f"prime entry {tok!r} must be A:B")
                a, b = tok.split(":")
                for lab in (a, b):
                    if lab not in elements:
                        raise ParseError(lineno, tcol, f"unknown element {lab!r} in prime")
                if a in prime:
                    raise ParseError(lineno, tcol, f"duplicate prime entry for {a!r}")
                prime[a] = b
    if name is None:
        raise ParseError(1, 1, "missing poset section")
    if not elements:
        raise ParseError(1, 1, "missing elements section")
    if prime_at:
        missing = [e for e in elements if e not in prime]
        if missing:
            raise ParseError(*prime_at, f"prime map is partial; missing {', '.join(missing)}")
    doc = PosetDocument(
        name, tuple(elements), tuple(covers), dict(prime) if prime_at else None
    )
    try:
        document_to_poset(doc)  # validates the bounds and the carrier cap
    except PosetError as exc:
        raise ParseError(*elements_at, str(exc)) from None
    return doc


def document_to_poset(doc: PosetDocument) -> Poset:
    index = {s: i for i, s in enumerate(doc.elements)}
    try:
        return Poset.from_covers(
            doc.elements, [(index[a], index[b]) for a, b in doc.covers]
        )
    except PosetError as exc:
        raise PosetError(f"{doc.name}: {exc}") from None


def document_to_op(doc: PosetDocument) -> OpPoset:
    if doc.prime is None:
        raise PosetError(f"{doc.name}: file defines no unary operation (prime section)")
    return OpPoset.from_named_map(document_to_poset(doc), doc.prime)


def serialize_document(doc: PosetDocument) -> str:
    if not _READABLE["name"](doc.name):
        raise PosetError(f"document name {doc.name!r} would not read back "
                         "(a name is nonempty and holds no whitespace or '#')")
    unreadable = ", ".join(repr(s) for s in doc.elements if not _READABLE["label"](s))
    if unreadable:
        raise PosetError(f"{doc.name}: labels {unreadable} would not read back "
                         "(a label holds no whitespace, '#', '<' or ':')")
    lines = [f"poset {doc.name}", "elements " + " ".join(doc.elements)]
    if doc.covers:
        lines.append("covers " + " ".join(f"{a}<{b}" for a, b in doc.covers))
    if doc.prime is not None:
        lines.append("prime " + " ".join(f"{a}:{doc.prime[a]}" for a in doc.elements))
    return "\n".join(lines) + "\n"


def poset_to_document(p: Poset, name: str, prime: Optional[tuple[int, ...]] = None) -> PosetDocument:
    covers = tuple((p.names[i], p.names[j]) for i, j in sorted(p.covers()))
    pm = None
    if prime is not None:
        pm = {p.names[i]: p.names[v] for i, v in enumerate(prime)}
    return PosetDocument(name, p.names, covers, pm)


def load_poset_path(path: str) -> PosetDocument:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        data = exc.object  # past a leading BOM, as exc.start counts
        start = data.rfind(b"\n", 0, exc.start) + 1
        line = data.count(b"\n", 0, start) + 1
        col = len(data[start:exc.start].decode("utf-8")) + 1
        raise ParseError(line, col, "file is not valid UTF-8") from None
    return parse_poset(text)


def fixture_text(name: str) -> str:
    return resources.files(__package__).joinpath("fixtures", name).read_text("utf-8")


def load_fixture(name: str) -> PosetDocument:
    """Bundled document, e.g. load_fixture("ex1.poset")."""
    return parse_poset(fixture_text(name))


# ---------------------------------------------------------------------------
# renderers
# ---------------------------------------------------------------------------


def _members(p: Poset, mask: int) -> str:
    """A set cell's members joined by a space, which no label contains: the
    CSV cell, and the text cell inside its braces."""
    return " ".join(p.names_of(mask))


def _cell_text(p: Poset, mask: int) -> str:
    members = _members(p, mask)
    return members if mask.bit_count() == 1 else "{" + members + "}"


def render_table(table: OpTable, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps(_table_payload(table), indent=2) + "\n"
    if fmt not in ("text", "csv"):
        raise PosetError(f"unknown table format {fmt!r}")
    p = table.poset
    cell = _cell_text if fmt == "text" else _members
    rows = [[table.kind, *p.names]]
    rows += [[p.names[x]] + [cell(p, mask) for mask in table.cells[x]] for x in range(p.n)]
    if fmt == "csv":
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(rows)
        return out.getvalue()
    widths = [max(len(r[c]) for r in rows) for c in range(p.n + 1)]
    return "\n".join(
        "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip()
        for row in rows
    ) + "\n"


def _table_payload(table: OpTable) -> dict:
    p = table.poset
    return {
        "op": table.kind,
        "elements": list(p.names),
        "cells": [
            [list(p.names_of(table.cells[x][y])) for y in range(p.n)]
            for x in range(p.n)
        ],
    }


def _dot_id(name: str) -> str:
    """A label as a quoted DOT identifier."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(p: Poset) -> str:
    """DOT digraph of the cover relation, bottom ranked lowest."""
    lines = ["digraph poset {", "  rankdir=BT;", "  node [shape=plaintext];"]
    for name in p.names:
        lines.append(f"  {_dot_id(name)};")
    for i, j in sorted(p.covers()):
        lines.append(f"  {_dot_id(p.names[i])} -> {_dot_id(p.names[j])};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _profile(doc: PosetDocument) -> tuple[Poset, Optional[OpPoset], dict[str, PropertyReport]]:
    """The document's poset, its instance (None without a prime section) and
    the property profile of the instance, or of the poset alone."""
    if doc.prime is None:
        p = document_to_poset(doc)
        return p, None, poset_reports(p)
    op = document_to_op(doc)
    return op.poset, op, op_reports(op)


def json_report(doc: PosetDocument) -> dict:
    """Stable-keyed structured report; adjointness only on orthogonal input."""
    p, op, reports = _profile(doc)
    out: dict = {"name": doc.name, "n": p.n}
    out["properties"] = {k: r.holds for k, r in reports.items()}
    out["witnesses"] = {
        k: {
            "elements": [p.names[i] for i in r.witness.elements],
            "condition": r.witness.condition,
        }
        for k, r in reports.items()
        if not r.holds
    }
    if op is not None and reports["orthogonal"].holds:
        rep = is_adjoint_pair(op)
        out["adjoint"] = {
            "a1": rep.a1,
            "a2": rep.a2,
            "witnesses": {
                "a1": [p.names[i] for i in rep.a1_witness] if rep.a1_witness else None,
                "a2": [p.names[i] for i in rep.a2_witness] if rep.a2_witness else None,
            },
        }
        out["conditions"] = {k: rep.conditions[k] for k in CONDITION_KEYS}
    return out


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _load_for_cli(path: str) -> PosetDocument:
    try:
        return load_poset_path(path)
    except OSError as exc:
        raise PosetError(f"cannot read {path}: {exc.strerror}") from None


def _load_op(path: str) -> OpPoset:
    return document_to_op(_load_for_cli(path))


def _cmd_check(args) -> int:
    doc = _load_for_cli(args.file)
    p, _, reports = _profile(doc)
    wanted = list(dict.fromkeys(args.props.split(","))) if args.props is not None else list(reports)
    for prop in wanted:
        if prop not in PROPERTY_NAMES:
            raise PosetError(f"unknown property {prop!r} (choose from {', '.join(PROPERTY_NAMES)})")
        if prop not in reports:
            raise PosetError(f"property {prop!r} needs a prime section in the file")
    if args.json:
        print(json.dumps(json_report(doc), indent=2))
    else:
        for prop in wanted:
            print(reports[prop].describe(p))
    return 0 if all(reports[prop].holds for prop in wanted) else 1


def _cmd_tables(args) -> int:
    tables = op_tables(_load_op(args.file))
    if args.format == "json" and args.op == "both":
        print(json.dumps([_table_payload(t) for t in tables], indent=2))
        return 0
    chosen = {"odot": tables[:1], "arrow": tables[1:], "both": tables}[args.op]
    sys.stdout.write("\n".join(render_table(t, args.format) for t in chosen))
    return 0


def _load_directions(args):
    """Load the file's instance and print both directions."""
    op = _load_op(args.file)
    rep = is_adjoint_pair(op)
    print(f"a1: {str(rep.a1).lower()}")
    print(f"a2: {str(rep.a2).lower()}")
    return op.poset, rep


def _cmd_adjoint(args) -> int:
    p, rep = _load_directions(args)
    if args.witness:
        if rep.a1_witness:
            print("a1 witness:", ", ".join(p.names[i] for i in rep.a1_witness))
        if rep.a2_witness:
            print("a2 witness:", ", ".join(p.names[i] for i in rep.a2_witness))
    print(f"adjoint pair: {str(rep.adjoint).lower()}")
    return 0 if rep.adjoint else 1


def _cmd_thm1(args) -> int:
    p, rep = _load_directions(args)
    for key in CONDITION_KEYS:
        line = f"({key}): {str(rep.conditions[key]).lower()}"
        wit = rep.condition_witnesses[key]
        if wit:
            line += "  [witness " + ", ".join(p.names[i] for i in wit) + "]"
        print(line)
    consistent = all(len({rep.flags[name] for name in group}) == 1 for group in EQUIVALENCE_GROUPS)
    print(f"equivalence groups consistent: {str(consistent).lower()}")
    return 0 if rep.adjoint and consistent else 1


def _cmd_o6(args) -> int:
    op = _load_op(args.file)
    p = op.poset
    found = find_o6_subalgebra(op)
    if found is None:
        print("no O6 subalgebra")
    else:
        b, x, y, z, u, t = found
        print(
            "O6 subalgebra: "
            f"{p.names[b]} < {p.names[x]} < {p.names[z]} < {p.names[t]} and "
            f"{p.names[b]} < {p.names[y]} < {p.names[u]} < {p.names[t]}"
        )
    return 0


def _cmd_proj(args) -> int:
    op = _load_op(args.file)
    p = op.poset
    a = p.index(args.a)
    xs = [p.index(args.x)] if args.x is not None else range(p.n)
    lines = [
        f"x={p.names[x]}: projection {_cell_text(p, sasaki_proj(op, a, x))}"
        f"  dual {_cell_text(p, sasaki_proj_dual(op, a, x))}"
        for x in xs
    ]
    print("\n".join(lines))
    return 0


def _cmd_search(args) -> int:
    require = frozenset(args.require.split(",")) if args.require is not None else frozenset()
    forbid = frozenset(args.forbid.split(",")) if args.forbid is not None else frozenset()
    goal = SearchGoal(
        require=require, forbid=forbid, max_n=args.max_n, limit=args.limit, seed=args.seed
    )
    count = 0
    for op in search(goal):
        count += 1
        doc = poset_to_document(op.poset, f"hit{count}", op.prime)
        flags = instance_flag_map(op)
        sys.stdout.write(serialize_document(doc))
        print("# flags: " + " ".join(f"{k}={str(v).lower()}" for k, v in sorted(flags.items())))
        print()
    print(f"{count} match(es)")
    return 0


def _cmd_dot(args) -> int:
    doc = _load_for_cli(args.file)
    text = export_dot(document_to_poset(doc))
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise PosetError(f"cannot write {args.output}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify_paper(args) -> int:
    numbers = None
    if args.criteria is not None:
        tokens = args.criteria.split(",")
        known = {num for num, _, _, _ in verify.CRITERIA}
        bad = [tok for tok in tokens if not (tok.strip().isdecimal() and int(tok) in known)]
        if bad:
            raise PosetError(f"unknown criterion {bad[0]!r} (choose from {min(known)}-{max(known)})")
        numbers = sorted({int(tok) for tok in tokens})
    results = verify.run_all(numbers=numbers, progress=print)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{r.number:2d}/{len(verify.CRITERIA)}] {status} {r.name} ({r.seconds:.2f}s) {r.detail}")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthoposet",
        description="Finite bounded posets with a unary operation: set-valued "
        "Sasaki-style operations, adjointness analysis and model search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="decide structural properties of a poset file")
    c.add_argument("file")
    c.add_argument("--props", help="comma-separated property names (default: all)")
    c.add_argument("--json", action="store_true", help="emit the JSON report")
    c.set_defaults(func=_cmd_check)

    t = sub.add_parser("tables", help="print the operation tables")
    t.add_argument("file")
    t.add_argument("--op", choices=("odot", "arrow", "both"), default="both")
    t.add_argument("--format", choices=("text", "csv", "json"), default="text")
    t.set_defaults(func=_cmd_tables)

    a = sub.add_parser("adjoint", help="decide whether the operations form an adjoint pair")
    a.add_argument("file")
    a.add_argument("--witness", action="store_true", help="print violating triples")
    a.set_defaults(func=_cmd_adjoint)

    th = sub.add_parser("thm1", help="report both adjunction directions and conditions i..vi")
    th.add_argument("file")
    th.set_defaults(func=_cmd_thm1)

    o = sub.add_parser("o6", help="search a complemented lattice for an O6 subalgebra")
    o.add_argument("file")
    o.set_defaults(func=_cmd_o6)

    pr = sub.add_parser("proj", help="print the projection and its dual for a parameter")
    pr.add_argument("file")
    pr.add_argument("--a", required=True, help="projection parameter element")
    pr.add_argument("--x", help="single argument element (default: all)")
    pr.set_defaults(func=_cmd_proj)

    s = sub.add_parser("search", help="hunt for instances with required/forbidden flags")
    s.add_argument("--max-n", type=int, default=5, dest="max_n")
    s.add_argument("--require", help="comma-separated flags: " + ", ".join(SEARCH_FLAGS))
    s.add_argument("--forbid", help="comma-separated flags")
    s.add_argument("--limit", type=int, default=10)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=_cmd_search)

    d = sub.add_parser("dot", help="export the cover relation as a DOT digraph")
    d.add_argument("file")
    d.add_argument("-o", "--output")
    d.set_defaults(func=_cmd_dot)

    v = sub.add_parser("verify-paper", help="run the bundled verification suite")
    v.add_argument("--criteria", help="comma-separated criterion numbers (default: all)")
    v.set_defaults(func=_cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed reader shows up here, not at exit
        return status
    except UndefinedOperationError as exc:
        print(
            f"operations undefined: the poset is not orthogonal ({exc}); they are total "
            "exactly on orthogonal posets, and `check --props orthogonal` names a witness",
            file=sys.stderr,
        )
        return 1
    except PosetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # whatever is still buffered goes to devnull, so the flush at exit is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
