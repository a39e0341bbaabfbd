"""Export records: CSV tables and matrix documents with embedded provenance.

Every artifact starts with the same three header comments
(schema_version, command, config hash) so goldens can be traced and
compared across runs.  Floats are written with their shortest
round-trip representation; parsing an exported document reproduces the
in-memory values bit for bit.  `csv_table` formats each distinct float
bit pattern of a column once per block of rows and reuses the text.
The sheet's cut lines and the holonomy and cycle documents are
`tag,cell,...` lines, all written by `_line`; `_read_lines` alone splits
them and decodes their cells (by tag, through `_DECODERS`), so a
malformed line is a SerializationError that names it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, takewhile

import numpy as np

SCHEMA_VERSION = 1
BLOCK_ROWS = 4096      # rows formatted together; bounds csv_table's memory


class SerializationError(ValueError):
    """Document does not follow the expected record layout."""


def format_float(x) -> str:
    """Shortest representation that parses back to the same double."""
    return repr(float(x))


@dataclass(frozen=True)
class ExportRecord:
    command: str
    config_hash: str
    payload: str
    schema_version: int = SCHEMA_VERSION

    def render(self) -> str:
        head = (f"# schema_version = {self.schema_version}\n"
                f"# command = {self.command}\n"
                f"# config_hash = {self.config_hash}\n")
        return head + self.payload


def parse_record(text: str) -> ExportRecord:
    lines = text.splitlines(keepends=True)
    if len(lines) < 3:
        raise SerializationError("record too short for its header")
    meta = {}
    for line in lines[:3]:
        if not line.startswith("# ") or " = " not in line:
            raise SerializationError(f"malformed header line: {line!r}")
        key, _, value = line[2:].rstrip("\n").partition(" = ")
        meta[key] = value
    expected = ("schema_version", "command", "config_hash")
    if tuple(meta) != expected:
        raise SerializationError(f"header keys {tuple(meta)} != {expected}")
    return ExportRecord(command=meta["command"],
                        config_hash=meta["config_hash"],
                        payload="".join(lines[3:]),
                        schema_version=_decode(lines[0], int, meta["schema_version"]))


def _cell_text(cell) -> str:
    if isinstance(cell, str):
        if "," in cell or "\n" in cell:
            raise SerializationError(f"cell {cell!r} needs quoting, not supported")
        return cell
    if isinstance(cell, (int, np.integer)):
        return str(int(cell))
    return format_float(cell)


def _column_texts(cells) -> list:
    """Texts of one column's cells, by the _cell_text rule.

    A column of plain floats is keyed on its bit patterns, so each
    distinct double is formatted once; 0.0 and -0.0, and NaNs of any
    sign or payload, are different keys and keep their own repr.
    """
    if set(map(type, cells)) != {float}:
        return list(map(_cell_text, cells))
    bits = np.fromiter(cells, dtype=np.float64, count=len(cells)).view(np.int64)
    keys, index = np.unique(bits, return_inverse=True)
    texts = list(map(repr, keys.view(np.float64).tolist()))
    return [texts[i] for i in index.tolist()]


def _block_lines(block, width) -> list:
    """CSV lines of one block of rows; its column texts die on return."""
    for row in block:
        if len(row) != width:
            raise SerializationError(f"row width {len(row)} != header width {width}")
    if not width:
        return [""] * len(block)
    texts = [_column_texts(cells) for cells in zip(*block)]
    return list(map(",".join, zip(*texts)))


def csv_table(columns, rows) -> str:
    """Rows of floats/ints/strings; floats get round-trip formatting.

    Rows are formatted BLOCK_ROWS at a time, one column at a time.
    """
    columns = tuple(columns)
    out = [",".join(columns)]
    rows = iter(rows)
    while block := list(islice(rows, BLOCK_ROWS)):
        out += _block_lines(block, len(columns))
    return "\n".join(out) + "\n"


def _parse_cell(cell: str):
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


def parse_csv_table(payload: str):
    lines = [ln for ln in payload.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise SerializationError("empty table")
    columns = lines[0].split(",")
    rows = [tuple(_parse_cell(c) for c in ln.split(",")) for ln in lines[1:]]
    for row in rows:
        if len(row) != len(columns):
            raise SerializationError("ragged table")
    return columns, rows


def _line(tag: str, cells) -> str:
    """One document line, tag,cell,cell,... by the _cell_text rule; the
    comma after the tag stays when there are no cells."""
    return tag + "," + ",".join(map(_cell_text, cells)) + "\n"


# level -> value items a<sep>b, by tag: separator, value text, value parser
_ITEMS = {"permutation": ("->", int, int),
          "phases": (":", lambda z: f"{complex(z).real!r}{complex(z).imag:+}j", complex)}


def _items_line(tag: str, mapping) -> str:
    sep, text, _ = _ITEMS[tag]
    return _line(tag, (f"{int(a)}{sep}{text(mapping[a])}" for a in sorted(mapping)))


def _items(tag: str):
    sep, _, convert = _ITEMS[tag]
    return lambda cells: {int(a): convert(b) for a, _, b in (c.partition(sep) for c in cells)}


def _fields(*converters):
    """Decoder of exactly one cell per converter; one cell decodes to its value."""
    def decode(cells):
        values = tuple(convert(c) for convert, c in zip(converters, cells, strict=True))
        return values if len(values) > 1 else values[0]
    return decode


def _int_list(cells) -> tuple:
    return tuple(map(int, cells))


# cell decoders by line tag; "row i" lines use "row"
_DECODERS = {"g0": _fields(float), "kbar": _fields(int), "levels": _int_list,
             "exiting": _int_list, "permutation": _items("permutation"),
             "phases": _items("phases"), "energy_before": _fields(int, float),
             "energy_after": _fields(int, float),
             "row": lambda cells: np.array(list(map(float, cells))).view(complex),
             "cut": _fields(float, float, float, str, float, float)}


def _decode(line: str, decode, cells):
    try:
        return decode(cells)
    except (ValueError, IndexError) as exc:
        raise SerializationError(f"malformed item in {line!r}: {exc}") from None


def _read_lines(payload: str, tags) -> list:
    """(tag, decoded cells) of each non-empty line, its tag one of tags:
    the only place a document line is split or a cell converted."""
    out = []
    for line in payload.splitlines():
        if not line:
            continue
        tag, _, rest = line.partition(",")
        key = "row" if tag.startswith("row ") else tag
        if key not in tags:
            raise SerializationError(f"unexpected line tag {tag!r}")
        out.append((tag, _decode(line, _DECODERS[key], rest.split(",") if rest else [])))
    return out


def sheet_document(cuts, columns, rows) -> str:
    """Sheet export: recorded cut segments followed by the grid table.

    Cuts are data, not value jumps, so they travel with the grid: one
    line per segment before the CSV header.
    """
    return "".join(_line("cut", (float(c.re), float(c.im_lo), float(c.im_hi), c.kind,
                                 c.branch_point.real, c.branch_point.imag))
                   for c in cuts) + csv_table(columns, rows)


def parse_sheet_document(payload: str):
    """Inverse of sheet_document: (cut tuples, columns, rows)."""
    lines = payload.splitlines(keepends=True)
    n_cuts = len(list(takewhile(lambda ln: ln.startswith("cut,"), lines)))
    cuts = _read_lines("".join(lines[:n_cuts]), ("cut",))
    columns, rows = parse_csv_table("".join(lines[n_cuts:]))
    return [(*cut[:4], complex(*cut[4:])) for _, cut in cuts], columns, rows


def holonomy_document(levels, matrix, permutation=None, phases=None) -> str:
    """Structured text for a holonomy matrix over a truncated family.

    One line per matrix row, real and imaginary parts interleaved, plus
    optional permutation and phase lines.  Re-parses exactly.
    """
    m = np.ascontiguousarray(matrix, dtype=complex)
    levels = tuple(map(int, levels))
    if m.shape != (len(levels), len(levels)):
        raise SerializationError(f"matrix shape {m.shape} for {len(levels)} levels")
    out = [_line("levels", levels)]
    out += [_line(f"row {i}", row) for i, row in enumerate(m.view(float).tolist())]
    if permutation is not None:
        out.append(_items_line("permutation", permutation))
    if phases is not None:
        out.append(_items_line("phases", phases))
    return "".join(out)


def parse_holonomy_document(payload: str):
    """Inverse of holonomy_document: (levels, matrix, permutation, phases)."""
    lines = _read_lines(payload, ("levels", "row", "permutation", "phases"))
    if not lines or lines[0][0] != "levels":
        raise SerializationError("document must start with a levels line")
    levels = lines[0][1]
    n = len(levels)
    rows, tail = lines[1:n + 1], dict(lines[n + 1:])
    if ([tag for tag, _ in rows] != [f"row {i}" for i in range(n)]
            or any(len(row) != n for _, row in rows)
            or not tail.keys() <= {"permutation", "phases"}):
        raise SerializationError(f"expected rows 0 to {n - 1} of {2 * n} cells after the "
                                 f"levels line, then only permutation and phases")
    matrix = np.array([row for _, row in rows], dtype=complex).reshape(n, n)
    return levels, matrix, tail.get("permutation"), tail.get("phases")


def cycle_document(g0, kbar, levels, permutation, phases,
                   energies_before, energies_after, exiting) -> str:
    out = [_line("g0", [float(g0)]), _line("kbar", [int(kbar)]),
           _line("levels", map(int, levels)),
           _items_line("permutation", permutation), _items_line("phases", phases)]
    for tag, table in (("energy_before", energies_before), ("energy_after", energies_after)):
        out += [_line(tag, (a, float(table[a]))) for a in sorted(table)]
    out.append(_line("exiting", map(int, exiting)))
    return "".join(out)


def parse_cycle_document(payload: str) -> dict:
    """Inverse of cycle_document; returns a plain dict of the fields."""
    doc = {"energy_before": {}, "energy_after": {}}
    for tag, value in _read_lines(payload, ("g0", "kbar", "levels", "permutation", "phases",
                                            "energy_before", "energy_after", "exiting")):
        if tag in ("energy_before", "energy_after"):
            doc[tag].update([value])
        else:
            doc[tag] = value
    return doc
