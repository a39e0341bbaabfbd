"""Export records: CSV tables and matrix documents with embedded provenance.

Every artifact starts with the same three header comments
(schema_version, command, config hash) so goldens can be traced and
compared across runs.  Floats are written with their shortest
round-trip representation; parsing an exported document reproduces the
in-memory values bit for bit.  `csv_table` formats each distinct float
bit pattern of a column once per block of rows and reuses the text.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

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
                        schema_version=int(meta["schema_version"]))


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


def sheet_document(cuts, columns, rows) -> str:
    """Sheet export: recorded cut segments followed by the grid table.

    Cuts are data, not value jumps, so they travel with the grid: one
    line per segment before the CSV header.
    """
    out = []
    for cut in cuts:
        out.append("cut," + ",".join((format_float(cut.re),
                                      format_float(cut.im_lo),
                                      format_float(cut.im_hi),
                                      cut.kind,
                                      format_float(cut.branch_point.real),
                                      format_float(cut.branch_point.imag))))
    return "\n".join(out) + ("\n" if out else "") + csv_table(columns, rows)


def parse_sheet_document(payload: str):
    """Inverse of sheet_document: (cut tuples, columns, rows)."""
    lines = payload.splitlines()
    cuts = []
    body_start = 0
    for i, ln in enumerate(lines):
        if not ln.startswith("cut,"):
            body_start = i
            break
        cells = ln.split(",")
        if len(cells) != 7:
            raise SerializationError(f"malformed cut line: {ln!r}")
        cuts.append((float(cells[1]), float(cells[2]), float(cells[3]), cells[4],
                     complex(float(cells[5]), float(cells[6]))))
    columns, rows = parse_csv_table("\n".join(lines[body_start:]))
    return cuts, columns, rows


def holonomy_document(levels, matrix, permutation=None, phases=None) -> str:
    """Structured text for a holonomy matrix over a truncated family.

    One line per matrix row, real and imaginary parts interleaved, plus
    optional permutation and phase lines.  Re-parses exactly.
    """
    m = np.asarray(matrix, dtype=complex)
    n = len(tuple(levels))
    if m.shape != (n, n):
        raise SerializationError(f"matrix shape {m.shape} does not match {n} levels")
    out = ["levels," + ",".join(str(int(v)) for v in levels)]
    for i in range(n):
        cells = []
        for j in range(n):
            cells.append(format_float(m[i, j].real))
            cells.append(format_float(m[i, j].imag))
        out.append(f"row {i}," + ",".join(cells))
    if permutation is not None:
        out.append(_permutation_line(permutation))
    if phases is not None:
        out.append(_phases_line(phases))
    return "\n".join(out) + "\n"


def _permutation_line(permutation) -> str:
    return "permutation," + ",".join(
        f"{int(a)}->{int(permutation[a])}" for a in sorted(permutation))


def _parse_items(text: str, sep: str, value) -> dict:
    """Level -> value items written as a<sep>b, comma separated; an
    empty line is the empty mapping."""
    out = {}
    for item in text.split(",") if text else ():
        a, _, b = item.partition(sep)
        try:
            out[int(a)] = value(b)
        except ValueError:
            raise SerializationError(f"malformed item {item!r}") from None
    return out


def _parse_permutation(text: str) -> dict:
    return _parse_items(text, "->", int)


def _phases_line(phases) -> str:
    parts = []
    for a in sorted(phases):
        z = complex(phases[a])
        parts.append(f"{int(a)}:{format_float(z.real)}{z.imag:+}j")
    return "phases," + ",".join(parts)


def _parse_phases(text: str) -> dict:
    return _parse_items(text, ":", complex)


def cycle_document(g0, kbar, levels, permutation, phases,
                   energies_before, energies_after, exiting) -> str:
    out = [f"g0,{format_float(g0)}",
           f"kbar,{int(kbar)}",
           "levels," + ",".join(str(int(v)) for v in levels)]
    out += [_permutation_line(permutation), _phases_line(phases)]
    for tag, table in (("energy_before", energies_before),
                       ("energy_after", energies_after)):
        for a in sorted(table):
            out.append(f"{tag},{a},{format_float(table[a])}")
    out.append("exiting," + ",".join(str(int(v)) for v in exiting))
    return "\n".join(out) + "\n"


def parse_cycle_document(payload: str) -> dict:
    """Inverse of cycle_document; returns a plain dict of the fields."""
    doc = {"energy_before": {}, "energy_after": {}}
    for ln in payload.splitlines():
        if not ln:
            continue
        tag, _, rest = ln.partition(",")
        if tag == "g0":
            doc["g0"] = float(rest)
        elif tag == "kbar":
            doc["kbar"] = int(rest)
        elif tag == "levels":
            doc["levels"] = tuple(int(v) for v in rest.split(","))
        elif tag == "permutation":
            doc["permutation"] = _parse_permutation(rest)
        elif tag == "phases":
            doc["phases"] = _parse_phases(rest)
        elif tag in ("energy_before", "energy_after"):
            a, _, e = rest.partition(",")
            doc[tag][int(a)] = float(e)
        elif tag == "exiting":
            doc["exiting"] = tuple(int(v) for v in rest.split(",")) if rest else ()
        else:
            raise SerializationError(f"unexpected line tag {tag!r}")
    return doc


def parse_holonomy_document(payload: str):
    """Inverse of holonomy_document: (levels, matrix, permutation, phases)."""
    lines = [ln for ln in payload.splitlines() if ln]
    if not lines or not lines[0].startswith("levels,"):
        raise SerializationError("document must start with a levels line")
    levels = tuple(int(v) for v in lines[0].split(",")[1:])
    n = len(levels)
    matrix = np.zeros((n, n), dtype=complex)
    permutation = None
    phases = None
    row = 0
    for ln in lines[1:]:
        tag, _, rest = ln.partition(",")
        if tag.startswith("row "):
            if row >= n:
                raise SerializationError("too many matrix rows")
            cells = rest.split(",")
            if len(cells) != 2 * n:
                raise SerializationError(f"row {row}: expected {2 * n} cells")
            vals = [float(c) for c in cells]
            matrix[row] = [complex(vals[2 * j], vals[2 * j + 1]) for j in range(n)]
            row += 1
        elif tag == "permutation":
            permutation = _parse_permutation(rest)
        elif tag == "phases":
            phases = _parse_phases(rest)
        else:
            raise SerializationError(f"unexpected line tag {tag!r}")
    if row != n:
        raise SerializationError(f"expected {n} matrix rows, found {row}")
    return levels, matrix, permutation, phases
