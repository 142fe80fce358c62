"""Entry files, the built-in example table, and the seeded random generator.

The on-disk format is line-oriented UTF-8 text:

    name: trefoil
    kind: seifert
    A: [[-1, 1], [0, -1]]

Fibred entries carry ``P:`` and ``J:``, dual-surface entries carry
``Iplus:``, ``Iminus:`` and ``J:``.  Integers are decimal with an
optional leading minus; rows are comma-separated; whitespace is
insignificant outside tokens.  An optional ``notes:`` line holds free
text.  Matrices are validated against the domain invariants at load
time.
"""

from __future__ import annotations

import dataclasses
import random

from .matrix import Matrix, ZZ
from .pairing import DualSurfaceData, FibredData, SeifertData

KINDS = ("seifert", "fibred", "dual-surface")
_MATRIX_KEYS = {
    "seifert": ("A",),
    "fibred": ("P", "J"),
    "dual-surface": ("Iplus", "Iminus", "J"),
}

IntGrid = tuple[tuple[int, ...], ...]


class EntryParseError(ValueError):
    """Malformed entry text, with 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, column {col}: {message}")


@dataclasses.dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str
    matrices: tuple[tuple[str, IntGrid], ...]
    notes: str = ""

    def matrix(self, key: str) -> Matrix:
        for k, grid in self.matrices:
            if k == key:
                return Matrix.from_int_rows(ZZ, grid) if grid else Matrix(ZZ, (), cols=0)
        raise KeyError(key)

    def data(self) -> SeifertData | FibredData | DualSurfaceData:
        """Construct (and thereby validate) the typed input data."""
        if self.kind == "seifert":
            return SeifertData(self.matrix("A"))
        if self.kind == "fibred":
            return FibredData(self.matrix("P"), self.matrix("J"))
        if self.kind == "dual-surface":
            return DualSurfaceData(self.matrix("Iplus"), self.matrix("Iminus"),
                                   self.matrix("J"))
        raise ValueError(f"unknown kind {self.kind!r}")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def location(self, pos: int | None = None) -> tuple[int, int]:
        pos = self.pos if pos is None else pos
        line = self.text.count("\n", 0, pos) + 1
        col = pos - (self.text.rfind("\n", 0, pos) + 1) + 1
        return line, col

    def error(self, message: str) -> EntryParseError:
        line, col = self.location()
        return EntryParseError(message, line, col)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def read_key(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                             or self.text[self.pos] in "-_"):
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a field name")
        key = self.text[start:self.pos]
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ":":
            raise self.error(f"expected ':' after field name {key!r}")
        self.pos += 1
        return key

    def read_line_value(self) -> str:
        end = self.text.find("\n", self.pos)
        if end == -1:
            end = len(self.text)
        value = self.text[self.pos:end].strip()
        self.pos = end
        return value

    def read_int(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        token = self.text[start:self.pos]
        if not token or token == "-":
            raise self.error("expected an integer")
        return int(token)

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def read_matrix(self) -> IntGrid:
        self.expect("[")
        if self.peek() == "]":
            self.pos += 1
            return ()
        rows: list[tuple[int, ...]] = []
        while True:
            rows.append(self._read_row())
            if self.peek() == ",":
                self.pos += 1
                continue
            self.expect("]")
            break
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise self.error("rows of unequal length")
        return tuple(rows)

    def _read_row(self) -> tuple[int, ...]:
        self.expect("[")
        if self.peek() == "]":
            self.pos += 1
            return ()
        row = [self.read_int()]
        while self.peek() == ",":
            self.pos += 1
            row.append(self.read_int())
        self.expect("]")
        return tuple(row)


def load_entry(data: bytes | str) -> CatalogEntry:
    """Parse and invariant-check one entry."""
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    sc = _Scanner(text)
    name: str | None = None
    kind: str | None = None
    notes = ""
    matrices: dict[str, IntGrid] = {}
    while not sc.at_end():
        key = sc.read_key()
        if key == "name":
            name = sc.read_line_value()
        elif key == "notes":
            notes = sc.read_line_value()
        elif key == "kind":
            kind = sc.read_line_value()
            if kind not in KINDS:
                raise sc.error(f"kind must be one of {', '.join(KINDS)}, got {kind!r}")
        elif key in ("A", "P", "J", "Iplus", "Iminus"):
            if key in matrices:
                raise sc.error(f"duplicate matrix {key!r}")
            matrices[key] = sc.read_matrix()
        else:
            raise sc.error(f"unknown field {key!r}")
    if name is None:
        raise EntryParseError("missing 'name' field", 1, 1)
    if kind is None:
        raise EntryParseError("missing 'kind' field", 1, 1)
    wanted = _MATRIX_KEYS[kind]
    for key in wanted:
        if key not in matrices:
            raise EntryParseError(f"kind {kind} requires matrix {key!r}", 1, 1)
    extra = set(matrices) - set(wanted)
    if extra:
        raise EntryParseError(
            f"kind {kind} does not use matrix {sorted(extra)[0]!r}", 1, 1)
    entry = CatalogEntry(name=name, kind=kind,
                         matrices=tuple((k, matrices[k]) for k in wanted),
                         notes=notes)
    entry.data()  # raises InvariantViolation naming the failed invariant
    return entry


def render_entry(entry: CatalogEntry) -> str:
    """Render in the same grammar that load_entry reads."""
    lines = [f"name: {entry.name}", f"kind: {entry.kind}"]
    for key, grid in entry.matrices:
        body = ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in grid)
        lines.append(f"{key}: [{body}]")
    if entry.notes:
        lines.append(f"notes: {entry.notes}")
    return "\n".join(lines) + "\n"


def _entry(name: str, kind: str, notes: str = "", **mats) -> CatalogEntry:
    order = _MATRIX_KEYS[kind]
    grids = tuple((k, tuple(tuple(int(x) for x in row) for row in mats[k]))
                  for k in order)
    return CatalogEntry(name=name, kind=kind, matrices=grids, notes=notes)


def builtin_catalog() -> tuple[CatalogEntry, ...]:
    """The built-in table of small examples."""
    return (
        _entry("unknot", "seifert", A=[],
               notes="genus 0; trivial Alexander module"),
        _entry("trefoil", "seifert", A=[[-1, 1], [0, -1]],
               notes="left-handed trefoil, genus-1 Seifert surface"),
        _entry("figure-eight", "seifert", A=[[1, 1], [0, -1]],
               notes="figure-eight knot, genus-1 Seifert surface"),
        _entry("cinquefoil", "seifert",
               A=[[-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1], [0, 0, 0, -1]],
               notes="(2,5) torus knot, genus-2 Seifert surface"),
        _entry("trefoil-fibred", "fibred",
               P=[[1, -1], [1, 0]], J=[[0, 1], [-1, 0]],
               notes="monodromy of the trefoil fibration on the punctured torus"),
        _entry("trefoil-dual", "dual-surface",
               Iplus=[[-1, 1], [0, -1]], Iminus=[[-1, 0], [1, -1]],
               J=[[0, 1], [-1, 0]],
               notes="Seifert surface of the trefoil viewed as a dual surface"),
    )


def builtin(name: str) -> CatalogEntry:
    for entry in builtin_catalog():
        if entry.name == name:
            return entry
    raise KeyError(f"no builtin entry named {name!r}")


def random_seifert(genus: int, coeff_bound: int, seed: int) -> SeifertData:
    """Deterministic random Seifert matrix with unimodular skew part.

    A = S + N with S random symmetric (entries in [-coeff_bound,
    coeff_bound]) and N the strictly upper block with the identity in
    the upper-right quadrant, so A - A^T is exactly the standard
    symplectic form.
    """
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    rng = random.Random(seed)
    n = 2 * genus
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rng.randint(-coeff_bound, coeff_bound)
            rows[i][j] = rows[j][i] = v
    for i in range(genus):
        rows[i][genus + i] += 1
    return SeifertData(Matrix.from_int_rows(ZZ, rows) if n else Matrix(ZZ, (), cols=0))
