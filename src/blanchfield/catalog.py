"""Entry files, the built-in example table, and the seeded random generator.

The on-disk format is line-oriented UTF-8 text:

    name: trefoil
    kind: seifert
    A: [[-1, 1], [0, -1]]

Fibred entries carry ``P:`` and ``J:``, dual-surface entries carry
``Iplus:``, ``Iminus:`` and ``J:``.  Integers are decimal digits 0-9
with an optional leading minus; any other digit is rejected with its
line and column.  Rows are comma-separated; whitespace is insignificant
outside tokens.  An optional ``notes:`` line holds free text.  Each
field appears at most once; a repeat is rejected with its position.
Matrices are validated against the domain invariants at load time, and
the validated data object is kept on the entry.
"""

from __future__ import annotations

import functools
import random
import re

from .matrix import Matrix, Record, ZZ
from .pairing import DualSurfaceData, FibredData, SeifertData

# kind -> (data class, its matrix keys in constructor order)
KINDS = {
    "seifert": (SeifertData, ("A",)),
    "fibred": (FibredData, ("P", "J")),
    "dual-surface": (DualSurfaceData, ("Iplus", "Iminus", "J")),
}

IntGrid = tuple[tuple[int, ...], ...]


class EntryParseError(ValueError):
    """Malformed entry text, with 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, column {col}: {message}")


class CatalogEntry(Record):
    _fields = ("name", "kind", "matrices", "notes")

    def __init__(self, name: str, kind: str, matrices: tuple[tuple[str, IntGrid], ...],
                 notes: str = ""):
        super().__init__(name, kind, matrices, notes)

    def matrix(self, key: str) -> Matrix:
        for k, grid in self.matrices:
            if k == key:
                return Matrix.from_int_rows(ZZ, grid)
        raise KeyError(key)

    def data(self) -> SeifertData | FibredData | DualSurfaceData:
        """The typed input data, built (and thereby validated) on the first
        call; later calls return the same object."""
        return self._data

    @functools.cached_property
    def _data(self) -> SeifertData | FibredData | DualSurfaceData:
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        cls, keys = KINDS[self.kind]
        return cls(*map(self.matrix, keys))


_SPACE = re.compile(r"\s*")
_KEY = re.compile(r"[\w-]*")
_INT = re.compile(r"-?[0-9]*")
_LINE = re.compile(r"[^\n]*")


class _Reader:
    """A position in entry text, advanced by whole tokens."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def take(self, pattern: re.Pattern) -> str:
        match = pattern.match(self.text, self.pos)
        self.pos = match.end()
        return match.group()

    def peek(self) -> str:
        """Skip whitespace; the next character, or "" at the end."""
        self.pos = _SPACE.match(self.text, self.pos).end()
        return self.text[self.pos:self.pos + 1]

    def error(self, message: str) -> EntryParseError:
        line = self.text.count("\n", 0, self.pos) + 1
        return EntryParseError(message, line, self.pos - self.text.rfind("\n", 0, self.pos))

    def expect(self, ch: str, context: str = "") -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}{context}")
        self.pos += 1

    def read_key(self) -> str:
        self.peek()
        key = self.take(_KEY)
        if not key:
            raise self.error("expected a field name")
        self.expect(":", f" after field name {key!r}")
        return key

    def read_int(self) -> int:
        self.peek()
        start = self.pos
        token = self.take(_INT)
        if token in ("", "-"):
            raise self.error("expected an integer")
        try:
            return int(token)
        except ValueError:  # past the interpreter's digit limit for int()
            self.pos = start
            raise self.error(f"integer of {len(token.lstrip('-'))} digits is too long") from None

    def read_list(self, item) -> tuple:
        """[item, item, ...], possibly empty."""
        self.expect("[")
        items = []
        if self.peek() != "]":
            items.append(item())
            while self.peek() == ",":
                self.pos += 1
                items.append(item())
        self.expect("]")
        return tuple(items)


def load_entry(data: bytes | str) -> CatalogEntry:
    """Parse and invariant-check one entry."""
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    reader = _Reader(text)
    fields: dict[str, str] = {}
    matrices: dict[str, IntGrid] = {}
    while reader.peek():
        start = reader.pos
        key = reader.read_key()
        if key in ("name", "notes", "kind"):
            if key in fields:
                reader.pos = start
                raise reader.error(f"duplicate field {key!r}")
            fields[key] = reader.take(_LINE).strip()
            if key == "kind" and fields[key] not in KINDS:
                raise reader.error(f"kind must be one of {', '.join(KINDS)}, "
                                   f"got {fields[key]!r}")
        elif any(key in keys for _, keys in KINDS.values()):
            if key in matrices:
                raise reader.error(f"duplicate matrix {key!r}")
            rows = reader.read_list(lambda: reader.read_list(reader.read_int))
            if any(len(r) != len(rows[0]) for r in rows):
                raise reader.error("rows of unequal length")
            matrices[key] = rows
        else:
            raise reader.error(f"unknown field {key!r}")
    for key in ("name", "kind"):
        if key not in fields:
            raise EntryParseError(f"missing {key!r} field", 1, 1)
    kind = fields["kind"]
    wanted = KINDS[kind][1]
    for key in wanted:
        if key not in matrices:
            raise EntryParseError(f"kind {kind} requires matrix {key!r}", 1, 1)
    extra = set(matrices) - set(wanted)
    if extra:
        raise EntryParseError(
            f"kind {kind} does not use matrix {sorted(extra)[0]!r}", 1, 1)
    entry = CatalogEntry(name=fields["name"], kind=kind,
                         matrices=tuple((k, matrices[k]) for k in wanted),
                         notes=fields.get("notes", ""))
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
    order = KINDS[kind][1]
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
    return SeifertData(Matrix.from_int_rows(ZZ, rows))
