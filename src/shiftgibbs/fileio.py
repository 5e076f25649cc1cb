"""Line-oriented text formats for presentations, SFTs, and potentials.

Presentation files: ``vertex <name>`` lines followed by
``edge <src> <dst> <label>`` lines.  SFT files: one ``alphabet`` line, then
``forbid <word>`` lines.  Potential files: ``range <r>``, then per shape a
``shape <offsets>`` line (canonical: strictly increasing from 0) followed by
its ``val <pattern> <value>`` lines.
``#`` starts a comment anywhere; blank lines are ignored.  Files must be
UTF-8.  Parse errors carry the offending line number.
"""

from __future__ import annotations

import math
from pathlib import Path

from .exceptions import ValidationError
from .potentials import Potential, ShapeTable, _canonical_offsets
from .shifts import Alphabet, SoficPresentation, sft_presentation


class ParseError(ValidationError):
    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.line_no = line_no


def _read_text(path) -> str:
    """The UTF-8 text of a file; a bad byte is a parse error at its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the first bad one decode; count lines as
        # _logical_lines does
        line_no = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(path, line_no, f"byte 0x{data[exc.start]:02x} is not "
                                        "UTF-8 text") from None


def _logical_lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line.split()


def load_presentation(path) -> SoficPresentation:
    """Parse a presentation file; the alphabet is the sorted set of edge
    labels appearing in the file."""
    text = _read_text(path)
    vertices: list[str] = []
    raw_edges: list[tuple[str, str, str]] = []
    labels: list[str] = []
    for line_no, parts in _logical_lines(text):
        if parts[0] == "vertex":
            if len(parts) != 2:
                raise ParseError(path, line_no, "vertex line needs exactly one name")
            vertices.append(parts[1])
        elif parts[0] == "edge":
            if len(parts) != 4:
                raise ParseError(path, line_no, "edge line needs: edge <src> <dst> <label>")
            raw_edges.append((parts[1], parts[2], parts[3]))
            if parts[3] not in labels:
                labels.append(parts[3])
        else:
            raise ParseError(path, line_no, f"unknown directive {parts[0]!r}")
    if not vertices:
        raise ParseError(path, 1, "presentation file declares no vertices")
    try:
        return SoficPresentation(Alphabet(tuple(sorted(labels))), vertices, raw_edges)
    except ValidationError as exc:
        raise ParseError(path, 1, str(exc)) from exc


def dump_presentation(presentation: SoficPresentation) -> str:
    """Presentation file text that reparses to an equal structure."""
    lines = [f"vertex {v}" for v in presentation.vertices]
    for (s, d, a) in presentation.edges:
        lines.append(f"edge {presentation.vertices[s]} {presentation.vertices[d]} "
                     f"{presentation.alphabet.symbols[a]}")
    return "\n".join(lines) + "\n"


def load_sft(path) -> SoficPresentation:
    """Parse an SFT file into its vertex-shift presentation."""
    text = _read_text(path)
    alphabet: Alphabet | None = None
    forbidden: list[str] = []
    for line_no, parts in _logical_lines(text):
        if parts[0] == "alphabet":
            if len(parts) < 2:
                raise ParseError(path, line_no, "alphabet line needs at least one symbol")
            if alphabet is not None:
                raise ParseError(path, line_no, "duplicate alphabet line")
            alphabet = Alphabet(tuple(parts[1:]))
        elif parts[0] == "forbid":
            if len(parts) != 2:
                raise ParseError(path, line_no, "forbid line needs exactly one word")
            forbidden.append(parts[1])
        else:
            raise ParseError(path, line_no, f"unknown directive {parts[0]!r}")
    if alphabet is None:
        raise ParseError(path, 1, "SFT file declares no alphabet")
    try:
        return sft_presentation(alphabet, forbidden)
    except ValidationError as exc:
        raise ParseError(path, 1, str(exc)) from exc


def load_shift(path) -> SoficPresentation:
    """Load either file kind by extension: .sft files are forbidden-word
    lists, anything else is a presentation file."""
    if str(path).endswith(".sft"):
        return load_sft(path)
    return load_presentation(path)


def load_potential(path, alphabet: Alphabet) -> Potential:
    """Parse a potential file against the given alphabet."""
    text = _read_text(path)
    span: int | None = None
    shapes: list[tuple[tuple[int, ...], dict[tuple[int, ...], float]]] = []
    for line_no, parts in _logical_lines(text):
        if parts[0] == "range":
            if len(parts) != 2:
                raise ParseError(path, line_no, "range line needs one integer")
            if span is not None:
                raise ParseError(path, line_no, "duplicate range line")
            try:
                span = int(parts[1])
            except ValueError:
                raise ParseError(path, line_no, f"bad range {parts[1]!r}") from None
            if span < 0:
                raise ParseError(path, line_no, "range must be nonnegative")
        elif parts[0] == "shape":
            if span is None:
                raise ParseError(path, line_no, "shape before range line")
            if len(parts) != 2:
                raise ParseError(path, line_no, "shape line needs comma-separated offsets")
            try:
                offsets = tuple(int(t) for t in parts[1].split(","))
            except ValueError:
                raise ParseError(path, line_no, f"bad offsets {parts[1]!r}") from None
            if sorted(offsets) in (sorted(o) for o, _t in shapes):
                raise ParseError(path, line_no, f"duplicate shape {parts[1]}")
            try:
                _canonical_offsets(offsets)
            except ValidationError as exc:
                raise ParseError(path, line_no, str(exc)) from exc
            if offsets[-1] > span:
                raise ParseError(path, line_no, "shape exceeds the declared range")
            shapes.append((offsets, {}))
        elif parts[0] == "val":
            if not shapes:
                raise ParseError(path, line_no, "val before any shape line")
            if len(parts) != 3:
                raise ParseError(path, line_no, "val line needs: val <pattern> <value>")
            try:
                pattern = alphabet.parse(parts[1])
            except ValidationError as exc:
                raise ParseError(path, line_no, str(exc)) from exc
            try:
                value = float(parts[2])
            except ValueError:
                raise ParseError(path, line_no, f"bad value {parts[2]!r}") from None
            if not math.isfinite(value):
                raise ParseError(path, line_no, f"non-finite value {parts[2]!r}")
            offsets, table = shapes[-1]
            if len(pattern) != len(offsets):
                raise ParseError(path, line_no, "pattern length does not match shape")
            if pattern in table:
                raise ParseError(path, line_no, f"duplicate val {parts[1]}")
            table[pattern] = value
        else:
            raise ParseError(path, line_no, f"unknown directive {parts[0]!r}")
    if span is None:
        raise ParseError(path, 1, "potential file declares no range")
    try:
        return Potential(alphabet, span,
                         tuple(ShapeTable(o, t) for (o, t) in shapes))
    except ValidationError as exc:
        raise ParseError(path, 1, str(exc)) from exc
