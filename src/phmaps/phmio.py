"""The .phm coefficient file format.

Line-based UTF-8:

    # comment
    p 2
    a 1 1 1 0
    a 2 1 1/10 0
    b 2 1 1/5 0

Header "p <int>" comes first; coefficient lines are "a|b <n> <k> <re> <im>"
where <re>/<im> are "num/den", integer, or decimal literals. Rational and
integer literals stay exact; decimals make the coefficient approximate.
Duplicate (letter, n, k) is a syntax error. a 1 1 must appear with value 1 0.

Round trip: parse_map(serialize_map(F)) == F, exactness preserved.
"""

from __future__ import annotations

from .errors import InvalidMapError, MapSyntaxError
from .exact import format_scalar, parse_scalar
from .series import Coefficient, Key, PolyharmonicMap, layer_major


def parse_map(data: bytes | str) -> PolyharmonicMap:
    """Parse a .phm document. MapSyntaxError carries the offending line number."""
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise MapSyntaxError(f"not valid UTF-8: {e}", 1) from None
    else:
        text = data

    p: int | None = None
    a: dict[Key, Coefficient] = {}
    b: dict[Key, Coefficient] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if p is None:
            if fields[0] != "p" or len(fields) != 2:
                raise MapSyntaxError("expected header 'p <int>'", lineno)
            try:
                p = int(fields[1])
            except ValueError:
                raise MapSyntaxError(f"bad layer count {fields[1]!r}", lineno) from None
            if p < 1:
                raise MapSyntaxError(f"p must be >= 1, got {p}", lineno)
            continue
        if fields[0] not in ("a", "b") or len(fields) != 5:
            raise MapSyntaxError("expected 'a|b <n> <k> <re> <im>'", lineno)
        letter, table = fields[0], (a if fields[0] == "a" else b)
        try:
            n, k = int(fields[1]), int(fields[2])
        except ValueError:
            raise MapSyntaxError(f"bad indices {fields[1]!r} {fields[2]!r}", lineno) from None
        if n < 1 or k < 1:
            raise MapSyntaxError(f"indices must be >= 1, got ({n}, {k})", lineno)
        if k > p:
            raise MapSyntaxError(f"layer {k} exceeds header p={p}", lineno)
        if (n, k) in table:
            raise MapSyntaxError(f"duplicate coefficient {letter} {n} {k}", lineno)
        try:
            re, im = parse_scalar(fields[3]), parse_scalar(fields[4])
        except ValueError as e:
            raise MapSyntaxError(str(e), lineno) from None
        table[(n, k)] = Coefficient(re, im)

    if p is None:
        raise MapSyntaxError("missing header 'p <int>'", 1)
    if (1, 1) not in a:
        raise InvalidMapError("a 1 1 must appear with value 1 0")
    return PolyharmonicMap(p, a, b)


def serialize_map(F: PolyharmonicMap) -> bytes:
    """Deterministic text form: header, then a-lines, then b-lines, layer-major."""
    lines = [f"p {F.p}"]
    for table, letter in ((F.a, "a"), (F.b, "b")):
        for n, k in layer_major(table):
            c = table[(n, k)]
            lines.append(f"{letter} {n} {k} {format_scalar(c.re)} {format_scalar(c.im)}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def load_map(path) -> PolyharmonicMap:
    with open(path, "rb") as fh:
        return parse_map(fh.read())


def save_map(F: PolyharmonicMap, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_map(F))
