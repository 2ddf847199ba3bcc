"""Plain-text serialization for graphs and colorings.

Graph format, bit-exact: one header line ``n m d`` with d in
{oriented, symmetric}, then m edge lines ``u v`` (0-based) in canonical
lexicographic order, LF endings, trailing newline.  A coloring is m lines
``u v c`` in the same edge order as its host graph.

Parsing checks a body in bulk first.  With its digits deleted, the body
must be exactly the separators of m lines as the serializers write them
(single spaces, LF ends), and every token must be an id below the graph's n
(for a coloring, the host's n, which bounds its color ids too).  A body of
at least 8n tokens looks them up in the token table
``{"0": 0, ..., str(n - 1): n - 1}``, built once per size and kept, so that a
leading zero or an id at or above n leaves the bulk path; a shorter body,
which would not repay the table, converts them with ``int``.  The masks of a
dense body (n^2 below 32 m) are ORed together from a bit table of
``1 << i``, and an oriented graph's in-masks come from one bit-matrix
transpose; a sparser body ORs ``1 << v`` per edge, in-masks too, so its
cost stays in its edges.  Mask checks follow.  Only a body that fails a bulk
check is scanned line by line, which reports the first offending line (and
parses a body whose only quirks are other whitespace, leading zeros or
color ids at or above n).

The serializers pick by the host's density.  A dense host (colors * n^2
at most 48 m) writes each vertex's lines with one join, its row's bit
strings selecting the id (or ``v c``) strings through ``compress``: O(n) C
steps per row and color in use.  A sparser host walks each row's set bits,
one step per edge.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import compress
from operator import and_, eq, or_

from .errors import FormatError
from .graphs import EdgeColoring, OrientedGraph

_KINDS = {"oriented": False, "symmetric": True}

_DIGITS = b"0123456789"
# a row's bit string, "0"/"1" per vertex, as compress selectors
_SELECT = bytes.maketrans(b"01", b"\x00\x01")


# A body takes the token table from 8n tokens on: building the table costs
# about 0.5 us an entry, and a lookup saves about 70 ns a token over int().
# The bit table and the transpose cost O(n^2); from n^2 < 32 m on they beat
# ORing 1 << v into the out-masks (and 1 << u into the in-masks) per edge,
# with which they tie at n^2 = 32 m for n = 256 and 1000.  There the
# transpose's 2n^2 transient bytes stay below the 2m token strings of at
# least 50 bytes each that split() held just before.  Writing, compress and
# the bit walk tie near colors * n^2 = 48 m for n = 256 to 3000 and one or
# two colors.  All measured in-process on random oriented hosts, best of 5
# to 7, CPython 3.11 on a shared 2-vCPU VM.
_TABLE, _DENSE, _WALK = 8, 32, 48


# kept per size, shared by every parse of that size and never written to;
# only a body of at least 8n tokens, whose strings took several times the
# table's bytes, builds one
@lru_cache(maxsize=64)
def _ids(size: int) -> dict[str, int]:
    """The token table: each id below `size` keyed by its decimal string."""
    return {str(i): i for i in range(size)}


def _lines(g: OrientedGraph, layers: list[list[int]], tags: list[str]) -> str:
    """One line ``u v`` + tags[i] per edge (u, v) of g, in (u, v) order,
    where layers[i][u] holds bit v."""
    n, k = g.n, len(layers)
    out = []
    if _WALK * g.edge_count < k * n * n:
        for u, row in enumerate(g.out_masks()):
            while row:
                low = row & -row
                row ^= low
                i = 0
                while not layers[i][u] & low:
                    i += 1
                out.append(f"{u} {low.bit_length() - 1}{tags[i]}\n")
        return "".join(out)
    spec = f"0{n}b"
    select = bytearray(n * k)
    words = [f"{v}{tag}" for v in range(n) for tag in tags]
    for u, rows in enumerate(zip(*layers)):
        if any(rows):
            for i, row in enumerate(rows):
                select[i::k] = format(row, spec).encode().translate(_SELECT)[::-1]
            lead = f"{u} "
            out.append(lead + ("\n" + lead).join(compress(words, select)) + "\n")
    return "".join(out)


def serialize_graph(g: OrientedGraph) -> str:
    kind = "symmetric" if g.allow_antiparallel else "oriented"
    return f"{g.n} {g.edge_count} {kind}\n" + _lines(g, [g.out_masks()], [""])


def _int_field(token: str, line_no: int, col: int, what: str) -> int:
    digits = token[1:] if token[:1] == "-" else token
    if not (digits.isascii() and digits.isdigit()):
        raise FormatError(f"expected {what}, got {token!r}", line_no, col)
    return int(token)


def _line_count(body: str) -> int:
    """Lines of `body`, a final line break not starting another line."""
    return body.count("\n") + (1 if body and not body.endswith("\n") else 0)


def _bulk_ints(body: str, sep: bytes, m: int, n: int) -> list[int] | None:
    """The tokens of `body` as ids below n, when the body is m lines with
    the separators `sep` as the serializers write them; None sends it to
    the line scan."""
    if not body.isascii() or not body.endswith("\n"):
        return None
    if body.encode().translate(None, _DIGITS) != sep * m:
        return None
    tokens = body.split()
    if len(tokens) != len(sep) * m:
        return None
    if len(tokens) < _TABLE * n:
        nums = list(map(int, tokens))
        return nums if max(nums) < n else None
    try:
        return list(map(_ids(n).__getitem__, tokens))
    except KeyError:
        return None


def _transpose(out: list[int], n: int) -> list[int]:
    """In-masks of the n x n bit matrix whose rows are `out`: row u's
    digits run from bit n - 1 down, so column v is every n-th digit."""
    spec = f"0{n}b"
    digits = "".join([format(row, spec) for row in reversed(out)])
    return [int(digits[n - 1 - v::n], 2) for v in range(n)]


def parse_graph(text: str) -> OrientedGraph:
    if not text:
        raise FormatError("empty input", 1)
    head_line, _, body = text.partition("\n")
    head = head_line.split()
    if len(head) != 3:
        raise FormatError("header must be 'n m kind'", 1)
    n = _int_field(head[0], 1, 1, "vertex count")
    m = _int_field(head[1], 1, 2, "edge count")
    if head[2] not in _KINDS:
        raise FormatError(f"kind must be oriented|symmetric, got {head[2]!r}", 1, 3)
    if n < 0 or m < 0:
        raise FormatError("negative count in header", 1)
    found = _line_count(body)
    if found != m:
        raise FormatError(f"header promises {m} edges, found {found}",
                          min(found + 2, m + 2))
    symmetric = _KINDS[head[2]]
    nums = _bulk_ints(body, b" \n", m, n)
    if nums is not None:
        out = [0] * n
        if n * n < _DENSE * m:
            bits = [1 << i for i in range(n)]
            pairs = iter(nums)
            for u, v in zip(pairs, pairs):
                out[u] |= bits[v]
            loops = any(map(and_, out, bits))
            inn = None
        else:
            us, vs = nums[0::2], nums[1::2]
            inn = [0] * n
            for u, v in zip(us, vs):
                out[u] |= 1 << v
                inn[v] |= 1 << u
            loops = any(map(eq, us, vs))
        # m distinct edges from m lines leave no room for a duplicate
        if sum(map(int.bit_count, out)) == m and not loops:
            if inn is None:
                inn = _transpose(out, n)
            if symmetric or not any(map(and_, out, inn)):
                return OrientedGraph.from_masks(n, out, inn, symmetric)
    return _scan_graph(n, symmetric, body.split("\n")[:m])


def _scan_graph(n: int, symmetric: bool, lines: list[str]) -> OrientedGraph:
    """Line-by-line parse of an edge body; raises at the first bad line."""
    out = [0] * n
    for i, raw in enumerate(lines, start=2):
        parts = raw.split()
        if len(parts) != 2:
            raise FormatError("edge line must be 'u v'", i)
        u = _int_field(parts[0], i, 1, "vertex id")
        v = _int_field(parts[1], i, 2, "vertex id")
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"edge ({u}, {v}) out of range for n={n}", i)
        if u == v:
            raise FormatError(f"self loop at vertex {u}", i)
        if out[u] >> v & 1:
            raise FormatError(f"duplicate edge ({u},{v})", i)
        if not symmetric and out[v] >> u & 1:
            raise FormatError(
                f"antiparallel pair ({u},{v})/({v},{u}) in an oriented graph", i)
        out[u] |= 1 << v
    return OrientedGraph.from_masks(n, out, allow_antiparallel=symmetric)


def serialize_coloring(g: OrientedGraph, coloring: EdgeColoring) -> str:
    coloring.validate_total(g)
    # only the colors in use, so that a large num_colors costs nothing
    layers = {c: coloring.out_masks(c, g.n) for c in range(1, coloring.num_colors + 1)}
    used = [c for c, rows in layers.items() if any(rows)]
    return _lines(g, [layers[c] for c in used], [f" {c}" for c in used])


def parse_coloring(text: str, g: OrientedGraph,
                   num_colors: int | None = None) -> EdgeColoring:
    """Parse a coloring against its host graph.

    num_colors defaults to the largest color id present (at least 1).
    Color ids below 1 or above an explicit num_colors are format errors, as
    are edges absent from g, duplicates, or missing edges.
    """
    n, m = g.n, g.edge_count
    nums = _bulk_ints(text, b"  \n", m, n)
    if nums is not None:
        top = max(nums[2::3])
        q = top if num_colors is None else num_colors
        if 0 < top <= q:
            masks = [[0] * n for _ in range(q + 1)]
            triples = iter(nums)
            if n * n < _DENSE * m:
                bits = [1 << i for i in range(n)]
                for u, v, c in zip(triples, triples, triples):
                    masks[c][u] |= bits[v]
            else:
                for u, v, c in zip(triples, triples, triples):
                    masks[c][u] |= 1 << v
            union = masks[1]
            for rows in masks[2:]:
                union = list(map(or_, union, rows))
            # as many lines as host edges: covering them all in colors 1..q
            # leaves no room for a duplicate or a color 0
            if union == g.out_masks():
                return EdgeColoring.from_masks(masks[1:])
    return _scan_coloring(text, g, num_colors)


def _scan_coloring(text: str, g: OrientedGraph,
                   num_colors: int | None) -> EdgeColoring:
    """Line-by-line parse of a coloring; raises at the first bad line."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    assign: dict[tuple[int, int], int] = {}
    for i, raw in enumerate(lines, start=1):
        parts = raw.split()
        if len(parts) != 3:
            raise FormatError("coloring line must be 'u v c'", i)
        u = _int_field(parts[0], i, 1, "vertex id")
        v = _int_field(parts[1], i, 2, "vertex id")
        c = _int_field(parts[2], i, 3, "color id")
        if not (0 <= u < g.n and 0 <= v < g.n) or not g.has_edge(u, v):
            raise FormatError(f"({u},{v}) is not an edge of the host graph", i)
        if (u, v) in assign:
            raise FormatError(f"duplicate edge ({u},{v})", i)
        if c < 1:
            raise FormatError(f"color ids start at 1, got {c}", i, 3)
        if num_colors is not None and c > num_colors:
            raise FormatError(f"color {c} exceeds declared {num_colors}", i, 3)
        assign[(u, v)] = c
    if len(assign) != g.edge_count:
        raise FormatError(
            f"host graph has {g.edge_count} edges, coloring covers {len(assign)}",
            len(lines) + 1)
    if num_colors is None:
        num_colors = max(assign.values(), default=1)
    return EdgeColoring(num_colors, assign)


def _read_text(path) -> str:
    """The file decoded as ASCII with universal newlines, as text-mode
    open() reads it; a non-ASCII byte is a FormatError at its position."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        before = data[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        raise FormatError(f"non-ASCII byte 0x{data[exc.start]:02x}",
                          before.count(b"\n") + 1,
                          len(before) - before.rfind(b"\n")) from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def write_graph(path, g: OrientedGraph) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(serialize_graph(g))


def read_graph(path) -> OrientedGraph:
    return parse_graph(_read_text(path))


def write_coloring(path, g: OrientedGraph, coloring: EdgeColoring) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(serialize_coloring(g, coloring))


def read_coloring(path, g: OrientedGraph,
                  num_colors: int | None = None) -> EdgeColoring:
    return parse_coloring(_read_text(path), g, num_colors)
