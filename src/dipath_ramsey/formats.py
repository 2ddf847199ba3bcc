"""Plain-text serialization for graphs and colorings.

Graph format, bit-exact: one header line ``n m d`` with d in
{oriented, symmetric}, then m edge lines ``u v`` (0-based) in canonical
lexicographic order, LF endings, trailing newline.  A coloring is m lines
``u v c`` in the same edge order as its host graph.

Parsing checks a body in bulk first.  With its digits deleted, the body
must be exactly the separators of m lines as the serializers write them
(single spaces, LF ends), and every token must be an id below the graph's n
(for a coloring, the host's n, which bounds its color ids too).  A body of
at least 8n tokens keeps them as strings, and the loop that ORs the masks
looks each one up itself in the token table
``{"0": 0, ..., str(n - 1): n - 1}``, built once per size and kept, so that a
leading zero or an id at or above n leaves the bulk path; a shorter body,
which would not repay the table, converts its tokens with ``int`` first.
A body that graphs' one density rule calls dense (m >= 8n and n^2 < 32 m)
ORs its masks from the bit table ``{"0": 1 << 0, ...}``, kept like the
token table, and takes its in-masks from one bit-matrix transpose; any
other ORs ``1 << v`` per edge, and a graph's in-masks ``1 << u`` in the
same loop, so its cost stays in its edges.  Mask checks follow.  Passing
the bulk check proves the m lines the header promises, so only a body that
fails a bulk check has its lines counted, and is then scanned line by
line, which reports the first offending line (and parses one whose only
quirks are other whitespace, leading zeros or color ids at or above n).

A host and its coloring are read together (`parse_colored`,
`read_colored`).  A coloring the writers made with colors 1 to 9 is the
edge body with " c" before each LF.  One same-length replace per color
marks each " c\n" with non-ASCII bytes, which give the colors; deleted,
they must leave the edge body byte for byte, which alone is tokenized.
Any other pair (colors of 10 and above, lines out of the graph's order, a
palette above 9), and any pair that fails a check, goes through
parse_graph then parse_coloring, which decide the result or the error.

The serializers pick by the host's density.  A dense host (colors * n^2
at most 48 m) writes each vertex's lines with one join, its row's bit
strings selecting the id (or ``v c``) strings through ``compress``: O(n) C
steps per row and color in use.  A sparser host walks each row's set bits,
one step per edge.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import compress, repeat
from operator import and_, eq

from .errors import FormatError
from .graphs import EdgeColoring, OrientedGraph, _dense, _in_masks_of, _selectors, _union

_KINDS = {"oriented": False, "symmetric": True}

_DIGITS = b"0123456789"
# the color column " c" of a line, c in 1..9, marked as two bytes 0x80 | c
_MARKS = [(b" %d\n" % c, bytes((0x80 | c, 0x80 | c)) + b"\n") for c in range(10)]
_ASCII, _MARKED = bytes(range(0x80)), bytes(range(0x80, 0x100))
_COLOR = bytes(i & 0x7F for i in range(0x100))


# A body takes the token table from 8n tokens on: building the table costs
# about 0.5 us an entry, and a lookup saves about 70 ns a token over int().
# The bit table and the transpose cost O(n^2); on bodies that graphs' `_dense`
# calls dense they beat ORing 1 << v into the out-masks (and 1 << u into the
# in-masks) per edge, with which they tie at n^2 = 32 m for n = 256 and 1000.
# There the transpose's 2n^2 transient bytes stay below the 2m token strings
# of at least 50 bytes each that split() held just before.  Writing, compress
# and the bit walk tie near colors * n^2 = 48 m for n = 256 to 3000 and one
# or two colors.  All measured in-process on random oriented hosts, best of
# 5 to 7, CPython 3.11 on a shared 2-vCPU VM.
_TABLE, _WALK = 8, 48


# kept per size, shared by every parse of that size and never written to;
# only a body of at least 8n tokens, whose strings took several times the
# table's bytes, builds one
@lru_cache(maxsize=64)
def _ids(size: int) -> dict[str, int]:
    """The token table: each id below `size` keyed by its decimal string."""
    return {str(i): i for i in range(size)}


# kept like `_ids`; only a dense body, whose tokens outnumber n^2 / 16
# bits, builds one
@lru_cache(maxsize=64)
def _bits(size: int) -> dict[str, int]:
    """The bit table: 1 << i for each id i below `size`, keyed by its
    decimal string."""
    return {str(i): 1 << i for i in range(size)}


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
    select = bytearray(n * k)
    words = [f"{v}{tag}" for v in range(n) for tag in tags]
    for u, rows in enumerate(zip(*layers)):
        if any(rows):
            for i, row in enumerate(rows):
                select[i::k] = _selectors(row, n)
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


def _bulk_tokens(body: str, sep: bytes, m: int, n: int):
    """(tokens, ids) of `body`, when it is m lines with the separators `sep`
    as the serializers write them: ids[token] is the token's id below n and
    raises LookupError for any other token.  A body of at least 8n tokens
    keeps its strings, and ids is the token table; a shorter one converts
    them with int, and ids is the list of the ids below n, O(n) like the
    rows that the masks are ORed into.  None sends the body to the line
    scan."""
    if not body.isascii() or not body.endswith("\n"):
        return None
    if body.encode().translate(None, _DIGITS) != sep * m:
        return None
    tokens = body.split()
    if len(tokens) != len(sep) * m:
        return None
    if len(tokens) < _TABLE * n:
        return list(map(int, tokens)), list(range(n))
    return tokens, _ids(n)


def _head(text: str) -> tuple[int, int, bool, str]:
    """(n, m, symmetric, body) of a graph text whose header is sound; the
    body's line count is left to `_count_lines`."""
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
    return n, m, _KINDS[head[2]], body


def _count_lines(body: str, m: int) -> None:
    """Raise unless the edge body has the m lines its header promises.  A
    body that passes the bulk check has them, so only the line scan asks."""
    found = body.count("\n") + (1 if body and not body.endswith("\n") else 0)
    if found != m:
        raise FormatError(f"header promises {m} edges, found {found}",
                          min(found + 2, m + 2))


def _or_edges(n: int, m: int, lines, ids, k: int,
              ins: bool) -> tuple[list[list[int]], list[int] | None]:
    """(rows, in-masks): the out-mask rows of classes 0..k-1, ORed from the
    m edge lines (u, v, c) of `lines`, u and v tokens and c a class, as bit
    ids[v] of rows[c][ids[u]]; a token that ids does not hold raises
    LookupError.  A dense body (graphs' `_dense`) takes the bit from the
    bit table and leaves the in-masks (None) to `_bulk_graph`.  A sparse
    one ORs the in-masks of all classes together in the same loop when
    `ins` asks for them; else they are None too."""
    rows = [[0] * n for _ in range(k)]
    if _dense(n, m):
        # m >= 8n gives at least 16n tokens: the token table's strings
        bits = _bits(n)
        for u, v, c in lines:
            rows[c][ids[u]] |= bits[v]
        return rows, None
    if not ins:
        for u, v, c in lines:
            rows[c][ids[u]] |= 1 << ids[v]
        return rows, None
    inn = [0] * n
    for u, v, c in lines:
        u, v = ids[u], ids[v]
        rows[c][u] |= 1 << v
        inn[v] |= 1 << u
    return rows, inn


def _bulk_graph(n: int, m: int, symmetric: bool, body: str, classes,
                k: int) -> tuple[OrientedGraph, list[list[int]]] | None:
    """(graph, out-mask rows of classes 0..k-1) of an edge body of m lines,
    its i-th line's edge in class classes[i], that passes the bulk check and
    the mask checks: no loop, m distinct edges, and no antiparallel pair
    unless symmetric.  None sends the body to the line scan."""
    bulk = _bulk_tokens(body, b" \n", m, n)
    if bulk is None:
        return None
    tokens, ids = bulk
    pairs = iter(tokens)
    try:
        rows, inn = _or_edges(n, m, zip(pairs, pairs, classes), ids, k, True)
    except LookupError:
        return None
    out = _union(rows)
    # m distinct edges from m lines leave no room for a duplicate
    if sum(map(int.bit_count, out)) != m:
        return None
    if inn is None:
        if any(map(and_, out, _bits(n).values())):
            return None
        inn = _in_masks_of(out, m)
    # the token table holds no leading zero, so equal tokens are equal ids
    elif any(map(eq, tokens[0::2], tokens[1::2])):
        return None
    if symmetric or not any(map(and_, out, inn)):
        return OrientedGraph.from_masks(n, out, inn, symmetric), rows
    return None


def parse_graph(text: str) -> OrientedGraph:
    n, m, symmetric, body = _head(text)
    bulk = _bulk_graph(n, m, symmetric, body, repeat(0), 1)  # every edge in class 0
    if bulk:
        return bulk[0]
    _count_lines(body, m)
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


def _bulk_classes(text: str, n: int, m: int,
                  num_colors: int | None) -> list[list[int]] | None:
    """The out-masks of colors 1..q of a coloring text of m lines that
    passes the bulk check with every color in 1..q, q being num_colors or
    else the top color; None sends it to the line scan."""
    bulk = _bulk_tokens(text, b"  \n", m, n)
    if bulk is None:
        return None
    tokens, ids = bulk
    try:
        colors = list(map(ids.__getitem__, tokens[2::3]))
        top = max(colors)
        q = top if num_colors is None else num_colors
        if not 0 < top <= q:
            return None
        lines = zip(tokens[0::3], tokens[1::3], colors)
        return _or_edges(n, m, lines, ids, q + 1, False)[0][1:]
    except LookupError:
        return None


def _strip_colors(body: str, text: str, m: int,
                  num_colors: int | None) -> tuple[bytes, int] | None:
    """(colors line by line, q) of a coloring text that is the edge body
    `body` with " c" before each of its m LFs, c a digit from 1 to q: q is
    num_colors, if at most 9, or else the top color.  None otherwise."""
    top = 9 if num_colors is None else num_colors
    # the strip leaves the body, two bytes a line shorter and first line first
    if (top > 9 or len(text) != len(body) + 2 * m or not text.isascii()
            or not text.startswith(body[:body.find("\n")] + " ")):
        return None
    data = text.encode()
    for q in range(1, top + 1):
        data = data.replace(*_MARKS[q])  # same length: copies once
        # with no palette given, the first color to mark the last unmarked
        # line is the top one
        if num_colors is None or q == top:
            marks = data.translate(None, _ASCII)
            if len(marks) == 2 * m:
                break
    else:
        return None
    if data.translate(None, _MARKED) == body.encode():
        return marks[::2].translate(_COLOR), q
    return None


def parse_coloring(text: str, g: OrientedGraph,
                   num_colors: int | None = None) -> EdgeColoring:
    """Parse a coloring against its host graph.

    num_colors defaults to the largest color id present (at least 1).
    Color ids below 1 or above an explicit num_colors are format errors, as
    are edges absent from g, duplicates, or missing edges.
    """
    bulk = _bulk_classes(text, g.n, g.edge_count, num_colors)
    # as many lines as host edges: covering them all in colors 1..q leaves
    # no room for a duplicate or a color 0
    if bulk is not None and _union(bulk) == g.out_masks():
        return EdgeColoring.from_masks(bulk)
    return _scan_coloring(text, g, num_colors)


def parse_colored(graph_text: str, coloring_text: str,
                  num_colors: int | None = None) -> tuple[OrientedGraph, EdgeColoring]:
    """(graph, coloring) of a graph text and a coloring of it: the result,
    or the error, of parse_graph then parse_coloring.

    A coloring text that is the graph's edge body with " c" before each
    LF, c a single digit from 1 to num_colors (to 9 when num_colors is not
    given; never with num_colors above 9), as the writers make it, has that
    color column stripped off its bytes: only the edge body is tokenized,
    under parse_graph's bulk and mask checks.  Any other pair, and one
    that fails those checks, takes the two parsers.
    """
    n, m, symmetric, body = _head(graph_text)
    strip = _strip_colors(body, coloring_text, m, num_colors)
    if strip is not None:
        bulk = _bulk_graph(n, m, symmetric, body, strip[0], strip[1] + 1)
        if bulk is not None:
            return bulk[0], EdgeColoring.from_masks(bulk[1][1:])
    g = parse_graph(graph_text)
    return g, parse_coloring(coloring_text, g, num_colors)


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


def read_colored(graph_path, coloring_path,
                 num_colors: int | None = None) -> tuple[OrientedGraph, EdgeColoring]:
    """parse_colored on two files.  A graph file that fails to parse is
    reported before anything about the coloring file, as read_graph then a
    read of the coloring would report it."""
    graph_text = _read_text(graph_path)
    try:
        coloring_text = _read_text(coloring_path)
    except (FormatError, OSError):
        parse_graph(graph_text)
        raise
    return parse_colored(graph_text, coloring_text, num_colors)


def write_coloring(path, g: OrientedGraph, coloring: EdgeColoring) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(serialize_coloring(g, coloring))
