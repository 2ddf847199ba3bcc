"""Plain-text serialization for graphs and colorings.

Graph format, bit-exact: one header line ``n m d`` with d in
{oriented, symmetric}, then m edge lines ``u v`` (0-based) in canonical
lexicographic order, LF endings, trailing newline.  A coloring is m lines
``u v c`` in the same edge order as its host graph.

Parsing checks a body in bulk first: one regular expression for the line
shape and the ASCII digits, one conversion of all tokens, then mask
checks.  Only a body that fails a bulk check is scanned line by line, which
reports the first offending line (and parses a body whose only quirk is
whitespace other than single spaces).
"""
from __future__ import annotations

import re
from operator import and_, eq, or_

from .errors import FormatError
from .graphs import EdgeColoring, OrientedGraph

_KINDS = {"oriented": False, "symmetric": True}

# bodies as the serializers write them: single spaces, LF line ends
_EDGE_BODY = re.compile(r"(?:[0-9]+ [0-9]+\n)*")
_COLORING_BODY = re.compile(r"(?:[0-9]+ [0-9]+ [0-9]+\n)*")


def serialize_graph(g: OrientedGraph) -> str:
    kind = "symmetric" if g.allow_antiparallel else "oriented"
    lines = [f"{g.n} {g.edge_count} {kind}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _int_field(token: str, line_no: int, col: int, what: str) -> int:
    digits = token[1:] if token[:1] == "-" else token
    if not (digits.isascii() and digits.isdigit()):
        raise FormatError(f"expected {what}, got {token!r}", line_no, col)
    return int(token)


def _line_count(body: str) -> int:
    """Lines of `body`, a final line break not starting another line."""
    return body.count("\n") + (1 if body and not body.endswith("\n") else 0)


def _bulk_ints(pattern: re.Pattern, body: str) -> list[int] | None:
    """All tokens of a canonical body as ints, or None to scan by line."""
    if body and not body.endswith("\n") or not pattern.fullmatch(body):
        return None
    return list(map(int, body.split()))


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
    nums = _bulk_ints(_EDGE_BODY, body)
    if nums is not None and (not nums or max(nums) < n):
        us, vs = nums[0::2], nums[1::2]
        out = [0] * n
        inn = [0] * n
        for u, v in zip(us, vs):
            out[u] |= 1 << v
            inn[v] |= 1 << u
        if (sum(map(int.bit_count, out)) == m and not any(map(eq, us, vs))
                and (symmetric or not any(map(and_, out, inn)))):
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
    masks = [coloring.out_masks(c, g.n) for c in range(1, coloring.num_colors + 1)]
    lines = []
    for u, m in enumerate(g.out_masks()):
        rows = [col[u] for col in masks]
        while m:
            low = m & -m
            m ^= low
            c = 1
            while not rows[c - 1] & low:
                c += 1
            lines.append(f"{u} {low.bit_length() - 1} {c}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_coloring(text: str, g: OrientedGraph,
                   num_colors: int | None = None) -> EdgeColoring:
    """Parse a coloring against its host graph.

    num_colors defaults to the largest color id present (at least 1).
    Color ids below 1 or above an explicit num_colors are format errors, as
    are edges absent from g, duplicates, or missing edges.
    """
    nums = _bulk_ints(_COLORING_BODY, text)
    if nums is not None and len(nums) == 3 * g.edge_count:
        if not nums:
            return EdgeColoring(1 if num_colors is None else num_colors, {})
        us, vs, cs = nums[0::3], nums[1::3], nums[2::3]
        top = max(cs)
        if (max(us) < g.n and max(vs) < g.n and min(cs) >= 1
                and (num_colors is None or top <= num_colors)):
            q = top if num_colors is None else num_colors
            masks = [[0] * g.n for _ in range(q)]
            for u, v, c in zip(us, vs, cs):
                masks[c - 1][u] |= 1 << v
            union = masks[0]
            for rows in masks[1:]:
                union = list(map(or_, union, rows))
            # as many lines as host edges: covering them all leaves no
            # room for a duplicate
            if union == g.out_masks():
                return EdgeColoring.from_masks(masks)
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
    return text.replace("\r\n", "\n").replace("\r", "\n")


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
