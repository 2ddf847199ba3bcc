"""The text formats against the parsers and serializers kept verbatim in
`reference_formats`: on a seeded corpus of valid and mutated bodies the
parsers return the same graph or coloring, or raise the same error class
with the same message, line and column, and the serializers write the same
bytes.  Round trips are checked on hypothesis-drawn graphs and colorings."""
import random
import tracemalloc
from operator import add

from hypothesis import given, settings, strategies as st

import reference_formats as ref
from dipath_ramsey import (
    EdgeColoring,
    OrientedGraph,
    formats,
    parse_coloring,
    parse_graph,
    random_digraph,
    random_oriented_graph,
    serialize_coloring,
    serialize_graph,
)

# (n, edge counts) covering each bulk regime: 7 converts its few tokens
# with int, dense at 9 and 21 edges and sparse at 1; 128 (8128 is one edge
# per pair) takes the token table and the bit table; 256 takes the token
# table with per-edge masks; 300 (the README's adversary size) is sparse,
# with int at 600 edges and the token table at 1800.  The writers walk the
# bits of the 300-vertex hosts and compress the rows of the 128-vertex ones.
HOSTS = ((0, (0,)), (1, (0,)), (2, (1,)), (7, (0, 1, 9, 21)),
         (128, (1500, 8128)), (256, (2000,)), (300, (600, 1800)))


def _outcome(parse, *args):
    try:
        got = parse(*args)
    except Exception as exc:
        return ("raise", type(exc).__name__, str(exc),
                getattr(exc, "line", None), getattr(exc, "column", None))
    if isinstance(got, OrientedGraph):
        return ("graph", got.n, got.allow_antiparallel, got.edge_count,
                got.out_masks(), [got.in_mask(v) for v in range(got.n)])
    return ("coloring", got.num_colors, len(got), got.n, got.items(),
            [got.out_masks(c, got.n) for c in range(1, got.num_colors + 1)])


def _host(n: int, m: int, symmetric: bool, seed: int) -> OrientedGraph:
    if symmetric:
        return random_digraph(n, m, seed)
    top = n * (n - 1) // 2
    return random_oriented_graph(n, min(m, top), seed)


def _hosts():
    seed = 0
    for n, counts in HOSTS:
        for m in counts:
            for symmetric in (False, True):
                seed += 1
                yield _host(n, m, symmetric, seed)


def _text(head: str, lines: list[str], end: str = "\n") -> str:
    return "\n".join([head, *lines]) + end if head else "\n".join(lines) + end


def _line_mutants(lines: list[str], n: int, rng: random.Random, color: bool):
    """(name, lines, line count change) for one body; the last field of a
    coloring line is its color."""
    yield "valid", lines, 0
    yield "reordered", rng.sample(lines, len(lines)), 0
    if not lines:
        yield "extra", ["0 1 1" if color else "0 1"], 1
        return
    i = rng.randrange(len(lines))
    fields = lines[i].split(" ")
    u, v = fields[0], fields[1]

    def edit(*new):
        return lines[:i] + [" ".join(new)] + lines[i + 1:]

    rest = fields[2:]
    yield "leading zero", edit("0" + u, v, *rest), 0
    yield "plus sign", edit(u, "+" + v, *rest), 0
    yield "minus zero", edit("-0", v, *rest), 0
    yield "id n", edit(u, str(n), *rest), 0
    yield "self loop", edit(u, u, *rest), 0
    yield "reversed", edit(v, u, *rest), 0
    yield "tab", lines[:i] + ["\t".join(fields)] + lines[i + 1:], 0
    yield "double space", lines[:i] + ["  ".join(fields)] + lines[i + 1:], 0
    yield "duplicate", lines[:i + 1] + [lines[i]] + lines[i + 1:], 1
    yield "duplicate, same count", lines[:i] + [lines[i]] + lines[i:-1], 0
    yield "dropped", lines[:i] + lines[i + 1:], -1
    yield "antiparallel", lines + [" ".join([v, u, *rest])], 1
    yield "separators only", [" " * (len(fields) - 1)] * len(lines), 0
    if i + 1 < len(lines):
        # a token moved up a line: every line count and token count holds
        head, _, tail = lines[i + 1].partition(" ")
        yield "shifted token", lines[:i] + [lines[i] + " " + head, tail] + lines[i + 2:], 0
    if color:
        yield "color 0", edit(u, v, "0"), 0
        yield "color leading zero", edit(u, v, "0" + rest[0]), 0
        yield "color plus", edit(u, v, "+1"), 0
        yield "color minus zero", edit(u, v, "-0"), 0
        yield "color n + 1", edit(u, v, str(n + 1)), 0
        yield "color above table", edit(u, v, str(2 * n + 5)), 0
        yield "no color", edit(u, v), 0
    else:
        yield "third token", edit(u, v, "1"), 0


def _endings(text: str):
    yield text[:-1]                         # no final LF
    yield text.replace("\n", "\r\n")
    yield text.replace("\n", "\r")
    yield text.replace("\n", "\r\n", 1)


def _graph_corpus():
    rng = random.Random(14)
    for g in _hosts():
        kind = "symmetric" if g.allow_antiparallel else "oriented"
        lines = ref.serialize_graph(g).split("\n")[1:-1]
        for name, body, dm in _line_mutants(lines, g.n, rng, color=False):
            for m in {g.edge_count + dm, g.edge_count}:
                text = _text(f"{g.n} {m} {kind}", body)
                yield f"n={g.n} {kind} m={g.edge_count} {name} head={m}", text
                if name == "valid":
                    for other in _endings(text):
                        yield f"n={g.n} {kind} ending {other[-2:]!r}", other
        yield f"n={g.n} {kind} bare header", f"{g.n} 0 {kind}"
        yield f"n={g.n} {kind} other kind", _text(
            f"{g.n} {g.edge_count} {'oriented' if g.allow_antiparallel else 'symmetric'}",
            lines)


def _coloring_corpus():
    rng = random.Random(15)
    for g in _hosts():
        # one palette on the large hosts keeps their line scans few
        for q in (1, 2, 3) if g.n < 100 else (2,):
            col = EdgeColoring(q, {e: rng.randint(1, q) for e in g.edges()})
            lines = ref.serialize_coloring(g, col).split("\n")[:-1]
            for name, body, _ in _line_mutants(lines, g.n, rng, color=True):
                texts = [_text("", body)] if body else ["", "\n"]
                palettes = (None,)
                if name == "valid" and body:
                    texts += list(_endings(texts[0]))
                    # every token one place on, the last one past the last
                    # line break: the line breaks and spaces stay in place
                    tokens = texts[0].split()
                    seps = [ch for ch in texts[0] if not ch.isdigit()]
                    texts.append("".join(map(add, ["", *tokens], seps)) + tokens[-1])
                if name == "valid" or name.startswith("color"):
                    palettes = (None, q, q - 1, q + 2)
                for text in texts:
                    for num_colors in palettes:
                        yield f"n={g.n} m={g.edge_count} q={q} {name} nc={num_colors}", \
                            g, text, num_colors


def test_parse_graph_matches_reference():
    cases = 0
    for name, text in _graph_corpus():
        assert _outcome(parse_graph, text) == _outcome(ref.parse_graph, text), name
        cases += 1
    assert cases > 300


def test_parse_coloring_matches_reference():
    cases = 0
    for name, g, text, num_colors in _coloring_corpus():
        assert (_outcome(parse_coloring, text, g, num_colors)
                == _outcome(ref.parse_coloring, text, g, num_colors)), name
        cases += 1
    assert cases > 1000


def test_serializers_match_reference():
    rng = random.Random(16)
    for g in _hosts():
        assert serialize_graph(g) == ref.serialize_graph(g)
        for q in (1, 2, 3, g.n + 2):
            col = EdgeColoring(q, {e: rng.randint(1, q) for e in g.edges()})
            assert serialize_coloring(g, col) == ref.serialize_coloring(g, col)
        if g.edge_count:
            # a coloring that misses an edge, or colors a non-edge, raises alike
            u, v = g.edges()[0]
            partial = EdgeColoring(2, {e: 1 for e in g.edges()[1:]})
            extra = EdgeColoring(2, {**{e: 1 for e in g.edges()}, (v, u): 2})
            for bad in (partial, extra):
                if g.allow_antiparallel and bad is extra:
                    continue
                assert (_outcome(serialize_coloring, g, bad)
                        == _outcome(ref.serialize_coloring, g, bad))


def test_canonical_bodies_take_the_bulk_path(monkeypatch):
    """A body as the serializers write it never reaches the line scan, at
    any density, once it has a line and its colors lie below n."""
    def no_scan(*args):
        raise AssertionError("line scan reached")

    monkeypatch.setattr(formats, "_scan_graph", no_scan)
    monkeypatch.setattr(formats, "_scan_coloring", no_scan)
    rng = random.Random(17)
    bulk = 0
    for g in _hosts():
        if not g.edge_count:
            continue
        assert parse_graph(serialize_graph(g)) == g
        q = min(3, g.n - 1)
        col = EdgeColoring(q, {e: rng.randint(1, q) for e in g.edges()})
        assert parse_coloring(serialize_coloring(g, col), g, q) == col
        bulk += 1
    assert bulk >= 14


def test_sparse_bodies_take_the_bulk_path_without_tables(monkeypatch):
    """A few edges of a large host are parsed in bulk, as the reference
    parser does, at a cost in their edges: no token table, no bit table and
    no transpose of n x n bits."""
    def no_call(*args):
        raise AssertionError("not for a sparse body")

    for name in ("_scan_graph", "_scan_coloring", "_ids", "_transpose"):
        monkeypatch.setattr(formats, name, no_call)
    n = 20000
    text = f"{n} 3 oriented\n0 1\n7 {n - 1}\n{n - 1} 5\n"
    body = "0 1 1\n7 19999 2\n19999 5 2\n"
    g = ref.parse_graph(text)
    tracemalloc.start()
    try:
        assert _outcome(parse_graph, text) == _outcome(ref.parse_graph, text)
        assert (_outcome(parse_coloring, body, g)
                == _outcome(ref.parse_coloring, body, g))
        # a bit table alone would hold n^2/16 bytes, 25 MB
        assert tracemalloc.get_traced_memory()[1] < 2_000_000
    finally:
        tracemalloc.stop()


# -- round trips ------------------------------------------------------------

@st.composite
def _graphs(draw, max_n=14):
    n = draw(st.integers(0, max_n))
    symmetric = draw(st.booleans())
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    # per pair: no edge, u -> v, v -> u, or (symmetric only) both
    ways = draw(st.lists(st.integers(0, 3 if symmetric else 2),
                         min_size=len(pairs), max_size=len(pairs)))
    edges = [e for (u, v), way in zip(pairs, ways)
             for e, bit in (((u, v), 1), ((v, u), 2)) if way & bit]
    return OrientedGraph(n, edges, allow_antiparallel=symmetric)


@settings(max_examples=300, deadline=None)
@given(_graphs())
def test_graph_round_trip(g):
    h = parse_graph(serialize_graph(g))
    assert h == g and h.edge_count == g.edge_count
    assert [h.in_mask(v) for v in range(h.n)] == [g.in_mask(v) for v in range(g.n)]


@settings(max_examples=300, deadline=None)
@given(_graphs(), st.data())
def test_coloring_round_trip(g, data):
    # up to three colors past n, so that num_colors can exceed n
    q = data.draw(st.integers(1, g.n + 3))
    colors = data.draw(st.lists(st.integers(1, q), min_size=g.edge_count,
                                max_size=g.edge_count))
    assign = dict(zip(g.edges(), colors))
    text = serialize_coloring(g, EdgeColoring(q, assign))
    assert parse_coloring(text, g, num_colors=q) == EdgeColoring(q, assign)
    assert parse_coloring(text, g) == EdgeColoring(max(colors, default=1), assign)
