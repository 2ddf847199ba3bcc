"""The text formats against the parsers and serializers kept verbatim in
`reference_formats`: on a seeded corpus of valid and mutated bodies the
parsers return the same graph or coloring, or raise the same error class
with the same message, line and column, and the serializers write the same
bytes.  Round trips are checked on hypothesis-drawn graphs and colorings."""
import random
import tracemalloc
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

import reference_formats as ref
from dipath_ramsey import (
    EdgeColoring,
    FormatError,
    OrientedGraph,
    formats,
    graphs,
    parse_colored,
    parse_coloring,
    parse_graph,
    random_digraph,
    random_oriented_graph,
    read_colored,
    serialize_coloring,
    serialize_graph,
)

# (n, edge counts) covering each bulk regime of graphs' density rule
# (dense from m >= 8n and n^2 < 32 m on): 7 converts its few tokens with
# int and ORs masks per edge at every count; 128 (8128 is one edge per
# pair) takes the token table and the bit table; 256 takes the token table
# with per-edge masks; 300 (the README's adversary size) is sparse, with
# int at 600 edges and the token table at 1800; 20 at 170 edges is a small
# dense host.  The writers walk the bits of the 300-vertex hosts and
# compress the rows of the 128-vertex ones.
HOSTS = ((0, (0,)), (1, (0,)), (2, (1,)), (7, (0, 1, 9, 21)),
         (128, (1500, 8128)), (256, (2000,)), (300, (600, 1800)), (20, (170,)))


def _outcome(parse, *args):
    try:
        got = parse(*args)
    except Exception as exc:
        return ("raise", type(exc).__name__, str(exc),
                getattr(exc, "line", None), getattr(exc, "column", None))
    return _describe(got)


def _describe(got):
    if isinstance(got, tuple):
        return tuple(map(_describe, got))
    if isinstance(got, OrientedGraph):
        return ("graph", got.n, got.allow_antiparallel, got.edge_count,
                got.out_masks(), [got.in_mask(v) for v in range(got.n)])
    return ("coloring", got.num_colors, len(got), got.n, got.items(),
            [got.out_masks(c, got.n) for c in range(1, got.num_colors + 1)])


def _two_parses(graph_text, coloring_text, num_colors):
    """What parse_colored stands for: parse_graph, then parse_coloring."""
    g = parse_graph(graph_text)
    return g, parse_coloring(coloring_text, g, num_colors)


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


@pytest.mark.parametrize("header", ["-1 0 oriented", "3 -2 symmetric"])
def test_graph_parse_negative_header_count(header):
    with pytest.raises(FormatError, match="negative count in header") as exc:
        parse_graph(header + "\n")
    assert exc.value.line == 1


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

    for name in ("_scan_graph", "_scan_coloring", "_ids", "_in_masks_of"):
        monkeypatch.setattr(formats, name, no_call)
    monkeypatch.setattr(graphs, "_transpose", no_call)
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


def _ref_two_parses(graph_text, coloring_text, num_colors):
    g = ref.parse_graph(graph_text)
    return g, ref.parse_coloring(coloring_text, g, num_colors)


def _threshold_hosts():
    """(host, what its graph body takes): 2m = 8n - 2, 8n and 8n + 2
    tokens on each side of n^2 = 32 m (the n = 128 where 4n edges meet
    graphs' second density arm), so the graph body takes int then the token
    table, always sparse; a coloring of m >= 8n/3 edges takes the table.
    Then m = 8n - 1, 8n, 8n + 1 at n = 100 and m = n^2/32 - 1, n^2/32,
    n^2/32 + 1 at n = 320 flip each arm of `graphs._dense` in turn,
    with the token table on both sides."""
    seed = 40
    shapes = [(n, 4 * n + d) for n in (30, 200) for d in (-1, 0, 1)]
    shapes += [(100, 800 + d) for d in (-1, 0, 1)] + [(320, 3200 + d) for d in (-1, 0, 1)]
    for n, m in shapes:
        for symmetric in (False, True):
            seed += 1
            yield _host(n, m, symmetric, seed)


def test_bulk_parses_match_reference_at_the_token_table(monkeypatch):
    """parse_graph, parse_coloring and parse_colored give the reference's
    results and errors on bodies of 8n tokens give or take one line, and on
    each side of both density arms.  In a body that takes the token table,
    a token equal to n and a leading zero miss the table, and a non-ASCII
    digit fails the bulk check; each reaches the line scan."""
    tables = []
    real_ids = formats._ids
    monkeypatch.setattr(formats, "_ids", lambda size: tables.append(size) or real_ids(size))
    rng = random.Random(21)
    seen = set()
    for g in _threshold_hosts():
        n, m = g.n, g.edge_count
        kind = "symmetric" if g.allow_antiparallel else "oriented"
        col = EdgeColoring(3, {e: rng.randint(1, 3) for e in g.edges()})
        glines = serialize_graph(g).split("\n")[1:-1]
        clines = serialize_coloring(g, col).split("\n")[:-1]
        i = rng.randrange(m)
        u, v, c = clines[i].split(" ")
        mutants = {"valid": ([u, v], [u, v, c]),
                   "id n": ([u, str(n)], [str(n), v, c]),
                   "leading zero": (["0" + u, v], [u, "0" + v, c]),
                   "non-ASCII digit": ([u, "\u0663"], [u, v, "\u0663"])}
        for name, (gfields, cfields) in mutants.items():
            gtext = _text(f"{n} {m} {kind}", glines[:i] + [" ".join(gfields)] + glines[i + 1:])
            ctext = _text("", clines[:i] + [" ".join(cfields)] + clines[i + 1:])
            good = _text(f"{n} {m} {kind}", glines)
            tag = f"n={n} m={m} {kind} {name}"
            before = len(tables)
            assert _outcome(parse_graph, gtext) == _outcome(ref.parse_graph, gtext), tag
            if name == "valid":
                assert (len(tables) > before) == (2 * m >= 8 * n), tag
            assert (_outcome(parse_coloring, ctext, g, None)
                    == _outcome(ref.parse_coloring, ctext, g, None)), tag
            for pair in ((gtext, _text("", clines)), (good, ctext), (gtext, ctext)):
                assert (_outcome(parse_colored, *pair, None)
                        == _outcome(_ref_two_parses, *pair, None)), tag
            seen.add((2 * m >= 8 * n, graphs._dense(n, m), n * n < 32 * m))
    assert seen == {(False, False, True), (True, False, True), (False, False, False),
                    (True, False, False), (True, True, True)}


# -- one parse for a colored host ---------------------------------------------

def _colored_corpus():
    """(name, graph text, coloring text, num_colors): a host and a coloring
    as the writers make them, with the mutations of `_line_mutants`
    applied to the graph file, to the coloring file, or to both at the
    same line, which keeps the coloring's u v columns equal to the graph
    body.  The 8128-edge hosts are left out: their line scans are slow,
    and the 1500-edge ones on 128 vertices take the same bulk regimes."""
    rng = random.Random(18)
    for g in _hosts():
        if g.edge_count > 4000:
            continue
        kind = "symmetric" if g.allow_antiparallel else "oriented"
        glines = ref.serialize_graph(g).split("\n")[1:-1]
        for q in (1, 2, 3) if g.n < 100 else (2,):
            col = EdgeColoring(q, {e: rng.randint(1, q) for e in g.edges()})
            clines = ref.serialize_coloring(g, col).split("\n")[:-1]
            gtext = _text(f"{g.n} {g.edge_count} {kind}", glines)
            ctext = _text("", clines) if clines else ""
            seed = rng.random()
            graph_mutants = {name: (body, dm) for name, body, dm in
                             _line_mutants(glines, g.n, random.Random(seed), color=False)}
            color_mutants = {name: body for name, body, _ in
                             _line_mutants(clines, g.n, random.Random(seed), color=True)}
            tag = f"n={g.n} {kind} m={g.edge_count} q={q}"
            for name, (body, dm) in graph_mutants.items():
                for m in {g.edge_count + dm, g.edge_count}:
                    head = f"{g.n} {m} {kind}"
                    yield f"{tag} graph {name} head={m}", _text(head, body), ctext, q
                    if name in color_mutants:
                        yield (f"{tag} both {name} head={m}", _text(head, body),
                               _text("", color_mutants[name]), None)
            for name, body in color_mutants.items():
                texts = [_text("", body)] if body else ["", "\n"]
                if name == "valid" and body:
                    texts += list(_endings(texts[0]))
                palettes = (None,)
                if name == "valid" or name.startswith("color"):
                    palettes = (None, q, q - 1, q + 2)
                for text in texts:
                    for num_colors in palettes:
                        yield f"{tag} coloring {name} nc={num_colors}", gtext, text, num_colors
            for other in _endings(gtext) if glines else ():
                yield f"{tag} graph ending {other[-2:]!r}", other, ctext, None


def test_parse_colored_matches_two_parses():
    """On every pair of the corpus parse_colored returns the graph and
    coloring, or raises the error with the message, line and column, that
    parse_graph and then parse_coloring give."""
    cases = both = 0
    for name, gtext, ctext, num_colors in _colored_corpus():
        assert (_outcome(parse_colored, gtext, ctext, num_colors)
                == _outcome(_two_parses, gtext, ctext, num_colors)), name
        cases += 1
        both += " both " in name
    assert cases > 2000 and both > 300


def _fallbacks(monkeypatch):
    """Count parse_colored's fallbacks to the two parsers."""
    calls = []

    def counted(text):
        calls.append(text)
        return parse_graph(text)

    monkeypatch.setattr(formats, "parse_graph", counted)
    return calls


def _check_pair(gtext, ctext, num_colors=None):
    got = _outcome(parse_colored, gtext, ctext, num_colors)
    assert got == _outcome(_two_parses, gtext, ctext, num_colors)
    return got


def test_writer_pairs_take_one_parse(monkeypatch):
    """A host and coloring as the writers make them parse in one pass over
    the coloring, at every density, in the color strip's domain: single
    digit colors, at or above n too, under a palette up to 9, in canonical
    order.  Colors of 10 and above, a palette above 9 and a coloring out
    of canonical order fall back to the two parsers."""
    calls = _fallbacks(monkeypatch)
    rng = random.Random(19)
    fast = 0
    for g in _hosts():
        gtext = serialize_graph(g)
        edges = g.edges()
        # colors past n only on the small hosts, whose line scans are quick
        for q in (1, 2, 3, 12) + ((g.n + 1,) if g.n < 100 else ()):
            colors = [rng.randint(1, q) for _ in edges]
            ctext = serialize_coloring(g, EdgeColoring(q, dict(zip(edges, colors))))
            before = len(calls)
            for num_colors in (None, q, q + 3):
                got = _check_pair(gtext, ctext, num_colors)
                assert got[0] == _describe(g)
            took_fast = len(calls) == before
            # the color strip takes single digits under a palette up to 9
            assert took_fast == (0 < len(edges) and q + 3 <= 9)
            fast += took_fast
            lines = ctext.splitlines(keepends=True)
            if len(lines) > 1:
                before = len(calls)
                got = _check_pair(gtext, "".join(lines[::-1]), None)
                assert got[0] == _describe(g)
                assert len(calls) == before + 1
    assert fast > 30


def test_colored_pair_special_cases(monkeypatch):
    """Edge cases of the one-parse rule, each equal to the two parses."""
    calls = _fallbacks(monkeypatch)
    # a malformed graph body beside a sound coloring of ids and colors
    # 5, 12 and 3 is reported as parse_graph reports it
    assert _check_pair("13 2 oriented\n5\n12 0\n", "5 12 3\n12 0 12\n")[0] == "raise"
    # colors 10 and above beside small ones, on a host with ids past them
    g = random_oriented_graph(40, 300, 5)
    col = EdgeColoring(14, {e: 1 + i % 14 for i, e in enumerate(g.edges())})
    before = len(calls)
    got = _check_pair(serialize_graph(g), serialize_coloring(g, col))
    assert got[1][1] == 14 and len(calls) == before + 1
    # num_colors above the top color: empty classes at the top
    got = _check_pair(serialize_graph(g), serialize_coloring(g, col), 20)
    assert got[1][1] == 20 and len(calls) == before + 2
    before = len(calls)
    # n past the highest id + 1: isolated vertices at the top
    h = OrientedGraph(30, [(0, 4), (4, 2), (2, 1), (3, 0)])
    col = EdgeColoring(2, {(0, 4): 1, (4, 2): 2, (2, 1): 2, (3, 0): 1})
    got = _check_pair(serialize_graph(h), serialize_coloring(h, col))
    assert got[0][1] == 30 and got[1][3] == 5 and len(calls) == before
    # a symmetric host with antiparallel pairs
    s = random_digraph(20, 200, 6)
    col = EdgeColoring(3, {e: 1 + (e[0] + e[1]) % 3 for e in s.edges()})
    got = _check_pair(serialize_graph(s), serialize_coloring(s, col))
    assert got[0][2] and len(calls) == before
    # an oriented file with an antiparallel pair that its coloring repeats
    bad = _check_pair("3 3 oriented\n0 1\n1 0\n1 2\n", "0 1 1\n1 0 2\n1 2 1\n")
    assert bad[0] == "raise" and "antiparallel" in bad[2] and bad[3] == 3
    # the same pair in a symmetric file parses
    assert _check_pair("3 3 symmetric\n0 1\n1 0\n1 2\n", "0 1 1\n1 0 2\n1 2 1\n")[0] != "raise"
    # color 0, alone and beside others
    for ctext in ("0 1 0\n1 2 0\n", "0 1 1\n1 2 0\n"):
        bad = _check_pair("3 2 oriented\n0 1\n1 2\n", ctext)
        assert bad[0] == "raise" and "color ids start at 1" in bad[2]
    # a self loop, a duplicate and an id at n in both files
    for u, v in (("1", "1"), ("0", "1"), ("3", "0")):
        body = f"0 1\n{u} {v}\n"
        bad = _check_pair(f"3 2 oriented\n{body}", f"0 1 1\n{u} {v} 2\n")
        assert bad[0] == "raise" and bad[3] == 3
    # m = 0, with and without vertices, and a coloring line too many
    for gtext in ("0 0 oriented\n", "5 0 symmetric\n", "5 0 oriented"):
        for ctext in ("", "\n", "0 1 1\n"):
            for num_colors in (None, 1, 3):
                _check_pair(gtext, ctext, num_colors)
    # a bad header is reported as parse_graph reports it
    for gtext in ("", "3 x oriented\n", "3 1 acyclic\n0 1\n", "3 2 oriented\n0 1\n"):
        assert _check_pair(gtext, "0 1 1\n")[0] == "raise"
    # the color column the strip reads, and texts one step from it
    gtext = "3 2 oriented\n0 1\n1 2\n"
    for ctext, num_colors in (("0 1 01\n1 2 1\n", None), ("0 1 3\n1 2 1\n", 2),
                              ("0 1 9\n1 2 1\n", 8), ("0 1\t1\n1 2 1\n", None),
                              ("0 1 1\n1 2 2", None), ("0 1 1\n1 2 2", 2),
                              ("0 1 1\n1 2 \u0661\n", None), ("0 1 1\n1 2\u0080\n", None),
                              ("0 1 1\n1 2 \ud800\n", None),
                              ("0 1\x81\x81\n1 2\x82\x82\n", None), ("0 1 1\n1 2 1\n", 0)):
        _check_pair(gtext, ctext, num_colors)
    # colors 9 and 10 in one file, on a host with ids past them
    g = random_oriented_graph(40, 300, 7)
    col = EdgeColoring(10, {e: 9 + i % 2 for i, e in enumerate(g.edges())})
    ctext = serialize_coloring(g, col)
    before = len(calls)
    for num_colors in (None, 9, 10, 12):
        _check_pair(serialize_graph(g), ctext, num_colors)
    assert len(calls) == before + 4     # two-digit colors: every palette falls back


def _routes(monkeypatch):
    """A pair checker that also returns how many times a parse called
    `_bulk_classes` (parse_coloring's bulk check), `serialize_graph` (which
    no parser calls) and parse_graph (parse_colored's fallback)."""
    calls = {"_bulk_classes": 0, "serialize_graph": 0, "parse_graph": 0}

    def counted(name):
        real = getattr(formats, name)

        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    for name in calls:
        monkeypatch.setattr(formats, name, counted(name))

    def check(gtext, ctext, num_colors=None):
        before = dict(calls)
        got = _outcome(parse_colored, gtext, ctext, num_colors)
        used = {name: calls[name] - before[name] for name in calls}
        assert got == _outcome(_two_parses, gtext, ctext, num_colors)
        return got, used
    return check


def test_writer_pairs_take_the_color_strip(monkeypatch):
    """Writer pairs with colors 1 to 9, dense and sparse, with num_colors
    not given, q and q + 3 up to 9, are read by the color strip: the two
    parsers do not run.  Colors 10 and above, and a coloring in reverse
    line order, take the two parsers.  No parse calls serialize_graph."""
    check = _routes(monkeypatch)
    rng = random.Random(20)
    dense = sparse = 0
    for g in _hosts():
        if not g.edge_count or g.edge_count > 4000:
            continue
        gtext, edges = serialize_graph(g), g.edges()
        for q in range(1, 10):
            colors = [rng.randint(1, q) for _ in edges]
            ctext = serialize_coloring(g, EdgeColoring(q, dict(zip(edges, colors))))
            for num_colors in (None, q, q + 3) if q + 3 <= 9 else (None, q):
                got, used = check(gtext, ctext, num_colors)
                assert got[1][1] == (max(colors) if num_colors is None else num_colors)
                assert not any(used.values())
        if graphs._dense(g.n, g.edge_count):
            dense += 1
        else:
            sparse += 1
    assert dense >= 4 and sparse >= 4
    for g in _hosts():
        if g.n < 100 or g.edge_count > 4000:
            continue
        gtext, edges = serialize_graph(g), g.edges()
        big = EdgeColoring(12, {e: 10 + i % 3 for i, e in enumerate(edges)})
        small = EdgeColoring(3, {e: 1 + i % 3 for i, e in enumerate(edges)})
        lines = serialize_coloring(g, small).splitlines(keepends=True)
        for ctext in (serialize_coloring(g, big), "".join(lines[::-1])):
            got, used = check(gtext, ctext)
            assert got[0] == _describe(g)
            assert used == {"_bulk_classes": 1, "serialize_graph": 0, "parse_graph": 1}


def test_read_colored_reports_the_graph_first(tmp_path):
    """read_colored reads the graph file first: a bad graph is reported
    before a missing or non-ASCII coloring file, as reading the graph and
    then the coloring reports it; a sound graph lets the coloring file's
    own error through."""
    good, bad = tmp_path / "good.graph", tmp_path / "bad.graph"
    good.write_bytes(b"3 2 oriented\r\n0 1\r\n1 2\r\n")
    bad.write_bytes(b"3 2 oriented\n0 1\n1 1\n")
    col, odd = tmp_path / "c.txt", tmp_path / "odd.txt"
    col.write_bytes(b"0 1 2\n1 2 1\n")
    odd.write_bytes("0 1 1\n1 2 \u00e9\n".encode("utf-8"))
    missing = tmp_path / "none.txt"
    g, coloring = read_colored(good, col)
    assert (g, coloring) == _two_parses(good.read_text(), col.read_text(), None)
    assert read_colored(good, col, 3)[1].num_colors == 3
    for other in (col, odd, missing):
        with pytest.raises(FormatError) as exc:
            read_colored(bad, other)
        assert "self loop" in str(exc.value) and exc.value.line == 3
    with pytest.raises(FormatError) as exc:
        read_colored(good, odd)
    assert (exc.value.line, exc.value.column) == (2, 5)
    with pytest.raises(FileNotFoundError):
        read_colored(good, missing)
    with pytest.raises(FileNotFoundError):
        read_colored(missing, col)


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
@given(_graphs(max_n=12), st.data())
def test_parse_colored_matches_two_parses_on_edits(g, data):
    """On a drawn host and coloring, with two lines of either file swapped
    or one byte of either file changed, parse_colored gives the result or
    the error of parse_graph then parse_coloring."""
    q = data.draw(st.integers(1, 12))
    colors = data.draw(st.lists(st.integers(1, q), min_size=g.edge_count,
                                max_size=g.edge_count))
    texts = [serialize_graph(g),
             serialize_coloring(g, EdgeColoring(q, dict(zip(g.edges(), colors))))]
    side = data.draw(st.integers(0, 1))
    text = texts[side]
    edit = data.draw(st.sampled_from(["none", "swap", "byte"]))
    if edit == "swap" and text:
        lines = text.splitlines(keepends=True)
        i = data.draw(st.integers(0, len(lines) - 1))
        j = data.draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
        texts[side] = "".join(lines)
    elif edit == "byte":
        i = data.draw(st.integers(0, len(text)))
        new = data.draw(st.sampled_from(["", " ", "\n", "\t", "0", "1", "9", "x", "\u0080"]))
        texts[side] = text[:i] + new + text[i + 1:]
    num_colors = data.draw(st.sampled_from([None, q, data.draw(st.integers(0, 12))]))
    assert (_outcome(parse_colored, *texts, num_colors)
            == _outcome(_two_parses, *texts, num_colors))


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
