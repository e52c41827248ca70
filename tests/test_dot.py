"""Every DOT file strandkit writes parses, and every id in it reads back as
itself, under the lexer of dot_lexer.py."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corpus
from dot_lexer import DotError, lex, parse
from golden_outputs import compute_manifest
from strandkit.decomp import Pipeline
from strandkit.formats import coloured_to_dot, dot_id, graph_to_dot, planarisation_to_dot
from strandkit.graph import Graph
from strandkit.planarise import Planarisation


def test_lexer_follows_the_language_page():
    """A quoted string reads \\" as a quote, keeps \\\\ whole and drops a
    backslash before a newline; an HTML string reads XML entities."""
    assert lex('"a\\"b" "a\\\\b" "a\\b" "a\\\nb"') == [
        ("id", 'a"b', "quoted"), ("id", "a\\\\b", "quoted"),
        ("id", "a\\b", "quoted"), ("id", "ab", "quoted")]
    assert lex("<a&amp;&lt;&gt;&quot;&apos;&#233;&#x5f26;>") == [("id", "a&<>\"'é弦", "html")]
    assert lex("graph G{x1 -- -2.5[level=.5];}") == [
        ("id", "graph", "name"), ("id", "G", "name"), ("{", None, None),
        ("id", "x1", "name"), ("--", None, None), ("id", "-2.5", "name"),
        ("[", None, None), ("id", "level", "name"), ("=", None, None),
        ("id", ".5", "name"), ("]", None, None), (";", None, None), ("}", None, None)]


@pytest.mark.parametrize("text", [
    'graph { "a\\" }',                 # the quote is escaped, so the id never ends
    "graph { <a }",
    "graph { <a & b> }",               # a bare & is not XML
    "graph { <<b>x</b>>; }",           # strandkit writes no markup
    "graph { a -> b; }",
    "graph { node; }",
    "digraph { a; }",
    "graph { a }",
    "graph { a; } b",
    "graph { a [kind]; }",
    "graph { @ }",
])
def test_malformed_dot_is_refused(text):
    with pytest.raises(DotError):
        parse(text)


def test_every_dot_file_of_the_manifest_parses():
    texts: list = []
    compute_manifest(texts, ".dot")
    dots = [(argv, name, text) for argv, name, text in texts if name != "stdout"]
    assert {name for _, name, _ in dots} == {"graph.dot", "planarisation.dot", "coloured.dot"}
    for argv, name, text in dots:
        try:
            parse(text)
        except DotError as exc:
            pytest.fail(f"{argv} {name}: {exc}", pytrace=False)
    assert any("<a\\>" in text for _, _, text in dots)


def test_backslash_ids_read_back():
    """Each DOT file of the backslash fixture names the vertices and edges
    of its graph, with each edge's curve as its label."""
    p = Pipeline(corpus.backslash_ids())
    nodes, edges = parse(graph_to_dot(p.graph))
    assert list(nodes) == p.graph.vertices
    assert [(u, v) for u, v, _ in edges] == p.graph.edge_list()
    for dot, g in ((planarisation_to_dot(p.plan), p.plan.embedding),
                   (coloured_to_dot(p.cp), p.cp.embedding)):
        nodes, edges = parse(dot)
        assert list(nodes) == g.vertices()
        assert edges == [(*g.edge_ends[e], {"label": g.edge_label[e]})
                         for e in sorted(g.edge_ends)]


ids = st.text(st.sampled_from('ab"\\\n<&>:é弦 '), min_size=1, max_size=6)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(ids)
@example("a\\")
@example('\\"')
@example("\\\n")
def test_every_id_reads_back_as_itself(text):
    """An id with a backslash is an HTML string; any other keeps the quoted
    bytes it was written with before."""
    written = dot_id(text)
    assert [tok[:2] for tok in lex(written)] == [("id", text)]
    if "\\" not in text:
        assert written == '"' + text.replace('"', '\\"') + '"'


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.lists(ids, min_size=2, max_size=5, unique=True), st.data())
def test_every_graph_reads_back(names, data):
    """The intersection graph and a labelled embedding of drawn ids read back
    vertex for vertex and edge for edge."""
    pairs = data.draw(st.lists(st.permutations(names).map(lambda p: tuple(p[:2])),
                               max_size=6))
    G = Graph(names, pairs)
    nodes, edges = parse(graph_to_dot(G))
    assert list(nodes) == G.vertices
    assert [(u, v) for u, v, _ in edges] == G.edge_list()
    g = corpus.embedding([(f"{names[k % len(names)]}{k}", u, v, 1, names[-1 - k % len(names)])
                          for k, (u, v) in enumerate(pairs)])
    plan = Planarisation(g, {v: "dummy" for v in g.vertices()}, {}, {})
    nodes, edges = parse(planarisation_to_dot(plan))
    assert nodes == {v: {"kind": "dummy"} for v in g.vertices()}
    assert edges == [(*g.edge_ends[e], {"label": g.edge_label[e]})
                     for e in sorted(g.edge_ends)]
