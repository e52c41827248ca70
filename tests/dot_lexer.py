"""A lexer and a small parser of DOT text, after the DOT language page of
Graphviz (https://graphviz.org/doc/info/lang.html), to read back the DOT
files that strandkit writes.

An ID is a name or a numeral, a quoted string or an HTML string:
- A quoted string "..." reads \\" as a quote and drops a backslash before a
  newline.  Every other character stands for itself, and so does the pair
  \\\\, which Graphviz's scanner consumes as one token and keeps whole.
- An HTML string <...> ends at the > that matches its <.  Its text is XML:
  it reads the entities &amp; &lt; &gt; &quot; &apos; and the numeric
  character references, and any other & is an error, as is markup, which
  strandkit never writes.

parse reads the statements strandkit writes: graph [ID] { ... } holding
node statements ID [attributes] ; and edge statements ID -- ID [attributes] ;
where an attribute list is [ID = ID, ...].  Anything else raises DotError.

Run as a script, it parses each DOT file named on the command line and
exits 1 at the first that does not parse:

    python tests/dot_lexer.py out/graph.dot out/coloured.dot
"""

import re
import sys

NAME = re.compile(r"[A-Za-z_\x80-\U0010ffff][A-Za-z_0-9\x80-\U0010ffff]*")
NUMERAL = re.compile(r"-?(\.[0-9]+|[0-9]+(\.[0-9]*)?)")
ENTITY = re.compile(r"&(?:(amp|lt|gt|quot|apos)|#([0-9]+)|#x([0-9a-fA-F]+));")
ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}
KEYWORDS = {"node", "edge", "graph", "digraph", "subgraph", "strict"}


class DotError(ValueError):
    """Text that is not DOT, or DOT that parse does not read."""


def lex(text: str) -> list:
    """The tokens of text: ("id", value, how) for an ID, where how is
    "name", "quoted" or "html", and (punctuation, None, None) for each of
    { } [ ] ; , = and the edge operator --."""
    tokens, i = [], 0
    while i < len(text):
        c = text[i]
        if c in " \t\r\n":
            i += 1
        elif text.startswith("--", i):
            tokens.append(("--", None, None))
            i += 2
        elif c in "{}[];,=":
            tokens.append((c, None, None))
            i += 1
        elif c == '"':
            value, i = _quoted(text, i + 1)
            tokens.append(("id", value, "quoted"))
        elif c == "<":
            value, i = _html(text, i + 1)
            tokens.append(("id", value, "html"))
        else:
            m = NAME.match(text, i) or NUMERAL.match(text, i)
            if m is None:
                raise DotError(f"unexpected {c!r} at {i}")
            tokens.append(("id", m.group(), "name"))
            i = m.end()
    return tokens


def _quoted(text: str, i: int) -> tuple:
    """The value of the quoted string whose text starts at i, and the index
    after its closing quote."""
    out = []
    while i < len(text):
        c = text[i]
        if c == '"':
            return "".join(out), i + 1
        if c == "\\" and text[i + 1:i + 2] == '"':
            out.append('"')
            i += 2
        elif c == "\\" and text[i + 1:i + 2] == "\n":
            i += 2
        elif c == "\\" and text[i + 1:i + 2] == "\\":
            out.append("\\\\")
            i += 2
        else:
            out.append(c)
            i += 1
    raise DotError("a quoted string does not end")


def _html(text: str, i: int) -> tuple:
    """The value of the HTML string whose text starts at i, and the index
    after its closing >."""
    depth, start = 1, i
    while i < len(text):
        depth += {"<": 1, ">": -1}.get(text[i], 0)
        if depth == 0:
            return _xml(text[start:i]), i + 1
        i += 1
    raise DotError("an HTML string does not end")


def _xml(raw: str) -> str:
    """The text of XML character data."""
    if "<" in raw:
        raise DotError(f"an HTML string holds markup: {raw!r}")
    if "&" in ENTITY.sub("", raw):
        raise DotError(f"an HTML string holds a bare '&': {raw!r}")
    return ENTITY.sub(_entity, raw)


def _entity(m) -> str:
    name, dec, hexa = m.groups()
    return ENTITIES[name] if name else chr(int(dec or hexa, 16 if hexa else 10))


def parse(text: str) -> tuple:
    """(nodes, edges) of a DOT graph in the statements strandkit writes:
    nodes maps each node id to its attributes, in order of first mention,
    and edges lists (u, v, attributes) in file order."""
    tokens = lex(text) + [("end", None, None)]
    pos = 0

    def take(kind: str):
        nonlocal pos
        tok = tokens[pos]
        if tok[0] != kind:
            raise DotError(f"token {pos}: want {kind!r}, got {tok[:2]!r}")
        pos += 1
        return tok

    def node_id() -> str:
        _, value, how = take("id")
        if how == "name" and value.lower() in KEYWORDS:
            raise DotError(f"keyword {value!r} where an id stands")
        return value

    def attributes() -> dict:
        attrs = {}
        if tokens[pos][0] == "[":
            take("[")
            while tokens[pos][0] != "]":
                key = node_id()
                take("=")
                attrs[key] = node_id()
                if tokens[pos][0] == ",":
                    take(",")
            take("]")
        return attrs

    head = take("id")
    if head[2] != "name" or head[1].lower() != "graph":
        raise DotError(f"want 'graph', got {head[1]!r}")
    if tokens[pos][0] == "id":
        node_id()
    take("{")
    nodes, edges = {}, []
    while tokens[pos][0] != "}":
        u = node_id()
        nodes.setdefault(u, {})
        if tokens[pos][0] == "--":
            take("--")
            v = node_id()
            nodes.setdefault(v, {})
            edges.append((u, v, attributes()))
        else:
            nodes[u].update(attributes())
        take(";")
    take("}")
    take("end")
    return nodes, edges


if __name__ == "__main__":
    for path in sys.argv[1:]:
        try:
            with open(path, encoding="utf-8") as fh:
                parse(fh.read())
        except DotError as exc:
            sys.exit(f"{path}: {exc}")
