"""Reader for RST discourse trees in the parenthesized ``.dis`` layout.

A document looks like::

    ( Root (span 1 3)
      (Satellite (leaf 1) (rel2par Background) (text _!Costa Rica ... banks!_))
      (Nucleus (span 2 3) (rel2par span)
        (Nucleus (leaf 2) (rel2par span) (text _!but the debt plan ...!_))
        (Satellite (leaf 3) (rel2par Purpose) (text _!in order to ...!_))))

Binary nodes pair one nucleus with one satellite; the relation lives on the
satellite (the nucleus side says ``span``).  Multi-nuclear nodes have two or
more nucleus children all carrying the shared relation.  Leaf text between
``_!`` and ``!_`` is kept verbatim for later token alignment.
"""

import re
from dataclasses import dataclass, field

NUCLEUS = "Nucleus"
SATELLITE = "Satellite"
SPAN_RELATION = "span"  # rel2par value marking "no relation here"


class RstParseError(ValueError):
    pass


class RstStructureError(ValueError):
    pass


@dataclass
class RstLeaf:
    text: str
    nuclearity: str = NUCLEUS
    relation: str | None = None


@dataclass
class RstNode:
    children: list = field(default_factory=list)
    nuclearity: str = NUCLEUS
    relation: str | None = None


@dataclass
class RstTree:
    root: "RstNode | RstLeaf"

    def edus(self):
        out = []

        def walk(node):
            if isinstance(node, RstLeaf):
                out.append(node)
            else:
                for child in node.children:
                    walk(child)

        walk(self.root)
        return out


_LEX_RE = re.compile(r"\(|\)|_!.*?!_|[^()\s]+", re.DOTALL)


def _lex(text):
    for match in _LEX_RE.finditer(text):
        yield match.group()


def read_rst(text: str) -> RstTree:
    """Parse one ``.dis``-style discourse tree."""
    tokens = list(_lex(text))
    if not tokens:
        raise RstParseError("empty input")
    pos, node = _parse_node(tokens, 0)
    if pos != len(tokens):
        raise RstParseError(f"trailing material after tree: {tokens[pos]!r}")
    if isinstance(node, (RstLeaf, RstNode)):
        return RstTree(_validated(node))
    raise RstParseError("top-level form is not a discourse node")


def _parse_node(tokens, pos):
    if tokens[pos] != "(":
        raise RstParseError(f"expected '(', found {tokens[pos]!r}")
    pos += 1
    if pos >= len(tokens):
        raise RstParseError("unexpected end of input")
    kind = tokens[pos]
    pos += 1
    if kind not in ("Root", NUCLEUS, SATELLITE):
        raise RstParseError(f"unknown node type {kind!r}")

    relation = None
    text = None
    children = []
    while pos < len(tokens) and tokens[pos] != ")":
        tok = tokens[pos]
        if tok == "(":
            head = tokens[pos + 1] if pos + 1 < len(tokens) else None
            if head in ("span", "leaf"):
                pos = _skip_form(tokens, pos)  # span indices are recomputable
            elif head == "rel2par":
                if pos + 3 >= len(tokens) or tokens[pos + 3] != ")":
                    raise RstParseError("malformed rel2par")
                relation = tokens[pos + 2]
                pos += 4
            elif head == "text":
                if pos + 3 >= len(tokens) or tokens[pos + 3] != ")":
                    raise RstParseError("malformed text form")
                raw = tokens[pos + 2]
                if not (raw.startswith("_!") and raw.endswith("!_")):
                    raise RstParseError(f"EDU text not _!..!_ delimited: {raw!r}")
                text = raw[2:-2]
                pos += 4
            elif head in ("Root", NUCLEUS, SATELLITE):
                pos, child = _parse_node(tokens, pos)
                children.append(child)
            else:
                raise RstParseError(f"unknown form {head!r}")
        else:
            raise RstParseError(f"unexpected token {tok!r}")
    if pos >= len(tokens):
        raise RstParseError("unbalanced '('")
    pos += 1  # closing paren

    if kind != "Root" and relation is None:
        raise RstStructureError(f"{kind} node without rel2par relation")
    relation = None if relation == SPAN_RELATION else relation

    if text is not None:
        if children:
            raise RstParseError("leaf with children")
        node = RstLeaf(text=text)
    elif children:
        node = RstNode(children=children)
    else:
        raise RstParseError(f"{kind} node with neither text nor children")
    if kind != "Root":
        node.nuclearity = kind
        node.relation = relation
    return pos, node


def _skip_form(tokens, pos):
    depth = 0
    while pos < len(tokens):
        if tokens[pos] == "(":
            depth += 1
        elif tokens[pos] == ")":
            depth -= 1
            if depth == 0:
                return pos + 1
        pos += 1
    raise RstParseError("unbalanced '(' in span/leaf form")


def _validated(node):
    """Enforce nuclearity invariants on every internal node."""
    if isinstance(node, RstLeaf):
        return node
    kinds = [c.nuclearity for c in node.children]
    n_nuc = kinds.count(NUCLEUS)
    n_sat = kinds.count(SATELLITE)
    if len(node.children) < 2:
        raise RstStructureError("internal discourse node with a single child")
    if n_sat == 0:
        relations = {c.relation for c in node.children}
        if len(relations) != 1 or None in relations:
            raise RstStructureError(
                f"multi-nuclear children disagree on relation: {sorted(map(str, relations))}"
            )
    elif n_sat == 1 and n_nuc == 1:
        satellite = node.children[kinds.index(SATELLITE)]
        if satellite.relation is None:
            raise RstStructureError("satellite without a relation")
    elif n_sat >= 2:
        raise RstStructureError("discourse node with two satellites")
    else:
        raise RstStructureError(
            f"unsupported nuclearity pattern: {n_nuc} nuclei, {n_sat} satellites"
        )
    for child in node.children:
        _validated(child)
    return node
