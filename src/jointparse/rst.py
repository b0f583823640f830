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


_LEX_RE = re.compile(r"\(|\)|_!.*?!_|[^()\s]+", re.DOTALL)

_NODE_KINDS = ("Root", NUCLEUS, SATELLITE)


def _lex(text):
    for match in _LEX_RE.finditer(text):
        yield match.group()


def read_rst(text: str) -> RstTree:
    """Parse one ``.dis``-style discourse tree.

    Node forms are read with a stack of open forms, so documents of any
    nesting depth parse without recursion.  Each node is built, and its
    nuclearity invariants checked, when its form closes.
    """
    tokens = list(_lex(text))
    if not tokens:
        raise RstParseError("empty input")
    if tokens[0] != "(":
        raise RstParseError(f"expected '(', found {tokens[0]!r}")
    if len(tokens) < 2:
        raise RstParseError("unexpected end of input")
    if tokens[1] not in _NODE_KINDS:
        raise RstParseError(f"unknown node type {tokens[1]!r}")
    # Open forms, innermost last: [kind, relation, text, children].
    stack = [[tokens[1], None, None, []]]
    pos = 2
    while stack:
        if pos >= len(tokens):
            raise RstParseError("unbalanced '('")
        tok = tokens[pos]
        form = stack[-1]
        if tok == ")":
            node = _close(*stack.pop())
            if stack:
                stack[-1][3].append(node)
            pos += 1
            continue
        if tok != "(":
            raise RstParseError(f"unexpected token {tok!r}")
        head = tokens[pos + 1] if pos + 1 < len(tokens) else None
        if head in ("span", "leaf"):
            pos = _skip_form(tokens, pos)  # span indices are recomputable
        elif head == "rel2par":
            if pos + 3 >= len(tokens) or tokens[pos + 3] != ")":
                raise RstParseError("malformed rel2par")
            form[1] = tokens[pos + 2]
            pos += 4
        elif head == "text":
            if pos + 3 >= len(tokens) or tokens[pos + 3] != ")":
                raise RstParseError("malformed text form")
            raw = tokens[pos + 2]
            if not (raw.startswith("_!") and raw.endswith("!_")):
                raise RstParseError(f"EDU text not _!..!_ delimited: {raw!r}")
            form[2] = raw[2:-2]
            pos += 4
        elif head in _NODE_KINDS:
            stack.append([head, None, None, []])
            pos += 2
        else:
            raise RstParseError(f"unknown form {head!r}")
    if pos != len(tokens):
        raise RstParseError(f"trailing material after tree: {tokens[pos]!r}")
    return RstTree(node)


def _close(kind, relation, text, children):
    """The node of a finished form, once its own and its children's
    nuclearity and relations check out."""
    if kind != "Root" and relation is None:
        raise RstStructureError(f"{kind} node without rel2par relation")
    if text is not None:
        if children:
            raise RstParseError("leaf with children")
        node = RstLeaf(text=text)
    elif children:
        _check_nuclearity(children)
        node = RstNode(children=children)
    else:
        raise RstParseError(f"{kind} node with neither text nor children")
    if kind != "Root":
        node.nuclearity = kind
        node.relation = None if relation == SPAN_RELATION else relation
    return node


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


def _check_nuclearity(children):
    """Enforce the nuclearity invariants on an internal node's children."""
    kinds = [c.nuclearity for c in children]
    n_nuc = kinds.count(NUCLEUS)
    n_sat = kinds.count(SATELLITE)
    if len(children) < 2:
        raise RstStructureError("internal discourse node with a single child")
    if n_sat == 0:
        relations = {c.relation for c in children}
        if len(relations) != 1 or None in relations:
            raise RstStructureError(
                f"multi-nuclear children disagree on relation: {sorted(map(str, relations))}"
            )
    elif n_sat == 1 and n_nuc == 1:
        satellite = children[kinds.index(SATELLITE)]
        if satellite.relation is None:
            raise RstStructureError("satellite without a relation")
    elif n_sat >= 2:
        raise RstStructureError("discourse node with two satellites")
    else:
        raise RstStructureError(
            f"unsupported nuclearity pattern: {n_nuc} nuclei, {n_sat} satellites"
        )
