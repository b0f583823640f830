"""Joint syntacto-discourse trees.

A joint tree is an ordered tree over a token sequence.  Internal nodes in
the upper layer carry discourse labels (a rhetorical relation plus a
nuclearity form), nodes in the lower layer carry constituency labels, and
leaves are token references.  Discourse nodes never appear below
constituency nodes.

Label text conventions (used by the serializers, by span chains, and by
the parser's label inventory):

* ``Rel->``  satellite is the left child, nucleus the right one
* ``<-Rel``  nucleus is the left child, satellite the right one
* ``Rel``    multi-nuclear (conjunctive) node, all children are nuclei
* bare names without any lowercase letter (``S``, ``NP``, ``-LRB-``) are
  constituency labels; bare names containing a lowercase letter are
  multi-nuclear relations.  Relation names therefore must contain at
  least one lowercase character, and constituency labels must contain
  none.  Both real treebank label sets satisfy this.

Nested nodes with identical extent collapse into a single ``+``-joined
label chain at the span level (``S+VP``), so a span is labeled at most
once during parsing.
"""

from dataclasses import dataclass, field

SATELLITE_THEN_NUCLEUS = "satellite_then_nucleus"  # rendered "Rel->"
NUCLEUS_THEN_SATELLITE = "nucleus_then_satellite"  # rendered "<-Rel"
MULTI_NUCLEAR = "multi_nuclear"                    # rendered "Rel"

FORMS = (SATELLITE_THEN_NUCLEUS, NUCLEUS_THEN_SATELLITE, MULTI_NUCLEAR)

# Reserved constituency label for EDU leaves produced by gold-segmentation
# decoding, where EDU-internal structure is not predicted.
EDU_PLACEHOLDER = "EDU"

CHAIN_SEPARATOR = "+"


class InvariantError(ValueError):
    """A tree (or label) violates a structural invariant."""


@dataclass(frozen=True)
class Token:
    index: int
    text: str


@dataclass(frozen=True)
class SyntacticLabel:
    name: str

    def render(self) -> str:
        return self.name


@dataclass(frozen=True)
class DiscourseLabel:
    relation: str
    form: str

    def render(self) -> str:
        if self.form == SATELLITE_THEN_NUCLEUS:
            return self.relation + "->"
        if self.form == NUCLEUS_THEN_SATELLITE:
            return "<-" + self.relation
        return self.relation


Label = SyntacticLabel | DiscourseLabel


@dataclass
class Leaf:
    token: Token


@dataclass
class Internal:
    label: Label
    children: list = field(default_factory=list)


Node = Leaf | Internal


@dataclass(frozen=True)
class EduSpan:
    start: int  # inclusive token index
    end: int    # exclusive

    def __post_init__(self):
        if not self.start < self.end:
            raise InvariantError(f"empty EDU span ({self.start}, {self.end})")


@dataclass(frozen=True)
class LabeledSpan:
    start: int
    end: int
    chain: str


@dataclass
class JointTree:
    tokens: list
    root: Node


# ---------------------------------------------------------------------------
# label text handling


def validate_label_text(name: str) -> None:
    if not name:
        raise InvariantError("empty label")
    for ch in name:
        if ch.isspace() or ch in "()" or ch == CHAIN_SEPARATOR:
            raise InvariantError(f"label {name!r} contains reserved character {ch!r}")


def parse_label(text: str) -> Label:
    """Parse a rendered label back into a label object."""
    if text.startswith("<-"):
        relation = text[2:]
        validate_label_text(relation)
        return DiscourseLabel(relation, NUCLEUS_THEN_SATELLITE)
    if text.endswith("->"):
        relation = text[:-2]
        validate_label_text(relation)
        return DiscourseLabel(relation, SATELLITE_THEN_NUCLEUS)
    validate_label_text(text)
    if any(ch.islower() for ch in text):
        return DiscourseLabel(text, MULTI_NUCLEAR)
    return SyntacticLabel(text)


def check_renderable(label: Label) -> None:
    """Raise unless render() round-trips through parse_label()."""
    rendered = label.render()
    if parse_label(rendered) != label:
        raise InvariantError(
            f"label {label!r} renders as {rendered!r}, which reads back differently"
        )


def join_chain(labels) -> str:
    return CHAIN_SEPARATOR.join(lab.render() for lab in labels)


def parse_chain(chain: str):
    """Split a ``+``-joined label chain into label objects, outermost first."""
    if not chain:
        raise InvariantError("empty label chain")
    return [parse_label(part) for part in chain.split(CHAIN_SEPARATOR)]


def is_discourse_chain(chain: str) -> bool:
    labels = parse_chain(chain)
    return len(labels) == 1 and isinstance(labels[0], DiscourseLabel)


# ---------------------------------------------------------------------------
# traversal


def leaf_tokens(node: Node):
    """Tokens under a node, in order."""
    out = []
    stack = [node]
    while stack:
        nd = stack.pop()
        if isinstance(nd, Leaf):
            out.append(nd.token)
        else:
            stack.extend(reversed(nd.children))
    return out


def span_of(node: Node):
    """(start, end) token extent of a node, from its leaf token indices."""
    toks = leaf_tokens(node)
    return toks[0].index, toks[-1].index + 1


def validate_tree(tree: JointTree) -> None:
    """Check every JointTree invariant; raise InvariantError on the first hit."""
    if not tree.tokens:
        raise InvariantError("tree over zero tokens")
    for pos, tok in enumerate(tree.tokens):
        if tok.index != pos:
            raise InvariantError(f"token {tok!r} at position {pos}")
        if not tok.text or any(c.isspace() for c in tok.text):
            raise InvariantError(f"bad token text {tok.text!r}")

    seen = []
    stack = [(tree.root, False)]  # pre-order: the first hit in document order
    while stack:
        node, below_syntax = stack.pop()
        if isinstance(node, Leaf):
            seen.append(node.token)
            continue
        if not node.children:
            raise InvariantError("internal node with no children")
        label = node.label
        if isinstance(label, DiscourseLabel):
            if below_syntax:
                raise InvariantError(
                    f"discourse node {label.render()!r} below a constituency node"
                )
            if label.form not in FORMS:
                raise InvariantError(f"unknown nuclearity form {label.form!r}")
            if label.form == MULTI_NUCLEAR:
                if len(node.children) < 2:
                    raise InvariantError(
                        f"multi-nuclear node {label.relation!r} with "
                        f"{len(node.children)} children"
                    )
            elif len(node.children) != 2:
                raise InvariantError(
                    f"binary discourse node {label.render()!r} with "
                    f"{len(node.children)} children"
                )
        else:
            below_syntax = True
        check_renderable(label)
        stack.extend((child, below_syntax) for child in reversed(node.children))
    if [t.index for t in seen] != list(range(len(tree.tokens))):
        raise InvariantError("leaf sequence does not reproduce the token sequence")
    for got, expect in zip(seen, tree.tokens):
        if got.text != expect.text:
            raise InvariantError(f"leaf {got!r} does not match token {expect!r}")


# ---------------------------------------------------------------------------
# span extraction


def labeled_spans(tree: JointTree) -> set:
    """One LabeledSpan per internal node, with same-extent ancestor chains
    collapsed into a single ``+``-joined chain (outermost label first)."""
    chains = {}  # (start, end) -> [label, ...] in outermost-first order
    extents = []  # finished subtrees' (start, end), awaiting their parent
    stack = [(tree.root, False)]
    while stack:
        node, children_done = stack.pop()
        if isinstance(node, Leaf):
            extents.append((node.token.index, node.token.index + 1))
        elif not children_done:
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(node.children))
        else:
            first = len(extents) - len(node.children)
            start, end = None, None
            for cs, ce in extents[first:]:
                start = cs if start is None else start
                end = ce
            del extents[first:]
            # Children are recorded before their parent, so prepending keeps
            # the outermost label of a same-extent chain first.
            chains.setdefault((start, end), []).insert(0, node.label)
            extents.append((start, end))
    return {
        LabeledSpan(start, end, join_chain(labels))
        for (start, end), labels in chains.items()
    }


def extract_edus(tree: JointTree) -> list:
    """EDU spans: extents of the maximal constituency-rooted subtrees (the
    children of the lowest discourse layer), tiling the whole document."""
    spans = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if isinstance(node, Internal) and isinstance(node.label, DiscourseLabel):
            stack.extend(reversed(node.children))
        else:
            spans.append(EduSpan(*span_of(node)))
    return spans


def spans_tile(spans, n: int) -> bool:
    """True iff the spans tile [0, n) without gaps or overlap."""
    pos = 0
    for span in spans:
        if span.start != pos:
            return False
        pos = span.end
    return pos == n
