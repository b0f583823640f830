"""Merge discourse trees with constituency trees into joint trees.

The conversion has three steps: turn the discourse tree into a skeleton
whose leaves are EDU placeholders, align each EDU's text against the
constituency-tree tokens, then splice the covering constituency subtrees in
place of the EDU leaves.  Brackets that cross EDU boundaries do not survive;
when one EDU covers several maximal subtrees they are regrouped under a new
node labeled with their lowest common ancestor's category.  Every step walks
its trees with explicit stacks, so documents of any depth convert.
"""

from dataclasses import dataclass

from . import ptb
from .rst import SATELLITE, RstLeaf, RstTree, read_rst
from .trees import (
    MULTI_NUCLEAR,
    NUCLEUS_THEN_SATELLITE,
    SATELLITE_THEN_NUCLEUS,
    DiscourseLabel,
    EduSpan,
    Internal,
    JointTree,
    Leaf,
    SyntacticLabel,
    validate_tree,
)


class AlignmentError(ValueError):
    """EDU text cannot be matched against the constituency tokenization."""


@dataclass
class SkeletonLeaf:
    """An EDU placeholder in a skeleton, whose internal nodes are `Internal`
    nodes with discourse labels."""

    text: str


def convert_rst(rst: RstTree) -> SkeletonLeaf | Internal:
    """Relabel a discourse tree into a joint-tree skeleton.

    Binary nucleus/satellite nodes become directional relation labels with
    the arrow pointing from the satellite toward the nucleus; conjunctive
    nodes keep all their children under the bare relation name.
    """
    top = [None]
    stack = [(rst.root, top, 0)]  # node to copy, and the slot its copy fills
    while stack:
        node, slots, k = stack.pop()
        if isinstance(node, RstLeaf):
            slots[k] = SkeletonLeaf(node.text)
            continue
        kinds = [c.nuclearity for c in node.children]
        if SATELLITE in kinds:
            satellite = node.children[kinds.index(SATELLITE)]
            form = (
                SATELLITE_THEN_NUCLEUS
                if kinds[0] == SATELLITE
                else NUCLEUS_THEN_SATELLITE
            )
            label = DiscourseLabel(satellite.relation, form)
        else:
            label = DiscourseLabel(node.children[0].relation, MULTI_NUCLEAR)
        slots[k] = Internal(label, list(node.children))
        stack.extend((c, slots[k].children, i) for i, c in enumerate(node.children))
    return top[0]


# ---------------------------------------------------------------------------
# EDU alignment


def _normalize(word: str) -> str:
    return ptb.unescape_token(word)


def align_edus(edu_texts, tokens) -> list:
    """Match whitespace-split EDU texts against the token sequence.

    Matching is exact on bracket-unescaped strings.  Any mismatch means the
    two treebanks disagree on this document, which is dropped upstream.
    """
    spans = []
    pos = 0
    for index, text in enumerate(edu_texts):
        words = [_normalize(w) for w in text.split()]
        if not words:
            raise AlignmentError(f"EDU {index} has no tokens")
        start = pos
        for word in words:
            if pos >= len(tokens):
                raise AlignmentError(
                    f"EDU {index}: ran out of tokens while matching {word!r}"
                )
            if _normalize(tokens[pos].text) != word:
                raise AlignmentError(
                    f"EDU {index}: expected {word!r}, treebank has "
                    f"{tokens[pos].text!r} at token {pos}"
                )
            pos += 1
        spans.append(EduSpan(start, pos))
    if pos != len(tokens):
        raise AlignmentError(
            f"EDUs cover {pos} tokens but the treebank document has {len(tokens)}"
        )
    return spans


# ---------------------------------------------------------------------------
# splicing


def splice_edus(skeleton, ptb_trees) -> JointTree:
    """Replace each EDU leaf of the skeleton with its constituency content.

    An EDU matching a single maximal subtree keeps that subtree unchanged.
    An EDU covering several maximal subtrees gets a new cover node labeled
    with the category of their lowest common ancestor; whatever else that
    ancestor dominated lies outside the EDU and surfaces above the discourse
    node through its own EDU instead.
    """
    # Copy the skeleton, noting each EDU leaf's slot in document order.
    top = [None]
    edus = []  # (text, children list, index) per EDU leaf
    stack = [(skeleton, top, 0)]
    while stack:
        node, slots, k = stack.pop()
        if isinstance(node, SkeletonLeaf):
            edus.append((node.text, slots, k))
        else:
            copy = slots[k] = Internal(node.label, list(node.children))
            for i in reversed(range(len(copy.children))):
                stack.append((copy.children[i], copy.children, i))

    extent, tokens = _extents(ptb_trees)
    if [t.index for t in tokens] != list(range(len(tokens))):
        raise AlignmentError("constituency trees are not consecutively indexed")
    if not tokens:
        raise AlignmentError("no constituency tokens to splice")
    spans = align_edus([text for text, _, _ in edus], tokens)

    # Pre-order: a node inside one EDU is a maximal piece of it, since its
    # parent was not; a node reaching past its first token's EDU is split.
    # Spans tile the tokens, so a one-token leaf never reaches past.
    edu_of = [k for k, span in enumerate(spans) for _ in range(span.start, span.end)]
    pieces = [[] for _ in spans]
    owners = [None] * len(spans)
    for root in ptb_trees:
        # An EDU that starts before this tree does spans two trees.
        first = spans[edu_of[extent[id(root)][0]]]
        if first.start != extent[id(root)][0]:
            raise AlignmentError(
                f"EDU {first} crosses a sentence boundary; no common ancestor"
            )
        stack = [root]
        while stack:
            node = stack.pop()
            start, end = extent[id(node)]
            k = edu_of[start]
            if end <= spans[k].end:
                pieces[k].append(node)
                owners[k] = root
            else:
                stack.extend(reversed(node.children))

    for (_, slots, k), span, nodes, root in zip(edus, spans, pieces, owners):
        if len(nodes) == 1:
            slots[k] = nodes[0]
        else:
            lca = _lowest_common_ancestor(root, span, extent)
            slots[k] = Internal(SyntacticLabel(lca.label.name), nodes)
    tree = JointTree(tokens, top[0])
    validate_tree(tree)
    return tree


def _extents(roots):
    """Every node's (start, end) token extent, keyed by the node's id, from
    one post-order pass; and the trees' tokens in order."""
    extent = {}
    tokens = []
    stack = [(root, False) for root in reversed(roots)]
    while stack:
        node, children_done = stack.pop()
        if isinstance(node, Leaf):
            extent[id(node)] = (len(tokens), len(tokens) + 1)
            tokens.append(node.token)
        elif children_done:
            first, last = node.children[0], node.children[-1]
            extent[id(node)] = (extent[id(first)][0], extent[id(last)][1])
        else:
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(node.children))
    return extent, tokens


def _lowest_common_ancestor(root, span, extent):
    """The deepest node under `root` whose extent holds the whole span.  The
    span covers at least two maximal pieces, so no leaf holds it."""
    node = root
    while True:
        for child in node.children:
            start, end = extent[id(child)]
            if start <= span.start and span.end <= end:
                node = child
                break
        else:
            return node


# ---------------------------------------------------------------------------
# document pipeline and statistics


def convert_document(rst_text: str, ptb_text: str) -> JointTree:
    """Full conversion of one document from raw treebank texts."""
    skeleton = convert_rst(read_rst(rst_text))
    return splice_edus(skeleton, ptb.read_ptb(ptb_text))


@dataclass
class CorpusStats:
    trees: int
    tokens: int
    min_tokens: int | None
    max_tokens: int | None
    histogram: dict  # bucket start -> count
    bucket: int

    def to_dict(self):
        return {
            "trees": self.trees,
            "tokens": self.tokens,
            "min_tokens": self.min_tokens,
            "max_tokens": self.max_tokens,
            "bucket": self.bucket,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
        }


def corpus_stats(treebank, bucket: int = 100) -> CorpusStats:
    """Tree/token counts and a token-length histogram for a treebank."""
    lengths = [len(tree.tokens) for tree in treebank]
    histogram = {}
    for length in lengths:
        lo = (length // bucket) * bucket
        histogram[lo] = histogram.get(lo, 0) + 1
    return CorpusStats(
        trees=len(lengths),
        tokens=sum(lengths),
        min_tokens=min(lengths) if lengths else None,
        max_tokens=max(lengths) if lengths else None,
        histogram=histogram,
        bucket=bucket,
    )
