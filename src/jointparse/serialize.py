"""Text format for joint trees, treebank files, and EDU segmentation files.

A tree is one bracketed line: ``(Background-> (S (NP (NNP Costa) ...``.
Treebank files hold one tree per block of lines; lines that are empty or
hold only whitespace separate the blocks.  Segmentation files carry one
document per line as space-separated ``start:end`` ranges.
"""

from itertools import islice

from .ptb import escape_token, unescape_token
from .trees import (
    EduSpan,
    Internal,
    JointTree,
    Leaf,
    Token,
    check_renderable,
    parse_label,
    spans_tile,
)


class JointParseError(ValueError):
    pass


def write_joint(tree: JointTree, heads=None) -> str:
    """Render a joint tree as a single bracketed line.  `heads` caches each
    label's checked "(<label>" across calls, one per `write_treebank` file."""
    if isinstance(tree.root, Leaf):
        # A bare token has no bracketed form of its own.
        raise JointParseError("cannot serialize a tree whose root is a bare token")
    heads = {} if heads is None else heads
    parts = []  # joined by spaces; a closing bracket joins the part before it
    stack = [tree.root]  # nodes still to write, and their closing brackets
    while stack:
        item = stack.pop()
        if isinstance(item, Leaf):
            parts.append(escape_token(item.token.text))
        elif isinstance(item, Internal):
            head = heads.get(item.label)
            if head is None:
                check_renderable(item.label)
                head = heads[item.label] = f"({item.label.render()}"
            parts.append(head)
            stack.append(")" if item.children else " )")
            stack.extend(reversed(item.children))
        else:
            parts[-1] += item
    return " ".join(parts)


def read_joint(text: str) -> JointTree:
    """Parse one bracketed block back into a joint tree."""
    return _read_block(text, {})


def _read_block(text: str, labels: dict) -> JointTree:
    """`read_joint` with a label text -> label cache shared across blocks."""
    # A name runs to the next whitespace or bracket, so padding the brackets
    # with spaces and splitting on whitespace yields the pieces in order.
    pieces = text.replace("(", " ( ").replace(")", " ) ").split()
    if not pieces:
        raise JointParseError("empty input")
    if pieces[0] != "(":
        raise JointParseError("expected '(' at offset 0")
    tokens = []
    stack = []  # open constituents: (label text, label, children)
    pieces = iter(pieces)
    for piece in pieces:
        if piece == "(":
            name = next(pieces, ")")
            if name == "(" or name == ")":
                raise JointParseError("expected a name after '('")
            if name not in labels:
                try:
                    labels[name] = parse_label(name)
                except ValueError as exc:
                    raise JointParseError(str(exc)) from exc
            stack.append((name, labels[name], []))
        elif piece == ")":
            name, label, children = stack.pop()
            if not children:
                raise JointParseError(f"constituent {name!r} has no children")
            node = Internal(label, children)
            if not stack:
                break
            stack[-1][2].append(node)
        else:
            tokens.append(Token(len(tokens), unescape_token(piece)))
            stack[-1][2].append(Leaf(tokens[-1]))
    if stack:
        raise JointParseError("unbalanced '('")
    for piece in pieces:
        raise JointParseError(f"trailing material {piece!r} after the root")
    return JointTree(tokens, node)


# ---------------------------------------------------------------------------
# files


def write_treebank(trees, path) -> None:
    heads = {}
    with open(path, "w", encoding="utf-8") as handle:
        for tree in trees:
            handle.write(write_joint(tree, heads) + "\n\n")


def read_treebank(path, limit=None) -> list:
    """The trees of a treebank file, or of its first `limit` blocks; the
    blocks after those are not parsed, so they may be malformed."""
    with open(path, encoding="utf-8") as handle:
        return read_treebank_text(handle.read(), limit)


def read_treebank_text(text: str, limit=None) -> list:
    """The trees of a treebank text, or of its first `limit` blocks, whose
    later blocks are not parsed; an error names the document and its line."""
    trees = []
    labels = {}
    for line, block in islice(text_blocks(text), limit):
        try:
            trees.append(_read_block(block, labels))
        except JointParseError as exc:
            raise JointParseError(
                f"document {len(trees) + 1} (line {line}): {exc}"
            ) from exc
    return trees


def text_blocks(text: str):
    """(first line number, text) of each block of `text`: blocks are runs of
    lines, separated by lines that are empty or hold only whitespace."""
    lines = []
    for number, line in enumerate(text.split("\n"), 1):
        if line and not line.isspace():
            if not lines:
                first = number
            lines.append(line)
        elif lines:
            yield first, "\n".join(lines)
            lines = []
    if lines:
        yield first, "\n".join(lines)


def write_segmentation(documents, path) -> None:
    """One line per document: space-separated ``start:end`` EDU ranges."""
    with open(path, "w", encoding="utf-8") as handle:
        for spans in documents:
            handle.write(" ".join(f"{s.start}:{s.end}" for s in spans))
            handle.write("\n")


def read_segmentation(path) -> list:
    documents = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            spans = []
            for part in line.split():
                try:
                    start, end = part.split(":")
                    spans.append(EduSpan(int(start), int(end)))
                except ValueError as exc:
                    raise JointParseError(
                        f"bad EDU range {part!r} on line {lineno}"
                    ) from exc
            if not spans_tile(spans, spans[-1].end):
                raise JointParseError(f"EDU ranges on line {lineno} do not tile")
            documents.append(spans)
    return documents
