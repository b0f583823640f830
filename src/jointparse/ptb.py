"""Reader for bracketed constituency trees in the Penn Treebank style.

Trees are s-expressions ``(LABEL child ...)`` whose atoms are tokens.
Functional tags and coindices on labels (``NP-SBJ-1``, ``WHNP=2``) are
stripped, and trace subtrees (``-NONE-`` preterminals) are removed, since
neither survives into joint trees.  Bracket escapes (``-LRB-`` etc.) are
unescaped into the token text.
"""

import re

from .trees import Internal, Leaf, SyntacticLabel, Token

BRACKET_ESCAPES = {
    "-LRB-": "(",
    "-RRB-": ")",
    "-LCB-": "{",
    "-RCB-": "}",
    "-LSB-": "[",
    "-RSB-": "]",
}

_PLAIN_TO_ESCAPE = {plain: escape for escape, plain in BRACKET_ESCAPES.items()}

TRACE_LABEL = "-NONE-"

_TOKEN_RE = re.compile(r"\(|\)|[^()\s]+")


class PtbParseError(ValueError):
    def __init__(self, message, line, column):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


def _lex(text):
    """Yield (value, line, column) for parens and atoms."""
    line = 1
    line_start = 0
    for match in _TOKEN_RE.finditer(text):
        newlines = text.count("\n", line_start, match.start())
        if newlines:
            line += newlines
            line_start = text.rfind("\n", line_start, match.start()) + 1
        yield match.group(), line, match.start() - line_start + 1


def unescape_token(text: str) -> str:
    return BRACKET_ESCAPES.get(text, text)


def escape_token(text: str) -> str:
    return _PLAIN_TO_ESCAPE.get(text, text)


def strip_label(raw: str) -> str:
    """Drop functional tags and coindices: ``NP-SBJ-1`` -> ``NP``.

    Labels that start with ``-`` (``-LRB-``, ``-NONE-``) are punctuation or
    trace tags and pass through unchanged.
    """
    if raw.startswith("-"):
        return raw
    return re.split(r"[-=]", raw, maxsplit=1)[0]


def read_ptb(text: str):
    """Parse every tree in ``text`` into constituency nodes over Tokens.

    Token indices run consecutively across all trees, so a multi-sentence
    document gets one shared token numbering.  Atoms inside a trace form
    take no index, since the form is removed.  Returns a list of root nodes.
    """
    count = 0  # tokens indexed so far
    traces = 0  # open -NONE- forms
    trees = []
    stack = []  # [(label, children, line, col), ...]

    for value, line, col in _lex(text):
        if value == "(":
            stack.append([None, [], line, col])
        elif value == ")":
            if not stack:
                raise PtbParseError("unbalanced ')'", line, col)
            label, children, oline, ocol = stack.pop()
            traces -= label == TRACE_LABEL
            node = _close(label, children, oline, ocol)
            if stack:
                stack[-1][1].append(node)
            elif node is not None:
                trees.append(node)
        else:
            if not stack:
                raise PtbParseError(f"stray token {value!r}", line, col)
            if stack[-1][0] is None and not stack[-1][1]:
                stack[-1][0] = value
                traces += value == TRACE_LABEL
            else:
                stack[-1][1].append(Leaf(Token(count, unescape_token(value))))
                count += not traces

    if stack:
        raise PtbParseError("unbalanced '('", stack[-1][2], stack[-1][3])
    return trees


def _close(label, children, line, col):
    had_children = bool(children)
    children = [c for c in children if c is not None]
    if label is None:
        # A label-less wrapper: PTB files wrap each sentence as "( (S ...) )".
        if len(children) == 1:
            return children[0]
        raise PtbParseError(
            f"label-less constituent with {len(children)} children", line, col
        )
    label = strip_label(label)
    if label == TRACE_LABEL:
        return None  # trace subtree, removed along with its pseudo-token
    if not children:
        if had_children:
            return None  # all children were traces; prune the projection too
        raise PtbParseError(f"empty constituent ({label})", line, col)
    return Internal(SyntacticLabel(label), children)

