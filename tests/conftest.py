import os
import random
import sys

import pytest

from jointparse.transition import (
    COMBINE_ACTION,
    NO_LABEL_ACTION,
    SHIFT_ACTION,
    apply_action,
    axiom,
    label_action,
)
from jointparse.trees import (
    FORMS,
    MULTI_NUCLEAR,
    NUCLEUS_THEN_SATELLITE,
    DiscourseLabel,
    Internal,
    JointTree,
    Leaf,
    SyntacticLabel,
    Token,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

SYN_POOL = ("S", "NP", "VP", "PP", "ADJP", "X")
REL_POOL = ("Background", "Purpose", "Elaboration", "Cause", "List", "Sequence")


def perturb_labels(tree: JointTree, seed, rate=0.4) -> JointTree:
    """A same-shape copy of the tree with some labels randomly rewritten.

    Extents never change, so the result stays a well-formed tree; discourse
    direction flips and relation swaps exercise the nuclearity/relation
    levels of the scorers independently of the structure level.
    """
    rng = random.Random(seed)

    def copy(node):
        if isinstance(node, Internal):
            label = node.label
            if rng.random() < rate:
                if isinstance(label, SyntacticLabel):
                    label = SyntacticLabel(rng.choice(SYN_POOL))
                else:
                    forms = [
                        f
                        for f in FORMS
                        if f == MULTI_NUCLEAR or len(node.children) == 2
                    ]
                    label = DiscourseLabel(rng.choice(REL_POOL), rng.choice(forms))
            return Internal(label, [copy(c) for c in node.children])
        return node

    return JointTree(list(tree.tokens), copy(tree.root))


MNEMONICS = {"SH": SHIFT_ACTION, "CB": COMBINE_ACTION, "NL": NO_LABEL_ACTION}


def parse_actions(text):
    """Actions from the mnemonics that `format_actions` writes."""
    return [
        MNEMONICS[word] if word in MNEMONICS else label_action(word.removeprefix("L:"))
        for word in text.split()
    ]


def state_after(n, actions):
    """The parser state of an n-unit document after `actions`, or the
    mnemonics that spell them, each checked by `apply_action`."""
    if isinstance(actions, str):
        actions = parse_actions(actions)
    state = axiom(n)
    for action in actions:
        state = apply_action(state, action)
    return state


def fixture_text(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as handle:
        return handle.read()


@pytest.fixture
def fig1_texts():
    return fixture_text("fig1.dis"), fixture_text("fig1.mrg")


@pytest.fixture
def fig2_texts():
    return fixture_text("fig2.dis"), fixture_text("fig2.mrg")


@pytest.fixture
def fig1_expected():
    return fixture_text("fig1_expected.joint").strip()


@pytest.fixture
def fig2_expected():
    return fixture_text("fig2_expected.joint").strip()


@pytest.fixture
def default_recursion_limit():
    """Pin the interpreter's default recursion limit for the test, so code
    that recurses once per tree level fails on the deep trees below."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(limit)


def deep_tree(depth):
    """`depth` right-branching discourse nodes, each over a one-token EDU with
    a unary chain, above a `depth`-deep right-branching constituency chain:
    2 * depth + 1 tokens, nested about 2 * depth levels deep."""
    n = 2 * depth + 1
    tokens = [Token(i, f"w{i}") for i in range(n)]
    leaves = [Leaf(t) for t in tokens]
    elab = DiscourseLabel("Elaboration", NUCLEUS_THEN_SATELLITE)
    node = Internal(SyntacticLabel("NP"), leaves[n - 2 :])
    for k in range(n - 3, depth - 1, -1):
        node = Internal(SyntacticLabel("NP"), [leaves[k], node])
    for k in range(depth - 1, -1, -1):
        edu = Internal(SyntacticLabel("S"), [Internal(SyntacticLabel("VP"), [leaves[k]])])
        node = Internal(elab, [edu, node])
    return JointTree(tokens, node)


def assert_same_tree(got, expect):
    """`got == expect`, checked level by level: dataclass equality recurses
    once per level and would itself hit the recursion limit."""
    assert got.tokens == expect.tokens
    stack = [(got.root, expect.root)]
    while stack:
        a, b = stack.pop()
        if isinstance(b, Leaf):
            assert a == b
            continue
        assert isinstance(a, Internal) and a.label == b.label
        assert len(a.children) == len(b.children)
        stack.extend(zip(a.children, b.children))
