import os
import random

import pytest

from jointparse.transition import (
    COMBINE_ACTION,
    NO_LABEL_ACTION,
    SHIFT_ACTION,
    label_action,
)
from jointparse.trees import (
    FORMS,
    MULTI_NUCLEAR,
    DiscourseLabel,
    Internal,
    JointTree,
    SyntacticLabel,
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
