"""Seeded random joint trees for desk-scale testing and training runs.

The real source corpora are licensed, so tests and demos run on generated
documents instead: a random EDU segmentation, a random discourse tree over
the EDUs (with conjunctive nodes), and random constituency structure with
occasional unary chains inside each EDU.
"""

import random

from .trees import (
    MULTI_NUCLEAR,
    NUCLEUS_THEN_SATELLITE,
    SATELLITE_THEN_NUCLEUS,
    DiscourseLabel,
    Internal,
    JointTree,
    Leaf,
    SyntacticLabel,
    Token,
    validate_tree,
)

WORDS = (
    "the a its their markets bank plan rates debt trade deficit growth "
    "rose fell climbed slipped said offered was were has had been being "
    "announced completed rejected approved delayed new old major small "
    "federal foreign quarterly annual but and or while because after "
    "before against with without at in on to of for by investors analysts "
    "officials traders shares prices yesterday today sharply slightly"
).split()

SYNTACTIC_LABELS = ("S", "NP", "VP", "PP", "SBAR", "ADJP", "ADVP")
PRETERMINALS = ("NN", "NNS", "NNP", "DT", "JJ", "VB", "VBD", "IN", "CC", "RB")

BINARY_RELATIONS = (
    "Background",
    "Purpose",
    "Elaboration",
    "Condition",
    "Cause",
    "Attribution",
    "Evidence",
)

MULTINUCLEAR_RELATIONS = ("List", "Sequence", "Contrast", "Joint")

# Per-draw probabilities: a discourse node being multi-nuclear, a unary
# constituent above a node, and a preterminal above a single token.
P_MULTINUCLEAR = 0.3
P_UNARY = 0.15
P_PRETERMINAL = 0.7


def generate_synthetic(
    seed,
    max_tokens: int = 24,
    max_edus: int = 5,
    vocabulary=WORDS,
) -> JointTree:
    """One reproducible random joint tree; identical for identical arguments."""
    if max_tokens < 1:
        raise ValueError("max_tokens must be at least 1")
    if max_edus < 1:
        raise ValueError("max_edus must be at least 1")
    rng = random.Random(seed)
    n = rng.randint(1, max_tokens)
    tokens = [Token(i, rng.choice(vocabulary)) for i in range(n)]

    edu_count = rng.randint(1, min(max_edus, n))
    cuts = sorted(rng.sample(range(1, n), edu_count - 1)) if edu_count > 1 else []
    bounds = [0] + cuts + [n]
    edu_ranges = list(zip(bounds[:-1], bounds[1:]))

    def syntactic(start, end, force_node):
        width = end - start
        if width == 1:
            if force_node or rng.random() < P_PRETERMINAL:
                node = Internal(
                    SyntacticLabel(rng.choice(PRETERMINALS)), [Leaf(tokens[start])]
                )
            else:
                return Leaf(tokens[start])
        else:
            arity = rng.randint(2, min(3, width))
            inner = sorted(rng.sample(range(start + 1, end), arity - 1))
            edges = [start] + inner + [end]
            children = [
                syntactic(a, b, False) for a, b in zip(edges[:-1], edges[1:])
            ]
            node = Internal(SyntacticLabel(rng.choice(SYNTACTIC_LABELS)), children)
        while rng.random() < P_UNARY:
            node = Internal(SyntacticLabel(rng.choice(SYNTACTIC_LABELS)), [node])
        return node

    def discourse(lo, hi):
        count = hi - lo
        if count == 1:
            start, end = edu_ranges[lo]
            return syntactic(start, end, True)
        if count >= 2 and rng.random() < P_MULTINUCLEAR:
            arity = rng.randint(2, min(4, count))
            label = DiscourseLabel(rng.choice(MULTINUCLEAR_RELATIONS), MULTI_NUCLEAR)
        else:
            arity = 2
            form = rng.choice((SATELLITE_THEN_NUCLEUS, NUCLEUS_THEN_SATELLITE))
            label = DiscourseLabel(rng.choice(BINARY_RELATIONS), form)
        inner = sorted(rng.sample(range(lo + 1, hi), arity - 1))
        edges = [lo] + inner + [hi]
        children = [discourse(a, b) for a, b in zip(edges[:-1], edges[1:])]
        return Internal(label, children)

    tree = JointTree(tokens, discourse(0, edu_count))
    validate_tree(tree)
    return tree


def generate_treebank(seed, count: int, **kwargs) -> list:
    """A list of `count` trees; tree k depends only on (seed, k, size params)."""
    # String sub-seeds keep this reproducible across interpreter runs
    # (random.Random hashes str seeds deterministically, unlike tuples).
    return [generate_synthetic(f"{seed}/{k}", **kwargs) for k in range(count)]
