import sys

import pytest

from jointparse import serialize
from jointparse.trees import (
    MULTI_NUCLEAR,
    NUCLEUS_THEN_SATELLITE,
    SATELLITE_THEN_NUCLEUS,
    DiscourseLabel,
    InvariantError,
    Internal,
    JointTree,
    LabeledSpan,
    Leaf,
    SyntacticLabel,
    Token,
    extract_edus,
    is_discourse_chain,
    leaf_tokens,
    labeled_spans,
    parse_chain,
    parse_label,
    validate_tree,
)


def tok(i, text="w%d"):
    return Token(i, text % i if "%" in text else text)


def syn(name, *children):
    return Internal(SyntacticLabel(name), list(children))


def tree_over(root, n):
    return JointTree([Token(i, f"w{i}") for i in range(n)], root)


def leaves(*indices):
    return [Leaf(Token(i, f"w{i}")) for i in indices]


class TestLabels:
    def test_directional_rendering(self):
        right = DiscourseLabel("Background", SATELLITE_THEN_NUCLEUS)
        left = DiscourseLabel("Purpose", NUCLEUS_THEN_SATELLITE)
        assert right.render() == "Background->"
        assert left.render() == "<-Purpose"
        assert DiscourseLabel("List", MULTI_NUCLEAR).render() == "List"

    def test_parse_label_round_trip(self):
        for text in ("Background->", "<-Purpose", "List", "NP", "S", "-LRB-"):
            assert parse_label(text).render() == text

    def test_bare_names_split_by_case(self):
        assert isinstance(parse_label("NP"), SyntacticLabel)
        assert parse_label("List") == DiscourseLabel("List", MULTI_NUCLEAR)

    def test_chain_classification(self):
        assert is_discourse_chain("<-Purpose")
        assert is_discourse_chain("List")
        assert not is_discourse_chain("S+VP")
        assert not is_discourse_chain("NP")

    def test_reserved_characters_rejected(self):
        for bad in ("", "a b", "a(b", "a+b"):
            with pytest.raises(InvariantError):
                parse_label(bad)

    def test_parse_chain(self):
        labels = parse_chain("S+VP")
        assert [lab.name for lab in labels] == ["S", "VP"]


class TestLabeledSpans:
    def test_two_brackets(self):
        # [A [B x] y] over 2 tokens
        root = syn("A", syn("B", *leaves(0)), *leaves(1))
        spans = labeled_spans(tree_over(root, 2))
        assert spans == {LabeledSpan(0, 1, "B"), LabeledSpan(0, 2, "A")}

    def test_unary_chain_collapses(self):
        # [A [B x y]] with identical extent collapses to one chained span
        root = syn("A", syn("B", *leaves(0, 1)))
        spans = labeled_spans(tree_over(root, 2))
        assert spans == {LabeledSpan(0, 2, "A+B")}

    def test_laminar_family(self):
        from jointparse.synthetic import generate_synthetic

        for k in range(50):
            tree = generate_synthetic(f"laminar/{k}", max_tokens=14)
            spans = sorted(
                labeled_spans(tree), key=lambda s: (s.start, -s.end)
            )
            for a in spans:
                for b in spans:
                    nested = (
                        (a.start <= b.start and b.end <= a.end)
                        or (b.start <= a.start and a.end <= b.end)
                    )
                    disjoint = a.end <= b.start or b.end <= a.start
                    assert nested or disjoint


class TestExtractEdus:
    def test_purely_syntactic_tree(self):
        root = syn("S", *leaves(0, 1, 2, 3, 4))
        spans = extract_edus(tree_over(root, 5))
        assert [(s.start, s.end) for s in spans] == [(0, 5)]

    def test_discourse_over_syntax(self):
        label = DiscourseLabel("Purpose", SATELLITE_THEN_NUCLEUS)
        root = Internal(label, [syn("S", *leaves(0, 1)), syn("S", *leaves(2))])
        spans = extract_edus(tree_over(root, 3))
        assert [(s.start, s.end) for s in spans] == [(0, 2), (2, 3)]


class TestValidate:
    def test_layering_violation(self):
        inner = Internal(
            DiscourseLabel("List", MULTI_NUCLEAR), leaves(0, 1)
        )
        root = syn("S", inner, *leaves(2))
        with pytest.raises(InvariantError, match="below a constituency"):
            validate_tree(tree_over(root, 3))

    def test_binary_discourse_arity(self):
        label = DiscourseLabel("Purpose", SATELLITE_THEN_NUCLEUS)
        root = Internal(label, leaves(0, 1, 2))
        with pytest.raises(InvariantError, match="binary discourse"):
            validate_tree(tree_over(root, 3))

    def test_multinuclear_needs_two_children(self):
        label = DiscourseLabel("List", MULTI_NUCLEAR)
        root = Internal(label, [syn("S", *leaves(0, 1))])
        with pytest.raises(InvariantError, match="multi-nuclear"):
            validate_tree(tree_over(root, 2))

    def test_leaf_order_must_match(self):
        root = syn("S", *leaves(1, 0))
        with pytest.raises(InvariantError):
            validate_tree(tree_over(root, 2))

    def test_relation_needing_lowercase_is_unwritable(self):
        # An all-caps relation cannot be told apart from a constituency
        # label in the text format, so writing it must fail loudly.
        label = DiscourseLabel("LIST", MULTI_NUCLEAR)
        root = Internal(label, [syn("S", *leaves(0)), syn("S", *leaves(1))])
        with pytest.raises(ValueError):
            serialize.write_joint(tree_over(root, 2))


def test_walkers_on_deep_tree_at_default_recursion_limit():
    # 750 right-branching discourse nodes, each over a one-token EDU with a
    # unary chain, above a 750-deep right-branching constituency chain.
    depth = 750
    n = 2 * depth + 1
    elab = DiscourseLabel("Elaboration", NUCLEUS_THEN_SATELLITE)
    node = syn("NP", *leaves(n - 2, n - 1))
    for k in range(n - 3, depth - 1, -1):
        node = syn("NP", *leaves(k), node)
    for k in range(depth - 1, -1, -1):
        node = Internal(elab, [syn("S", syn("VP", *leaves(k))), node])
    tree = tree_over(node, n)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        validate_tree(tree)
        tokens = leaf_tokens(tree.root)
        spans = labeled_spans(tree)
        edus = extract_edus(tree)
    finally:
        sys.setrecursionlimit(limit)
    assert tokens == tree.tokens
    assert spans == (
        {LabeledSpan(k, n, "<-Elaboration") for k in range(depth)}
        | {LabeledSpan(k, k + 1, "S+VP") for k in range(depth)}
        | {LabeledSpan(k, n, "NP") for k in range(depth, n - 1)}
    )
    assert [(s.start, s.end) for s in edus] == (
        [(k, k + 1) for k in range(depth)] + [(depth, n)]
    )
