import pytest

from conftest import assert_same_tree, deep_tree
from jointparse import cli
from jointparse.convert import (
    AlignmentError,
    align_edus,
    convert_document,
    convert_rst,
    corpus_stats,
    splice_edus,
    SkeletonLeaf,
)
from jointparse.ptb import read_ptb
from jointparse.rst import read_rst
from jointparse.serialize import read_treebank, write_joint
from jointparse.synthetic import generate_synthetic
from jointparse.trees import (
    MULTI_NUCLEAR,
    NUCLEUS_THEN_SATELLITE,
    SATELLITE_THEN_NUCLEUS,
    DiscourseLabel,
    Internal,
    Token,
    extract_edus,
    leaf_tokens,
)


def skeleton_edus(skeleton):
    """The skeleton's EDU leaf texts, in document order."""
    texts = []
    stack = [skeleton]
    while stack:
        node = stack.pop()
        if isinstance(node, SkeletonLeaf):
            texts.append(node.text)
        else:
            stack.extend(reversed(node.children))
    return texts


class TestConvertRst:
    def test_fig1_skeleton(self, fig1_texts):
        skeleton = convert_rst(read_rst(fig1_texts[0]))
        assert isinstance(skeleton, Internal)
        assert skeleton.label.relation == "Background"
        assert skeleton.label.form == SATELLITE_THEN_NUCLEUS
        inner = skeleton.children[1]
        assert inner.label.relation == "Purpose"
        assert inner.label.form == NUCLEUS_THEN_SATELLITE
        edus = skeleton_edus(skeleton)
        assert len(edus) == 3
        assert edus[0].startswith("Costa Rica")
        assert edus[2].startswith("in order to")

    def test_fig2_skeleton_keeps_arity(self, fig2_texts):
        skeleton = convert_rst(read_rst(fig2_texts[0]))
        assert skeleton.label.relation == "Elaboration"
        assert skeleton.label.form == NUCLEUS_THEN_SATELLITE
        conj = skeleton.children[1]
        assert conj.label.form == MULTI_NUCLEAR
        assert conj.label.relation == "List"
        assert len(conj.children) == 3  # no binarization
        assert len(skeleton_edus(skeleton)) == 4

    def test_single_edu(self):
        skeleton = convert_rst(read_rst("( Root (leaf 1) (text _!just one!_))"))
        assert skeleton == SkeletonLeaf("just one")


class TestAlignment:
    def test_exact_alignment(self):
        tokens = [Token(i, w) for i, w in enumerate("a b c d".split())]
        spans = align_edus(["a b", "c d"], tokens)
        assert [(s.start, s.end) for s in spans] == [(0, 2), (2, 4)]

    def test_bracket_escape_alignment(self):
        tokens = [Token(0, "("), Token(1, "x"), Token(2, ")")]
        spans = align_edus(["-LRB- x -RRB-"], tokens)
        assert [(s.start, s.end) for s in spans] == [(0, 3)]

    def test_mismatch_raises(self):
        tokens = [Token(0, "a"), Token(1, "b")]
        with pytest.raises(AlignmentError, match="expected"):
            align_edus(["a c"], tokens)
        with pytest.raises(AlignmentError, match="cover 1 tokens"):
            align_edus(["a"], tokens)


class TestSplice:
    def test_fig1_exact(self, fig1_texts, fig1_expected):
        tree = convert_document(*fig1_texts)
        assert write_joint(tree) == fig1_expected

    def test_fig2_exact(self, fig2_texts, fig2_expected):
        tree = convert_document(*fig2_texts)
        assert write_joint(tree) == fig2_expected
        assert len(extract_edus(tree)) == 4  # 1 + the 3 conjunction members

    def test_fig1_discourse_spans(self, fig1_texts):
        from jointparse.trees import LabeledSpan, labeled_spans

        tree = convert_document(*fig1_texts)
        spans = labeled_spans(tree)
        assert LabeledSpan(0, 24, "Background->") in spans
        assert LabeledSpan(8, 24, "<-Purpose") in spans
        assert [(s.start, s.end) for s in extract_edus(tree)] == [
            (0, 8), (8, 16), (16, 24),
        ]

    def test_multi_subtree_edu_gets_lca_cover(self):
        # EDU C-D covers two maximal subtrees inside (A B C D); the cover
        # node reuses the ancestor label and B surfaces above it.
        skeleton = Internal(_purpose_right(), [SkeletonLeaf("B"), SkeletonLeaf("C D")])
        trees = read_ptb("(A B C D)")
        tree = splice_edus(skeleton, trees)
        assert write_joint(tree) == "(Purpose-> B (A C D))"

    def test_single_edu_document_is_unchanged_ptb(self):
        skeleton = SkeletonLeaf("a b c")
        trees = read_ptb("(S (NP a b) (VP c))")
        tree = splice_edus(skeleton, trees)
        assert tree.root == trees[0]
        assert [(s.start, s.end) for s in extract_edus(tree)] == [(0, 3)]

    def test_splice_is_inverse_of_edu_extraction(self):
        # Take a synthetic joint tree apart into its discourse skeleton and
        # its EDU constituency subtrees, splice them back together, and the
        # original tree (hence its segmentation) must reappear.
        def disassemble(node, parts):
            if isinstance(node, Internal) and isinstance(node.label, DiscourseLabel):
                children = [disassemble(c, parts) for c in node.children]
                return Internal(node.label, children)
            parts.append(node)
            return SkeletonLeaf(" ".join(t.text for t in leaf_tokens(node)))

        for k in range(40):
            tree = generate_synthetic(f"splice/{k}", max_tokens=16, max_edus=4)
            parts = []
            skeleton = disassemble(tree.root, parts)
            rebuilt = splice_edus(skeleton, parts)
            assert rebuilt == tree
            assert extract_edus(rebuilt) == extract_edus(tree)

    def test_edu_across_sentences_rejected(self):
        skeleton = Internal(_purpose_right(), [SkeletonLeaf("a b"), SkeletonLeaf("c")])
        trees = read_ptb("(S (X a)) (S (Y b) (Z c))")
        with pytest.raises(AlignmentError, match="sentence boundary"):
            splice_edus(skeleton, trees)

    def test_missing_material_rejected(self):
        skeleton = SkeletonLeaf("a b")
        with pytest.raises(AlignmentError):
            splice_edus(skeleton, [])


def _purpose_right():
    return DiscourseLabel("Purpose", SATELLITE_THEN_NUCLEUS)


class TestCorpusStats:
    def test_counts(self):
        trees = [generate_synthetic(f"stats/{k}", max_tokens=12) for k in range(5)]
        stats = corpus_stats(trees, bucket=10)
        assert stats.trees == 5
        assert stats.tokens == sum(len(t.tokens) for t in trees)
        assert stats.min_tokens == min(len(t.tokens) for t in trees)
        assert stats.max_tokens == max(len(t.tokens) for t in trees)
        assert sum(stats.histogram.values()) == 5

    def test_empty(self):
        stats = corpus_stats([])
        assert stats.trees == 0
        assert stats.tokens == 0
        assert stats.min_tokens is None
        assert stats.max_tokens is None
        assert stats.histogram == {}


def test_document_token_indices_are_consecutive(fig1_texts):
    tree = convert_document(*fig1_texts)
    assert [t.index for t in leaf_tokens(tree.root)] == list(range(24))


def deep_sources(depth):
    """The .dis and .mrg texts that `deep_tree(depth)` is merged from: one
    sentence per EDU, the discourse chain nested `depth` forms deep and the
    last sentence's NP chain about as deep again."""
    n = 2 * depth + 1
    last = " ".join(f"w{k}" for k in range(depth, n))
    dis = (
        "( Root "
        + "".join(
            f"(Nucleus (leaf {k + 1}) (rel2par span) (text _!w{k}!_)) "
            "(Satellite (rel2par Elaboration) "
            for k in range(depth)
        )
        + f"(text _!{last}!_)"
        + ")" * (depth + 1)
    )
    sentences = [f"( (S (VP w{k})) )" for k in range(depth)]
    chain = "".join(f"(NP w{k} " for k in range(depth, n - 2))
    sentences.append(f"( {chain}(NP w{n - 2} w{n - 1}){')' * (n - 2 - depth)} )")
    return dis, "\n".join(sentences)


def test_deep_document_converts_at_default_recursion_limit(default_recursion_limit):
    dis, mrg = deep_sources(1500)
    assert_same_tree(convert_document(dis, mrg), deep_tree(1500))


def test_cli_converts_deep_document_at_default_recursion_limit(
    default_recursion_limit, tmp_path, capsys
):
    dis, mrg = deep_sources(1500)
    for folder, name, text in (("rst", "doc.dis", dis), ("ptb", "doc.mrg", mrg)):
        (tmp_path / folder).mkdir()
        (tmp_path / folder / name).write_text(text, encoding="utf-8")
    out = tmp_path / "out.joint"
    code = cli.main([
        "convert", "--ptb", str(tmp_path / "ptb"), "--rst", str(tmp_path / "rst"),
        "--out", str(out),
    ])
    assert code == cli.EXIT_OK, capsys.readouterr().err
    [tree] = read_treebank(out)
    assert_same_tree(tree, deep_tree(1500))
