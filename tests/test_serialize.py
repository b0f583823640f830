import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointparse import serialize
from jointparse.serialize import (
    JointParseError,
    read_joint,
    read_segmentation,
    read_treebank,
    read_treebank_text,
    write_joint,
    write_segmentation,
    write_treebank,
)
from jointparse.synthetic import WORDS, generate_synthetic
from jointparse.trees import (
    MULTI_NUCLEAR,
    DiscourseLabel,
    EduSpan,
    Internal,
    check_renderable,
)


def test_fig1_round_trip(fig1_expected):
    tree = read_joint(fig1_expected)
    assert write_joint(tree) == fig1_expected
    assert tree.tokens[0].text == "Costa"
    assert tree.root.label.relation == "Background"


def test_empty_input_rejected():
    with pytest.raises(JointParseError, match="empty"):
        read_joint("")
    with pytest.raises(JointParseError, match="empty"):
        read_joint("   \n ")


def test_malformed_inputs_rejected():
    for bad in ("(S a", "(S a))", "(S)", "()", "word", "(S a) junk"):
        with pytest.raises(JointParseError):
            read_joint(bad)


def test_token_escapes():
    tree = read_joint("(S (-LRB- -LRB-) (NN x))")
    assert tree.tokens[0].text == "("
    assert write_joint(tree) == "(S (-LRB- -LRB-) (NN x))"


def test_multinuclear_round_trip():
    text = "(List (S a b) (S c) (S d e))"
    tree = read_joint(text)
    assert tree.root.label == DiscourseLabel("List", MULTI_NUCLEAR)
    assert write_joint(tree) == text


def test_random_round_trip_property():
    for k in range(1000):
        tree = generate_synthetic(f"roundtrip/{k}", max_tokens=18, max_edus=5)
        assert read_joint(write_joint(tree)) == tree


def test_treebank_file_round_trip(tmp_path):
    trees = [generate_synthetic(f"file/{k}", max_tokens=10) for k in range(7)]
    path = tmp_path / "trees.joint"
    write_treebank(trees, path)
    assert read_treebank(path) == trees


def test_treebank_file_checks_each_label_once(tmp_path, monkeypatch):
    trees = [generate_synthetic(f"labels/{k}", max_tokens=30) for k in range(12)]
    checked = []

    def counting_check(label):
        checked.append(label)
        return check_renderable(label)

    monkeypatch.setattr(serialize, "check_renderable", counting_check)
    path = tmp_path / "bank.joint"
    write_treebank(trees, path)
    written = path.read_bytes()
    assert len(checked) == len(set(checked))
    labels, stack = set(), [tree.root for tree in trees]
    while stack:
        node = stack.pop()
        if isinstance(node, Internal):
            labels.add(node.label)
            stack.extend(node.children)
    assert set(checked) == labels
    assert written == "".join(write_joint(t) + "\n\n" for t in trees).encode()


def test_treebank_error_names_the_document(tmp_path):
    good = [write_joint(generate_synthetic(f"bad/{k}", max_tokens=6)) for k in range(2)]
    path = tmp_path / "trees.joint"
    message = r"^document 3 \(line 7\): unbalanced '\('$"
    # Lines: 1 and 3 hold the good trees, 4 to 6 are empty or hold only
    # whitespace, 7 is the bad one.
    for gap in ("\n\n\n\n", "\n \n\t\n  \n"):
        path.write_text(f"{good[0]}\n\n{good[1]}{gap}(S (NP x)\n\n(S y)\n")
        with pytest.raises(JointParseError, match=message):
            read_treebank(path)


def test_treebank_limit_reads_a_prefix(tmp_path):
    trees = [generate_synthetic(f"limit/{k}", max_tokens=10) for k in range(5)]
    path = tmp_path / "trees.joint"
    write_treebank(trees, path)
    for limit in (1, len(trees), len(trees) + 5):
        assert read_treebank(path, limit) == read_treebank(path)[:limit]
    # Blocks after the prefix are not parsed.
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("(S (NP x)\n\n")
    assert read_treebank(path, len(trees)) == trees
    with pytest.raises(JointParseError, match=r"^document 6 \(line 11\)"):
        read_treebank(path, len(trees) + 1)


PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)
# Words that the format must write as bracket escapes (-LRB- and so on).
BRACKET_WORDS = ("(", ")", "{", "}", "[", "]")


@PROPERTY
@given(
    seed=st.integers(0, 10**6),
    max_tokens=st.integers(1, 80),
    max_edus=st.integers(1, 12),
    brackets=st.booleans(),
)
def test_round_trip_property(seed, max_tokens, max_edus, brackets):
    vocabulary = [*WORDS, *BRACKET_WORDS] if brackets else WORDS
    tree = generate_synthetic(seed, max_tokens, max_edus, vocabulary=vocabulary)
    assert read_joint(write_joint(tree)) == tree


@PROPERTY
@given(
    seeds=st.lists(st.integers(0, 10**6), min_size=1, max_size=6),
    separator=st.sampled_from(
        ["\n\n", "\n\n\n", " \n\n", "\n\n \n\n", "\n \n", "\n\t\n"]
    ),
)
def test_treebank_text_property(seeds, separator):
    blocks = [write_joint(generate_synthetic(seed, max_tokens=20)) for seed in seeds]
    text = separator.join(blocks) + separator
    assert read_treebank_text(text) == [read_joint(block) for block in blocks]


def test_segmentation_file_round_trip(tmp_path):
    docs = [
        [EduSpan(0, 3), EduSpan(3, 5)],
        [EduSpan(0, 1)],
    ]
    path = tmp_path / "edus.txt"
    write_segmentation(docs, path)
    assert read_segmentation(path) == docs


def test_segmentation_rejects_gaps(tmp_path):
    path = tmp_path / "edus.txt"
    path.write_text("0:3 4:5\n")
    with pytest.raises(JointParseError, match="tile"):
        read_segmentation(path)
