"""Seeded benchmark inputs: corpora, treebank sources, and a checkpoint.

Everything here is derived from the benchmark seed alone, so one seed always
yields the same files.  The seed chooses the words, segmentations and tree
shapes; token and EDU counts are pinned per document (`pinned_corpus`).
"""

import os
import random

import numpy as np

from jointparse import synthetic
from jointparse.model import ModelConfig, Vocabulary, init_parameters, save_checkpoint
from jointparse.ptb import escape_token
from jointparse.trees import (
    MULTI_NUCLEAR,
    SATELLITE_THEN_NUCLEUS,
    DiscourseLabel,
    Internal,
    extract_edus,
    leaf_tokens,
)


GOLDEN = (5 ** 0.5 - 1) / 2
SILVER = 2 ** 0.5 - 1


def pinned_corpus(seed, count, lengths, max_edus):
    """`count` synthetic trees with pinned sizes.

    Document k gets a token count and an EDU count from two low-discrepancy
    sequences, so every run of consecutive documents (a training prefix, a
    held-out set) covers the length range [lo, hi] and the EDU range evenly.
    Trees are drawn from generator sub-seeds in order until one lands within
    2.5% of the token target and about a sixth of the EDU target.  Pinned
    sizes keep the work per document the same from seed to seed: costs grow
    faster than linearly with length, and conversion cost follows the EDU
    count, so free draws would turn the seed into throughput noise.
    """
    lo, hi = lengths
    trees = []
    for k in range(count):
        target = lo + round((hi - lo) * ((k * GOLDEN) % 1.0))
        edus = 1 + round((min(max_edus, target) - 1) * ((k * SILVER) % 1.0))
        slack, edu_slack = target // 40, edus // 6
        attempt = 0
        while True:
            sub_seed = f"{seed}/corpus/{k}/{attempt}"
            attempt += 1
            # The generator draws the token count first: skipping sub-seeds
            # whose first draw misses saves building their trees.  The built
            # tree is checked regardless.
            if random.Random(sub_seed).randint(1, target + slack) < target - slack:
                continue
            tree = synthetic.generate_synthetic(
                sub_seed, max_tokens=target + slack, max_edus=max_edus
            )
            if (len(tree.tokens) >= target - slack
                    and abs(len(extract_edus(tree)) - edus) <= edu_slack):
                trees.append(tree)
                break
    return trees


# ---------------------------------------------------------------------------
# .dis / .mrg sources: the two annotations a joint tree is merged from


def _is_discourse(node):
    return isinstance(node, Internal) and isinstance(node.label, DiscourseLabel)


def _edu_parts(tree):
    """Maximal constituency subtrees (the EDU contents), in order."""
    parts = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if _is_discourse(node):
            stack.extend(reversed(node.children))
        else:
            parts.append(node)
    return parts


def _edu_count(node):
    if _is_discourse(node):
        return sum(_edu_count(c) for c in node.children)
    return 1


def render_dis(tree):
    """The discourse layer of a joint tree in the .dis layout."""
    next_leaf = [1]

    def walk(node, kind, relation):
        rel = "" if kind == "Root" else f" (rel2par {relation})"
        if not _is_discourse(node):
            k = next_leaf[0]
            next_leaf[0] += 1
            text = " ".join(t.text for t in leaf_tokens(node))
            return f"({kind} (leaf {k}){rel} (text _!{text}!_))"
        label = node.label
        first = next_leaf[0]
        span = f"(span {first} {first + _edu_count(node) - 1})"
        if label.form == MULTI_NUCLEAR:
            specs = [(c, "Nucleus", label.relation) for c in node.children]
        elif label.form == SATELLITE_THEN_NUCLEUS:
            specs = [
                (node.children[0], "Satellite", label.relation),
                (node.children[1], "Nucleus", "span"),
            ]
        else:
            specs = [
                (node.children[0], "Nucleus", "span"),
                (node.children[1], "Satellite", label.relation),
            ]
        inner = " ".join(walk(c, k, r) for c, k, r in specs)
        return f"({kind} {span}{rel} {inner})"

    return walk(tree.root, "Root", None)


def render_mrg(tree, rng):
    """The constituency layer as bracketed sentences of one to three EDUs.

    Multi-EDU sentences wrap their parts in an extra bracket, which the
    conversion must drop again because it spans discourse structure."""

    def render(node):
        if isinstance(node, Internal):
            inner = " ".join(render(c) for c in node.children)
            return f"({node.label.name} {inner})"
        return escape_token(node.token.text)

    parts = _edu_parts(tree)
    sentences = []
    pos = 0
    while pos < len(parts):
        width = min(rng.randint(1, 3), len(parts) - pos)
        group = parts[pos : pos + width]
        pos += width
        if len(group) == 1:
            sentences.append(f"( {render(group[0])} )")
        else:
            sentences.append(f"( (S {' '.join(render(p) for p in group)}) )")
    return "\n".join(sentences)


def write_sources(trees, rst_dir, ptb_dir, seed):
    """One docNNNNN.dis / docNNNNN.mrg pair per tree."""
    os.makedirs(rst_dir, exist_ok=True)
    os.makedirs(ptb_dir, exist_ok=True)
    rng = random.Random(f"{seed}/sentences")
    for k, tree in enumerate(trees):
        with open(os.path.join(rst_dir, f"doc{k:05d}.dis"), "w", encoding="utf-8") as f:
            f.write(render_dis(tree))
        with open(os.path.join(ptb_dir, f"doc{k:05d}.mrg"), "w", encoding="utf-8") as f:
            f.write(render_mrg(tree, rng))


# ---------------------------------------------------------------------------
# parse inputs


def write_tokens(trees, path):
    """Blank-line-separated documents of space-separated tokens."""
    with open(path, "w", encoding="utf-8") as handle:
        for tree in trees:
            handle.write(" ".join(t.text for t in tree.tokens))
            handle.write("\n\n")


def write_seeded_checkpoint(trees, dims, seed, path):
    """An untrained checkpoint whose vocabulary and label inventory come
    from `trees`: greedy decoding cost does not depend on the weights, since
    an n-token end-to-end derivation always takes 4n - 2 scored steps."""
    config = ModelConfig(*dims)
    vocab = Vocabulary.from_treebank(trees)
    params = init_parameters(vocab, config, np.random.default_rng(seed))
    save_checkpoint(path, params, vocab, config)
