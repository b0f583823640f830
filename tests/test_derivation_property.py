"""Property tests over whole derivations of synthetic documents.

The static oracle's derivation replays to the gold tree with n shifts,
n - 1 combines and one labeling action after each.  `replay` of the actions
that random choosers take in `derive` labels exactly `derive`'s spans.
Predictions built by `derive` with random choosers over the gold label
inventory score nested discourse metrics: every relation match is a
nuclearity match and every nuclearity match a structure match.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import state_after
from jointparse.evaluate import discourse_counts
from jointparse.synthetic import generate_synthetic
from jointparse.transition import (
    COMBINE,
    SHIFT,
    STRUCTURAL_ACTIONS,
    derive,
    dynamic_oracle,
    gold_index,
    is_terminal,
    reconstruct,
    replay,
    slot_action,
    static_oracle,
    unit_gold_map,
)
from jointparse.trees import is_discourse_chain

PROPERTY = settings(derandomize=True, max_examples=80, deadline=None)
DOCUMENTS = {
    "seed": st.integers(0, 10**6),
    "max_tokens": st.integers(1, 60),
    "max_edus": st.integers(1, 8),
}


@PROPERTY
@given(**DOCUMENTS)
def test_static_oracle_round_trip(seed, max_tokens, max_edus):
    tree = generate_synthetic(f"static/{seed}", max_tokens, max_edus)
    n = len(tree.tokens)
    actions = static_oracle(tree)
    assert is_terminal(state_after(n, actions))
    assert reconstruct(replay(n, actions), tree.tokens) == tree
    kinds = [action.kind for action in actions]
    assert kinds.count(SHIFT) == n
    assert kinds.count(COMBINE) == n - 1
    assert len(actions) == 2 * (2 * n - 1)


@PROPERTY
@given(n=st.integers(1, 60), seed=st.integers(0, 10**6))
def test_replay_returns_the_spans_that_derive_labels(n, seed):
    rng = random.Random(seed)
    chains = [None, "S", "NP", "<-Purpose", "List"]
    actions = []

    def structural(state, below, left, right, legal):
        pick = rng.choice([k for k in (0, 1) if legal[k]])
        actions.append(STRUCTURAL_ACTIONS[pick])
        return pick

    def label(state, left, mid, right, legal):
        pick = rng.choice([k for k in range(len(chains)) if legal[k]])
        actions.append(slot_action(chains, pick))
        return pick

    spans = derive(n, chains, structural, label)
    assert replay(n, actions) == spans


@PROPERTY
@given(**DOCUMENTS, follow=st.floats(0.0, 1.0),
       rng=st.randoms(use_true_random=False))
def test_discourse_metrics_nest(seed, max_tokens, max_edus, follow, rng):
    gold = generate_synthetic(f"nest/{seed}", max_tokens, max_edus)
    gold_map = unit_gold_map(gold)
    index = gold_index(gold_map)
    chains = [None, *sorted(set(gold_map.values()))]

    # With probability `follow` a chooser takes a gold-preserving action.
    # Otherwise it takes any legal one, except that a gold span gets a chain
    # of its own kind, so discourse spans often match in extent but not in
    # nuclearity or relation.
    def structural(state, below, left, right, legal):
        pool = [k for k in (0, 1) if legal[k]]
        if rng.random() < follow:
            best = dynamic_oracle(state, index)
            pool = [k for k in pool if STRUCTURAL_ACTIONS[k] in best]
        return rng.choice(pool)

    def label(state, left, mid, right, legal):
        gold_slot = chains.index(gold_map.get(state.top))
        if legal[gold_slot] and rng.random() < follow:
            return gold_slot
        pool = [k for k in range(len(chains)) if legal[k]]
        if gold_slot:
            kind = is_discourse_chain(chains[gold_slot])
            pool = [k for k in pool if k and is_discourse_chain(chains[k]) == kind]
        return rng.choice(pool)

    spans = derive(len(gold.tokens), chains, structural, label)
    pred = reconstruct(spans, gold.tokens)
    counts = discourse_counts(gold, pred)
    structure, nuclearity, relation = (
        counts[key] for key in ("structure", "nuclearity", "relation")
    )
    assert structure[0] >= nuclearity[0] >= relation[0]
    assert structure[1:] == nuclearity[1:] == relation[1:]
