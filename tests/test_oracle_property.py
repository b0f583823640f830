"""Property tests: the constant-time dynamic oracle equals its definition.

The definition is the argmax of `reachable_count` over the successors of a
structural state.  States come from walks that mix oracle and random
actions over synthetic documents (token units, and gold-EDU units with
discourse-only gold as training builds it) and over random span sets that
may cross.  On small documents the oracle also equals the exhaustive
`CompletionSearch` at every decision the driver hands to a chooser.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from jointparse.synthetic import generate_synthetic
from jointparse.transition import (
    STRUCTURAL_ACTIONS,
    apply_action,
    axiom,
    derive,
    dynamic_oracle,
    gold_index,
    is_terminal,
    label_action,
    legal_actions,
    reachable_count,
    slot_action,
    unit_gold_map,
)
from jointparse.trees import LabeledSpan, extract_edus, labeled_spans
from jointparse.verify import CompletionSearch

MAX_TOKENS = 60
PROPERTY = settings(derandomize=True, max_examples=80, deadline=None)


def reference_oracle(state, gold_map):
    scored = {
        action: reachable_count(apply_action(state, action), gold_map)
        for action in legal_actions(state)
    }
    best = max(scored.values())
    return {action for action, value in scored.items() if value == best}


def check_walk(n, gold_map, rng, follow):
    """Walk from the axiom, checking the oracle at every structural state;
    returns how many states were checked."""
    index = gold_index(gold_map)
    state, checked = axiom(n), 0
    while not is_terminal(state):
        if state.midpoint is None:
            expected = reference_oracle(state, gold_map)
            assert dynamic_oracle(state, index) == expected, state
            assert dynamic_oracle(state, gold_map) == expected, state
            checked += 1
            pool = expected if rng.random() < follow else legal_actions(state)
        else:
            pool = legal_actions(state, ("X",))
            chain = gold_map.get(state.top)
            if chain is not None and rng.random() < follow:
                pool = {label_action(chain)}
        state = apply_action(state, rng.choice(sorted(pool, key=str)))
    return checked


@PROPERTY
@given(
    seed=st.integers(0, 10**6),
    gold_edus=st.booleans(),
    follow=st.floats(0.0, 1.0),
    rng=st.randoms(use_true_random=False),
)
def test_matches_reference_on_synthetic_documents(seed, gold_edus, follow, rng):
    tree = generate_synthetic(f"oracle/{seed}", max_tokens=MAX_TOKENS, max_edus=8)
    edus = extract_edus(tree) if gold_edus else None
    units = len(edus) if gold_edus else len(tree.tokens)
    check_walk(units, unit_gold_map(tree, edus), rng, follow)


@PROPERTY
@given(
    seed=st.integers(0, 10**6),
    gold_edus=st.booleans(),
    follow=st.floats(0.0, 1.0),
    rng=st.randoms(use_true_random=False),
)
def test_matches_completion_search_on_small_documents(seed, gold_edus, follow, rng):
    # At most six units: six tokens, or six EDUs over longer documents.
    if gold_edus:
        tree = generate_synthetic(f"search/{seed}", max_tokens=14, max_edus=6)
        edus = extract_edus(tree)
    else:
        tree = generate_synthetic(f"search/{seed}", max_tokens=6)
        edus = None
    gold_map = unit_gold_map(tree, edus)
    chains = sorted(set(gold_map.values()) | {"S", "<-Purpose"})
    inventory = [None, *chains]
    search = CompletionSearch(gold_map, chains, gold_edus)
    index = gold_index(gold_map)
    checked = []

    def choose(state, legal, actions):
        expected = search.best_actions(state)
        assert dynamic_oracle(state, index) == expected, state
        checked.append(state)
        pool = [k for k, a in enumerate(actions) if legal[k]]
        if rng.random() < follow:
            pool = [k for k in pool if actions[k] in expected]
        return rng.choice(pool)

    def structural(state, below, left, right, legal):
        return choose(state, legal, STRUCTURAL_ACTIONS)

    def label(state, left, mid, right, legal):
        actions = [slot_action(inventory, k) for k in range(len(inventory))]
        return choose(state, legal, actions)

    derive(len(tree.tokens), inventory, structural, label, edus)
    assert checked


@st.composite
def span_sets(draw):
    """A document length and a random, possibly crossing, gold span set."""
    n = draw(st.integers(1, MAX_TOKENS))
    pairs = draw(st.lists(st.tuples(st.integers(0, n), st.integers(0, n)),
                          max_size=2 * n))
    spans = {
        LabeledSpan(min(a, b), max(a, b), draw(st.sampled_from("AB")))
        for a, b in pairs
        if a != b
    }
    if draw(st.booleans()):
        spans.add(LabeledSpan(0, n, "A"))
    return n, spans


@PROPERTY
@given(doc=span_sets(), follow=st.floats(0.0, 1.0),
       rng=st.randoms(use_true_random=False))
def test_matches_reference_on_crossing_span_sets(doc, follow, rng):
    n, spans = doc
    gold_map = {(s.start, s.end): s.chain for s in spans}
    check_walk(n, gold_map, rng, follow)


def test_walks_reach_long_documents():
    # Hypothesis favours small examples; pin one near the size bound too.
    trees = (generate_synthetic(f"long/{k}", max_tokens=MAX_TOKENS) for k in range(200))
    tree = next(t for t in trees if len(t.tokens) >= MAX_TOKENS - 5)
    gold_map = {(s.start, s.end): s.chain for s in labeled_spans(tree)}
    n = len(tree.tokens)
    assert check_walk(n, gold_map, random.Random(3), 0.5) == 2 * n - 1
