import dataclasses
import itertools
import random

import numpy as np
import pytest

from conftest import parse_actions, state_after
from jointparse import transition, trees
from jointparse.synthetic import generate_synthetic
from jointparse.transition import (
    COMBINE_ACTION,
    NO_LABEL_ACTION,
    SHIFT_ACTION,
    ParserState,
    TransitionError,
    apply_action,
    best_structural,
    axiom,
    derive,
    dynamic_oracle,
    format_actions,
    is_root_span,
    is_terminal,
    label_action,
    label_slots,
    legal_actions,
    legal_mask,
    parse_greedy,
    reachable_count,
    reconstruct,
    replay,
    static_oracle,
    unit_gold_map,
)
from jointparse.trees import (
    EDU_PLACEHOLDER,
    EduSpan,
    JointTree,
    LabeledSpan,
    Leaf,
    Token,
    extract_edus,
    is_discourse_chain,
    labeled_spans,
)

CHAINS = ("A", "S", "NP", "<-Purpose", "List")


def check_state(state):
    """The state invariants: boundaries strictly increase from (-1, 0) up to
    at most n, and a midpoint lies inside the top span, or on the left
    boundary of a shifted width-1 span."""
    b = state.boundaries
    assert b[:2] == (-1, 0) and list(b) == sorted(set(b)) and b[-1] <= state.n
    if state.midpoint is not None:
        i, j = state.top
        assert i < state.midpoint < j or (state.midpoint == i and j == i + 1)


class TestPhases:
    def test_axiom_is_structural(self):
        assert axiom(3).midpoint is None

    def test_shift_enters_label_phase(self):
        state = apply_action(axiom(3), SHIFT_ACTION)
        assert state.boundaries == (-1, 0, 1)
        assert state.midpoint == 0  # degenerate split of a width-1 span

    def test_nolabel_returns_to_structural(self):
        state = state_after(3, "SH NL")
        assert state.midpoint is None

    def test_alternation_along_random_walks(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(1, 6)
            state = axiom(n)
            structural = True
            while not is_terminal(state):
                assert (state.midpoint is None) == structural
                action = rng.choice(sorted(
                    legal_actions(state, CHAINS),
                    key=lambda a: (a.kind, a.chain or ""),
                ))
                state = apply_action(state, action)
                check_state(state)
                structural = not structural


class TestLegalActions:
    def test_axiom_shift_only(self):
        assert legal_actions(axiom(3)) == {SHIFT_ACTION}

    def test_combine_only_when_frontier_exhausted(self):
        state = state_after(2, "SH NL SH NL")
        assert state.boundaries == (-1, 0, 1, 2)
        assert legal_actions(state) == {COMBINE_ACTION}

    def test_root_span_excludes_nolabel(self):
        state = state_after(2, "SH NL SH NL CB")
        assert state.boundaries == (-1, 0, 2)
        assert state.midpoint == 1
        actions = legal_actions(state, CHAINS)
        assert NO_LABEL_ACTION not in actions
        assert actions == {label_action(c) for c in CHAINS}

    def test_nolabel_legal_off_root(self):
        state = apply_action(axiom(2), SHIFT_ACTION)
        assert NO_LABEL_ACTION in legal_actions(state, CHAINS)

    def test_terminal_state_raises(self):
        state = state_after(1, "SH L:A")
        assert is_terminal(state)
        with pytest.raises(TransitionError):
            legal_actions(state)
        with pytest.raises(TransitionError):
            apply_action(state, SHIFT_ACTION)

    def test_gold_edu_mode_opens_discourse_chains_only(self):
        below_root = state_after(3, "SH NL SH NL CB")
        assert legal_actions(below_root, CHAINS, gold_edus=True) == {
            NO_LABEL_ACTION, label_action("<-Purpose"), label_action("List"),
        }
        root = state_after(2, "SH NL SH NL CB")
        assert legal_actions(root, CHAINS, gold_edus=True) == {
            label_action("<-Purpose"), label_action("List"),
        }

    def test_mask_matches_action_set(self):
        # legal_mask and legal_actions are one rule in two shapes.
        inventory = [None, *CHAINS]
        slots = label_slots(inventory, gold_edus=True)
        assert slots.tolist() == [True, False, False, False, True, True]
        state = state_after(3, "SH NL SH NL")
        assert legal_mask(state, slots) == (True, True)
        state = apply_action(state, COMBINE_ACTION)
        mask = legal_mask(state, slots)
        assert mask.tolist() == slots.tolist() and mask is not slots
        root = state_after(2, "SH NL SH NL CB")
        assert legal_mask(root, slots).tolist() == [False] + slots.tolist()[1:]

    def test_gold_edu_derivations_parse_each_chain_once(self, monkeypatch):
        # The slots depend on the inventory alone, so a second document's
        # derivation parses no chain again.
        parsed = []
        original = trees.parse_chain

        def counting(chain):
            parsed.append(chain)
            return original(chain)

        monkeypatch.setattr(trees, "parse_chain", counting)
        is_discourse_chain.cache_clear()
        edus = [EduSpan(0, 2), EduSpan(2, 3)]
        for _ in range(2):
            choosers = RecordingChoosers()
            derive(3, [None, *CHAINS], choosers.structural, choosers.label, edus)
        assert sorted(parsed) == sorted(CHAINS)


class TestApply:
    def test_shift(self):
        state = apply_action(axiom(3), SHIFT_ACTION)
        assert (state.boundaries, state.midpoint) == ((-1, 0, 1), 0)

    def test_combine_keeps_branch_point(self):
        state = state_after(2, "SH NL SH NL")
        state = apply_action(state, COMBINE_ACTION)
        assert (state.boundaries, state.midpoint) == ((-1, 0, 2), 1)

    def test_label_records_span_and_clears_midpoint(self):
        state = state_after(2, "SH NL SH NL CB")
        state = apply_action(state, label_action("S"))
        assert state.midpoint is None
        assert LabeledSpan(0, 2, "S") in replay(2, parse_actions("SH NL SH NL CB L:S"))
        assert is_terminal(state)

    def test_illegal_actions_raise(self):
        with pytest.raises(TransitionError):
            apply_action(axiom(2), COMBINE_ACTION)
        labeling = apply_action(axiom(2), SHIFT_ACTION)
        with pytest.raises(TransitionError):
            apply_action(labeling, SHIFT_ACTION)
        root = state_after(2, "SH NL SH NL CB")
        with pytest.raises(TransitionError):
            apply_action(root, NO_LABEL_ACTION)
        for chainless in (label_action(None), label_action("")):
            with pytest.raises(TransitionError):
                apply_action(root, chainless)
        with pytest.raises(TransitionError):
            apply_action(axiom(2), label_action("S"))


class TestStaticOracle:
    def test_single_binary_bracket(self):
        tree = reconstruct({LabeledSpan(0, 2, "A")}, ["x", "y"])
        actions = static_oracle(tree)
        assert format_actions(actions) == "SH NL SH NL CB L:A"

    def test_multinuclear_merges_left_to_right(self):
        spans = {
            LabeledSpan(0, 3, "List"),
            LabeledSpan(0, 1, "S"),
            LabeledSpan(1, 2, "S"),
            LabeledSpan(2, 3, "S"),
        }
        tree = reconstruct(spans, ["a", "b", "c"])
        actions = static_oracle(tree)
        assert format_actions(actions) == (
            "SH L:S SH L:S CB NL SH L:S CB L:List"
        )

    def test_round_trip_on_synthetic_trees(self):
        for k in range(60):
            tree = generate_synthetic(f"oracle/{k}", max_tokens=16, max_edus=5)
            actions = static_oracle(tree)
            assert is_terminal(state_after(len(tree.tokens), actions))
            spans = replay(len(tree.tokens), actions)
            assert reconstruct(spans, tree.tokens) == tree

    def test_leaf_root_raises(self):
        token = Token(0, "x")
        with pytest.raises(TransitionError, match="labeled root"):
            static_oracle(JointTree([token], Leaf(token)))

    def test_gold_labels_must_pass_the_legal_mask(self, monkeypatch):
        # The gold path goes through `derive`, so a label slot that
        # `legal_mask` closes is an error rather than a silent action.
        tree = reconstruct({LabeledSpan(0, 2, "A")}, ["x", "y"])
        open_mask = transition.legal_mask

        def no_labels(state, slots):
            legal = open_mask(state, slots)
            return legal if state.midpoint is None else np.zeros_like(legal)

        monkeypatch.setattr(transition, "legal_mask", no_labels)
        with pytest.raises(TransitionError, match="illegal"):
            static_oracle(tree)

    def test_counts(self):
        tree = generate_synthetic("counts", max_tokens=12)
        n = len(tree.tokens)
        actions = static_oracle(tree)
        kinds = [a.kind for a in actions]
        assert kinds.count("shift") == n
        assert kinds.count("combine") == n - 1
        assert len(actions) == 2 * (2 * n - 1)


class TestReachableCount:
    def test_axiom_sees_everything(self):
        tree = generate_synthetic("reach", max_tokens=10)
        gold = labeled_spans(tree)
        assert reachable_count(axiom(len(tree.tokens)), gold) == len(gold)

    def test_dropped_boundary_kills_span(self):
        state = state_after(5, "SH NL SH NL SH NL CB NL")
        assert state.boundaries == (-1, 0, 1, 3)
        gold = {LabeledSpan(2, 4, "NP")}
        assert reachable_count(state, gold) == 0

    def test_labeled_spans_not_recounted(self):
        state = state_after(2, "SH L:A")
        gold = {LabeledSpan(0, 1, "A"), LabeledSpan(0, 2, "S")}
        assert reachable_count(state, gold) == 1


class TestDynamicOracle:
    def test_label_phase_returns_gold_chain(self):
        state = state_after(2, "SH NL SH NL CB")
        gold = {LabeledSpan(0, 2, "S+VP")}
        assert dynamic_oracle(state, gold) == {label_action("S+VP")}

    def test_label_phase_nolabel_when_not_gold(self):
        state = apply_action(axiom(2), SHIFT_ACTION)
        gold = {LabeledSpan(0, 2, "S")}
        assert dynamic_oracle(state, gold) == {NO_LABEL_ACTION}

    def test_prefers_completing_a_gold_span(self):
        state = state_after(3, "SH NL SH NL")
        gold = {LabeledSpan(0, 2, "A"), LabeledSpan(0, 3, "S")}
        assert dynamic_oracle(state, gold) == {COMBINE_ACTION}

    def test_following_oracle_recovers_gold_exactly(self):
        rng = random.Random(5)
        for k in range(40):
            tree = generate_synthetic(f"follow/{k}", max_tokens=10, max_edus=4)
            gold = labeled_spans(tree)
            state = axiom(len(tree.tokens))
            actions = []
            while not is_terminal(state):
                choice = sorted(
                    dynamic_oracle(state, gold),
                    key=lambda a: (a.kind, a.chain or ""),
                )
                actions.append(rng.choice(choice))
                state = apply_action(state, actions[-1])
            assert replay(len(tree.tokens), actions) == gold


class TestReconstruct:
    def test_single_span(self):
        tree = reconstruct({LabeledSpan(0, 2, "A")}, ["x", "y"])
        assert len(tree.tokens) == 2
        assert tree.root.label.name == "A"

    def test_nested_spans(self):
        tree = reconstruct(
            {LabeledSpan(0, 1, "B"), LabeledSpan(0, 2, "A")}, ["x", "y"]
        )
        assert tree.root.label.name == "A"
        assert tree.root.children[0].label.name == "B"

    def test_chain_expansion(self):
        tree = reconstruct({LabeledSpan(0, 2, "A+B")}, ["x", "y"])
        assert tree.root.label.name == "A"
        assert tree.root.children[0].label.name == "B"
        assert labeled_spans(tree) == {LabeledSpan(0, 2, "A+B")}

    def test_crossing_spans_rejected(self):
        spans = {
            LabeledSpan(0, 3, "S"),
            LabeledSpan(0, 2, "A"),
            LabeledSpan(1, 3, "B"),
        }
        with pytest.raises(TransitionError, match="cross"):
            reconstruct(spans, ["x", "y", "z"])

    def test_missing_root_rejected(self):
        with pytest.raises(TransitionError, match="root"):
            reconstruct({LabeledSpan(0, 1, "A")}, ["x", "y"])

    def test_deep_nesting_at_default_recursion_limit(self, default_recursion_limit):
        depth = 1500
        spans = {LabeledSpan(k, depth, "S") for k in range(depth - 1)}
        tree = reconstruct(spans, ["w"] * depth)
        node = tree.root
        for k in range(depth - 2):
            assert node.label.name == "S"
            assert node.children[0] == Leaf(tree.tokens[k])
            node = node.children[1]
        assert node.children == [Leaf(tree.tokens[-2]), Leaf(tree.tokens[-1])]


class CountingScorer:
    """Deterministic pseudo-random scores; counts structural calls and the
    label sites scored."""

    def __init__(self, chains, seed=0):
        self.chains = list(chains)
        self.seed = seed
        self.structural_calls = 0
        self.label_sites = 0

    def prepare(self, documents, bounds):
        self.lengths = [len(words) for words in documents]

    def select(self, k):
        self.n = self.lengths[k]

    def _noise(self, *key):
        return np.random.default_rng(hash((self.seed,) + key) % 2**32).normal()

    def structural(self, below, left, right):
        self.structural_calls += 1
        return np.array(
            [self._noise("s", below, left, right), self._noise("c", below, left, right)]
        )

    def labels(self, left, mid, right):
        self.label_sites += len(left)
        return np.array([
            np.random.default_rng(hash(("l", *site)) % 2**32).normal(
                size=len(self.chains) + 1
            )
            for site in zip(left, mid, right)
        ])

    def inventory(self):
        return [None] + self.chains


class TestParseGreedy:
    def test_end_to_end_counts_and_validity(self):
        for n in (1, 2, 5, 9):
            scorer = CountingScorer(["S", "NP", "<-Purpose"])
            tree = parse_greedy(scorer, [f"w{i}" for i in range(n)])
            assert len(tree.tokens) == n
            assert scorer.structural_calls == 2 * n - 1
            assert scorer.label_sites == 2 * n - 1
            spans = labeled_spans(tree)
            assert any((s.start, s.end) == (0, n) for s in spans)

    def test_gold_edu_mode_counts_and_placeholders(self):
        words = [f"w{i}" for i in range(8)]
        edus = [EduSpan(0, 3), EduSpan(3, 4), EduSpan(4, 8)]
        scorer = CountingScorer(["S", "NP", "<-Purpose", "List"])
        tree = parse_greedy(scorer, words, edu_spans=edus)
        m = len(edus)
        assert scorer.structural_calls == 2 * m - 1
        assert scorer.label_sites == m - 1  # label decisions follow combines only
        assert [(s.start, s.end) for s in extract_edus(tree)] == [
            (0, 3), (3, 4), (4, 8),
        ]
        for span in labeled_spans(tree):
            if span.chain == EDU_PLACEHOLDER:
                continue
            assert is_discourse_chain(span.chain)

    def test_gold_edu_single_unit(self):
        scorer = CountingScorer(["<-Purpose"])
        tree = parse_greedy(scorer, ["a", "b"], edu_spans=[EduSpan(0, 2)])
        assert labeled_spans(tree) == {LabeledSpan(0, 2, EDU_PLACEHOLDER)}

    def test_gold_edu_rejects_bad_tiling(self):
        scorer = CountingScorer(["<-Purpose"])
        with pytest.raises(TransitionError, match="tile"):
            parse_greedy(scorer, ["a", "b", "c"], edu_spans=[EduSpan(0, 2)])

    def test_scorer_inventory_mismatch_rejected(self):
        class ShortScorer(CountingScorer):
            def labels(self, left, mid, right):
                return np.zeros((len(left), 2))  # too few scores for the inventory

        scorer = ShortScorer(["S", "NP", "VP"])
        with pytest.raises(TransitionError, match="label scores"):
            parse_greedy(scorer, ["a", "b"])

    @pytest.mark.parametrize("head", ["structural", "labels"])
    def test_nan_scores_rejected(self, head):
        class NanScorer(CountingScorer):
            def structural(self, below, left, right):
                scores = super().structural(below, left, right)
                return scores * np.nan if head == "structural" else scores

            def labels(self, left, mid, right):
                scores = super().labels(left, mid, right)
                return scores * np.nan if head == "labels" else scores

        with pytest.raises(TransitionError, match="finite"):
            parse_greedy(NanScorer(["S", "NP"]), ["a", "b", "c"])


@pytest.mark.parametrize("legal", [(True, False), (False, True), (True, True)])
def test_structural_pick_matches_masked_argmax(legal):
    # The float comparison picks what an argmax over the masked pair picks,
    # shift on a tie, and raises where that pick is not finite (NaN first).
    values = [-np.inf, -1.0, 0.0, 2.5, np.inf, np.nan]
    for shift, combine in itertools.product(values, repeat=2):
        masked = np.where(legal, [shift, combine], -np.inf)
        want = int(np.argmax(masked))
        if np.isfinite(masked[want]):
            assert best_structural(shift, combine, legal) == want
        else:
            with pytest.raises(TransitionError, match="finite"):
                best_structural(shift, combine, legal)


class RecordingChoosers:
    """Choosers that take a fixed preference among the legal slots and
    record every call's arguments."""

    def __init__(self, structural_order=(0, 1), label_order=None):
        self.structural_order = structural_order
        self.label_order = label_order
        self.structural_calls = []
        self.label_calls = []

    def structural(self, state, below, left, right, legal):
        self.structural_calls.append((state, (below, left, right), legal))
        return next(k for k in self.structural_order if legal[k])

    def label(self, state, left, mid, right, legal):
        self.label_calls.append((state, (left, mid, right), legal.copy()))
        order = self.label_order or range(len(legal))
        return next(k for k in order if legal[k])


class TestDerive:
    def test_axiom_allows_shift_only(self):
        choosers = RecordingChoosers(structural_order=(1, 0))  # prefer combine
        derive(3, [None, "S"], choosers.structural, choosers.label)
        state, (below, left, right), legal = choosers.structural_calls[0]
        assert state == axiom(3)
        assert legal == (True, False)
        assert (below, left, right) == (-1, -1, 0)

    def test_mid_document_offers_both_structural_actions(self):
        choosers = RecordingChoosers()
        derive(3, [None, "S"], choosers.structural, choosers.label)
        by_boundaries = {
            state.boundaries: (tokens, legal)
            for state, tokens, legal in choosers.structural_calls
        }
        # After two shifts the frontier can still advance and the two spans
        # above the sentinel can combine.
        assert by_boundaries[(-1, 0, 1, 2)] == ((0, 1, 2), (True, True))
        assert by_boundaries[(-1, 0, 1, 2, 3)] == ((1, 2, 3), (False, True))

    def test_root_span_never_takes_nolabel(self):
        chains = [None, "S", "NP"]
        choosers = RecordingChoosers(label_order=(0, 2, 1))  # no-label first
        spans = derive(2, chains, choosers.structural, choosers.label)
        root_legal = [
            legal for state, _, legal in choosers.label_calls if is_root_span(state)
        ]
        assert len(root_legal) == 1 and not root_legal[0][0]
        assert all(
            legal[0] for state, _, legal in choosers.label_calls
            if not is_root_span(state)
        )
        assert spans == {LabeledSpan(0, 2, "NP")}

    def test_width_one_span_reads_degenerate_midpoint(self):
        choosers = RecordingChoosers()
        derive(3, [None, "S"], choosers.structural, choosers.label)
        widths = {}
        for _, (left, mid, right), _ in choosers.label_calls:
            widths[right - left] = widths.get(right - left, 0) + 1
            if right - left == 1:
                assert mid == left
            else:
                assert left < mid < right
        assert widths[1] == 3

    def test_gold_edu_units_map_to_token_boundaries(self):
        edus = [EduSpan(0, 3), EduSpan(3, 4), EduSpan(4, 8)]
        chains = [None, "S", "<-Purpose", "List"]
        choosers = RecordingChoosers()
        spans = derive(8, chains, choosers.structural, choosers.label, edus)
        assert [tokens for _, tokens, _ in choosers.structural_calls] == [
            (-1, -1, 0), (-1, 0, 3), (0, 3, 4), (3, 4, 8), (0, 3, 8),
        ]
        # Only the combined spans reach the label chooser, where only the
        # discourse chains (and no-label off the root) are open.
        assert [tokens for _, tokens, _ in choosers.label_calls] == [
            (3, 4, 8), (0, 3, 8),
        ]
        assert [legal.tolist() for _, _, legal in choosers.label_calls] == [
            [True, False, True, True], [False, False, True, True],
        ]
        assert {s for s in spans if s.chain == EDU_PLACEHOLDER} == {
            LabeledSpan(0, 3, EDU_PLACEHOLDER),
            LabeledSpan(3, 4, EDU_PLACEHOLDER),
            LabeledSpan(4, 8, EDU_PLACEHOLDER),
        }

    def test_state_is_the_stack_alone(self):
        assert [f.name for f in dataclasses.fields(ParserState)] == [
            "n", "boundaries", "midpoint",
        ]

    def test_inventory_must_lead_with_nolabel(self):
        choosers = RecordingChoosers()
        with pytest.raises(TransitionError, match="no-label slot"):
            derive(2, ["S"], choosers.structural, choosers.label)


def test_mnemonic_round_trip():
    actions = [SHIFT_ACTION, NO_LABEL_ACTION, COMBINE_ACTION,
               label_action("S+VP"), label_action("<-Purpose"), NO_LABEL_ACTION]
    assert format_actions(actions) == "SH NL CB L:S+VP L:<-Purpose NL"
    assert parse_actions(format_actions(actions)) == actions


def test_unit_gold_map_in_both_unit_modes():
    tree = generate_synthetic("units", max_tokens=16, max_edus=5)
    assert unit_gold_map(tree) == {
        (s.start, s.end): s.chain for s in labeled_spans(tree)
    }
    edus = extract_edus(tree)
    starts = [e.start for e in edus] + [len(tree.tokens)]
    assert unit_gold_map(tree, edus) == {
        (starts.index(s.start), starts.index(s.end)): s.chain
        for s in labeled_spans(tree)
        if is_discourse_chain(s.chain)
    }


def test_state_is_value_like():
    state = axiom(4)
    after = apply_action(state, SHIFT_ACTION)
    assert state.boundaries == (-1, 0)  # original untouched
    assert after is not state
    assert isinstance(after, ParserState)
