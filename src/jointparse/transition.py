"""Span-based shift/combine/label transition system with oracles.

The parser state is a strictly increasing list of boundary indices starting
``[-1, 0]``; adjacent boundaries delimit the spans on the stack, and the pair
``(-1, 0)`` is a sentinel that never combines with anything.  Structural
actions (shift, combine) alternate with labeling actions (a label chain or
no-label); the split point of the most recently built span is retained as
``midpoint`` until the labeling action consumes it, so the phase is readable
off the state without a step counter.  A shifted width-1 span keeps its left
boundary as a degenerate midpoint so three-argument label scoring stays
well-defined.  The state is the stack alone: labeled spans are the output.

Terminal states have boundaries ``[-1, 0, n]`` and no midpoint.  The final
labeling of the full span ``(0, n)`` must pick a real label (no-label is
masked there), so every finished derivation yields a rooted tree.

`legal_mask` is the machine's one legality rule.  Shift needs a token
(or unit) left to shift, combine needs two spans above the sentinel, each
action belongs to one phase, no-label is illegal on the root span, and
with gold EDUs only discourse chains may label the spans above EDUs (the
slots `label_slots` opens).  It returns the structural pair (can shift,
can combine) or a bool mask over the label slots.  `legal_actions`
enumerates that result as `Action`s, `apply_action` checks an action
against it before taking `successor`, `dynamic_oracle` reads it where only
one structural action is open, and `verify.CompletionSearch` expands
states through `legal_actions` and `successor`.

One driver, `derive`, runs every derivation: greedy decoding
(`parse_greedy`), the trainer's oracle rollouts, and the static oracle
(`static_oracle`), whose gold labels must pass `legal_mask`.  It runs
over units, which are the tokens, or the EDUs when gold EDUs are given;
shifting then advances a whole EDU, whose label is fixed to a placeholder
without a choice (`unit_bounds` maps units to tokens, and `unit_gold_map`
puts gold spans into unit positions).  The driver hands `legal_mask` to a
chooser callback for each decision and takes the chosen action unchecked:

* ``choose_structural(state, below, left, right, legal)`` for shift or
  combine, where ``legal`` is the pair (can shift, can combine) and the
  return value is 0 for shift, 1 for combine;
* ``choose_label(state, left, mid, right, legal)`` for labeling, where
  ``legal`` is a bool mask over the inventory's slots (no-label first) and
  the return value is a slot.

``state`` is the machine's own state over units; the boundaries are token
positions, with -1 for the sentinel.  A chooser may raise to abort the
derivation.

`best_structural` is the one rule that picks shift or combine from the
two raw scores, for greedy decoding and for the trainer's rollouts alike:
the legal action with the higher score, shift on a tie, and a legal NaN
score or a non-finite pick raises.

A label chooser may also defer its decision.  A labeling action leaves
the boundaries as they were, so the rest of the derivation does not
depend on which slot it takes.  A chooser that returns 0 (no-label),
whatever the mask, therefore lets the derivation run on as it would
under any choice, and no span enters the result; it keeps the site and
its mask and labels the span once the derivation has ended.  Greedy
decoding defers every label so that it can score the sites together.

The dynamic oracle (Cross & Huang 2016) needs no lookahead.  In a
structural state with top span (i, j) and stack boundaries b, combine loses
exactly the gold spans (i, r) with r > j, since it drops boundary i, and
shift loses exactly the gold spans (l, j) with l in b below i, since it
moves past j; so

    reachable(shift) - reachable(combine)
        = #{gold (i, r) : r > j} - #{gold (l, j) : l in b, l < i}

and the oracle compares two counts read off a per-document `GoldIndex`.
`reachable_count` stays as the definition this rule is checked against.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .model import GROUP_TOKENS, LOSS_BLOCK
from .trees import (
    EDU_PLACEHOLDER,
    Internal,
    JointTree,
    LabeledSpan,
    Leaf,
    Token,
    is_discourse_chain,
    labeled_spans,
    parse_chain,
    spans_tile,
)

SHIFT = "shift"
COMBINE = "combine"
LABEL = "label"
NO_LABEL = "nolabel"


class TransitionError(ValueError):
    pass


@dataclass(frozen=True)
class Action:
    kind: str
    chain: str | None = None

    def mnemonic(self) -> str:
        if self.kind == SHIFT:
            return "SH"
        if self.kind == COMBINE:
            return "CB"
        if self.kind == NO_LABEL:
            return "NL"
        return f"L:{self.chain}"


SHIFT_ACTION = Action(SHIFT)
COMBINE_ACTION = Action(COMBINE)
NO_LABEL_ACTION = Action(NO_LABEL)
STRUCTURAL_ACTIONS = (SHIFT_ACTION, COMBINE_ACTION)


def label_action(chain: str) -> Action:
    return Action(LABEL, chain)


def slot_action(chains, slot: int) -> Action:
    """The labeling action for score slot `slot` of a label inventory."""
    return NO_LABEL_ACTION if slot == 0 else label_action(chains[slot])


def format_actions(actions) -> str:
    return " ".join(a.mnemonic() for a in actions)


@dataclass(frozen=True)
class ParserState:
    n: int
    boundaries: tuple = (-1, 0)
    midpoint: int | None = None

    @property
    def top(self):
        """(i, j) extent of the top span."""
        return self.boundaries[-2], self.boundaries[-1]

    @property
    def frontier(self) -> int:
        return self.boundaries[-1]


def axiom(n: int) -> ParserState:
    if n < 1:
        raise TransitionError("cannot parse an empty document")
    return ParserState(n=n)


def is_terminal(state: ParserState) -> bool:
    return (
        state.midpoint is None
        and len(state.boundaries) == 3
        and state.boundaries[-1] == state.n
    )


def is_root_span(state: ParserState) -> bool:
    return state.top == (0, state.n)


def label_slots(chains, gold_edus=False) -> np.ndarray:
    """The slots of a label inventory (no-label first) that may label a
    span: all of them, or with gold EDUs no-label and the discourse chains."""
    return np.array(
        [not gold_edus or c is None or is_discourse_chain(c) for c in chains]
    )


def legal_mask(state: ParserState, slots):
    """The legal moves of a non-terminal state.

    A structural state gets the pair (can shift, can combine): shift needs a
    unit beyond the frontier and combine two spans above the sentinel.  A
    labeling state gets a copy of `slots` (see `label_slots`) with no-label
    closed on the root span.
    """
    if state.midpoint is None:
        legal = (state.frontier < state.n, len(state.boundaries) >= 4)
        if not any(legal):
            raise TransitionError("no legal actions in a terminal state")
        return legal
    legal = slots.copy()
    legal[0] = not is_root_span(state)
    return legal


def legal_actions(state: ParserState, chains=(), gold_edus=False) -> set:
    """`legal_mask` as a set of actions; `chains` is the label inventory
    without its no-label slot."""
    inventory = [None, *chains]
    legal = legal_mask(state, label_slots(inventory, gold_edus))
    if state.midpoint is None:
        options = STRUCTURAL_ACTIONS
    else:
        options = [slot_action(inventory, k) for k in range(len(inventory))]
    return {action for action, ok in zip(options, legal) if ok}


def successor(state: ParserState, action: Action) -> ParserState:
    """The state after `action`, which must be legal in `state`."""
    n, b = state.n, state.boundaries
    if action.kind == SHIFT:
        return ParserState(n, b + (b[-1] + 1,), b[-1])
    if action.kind == COMBINE:
        return ParserState(n, b[:-2] + b[-1:], b[-2])
    return ParserState(n, b)


def apply_action(state: ParserState, action: Action):
    """The successor state; raises on actions illegal in this state.  Any
    non-empty chain may label a span."""
    chains = (action.chain,) if action.kind == LABEL and action.chain else ()
    if action not in legal_actions(state, chains):
        raise TransitionError(
            f"{action.mnemonic()} is illegal at boundaries {state.boundaries}"
        )
    return successor(state, action)


def replay(n: int, actions) -> set:
    """The spans that `actions` label, each action checked by `apply_action`."""
    state, spans = axiom(n), set()
    for action in actions:
        state = apply_action(state, action)
        if action.kind == LABEL:  # labeling leaves the boundaries as they were
            spans.add(LabeledSpan(*state.top, action.chain))
    return spans


# ---------------------------------------------------------------------------
# oracles


def _gold_map(gold_spans) -> dict:
    if isinstance(gold_spans, dict):
        return gold_spans
    return {(s.start, s.end): s.chain for s in gold_spans}


def reachable_count(state: ParserState, gold_spans) -> int:
    """How many not-yet-labeled gold spans a completion could still build.

    This is the definition `dynamic_oracle` maximizes over successors; the
    oracle itself uses a closed form and does not call it.

    A span can only be created with its right boundary at the frontier, so a
    gold span (l, r) survives iff r lies at or beyond the frontier and l is
    still (or will become) an available boundary; during a labeling phase the
    top span itself is also still winnable.  None of these is labeled yet: a
    span is built ending at the frontier and labeled next, once per extent,
    and the top's left boundary then only moves down, so a labeled (l, r)
    has r < j, or r == j and l >= i (`verify.run_oracle_suite` checks this).
    """
    gold_map = _gold_map(gold_spans)
    i, j = state.top
    bset = set(state.boundaries)
    count = sum(
        (r > j and (l in bset or l >= j)) or (r == j and l in bset and l < i)
        for l, r in gold_map
    )
    return count + (state.midpoint is not None and (i, j) in gold_map)


@dataclass(frozen=True)
class GoldIndex:
    """The gold spans of one document, indexed for `dynamic_oracle`."""

    chains: dict  # (start, end) -> chain
    starts: dict  # end -> starts of the gold spans ending there
    ends: dict  # start -> ends of the gold spans starting there


def gold_index(gold_spans) -> GoldIndex:
    """Index a gold span set, or a dict from extents to chains."""
    chains = _gold_map(gold_spans)
    starts, ends = {}, {}
    for l, r in chains:
        starts.setdefault(r, []).append(l)
        ends.setdefault(l, []).append(r)
    return GoldIndex(chains, starts, ends)


def dynamic_oracle(state: ParserState, gold) -> set:
    """The set of actions that preserve the maximum number of reachable
    gold spans from this state (never empty).

    `gold` is a `GoldIndex`, or a span set or dict that is indexed per call.
    A structural state with top span (i, j) and boundaries b compares

        reachable(shift) - reachable(combine)
            = #{gold (i, r) : r > j} - #{gold (l, j) : l in b, l < i}

    Combine drops boundary i, losing the gold spans (i, r) that end beyond
    j; shift moves past j, losing the gold spans (l, j) that start at a
    stack boundary below i; every other span survives both or neither.  No
    span in either set is built yet: built spans end at or before j, and a
    built (l, j) would leave no boundary between l and j.  Both sides are
    counted, so the gold spans need not be laminar.
    """
    if not isinstance(gold, GoldIndex):
        gold = gold_index(gold)
    b = state.boundaries
    i, j = b[-2], b[-1]
    if state.midpoint is not None:
        chain = gold.chains.get((i, j))
        if chain is not None:
            return {label_action(chain)}
        if is_root_span(state):
            raise TransitionError("gold spans lack a root-covering span")
        return {NO_LABEL_ACTION}
    can_shift, can_combine = legal_mask(state, None)  # raises when terminal
    if not (can_shift and can_combine):
        return {SHIFT_ACTION if can_shift else COMBINE_ACTION}
    lost_by_combine = sum(r > j for r in gold.ends.get(i, ()))
    lost_by_shift = sum(
        l < i and b[bisect_left(b, l)] == l for l in gold.starts.get(j, ())
    )
    if lost_by_combine == lost_by_shift:
        return {SHIFT_ACTION, COMBINE_ACTION}
    return {SHIFT_ACTION if lost_by_combine > lost_by_shift else COMBINE_ACTION}


# ---------------------------------------------------------------------------
# tree assembly


def reconstruct(labeled, tokens) -> JointTree:
    """Materialize a laminar labeled-span set as a tree over the tokens.

    Chains expand back into unary paths; positions not covered by any
    sub-span become bare token leaves.  The set must contain a span over
    the whole document (legal derivations always produce one).
    """
    tokens = [
        t if isinstance(t, Token) else Token(i, t) for i, t in enumerate(tokens)
    ]
    n = len(tokens)
    spans = sorted(labeled, key=lambda s: (s.start, -s.end))
    for first, second in zip(spans, spans[1:]):
        if first.start == second.start and first.end == second.end:
            raise TransitionError(
                f"duplicate extent ({first.start}, {first.end}) in the span set"
            )
    if not spans or (spans[0].start, spans[0].end) != (0, n):
        raise TransitionError("span set lacks a root-covering span")

    # One frame per open span: [span, cursor, children]; a span closes when
    # its cursor reaches its end and joins its parent's children.
    pos = 1
    frames = [[spans[0], 0, []]]
    chains = {}  # chain text -> its labels, parsed once per call
    while True:
        frame = frames[-1]
        span, cursor, children = frame
        if cursor < span.end:
            if pos < len(spans) and spans[pos].start == cursor:
                child = spans[pos]
                if child.end > span.end:
                    raise TransitionError(f"crossing spans {span} and {child}")
                pos += 1
                frames.append([child, cursor, []])
            else:
                children.append(Leaf(tokens[cursor]))
                frame[1] = cursor + 1
            continue
        labels = chains.get(span.chain)
        if labels is None:
            labels = chains[span.chain] = parse_chain(span.chain)
        node = Internal(labels[-1], children)
        for lab in reversed(labels[:-1]):
            node = Internal(lab, [node])
        frames.pop()
        if not frames:
            break
        frames[-1][1] = span.end
        frames[-1][2].append(node)
    if pos != len(spans):
        stray = spans[pos]
        raise TransitionError(f"span {stray} crosses the document structure")
    return JointTree(tokens, node)


# ---------------------------------------------------------------------------
# the derivation driver

def unit_bounds(n: int, edu_spans=None) -> list:
    """Token position of each unit boundary: every token is a unit, or with
    `edu_spans`, which must tile the n tokens, every EDU is."""
    if edu_spans is None:
        return list(range(n + 1))
    edu_spans = list(edu_spans)
    if not spans_tile(edu_spans, n):
        raise TransitionError("EDU spans do not tile the document")
    return [span.start for span in edu_spans] + [n]


def unit_gold_map(gold: JointTree, edu_spans=None) -> dict:
    """The gold spans of a tree in unit positions, as a dict from extents to
    chains: every span over tokens, or with `edu_spans` (the tree's EDUs)
    the discourse spans over EDUs, the only spans labeled there."""
    bounds = unit_bounds(len(gold.tokens), edu_spans)
    unit_of = {b: u for u, b in enumerate(bounds)}
    return {
        (unit_of[span.start], unit_of[span.end]): span.chain
        for span in labeled_spans(gold)
        if edu_spans is None or is_discourse_chain(span.chain)
    }


def derive(n, chains, choose_structural, choose_label, edu_spans=None) -> set:
    """Run one derivation of an n-token document from the axiom to a
    terminal state and return its labeled spans in token positions.

    `chains` is the label inventory, no-label first.  Every step but an
    EDU's placeholder label goes to a chooser (see the module docstring),
    whose returned slot is applied unchecked.  A label chooser defers a
    label by returning 0: no-label adds no span, even where the mask
    closes it, and the boundaries after a label do not depend on its slot.
    The returned set then lacks the deferred spans, and the caller adds
    them.
    """
    if chains[0] is not None:
        raise TransitionError("label inventory must start with the no-label slot")
    bounds = unit_bounds(n, edu_spans)
    slots = label_slots(chains, edu_spans is not None)
    placeholder = label_action(EDU_PLACEHOLDER)

    def at(u):  # token position of unit boundary u; the sentinel stays -1
        return -1 if u < 0 else bounds[u]

    state, spans = axiom(len(bounds) - 1), []
    while not is_terminal(state):
        i, j = state.top
        if state.midpoint is None:
            legal = legal_mask(state, slots)
            below = at(state.boundaries[-3]) if legal[1] else -1
            pick = choose_structural(state, below, at(i), at(j), legal)
            action = STRUCTURAL_ACTIONS[pick]
        elif edu_spans is not None and j - i == 1:
            # EDU-internal structure is not predicted in gold-EDU mode.
            action = placeholder
        else:
            legal = legal_mask(state, slots)
            pick = choose_label(state, at(i), at(state.midpoint), at(j), legal)
            action = slot_action(chains, pick)
        if action.kind == LABEL:
            spans.append(LabeledSpan(at(i), at(j), action.chain))
        state = successor(state, action)
    return set(spans)


def static_oracle(gold: JointTree) -> list:
    """The canonical derivation of a gold tree: left-to-right post-order,
    combining eagerly, with no-label at the internal merge points of nodes
    with more than two children (no binarization happens anywhere).

    It is `derive` with two recording choosers: combine whenever the
    dynamic oracle allows it, else shift, and label each span with its gold
    chain or no-label.  A gold label that `legal_mask` closes raises.
    """
    if isinstance(gold.root, Leaf):
        raise TransitionError("gold tree must have a labeled root")
    gold_map = unit_gold_map(gold)
    index = gold_index(gold_map)
    chains = [None, *sorted(set(gold_map.values()))]
    slot_of = {chain: k for k, chain in enumerate(chains)}
    actions = []

    def structural(state, below, left, right, legal):
        pick = int(COMBINE_ACTION in dynamic_oracle(state, index))
        actions.append(STRUCTURAL_ACTIONS[pick])
        return pick

    def label(state, left, mid, right, legal):
        pick = slot_of[gold_map.get(state.top)]
        action = slot_action(chains, pick)
        if not legal[pick]:
            raise TransitionError(f"{action.mnemonic()} is illegal on {state.top}")
        actions.append(action)
        return pick

    derive(len(gold.tokens), chains, structural, label)
    return actions


def parse_documents(scorer, documents, segmentations=None) -> list:
    """Greedy-decode a list of documents (word lists) and return their trees
    in input order; `segmentations`, if given, holds each document's gold
    EDU spans or None.

    The documents are sorted by length and cut into groups of at most
    `GROUP_TOKENS` tokens (a longer document is a group alone).  The scorer
    encodes each group at once, every document at its unit boundaries
    only, and `parse_greedy` decodes its documents one by one.
    """
    if segmentations is None:
        segmentations = [None] * len(documents)
    bounds = [
        unit_bounds(len(words), edus) for words, edus in zip(documents, segmentations)
    ]
    trees = [None] * len(documents)
    for group in _groups([len(words) for words in documents]):
        scorer.prepare([documents[k] for k in group], [bounds[k] for k in group])
        for member, k in enumerate(group):
            trees[k] = parse_greedy(scorer, documents[k], segmentations[k], member)
    return trees


def _groups(lengths) -> list:
    """Document indices sorted by length and cut into groups of at most
    GROUP_TOKENS tokens, or of one longer document."""
    groups, tokens = [], 0
    for k in sorted(range(len(lengths)), key=lengths.__getitem__):
        if not groups or tokens + lengths[k] > GROUP_TOKENS:
            groups.append([])
            tokens = 0
        groups[-1].append(k)
        tokens += lengths[k]
    return groups


def parse_greedy(scorer, words, edu_spans=None, member=None) -> JointTree:
    """Decode a document by always taking the highest-scoring legal action.

    `scorer` must provide:

    * ``prepare(documents, bounds)``, which readies a group of documents
      (word lists), each with its unit boundaries (see `unit_bounds`);
    * ``select(k)``, which makes document k of that group the one scored;
    * ``structural(below, i, j)``, returning the raw (shift, combine) scores
      as two floats;
    * ``labels(i, k, j)``, returning raw scores over the label inventory
      (no-label first) for arrays of sites, one row per site;
    * ``inventory()``, returning that inventory as a list whose first
      element is None.

    Boundaries are token positions.  `member` is the document's place in
    the group the scorer was last prepared with (see `parse_documents`);
    by default the scorer is prepared with this document alone.

    A label never moves the stack, so labels do not steer the derivation:
    the structural loop defers every label (see `derive`) and records its
    site with the mask `legal_mask` gave it, and a pass after the loop
    scores the sites in stacks of `LOSS_BLOCK` and takes each row's best
    legal slot.

    With `edu_spans`, decoding is constrained to gold segmentation: shifting
    advances one whole EDU (its internal labeling is fixed to a placeholder),
    and only discourse relations may label the spans built above EDUs.
    """
    if member is None:
        scorer.prepare([words], [unit_bounds(len(words), edu_spans)])
        member = 0
    scorer.select(member)
    chains = scorer.inventory()
    sites, masks = [], []

    def structural(state, below, left, right, legal):
        return best_structural(*scorer.structural(below, left, right), legal)

    def label(state, left, mid, right, legal):
        sites.append((left, mid, right))
        masks.append(legal)
        return 0  # deferred: no-label adds no span (see `derive`)

    spans = derive(len(words), chains, structural, label, edu_spans)
    for start in range(0, len(sites), LOSS_BLOCK):
        block = sites[start : start + LOSS_BLOCK]
        picks = _best_labels(scorer, block, masks[start : start + LOSS_BLOCK])
        for (left, _, right), pick in zip(block, picks):
            if pick:
                spans.add(LabeledSpan(left, right, chains[pick]))
    return reconstruct(spans, list(words))


def _best_labels(scorer, sites, masks) -> list:
    """The slot of each site's highest legal label score, which must be
    finite, from one stacked call of the scorer."""
    raw = scorer.labels(*zip(*sites))
    if raw.shape != (len(sites), len(masks[0])):
        raise TransitionError(
            f"scorer emits {raw.shape[-1]} label scores for an inventory "
            f"of {len(masks[0])}"
        )
    masked = np.where(masks, raw, -np.inf)
    picks = np.argmax(masked, axis=1)
    if not np.isfinite(masked[np.arange(len(sites)), picks]).all():
        raise TransitionError("no legal action has finite score")
    return picks.tolist()


def best_structural(shift, combine, legal) -> int:
    """0 (shift) or 1 (combine), whichever legal action scores higher, shift
    on a tie, as an argmax over the masked pair takes it.  A legal NaN
    score or a non-finite best raises."""
    can_shift, can_combine = legal
    pick = can_combine and not (can_shift and shift >= combine)
    best = combine if pick else shift
    if not math.isfinite(best) or (can_shift and shift != shift):
        raise TransitionError("no legal action has finite score")
    return int(pick)
