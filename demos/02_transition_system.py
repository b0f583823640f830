"""Walk the shift/combine/label transition system by hand.

The stack holds only boundary indices.  Structural steps and labeling
steps alternate; the retained midpoint of the newest span marks the
labeling phase and feeds the relation scorer.  Exits non-zero if replaying
the static oracle's derivation does not rebuild the gold tree.
"""

import sys

from jointparse import generate_synthetic
from jointparse.transition import (
    apply_action,
    axiom,
    dynamic_oracle,
    format_actions,
    is_terminal,
    legal_actions,
    reachable_count,
    reconstruct,
    replay,
    static_oracle,
)
from jointparse.trees import labeled_spans
from jointparse.serialize import write_joint


def show(state, labeled):
    mid = f" mid={state.midpoint}" if state.midpoint is not None else ""
    print(f"  boundaries={list(state.boundaries)}{mid} labeled={len(labeled)}")


def main():
    tree = generate_synthetic("demo-transition", max_tokens=8, max_edus=3)
    print("document:", " ".join(t.text for t in tree.tokens))
    print("gold tree:", write_joint(tree))
    print()

    actions = static_oracle(tree)
    print("canonical derivation:")
    print(" ", format_actions(actions))
    print()

    # The state is the stack alone; `replay` collects the labeled spans.
    print("replaying the first six actions:")
    n = len(tree.tokens)
    state = axiom(n)
    show(state, set())
    for k, action in enumerate(actions[:6], 1):
        state = apply_action(state, action)
        show(state, replay(n, actions[:k]))
    print()

    final = state
    for action in actions[6:]:
        final = apply_action(final, action)
    rebuilt = reconstruct(replay(n, actions), tree.tokens)
    round_trip = is_terminal(final) and rebuilt == tree
    print("replay terminal:", is_terminal(final))
    print("reconstruction equals the gold tree:", rebuilt == tree)
    print()

    # The dynamic oracle answers "what is still winnable" from any state,
    # including states a gold derivation would never visit.
    gold = labeled_spans(tree)
    state = axiom(len(tree.tokens))
    for action in actions[:4]:
        state = apply_action(state, action)
    print("gold spans still reachable after four steps:",
          reachable_count(state, gold), "of", len(gold))
    print("oracle actions here:",
          sorted(a.mnemonic() for a in dynamic_oracle(state, gold)))
    print("legal actions here:",
          sorted(a.mnemonic() for a in legal_actions(state, ["S", "NP"])))
    return 0 if round_trip else 1


if __name__ == "__main__":
    sys.exit(main())
