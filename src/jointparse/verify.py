"""Independent verification harnesses.

Two expensive ground truths live here so both the test suite and the
command line can run them:

* an exhaustive-completion search over the transition system, used to
  confirm that the dynamic oracle returns exactly the loss-optimal action
  sets and that `reachable_count` equals the best achievable future;
* central finite differences over the full loss, used to confirm the
  hand-written backpropagation coordinate by coordinate.

The completion search scores a finished derivation by (gold spans built)
minus (non-gold spans labeled), so a wrong label is strictly worse than
no label and the optimal action sets are unique where they should be.
"""

import random
from dataclasses import dataclass, field

import numpy as np

from . import trainer
from .model import ModelConfig, Vocabulary, init_parameters, loss_and_gradients
from .synthetic import generate_synthetic
from .transition import (
    apply_action,
    axiom,
    dynamic_oracle,
    is_terminal,
    legal_actions,
    reachable_count,
)
from .trees import labeled_spans


# ---------------------------------------------------------------------------
# exhaustive completion search


class CompletionSearch:
    """Memoized exhaustive search over all completions of a parser state."""

    def __init__(self, gold_map, n):
        self.gold_map = dict(gold_map)
        self.n = n
        self._memo = {}

    def best_future(self, boundaries, labeling) -> int:
        """Maximum number of gold spans still collectable from here on.

        False labels are avoidable in every completion (no-label is legal
        everywhere except at the root, which is always gold), so the maximum
        of the (gained - false) objective equals the maximum gain.
        """
        key = (boundaries, labeling)
        if key in self._memo:
            return self._memo[key]
        if labeling:
            i, j = boundaries[-2], boundaries[-1]
            gain = 1 if (i, j) in self.gold_map else 0
            value = gain + self.best_future(boundaries, False)
        elif len(boundaries) == 3 and boundaries[-1] == self.n:
            value = 0  # terminal
        else:
            options = []
            j = boundaries[-1]
            if j < self.n:
                options.append(self.best_future(boundaries + (j + 1,), True))
            if len(boundaries) >= 4:
                options.append(
                    self.best_future(boundaries[:-2] + boundaries[-1:], True)
                )
            value = max(options)
        self._memo[key] = value
        return value

    def best_actions(self, state, chains) -> set:
        """argmax over legal actions of immediate delta plus best future."""
        scored = {}
        for action in legal_actions(state, chains):
            successor = apply_action(state, action)
            delta = 0
            if action.kind == "label":
                i, j = state.top
                delta = 1 if self.gold_map.get((i, j)) == action.chain else -1
            scored[action] = delta + self.best_future(
                successor.boundaries, successor.midpoint is not None
            )
        best = max(scored.values())
        return {action for action, value in scored.items() if value == best}


def gold_map_of(tree) -> dict:
    return {(s.start, s.end): s.chain for s in labeled_spans(tree)}


# ---------------------------------------------------------------------------
# state sampling


def sample_states(tree, rng, walks=4):
    """Non-terminal states reachable by mixed oracle/random walks, with
    off-gold labeling included so mislabeled configurations get covered."""
    gold_map = gold_map_of(tree)
    chains = sorted(set(gold_map.values())) + ["ZZZ"]
    n = len(tree.tokens)
    states = []
    for _ in range(walks):
        follow_oracle = rng.random()
        state = axiom(n)
        while not is_terminal(state):
            states.append(state)
            if rng.random() < follow_oracle:
                choices = sorted(
                    dynamic_oracle(state, gold_map),
                    key=lambda a: (a.kind, a.chain or ""),
                )
            else:
                choices = sorted(
                    legal_actions(state, chains),
                    key=lambda a: (a.kind, a.chain or ""),
                )
            state = apply_action(state, rng.choice(choices))
    return states, gold_map, chains


@dataclass
class SuiteReport:
    checked: int = 0
    failures: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def ok(self):
        return not self.failures


def run_oracle_suite(
    num_states=1000, max_tokens=6, seed=20_240_001, progress=None
) -> SuiteReport:
    """Compare the dynamic oracle and reachable_count against exhaustive
    search on randomly reached states over small documents."""
    rng = random.Random(seed)
    report = SuiteReport()
    doc = 0
    while report.checked < num_states:
        tree = generate_synthetic(f"oracle-suite/{seed}/{doc}", max_tokens=max_tokens)
        doc += 1
        states, gold_map, chains = sample_states(tree, rng)
        search = CompletionSearch(gold_map, len(tree.tokens))
        for state in states:
            expected_reach = search.best_future(
                state.boundaries, state.midpoint is not None
            )
            got_reach = reachable_count(state, gold_map)
            if got_reach != expected_reach:
                report.failures.append(
                    f"reachable_count {got_reach} != exhaustive {expected_reach} "
                    f"at {state}"
                )
            expected_set = search.best_actions(state, chains)
            got_set = dynamic_oracle(state, gold_map)
            if got_set != expected_set:
                report.failures.append(
                    f"dynamic_oracle {sorted(a.mnemonic() for a in got_set)} != "
                    f"exhaustive {sorted(a.mnemonic() for a in expected_set)} "
                    f"at {state}"
                )
            report.checked += 1
            if report.checked >= num_states:
                break
        if progress is not None and doc % 25 == 0:
            progress(f"oracle suite: {report.checked}/{num_states} states")
    report.details["documents"] = doc
    return report


# ---------------------------------------------------------------------------
# finite-difference gradient checking


def relative_error(a, b) -> float:
    """|a - b| scaled by max(1, |a|, |b|), the usual gradient-check metric."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


def finite_difference_check(
    params, ids, steps, keys=None, coords_per_array=6, h=1e-4, seed=0, masks=None
):
    """Central finite differences against the analytic gradient.

    A coordinate whose +-h interval straddles a rectifier kink makes the
    finite difference itself a bad derivative estimate, so each coordinate
    is first screened by comparing the h and h/2 estimates; non-smooth
    neighborhoods are skipped and another coordinate is drawn instead.

    Returns (worst_error, rows, skipped) where rows hold
    (key, index, analytic, numeric, error) for every checked coordinate.
    """
    rng = np.random.default_rng(seed)
    _, grads = loss_and_gradients(params, ids, steps, masks)

    def loss_at(array, index, value):
        original = array[index]
        array[index] = value
        loss, _ = loss_and_gradients(params, ids, steps, masks)
        array[index] = original
        return loss

    rows = []
    skipped = 0
    worst = 0.0
    for key in keys if keys is not None else sorted(params):
        array = params[key]
        pool = rng.permutation(array.size)
        checked = 0
        for flat in pool:
            if checked >= min(coords_per_array, array.size):
                break
            index = np.unravel_index(int(flat), array.shape)
            origin = array[index]
            full = (loss_at(array, index, origin + h)
                    - loss_at(array, index, origin - h)) / (2.0 * h)
            half = (loss_at(array, index, origin + h / 2)
                    - loss_at(array, index, origin - h / 2)) / h
            if relative_error(full, half) > 1e-5:
                skipped += 1  # kink inside the difference interval
                continue
            analytic = float(grads[key][index])
            error = relative_error(analytic, full)
            worst = max(worst, error)
            rows.append((key, index, analytic, full, error))
            checked += 1
    return worst, rows, skipped


def _oracle_examples(n_docs, seed, dropout=0.0):
    """Training examples from oracle-following rollouts."""
    trees = [
        generate_synthetic(f"gradcheck/{seed}/{k}", max_tokens=10, max_edus=4)
        for k in range(n_docs)
    ]
    vocab = Vocabulary.from_treebank(trees)
    config = ModelConfig(word_dim=7, hidden_dim=9, scorer_hidden=11)
    params = init_parameters(vocab, config, np.random.default_rng(seed))
    train_config = trainer.TrainConfig(
        beta=1.0, dropout=dropout, unk_replace=0.0, dev_size=0, seed=seed
    )
    rng = np.random.default_rng(seed + 1)
    examples = []
    for tree in trees:
        example, _ = trainer.rollout(tree, params, vocab, config, train_config, rng)
        examples.append(example)
    return params, examples


def run_gradcheck_suite(
    n_docs=3, coords_per_array=6, tolerance=1e-4, seed=7, progress=None
) -> SuiteReport:
    """Check every parameter array on oracle rollouts of random documents."""
    params, examples = _oracle_examples(n_docs, seed)
    report = SuiteReport()
    worst = 0.0
    skipped = 0
    for doc_index, example in enumerate(examples):
        worst_doc, rows, doc_skipped = finite_difference_check(
            params,
            example.ids,
            example.steps,
            coords_per_array=coords_per_array,
            seed=seed + doc_index,
            masks=example.masks,
        )
        worst = max(worst, worst_doc)
        skipped += doc_skipped
        report.checked += len(rows)
        for key, index, analytic, numeric, error in rows:
            if error > tolerance:
                report.failures.append(
                    f"doc {doc_index} {key}{list(index)}: analytic {analytic:.10f} "
                    f"vs numeric {numeric:.10f} (relative error {error:.2e})"
                )
        if progress is not None:
            progress(
                f"gradient check: document {doc_index + 1}/{len(examples)}, "
                f"worst relative error {worst:.2e}"
            )
    report.details["worst_error"] = worst
    report.details["kink_skips"] = skipped
    return report
