"""Training with exploration against the dynamic oracle.

Each document is rolled out step by step: the oracle supplies the set of
loss-free actions, the model's best oracle action becomes the training
target, and the action actually taken is the target with probability beta
or the model's own choice otherwise, so the scorer also sees states its
mistakes would lead to.  Updates are per document; the best-dev checkpoint
is retained.
"""

import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import evaluate
from .model import (
    LabelStep,
    ModelConfig,
    SpanScorer,
    StructuralStep,
    Vocabulary,
    encode,
    init_parameters,
    label_raw_scores,
    loss_and_gradients,
    make_dropout_masks,
    sample_hidden_mask,
    save_checkpoint,
    structural_raw_scores,
)
from .transition import (
    COMBINE,
    COMBINE_ACTION,
    SHIFT,
    SHIFT_ACTION,
    NO_LABEL_ACTION,
    apply_action,
    axiom,
    dynamic_oracle,
    is_root_span,
    is_terminal,
    label_action,
    parse_greedy,
)
from .trees import (
    EDU_PLACEHOLDER,
    extract_edus,
    is_discourse_chain,
    labeled_spans,
)

END_TO_END = "end2end"
GOLD_EDU = "goldedu"


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainConfig:
    beta: float = 0.8          # probability of following the dynamic oracle
    dropout: float = 0.5
    epochs: int = 20
    seed: int = 1
    dev_size: int = 30
    learning_rate: float = 1e-3
    clip_norm: float = 5.0
    mode: str = END_TO_END
    unk_replace: float = 0.25  # chance of hiding a singleton token

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must be in [0, 1]")
        if self.mode not in (END_TO_END, GOLD_EDU):
            raise ValueError(f"unknown training mode {self.mode!r}")

    def to_dict(self):
        return {
            "beta": self.beta,
            "dropout": self.dropout,
            "epochs": self.epochs,
            "seed": self.seed,
            "dev_size": self.dev_size,
            "learning_rate": self.learning_rate,
            "clip_norm": self.clip_norm,
            "mode": self.mode,
            "unk_replace": self.unk_replace,
        }


@dataclass
class RolloutStep:
    state: object
    target: object    # the oracle action the loss pushes toward
    followed: object  # the action actually taken


@dataclass
class TrainingExample:
    ids: np.ndarray
    steps: list
    masks: object = None


def _token_ids(gold, vocab, config, rng):
    ids = []
    for token in gold.tokens:
        if (
            config.unk_replace > 0.0
            and vocab.is_singleton(token.text)
            and rng.random() < config.unk_replace
        ):
            ids.append(0)
        else:
            ids.append(vocab.token_id(token.text))
    return np.asarray(ids, dtype=int)


def rollout(gold, params, vocab, model_config, config, rng):
    """One pass over a document; returns (TrainingExample, [RolloutStep])."""
    if config.mode == GOLD_EDU:
        return _rollout_units(gold, params, vocab, model_config, config, rng)
    return _rollout_tokens(gold, params, vocab, model_config, config, rng)


def _rollout_tokens(gold, params, vocab, model_config, config, rng):
    n = len(gold.tokens)
    gold_map = {(s.start, s.end): s.chain for s in labeled_spans(gold)}
    ids = _token_ids(gold, vocab, config, rng)
    masks = make_dropout_masks(n, model_config, config.dropout, rng)
    enc = encode(params, ids, masks)

    state = axiom(n)
    steps, trace = [], []
    while not is_terminal(state):
        if state.midpoint is None:
            state = _structural_move(
                state, None, params, enc, vocab, model_config, config, rng,
                gold_map, steps, trace,
            )
        else:
            state = _label_move(
                state, None, params, enc, vocab, model_config, config, rng,
                gold_map, None, steps, trace,
            )
    return TrainingExample(ids, steps, masks), trace


def _rollout_units(gold, params, vocab, model_config, config, rng):
    """Gold-segmentation rollout: the same machinery over EDU-sized units."""
    n = len(gold.tokens)
    edus = extract_edus(gold)
    bounds = [span.start for span in edus] + [n]
    units = len(edus)
    unit_of = {b: u for u, b in enumerate(bounds)}
    gold_map = {}
    for span in labeled_spans(gold):
        if is_discourse_chain(span.chain):
            gold_map[(unit_of[span.start], unit_of[span.end])] = span.chain

    ids = _token_ids(gold, vocab, config, rng)
    masks = make_dropout_masks(n, model_config, config.dropout, rng)
    enc = encode(params, ids, masks)
    allowed = np.array(
        [True] + [is_discourse_chain(c) for c in vocab.chains], dtype=bool
    )

    def to_tokens(u):
        return -1 if u < 0 else bounds[u]

    state = axiom(units)
    steps, trace = [], []
    while not is_terminal(state):
        if state.midpoint is None:
            state = _structural_move(
                state, to_tokens, params, enc, vocab, model_config, config, rng,
                gold_map, steps, trace,
            )
        elif state.top[1] - state.top[0] == 1:
            # A freshly shifted EDU: its internal structure is not predicted.
            state = apply_action(state, label_action(EDU_PLACEHOLDER))
        else:
            state = _label_move(
                state, to_tokens, params, enc, vocab, model_config, config, rng,
                gold_map, allowed, steps, trace,
            )
    return TrainingExample(ids, steps, masks), trace


def _structural_move(
    state, to_tokens, params, enc, vocab, model_config, config, rng,
    gold_map, steps, trace,
):
    i, j = state.top
    can_shift = j < state.n
    can_combine = len(state.boundaries) >= 4
    below = state.boundaries[-3] if can_combine else -1
    if to_tokens is not None:
        below_t, i_t, j_t = to_tokens(below), to_tokens(i), to_tokens(j)
    else:
        below_t, i_t, j_t = below, i, j
    step = StructuralStep(
        below=below_t,
        left=i_t,
        right=j_t,
        can_shift=can_shift,
        can_combine=can_combine,
        target=0,
        hmask_shift=sample_hidden_mask(model_config, config.dropout, rng),
        hmask_combine=sample_hidden_mask(model_config, config.dropout, rng),
    )
    scores, _ = structural_raw_scores(params, enc, step)
    scores = np.where([can_shift, can_combine], scores, -np.inf)

    oracle = dynamic_oracle(state, gold_map)
    oracle_ids = sorted(0 if a.kind == SHIFT else 1 for a in oracle)
    target = max(oracle_ids, key=lambda k: scores[k])
    step.target = target
    steps.append(step)

    if rng.random() < config.beta:
        followed = target
    else:
        followed = int(np.argmax(scores))
    target_action = SHIFT_ACTION if target == 0 else COMBINE_ACTION
    action = SHIFT_ACTION if followed == 0 else COMBINE_ACTION
    trace.append(RolloutStep(state, target_action, action))
    return apply_action(state, action)


def _label_move(
    state, to_tokens, params, enc, vocab, model_config, config, rng,
    gold_map, allowed, steps, trace,
):
    i, j = state.top
    k = state.midpoint
    if to_tokens is not None:
        i_t, k_t, j_t = to_tokens(i), to_tokens(k), to_tokens(j)
    else:
        i_t, k_t, j_t = i, k, j
    step = LabelStep(
        left=i_t,
        mid=k_t,
        right=j_t,
        mask_nolabel=is_root_span(state),
        target=0,
        allowed=allowed,
        hmask=sample_hidden_mask(model_config, config.dropout, rng),
    )
    gold_chain = gold_map.get((i, j))
    step.target = vocab.chain_id(gold_chain) if gold_chain is not None else 0
    if step.target == 0 and step.mask_nolabel:
        raise TrainingDiverged("gold tree has no label for the full-document span")
    steps.append(step)

    scores, _ = label_raw_scores(params, enc, step)
    legal = allowed.copy() if allowed is not None else np.ones(len(scores), dtype=bool)
    if step.mask_nolabel:
        legal[0] = False
    scores = np.where(legal, scores, -np.inf)

    def to_action(index):
        return NO_LABEL_ACTION if index == 0 else label_action(vocab.chains[index - 1])

    if rng.random() < config.beta:
        followed = step.target
    else:
        followed = int(np.argmax(scores))
    action = to_action(followed)
    trace.append(RolloutStep(state, to_action(step.target), action))
    return apply_action(state, action)


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Adaptive-moment gradient descent with global norm clipping; clipping
    scales the passed gradients in place."""

    def __init__(self, params, learning_rate=1e-3, clip_norm=5.0,
                 beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.learning_rate = learning_rate
        self.clip_norm = clip_norm
        self.beta1, self.beta2, self.epsilon = beta1, beta2, epsilon
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def update(self, params, grads):
        self.t += 1
        if self.clip_norm > 0.0:
            total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
            if total > self.clip_norm:
                scale = self.clip_norm / total
                for grad in grads.values():
                    grad *= scale
        correction1 = 1.0 - self.beta1 ** self.t
        correction2 = 1.0 - self.beta2 ** self.t
        for key, grad in grads.items():
            m = self.m[key] = self.beta1 * self.m[key] + (1.0 - self.beta1) * grad
            v = self.v[key] = self.beta2 * self.v[key] + (1.0 - self.beta2) * grad**2
            step = (m / correction1) / (np.sqrt(v / correction2) + self.epsilon)
            params[key] -= self.learning_rate * step


# ---------------------------------------------------------------------------
# the training loop


@dataclass
class TrainResult:
    params: dict
    vocab: Vocabulary
    model_config: ModelConfig
    history: list = field(default_factory=list)
    best_epoch: int = 0
    best_f1: float = -1.0


def dev_metrics(params, vocab, dev_docs, mode=END_TO_END) -> dict:
    """Greedy-parse a document list and report corpus micro F1 values."""
    scorer = SpanScorer(params, vocab)
    preds = []
    for gold in dev_docs:
        words = [t.text for t in gold.tokens]
        edus = extract_edus(gold) if mode == GOLD_EDU else None
        preds.append(parse_greedy(scorer, words, edu_spans=edus))
    report = evaluate.corpus_report(dev_docs, preds)["corpus"]
    return {
        "overall_f1": report["overall_f1"],
        "struct_f1": report["struct_f1"],
        "nuc_f1": report["nuc_f1"],
        "rel_f1": report["rel_f1"],
    }


def train(
    treebank,
    config: TrainConfig,
    model_config: ModelConfig | None = None,
    out_dir=None,
    log=None,
) -> TrainResult:
    """Train from scratch on a treebank; keep the best-dev parameters.

    With dev_size = 0 the training documents double as the selection set
    (useful for overfitting checks); otherwise a seeded sample is held out.
    Model selection uses overall labeled-span F1 end-to-end and discourse
    relation F1 in gold-segmentation mode.
    """
    docs = list(treebank)
    if not docs:
        raise ValueError("empty treebank")
    if config.dev_size >= len(docs):
        raise ValueError("dev_size must leave at least one training document")
    rng = np.random.default_rng(config.seed)
    if config.dev_size > 0:
        order = rng.permutation(len(docs))
        dev_docs = [docs[i] for i in order[: config.dev_size]]
        train_docs = [docs[i] for i in order[config.dev_size :]]
    else:
        dev_docs = docs
        train_docs = docs

    vocab = Vocabulary.from_treebank(train_docs)
    params = init_parameters(vocab, model_config or ModelConfig(), rng)
    model_config = model_config or ModelConfig()
    adam = Adam(params, config.learning_rate, config.clip_norm)
    selection = "rel_f1" if config.mode == GOLD_EDU else "overall_f1"

    result = TrainResult(params, vocab, model_config)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    for epoch in range(1, config.epochs + 1):
        started = time.time()
        total_loss = 0.0
        for doc_index in rng.permutation(len(train_docs)):
            gold = train_docs[doc_index]
            example, _ = rollout(gold, params, vocab, model_config, config, rng)
            if not example.steps:
                continue  # single-EDU document in gold-EDU mode: fully forced
            try:
                loss, grads = loss_and_gradients(
                    params, example.ids, example.steps, example.masks
                )
            except ValueError as err:
                raise TrainingDiverged(
                    f"epoch {epoch}, document {doc_index}: {err}"
                ) from err
            total_loss += loss
            adam.update(params, grads)

        metrics = dev_metrics(params, vocab, dev_docs, config.mode)
        entry = {
            "epoch": epoch,
            "loss": round(total_loss, 6),
            "dev_overall_f1": metrics["overall_f1"],
            "dev_struct_f1": metrics["struct_f1"],
            "dev_nuc_f1": metrics["nuc_f1"],
            "dev_rel_f1": metrics["rel_f1"],
            "seconds": round(time.time() - started, 3),
        }
        result.history.append(entry)
        if log is not None:
            log(
                "epoch {epoch}: loss {loss:.3f} dev overall {dev_overall_f1:.2f} "
                "struct {dev_struct_f1:.2f} nuc {dev_nuc_f1:.2f} "
                "rel {dev_rel_f1:.2f} ({seconds:.1f}s)".format(**entry)
            )
        if out_dir is not None:
            save_checkpoint(
                f"{out_dir}/epoch-{epoch}.ckpt", params, vocab, model_config
            )
        if metrics[selection] >= result.best_f1:
            result.best_f1 = metrics[selection]
            result.best_epoch = epoch
            result.params = {k: v.copy() for k, v in params.items()}
            if out_dir is not None:
                save_checkpoint(
                    f"{out_dir}/best.ckpt", result.params, vocab, model_config
                )
    return result
