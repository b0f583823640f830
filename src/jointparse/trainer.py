"""Training with exploration against the dynamic oracle.

Each document is rolled out step by step on the transition driver
(`transition.derive`), over tokens or, in gold-EDU mode, over the gold
EDUs, exactly as greedy decoding runs.  `rollout` supplies the two
choosers.  At every step the oracle supplies the set of loss-free
actions, the model's best oracle action becomes the training target, and
the chooser returns the target with probability beta or the model's own
argmax over the legal actions otherwise, so the scorer also sees states
its mistakes would lead to.  The random draws per step come in a fixed
order: the step's hidden dropout masks (shift then combine, or the label
mask), then the beta draw.  Updates are per document; the best-dev
checkpoint is retained.
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
    STRUCTURAL_ACTIONS,
    derive,
    dynamic_oracle,
    gold_index,
    parse_greedy,
    slot_action,
    unit_bounds,
)
from .trees import extract_edus, is_discourse_chain, labeled_spans

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
    """One pass over a document; returns (TrainingExample, [RolloutStep]).

    The trace's states are over units: tokens, or EDUs in gold-EDU mode,
    where only discourse spans are targets."""
    n = len(gold.tokens)
    edus = extract_edus(gold) if config.mode == GOLD_EDU else None
    unit_of = {b: u for u, b in enumerate(unit_bounds(n, edus))}
    gold_map = {
        (unit_of[span.start], unit_of[span.end]): span.chain
        for span in labeled_spans(gold)
        if edus is None or is_discourse_chain(span.chain)
    }
    index = gold_index(gold_map)
    ids = _token_ids(gold, vocab, config, rng)
    masks = make_dropout_masks(n, model_config, config.dropout, rng)
    enc = encode(params, ids, masks)
    chains = vocab.inventory()
    steps, trace = [], []

    def hidden_mask():
        return sample_hidden_mask(model_config, config.dropout, rng)

    def follow(scores, target):
        # The oracle's target with probability beta, else the model's choice.
        return target if rng.random() < config.beta else int(np.argmax(scores))

    def structural(state, below, left, right, legal):
        hmasks = hidden_mask(), hidden_mask()
        scores, _ = structural_raw_scores(params, enc, below, left, right, *hmasks)
        scores = np.where(legal, scores, -np.inf)
        oracle = dynamic_oracle(state, index)
        target = max(
            sorted(STRUCTURAL_ACTIONS.index(a) for a in oracle),
            key=lambda k: scores[k],
        )
        steps.append(StructuralStep(below, left, right, legal, target, *hmasks))
        followed = follow(scores, target)
        trace.append(RolloutStep(
            state, STRUCTURAL_ACTIONS[target], STRUCTURAL_ACTIONS[followed]
        ))
        return followed

    def label(state, left, mid, right, legal):
        hmask = hidden_mask()
        gold_chain = gold_map.get(state.top)
        target = vocab.chain_id(gold_chain) if gold_chain is not None else 0
        if not legal[target]:
            raise TrainingDiverged(f"gold tree has no legal label for span {state.top}")
        steps.append(LabelStep(left, mid, right, legal, target, hmask))
        scores, _ = label_raw_scores(params, enc, left, mid, right, hmask)
        followed = follow(np.where(legal, scores, -np.inf), target)
        trace.append(RolloutStep(
            state, slot_action(chains, target), slot_action(chains, followed)
        ))
        return followed

    derive(n, chains, structural, label, edus)
    return TrainingExample(ids, steps, masks), trace


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Adaptive-moment gradient descent with global norm clipping.  `update`
    consumes the passed gradients: clipping scales them in place, and each
    then serves as its parameter's step buffer."""

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
        # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g**2 and
        # params -= lr * (m/c1) / (sqrt(v/c2) + eps), computed in place with
        # the same operations, so the result is that formula's bit for bit.
        for key, grad in grads.items():
            m, v = self.m[key], self.v[key]
            denom = np.square(grad)
            denom *= 1.0 - self.beta2
            v *= self.beta2
            v += denom
            m *= self.beta1
            grad *= 1.0 - self.beta1
            m += grad
            np.divide(v, correction2, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.epsilon
            np.divide(m, correction1, out=grad)
            grad /= denom
            grad *= self.learning_rate
            params[key] -= grad


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
    model_config = model_config or ModelConfig()
    params = init_parameters(vocab, model_config, rng)
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
