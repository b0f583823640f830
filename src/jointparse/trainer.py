"""Training with exploration against the dynamic oracle.

Each document is rolled out step by step on the transition driver
(`transition.derive`), over tokens or, in gold-EDU mode, over the gold
EDUs, exactly as greedy decoding runs.  `rollout` supplies the two
choosers.  At every structural step the model picks with
`transition.best_structural`, greedy decoding's rule: the legal action
with the higher score, shift on a tie, and a non-finite pick raises,
which `train` reports as `TrainingDiverged`.  The oracle supplies the set
of loss-free actions; the target is the model's pick where that set holds
both actions, else its one action.  The chooser returns the target with
probability beta or the model's pick otherwise, so the scorer also sees
states its mistakes would lead to.  A label action never moves the stack,
so a label step returns its gold target unscored.  Each step draws its
hidden dropout masks (shift then combine, or the label mask), then the
beta draw, which a label step ignores: it is kept only to fix the random
stream.  The rollout's encoding, with its LSTM caches and dropout masks,
goes with the steps to the loss, so each training document is encoded
once per epoch.  Updates are per document; the best-dev checkpoint is
retained.
"""

import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from . import evaluate
from .model import (
    AT_LEAST_1,
    Encoding,
    LabelStep,
    ModelConfig,
    SpanScorer,
    StructuralStep,
    Vocabulary,
    aligned_views,
    check_config,
    encode,
    init_parameters,
    loss_and_gradients,
    make_dropout_masks,
    sample_hidden_mask,
    save_checkpoint,
    structural_raw_scores,
)
from .transition import (
    STRUCTURAL_ACTIONS,
    best_structural,
    derive,
    dynamic_oracle,
    gold_index,
    parse_documents,
    unit_gold_map,
)
from .trees import extract_edus

END_TO_END = "end2end"
GOLD_EDU = "goldedu"


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainConfig:
    beta: float = 0.8          # chance a structural step follows the oracle
    dropout: float = 0.5
    epochs: int = 20
    seed: int = 1
    dev_size: int = 30
    learning_rate: float = 1e-3
    clip_norm: float = 5.0
    mode: str = END_TO_END
    unk_replace: float = 0.25  # chance of hiding a singleton token

    def __post_init__(self):
        unit = (lambda value: 0.0 <= value <= 1.0, "in [0, 1]")
        at_least_0 = (lambda value: value >= 0, "at least 0")
        check_config(
            self, ValueError, beta=unit, unk_replace=unit, epochs=AT_LEAST_1,
            seed=at_least_0, dev_size=at_least_0, clip_norm=at_least_0,
            dropout=(lambda value: 0.0 <= value < 1.0, "in [0, 1)"),
            learning_rate=(lambda value: value > 0.0, "above 0"),
            mode=(lambda value: value in (END_TO_END, GOLD_EDU),
                  f"{END_TO_END!r} or {GOLD_EDU!r}"),
        )


@dataclass
class TrainingExample:
    enc: Encoding    # consumed by `loss_and_gradients`
    steps: list


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
    """One pass over a document; returns its TrainingExample, the encoding
    the choosers scored on and the per-step targets, which the loss needs,
    and keeps nothing else.  Steps run over units: tokens, or EDUs in
    gold-EDU mode, where only discourse spans are targets."""
    n = len(gold.tokens)
    edus = extract_edus(gold) if config.mode == GOLD_EDU else None
    gold_map = unit_gold_map(gold, edus)
    index = gold_index(gold_map)
    ids = _token_ids(gold, vocab, config, rng)
    masks = make_dropout_masks(n, model_config, config.dropout, rng)
    enc = encode(params, ids, masks)
    steps = []

    def hidden_mask():
        return sample_hidden_mask(model_config, config.dropout, rng)

    def structural(state, below, left, right, legal):
        hmasks = hidden_mask(), hidden_mask()
        scores = structural_raw_scores(params, enc, below, left, right, *hmasks)
        best = best_structural(*scores, legal)
        oracle = dynamic_oracle(state, index)
        # The model's pick where both actions are loss-free, else the oracle's one.
        target = best if len(oracle) == 2 else STRUCTURAL_ACTIONS.index(*oracle)
        steps.append(StructuralStep(below, left, right, legal, target, *hmasks))
        # The oracle's target with probability beta, else the model's choice.
        return target if rng.random() < config.beta else best

    def label(state, left, mid, right, legal):
        hmask = hidden_mask()
        gold_chain = gold_map.get(state.top)
        target = vocab.chain_id(gold_chain) if gold_chain is not None else 0
        if not legal[target]:
            raise TrainingDiverged(f"gold tree has no legal label for span {state.top}")
        steps.append(LabelStep(left, mid, right, legal, target, hmask))
        rng.random()  # the unused beta draw keeps the random stream fixed
        return target

    derive(n, vocab.inventory(), structural, label, edus)
    return TrainingExample(enc, steps)


# ---------------------------------------------------------------------------
# optimizer


# Adam's moment decay rates and denominator offset.
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


class Adam:
    """Adaptive-moment gradient descent with global norm clipping.  `update`
    consumes the passed gradients: clipping scales them in place, and each
    then serves as its parameter's step buffer."""

    def __init__(self, params, learning_rate=1e-3, clip_norm=5.0):
        self.learning_rate = learning_rate
        self.clip_norm = clip_norm
        # Zeroed now: lazily zeroed pages cost more at the first update.
        shapes = {key: array.shape for key, array in params.items()}
        self.m, self.v = aligned_views(shapes), aligned_views(shapes)
        for moment in (*self.m.values(), *self.v.values()):
            moment.fill(0.0)
        self.t = 0

    def update(self, params, grads):
        self.t += 1
        if self.clip_norm > 0.0:
            total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
            if total > self.clip_norm:
                scale = self.clip_norm / total
                for grad in grads.values():
                    grad *= scale
        correction1 = 1.0 - BETA1 ** self.t
        correction2 = 1.0 - BETA2 ** self.t
        # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g**2 and
        # params -= lr * (m/c1) / (sqrt(v/c2) + eps), computed in place with
        # the same operations, so the result is that formula's bit for bit.
        for key, grad in grads.items():
            m, v = self.m[key], self.v[key]
            denom = np.square(grad)
            denom *= 1.0 - BETA2
            v *= BETA2
            v += denom
            m *= BETA1
            grad *= 1.0 - BETA1
            m += grad
            np.divide(v, correction2, out=denom)
            np.sqrt(denom, out=denom)
            denom += EPSILON
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
    documents = [[t.text for t in gold.tokens] for gold in dev_docs]
    edus = [extract_edus(gold) for gold in dev_docs] if mode == GOLD_EDU else None
    preds = parse_documents(SpanScorer(params, vocab), documents, edus)
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
        started = time.perf_counter()
        total_loss = 0.0
        for doc_index in rng.permutation(len(train_docs)):
            gold = train_docs[doc_index]
            try:
                example = rollout(gold, params, vocab, model_config, config, rng)
                if not example.steps:
                    continue  # single-EDU document in gold-EDU mode: fully forced
                loss, grads = loss_and_gradients(params, example.enc, example.steps)
            except ValueError as err:
                raise TrainingDiverged(
                    f"epoch {epoch}, document {doc_index}: {err}"
                ) from err
            total_loss += loss
            adam.update(params, grads)
            # Free the document's arrays before the next rollout and dev decoding.
            example = grads = None

        metrics = dev_metrics(params, vocab, dev_docs, config.mode)
        entry = {
            "epoch": epoch,
            "loss": round(total_loss, 6),
            "dev_overall_f1": metrics["overall_f1"],
            "dev_struct_f1": metrics["struct_f1"],
            "dev_nuc_f1": metrics["nuc_f1"],
            "dev_rel_f1": metrics["rel_f1"],
            "seconds": round(time.perf_counter() - started, 3),
        }
        result.history.append(entry)
        if log is not None:
            log(
                "epoch {epoch}: loss {loss:.3f} dev overall {dev_overall_f1:.2f} "
                "struct {dev_struct_f1:.2f} nuc {dev_nuc_f1:.2f} "
                "rel {dev_rel_f1:.2f} ({seconds:.1f}s)".format(**entry)
            )
        if out_dir is not None:
            epoch_path = f"{out_dir}/epoch-{epoch}.ckpt"
            save_checkpoint(epoch_path, params, vocab, model_config)
        if metrics[selection] >= result.best_f1:
            result.best_f1 = metrics[selection]
            result.best_epoch = epoch
            if epoch == config.epochs:  # no update follows: keep the live arrays
                result.params = params
            else:
                if result.params is params:  # once, in the freed gradients' place
                    result.params = {k: np.empty_like(v) for k, v in params.items()}
                for key, array in params.items():
                    np.copyto(result.params[key], array)
            if out_dir is not None:
                _publish(epoch_path, f"{out_dir}/best.ckpt")
    return result


def _publish(source, target):
    """Make `target` a hard link to `source`, renamed into place, or a copy
    where the file system refuses the link.  `save_checkpoint` replaces
    files rather than rewriting them, so the link keeps its contents."""
    partial = f"{target}.{os.getpid()}.tmp"
    try:
        os.link(source, partial)
    except OSError:
        shutil.copyfile(source, partial)
    os.replace(partial, target)
