"""Boundary-feature encoder and span scorers, with exact gradients.

A document is embedded, run through two stacked bidirectional LSTM layers,
and every boundary position p in 0..n is represented by concatenating the
forward state at p and the backward state at p from both layers.  Three
feed-forward heads score the actions: shift from the top span's two
boundary vectors, combine from three (the boundary below the top span plus
the top span), and labeling from the span's two boundaries and its retained
midpoint, with one output per label chain plus a no-label slot.

Both layers are computed per document rather than per step.  Each LSTM's
input projection does not depend on the recurrence, so it is one matrix
product over all tokens, and backward keeps only the recurrence in its
time loop before finishing with matrix products over all steps.  A head's
first layer applied to concatenated boundary vectors is a sum of its
per-boundary column blocks, so `encode` projects every boundary through
every block once; a step's pre-activation is then a sum of two or three
projected rows, and backward collects per-boundary gradients that one
matrix product per block turns into weight and feature gradients.

Everything is float64 numpy with hand-written backpropagation, so gradient
correctness is checkable against central finite differences.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .trees import labeled_spans

UNK = "<unk>"
CHECKPOINT_VERSION = 1


class ModelError(ValueError):
    pass


@dataclass
class ModelConfig:
    word_dim: int = 50
    hidden_dim: int = 200     # per direction, per layer
    scorer_hidden: int = 200

    @property
    def boundary_dim(self):
        return 4 * self.hidden_dim  # 2 layers x 2 directions

    def to_dict(self):
        return {
            "word_dim": self.word_dim,
            "hidden_dim": self.hidden_dim,
            "scorer_hidden": self.scorer_hidden,
        }


class Vocabulary:
    """Token and label-chain inventories built from a training treebank."""

    def __init__(self, words, counts, chains):
        if not words or words[0] != UNK:
            raise ModelError("word list must start with the unknown-word slot")
        self.words = list(words)
        self.counts = dict(counts)
        self.chains = list(chains)
        self._word_ids = {w: i for i, w in enumerate(self.words)}
        self._chain_ids = {c: i + 1 for i, c in enumerate(self.chains)}

    @classmethod
    def from_treebank(cls, trees):
        counts = {}
        chains = set()
        for tree in trees:
            for token in tree.tokens:
                counts[token.text] = counts.get(token.text, 0) + 1
            chains.update(span.chain for span in labeled_spans(tree))
        return cls([UNK] + sorted(counts), counts, sorted(chains))

    @property
    def n_words(self):
        return len(self.words)

    @property
    def label_dim(self):
        return len(self.chains) + 1  # slot 0 is no-label

    def token_id(self, text):
        return self._word_ids.get(text, 0)

    def chain_id(self, chain):
        try:
            return self._chain_ids[chain]
        except KeyError:
            raise ModelError(f"label chain {chain!r} not in the inventory") from None

    def inventory(self):
        return [None] + self.chains

    def is_singleton(self, text):
        return self.counts.get(text, 0) == 1

    def to_dict(self):
        return {"words": self.words, "counts": self.counts, "chains": self.chains}

    @classmethod
    def from_dict(cls, data):
        return cls(data["words"], data["counts"], data["chains"])


# ---------------------------------------------------------------------------
# parameters


def _glorot(rng, rows, cols):
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


# Column blocks of each head's first layer, one per boundary vector it reads.
HEAD_BLOCKS = {"shift": 2, "combine": 3, "label": 3}


def parameter_shapes(vocab, config) -> dict:
    """Name -> shape of every parameter, in the order `init_parameters`
    draws them."""
    H, dw, hs = config.hidden_dim, config.word_dim, config.scorer_hidden
    shapes = {"embed": (vocab.n_words, dw)}
    for name, in_dim in (
        ("lstm1f", dw),
        ("lstm1b", dw),
        ("lstm2f", 2 * H),
        ("lstm2b", 2 * H),
    ):
        shapes[f"{name}.Wx"] = (4 * H, in_dim)
        shapes[f"{name}.Wh"] = (4 * H, H)
        shapes[f"{name}.b"] = (4 * H,)
    for head, blocks in HEAD_BLOCKS.items():
        shapes[f"{head}.W1"] = (hs, blocks * config.boundary_dim)
        shapes[f"{head}.b1"] = (hs,)
        if head == "label":
            shapes["label.W2"] = (vocab.label_dim, hs)
            shapes["label.b2"] = (vocab.label_dim,)
        else:
            shapes[f"{head}.w2"] = (hs,)
            shapes[f"{head}.b2"] = (1,)
    return shapes


def init_parameters(vocab, config, rng) -> dict:
    """Fresh float64 parameters for the given vocabulary and dimensions."""
    params = {}
    for key, shape in parameter_shapes(vocab, config).items():
        kind = key.rpartition(".")[2]
        if key == "embed":
            params[key] = rng.uniform(-0.1, 0.1, size=shape)
        elif kind == "w2":
            params[key] = _glorot(rng, 1, shape[0])[0]
        elif kind[0] == "W":
            params[key] = _glorot(rng, *shape)
        else:
            params[key] = np.zeros(shape)
            if kind == "b":  # forget-gate bias keeps early memory open
                params[key][config.hidden_dim : 2 * config.hidden_dim] = 1.0
    return params


def zero_gradients(params) -> dict:
    return {k: np.zeros_like(v) for k, v in params.items()}


# ---------------------------------------------------------------------------
# LSTM primitives


def _sigmoid(x):
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, so exp never overflows
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


@dataclass
class _LstmCache:
    xs: np.ndarray          # (n, in_dim)
    states: np.ndarray      # (n+1, H); states[t] = hidden after t inputs
    cells: np.ndarray       # (n+1, H)
    gates: np.ndarray       # (n, 4H): sigmoid i, f, o and tanh g per step
    tanh_cells: np.ndarray  # (n, H)


def _lstm_forward(Wx, Wh, b, xs) -> _LstmCache:
    n = xs.shape[0]
    H = Wh.shape[1]
    inputs = xs @ Wx.T + b
    states = np.zeros((n + 1, H))
    cells = np.zeros((n + 1, H))
    gates = np.empty((n, 4 * H))
    tanh_cells = np.empty((n, H))
    for t in range(n):
        z = inputs[t] + Wh @ states[t]
        gates[t, : 3 * H] = _sigmoid(z[: 3 * H])
        gates[t, 3 * H :] = np.tanh(z[3 * H :])
        i, f, o, g = gates[t].reshape(4, H)
        cells[t + 1] = f * cells[t] + i * g
        np.tanh(cells[t + 1], out=tanh_cells[t])
        np.multiply(o, tanh_cells[t], out=states[t + 1])
    return _LstmCache(xs, states, cells, gates, tanh_cells)


def _lstm_backward(Wx, Wh, cache, d_states):
    """Backpropagate through the whole run.

    `d_states` holds the external gradient arriving at each hidden state
    (boundary reads plus next-layer inputs).  Returns the input gradients
    and the parameter gradients.
    """
    n = cache.xs.shape[0]
    H = Wh.shape[1]
    i, f, o, g = np.split(cache.gates, 4, axis=1)
    tc = cache.tanh_cells
    # Row t of dZ starts as step t's local derivatives, the factors that
    # scale the cell gradient into the i, f and g blocks and the hidden
    # gradient into the o block; the loop scales them in place.
    dZ = np.concatenate(
        [g * i * (1.0 - i), cache.cells[:-1] * f * (1.0 - f),
         tc * o * (1.0 - o), i * (1.0 - g * g)],
        axis=1,
    )
    dc_dh = o * (1.0 - tc * tc)
    dh = np.zeros(H)
    dc = np.zeros(H)
    for t in range(n - 1, -1, -1):
        dh += d_states[t + 1]
        dc += dh * dc_dh[t]
        dz = dZ[t].reshape(4, H)
        dz[:2] *= dc
        dz[2] *= dh
        dz[3] *= dc
        dh = dZ[t] @ Wh
        dc *= f[t]
    return dZ @ Wx, dZ.T @ cache.xs, dZ.T @ cache.states[:-1], dZ.sum(axis=0)


# ---------------------------------------------------------------------------
# encoding


@dataclass
class DropoutMasks:
    layer1: np.ndarray    # (n, 2H) on the first layer's per-token outputs
    features: np.ndarray  # (n+1, 4H) on the boundary features


def make_dropout_masks(n, config, rate, rng) -> DropoutMasks | None:
    """Inverted-dropout masks at the recurrent-output sites (one draw per
    document pass); scorer-hidden masks are drawn per step by the trainer."""
    if rate <= 0.0:
        return None
    keep = 1.0 - rate
    H, D = config.hidden_dim, config.boundary_dim
    return DropoutMasks(
        layer1=(rng.random((n, 2 * H)) < keep) / keep,
        features=(rng.random((n + 1, D)) < keep) / keep,
    )


def sample_hidden_mask(config, rate, rng):
    if rate <= 0.0:
        return None
    keep = 1.0 - rate
    return (rng.random(config.scorer_hidden) < keep) / keep


@dataclass
class Encoding:
    ids: np.ndarray
    boundary: np.ndarray          # (n+1, 4H) after feature dropout
    # head -> boundary @ W1-block.T per column block, each (n+1, scorer_hidden)
    heads: dict = field(repr=False, default_factory=dict)
    caches: dict = field(repr=False, default_factory=dict)
    masks: DropoutMasks | None = None

    @property
    def n(self):
        return len(self.ids)


def encode(params, ids, masks: DropoutMasks | None = None) -> Encoding:
    """Boundary features for one document (n >= 1 token ids)."""
    ids = np.asarray(ids, dtype=int)
    n = len(ids)
    if n == 0:
        raise ModelError("cannot encode an empty document")
    E = params["embed"][ids]
    c1f = _lstm_forward(params["lstm1f.Wx"], params["lstm1f.Wh"], params["lstm1f.b"], E)
    c1b = _lstm_forward(
        params["lstm1b.Wx"], params["lstm1b.Wh"], params["lstm1b.b"], E[::-1]
    )
    out1 = np.concatenate([c1f.states[1:], c1b.states[1:][::-1]], axis=1)
    if masks is not None:
        out1 *= masks.layer1
    c2f = _lstm_forward(
        params["lstm2f.Wx"], params["lstm2f.Wh"], params["lstm2f.b"], out1
    )
    c2b = _lstm_forward(
        params["lstm2b.Wx"], params["lstm2b.Wh"], params["lstm2b.b"], out1[::-1]
    )
    F = np.concatenate(
        [c1f.states, c1b.states[::-1], c2f.states, c2b.states[::-1]], axis=1
    )
    if masks is not None:
        F *= masks.features
    caches = {"l1f": c1f, "l1b": c1b, "l2f": c2f, "l2b": c2b}
    D = F.shape[1]
    heads = {
        head: [
            F @ params[f"{head}.W1"][:, k * D : (k + 1) * D].T for k in range(blocks)
        ]
        for head, blocks in HEAD_BLOCKS.items()
    }
    return Encoding(ids=ids, boundary=F, heads=heads, caches=caches, masks=masks)


def _encoder_backward(params, enc: Encoding, dF_out) -> dict:
    """Push boundary-feature gradients back to every encoder parameter.
    Each layer's cache leaves `enc` as its backward pass uses it, which
    lowers the peak memory of training."""
    H = params["lstm1f.Wh"].shape[1]
    grads = {}
    dF = dF_out * enc.masks.features if enc.masks is not None else dF_out

    d2f = dF[:, 2 * H : 3 * H].copy()
    d2b = dF[:, 3 * H : 4 * H][::-1].copy()
    d_out1d_f, grads["lstm2f.Wx"], grads["lstm2f.Wh"], grads["lstm2f.b"] = (
        _lstm_backward(
            params["lstm2f.Wx"], params["lstm2f.Wh"], enc.caches.pop("l2f"), d2f
        )
    )
    d_out1d_b, grads["lstm2b.Wx"], grads["lstm2b.Wh"], grads["lstm2b.b"] = (
        _lstm_backward(
            params["lstm2b.Wx"], params["lstm2b.Wh"], enc.caches.pop("l2b"), d2b
        )
    )
    d_out1d = d_out1d_f + d_out1d_b[::-1]
    d_out1 = d_out1d * enc.masks.layer1 if enc.masks is not None else d_out1d

    d1f = dF[:, 0:H].copy()
    d1f[1:] += d_out1[:, :H]
    d1b = dF[:, H : 2 * H][::-1].copy()
    d1b[1:] += d_out1[::-1, H:]
    dE_f, grads["lstm1f.Wx"], grads["lstm1f.Wh"], grads["lstm1f.b"] = _lstm_backward(
        params["lstm1f.Wx"], params["lstm1f.Wh"], enc.caches.pop("l1f"), d1f
    )
    dE_b, grads["lstm1b.Wx"], grads["lstm1b.Wh"], grads["lstm1b.b"] = _lstm_backward(
        params["lstm1b.Wx"], params["lstm1b.Wh"], enc.caches.pop("l1b"), d1b
    )
    dE = dE_f + dE_b[::-1]
    grads["embed"] = np.zeros_like(params["embed"])
    np.add.at(grads["embed"], enc.ids, dE)
    return grads


# ---------------------------------------------------------------------------
# scoring heads


def _head_forward(params, enc, head, positions, hmask):
    pre = params[f"{head}.b1"]
    for rows, p in zip(enc.heads[head], positions):
        if p >= 0:  # the sentinel boundary -1 reads a zero vector
            pre = pre + rows[p]
    hidden = np.maximum(pre, 0.0)
    if hmask is not None:
        hidden = hidden * hmask
    return pre, hidden


def _head_backward(grads, dheads, head, cache, dhidden, hmask):
    """Back through the ReLU layer; each read boundary's row of `dheads`
    collects the pre-activation gradient."""
    positions, pre, _ = cache
    if hmask is not None:
        dhidden = dhidden * hmask
    dpre = dhidden * (pre > 0)
    grads[f"{head}.b1"] += dpre
    for drows, p in zip(dheads[head], positions):
        if p >= 0:
            drows[p] += dpre


def _scalar_score(params, enc, head, positions, hmask):
    pre, hidden = _head_forward(params, enc, head, positions, hmask)
    score = params[f"{head}.w2"] @ hidden + params[f"{head}.b2"][0]
    return score, (positions, pre, hidden)


def _scalar_backward(params, grads, dheads, head, cache, dscore, hmask):
    _, _, hidden = cache
    grads[f"{head}.w2"] += dscore * hidden
    grads[f"{head}.b2"][0] += dscore
    dhidden = dscore * params[f"{head}.w2"]
    _head_backward(grads, dheads, head, cache, dhidden, hmask)


def _label_score(params, enc, positions, hmask):
    pre, hidden = _head_forward(params, enc, "label", positions, hmask)
    scores = params["label.W2"] @ hidden + params["label.b2"]
    return scores, (positions, pre, hidden)


def _label_backward(params, grads, dheads, cache, dscores, hmask):
    _, _, hidden = cache
    grads["label.W2"] += np.outer(dscores, hidden)
    grads["label.b2"] += dscores
    dhidden = dscores @ params["label.W2"]
    _head_backward(grads, dheads, "label", cache, dhidden, hmask)


def _projection_backward(params, grads, enc, dheads):
    """Turn per-boundary pre-activation gradients into W1 gradients and the
    boundary-feature gradient, one matrix product each per column block."""
    dF = np.zeros_like(enc.boundary)
    D = dF.shape[1]
    for head, blocks in dheads.items():
        for k, drows in enumerate(blocks):
            cols = slice(k * D, (k + 1) * D)
            grads[f"{head}.W1"][:, cols] += drows.T @ enc.boundary
            dF += drows @ params[f"{head}.W1"][:, cols]
    return dF


# ---------------------------------------------------------------------------
# step targets and the loss


@dataclass
class StructuralStep:
    below: int           # left boundary of the span under the top one, or -1
    left: int
    right: int
    can_shift: bool
    can_combine: bool
    target: int          # 0 = shift, 1 = combine
    hmask_shift: np.ndarray | None = None
    hmask_combine: np.ndarray | None = None


@dataclass
class LabelStep:
    left: int
    mid: int
    right: int
    mask_nolabel: bool                 # the full-document span must be labeled
    target: int                        # 0 = no-label, k = chain k
    allowed: np.ndarray | None = None  # optional bool mask over label slots
    hmask: np.ndarray | None = None


def structural_raw_scores(params, enc, step: StructuralStep):
    s_sh, cache_sh = _scalar_score(
        params, enc, "shift", (step.left, step.right), step.hmask_shift
    )
    s_cb, cache_cb = _scalar_score(
        params,
        enc,
        "combine",
        (step.below, step.left, step.right),
        step.hmask_combine,
    )
    return np.array([s_sh, s_cb]), (cache_sh, cache_cb)


def label_raw_scores(params, enc, step: LabelStep):
    return _label_score(params, enc, (step.left, step.mid, step.right), step.hmask)


def _masked_log_probs(scores, legal):
    masked = np.where(legal, scores, -np.inf)
    top = np.max(masked)
    if not np.isfinite(top):
        raise ModelError("no legal action to normalize over")
    logz = top + np.log(np.sum(np.exp(masked - top)))
    return masked - logz


def loss_and_gradients(params, ids, steps, masks: DropoutMasks | None = None):
    """Summed negative log-likelihood of the per-step targets, with exact
    gradients for every parameter.  Raises on a non-finite loss."""
    enc = encode(params, ids, masks)
    # Encoder gradients arrive whole from _encoder_backward; zero arrays for
    # them would only raise the peak memory.
    grads = zero_gradients(
        {k: v for k, v in params.items() if k.partition(".")[0] in HEAD_BLOCKS}
    )
    dheads = {
        head: [np.zeros_like(rows) for rows in blocks]
        for head, blocks in enc.heads.items()
    }
    loss = 0.0
    label_dim = params["label.b2"].shape[0]

    for index, step in enumerate(steps):
        try:
            loss = _step_loss(params, enc, grads, dheads, loss, label_dim, step)
        except ModelError as err:
            raise ModelError(f"step {index} ({step!r}): {err}") from None
        if not np.isfinite(loss):
            raise ModelError(f"non-finite loss at step {index}: {step!r}")

    dF = _projection_backward(params, grads, enc, dheads)
    del dheads, enc.heads  # free the projected rows before the encoder's backward
    grads.update(_encoder_backward(params, enc, dF))
    return float(loss), {key: grads[key] for key in params}


def _step_loss(params, enc, grads, dheads, loss, label_dim, step):
    if isinstance(step, StructuralStep):
        scores, caches = structural_raw_scores(params, enc, step)
        legal = np.array([step.can_shift, step.can_combine])
        logp = _masked_log_probs(scores, legal)
        loss -= logp[step.target]
        dscores = np.where(legal, np.exp(logp), 0.0)
        dscores[step.target] -= 1.0
        if dscores[0] != 0.0:
            _scalar_backward(
                params, grads, dheads, "shift", caches[0], dscores[0],
                step.hmask_shift,
            )
        if dscores[1] != 0.0:
            _scalar_backward(
                params, grads, dheads, "combine", caches[1], dscores[1],
                step.hmask_combine,
            )
    else:
        scores, cache = label_raw_scores(params, enc, step)
        legal = (
            step.allowed.copy()
            if step.allowed is not None
            else np.ones(label_dim, dtype=bool)
        )
        if step.mask_nolabel:
            legal[0] = False
        logp = _masked_log_probs(scores, legal)
        loss -= logp[step.target]
        dscores = np.where(legal, np.exp(logp), 0.0)
        dscores[step.target] -= 1.0
        _label_backward(params, grads, dheads, cache, dscores, step.hmask)
    return loss


# ---------------------------------------------------------------------------
# spec-shaped scoring surfaces


def score_structural(params, enc, state):
    """Masked log-probabilities over (shift, combine) for a structural state."""
    from .transition import COMBINE_ACTION, SHIFT_ACTION, legal_actions

    legal = legal_actions(state)
    below = state.boundaries[-3] if len(state.boundaries) >= 4 else -1
    left, right = state.top
    step = StructuralStep(
        below=below,
        left=left,
        right=right,
        can_shift=SHIFT_ACTION in legal,
        can_combine=COMBINE_ACTION in legal,
        target=0,
    )
    scores, _ = structural_raw_scores(params, enc, step)
    return _masked_log_probs(scores, np.array([step.can_shift, step.can_combine]))


def score_labels(params, enc, state):
    """Masked log-probabilities over (no-label, chain 1..K) for a label state."""
    left, right = state.top
    step = LabelStep(
        left=left,
        mid=state.midpoint,
        right=right,
        mask_nolabel=(left, right) == (0, enc.n),
        target=0,
    )
    scores, _ = label_raw_scores(params, enc, step)
    legal = np.ones(params["label.b2"].shape[0], dtype=bool)
    if step.mask_nolabel:
        legal[0] = False
    return _masked_log_probs(scores, legal)


class SpanScorer:
    """Inference-time scorer bound to one parameter set; feed to parse_greedy."""

    def __init__(self, params, vocab):
        self.params = params
        self.vocab = vocab
        self.enc = None

    def prepare(self, words):
        ids = [self.vocab.token_id(w) for w in words]
        self.enc = encode(self.params, ids)

    def structural(self, below, left, right):
        step = StructuralStep(
            below=below, left=left, right=right,
            can_shift=True, can_combine=True, target=0,
        )
        scores, _ = structural_raw_scores(self.params, self.enc, step)
        return scores

    def labels(self, left, mid, right):
        step = LabelStep(left=left, mid=mid, right=right, mask_nolabel=False, target=0)
        scores, _ = label_raw_scores(self.params, self.enc, step)
        return scores

    def inventory(self):
        return self.vocab.inventory()


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, params, vocab, config) -> None:
    meta = json.dumps(
        {
            "version": CHECKPOINT_VERSION,
            "config": config.to_dict(),
            "vocabulary": vocab.to_dict(),
        }
    )
    arrays = dict(params)
    arrays["__meta__"] = np.array(meta)
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)


def load_checkpoint(path):
    """Returns (params, vocab, config); validates shapes and finiteness."""
    with np.load(path, allow_pickle=False) as data:
        if "__meta__" not in data:
            raise ModelError(f"{path}: not a checkpoint (missing metadata)")
        meta = json.loads(str(data["__meta__"]))
        params = {k: data[k] for k in data.files if k != "__meta__"}
    if meta.get("version") != CHECKPOINT_VERSION:
        raise ModelError(f"unsupported checkpoint version {meta.get('version')!r}")
    config = ModelConfig(**meta["config"])
    vocab = Vocabulary.from_dict(meta["vocabulary"])
    expected = parameter_shapes(vocab, config)
    if set(expected) != set(params):
        missing = sorted(set(expected) ^ set(params))
        raise ModelError(f"checkpoint parameter names do not match: {missing}")
    for key, shape in expected.items():
        array = params[key] = np.asarray(params[key], dtype=np.float64)
        if array.shape != shape:
            raise ModelError(
                f"checkpoint {key} has shape {array.shape}, expected {shape}"
            )
        if not np.isfinite(array).all():
            raise ModelError(f"checkpoint {key} holds non-finite values")
    return params, vocab, config
