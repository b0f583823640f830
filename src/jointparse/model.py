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

The per-step work left in Python loops is kept to few numpy calls.  The
recurrence writes into preallocated rows and computes all four gates with
one tanh, using sigmoid(z) = tanh(z/2)/2 + 1/2 on rows pre-scaled by 1/2.
The loss stacks its steps by kind, in fixed-size blocks: one gather of
projected rows, one product per head for the scores and for the output
layer's gradients, and one scatter of the pre-activation gradients into
the per-boundary rows; the loss itself is summed in step order.

Everything is float64 numpy with hand-written backpropagation, so gradient
correctness is checkable against central finite differences.
"""

import json
from dataclasses import asdict, dataclass, field, fields

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
        if len(self._word_ids) != len(self.words):
            raise ModelError("word list holds duplicate words")
        if len(self._chain_ids) != len(self.chains):
            raise ModelError("label chain list holds duplicate chains")
        if not all(isinstance(c, str) and c for c in self.chains):
            raise ModelError("label chains must be non-empty strings")

    @classmethod
    def from_treebank(cls, trees):
        counts = {}
        chains = set()
        for tree in trees:
            for token in tree.tokens:
                counts[token.text] = counts.get(token.text, 0) + 1
            chains.update(span.chain for span in labeled_spans(tree))
        # A literal unknown-word token shares the unknown-word slot.
        return cls([UNK] + sorted(counts.keys() - {UNK}), counts, sorted(chains))

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
        missing = sorted({"words", "counts", "chains"} - set(data))
        if missing:
            raise ModelError(f"vocabulary lacks {', '.join(missing)}")
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
    # sigmoid(z) = tanh(z/2)/2 + 1/2.  Halving the i, f and o pre-activations
    # is exact in binary floating point, so one tanh over all 4H per step
    # yields every gate; the first 3H are then mapped onto (0, 1) in place.
    inputs = xs @ Wx.T + b
    inputs[:, : 3 * H] *= 0.5
    Wh = Wh.copy()
    Wh[: 3 * H] *= 0.5
    states = np.zeros((n + 1, H))
    cells = np.zeros((n + 1, H))
    gates = np.empty((n, 4 * H))
    tanh_cells = np.empty((n, H))
    i, f, o, g = (gates[:, k * H : (k + 1) * H] for k in range(4))
    ig = np.empty(H)
    for t in range(n):
        z = gates[t]
        np.dot(Wh, states[t], out=z)
        z += inputs[t]
        np.tanh(z, out=z)
        s = z[: 3 * H]
        s *= 0.5
        s += 0.5
        np.multiply(f[t], cells[t], out=cells[t + 1])
        np.multiply(i[t], g[t], out=ig)
        cells[t + 1] += ig
        np.tanh(cells[t + 1], out=tanh_cells[t])
        np.multiply(o[t], tanh_cells[t], out=states[t + 1])
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
    dZ4 = dZ.reshape(n, 4, H)
    dh = np.zeros(H)
    dc = np.zeros(H)
    dh_dc = np.empty(H)
    for t in range(n - 1, -1, -1):
        dh += d_states[t + 1]
        np.multiply(dh, dc_dh[t], out=dh_dc)
        dc += dh_dc
        dz = dZ4[t]
        dz[:2] *= dc
        dz[2] *= dh
        dz[3] *= dc
        np.dot(dZ[t], Wh, out=dh)
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
    boundary: np.ndarray | None   # (n+1, 4H) after feature dropout
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


def _scalar_score(params, enc, head, positions, hmask):
    pre, hidden = _head_forward(params, enc, head, positions, hmask)
    score = params[f"{head}.w2"] @ hidden + params[f"{head}.b2"][0]
    return score, (positions, pre, hidden)


def _label_score(params, enc, positions, hmask):
    pre, hidden = _head_forward(params, enc, "label", positions, hmask)
    scores = params["label.W2"] @ hidden + params["label.b2"]
    return scores, (positions, pre, hidden)


# Per head: the step fields holding the boundaries it reads, and its mask.
_HEAD_FIELDS = {
    "shift": (("left", "right"), "hmask_shift"),
    "combine": (("below", "left", "right"), "hmask_combine"),
    "label": (("left", "mid", "right"), "hmask"),
}


def _stack_masks(hmasks):
    """Per-step hidden masks as rows of one array, where a step without a
    mask reads ones; None when no step has one."""
    shapes = {m.shape for m in hmasks if m is not None}
    if not shapes:
        return None
    ones = np.ones(shapes.pop())
    return np.array([ones if m is None else m for m in hmasks])


def _block_loss(params, enc, grads, dheads, steps):
    """Per-step negative log-likelihoods of steps of one kind, with each
    head's forward and backward done as stacked products over the steps.
    Gradients accumulate into `grads`, and each read boundary's row of
    `dheads` collects its steps' pre-activation gradients."""
    heads = ("label",) if isinstance(steps[0], LabelStep) else ("shift", "combine")
    layers, scores = [], []
    for head in heads:
        reads, mask_field = _HEAD_FIELDS[head]
        positions = np.array([[getattr(s, r) for s in steps] for r in reads])
        hmasks = _stack_masks([getattr(s, mask_field) for s in steps])
        pre = params[f"{head}.b1"]
        for rows, p in zip(enc.heads[head], positions):
            # the sentinel boundary -1 reads a zero vector
            pre = pre + np.where((p >= 0)[:, None], rows[p], 0.0)
        hidden = np.maximum(pre, 0.0)
        if hmasks is not None:
            hidden *= hmasks
        out = "label.W2" if head == "label" else f"{head}.w2"
        W2 = params[out].reshape(-1, hidden.shape[1])  # a scalar head's w2: one row
        scores.append(hidden @ W2.T + params[f"{head}.b2"])
        layers.append((head, positions, hmasks, pre, hidden, out, W2))
    legal = np.array([s.legal for s in steps], dtype=bool)
    nll, dscores = _masked_nll(np.hstack(scores), legal, [s.target for s in steps])
    splits = np.cumsum([block.shape[1] for block in scores])[:-1]
    for (head, positions, hmasks, pre, hidden, out, W2), d in zip(
        layers, np.hsplit(dscores, splits)
    ):
        dW2 = grads[out].reshape(W2.shape)
        dW2 += d.T @ hidden
        grads[f"{head}.b2"] += d.sum(axis=0)
        dpre = d @ W2
        if hmasks is not None:
            dpre *= hmasks
        dpre *= pre > 0
        grads[f"{head}.b1"] += dpre.sum(axis=0)
        for drows, p in zip(dheads[head], positions):
            read = p >= 0
            np.add.at(drows, p[read], dpre[read])
    return nll


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
    """A structural decision; `legal` is the (shift, combine) mask the
    transition driver handed the chooser."""

    below: int           # left boundary of the span under the top one, or -1
    left: int
    right: int
    legal: tuple
    target: int          # 0 = shift, 1 = combine
    hmask_shift: np.ndarray | None = None
    hmask_combine: np.ndarray | None = None


@dataclass
class LabelStep:
    """A labeling decision; `legal` is the driver's bool mask over the label
    slots (no-label first), which bars no-label at the full-document span."""

    left: int
    mid: int
    right: int
    legal: np.ndarray
    target: int          # 0 = no-label, k = chain k
    hmask: np.ndarray | None = None


def structural_raw_scores(params, enc, below, left, right,
                          hmask_shift=None, hmask_combine=None):
    """Unmasked (shift, combine) scores of the top span (left, right) over
    the span starting at `below`, and each head's (positions, pre-activation,
    hidden) values."""
    s_sh, cache_sh = _scalar_score(params, enc, "shift", (left, right), hmask_shift)
    s_cb, cache_cb = _scalar_score(
        params, enc, "combine", (below, left, right), hmask_combine
    )
    return np.array([s_sh, s_cb]), (cache_sh, cache_cb)


def label_raw_scores(params, enc, left, mid, right, hmask=None):
    """Unmasked scores over the label slots of the span (left, right) split
    at `mid`, and the head's (positions, pre-activation, hidden) values."""
    return _label_score(params, enc, (left, mid, right), hmask)


def _masked_nll(scores, legal, target):
    """Per row, the negative log-likelihood of `target` under a softmax over
    the legal slots, and its gradient with respect to the raw scores.  Every
    target must be legal."""
    rows = np.arange(len(target))
    masked = np.where(legal, scores, -np.inf)
    top = np.max(masked, axis=1, keepdims=True)
    logp = masked - (top + np.log(np.sum(np.exp(masked - top), axis=1, keepdims=True)))
    dscores = np.where(legal, np.exp(logp), 0.0)
    dscores[rows, target] -= 1.0
    return -logp[rows, target], dscores


# Steps per stacked product in the loss: bounds its temporaries at any length.
LOSS_BLOCK = 256


def loss_and_gradients(params, ids, steps, masks: DropoutMasks | None = None):
    """Summed negative log-likelihood of the per-step targets, with exact
    gradients for every parameter.  Steps of one kind are scored together
    in blocks of LOSS_BLOCK, and the loss is summed in step order.  Raises
    on an illegal target or a non-finite loss, naming the first bad step."""
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
    # Only the steps before the first illegal target are scored.
    scored = next(
        (k for k, step in enumerate(steps) if not step.legal[step.target]), len(steps)
    )
    nll = np.zeros(scored)
    for label in (False, True):
        index = [k for k in range(scored) if isinstance(steps[k], LabelStep) == label]
        for start in range(0, len(index), LOSS_BLOCK):
            block = index[start : start + LOSS_BLOCK]
            nll[block] = _block_loss(
                params, enc, grads, dheads, [steps[k] for k in block]
            )
    running = np.cumsum(nll)  # sequential sums: entry k is the loss to step k
    bad = np.flatnonzero(~np.isfinite(running))
    if bad.size:
        raise ModelError(f"non-finite loss at step {bad[0]}: {steps[bad[0]]!r}")
    if scored < len(steps):
        step = steps[scored]
        raise ModelError(
            f"step {scored} ({step!r}): target slot {step.target} is not legal"
        )

    dF = _projection_backward(params, grads, enc, dheads)
    del dheads, enc.heads  # free the projected rows before the encoder's backward
    grads.update(_encoder_backward(params, enc, dF))
    return float(running[-1]) if scored else 0.0, {key: grads[key] for key in params}


# ---------------------------------------------------------------------------
# inference


class SpanScorer:
    """Inference-time scorer bound to one parameter set; feed to parse_greedy."""

    def __init__(self, params, vocab):
        self.params = params
        self.vocab = vocab
        self.enc = None

    def prepare(self, words):
        ids = [self.vocab.token_id(w) for w in words]
        self.enc = None  # free the previous document before encoding this one
        self.enc = encode(self.params, ids)
        # Scoring reads only the projected head rows.
        self.enc.caches.clear()
        self.enc.boundary = None

    def structural(self, below, left, right):
        return structural_raw_scores(self.params, self.enc, below, left, right)[0]

    def labels(self, left, mid, right):
        return label_raw_scores(self.params, self.enc, left, mid, right)[0]

    def inventory(self):
        return self.vocab.inventory()


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, params, vocab, config) -> None:
    meta = json.dumps(
        {
            "version": CHECKPOINT_VERSION,
            "config": asdict(config),
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
        try:
            meta = json.loads(str(data["__meta__"]))
        except json.JSONDecodeError:
            meta = None
        params = {k: data[k] for k in data.files if k != "__meta__"}
    if not isinstance(meta, dict):
        raise ModelError(f"{path}: checkpoint metadata is not a JSON object")
    if meta.get("version") != CHECKPOINT_VERSION:
        raise ModelError(f"unsupported checkpoint version {meta.get('version')!r}")
    config = meta.get("config")
    keys = {f.name for f in fields(ModelConfig)}
    if not isinstance(config, dict) or set(config) != keys:
        raise ModelError(f"checkpoint config must hold exactly {sorted(keys)}")
    if not isinstance(meta.get("vocabulary"), dict):
        raise ModelError("checkpoint lacks a vocabulary")
    config = ModelConfig(**config)
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
