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

In training, each LSTM's forward stores its hidden states, its cells and
every step's activated gates, 6H floats per token.  Its backward reads those
gates rather than recomputing them, so the gradient is exactly that of the
forward that was scored, and recomputes only tanh(c) from the stored cells;
the memory of training grows linearly with document length.  Inference
stores no gates.

The per-step work left in Python loops is kept to few numpy calls.  The
recurrence writes into preallocated rows and computes all four gates with
one tanh, using sigmoid(z) = tanh(z/2)/2 + 1/2 on rows pre-scaled by 1/2.
What a recurrent step streams starts on a 64-byte cache line: the
parameters (one `aligned_views` layout, made or loaded), the halved
recurrent weights, the states, cells and gate rows; where they start
changes only the speed, not the results.  The loss stacks its steps by
kind, in fixed-size blocks: one gather of projected rows, one product per
head for the scores and for the output layer's gradients, and one scatter
of the pre-activation gradients into the per-boundary rows; the loss
itself is summed in step order.  Greedy decoding scores its label sites
with the same stacked forward.

Inference encodes a group of documents at once.  A recurrent step of one
document streams the whole recurrent matrix (1.28 MB at H = 200) to make
one vector, and a second column of states costs almost nothing more, so
`_lstm_forward` runs the group's documents side by side, with one matrix
product per step for all those still running.  The batch runs across
documents, not across a layer's two directions: each direction has its own
recurrent matrix, so fusing them would stream the same bytes.  With gold
EDUs decoding reads only unit boundaries, so a group keeps features, and
`SpanScorer` projects head rows, only there.  Training encodes one
document at a time, through the same recurrence.

The loss takes the `Encoding` its steps were chosen on, so a training
document runs through the encoder once, and consumes it: the head rows and
boundary features go before the encoder's backward, and each LSTM cache as
that backward reaches it.  Dropout masks are bool keep-masks, one byte per
unit; each site multiplies by the mask and then by 1/keep, which equals the
product with a float mask of 0 or 1/keep bit for bit.

Everything is float64 numpy with hand-written backpropagation, so gradient
correctness is checkable against central finite differences.
"""

import io
import itertools
import json
import math
import os
import struct
import zipfile
import zlib
from dataclasses import asdict, dataclass, field, fields
from tokenize import TokenError

import numpy as np
from numpy.lib import format as npy

from .trees import labeled_spans

UNK = "<unk>"
CHECKPOINT_VERSION = 1


class ModelError(ValueError):
    pass


_TYPE_NAMES = {int: "an integer", float: "a finite number", str: "a string"}
AT_LEAST_1 = (lambda value: value >= 1, "at least 1")


def check_config(config, error, **ranges):
    """Check every field of a config dataclass: its value's type against
    the field's annotation (an int passes as a float, which must be finite;
    a bool passes as neither), then its range, given as
    field=(test, description)."""
    for spec in fields(config):
        value = getattr(config, spec.name)
        number = spec.type is float
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float) if number else spec.type)
            or (number and not math.isfinite(value))
        ):
            raise error(f"{spec.name} must be {_TYPE_NAMES[spec.type]}, got {value!r}")
        test, description = ranges.get(spec.name, (None, None))
        if test is not None and not test(value):
            raise error(f"{spec.name} must be {description}, got {value!r}")


@dataclass
class ModelConfig:
    word_dim: int = 50
    hidden_dim: int = 200     # per direction, per layer
    scorer_hidden: int = 200

    def __post_init__(self):
        check_config(
            self, ModelError,
            word_dim=AT_LEAST_1, hidden_dim=AT_LEAST_1, scorer_hidden=AT_LEAST_1,
        )

    @property
    def boundary_dim(self):
        return 4 * self.hidden_dim  # 2 layers x 2 directions


class Vocabulary:
    """Token and label-chain inventories built from a training treebank."""

    def __init__(self, words, counts, chains):
        if not (isinstance(words, list) and all(isinstance(w, str) for w in words)):
            raise ModelError("word list must be a list of strings")
        if not (isinstance(chains, list)
                and all(isinstance(c, str) and c for c in chains)):
            raise ModelError("label chains must be a list of non-empty strings")
        if not (isinstance(counts, dict) and all(
            isinstance(w, str) and type(k) is int for w, k in counts.items()
        )):
            raise ModelError("word counts must map strings to integers")
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


# Bytes in a cache line, and float64 elements in one.
ALIGN = 64
_LINE = ALIGN // 8


def aligned(shape):
    """An uninitialised C-contiguous float64 array of `shape` whose data
    starts on a 64-byte boundary: a view into a buffer 7 elements longer.
    On a 2-vCPU x86 host a per-step product streamed a recurrent matrix
    that starts 16 bytes past a boundary about 1.4x slower, with
    bit-identical results."""
    size = math.prod(shape) if isinstance(shape, tuple) else shape
    raw = np.empty(size + _LINE - 1)
    skip = -raw.ctypes.data % ALIGN // 8  # numpy's data is 8-byte aligned
    return raw[skip : skip + size].reshape(shape)


def aligned_views(shapes) -> dict:
    """Name -> an uninitialised C-contiguous float64 view of `shapes[name]`,
    all in one buffer in the order of `shapes`, each starting on a 64-byte
    boundary; the gap after each view is under 8 elements."""
    sizes = [math.prod(shape) for shape in shapes.values()]
    lines = itertools.accumulate((-(-size // _LINE) for size in sizes), initial=0)
    starts = [_LINE * line for line in lines]
    buffer = aligned(starts[-1])
    return {
        key: buffer[start : start + size].reshape(shape)
        for (key, shape), start, size in zip(shapes.items(), starts, sizes)
    }


def init_parameters(vocab, config, rng) -> dict:
    """Fresh float64 parameters for the given vocabulary and dimensions, in
    the one parameter layout `load_checkpoint` also fills
    (`aligned_views` of `parameter_shapes`)."""
    params = aligned_views(parameter_shapes(vocab, config))
    for key, view in params.items():
        kind = key.rpartition(".")[2]
        if key == "embed":
            _fill_uniform(rng, view, 0.1)
        elif kind == "w2" or kind[0] == "W":  # Glorot, a scalar head's w2 as one row
            rows, cols = view.shape if view.ndim == 2 else (1, view.shape[0])
            _fill_uniform(rng, view, math.sqrt(6.0 / (rows + cols)))
        else:
            view.fill(0.0)
            if kind == "b":  # forget-gate bias keeps early memory open
                view[config.hidden_dim : 2 * config.hidden_dim] = 1.0
    return params


def _fill_uniform(rng, view, limit):
    """Fill `view` in place with the draws of rng.uniform(-limit, limit),
    bit for bit: numpy draws each as low + (high - low) * u from the
    `random` stream, and high - low = 2 * limit exactly."""
    flat = view.reshape(-1)
    rng.random(out=flat)
    flat *= 2.0 * limit
    flat -= limit


def zero_gradients(params) -> dict:
    return {k: np.zeros_like(v) for k, v in params.items()}


# ---------------------------------------------------------------------------
# LSTM primitives


@dataclass
class _LstmCache:
    xs: np.ndarray          # (n, in_dim)
    states: np.ndarray      # (n+1, H); states[t] = hidden after t inputs
    cells: np.ndarray | None  # (n+1, H); None from a batched run of two or more
    gates: np.ndarray | None = None  # (n, 4H) activated i, f, o, g; training only


def _halved(params, name, xs):
    """LSTM `name`'s input projection of every step and its recurrent
    weights, with the i, f and o rows halved for `_activate`.  The halved
    weights are a fresh copy that starts on a cache line (`aligned`), as
    every step's product streams them whole."""
    Wh = params[f"{name}.Wh"]
    H = Wh.shape[1]
    inputs = xs @ params[f"{name}.Wx"].T + params[f"{name}.b"]
    inputs[:, : 3 * H] *= 0.5
    half = _aligned_copy(Wh)
    half[: 3 * H] *= 0.5
    return inputs, half


def _aligned_copy(array):
    copy = aligned(array.shape)
    copy[...] = array
    return copy


def _activate(z):
    """The gates from halved pre-activations, in place along the last axis:
    tanh g, and sigmoid i, f and o as sigmoid(z) = tanh(z/2)/2 + 1/2.
    Halving is exact in binary floating point, so one tanh yields all four."""
    np.tanh(z, out=z)
    s = z[..., : 3 * (z.shape[-1] // 4)]
    s *= 0.5
    s += 0.5
    return z


def _gate_views(z, H):
    """`z`, its sigmoid gates and its i, f, o and g blocks along the last
    axis."""
    return z, z[..., : 3 * H], *(z[..., k * H : (k + 1) * H] for k in range(4))


def _lstm_steps(Wh, inputs, states, cells, start=0, gates=None):
    """Steps start, start+1, ... of one sequence, one per row of `inputs`,
    from states[start] and cells[start], one matrix-vector product each.
    Each step's activated gates stay in its row of `gates`, an array shaped
    like `inputs`, or without it in one aligned row that every step reuses,
    as tanh(c) does.  The loop walks precomputed row views and inlines
    `_activate`'s operations on one view of the sigmoid gates."""
    H = Wh.shape[1]
    if gates is None:
        rows = map(itertools.repeat, _gate_views(aligned(4 * H), H))
    else:
        rows = _gate_views(gates, H)
    ig, tanh_cell = aligned(H), aligned(H)
    for x, h, c, c_next, h_next, z, sigmoids, i, f, o, g in zip(
        inputs, states[start:], cells[start:], cells[start + 1 :], states[start + 1 :],
        *rows,
    ):
        np.dot(Wh, h, out=z)
        z += x
        np.tanh(z, out=z)
        sigmoids *= 0.5
        sigmoids += 0.5
        np.multiply(f, c, out=c_next)
        np.multiply(i, g, out=ig)
        c_next += ig
        np.tanh(c_next, out=tanh_cell)
        np.multiply(o, tanh_cell, out=h_next)


def _lstm_forward(params, name, sequences, gates=False) -> list:
    """Run LSTM `name` over each of `sequences`, a list of (n, in_dim)
    arrays that each start at step 0, and return each one's `_LstmCache`.

    The sequences run in one batched recurrence, longest first, so that the
    sequences still running at a step are a prefix of that order.  While two
    or more run, a step is one product of the recurrent weights with their
    contiguous (H, k) block of states, and the gate math runs on (4H, k)
    blocks; when a sequence ends, the blocks are cut to the ones left.
    Inputs and states are packed by step, each step's rows those of the
    sequences it runs.  Once one sequence is left, its state and cell go on
    in `_lstm_steps`, which thus runs a lone sequence whole.  A batched run
    keeps only hidden states: inference, which alone makes one, reads
    nothing else.  A lone sequence keeps its cells, and with `gates`, as
    training asks, every step's activated gates in one aligned (n, 4H)
    array: the backward pass reads both."""
    lengths = [len(xs) for xs in sequences]
    order = sorted(range(len(sequences)), key=lambda k: -lengths[k])
    longest = lengths[order[0]]
    steps = lengths[order[1]] if len(order) > 1 else 0  # while two or more run
    running = [sum(lengths[k] > t for k in order) for t in range(steps)]
    offsets = np.cumsum([0] + running)
    packed = offsets[-1]
    # Each sequence's rows at its batched steps; the longest one's later
    # steps follow them all.
    rows = [offsets[: min(lengths[k], steps)] + col for col, k in enumerate(order)]
    xs = np.empty((packed + longest - steps, sequences[0].shape[1]))
    for col, k in enumerate(order):
        xs[rows[col]] = sequences[k][:steps]
    xs[packed:] = sequences[order[0]][steps:]
    inputs, Wh = _halved(params, name, xs)
    del xs
    H = Wh.shape[1]
    out = np.empty((packed, H))
    S = C = np.zeros((H, len(order)))
    for start, end in itertools.pairwise(offsets.tolist()):
        k = end - start
        if start == 0 or k < S.shape[1]:  # a sequence ended: cut the blocks
            S, C = _aligned_copy(S[:, :k]), _aligned_copy(C[:, :k])
            z, ig, tanh_cell = aligned((4 * H, k)), aligned((H, k)), aligned((H, k))
            i, f, o, g = (z[q * H : (q + 1) * H] for q in range(4))
        np.dot(Wh, S, out=z)
        z += inputs[start:end].T
        _activate(z.T)
        C *= f
        np.multiply(i, g, out=ig)
        C += ig
        np.tanh(C, out=tanh_cell)
        np.multiply(o, tanh_cell, out=S)
        out[start:end] = S.T
    caches = [None] * len(sequences)
    for col, k in enumerate(order):
        states = aligned((lengths[k] + 1, H))
        states[0] = 0.0
        states[1 : len(rows[col]) + 1] = out[rows[col]]
        caches[k] = _LstmCache(sequences[k], states, None)
    if longest > steps:
        lone = caches[order[0]]
        cells = aligned((longest + 1, H))
        cells[steps] = C[:, 0]
        kept = aligned((longest, 4 * H)) if gates and steps == 0 else None
        _lstm_steps(Wh, inputs[packed:], lone.states, cells, steps, kept)
        if steps == 0:
            lone.cells, lone.gates = cells, kept
    return caches


def _lstm_backward(params, name, cache, d_states, grads):
    """Backpropagate through a whole run of LSTM `name` from a cache that
    kept its gates (`_lstm_forward` with `gates`).

    It reads the forward's own activated gates, so the gradient is exactly
    that of the forward that was scored, and tanh(c) from the stored cells.
    `d_states` holds the external gradient arriving at each hidden state
    (boundary reads plus next-layer inputs).  Stores the parameter
    gradients in `grads` and returns the input gradients.
    """
    n = cache.xs.shape[0]
    Wh = params[f"{name}.Wh"]
    H = Wh.shape[1]
    i, f, o, g = np.split(cache.gates, 4, axis=1)
    tc = np.tanh(cache.cells[1:])
    # Row t of dZ starts as step t's local derivatives, the factors that
    # scale the cell gradient into the i, f and g blocks and the hidden
    # gradient into the o block; the loop, walking row views from the last
    # step back, scales them in place.  dZ, the loop's vectors and the Wh
    # of `init_parameters` and `load_checkpoint` start on cache lines.
    dZ = np.concatenate(
        [g * i * (1.0 - i), cache.cells[:-1] * f * (1.0 - f),
         tc * o * (1.0 - o), i * (1.0 - g * g)],
        axis=1, out=aligned((n, 4 * H)),
    )
    dc_dh = o * (1.0 - tc * tc)
    dh, dc, dh_dc = aligned(H), aligned(H), aligned(H)
    dh.fill(0.0)
    dc.fill(0.0)
    for d_state, dc_dh_t, dz, dz4, f_t in zip(
        d_states[:0:-1], dc_dh[::-1], dZ[::-1], dZ.reshape(n, 4, H)[::-1], f[::-1]
    ):
        dh += d_state
        np.multiply(dh, dc_dh_t, out=dh_dc)
        dc += dh_dc
        dz4[:2] *= dc
        dz4[2] *= dh
        dz4[3] *= dc
        np.dot(dz, Wh, out=dh)
        dc *= f_t
    grads[f"{name}.Wx"] = dZ.T @ cache.xs
    grads[f"{name}.Wh"] = dZ.T @ cache.states[:-1]
    grads[f"{name}.b"] = dZ.sum(axis=0)
    return dZ @ params[f"{name}.Wx"]


# ---------------------------------------------------------------------------
# encoding


@dataclass
class DropoutMasks:
    layer1: np.ndarray    # (n, 2H) bool, on the first layer's per-token outputs
    features: np.ndarray  # (n+1, 4H) bool, on the boundary features
    keep: float           # 1 - rate; kept units are scaled by 1/keep at use


def make_dropout_masks(n, config, rate, rng) -> DropoutMasks | None:
    """Inverted-dropout masks at the recurrent-output sites (one draw per
    document pass); scorer-hidden masks are drawn per step by the trainer."""
    if rate <= 0.0:
        return None
    keep = 1.0 - rate
    H, D = config.hidden_dim, config.boundary_dim
    return DropoutMasks(
        layer1=rng.random((n, 2 * H)) < keep,
        features=rng.random((n + 1, D)) < keep,
        keep=keep,
    )


def sample_hidden_mask(config, rate, rng):
    """A bool keep-mask over the scorer's hidden units; `Encoding.scale`
    scales it at use."""
    if rate <= 0.0:
        return None
    return rng.random(config.scorer_hidden) < 1.0 - rate


def _dropped(x, mask, scale):
    """`x` times a bool keep-mask, then times the inverted-dropout scale
    1/keep, in place.  x * True is x exactly, so the result equals x times
    the float mask (0 or 1/keep) bit for bit."""
    x *= mask
    x *= scale
    return x


@dataclass
class Encoding:
    ids: np.ndarray
    boundary: np.ndarray | None   # (n+1, 4H) after feature dropout
    # head -> boundary @ W1-block.T per column block, each (n+1, scorer_hidden)
    heads: dict = field(repr=False, default_factory=dict)
    caches: dict = field(repr=False, default_factory=dict)
    masks: DropoutMasks | None = None

    @property
    def scale(self):
        """1/keep of the document's masks, which its step masks share."""
        return 1.0 if self.masks is None else 1.0 / self.masks.keep


def _features(states, rows=None):
    """Boundary features from the four LSTMs' hidden states (forward and
    backward, per layer), at the boundary positions `rows` or at all n+1:
    a forward state at p, a backward one at its mirror n - p."""
    f1, b1, f2, b2 = states
    if rows is None or len(rows) == len(f1):
        return np.concatenate([f1, b1[::-1], f2, b2[::-1]], axis=1)
    rows = np.asarray(rows)
    back = len(f1) - 1 - rows
    return np.concatenate([f1[rows], b1[back], f2[rows], b2[back]], axis=1)


def _project(params, F):
    """Head -> the features through each column block of its first layer,
    one (rows, scorer_hidden) array per block."""
    D = F.shape[1]
    return {
        head: [F @ params[f"{head}.W1"][:, k * D : (k + 1) * D].T for k in range(blocks)]
        for head, blocks in HEAD_BLOCKS.items()
    }


def encode(params, ids, masks: DropoutMasks | None = None, lengths=None, rows=None):
    """Boundary features for one document (n >= 1 token ids), projected
    through every head block, with the LSTM caches the loss's backward reads.

    Inference encodes a group of documents at once: `ids` holds their ids
    end to end and `lengths` one length each, and every LSTM runs over the
    group in one batched recurrence (`_lstm_forward`).  The result is then a
    list of each document's boundary features, without dropout, at the
    boundary positions `rows[k]` gives for document k (all n+1 where it is
    None); `SpanScorer.select` projects them when decoding reaches it."""
    ids = np.asarray(ids, dtype=int)
    sizes = [len(ids)] if lengths is None else list(lengths)
    if not sizes or min(sizes) < 1 or sum(sizes) != len(ids):
        raise ModelError("cannot encode an empty document")
    docs = np.split(params["embed"][ids], np.cumsum(sizes)[:-1])
    train = lengths is None  # the backward pass reads the gates
    c1f = _lstm_forward(params, "lstm1f", docs, train)
    c1b = _lstm_forward(params, "lstm1b", [E[::-1] for E in docs], train)
    out1 = [
        np.concatenate([f.states[1:], b.states[1:][::-1]], axis=1)
        for f, b in zip(c1f, c1b)
    ]
    if masks is not None:
        _dropped(out1[0], masks.layer1, 1.0 / masks.keep)
    c2f = _lstm_forward(params, "lstm2f", out1, train)
    c2b = _lstm_forward(params, "lstm2b", [x[::-1] for x in out1], train)
    layers = list(zip(c1f, c1b, c2f, c2b))
    if not train:
        rows = rows or [None] * len(sizes)
        return [
            _features([c.states for c in caches], r) for caches, r in zip(layers, rows)
        ]
    F = _features([c.states for c in layers[0]])
    if masks is not None:
        _dropped(F, masks.features, 1.0 / masks.keep)
    caches = dict(zip(("lstm1f", "lstm1b", "lstm2f", "lstm2b"), layers[0]))
    return Encoding(ids=ids, boundary=F, heads=_project(params, F), caches=caches,
                    masks=masks)


def _encoder_backward(params, enc: Encoding, dF) -> dict:
    """Push boundary-feature gradients `dF`, which it scales in place,
    back to every encoder parameter.  Each layer's cache leaves `enc` as
    its backward pass uses it, which lowers the peak memory of training."""
    H = params["lstm1f.Wh"].shape[1]
    grads = {}
    masks = enc.masks
    if masks is not None:
        _dropped(dF, masks.features, enc.scale)

    def backward(name, d_states):
        return _lstm_backward(params, name, enc.caches.pop(name), d_states, grads)

    d2f = dF[:, 2 * H : 3 * H].copy()
    d2b = dF[:, 3 * H : 4 * H][::-1].copy()
    d_out1 = backward("lstm2f", d2f) + backward("lstm2b", d2b)[::-1]
    if masks is not None:
        _dropped(d_out1, masks.layer1, enc.scale)

    d1f = dF[:, 0:H].copy()
    d1f[1:] += d_out1[:, :H]
    d1b = dF[:, H : 2 * H][::-1].copy()
    d1b[1:] += d_out1[::-1, H:]
    dE = backward("lstm1f", d1f) + backward("lstm1b", d1b)[::-1]
    grads["embed"] = np.zeros_like(params["embed"])
    np.add.at(grads["embed"], enc.ids, dE)
    return grads


# ---------------------------------------------------------------------------
# scoring heads


# Per head: the step fields holding the boundaries it reads, and its mask.
_HEAD_FIELDS = {
    "shift": (("left", "right"), "hmask_shift"),
    "combine": (("below", "left", "right"), "hmask_combine"),
    "label": (("left", "mid", "right"), "hmask"),
}


def _stack_masks(hmasks, scale):
    """Per-step hidden masks as rows of one float array, mask * `scale`
    (0 or 1/keep, the scaled product's factor exactly) where a step has
    one and ones where it has none; None when no step has one."""
    shapes = {m.shape for m in hmasks if m is not None}
    if not shapes:
        return None
    ones = np.ones(shapes.pop(), dtype=bool)
    rows = np.array([ones if m is None else m for m in hmasks])
    return rows * np.array([1.0 if m is None else scale for m in hmasks])[:, None]


def _output_key(head):
    return "label.W2" if head == "label" else f"{head}.w2"


def _stacked_head(params, enc, head, positions, hmasks=None):
    """One head's forward over a stack of steps, one row each: `positions`
    holds a row of boundaries per column block the head reads, and
    `hmasks` the scaled hidden masks (see `_stack_masks`) or None.  Each
    row's pre-activation sums b1 and its projected rows in place, in the
    order of a single step's (`label_raw_scores`).  Returns the hidden
    layer, the output weights as rows and the scores."""
    hidden = None
    for rows, p in zip(enc.heads[head], positions):
        read = rows[p]
        sentinel = p < 0
        if sentinel.any():  # the sentinel boundary -1 reads a zero vector
            read[sentinel] = 0.0
        if hidden is None:
            hidden = read
            hidden += params[f"{head}.b1"]  # b1 + read, bit for bit
        else:
            hidden += read
    np.maximum(hidden, 0.0, out=hidden)
    if hmasks is not None:
        hidden *= hmasks
    # a scalar head's w2 as one row
    W2 = params[_output_key(head)].reshape(-1, hidden.shape[1])
    scores = hidden @ W2.T
    scores += params[f"{head}.b2"]
    return hidden, W2, scores


def _block_loss(params, enc, grads, dheads, steps):
    """Per-step negative log-likelihoods of steps of one kind, with each
    head's forward (`_stacked_head`) and backward done as stacked products
    over the steps.  Gradients accumulate into `grads`, and each read
    boundary's row of `dheads` collects its steps' pre-activation
    gradients."""
    heads = ("label",) if isinstance(steps[0], LabelStep) else ("shift", "combine")
    layers, scores = [], []
    for head in heads:
        reads, mask_field = _HEAD_FIELDS[head]
        positions = np.array([[getattr(s, r) for s in steps] for r in reads])
        hmasks = _stack_masks([getattr(s, mask_field) for s in steps], enc.scale)
        hidden, W2, head_scores = _stacked_head(params, enc, head, positions, hmasks)
        scores.append(head_scores)
        layers.append((head, positions, hmasks, hidden, W2))
    legal = np.array([s.legal for s in steps], dtype=bool)
    nll, dscores = _masked_nll(np.hstack(scores), legal, [s.target for s in steps])
    splits = np.cumsum([block.shape[1] for block in scores])[:-1]
    for (head, positions, hmasks, hidden, W2), d in zip(
        layers, np.hsplit(dscores, splits)
    ):
        dW2 = grads[_output_key(head)].reshape(W2.shape)
        dW2 += d.T @ hidden
        grads[f"{head}.b2"] += d.sum(axis=0)
        dpre = d @ W2
        if hmasks is not None:
            dpre *= hmasks
        # A unit is live where its pre-activation is positive; where a mask
        # zeroed a live unit, dpre is already 0 from the line above.
        dpre *= hidden > 0
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
    the span starting at `below`, as two Python floats.  Each head sums its
    projected rows onto b1 in place, in the order of the boundaries it
    reads, then applies ReLU, its hidden mask and its output dot."""
    (s0, s1), (c0, c1, c2) = enc.heads["shift"], enc.heads["combine"]
    b1_shift, b1_combine = params["shift.b1"], params["combine.b1"]
    # Boundary -1, the sentinel, reads a zero vector: its term is left out.
    # Only `below` and `left` can be the sentinel.
    shift = b1_shift + s0[left] if left >= 0 else b1_shift.copy()
    shift += s1[right]
    combine = b1_combine + c0[below] if below >= 0 else b1_combine.copy()
    if left >= 0:
        combine += c1[left]
    combine += c2[right]
    np.maximum(shift, 0.0, out=shift)
    np.maximum(combine, 0.0, out=combine)
    if hmask_shift is not None:
        _dropped(shift, hmask_shift, enc.scale)
    if hmask_combine is not None:
        _dropped(combine, hmask_combine, enc.scale)
    return (
        float(params["shift.w2"] @ shift + params["shift.b2"][0]),
        float(params["combine.w2"] @ combine + params["combine.b2"][0]),
    )


def label_raw_scores(params, enc, left, mid, right, hmask=None):
    """Unmasked scores over the label slots of the span (left, right) split
    at `mid`."""
    pre = params["label.b1"]
    for rows, p in zip(enc.heads["label"], (left, mid, right)):
        pre = pre + rows[p]
    hidden = np.maximum(pre, 0.0)
    if hmask is not None:
        _dropped(hidden, hmask, enc.scale)
    return params["label.W2"] @ hidden + params["label.b2"]


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


# Steps per stacked product in the loss, and label sites per stacked product
# in greedy decoding: bounds their temporaries at any length.
LOSS_BLOCK = 256
# Tokens per group that `parse_documents` encodes in one batched recurrence:
# bounds the group's features and the recurrence's temporaries.
GROUP_TOKENS = 2048


def loss_and_gradients(params, enc: Encoding, steps):
    """Summed negative log-likelihood of the per-step targets, with exact
    gradients for every parameter, on the encoding (and dropout masks) the
    steps were taken on, which it consumes.  Steps of one kind are scored
    together in blocks of LOSS_BLOCK, and the loss is summed in step order.
    Raises on an illegal target or a non-finite loss, naming the first bad
    step, and on an encoding already consumed or made for scoring only."""
    if enc.boundary is None:
        raise ModelError("encoding already consumed or made for scoring only; "
                         "encode the document again")
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

    enc.heads = None  # the projection's backward reads only the features
    dF = _projection_backward(params, grads, enc, dheads)
    # Free these before the encoder's backward.
    del dheads
    enc.boundary = None
    grads.update(_encoder_backward(params, enc, dF))
    return float(running[-1]) if scored else 0.0, {key: grads[key] for key in params}


# ---------------------------------------------------------------------------
# inference


class SpanScorer:
    """Inference-time scorer bound to one parameter set; feed to
    `parse_documents` or `parse_greedy`.  `prepare` encodes a group of
    documents in one batched recurrence, each at its unit boundaries only,
    and `select` projects one document's features through the heads as its
    decoding starts.  It scores structure one step at a time and labels in
    stacks of sites, at token boundaries that it maps to the document's
    rows."""

    def __init__(self, params, vocab):
        self.params = params
        self.vocab = vocab
        self.group = []   # (ids, unit bounds, boundary features) per document
        self.enc = None
        self.unit = None  # token boundary -> row, or None where rows are tokens

    def prepare(self, documents, bounds=None):
        """Encode a group of documents (word lists), each at the unit
        boundaries `bounds[k]` (token positions; every token boundary by
        default).  The previous group is freed first."""
        self.group = self.enc = None
        ids = [[self.vocab.token_id(w) for w in words] for words in documents]
        bounds = bounds or [range(len(words) + 1) for words in documents]
        features = encode(
            self.params, [i for doc in ids for i in doc],
            lengths=[len(doc) for doc in ids], rows=bounds,
        )
        self.group = list(zip(ids, bounds, features))

    def select(self, k):
        """Score document k of the prepared group from here on: project its
        features through every head block, freeing them and the previous
        document's rows."""
        self.enc = None
        ids, bounds, features = self.group[k]
        self.group[k] = None
        self.unit = None
        if len(bounds) < len(ids) + 1:
            # One slot past the end maps the sentinel boundary -1 to -1.
            unit = np.full(len(ids) + 2, -1)
            unit[list(bounds)] = np.arange(len(bounds))
            self.unit = unit.tolist()
        self.enc = Encoding(ids=np.asarray(ids, dtype=int), boundary=None,
                            heads=_project(self.params, features))

    def structural(self, below, left, right):
        """The raw (shift, combine) scores of one step as two floats."""
        unit = self.unit
        if unit is not None:
            below, left, right = unit[below], unit[left], unit[right]
        return structural_raw_scores(self.params, self.enc, below, left, right)

    def labels(self, left, mid, right):
        """Raw label scores of a stack of sites, one row per site k: the
        span (left[k], right[k]) split at mid[k].  A row may differ from
        `label_raw_scores` in the last bits, as a stacked product sums in
        its own order."""
        sites = np.array([left, mid, right], dtype=int).reshape(3, -1)
        if self.unit is not None:
            sites = np.take(self.unit, sites)
        return _stacked_head(self.params, self.enc, "label", sites)[-1]

    def inventory(self):
        return self.vocab.inventory()


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, params, vocab, config) -> None:
    """Writes the checkpoint to a temporary file beside `path` and renames
    it into place, so a crash mid-save leaves no truncated file, and a file
    hard-linked to the old `path` (a `best.ckpt`) keeps its contents."""
    meta = json.dumps(
        {
            "version": CHECKPOINT_VERSION,
            "config": asdict(config),
            "vocabulary": vocab.to_dict(),
        }
    )
    arrays = dict(params)
    arrays["__meta__"] = np.array(meta)
    partial = f"{path}.{os.getpid()}.tmp"
    try:
        with open(partial, "wb") as handle:
            np.savez(handle, **arrays)
        os.replace(partial, path)
    finally:
        if os.path.exists(partial):
            os.remove(partial)


def load_checkpoint(path):
    """Returns (params, vocab, config); checks the version, config,
    vocabulary, each parameter's name, shape and finiteness, and each
    member's zip CRC-32.  Parameters take `init_parameters`' layout, views
    of one float64 buffer that each start on a cache line (`aligned_views`):
    a stored member with the `.npy` header numpy writes for its view is
    read with one `readinto` into the view, after its zip local header is
    checked; numpy reads any other (deflated, say) and it is copied in.  A
    damaged or foreign file raises `ModelError` naming the path and member.
    """
    handle = open(path, "rb")  # a missing file's OSError already names it
    key = None
    try:
        with handle, zipfile.ZipFile(handle) as archive:
            infos = {i.filename.removesuffix(".npy"): i for i in archive.infolist()}
            if "__meta__" not in infos:
                raise ModelError("not a checkpoint (missing metadata)")
            key = "__meta__"
            try:
                meta = json.loads(str(_read_npy(archive, infos[key])))
            except json.JSONDecodeError:
                meta = None
            if not isinstance(meta, dict):
                raise ModelError("checkpoint metadata is not a JSON object")
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
            stored = set(infos) - {"__meta__"}
            if set(expected) != stored:
                missing = sorted(set(expected) ^ stored)
                raise ModelError(f"checkpoint parameter names do not match: {missing}")
            params = aligned_views(expected)
            for key, view in params.items():
                if not _read_stored(handle, infos[key], view):
                    member = _read_npy(archive, infos[key])
                    if member.shape != view.shape:
                        raise ModelError(f"checkpoint {key} has shape {member.shape}, "
                                         f"expected {view.shape}")
                    view[...] = member  # casts a narrower stored dtype to float64
                    del member
                if not np.isfinite(view).all():
                    raise ModelError(f"checkpoint {key} holds non-finite values")
    except (OSError, EOFError, RuntimeError, ValueError, TokenError, struct.error,
            zlib.error, zipfile.BadZipFile) as err:  # ModelError is a ValueError
        where = "" if key is None or isinstance(err, ModelError) else f"member {key}: "
        raise ModelError(f"{path}: {where}{err}") from None
    return params, vocab, config


def _read_npy(archive, info):
    with archive.open(info) as member:
        array = npy.read_array(member, allow_pickle=False)
        member.read()  # to the member's end, where zipfile checks its CRC-32
    return array


def _read_stored(handle, info, view):
    """Reads member `info` into `view` with one `readinto` if it is stored
    with the `.npy` header numpy writes for `view`; else returns False."""
    handle.seek(info.header_offset)
    name = info.orig_filename
    signature, name_size, extra_size = struct.unpack("<4s22x2H", handle.read(30))
    if signature != b"PK\x03\x04" or handle.read(name_size) != name.encode():
        raise zipfile.BadZipFile(f"Bad local header for file {name!r}")
    handle.seek(extra_size, 1)
    header = io.BytesIO()
    npy.write_array_header_1_0(header, npy.header_data_from_array_1_0(view))
    header = header.getvalue()
    if (info.compress_type != zipfile.ZIP_STORED or handle.read(len(header)) != header
            or info.file_size != len(header) + view.nbytes):
        return False
    crc = zlib.crc32(header)
    if handle.readinto(view) != view.nbytes or zlib.crc32(view, crc) != info.CRC:
        raise zipfile.BadZipFile(f"Bad CRC-32 for file {name!r}")
    return True
