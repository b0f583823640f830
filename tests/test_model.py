import numpy as np
import pytest

from jointparse.model import (
    LabelStep,
    ModelConfig,
    ModelError,
    SpanScorer,
    StructuralStep,
    Vocabulary,
    encode,
    _sigmoid,
    init_parameters,
    label_raw_scores,
    load_checkpoint,
    loss_and_gradients,
    make_dropout_masks,
    sample_hidden_mask,
    save_checkpoint,
    score_labels,
    score_structural,
    structural_raw_scores,
    zero_gradients,
)
from jointparse.synthetic import generate_treebank
from jointparse.transition import SHIFT_ACTION, apply_action, axiom, replay, parse_actions


@pytest.fixture(scope="module")
def setup():
    trees = generate_treebank("model-tests", 6, max_tokens=10)
    vocab = Vocabulary.from_treebank(trees)
    config = ModelConfig(word_dim=6, hidden_dim=5, scorer_hidden=8)
    params = init_parameters(vocab, config, np.random.default_rng(42))
    return trees, vocab, config, params


class TestVocabulary:
    def test_unk_is_id_zero(self, setup):
        _, vocab, _, _ = setup
        assert vocab.token_id("never-seen-token") == 0
        assert vocab.words[0] == "<unk>"

    def test_chain_ids_dense_from_one(self, setup):
        _, vocab, _, _ = setup
        ids = [vocab.chain_id(c) for c in vocab.chains]
        assert ids == list(range(1, len(vocab.chains) + 1))
        assert vocab.label_dim == len(vocab.chains) + 1

    def test_unknown_chain_rejected(self, setup):
        _, vocab, _, _ = setup
        with pytest.raises(ModelError, match="inventory"):
            vocab.chain_id("NOT+A+CHAIN")


def _reference_boundary(params, ids, masks):
    """Boundary features computed one token and one matrix-vector product
    at a time, as a straightforward reading of the architecture."""

    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    def run(name, xs):
        Wx, Wh, b = (params[f"{name}.{part}"] for part in ("Wx", "Wh", "b"))
        H = Wh.shape[1]
        h, c = np.zeros(H), np.zeros(H)
        states = [h]
        for x in xs:
            z = Wx @ x + Wh @ h + b
            i, f, o = sigmoid(z[:H]), sigmoid(z[H : 2 * H]), sigmoid(z[2 * H : 3 * H])
            c = f * c + i * np.tanh(z[3 * H :])
            h = o * np.tanh(c)
            states.append(h)
        return np.array(states)

    E = params["embed"][ids]
    l1f, l1b = run("lstm1f", E), run("lstm1b", E[::-1])[::-1]
    out1 = np.concatenate([l1f[1:], l1b[:-1]], axis=1)
    if masks is not None:
        out1 = out1 * masks.layer1
    l2f, l2b = run("lstm2f", out1), run("lstm2b", out1[::-1])[::-1]
    F = np.concatenate([l1f, l1b, l2f, l2b], axis=1)
    return F * masks.features if masks is not None else F


def _reference_score(params, boundary, head, positions, hmask):
    """A head applied to the concatenated boundary vectors; the sentinel
    boundary -1 reads zeros."""
    zero = np.zeros(boundary.shape[1])
    x = np.concatenate([boundary[p] if p >= 0 else zero for p in positions])
    hidden = np.maximum(params[f"{head}.W1"] @ x + params[f"{head}.b1"], 0.0)
    if hmask is not None:
        hidden = hidden * hmask
    if head == "label":
        return params["label.W2"] @ hidden + params["label.b2"]
    return params[f"{head}.w2"] @ hidden + params[f"{head}.b2"][0]


class TestEncode:
    def test_boundary_dimension(self, setup):
        _, _, config, params = setup
        enc = encode(params, [1, 2, 3])
        assert enc.boundary.shape == (4, 4 * config.hidden_dim)

    def test_deterministic_without_dropout(self, setup):
        _, _, _, params = setup
        a = encode(params, [1, 2, 3]).boundary
        b = encode(params, [1, 2, 3]).boundary
        assert np.array_equal(a, b)

    def test_reversal_is_not_feature_reversal(self, setup):
        _, _, _, params = setup
        fwd = encode(params, [1, 2, 3]).boundary
        rev = encode(params, [3, 2, 1]).boundary
        assert not np.allclose(rev, fwd[::-1])

    def test_every_boundary_sees_every_token(self, setup):
        _, _, _, params = setup
        base = encode(params, [1, 2, 3, 4]).boundary
        bump = encode(params, [1, 2, 5, 4]).boundary
        deltas = np.linalg.norm(base - bump, axis=1)
        assert np.all(deltas > 0)

    def test_sigmoid_matches_two_branch_form(self):
        # The overflow-safe form evaluated branch by branch on masked copies.
        def two_branch(x):
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        rng = np.random.default_rng(3)
        x = np.concatenate([
            rng.normal(size=999) * scale for scale in (0.1, 1.0, 10.0, 100.0)
        ] + [np.array([0.0, -0.0, 745.0, -745.0, 1e-300, -1e-300, np.inf, -np.inf])])
        assert np.array_equal(_sigmoid(x), two_branch(x))

    def test_empty_document_rejected(self, setup):
        _, _, _, params = setup
        with pytest.raises(ModelError):
            encode(params, [])

    def test_factored_scoring_matches_per_step_reference(self, setup):
        _, vocab, config, params = setup
        words = vocab.words[1:8]
        ids = [vocab.token_id(w) for w in words]
        scorer = SpanScorer(params, vocab)
        scorer.prepare(words)
        rng = np.random.default_rng(5)
        for rate in (0.0, 0.5):
            masks = make_dropout_masks(len(ids), config, rate, rng)
            enc = encode(params, ids, masks)
            boundary = _reference_boundary(params, ids, masks)
            np.testing.assert_allclose(enc.boundary, boundary, rtol=0, atol=1e-10)

            def hmask():
                return sample_hidden_mask(config, rate, rng)

            for below, left, right in [(-1, 0, 1), (-1, 0, 4), (0, 2, 3), (1, 5, 7)]:
                step = StructuralStep(
                    below, left, right, True, True, 0, hmask(), hmask()
                )
                expected = [
                    _reference_score(params, boundary, "shift", (left, right),
                                     step.hmask_shift),
                    _reference_score(params, boundary, "combine", (below, left, right),
                                     step.hmask_combine),
                ]
                got = structural_raw_scores(params, enc, step)[0]
                np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)
                if masks is None:
                    got = scorer.structural(below, left, right)
                    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)
            # (i, i, i+1) is a width-1 span: its midpoint is its left boundary.
            for left, mid, right in [(0, 0, 1), (6, 6, 7), (0, 3, 7), (2, 4, 5)]:
                step = LabelStep(left, mid, right, False, 0, hmask=hmask())
                expected = _reference_score(
                    params, boundary, "label", (left, mid, right), step.hmask
                )
                got = label_raw_scores(params, enc, step)[0]
                np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)
                if masks is None:
                    got = scorer.labels(left, mid, right)
                    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)


class TestScoring:
    def test_axiom_masks_combine(self, setup):
        _, _, _, params = setup
        enc = encode(params, [1, 2, 3])
        logp = score_structural(params, enc, axiom(3))
        assert logp[0] == pytest.approx(0.0)  # probability one for shift
        assert logp[1] == -np.inf

    def test_structural_normalization(self, setup):
        _, _, _, params = setup
        enc = encode(params, [1, 2, 3])
        state = replay(3, parse_actions("SH NL SH NL"))
        logp = score_structural(params, enc, state)
        assert np.all(np.isfinite(logp))
        assert np.exp(logp).sum() == pytest.approx(1.0, abs=1e-9)
        assert all(0.0 < p < 1.0 for p in np.exp(logp))

    def test_label_normalization_and_root_mask(self, setup):
        _, vocab, _, params = setup
        enc = encode(params, [1, 2])
        inner = apply_action(axiom(2), SHIFT_ACTION)
        logp = score_labels(params, enc, inner)
        assert np.exp(logp).sum() == pytest.approx(1.0, abs=1e-9)
        root = replay(2, parse_actions("SH NL SH NL CB"))
        logp_root = score_labels(params, enc, root)
        assert logp_root[0] == -np.inf  # no-label carries no mass at the root
        assert np.exp(logp_root[1:]).sum() == pytest.approx(1.0, abs=1e-9)

    def test_width_one_span_uses_degenerate_midpoint(self, setup):
        _, _, _, params = setup
        enc = encode(params, [1, 2])
        state = apply_action(axiom(2), SHIFT_ACTION)
        assert state.midpoint == state.top[0]
        logp = score_labels(params, enc, state)
        assert np.all(np.isfinite(logp))


class TestLoss:
    def test_zero_steps(self, setup):
        _, _, _, params = setup
        loss, grads = loss_and_gradients(params, [1, 2], [])
        assert loss == 0.0
        assert all(not array.any() for array in grads.values())

    def test_duplicated_step_doubles_contribution(self, setup):
        _, _, _, params = setup
        step = StructuralStep(
            below=-1, left=0, right=1, can_shift=True, can_combine=False, target=0
        )
        label = LabelStep(left=0, mid=0, right=1, mask_nolabel=False, target=1)
        one, _ = loss_and_gradients(params, [1, 2], [step, label])
        two, _ = loss_and_gradients(params, [1, 2], [step, label, label])
        single, _ = loss_and_gradients(params, [1, 2], [step])
        assert two - one == pytest.approx(one - single)

    def test_dropout_masks_change_loss_but_not_shape(self, setup):
        _, _, config, params = setup
        rng = np.random.default_rng(0)
        masks = make_dropout_masks(2, config, 0.5, rng)
        label = LabelStep(left=0, mid=0, right=1, mask_nolabel=False, target=1)
        loss_plain, grads_plain = loss_and_gradients(params, [1, 2], [label])
        loss_drop, grads_drop = loss_and_gradients(params, [1, 2], [label], masks)
        assert set(grads_plain) == set(grads_drop)
        assert loss_plain != pytest.approx(loss_drop)

    def test_nonfinite_loss_reported_with_step(self, setup):
        _, _, _, params = setup
        broken = {k: v.copy() for k, v in params.items()}
        broken["label.b2"] = broken["label.b2"] + np.nan
        label = LabelStep(left=0, mid=0, right=1, mask_nolabel=False, target=1)
        with pytest.raises(ModelError, match="step 0"):
            loss_and_gradients(broken, [1, 2], [label])


class TestCheckpoint:
    def test_round_trip(self, setup, tmp_path):
        _, vocab, config, params = setup
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, vocab, config)
        loaded_params, loaded_vocab, loaded_config = load_checkpoint(path)
        assert loaded_config == config
        assert loaded_vocab.words == vocab.words
        assert loaded_vocab.chains == vocab.chains
        for key, array in params.items():
            assert np.array_equal(loaded_params[key], array)

    def test_shape_mismatch_rejected(self, setup, tmp_path):
        _, vocab, config, params = setup
        path = tmp_path / "model.ckpt"
        for key in ("label.b2", "lstm2f.Wx"):
            bad = {k: v.copy() for k, v in params.items()}
            bad[key] = np.zeros((bad[key].shape[0] + 1,) + bad[key].shape[1:])
            save_checkpoint(path, bad, vocab, config)
            with pytest.raises(ModelError, match=f"{key} has shape"):
                load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, setup, tmp_path, value):
        _, vocab, config, params = setup
        path = tmp_path / "model.ckpt"
        bad = {k: v.copy() for k, v in params.items()}
        bad["combine.W1"][3, 1] = value
        save_checkpoint(path, bad, vocab, config)
        with pytest.raises(ModelError, match="combine.W1.*non-finite"):
            load_checkpoint(path)

    def test_non_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(ModelError, match="checkpoint"):
            load_checkpoint(path)


def test_span_scorer_interface(setup):
    _, vocab, _, params = setup
    scorer = SpanScorer(params, vocab)
    scorer.prepare(["w1", "w2", "w3"])
    pair = scorer.structural(-1, 0, 1)
    assert pair.shape == (2,)
    labels = scorer.labels(0, 1, 2)
    assert labels.shape == (vocab.label_dim,)
    assert scorer.inventory()[0] is None


def test_zero_gradients_match_shapes(setup):
    _, _, _, params = setup
    grads = zero_gradients(params)
    assert set(grads) == set(params)
    assert all(grads[k].shape == params[k].shape for k in params)
