import numpy as np
import pytest

from jointparse import trainer
from jointparse.model import ModelConfig, Vocabulary, init_parameters, load_checkpoint
from jointparse.synthetic import generate_treebank
from jointparse.trainer import Adam, TrainConfig, TrainingDiverged, rollout, train
from jointparse.transition import (
    apply_action,
    axiom,
    derive,
    dynamic_oracle,
    is_terminal,
    legal_actions,
)
from jointparse.trees import LabeledSpan, extract_edus, labeled_spans

SMALL_MODEL = ModelConfig(word_dim=8, hidden_dim=8, scorer_hidden=12)


@pytest.fixture(scope="module")
def corpus():
    return generate_treebank("trainer-tests", 6, max_tokens=12, max_edus=4)


@pytest.fixture(scope="module")
def fresh(corpus):
    vocab = Vocabulary.from_treebank(corpus)
    params = init_parameters(vocab, SMALL_MODEL, np.random.default_rng(9))
    return vocab, params


def oracle_free_config(**kwargs):
    defaults = dict(beta=1.0, dropout=0.0, unk_replace=0.0, dev_size=0, epochs=2)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


class TestRollout:
    def test_beta_one_reproduces_gold(self, corpus, fresh):
        vocab, params = fresh
        config = oracle_free_config()
        for gold in corpus:
            _, trace = rollout(
                gold, params, vocab, SMALL_MODEL, config, np.random.default_rng(0)
            )
            state = axiom(len(gold.tokens))
            for record in trace:
                assert record.followed == record.target
                state = apply_action(state, record.followed)
            assert is_terminal(state)
            assert state.labeled == frozenset(labeled_spans(gold))

    def test_targets_are_legal_and_oracle_optimal(self, corpus, fresh):
        vocab, params = fresh
        config = oracle_free_config(beta=0.3)
        gold = corpus[0]
        gold_spans = labeled_spans(gold)
        _, trace = rollout(
            gold, params, vocab, SMALL_MODEL, config, np.random.default_rng(4)
        )
        for record in trace:
            legal = legal_actions(record.state, vocab.chains)
            oracle = dynamic_oracle(record.state, gold_spans)
            assert record.target in oracle
            assert record.target in legal
            assert record.followed in legal

    def test_fixed_seed_reproducible(self, corpus, fresh):
        vocab, params = fresh
        config = TrainConfig(beta=0.5, dropout=0.5, dev_size=0, epochs=1)
        first_ex, first_trace = rollout(
            corpus[0], params, vocab, SMALL_MODEL, config, np.random.default_rng(7)
        )
        second_ex, second_trace = rollout(
            corpus[0], params, vocab, SMALL_MODEL, config, np.random.default_rng(7)
        )
        assert np.array_equal(first_ex.ids, second_ex.ids)
        assert [r.followed for r in first_trace] == [r.followed for r in second_trace]
        assert [s.target for s in first_ex.steps] == [s.target for s in second_ex.steps]

    def test_beta_zero_is_greedy_decode(self, corpus, fresh):
        from jointparse.model import SpanScorer
        from jointparse.transition import parse_greedy

        vocab, params = fresh
        scorer = SpanScorer(params, vocab)
        gold = corpus[1]
        words = [t.text for t in gold.tokens]
        state = axiom(len(gold.tokens))
        _, trace = rollout(
            gold, params, vocab, SMALL_MODEL, oracle_free_config(beta=0.0),
            np.random.default_rng(0),
        )
        for record in trace:
            state = apply_action(state, record.followed)
        greedy = parse_greedy(scorer, words)
        assert state.labeled == frozenset(labeled_spans(greedy))

        # Gold-EDU mode: the trace runs over EDUs, and EDU placeholder labels
        # are applied without a trace record.
        config = oracle_free_config(beta=0.0, mode="goldedu")
        for gold in (d for d in corpus if len(extract_edus(d)) >= 2):
            edus = extract_edus(gold)
            _, trace = rollout(
                gold, params, vocab, SMALL_MODEL, config, np.random.default_rng(0)
            )
            final = apply_action(trace[-1].state, trace[-1].followed)
            assert is_terminal(final) and final.n == len(edus)
            bounds = [span.start for span in edus] + [len(gold.tokens)]
            built = {
                LabeledSpan(bounds[s.start], bounds[s.end], s.chain)
                for s in final.labeled
            }
            words = [t.text for t in gold.tokens]
            greedy = parse_greedy(scorer, words, edu_spans=edus)
            assert built == labeled_spans(greedy)

    def test_gold_edu_rollout_targets_discourse_only(self, corpus, fresh):
        vocab, params = fresh
        config = oracle_free_config(mode="goldedu")
        gold = next(d for d in corpus if len(extract_edus(d)) >= 2)
        example, trace = rollout(
            gold, params, vocab, SMALL_MODEL, config, np.random.default_rng(1)
        )
        m = len(extract_edus(gold))
        kinds = [r.followed.kind for r in trace]
        assert kinds.count("shift") == m
        assert kinds.count("combine") == m - 1
        from jointparse.model import LabelStep
        from jointparse.trees import is_discourse_chain

        for step in example.steps:
            if isinstance(step, LabelStep) and step.target > 0:
                assert is_discourse_chain(vocab.chains[step.target - 1])

    @pytest.mark.parametrize("mode", ["end2end", "goldedu"])
    def test_steps_carry_the_driver_masks(self, corpus, fresh, monkeypatch, mode):
        from jointparse.model import LabelStep, StructuralStep

        vocab, params = fresh
        handed = []

        def recording_derive(n, chains, choose_structural, choose_label, edus=None):
            def structural(state, below, left, right, legal):
                handed.append(legal)
                return choose_structural(state, below, left, right, legal)

            def label(state, left, mid, right, legal):
                handed.append(legal)
                return choose_label(state, left, mid, right, legal)

            return derive(n, chains, structural, label, edus)

        monkeypatch.setattr(trainer, "derive", recording_derive)
        config = oracle_free_config(beta=0.5, dropout=0.5, mode=mode)
        docs = [d for d in corpus if len(extract_edus(d)) >= 2]
        assert docs
        for gold in docs:
            handed.clear()
            example, _ = rollout(
                gold, params, vocab, SMALL_MODEL, config, np.random.default_rng(2)
            )
            n = len(gold.tokens)
            assert len(example.steps) == len(handed)
            for step, legal in zip(example.steps, handed):
                assert step.legal is legal
                assert legal[step.target]
            first = example.steps[0]
            assert isinstance(first, StructuralStep) and first.legal == (True, False)
            (root,) = [
                s for s in example.steps
                if isinstance(s, LabelStep) and (s.left, s.right) == (0, n)
            ]
            assert not root.legal[0]
            # Each label step keeps its own mask.
            label_masks = [s.legal for s in example.steps if isinstance(s, LabelStep)]
            assert len({id(m) for m in label_masks}) == len(label_masks)


class TestAdam:
    def test_moves_toward_minimum(self):
        params = {"x": np.array([4.0, -2.0])}
        adam = Adam(params, learning_rate=0.1, clip_norm=0.0)
        for _ in range(300):
            adam.update(params, {"x": 2.0 * params["x"]})
        assert np.allclose(params["x"], 0.0, atol=1e-3)

    def test_clipping_bounds_step(self):
        params = {"x": np.zeros(3)}
        adam = Adam(params, learning_rate=1.0, clip_norm=1.0)
        adam.update(params, {"x": np.full(3, 1e6)})
        assert np.linalg.norm(params["x"]) < 2.0

    @pytest.mark.parametrize("clip_norm", [0.0, 1.0])
    def test_matches_out_of_place_formula_bit_for_bit(self, clip_norm):
        # The textbook update, written out of place, as the reference.
        lr, beta1, beta2, eps = 1e-3, 0.9, 0.999, 1e-8
        rng = np.random.default_rng(11)
        shapes = {"w": (7, 5), "b": (5,), "s": (1,)}
        params = {k: rng.normal(size=shape) for k, shape in shapes.items()}
        expected = {k: v.copy() for k, v in params.items()}
        m = {k: np.zeros(shape) for k, shape in shapes.items()}
        v = {k: np.zeros(shape) for k, shape in shapes.items()}
        adam = Adam(params, lr, clip_norm, beta1, beta2, eps)
        for t in range(1, 21):
            grads = {k: rng.normal(size=shape) * 3.0 for k, shape in shapes.items()}
            reference = {k: g.copy() for k, g in grads.items()}
            total = np.sqrt(sum(float(np.sum(g * g)) for g in reference.values()))
            if clip_norm > 0.0 and total > clip_norm:
                reference = {k: g * (clip_norm / total) for k, g in reference.items()}
            for key, grad in reference.items():
                m[key] = beta1 * m[key] + (1.0 - beta1) * grad
                v[key] = beta2 * v[key] + (1.0 - beta2) * grad**2
                step = (m[key] / (1.0 - beta1**t)) / (
                    np.sqrt(v[key] / (1.0 - beta2**t)) + eps
                )
                expected[key] = expected[key] - lr * step
            adam.update(params, grads)
            for key in shapes:
                assert np.array_equal(params[key], expected[key])
                assert np.array_equal(adam.m[key], m[key])
                assert np.array_equal(adam.v[key], v[key])


class TestTrain:
    def test_seeded_runs_are_identical(self, corpus):
        def stable(history):
            return [
                {k: v for k, v in entry.items() if k != "seconds"}
                for entry in history
            ]

        config = oracle_free_config(epochs=2, seed=13)
        first = train(corpus, config, SMALL_MODEL)
        second = train(corpus, config, SMALL_MODEL)
        assert stable(first.history) == stable(second.history)
        for key in first.params:
            assert np.array_equal(first.params[key], second.params[key])

    def test_best_checkpoint_is_max_dev_epoch(self, corpus):
        config = oracle_free_config(epochs=3, seed=3)
        result = train(corpus, config, SMALL_MODEL)
        best = max(entry["dev_overall_f1"] for entry in result.history)
        assert result.best_f1 == best
        assert result.history[result.best_epoch - 1]["dev_overall_f1"] == best

    def test_checkpoint_files_written(self, corpus, tmp_path):
        config = oracle_free_config(epochs=2, seed=5)
        train(corpus, config, SMALL_MODEL, out_dir=str(tmp_path))
        assert (tmp_path / "epoch-1.ckpt").exists()
        assert (tmp_path / "epoch-2.ckpt").exists()
        assert (tmp_path / "best.ckpt").exists()
        params, vocab, config_loaded = load_checkpoint(tmp_path / "best.ckpt")
        assert config_loaded == SMALL_MODEL
        assert vocab.words[0] == "<unk>"
        assert params["embed"].shape[0] == vocab.n_words

    def test_dev_split_holds_out_documents(self, corpus):
        config = oracle_free_config(epochs=1, dev_size=2, seed=2)
        result = train(corpus, config, SMALL_MODEL)
        assert result.history[0]["dev_overall_f1"] >= 0.0
        with pytest.raises(ValueError, match="dev_size"):
            train(corpus, oracle_free_config(dev_size=len(corpus)), SMALL_MODEL)

    def test_gold_edu_training_runs(self, corpus):
        config = oracle_free_config(epochs=2, mode="goldedu")
        result = train(corpus, config, SMALL_MODEL)
        assert len(result.history) == 2
        assert "dev_rel_f1" in result.history[0]

    def test_divergence_reports_location(self, corpus, monkeypatch):
        def explode(*args, **kwargs):
            raise ValueError("non-finite loss at step 3")

        monkeypatch.setattr(trainer, "loss_and_gradients", explode)
        with pytest.raises(TrainingDiverged, match="epoch 1"):
            train(corpus, oracle_free_config(epochs=1), SMALL_MODEL)

    def test_empty_treebank_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train([], oracle_free_config(), SMALL_MODEL)


def test_beta_sweep_harness(corpus):
    # The experiment grid from the paper's setup is runnable at desk scale:
    # one dev F1 per beta value.
    results = {}
    for beta in (0.6, 0.8, 1.0):
        config = TrainConfig(
            beta=beta, dropout=0.0, unk_replace=0.0, dev_size=0, epochs=1, seed=1
        )
        results[beta] = train(corpus, config, SMALL_MODEL).history[-1][
            "dev_overall_f1"
        ]
    assert set(results) == {0.6, 0.8, 1.0}
    assert all(isinstance(v, float) for v in results.values())
