"""Acceptance suite: one test per exit criterion, each printed pass/fail.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines and timings.  Criterion 7 needs the licensed source corpora and is
skipped unless their locations are exported (see its docstring).
"""

import json
import os
import time

import pytest

from conftest import fixture_text, perturb_labels, state_after

from jointparse import cli, convert, serialize, trainer, verify
from jointparse.evaluate import discourse_metrics, span_prf
from jointparse.model import ModelConfig
from jointparse.synthetic import generate_synthetic, generate_treebank
from jointparse.transition import is_terminal, reconstruct, replay, static_oracle
from jointparse.trees import LabeledSpan


def report(criterion, passed, elapsed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {criterion}: {status} ({elapsed:.2f}s){suffix}")
    assert passed, f"criterion {criterion} failed{suffix}"


def test_criterion_1_figure_fidelity():
    """Hand-encoded figure inputs convert to the published joint trees."""
    started = time.time()
    fig1 = convert.convert_document(
        fixture_text("fig1.dis"), fixture_text("fig1.mrg")
    )
    fig2 = convert.convert_document(
        fixture_text("fig2.dis"), fixture_text("fig2.mrg")
    )
    ok = (
        serialize.write_joint(fig1) == fixture_text("fig1_expected.joint").strip()
        and serialize.write_joint(fig2) == fixture_text("fig2_expected.joint").strip()
    )
    elapsed = time.time() - started
    report("1 (figure fidelity)", ok and elapsed < 1.0, elapsed)


def test_criterion_2_oracle_round_trip():
    """static oracle -> replay -> reconstruct is the identity on 200 trees."""
    started = time.time()
    failures = 0
    for k in range(200):
        tree = generate_synthetic(f"acceptance-2/{k}", max_tokens=40, max_edus=8)
        actions = static_oracle(tree)
        if not is_terminal(state_after(len(tree.tokens), actions)):
            failures += 1
            continue
        if reconstruct(replay(len(tree.tokens), actions), tree.tokens) != tree:
            failures += 1
    elapsed = time.time() - started
    report(
        "2 (oracle round trip)",
        failures == 0 and elapsed < 30.0,
        elapsed,
        f"{200 - failures}/200 trees",
    )


def test_criterion_3_dynamic_oracle_optimality():
    """The dynamic oracle equals exhaustive completion search on 1000 states."""
    started = time.time()
    suite = verify.run_oracle_suite(num_states=1000, max_tokens=6)
    elapsed = time.time() - started
    report(
        "3 (dynamic-oracle optimality)",
        suite.ok and suite.checked >= 1000 and elapsed < 300.0,
        elapsed,
        f"{suite.checked} states, {len(suite.failures)} violations",
    )


def test_criterion_4_gradient_correctness():
    """Analytic gradients match central differences to 1e-4 relative error."""
    started = time.time()
    suite = verify.run_gradcheck_suite(n_docs=3, coords_per_array=6, tolerance=1e-4)
    elapsed = time.time() - started
    report(
        "4 (gradient correctness)",
        suite.ok and elapsed < 120.0,
        elapsed,
        f"{suite.checked} coordinates, worst {suite.details['worst_error']:.2e}, "
        f"{suite.details['kink_skips']} kink-adjacent resampled",
    )


def test_criterion_5_learnability(tmp_path):
    """Ten synthetic trees are memorized to >= 99% span F1 within 50 epochs."""
    started = time.time()
    treebank = generate_treebank("learnability", 10, max_tokens=40, max_edus=6)
    config = trainer.TrainConfig(
        beta=1.0, dropout=0.0, unk_replace=0.0, dev_size=0,
        epochs=50, seed=5, learning_rate=8e-3,
    )
    model_config = ModelConfig(word_dim=48, hidden_dim=64, scorer_hidden=128)
    result = trainer.train(
        treebank, config, model_config, out_dir=str(tmp_path / "run")
    )
    elapsed = time.time() - started
    report(
        "5 (learnability)",
        result.best_f1 >= 99.0 and elapsed < 300.0,
        elapsed,
        f"best overall span F1 {result.best_f1:.2f} at epoch {result.best_epoch}",
    )


def test_criterion_6_metric_correctness():
    """Hand-derived metric values and the structure>=nuclearity>=relation
    nesting on 100 perturbed tree pairs."""
    started = time.time()
    words = [f"w{i}" for i in range(10)]
    gold = reconstruct(
        {
            LabeledSpan(0, 10, "Background->"),
            LabeledSpan(0, 4, "<-Purpose"),
            LabeledSpan(4, 10, "List"),
            LabeledSpan(7, 10, "<-Cause"),
            LabeledSpan(0, 2, "S"),
            LabeledSpan(2, 4, "S"),
            LabeledSpan(4, 7, "S"),
            LabeledSpan(5, 7, "VP"),
            LabeledSpan(7, 9, "NP"),
            LabeledSpan(9, 10, "VP"),
        },
        words,
    )
    pred = reconstruct(
        {
            LabeledSpan(0, 10, "Background->"),
            LabeledSpan(0, 4, "<-Purpose"),
            LabeledSpan(4, 10, "List"),
            LabeledSpan(7, 10, "<-Result"),
            LabeledSpan(0, 2, "S"),
            LabeledSpan(2, 4, "S"),
            LabeledSpan(4, 7, "S"),
            LabeledSpan(5, 7, "ADJP"),
            LabeledSpan(7, 9, "NP"),
            LabeledSpan(9, 10, "VP"),
        },
        words,
    )
    ok = span_prf(gold, pred, "discourse").f1 == pytest.approx(75.0)
    ok = ok and span_prf(gold, gold, "all").f1 == pytest.approx(100.0)
    checked = 0
    for k in range(100):
        base = generate_synthetic(f"acceptance-6/{k}", max_tokens=14, max_edus=5)
        other = perturb_labels(base, seed=k)
        metrics = discourse_metrics(base, other)
        nested = (
            metrics["structure"].f1
            >= metrics["nuclearity"].f1
            >= metrics["relation"].f1
        )
        ok = ok and nested
        checked += 1
    elapsed = time.time() - started
    report(
        "6 (metric correctness)",
        ok and checked == 100 and elapsed < 10.0,
        elapsed,
        f"{checked} perturbed pairs",
    )


PTB_DIR = os.environ.get("JOINTPARSE_PTB_DIR")
RST_DIR = os.environ.get("JOINTPARSE_RST_DIR")


@pytest.mark.skipif(
    not (PTB_DIR and RST_DIR),
    reason="licensed corpora not supplied; set JOINTPARSE_PTB_DIR and "
    "JOINTPARSE_RST_DIR (the latter with TRAINING/ and TEST/ subdirectories) "
    "to run the full-corpus conversion check",
)
def test_criterion_7_corpus_conversion_counts(tmp_path, capsys):
    """With real corpora supplied, conversion reproduces the published
    treebank statistics exactly."""
    started = time.time()
    expected = {
        "TRAINING": {"trees": 347, "tokens": 17837, "min": 30, "max": 2199},
        "TEST": {"trees": 38, "tokens": 4819, "min": 45, "max": 2607},
    }
    ok = True
    details = []
    for split, want in expected.items():
        out = tmp_path / f"{split.lower()}.joint"
        code = cli.main([
            "convert", "--ptb", PTB_DIR, "--rst", os.path.join(RST_DIR, split),
            "--out", str(out),
            "--dropped", str(tmp_path / f"{split.lower()}.dropped"),
        ])
        stdout = capsys.readouterr().out
        stats = json.loads(stdout)["stats"]
        got = {
            "trees": stats["trees"],
            "tokens": stats["tokens"],
            "min": stats["min_tokens"],
            "max": stats["max_tokens"],
        }
        details.append(f"{split}: {got}")
        ok = ok and code == 0 and got == want
    elapsed = time.time() - started
    report("7 (corpus conversion counts)", ok, elapsed, "; ".join(details))
