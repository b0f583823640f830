import pytest

from conftest import perturb_labels

from jointparse import evaluate, trees
from jointparse.evaluate import (
    EvalError,
    PRF,
    corpus_report,
    discourse_metrics,
    prf_from_counts,
    segmentation_f1,
    span_prf,
)
from jointparse.serialize import read_joint, write_joint
from jointparse.synthetic import generate_synthetic
from jointparse.transition import reconstruct
from jointparse.trees import EduSpan, LabeledSpan, labeled_spans, parse_chain

WORDS = [f"w{i}" for i in range(10)]

GOLD_SPANS = {
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
}

# Same extents, one discourse and one constituency label rewritten: three of
# four discourse spans and five of six constituency spans still match, with
# one spurious span at each level.
PRED_SPANS = {
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
}


@pytest.fixture
def gold():
    return reconstruct(GOLD_SPANS, WORDS)


@pytest.fixture
def pred():
    return reconstruct(PRED_SPANS, WORDS)


class TestPrf:
    def test_zero_cases(self):
        assert prf_from_counts(0, 0, 0) == PRF(0.0, 0.0, 0.0)
        assert prf_from_counts(0, 5, 5).f1 == 0.0

    def test_f1_formula(self):
        result = prf_from_counts(1, 2, 4)
        assert result.precision == pytest.approx(50.0)
        assert result.recall == pytest.approx(25.0)
        assert result.f1 == pytest.approx(2 * 50 * 25 / 75)


class TestSpanPrf:
    def test_identity_is_perfect(self, gold):
        for level in ("all", "syntactic", "discourse"):
            result = span_prf(gold, gold, level)
            assert (result.precision, result.recall, result.f1) == (100, 100, 100)

    def test_hand_counted_discourse(self, gold, pred):
        result = span_prf(gold, pred, "discourse")
        assert result.precision == pytest.approx(75.0)
        assert result.recall == pytest.approx(75.0)
        assert result.f1 == pytest.approx(75.0)

    def test_hand_counted_syntactic_and_overall(self, gold, pred):
        syn = span_prf(gold, pred, "syntactic")
        assert syn.precision == pytest.approx(100 * 5 / 6)
        overall = span_prf(gold, pred, "all")
        assert overall.f1 == pytest.approx(80.0)

    def test_token_mismatch_rejected(self, gold):
        other = reconstruct({LabeledSpan(0, 2, "S")}, ["a", "b"])
        with pytest.raises(EvalError, match="tokens"):
            span_prf(gold, other)

    def test_symmetry_swaps_precision_recall(self, gold, pred):
        ab = span_prf(gold, pred, "all")
        ba = span_prf(pred, gold, "all")
        assert ab.precision == pytest.approx(ba.recall)
        assert ab.recall == pytest.approx(ba.precision)
        assert ab.f1 == pytest.approx(ba.f1)


class TestSegmentation:
    def test_identical(self):
        spans = [EduSpan(0, 5), EduSpan(5, 12), EduSpan(12, 20)]
        result = segmentation_f1(spans, spans)
        assert result.f1 == pytest.approx(100.0)

    def test_half_right(self):
        gold = [EduSpan(0, 5), EduSpan(5, 12), EduSpan(12, 20)]
        pred = [EduSpan(0, 5), EduSpan(5, 13), EduSpan(13, 20)]
        result = segmentation_f1(gold, pred)
        assert result.precision == pytest.approx(50.0)
        assert result.recall == pytest.approx(50.0)
        assert result.f1 == pytest.approx(50.0)

    def test_whole_document_prediction_scores_zero(self):
        gold = [EduSpan(0, 5), EduSpan(5, 9)]
        pred = [EduSpan(0, 9)]
        assert segmentation_f1(gold, pred).f1 == 0.0

    def test_non_tiling_rejected(self):
        with pytest.raises(EvalError):
            segmentation_f1([EduSpan(0, 3)], [EduSpan(0, 2)])


class TestDiscourseMetrics:
    def test_identity(self, gold):
        metrics = discourse_metrics(gold, gold)
        assert all(m.f1 == pytest.approx(100.0) for m in metrics.values())

    def test_direction_flip_keeps_structure(self):
        gold = reconstruct(
            {LabeledSpan(0, 2, "<-Elaboration"), LabeledSpan(2, 3, "S")}
            | {LabeledSpan(0, 3, "Cause->")},
            ["a", "b", "c"],
        )
        pred = reconstruct(
            {LabeledSpan(0, 2, "Elaboration->"), LabeledSpan(2, 3, "S")}
            | {LabeledSpan(0, 3, "Cause->")},
            ["a", "b", "c"],
        )
        metrics = discourse_metrics(gold, pred)
        assert metrics["structure"].f1 == pytest.approx(100.0)
        assert metrics["nuclearity"].f1 == pytest.approx(50.0)
        assert metrics["relation"].f1 == pytest.approx(50.0)

    def test_nesting_property_on_perturbed_pairs(self):
        for k in range(60):
            gold = generate_synthetic(f"nest/{k}", max_tokens=14, max_edus=5)
            pred = perturb_labels(gold, seed=k)
            metrics = discourse_metrics(gold, pred)
            assert (
                metrics["structure"].f1
                >= metrics["nuclearity"].f1
                >= metrics["relation"].f1
            )

    def test_symmetry_swaps_precision_recall(self):
        for k in range(10):
            gold = generate_synthetic(f"sym/{k}", max_tokens=12, max_edus=4)
            pred = perturb_labels(gold, seed=k)
            ab = discourse_metrics(gold, pred)
            ba = discourse_metrics(pred, gold)
            for level in ("structure", "nuclearity", "relation"):
                assert ab[level].precision == pytest.approx(ba[level].recall)
                assert ab[level].recall == pytest.approx(ba[level].precision)

    def test_reserialization_invariance(self):
        for k in range(20):
            gold = generate_synthetic(f"reser/{k}", max_tokens=12, max_edus=4)
            pred = perturb_labels(gold, seed=k)
            direct = discourse_metrics(gold, pred)
            cycled = discourse_metrics(
                read_joint(write_joint(gold)), read_joint(write_joint(pred))
            )
            assert direct == cycled
            assert span_prf(gold, pred) == span_prf(
                read_joint(write_joint(gold)), read_joint(write_joint(pred))
            )


class TestCorpusReport:
    def test_field_inventory(self, gold, pred):
        report = corpus_report([gold], [pred])
        expected_fields = {
            f"{part}_{suffix}"
            for part in ("seg", "struct", "nuc", "rel", "const", "disc", "overall")
            for suffix in ("p", "r", "f1")
        }
        assert set(report["corpus"]) == expected_fields
        assert set(report["documents"][0]) == expected_fields

    def test_micro_average_pools_counts(self, gold, pred):
        report = corpus_report([gold, gold], [pred, gold])
        # second document is perfect, so the pooled scores sit between
        per_doc = corpus_report([gold], [pred])["corpus"]
        pooled = report["corpus"]
        assert per_doc["disc_f1"] < pooled["disc_f1"] < 100.0

    def test_length_mismatch_rejected(self, gold):
        with pytest.raises(EvalError, match="documents"):
            corpus_report([gold], [])

    def test_identity_is_all_hundred(self, gold):
        corpus = corpus_report([gold], [gold])["corpus"]
        assert all(value == pytest.approx(100.0) for value in corpus.values())

    def test_walks_each_tree_once_and_parses_each_chain_once(self, monkeypatch):
        golds = [generate_synthetic(f"walks/{k}", 30, 6) for k in range(5)]
        preds = [perturb_labels(tree, seed=k) for k, tree in enumerate(golds)]
        walks, parses = [], []

        def counted_walk(tree):
            walks.append(tree)
            return labeled_spans(tree)

        def counted_parse(chain):
            parses.append(chain)
            return parse_chain(chain)

        monkeypatch.setattr(evaluate, "labeled_spans", counted_walk)
        # Both names, so parses through `trees.is_discourse_chain` count too.
        monkeypatch.setattr(evaluate, "parse_chain", counted_parse)
        monkeypatch.setattr(trees, "parse_chain", counted_parse)
        corpus_report(golds, preds)
        assert len(walks) == 2 * len(golds)
        spans = sum(len(labeled_spans(t)) for t in golds + preds)
        assert len(parses) == spans
