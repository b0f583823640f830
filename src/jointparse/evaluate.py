"""Labeled-span, segmentation, and discourse metrics.

Spans are compared on token-index extents, so end-to-end output and
gold-segmentation output go through the same scorers.  Discourse structure
is scored at three nested strictness levels: bare spans, spans plus
nuclearity direction, and spans plus direction plus relation (so the three
F1 values can only decrease).
"""

from dataclasses import dataclass

from .trees import (
    DiscourseLabel,
    extract_edus,
    labeled_spans,
    parse_chain,
    spans_tile,
)


class EvalError(ValueError):
    pass


@dataclass(frozen=True)
class PRF:
    precision: float
    recall: float
    f1: float


def prf_from_counts(match, n_pred, n_gold) -> PRF:
    p = 100.0 * match / n_pred if n_pred else 0.0
    r = 100.0 * match / n_gold if n_gold else 0.0
    f1 = 2.0 * p * r / (p + r) if p + r else 0.0
    return PRF(p, r, f1)


def _check_tokens(gold, pred):
    if [t.text for t in gold.tokens] != [t.text for t in pred.tokens]:
        raise EvalError("gold and predicted trees are over different tokens")


def _match(gold_items, pred_items):
    return len(gold_items & pred_items), len(pred_items), len(gold_items)


# ---------------------------------------------------------------------------
# labeled spans by level (constituency / discourse / overall)


_SPAN_LEVELS = ("all", "discourse", "syntactic")


def _span_items(tree) -> dict:
    """The tree's labeled spans at each level of `_SPAN_LEVELS`, and its
    discourse items at each strictness level, from one walk of the tree and
    one parse of each span's chain."""
    items = {"all": labeled_spans(tree)}
    for key in ("discourse", "syntactic", "structure", "nuclearity", "relation"):
        items[key] = set()
    for span in items["all"]:
        labels = parse_chain(span.chain)
        if len(labels) != 1 or not isinstance(labels[0], DiscourseLabel):
            items["syntactic"].add(span)
            continue
        label = labels[0]
        items["discourse"].add(span)
        items["structure"].add((span.start, span.end))
        items["nuclearity"].add((span.start, span.end, label.form))
        items["relation"].add((span.start, span.end, label.form, label.relation))
    return items


def span_counts(gold, pred, level="all"):
    _check_tokens(gold, pred)
    if level not in _SPAN_LEVELS:
        raise EvalError(f"unknown level {level!r}")
    return _match(_span_items(gold)[level], _span_items(pred)[level])


def span_prf(gold, pred, level="all") -> PRF:
    """Precision/recall/F1 of labeled spans; chains match only if identical."""
    return prf_from_counts(*span_counts(gold, pred, level))


# ---------------------------------------------------------------------------
# segmentation


def boundary_counts(gold_edus, pred_edus):
    gold_edus, pred_edus = list(gold_edus), list(pred_edus)
    if not gold_edus or not pred_edus:
        raise EvalError("empty segmentation")
    n = gold_edus[-1].end
    if not spans_tile(gold_edus, n) or not spans_tile(pred_edus, n):
        raise EvalError("segmentations do not tile the same document")
    gold_bounds = {s.start for s in gold_edus[1:]}
    pred_bounds = {s.start for s in pred_edus[1:]}
    return _match(gold_bounds, pred_bounds)


def segmentation_f1(gold_edus, pred_edus) -> PRF:
    """P/R/F1 over internal EDU start positions."""
    return prf_from_counts(*boundary_counts(gold_edus, pred_edus))


# ---------------------------------------------------------------------------
# discourse structure at the three strictness levels


def discourse_counts(gold, pred):
    _check_tokens(gold, pred)
    gold_items, pred_items = _span_items(gold), _span_items(pred)
    return {
        key: _match(gold_items[key], pred_items[key])
        for key in ("structure", "nuclearity", "relation")
    }


def discourse_metrics(gold, pred) -> dict:
    """{"structure": PRF, "nuclearity": PRF, "relation": PRF}, nested by
    construction: every relation match is a nuclearity match is a span match."""
    return {
        key: prf_from_counts(*counts)
        for key, counts in discourse_counts(gold, pred).items()
    }


# ---------------------------------------------------------------------------
# corpus reports


_REPORT_PARTS = (
    ("seg", None),
    ("struct", "structure"),
    ("nuc", "nuclearity"),
    ("rel", "relation"),
    ("const", "syntactic"),
    ("disc", "discourse"),
    ("overall", "all"),
)


def _doc_counts(gold, pred):
    _check_tokens(gold, pred)
    gold_items, pred_items = _span_items(gold), _span_items(pred)
    counts = {"seg": boundary_counts(extract_edus(gold), extract_edus(pred))}
    for short, key in _REPORT_PARTS[1:]:
        counts[short] = _match(gold_items[key], pred_items[key])
    return counts


def _record(counts) -> dict:
    record = {}
    for short, _ in _REPORT_PARTS:
        result = prf_from_counts(*counts[short])
        record[f"{short}_p"] = round(result.precision, 4)
        record[f"{short}_r"] = round(result.recall, 4)
        record[f"{short}_f1"] = round(result.f1, 4)
    return record


def corpus_report(gold_trees, pred_trees) -> dict:
    """One record per document plus the corpus micro-average."""
    gold_trees, pred_trees = list(gold_trees), list(pred_trees)
    if len(gold_trees) != len(pred_trees):
        raise EvalError(
            f"{len(gold_trees)} gold documents vs {len(pred_trees)} predicted"
        )
    documents = []
    totals = {short: [0, 0, 0] for short, _ in _REPORT_PARTS}
    for gold, pred in zip(gold_trees, pred_trees):
        counts = _doc_counts(gold, pred)
        documents.append(_record(counts))
        for short, triple in counts.items():
            for slot in range(3):
                totals[short][slot] += triple[slot]
    corpus = _record({short: tuple(v) for short, v in totals.items()})
    return {"documents": documents, "corpus": corpus}
