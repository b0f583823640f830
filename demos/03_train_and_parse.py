"""Train a small model on synthetic documents and parse with it.

Training follows the dynamic oracle with probability beta and the model's
own preference otherwise, so the scorer learns to recover from states its
mistakes produce.  Synthetic structure is random given the words, so the
interesting outcome here is memorization of the training documents; the
dev score mostly measures chance agreement.
"""

import numpy as np

from jointparse import generate_treebank
from jointparse.evaluate import corpus_report
from jointparse.model import ModelConfig, SpanScorer
from jointparse.trainer import TrainConfig, train
from jointparse.transition import parse_documents
from jointparse.serialize import write_joint


def main():
    treebank = generate_treebank("demo-train", 12, max_tokens=18, max_edus=4)
    config = TrainConfig(
        beta=0.8,
        dropout=0.1,
        epochs=30,
        seed=7,
        dev_size=2,
        learning_rate=8e-3,
        unk_replace=0.0,
    )
    model_config = ModelConfig(word_dim=32, hidden_dim=32, scorer_hidden=64)
    result = train(treebank, config, model_config, log=print)
    print()
    print(f"best dev F1 {result.best_f1:.2f} at epoch {result.best_epoch}")
    print()

    scorer = SpanScorer(result.params, result.vocab)
    docs = treebank[:3]
    preds = parse_documents(scorer, [[t.text for t in d.tokens] for d in docs])
    for gold, pred in zip(docs, preds):
        print("gold:", write_joint(gold))
        print("pred:", write_joint(pred))
        print()
    corpus = corpus_report(docs, preds)["corpus"]
    print("on those three documents:",
          {k: corpus[k] for k in ("overall_f1", "struct_f1", "nuc_f1", "rel_f1")})


if __name__ == "__main__":
    np.seterr(all="raise")
    main()
