"""Joint syntacto-discourse treebank tools and an end-to-end span parser."""

from .convert import (
    AlignmentError,
    align_edus,
    convert_document,
    convert_rst,
    corpus_stats,
    splice_edus,
)
from .ptb import PtbParseError, read_ptb
from .rst import RstParseError, RstStructureError, RstTree, read_rst
from .serialize import (
    JointParseError,
    read_joint,
    read_segmentation,
    read_treebank,
    write_joint,
    write_segmentation,
    write_treebank,
)
from .evaluate import (
    PRF,
    EvalError,
    corpus_report,
    discourse_metrics,
    segmentation_f1,
    span_prf,
)
from .model import (
    ModelConfig,
    SpanScorer,
    Vocabulary,
    encode,
    init_parameters,
    load_checkpoint,
    loss_and_gradients,
    save_checkpoint,
)
from .synthetic import generate_synthetic, generate_treebank
from .trainer import TrainConfig, TrainingDiverged, rollout, train
from .transition import (
    ParserState,
    TransitionError,
    apply_action,
    axiom,
    dynamic_oracle,
    legal_actions,
    parse_documents,
    parse_greedy,
    reachable_count,
    reconstruct,
    replay,
    static_oracle,
)
from .trees import (
    DiscourseLabel,
    EduSpan,
    InvariantError,
    JointTree,
    LabeledSpan,
    SyntacticLabel,
    Token,
    extract_edus,
    labeled_spans,
    validate_tree,
)

__all__ = [name for name in dir() if not name.startswith("_")]
