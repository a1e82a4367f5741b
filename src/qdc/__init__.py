"""Continual dense retrieval with query drift compensation.

Train a small hashed bag-of-tokens encoder over a task sequence, index
each task's corpus once, and keep old indexes searchable by subtracting
the accumulated query embedding drift instead of re-indexing.
"""
from .config import (
    METHODS,
    RunConfig,
    apply_overrides,
    derive_rng,
    load_config,
    parse_method,
    save_config,
    seed_chain,
)
from .datagen import (
    StreamSpec,
    TaskDataset,
    export_stream,
    generate_task_stream,
    load_beir_dataset,
    validate_dataset,
)
from .drift import (
    DriftLedger,
    DriftVector,
    accumulate_drift,
    append_record,
    compensate_query,
    compensate_query_path,
    estimate_drift,
    ledger_from_dict,
    ledger_to_dict,
)
from .encoder import (
    EncoderParams,
    FeatureRows,
    RowGrad,
    contrastive_loss,
    distill_loss,
    encode,
    encode_batch,
    feature_rows,
    grad_check,
    init_params,
    load_snapshot,
    merge_grads,
    save_snapshot,
    sgd_step,
    tokenize,
    tokenize_rows,
)
from .errors import QdcError
from .index import (
    CorpusIndex,
    DocRecord,
    build_index,
    doc_encoding_text,
    load_index,
    save_index,
    search_topk,
)
from .metrics import (
    MetricReport,
    PDReport,
    compute_metrics,
    drift_report,
    drift_report_csv,
    performance_drop,
)
from .pipeline import (
    ContinualState,
    RetrievalRun,
    RunResult,
    bench,
    evaluate_matrix,
    evaluate_methods,
    init_state,
    mine_hard_negatives,
    old_task_average,
    retrieve,
    retrieve_eval,
    train_from,
    train_task,
    train_trajectory,
    zero_shot_run,
)

__version__ = "0.1.0"
