"""Dynamic Miss-Counting (DMC) rule mining — an ICDE 2000 reproduction.

Exact mining of high-confidence implication rules and high-similarity
column pairs from a 0/1 matrix *without support pruning*, in two data
scans, by counting the rows where candidate column pairs disagree and
deleting a candidate the moment its miss budget is exhausted.

Quickstart::

    import repro

    result = repro.mine(
        [["bread", "butter"], ["bread", "butter", "jam"], ["jam"]],
        minconf=0.9,
    )
    for rule in result.rules.sorted():
        print(rule.format(result.vocabulary))

:func:`mine` is the facade over every engine (in-memory, partitioned,
streaming, memory-budgeted); the per-engine entry points
(:func:`find_implication_rules` and friends) remain available.

Package layout:

- :mod:`repro.core` — DMC-base / DMC-bitmap / DMC-imp / DMC-sim and
  the partitioned extension (the paper's contribution).
- :mod:`repro.matrix` — the 0/1 matrix substrate, row re-ordering, IO.
- :mod:`repro.baselines` — brute force, a-priori, DHP, Min-Hash, K-Min.
- :mod:`repro.datasets` — synthetic stand-ins for the paper's data.
- :mod:`repro.mining` — rule grouping and verification.
- :mod:`repro.experiments` — one harness function per table/figure.
- :mod:`repro.runtime` — fault tolerance for production runs:
  checkpoint/resume, input validation, memory guards, I/O retry.
- :mod:`repro.observe` — zero-dependency tracing, metrics and progress
  reporting threaded through every pipeline.
"""

from repro.api import (
    ENGINES,
    EnginePlan,
    MiningConfig,
    MiningResult,
    mine,
    resolve_engine,
)
from repro.baselines import (
    apriori_frequent_itemsets,
    apriori_pair_rules,
    apriori_pair_similarity,
    implication_rules_bruteforce,
    kmin_implication_rules,
    minhash_similarity_rules,
    similarity_rules_bruteforce,
)
from repro.core import (
    BitmapConfig,
    ImplicationRule,
    PipelineStats,
    PruningOptions,
    RuleSet,
    SimilarityRule,
    find_implication_rules,
    find_implication_rules_partitioned,
    find_similarity_rules,
    find_similarity_rules_partitioned,
)
from repro.datasets import dataset_names, load_dataset
from repro.matrix import BinaryMatrix, Vocabulary
from repro.mining import expand_keyword, similarity_components
from repro.observe import (
    ConsoleProgress,
    MetricsRegistry,
    NullObserver,
    ProgressObserver,
    RunObserver,
    Tracer,
)
from repro.runtime import (
    CheckpointStore,
    FaultyStorage,
    LocalStorage,
    MemoryGuard,
    RowValidationError,
    RowValidator,
    Storage,
    StorageFull,
)

__version__ = "1.0.0"

__all__ = [
    "BinaryMatrix",
    "BitmapConfig",
    "CheckpointStore",
    "ConsoleProgress",
    "ENGINES",
    "EnginePlan",
    "FaultyStorage",
    "ImplicationRule",
    "LocalStorage",
    "MemoryGuard",
    "MetricsRegistry",
    "MiningConfig",
    "MiningResult",
    "NullObserver",
    "PipelineStats",
    "ProgressObserver",
    "PruningOptions",
    "RowValidationError",
    "RowValidator",
    "RuleSet",
    "RunObserver",
    "SimilarityRule",
    "Storage",
    "StorageFull",
    "Tracer",
    "Vocabulary",
    "__version__",
    "apriori_frequent_itemsets",
    "apriori_pair_rules",
    "apriori_pair_similarity",
    "dataset_names",
    "expand_keyword",
    "find_implication_rules",
    "find_implication_rules_partitioned",
    "find_similarity_rules",
    "find_similarity_rules_partitioned",
    "implication_rules_bruteforce",
    "kmin_implication_rules",
    "load_dataset",
    "mine",
    "minhash_similarity_rules",
    "resolve_engine",
    "similarity_components",
    "similarity_rules_bruteforce",
]
