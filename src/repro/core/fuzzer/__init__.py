"""Event Fuzzer (paper Section VI).

Offline module: grammar-based fuzzing over the cleaned ISA to find
instruction gadgets — a reset sequence followed by a trigger sequence —
that reliably perturb each vulnerable HPC event. Pipeline: instruction
cleanup -> code generation + execution -> result confirmation (multiple
executions, repeated cold/hot triggers, gadget reordering) -> gadget
filtering (clustering, best gadget, minimal covering set).
"""

from repro.core.fuzzer.grammar import (
    Gadget,
    GadgetGrammar,
    normalize_signature,
)
from repro.core.fuzzer.cleanup import InstructionCleaner, CleanupReport
from repro.core.fuzzer.generator import ExecutionHarness, MeasuredDelta
from repro.core.fuzzer.confirm import ConfirmationResult, GadgetConfirmer
from repro.core.fuzzer.filtering import (
    GadgetCluster,
    GadgetFilter,
    minimal_covering_set,
)
from repro.core.fuzzer.campaign import (
    DEFAULT_SHARD_SIZE,
    CampaignError,
    CampaignStats,
    FuzzingCampaign,
    ShardConfig,
    ShardResult,
    ShardSpec,
    critical_path_seconds,
    gadget_stream,
    load_shard_checkpoint,
    merge_screened,
    plan_shards,
    save_shard_checkpoint,
    screen_shard,
)
from repro.core.fuzzer.fuzzer import EventFuzzer, FuzzingReport

__all__ = [
    "CampaignError",
    "CampaignStats",
    "CleanupReport",
    "ConfirmationResult",
    "DEFAULT_SHARD_SIZE",
    "EventFuzzer",
    "ExecutionHarness",
    "FuzzingCampaign",
    "FuzzingReport",
    "Gadget",
    "GadgetCluster",
    "GadgetConfirmer",
    "GadgetFilter",
    "GadgetGrammar",
    "InstructionCleaner",
    "MeasuredDelta",
    "ShardConfig",
    "ShardResult",
    "ShardSpec",
    "critical_path_seconds",
    "gadget_stream",
    "load_shard_checkpoint",
    "merge_screened",
    "minimal_covering_set",
    "normalize_signature",
    "plan_shards",
    "save_shard_checkpoint",
    "screen_shard",
]
