"""Lifelong memory engine for multi-agent systems.

Episodic and procedural stores, and transactive state derived from them,
behind topology-aware views, with standardized retrieval, periodic
consolidation, evaluation metrics, and a deterministic simulation harness.
"""

from .embedding import HashEmbedder, cosine, hash_embed, provider_from_config
from .harness import (
    SimConfig,
    SimRunner,
    SyntheticTask,
    TaskFamily,
    load_sim_config,
    render_action_prompt,
    run_sim,
    sweep,
)
from .lifecycle import (
    ConsolidationConfig,
    Generator,
    StubGenerator,
    consolidate,
    maybe_consolidate,
    post_task_update,
)
from .metrics import (
    MetricSeries,
    RunLog,
    RunLogEntry,
    cma,
    cost_reduction,
    cost_summary,
    emit_report,
    read_runlog,
    series_from_log,
    token_proxy,
    write_runlog,
)
from .retrieval import (
    Query,
    RetrievalResult,
    ScoredItem,
    render_memory_context,
    retrieve,
    score_pool,
)
from .store import MemoryStore, MemoryView, StoreError, StoreSet, Topology, open_store
from .types import (
    AgentProfile,
    Episode,
    MemoryItem,
    Outcome,
    Procedure,
    TeamPattern,
    canonical_team_key,
    combined_score,
    derive_agent_reliability,
    derive_reliability,
    outcome_from_scores,
)

__version__ = "0.1.0"

__all__ = [
    "AgentProfile",
    "ConsolidationConfig",
    "Episode",
    "Generator",
    "HashEmbedder",
    "MemoryItem",
    "MemoryStore",
    "MemoryView",
    "MetricSeries",
    "Outcome",
    "Procedure",
    "Query",
    "RetrievalResult",
    "RunLog",
    "RunLogEntry",
    "ScoredItem",
    "SimConfig",
    "SimRunner",
    "StoreError",
    "StoreSet",
    "StubGenerator",
    "SyntheticTask",
    "TaskFamily",
    "TeamPattern",
    "Topology",
    "canonical_team_key",
    "cma",
    "combined_score",
    "consolidate",
    "cosine",
    "cost_reduction",
    "cost_summary",
    "derive_agent_reliability",
    "derive_reliability",
    "emit_report",
    "hash_embed",
    "load_sim_config",
    "maybe_consolidate",
    "outcome_from_scores",
    "post_task_update",
    "provider_from_config",
    "read_runlog",
    "render_action_prompt",
    "render_memory_context",
    "retrieve",
    "run_sim",
    "score_pool",
    "series_from_log",
    "sweep",
    "token_proxy",
    "write_runlog",
]
