"""Deterministic simulation harness.

Tasks come from recurring families: each family contributes a fixed key
phrase, a task type, base scores, and a memory bonus that applies whenever
retrieval surfaces an item carrying the family key. One designated agent
executes each task (round-robin over the team); the full team is recorded as
the episode's composition. Everything is a pure function of the config and
seed, including timestamps, so reruns and kill-and-reload runs reproduce
identical run logs and store bytes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Any, Iterable, Sequence

from .embedding import EmbeddingProvider, provider_from_config
from .lifecycle import (
    ConsolidationConfig,
    StubGenerator,
    maybe_consolidate,
    post_task_update,
)
from .metrics import (
    RunLog,
    RunLogEntry,
    append_runlog_entry,
    read_runlog,
    token_proxy,
)
from .retrieval import Query, RetrievalResult, render_memory_context, retrieve
from .store import MemoryView, Topology, open_store
from .types import DEFAULT_SUCCESS_THRESHOLD, outcome_from_scores


class ConfigError(Exception):
    """Raised when a simulation config is structurally invalid."""


@dataclass(frozen=True)
class TaskFamily:
    key: str
    task_type: str
    base_ts: float
    base_cs: float
    memory_bonus: float

    def __post_init__(self) -> None:
        if not self.key.strip():
            raise ConfigError("families[].key: must be a non-empty phrase")
        for name, value in (("base_ts", self.base_ts), ("base_cs", self.base_cs)):
            if not 0.0 <= float(value) <= 100.0:
                raise ConfigError(f"families[].{name}: must be in [0, 100], got {value!r}")


@dataclass(frozen=True)
class SyntheticTask:
    task_id: str
    task_type: str
    description: str
    actions: tuple[str, ...]
    family_key: str
    base_ts: float
    base_cs: float
    memory_bonus: float
    seed: int


DEFAULT_FAMILIES = (
    TaskFamily(
        key="payment gateway retry storm triage",
        task_type="incident",
        base_ts=55.0,
        base_cs=55.0,
        memory_bonus=10.0,
    ),
    TaskFamily(
        key="nightly data warehouse sync audit",
        task_type="analytics",
        base_ts=55.0,
        base_cs=55.0,
        memory_bonus=10.0,
    ),
    TaskFamily(
        key="customer onboarding flow regression sweep",
        task_type="qa",
        base_ts=55.0,
        base_cs=55.0,
        memory_bonus=10.0,
    ),
)

_NOISE_WORDS = (
    "amber", "basalt", "cobalt", "dunes", "ember", "fjord", "garnet", "harbor",
    "indigo", "juniper", "krill", "lagoon", "meadow", "nimbus", "opal", "prairie",
    "quartz", "reef", "sierra", "tundra", "umber", "violet", "willow", "zephyr",
)

_SIM_EPOCH = datetime(2026, 1, 1, tzinfo=timezone.utc)


@dataclass(frozen=True)
class SimConfig:
    topology: Topology = Topology.LOCAL
    team_size: int = 3
    n_tasks: int = 30
    consolidation_n: int = 5
    retrieval_k: int = 3
    proc_threshold: float = 0.30
    seed: int = 0
    memory_enabled: bool = True
    families: tuple[TaskFamily, ...] = DEFAULT_FAMILIES
    success_threshold: float = DEFAULT_SUCCESS_THRESHOLD
    embedding_provider: str = "hash"
    embedding_dim: int = 256

    def __post_init__(self) -> None:
        object.__setattr__(self, "topology", Topology(self.topology))
        object.__setattr__(self, "families", tuple(self.families))
        if self.team_size < 1:
            raise ConfigError(f"team_size: must be >= 1, got {self.team_size}")
        if self.n_tasks < 1:
            raise ConfigError(f"n_tasks: must be >= 1, got {self.n_tasks}")
        if self.consolidation_n < 1:
            raise ConfigError(f"consolidation.n: must be >= 1, got {self.consolidation_n}")
        if self.retrieval_k < 1:
            raise ConfigError(f"retrieval.k: must be >= 1, got {self.retrieval_k}")
        if self.embedding_dim < 1:
            raise ConfigError(f"embedding.dim: must be >= 1, got {self.embedding_dim}")
        if not self.families:
            raise ConfigError("families: must list at least one task family")

    @property
    def agent_ids(self) -> tuple[str, ...]:
        return tuple(f"agent-{i + 1}" for i in range(self.team_size))


_TOP_LEVEL_KEYS = {
    "topology", "team_size", "n_tasks", "consolidation", "retrieval", "seed",
    "memory_enabled", "families", "success_threshold", "embedding",
}
_SECTION_KEYS = {
    "consolidation": {"n"},
    "retrieval": {"k", "proc_threshold"},
    "embedding": {"provider", "dim"},
}
_FAMILY_KEYS = {f.name for f in dataclasses.fields(TaskFamily)}


def _reject_unknown_keys(data: dict[str, Any], keys: set[str], prefix: str = "") -> None:
    unknown = sorted(str(key) for key in set(data) - keys)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(prefix + key for key in unknown)}")


def load_sim_config(source: dict[str, Any] | str | Path) -> SimConfig:
    """Build a :class:`SimConfig` from a dict or a JSON file path.

    Raises :class:`ConfigError` with a message naming the offending key,
    including an unknown key inside a section or a family and a number that
    is not finite.
    """
    if isinstance(source, (str, Path)):
        data = json.loads(Path(source).read_text(encoding="utf-8"))
    else:
        data = dict(source)
    if not isinstance(data, dict):
        raise ConfigError(f"config: must be an object, got {type(data).__name__}")
    _reject_unknown_keys(data, _TOP_LEVEL_KEYS)

    topology_raw = data.get("topology", "local")
    try:
        topology = Topology(topology_raw)
    except ValueError:
        raise ConfigError(
            f"topology: must be one of local, shared, hybrid; got {topology_raw!r}"
        ) from None

    def _int(name: str, value: Any) -> int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{name}: must be an integer, got {value!r}")
        return value

    def _number(name: str, value: Any) -> int | float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{name}: must be a number, got {value!r}")
        try:
            finite = math.isfinite(value)
        except OverflowError:
            finite = False
        if not finite:
            raise ConfigError(f"{name}: must be finite, got {value!r}")
        return value

    def _object(name: str, value: Any, keys: set[str]) -> dict[str, Any]:
        if not isinstance(value, dict):
            raise ConfigError(f"{name}: must be an object, got {value!r}")
        _reject_unknown_keys(value, keys, f"{name}.")
        return value

    def _section(name: str) -> dict[str, Any]:
        return _object(name, data.get(name, {}), _SECTION_KEYS[name])

    def _family(name: str, value: Any) -> TaskFamily:
        f = _object(name, value, _FAMILY_KEYS)
        if "key" not in f:
            raise ConfigError(f"{name}.key: missing")
        if not isinstance(f["key"], str):
            raise ConfigError(f"{name}.key: must be a string, got {f['key']!r}")
        task_type = f.get("task_type", "general")
        if not isinstance(task_type, str) or not task_type.strip():
            raise ConfigError(f"{name}.task_type: must be a non-empty string, got {task_type!r}")
        return TaskFamily(
            key=f["key"],
            task_type=task_type,
            base_ts=_number("families[].base_ts", f.get("base_ts", 55.0)),
            base_cs=_number("families[].base_cs", f.get("base_cs", 55.0)),
            memory_bonus=_number("families[].memory_bonus", f.get("memory_bonus", 10.0)),
        )

    memory_enabled = data.get("memory_enabled", True)
    if not isinstance(memory_enabled, bool):
        raise ConfigError(f"memory_enabled: must be true or false, got {memory_enabled!r}")
    consolidation = _section("consolidation")
    retrieval_cfg = _section("retrieval")
    embedding_cfg = _section("embedding")
    families_raw = data.get("families")
    if families_raw is None:
        families = DEFAULT_FAMILIES
    else:
        if not isinstance(families_raw, list) or not families_raw:
            raise ConfigError("families: must be a non-empty list")
        families = tuple(_family(f"families[{i}]", f) for i, f in enumerate(families_raw))
    provider = embedding_cfg.get("provider", "hash")
    if not isinstance(provider, str):
        raise ConfigError(f"embedding.provider: must be a string, got {provider!r}")

    return SimConfig(
        topology=topology,
        team_size=_int("team_size", data.get("team_size", 3)),
        n_tasks=_int("n_tasks", data.get("n_tasks", 30)),
        consolidation_n=_int("consolidation.n", consolidation.get("n", 5)),
        retrieval_k=_int("retrieval.k", retrieval_cfg.get("k", 3)),
        proc_threshold=float(
            _number("retrieval.proc_threshold", retrieval_cfg.get("proc_threshold", 0.30))
        ),
        seed=_int("seed", data.get("seed", 0)),
        memory_enabled=memory_enabled,
        families=families,
        success_threshold=float(
            _number("success_threshold", data.get("success_threshold", DEFAULT_SUCCESS_THRESHOLD))
        ),
        embedding_provider=provider,
        embedding_dim=_int("embedding.dim", embedding_cfg.get("dim", 256)),
    )


def config_to_dict(cfg: SimConfig) -> dict[str, Any]:
    return {
        "topology": cfg.topology.value,
        "team_size": cfg.team_size,
        "n_tasks": cfg.n_tasks,
        "consolidation": {"n": cfg.consolidation_n},
        "retrieval": {"k": cfg.retrieval_k, "proc_threshold": cfg.proc_threshold},
        "seed": cfg.seed,
        "memory_enabled": cfg.memory_enabled,
        "families": [dataclasses.asdict(f) for f in cfg.families],
        "success_threshold": cfg.success_threshold,
        "embedding": {"provider": cfg.embedding_provider, "dim": cfg.embedding_dim},
    }


def sim_timestamp(index: int) -> str:
    """Deterministic per-task timestamp; index is 0-based."""
    return (_SIM_EPOCH + timedelta(minutes=index)).isoformat()


def make_task(cfg: SimConfig, index: int) -> SyntheticTask:
    """The ``index``-th task (0-based); a pure function of (config, seed).

    Only the two noise words in the description are pseudo-random, drawn from
    a generator seeded per task so that resumed runs see identical tasks.
    """
    family = cfg.families[index % len(cfg.families)]
    rng = random.Random(f"{cfg.seed}:{index}")
    noise = rng.sample(_NOISE_WORDS, 2)
    description = f"Handle {family.key} case {noise[0]} {noise[1]}"
    actions = (f"run {family.key} playbook", f"log {family.key} outcome")
    return SyntheticTask(
        task_id=f"t{index + 1:04d}",
        task_type=family.task_type,
        description=description,
        actions=actions,
        family_key=family.key,
        base_ts=family.base_ts,
        base_cs=family.base_cs,
        memory_bonus=family.memory_bonus,
        seed=cfg.seed,
    )


def render_action_prompt(
    agent_profile_text: str,
    reasoning_prompt: str,
    memory_block: str,
    task: str,
    agent_descriptions: str,
) -> str:
    """Byte-exact action prompt; an empty memory block drops its delimiters."""
    lines = [f"You are {agent_profile_text}", reasoning_prompt]
    if memory_block:
        lines += ["--- Past Experience ---", memory_block, "--- End Past Experience ---"]
    lines += [
        "",
        "=== CURRENT TASK ===",
        task,
        "=== END TASK ===",
        "",
        "Other agents you can interact with:",
        agent_descriptions,
        "You do not have to communicate with other agents.",
    ]
    return "\n".join(lines)


def _clip(value: float) -> float:
    return max(0.0, min(100.0, value))


def _agent_description(agent_id: str, slot: int) -> str:
    return f"{agent_id}: scripted operator covering rotation slot {slot}"


_REASONING_PROMPT = "Review any past experience, then execute the scripted steps in order."


@dataclass
class RunResult:
    """A finished run plus in-process observations the JSONL schema omits."""

    log: RunLog
    out_dir: Path
    context_tokens: list[int]
    consolidations: list[tuple[int, int]]

    @property
    def first_consolidation_index(self) -> int | None:
        return self.consolidations[0][0] if self.consolidations else None


class SimRunner:
    """Step-at-a-time simulation driver.

    All cross-task state lives in the persisted store and the run log, so a
    runner recreated on the same output directory resumes exactly where the
    previous one stopped.
    """

    def __init__(self, cfg: SimConfig, out_dir: Path | str) -> None:
        self.cfg = cfg
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        config_path = self.out_dir / "config.json"
        current = config_to_dict(cfg)
        if config_path.exists():
            stored = json.loads(config_path.read_text(encoding="utf-8"))
            differing = sorted(
                key for key in set(stored) | set(current) if stored.get(key) != current.get(key)
            )
            if differing:
                raise ConfigError(
                    f"{config_path}: cannot resume under a different config; "
                    f"differing keys: {', '.join(differing)}"
                )
        else:
            config_path.write_text(
                json.dumps(current, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
        self.runlog_path = self.out_dir / "runlog.jsonl"
        self.completed = (
            len(read_runlog(self.runlog_path)) if self.runlog_path.exists() else 0
        )
        self.embedder: EmbeddingProvider = provider_from_config(
            {"provider": cfg.embedding_provider, "dim": cfg.embedding_dim}
        )
        self.generator = StubGenerator()
        self.consolidation_cfg = ConsolidationConfig(interval_n=cfg.consolidation_n)
        self.views: dict[str, MemoryView] | None = None
        if cfg.memory_enabled:
            self.views = open_store(
                self.out_dir / "store", cfg.topology, list(cfg.agent_ids)
            )
        self.context_tokens: list[int] = []
        self.consolidations: list[tuple[int, int]] = []

    @property
    def done(self) -> bool:
        return self.completed >= self.cfg.n_tasks

    def _retrieve(self, view: MemoryView, task: SyntheticTask) -> RetrievalResult:
        query = Query(
            text=task.description,
            k=self.cfg.retrieval_k,
            proc_fallback_threshold=self.cfg.proc_threshold,
        )
        return retrieve(view, query, self.embedder)

    def step(self) -> RunLogEntry:
        """Execute the next task end to end and append its log entry."""
        if self.done:
            raise RuntimeError(f"run already complete ({self.completed} tasks)")
        cfg = self.cfg
        index = self.completed
        task = make_task(cfg, index)
        agents = cfg.agent_ids
        executor = agents[index % len(agents)]
        slot = index % len(agents) + 1

        retrieval: RetrievalResult | None = None
        memory_block = ""
        if self.views is not None:
            retrieval = self._retrieve(self.views[executor], task)
            memory_block = render_memory_context(retrieval)

        descriptions = "\n".join(
            f"- {_agent_description(aid, j + 1)}"
            for j, aid in enumerate(agents)
            if aid != executor
        )
        prompt = render_action_prompt(
            agent_profile_text=_agent_description(executor, slot),
            reasoning_prompt=_REASONING_PROMPT,
            memory_block=memory_block,
            task=task.description,
            agent_descriptions=descriptions,
        )

        matched = bool(retrieval) and any(
            task.family_key in scored.item.text_for_embedding
            for scored in retrieval.items
        )
        bonus = task.memory_bonus if matched else 0.0
        outcome = outcome_from_scores(
            _clip(task.base_ts + bonus),
            _clip(task.base_cs + bonus),
            cfg.success_threshold,
        )
        verdict = "success" if outcome.success else "issues"
        response = (
            f"Ran {len(task.actions)} scripted steps for {task.task_id}. "
            f"Outcome: {verdict}."
        )

        kind_used = "none"
        retrieved_ids: tuple[str, ...] = ()
        procedures_used: tuple[str, ...] = ()
        if retrieval is not None:
            kind_used = retrieval.kind_used
            retrieved_ids = retrieval.ids
            if retrieval.kind_used == "procedural":
                procedures_used = retrieval.ids

        if self.views is not None:
            view = self.views[executor]
            stamp = sim_timestamp(index)
            # one store flush per task, finished before the run-log append
            with view.batch():
                post_task_update(
                    view,
                    task.description,
                    task.actions,
                    outcome,
                    procedures_used,
                    self.generator,
                    task.task_type,
                    team_composition=agents,
                    task_index=index + 1,
                    timestamp=stamp,
                )
                new_procedures = maybe_consolidate(
                    view,
                    self.consolidation_cfg,
                    self.generator,
                    self.embedder,
                    timestamp=stamp,
                )
            if new_procedures:
                self.consolidations.append((index + 1, len(new_procedures)))

        entry = RunLogEntry(
            task_index=index + 1,
            task_id=task.task_id,
            ts=outcome.ts,
            cs=outcome.cs,
            tokens_in=token_proxy(prompt),
            tokens_out=token_proxy(response),
            team_size=cfg.team_size,
            kind_used=kind_used,
            retrieved_ids=retrieved_ids,
            procedures_used=procedures_used,
        )
        append_runlog_entry(self.runlog_path, entry)
        self.context_tokens.append(token_proxy(memory_block))
        self.completed += 1
        return entry

    def run(self) -> RunResult:
        while not self.done:
            self.step()
        return RunResult(
            log=read_runlog(self.runlog_path),
            out_dir=self.out_dir,
            context_tokens=list(self.context_tokens),
            consolidations=list(self.consolidations),
        )


def run_sim(cfg: SimConfig, out_dir: Path | str) -> RunResult:
    """Run a full simulation into ``out_dir`` and return its results."""
    return SimRunner(cfg, out_dir).run()


SWEEP_TEAM_SIZES = (1, 3, 5, 7)
SWEEP_CONSOLIDATION_N = 3


def sweep(
    base_cfg: SimConfig,
    team_sizes: Sequence[int] = SWEEP_TEAM_SIZES,
    n_seeds: int = 1,
    out_dir: Path | str = "sweep_out",
    consolidation_n: int = SWEEP_CONSOLIDATION_N,
) -> dict[str, Any]:
    """Run the team-size grid, with and without memory per cell.

    Every (team_size, seed) cell gets two runs on identical task streams.
    The grid report is written to ``sweep_report.json`` and returned; cells
    are keyed and ordered by (team_size, seed) so the report bytes do not
    depend on input order.
    """
    if n_seeds < 1:
        raise ConfigError(f"n_seeds: must be >= 1, got {n_seeds}")
    sizes = sorted(set(int(s) for s in team_sizes))
    if not sizes or sizes[0] < 1:
        raise ConfigError(f"team_sizes: must be positive integers, got {team_sizes!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    from .metrics import cma, cost_summary, series_from_log  # local to avoid cycle noise

    cells = []
    for size in sizes:
        for offset in range(n_seeds):
            seed = base_cfg.seed + offset
            cell_dir = out / "cells" / f"size-{size}_seed-{seed}"
            cfg_memory = replace(
                base_cfg,
                team_size=size,
                seed=seed,
                memory_enabled=True,
                consolidation_n=consolidation_n,
            )
            cfg_baseline = replace(cfg_memory, memory_enabled=False)
            result_memory = run_sim(cfg_memory, cell_dir / "memory")
            result_baseline = run_sim(cfg_baseline, cell_dir / "nomem")
            series_memory = series_from_log(result_memory.log)
            series_baseline = series_from_log(result_baseline.log)
            advantage = cma(result_memory.log, result_baseline.log)
            cells.append(
                {
                    "team_size": size,
                    "seed": seed,
                    "aas_memory": series_memory.aas,
                    "aas_baseline": series_baseline.aas,
                    "final_cma": advantage[-1],
                    "avg_tokens_memory": cost_summary(result_memory.log)[
                        "avg_tokens_per_task"
                    ],
                    "avg_tokens_baseline": cost_summary(result_baseline.log)[
                        "avg_tokens_per_task"
                    ],
                }
            )

    report = {
        "team_sizes": sizes,
        "n_seeds": n_seeds,
        "n_tasks": base_cfg.n_tasks,
        "consolidation_n": consolidation_n,
        "cells": cells,
    }
    (out / "sweep_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return report
