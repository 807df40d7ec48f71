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
import random
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Any, Sequence

from . import disk
from .embedding import EmbeddingProvider, HashEmbedder
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
    cma,
    cost_summary,
    read_runlog,
    series_from_log,
    token_proxy,
)
from .retrieval import Query, RetrievalResult, render_memory_context, retrieve
from .store import MemoryView, Topology, _topology, open_store
from .types import (
    DEFAULT_SUCCESS_THRESHOLD,
    Row,
    _at_least_one,
    _kind,
    _non_empty,
    _number,
    _percent,
    check_rows,
    outcome_from_scores,
    rows_of,
    stored,
)


class ConfigError(Exception):
    """Raised when a simulation config is structurally invalid."""


# Each config dataclass declares its fields with stored (see types.Row), and
# its table is read off them; a dotted path names a key in a section.
# Loading, dumping, unknown-key detection and validation all walk these rows;
# defaults are the dataclass defaults.
_name = _kind(
    (lambda v: isinstance(v, str) and bool(v.strip()), "must be a non-empty string, got {!r}")
)
_phrase = (lambda v: bool(v.strip()), "must be a non-empty phrase")
_hash = (lambda v: v == "hash", "unknown provider {!r} (known: hash)")
_float = _kind(convert=lambda v: float(_number(v)))


def _validate(rows: Sequence[Row], config: Any) -> None:
    """Check each field of a config dataclass and store its kind's form in place."""
    try:
        check_rows(rows, vars(config))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _read(cls: type, rows: Sequence[Row], data: Any, name: str = "") -> dict[str, Any]:
    """Field -> raw value for each row ``data`` sets; rejects unknown keys at every level."""
    prefix = f"{name}." if name else ""
    if not isinstance(data, dict):
        raise ConfigError(f"{name}: must be an object, got {data!r}")
    unknown = sorted(str(key) for key in set(data) - {path.split(".")[0] for path, *_ in rows})
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(prefix + key for key in unknown)}")
    required = {f.name for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING}
    values: dict[str, Any] = {}
    sections: dict[str, list[Row]] = {}
    for path, field, kind, check in rows:
        head, dot, rest = path.partition(".")
        if dot:
            sections.setdefault(head, []).append((rest, field, kind, check))
        elif head in data:
            values[field] = data[head]
        elif field in required:
            raise ConfigError(f"{prefix}{path}: missing")
    for head, section_rows in sections.items():
        values.update(_read(cls, section_rows, data.get(head, {}), prefix + head))
    return values


def _spell(rows: Sequence[Row], values: dict[str, Any]) -> dict[str, Any]:
    """The JSON object holding each row's attribute in ``values`` at the row's path.

    JSON writes a tuple as an array and a ``str`` enum member as its value.
    """
    out: dict[str, Any] = {}
    for path, attribute, _, _ in rows:
        section, _, key = path.rpartition(".")
        (out.setdefault(section, {}) if section else out)[key] = values[attribute]
    return out


@dataclass(frozen=True)
class TaskFamily:
    key: str = stored(str, _phrase)
    task_type: str = stored(_name, default="general")
    base_ts: float = stored(_number, _percent, default=55.0)
    base_cs: float = stored(_number, _percent, default=55.0)
    memory_bonus: float = stored(_number, default=10.0)

    def __post_init__(self) -> None:
        _validate(_FAMILY_ROWS, self)


_FAMILY_ROWS = rows_of(TaskFamily)


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
    TaskFamily(key="payment gateway retry storm triage", task_type="incident"),
    TaskFamily(key="nightly data warehouse sync audit", task_type="analytics"),
    TaskFamily(key="customer onboarding flow regression sweep", task_type="qa"),
)

_NOISE_WORDS = (
    "amber", "basalt", "cobalt", "dunes", "ember", "fjord", "garnet", "harbor",
    "indigo", "juniper", "krill", "lagoon", "meadow", "nimbus", "opal", "prairie",
    "quartz", "reef", "sierra", "tundra", "umber", "violet", "willow", "zephyr",
)

_SIM_EPOCH = datetime(2026, 1, 1, tzinfo=timezone.utc)


@dataclass(frozen=True)
class SimConfig:
    topology: Topology = stored(_topology, default=Topology.LOCAL)
    team_size: int = stored(int, _at_least_one, default=3)
    n_tasks: int = stored(int, _at_least_one, default=30)
    consolidation_n: int = stored(int, _at_least_one, path="consolidation.n", default=5)
    retrieval_k: int = stored(int, _at_least_one, path="retrieval.k", default=3)
    proc_threshold: float = stored(_float, path="retrieval.proc_threshold", default=0.30)
    seed: int = stored(int, default=0)
    memory_enabled: bool = stored(bool, default=True)
    families: tuple[TaskFamily, ...] = stored(
        _kind(convert=tuple), _non_empty, default=DEFAULT_FAMILIES
    )
    success_threshold: float = stored(_float, default=DEFAULT_SUCCESS_THRESHOLD)
    embedding_provider: str = stored(str, _hash, path="embedding.provider", default="hash")
    embedding_dim: int = stored(int, _at_least_one, path="embedding.dim", default=256)

    def __post_init__(self) -> None:
        _validate(_SIM_ROWS, self)

    @property
    def agent_ids(self) -> tuple[str, ...]:
        return tuple(f"agent-{i + 1}" for i in range(self.team_size))


_SIM_ROWS = rows_of(SimConfig)


def _read_config_file(path: Path) -> dict[str, Any]:
    """The JSON object in ``path``; anything else raises :class:`ConfigError` naming it."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError(f"{path}: corrupt JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: must be a JSON object")
    return data


def load_sim_config(source: dict[str, Any] | str | Path) -> SimConfig:
    """Build a :class:`SimConfig` from a dict or a JSON file path.

    Raises :class:`ConfigError` with a message naming the offending key,
    including an unknown key inside a section or a family and a number that
    is not finite, or naming the file when it is not a JSON object.
    """
    if isinstance(source, (str, Path)):
        data = _read_config_file(Path(source))
    else:
        data = dict(source)
    values = _read(SimConfig, _SIM_ROWS, data)
    if "families" in values:
        entries = values["families"]
        if not isinstance(entries, list) or not entries:
            raise ConfigError("families: must be a non-empty list")
        families = []
        for i, entry in enumerate(entries):
            name = f"families[{i}]"
            fields = _read(TaskFamily, _FAMILY_ROWS, entry, name)
            try:
                families.append(TaskFamily(**fields))
            except ConfigError as exc:
                raise ConfigError(f"{name}.{exc}") from None
        values["families"] = families
    return SimConfig(**values)


def config_to_dict(cfg: SimConfig) -> dict[str, Any]:
    families = [_spell(_FAMILY_ROWS, vars(family)) for family in cfg.families]
    return _spell(_SIM_ROWS, {**vars(cfg), "families": families})


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
        config_path = self.out_dir / "config.json"
        current = config_to_dict(cfg)
        if config_path.exists():
            stored = _read_config_file(config_path)
            differing = sorted(
                key for key in set(stored) | set(current) if stored.get(key) != current.get(key)
            )
            if differing:
                raise ConfigError(
                    f"{config_path}: cannot resume under a different config; "
                    f"differing keys: {', '.join(differing)}"
                )
        self.runlog_path = self.out_dir / "runlog.jsonl"
        self.completed = (
            len(read_runlog(self.runlog_path)) if self.runlog_path.exists() else 0
        )
        self.embedder: EmbeddingProvider = HashEmbedder(cfg.embedding_dim)
        self.generator = StubGenerator()
        self.consolidation_cfg = ConsolidationConfig(interval_n=cfg.consolidation_n)
        self.views: dict[str, MemoryView] | None = None
        if cfg.memory_enabled:
            self.views = open_store(
                self.out_dir / "store", cfg.topology, list(cfg.agent_ids)
            )
        self.context_tokens: list[int] = []
        self.consolidations: list[tuple[int, int]] = []
        # frozen only once the run can start: a corrected rerun need not match a failed one
        if not config_path.exists():
            disk.replace(config_path, json.dumps(current, indent=2, sort_keys=True) + "\n")

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
                    timestamp=sim_timestamp(index),
                )
                # a pass stamps with its log's newest episode: the one just recorded
                new_procedures = maybe_consolidate(
                    view, self.consolidation_cfg, self.generator, self.embedder
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
    disk.replace(out / "sweep_report.json", json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report
