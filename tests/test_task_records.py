"""Task records and pass records: every store write after the meta is an append."""

import contextlib
import json
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

import teammem.disk as disk
import teammem.harness as harness_module
from teammem.embedding import HashEmbedder
from teammem.harness import SimConfig, SimRunner
from teammem.lifecycle import ConsolidationConfig, StubGenerator, consolidate, maybe_consolidate
from teammem.store import SHARED_OWNER, StoreError, open_store
from teammem.types import Episode, Outcome, Procedure, to_dict

from helpers import record

AGENTS = ["agent-1", "agent-2"]


def episode(agent_id, index, used=(), success=True):
    return Episode(
        agent_id=agent_id,
        task_index=index,
        timestamp=f"2026-01-01T00:{index:02d}:00+00:00",
        task_description=f"triage ticket {index}",
        team_composition=tuple(AGENTS),
        actions=("read runbook",),
        outcome=Outcome(ts=80.0, cs=70.0, success=success),
        lessons=("keep the runbook open",),
        related_procedures=frozenset(used),
    )


def procedure(pid, owner=SHARED_OWNER):
    return Procedure(
        procedure_id=pid,
        owner_id=owner,
        created_at="2026-01-01T00:00:00+00:00",
        updated_at="2026-01-01T00:00:00+00:00",
        title="Read the runbook first",
        knowledge="Open the runbook before touching anything.",
        successes=1,
        source_episodes=frozenset({"agent-1:0"}),
    )


def files_of(root):
    return {
        path: (path.read_bytes(), path.stat().st_mtime_ns)
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def read_doc(path):
    return json.loads(path.read_text(encoding="utf-8"))


# -- one task, one log line ---------------------------------------------------------


def test_record_task_writes_one_log_line_and_no_snapshot(tmp_path, writes):
    views = open_store(tmp_path / "store", "shared", AGENTS)
    view = views["agent-1"]
    view.upsert_procedure(procedure("proc-00001"))
    view.record_task(episode("agent-1", 1, ["proc-00001"]), "incident", ["proc-00001"])
    writes.clear()
    log = tmp_path / "store" / SHARED_OWNER / "episodic.jsonl"
    before = log.read_bytes()
    view.record_task(episode("agent-1", 2, ["proc-00001"], False), "incident", ["proc-00001"])
    assert [(op, path) for op, path, _ in writes] == [("append", log)]
    assert writes[0][2].encode() == log.read_bytes()[len(before):]
    added = log.read_bytes()[len(before):].decode().splitlines()
    assert len(added) == 1
    line = json.loads(added[0])
    assert (line["seq"], line["task_type"], line["task_index"]) == (2, "incident", 2)
    assert "procedures_used" not in line  # related_procedures already says it
    assert added[0] == json.dumps(line, sort_keys=True, separators=(",", ":"))

    live = view.get_procedure("proc-00001")
    assert (live.successes, live.failures) == (2, 1)
    assert live.updated_at == "2026-01-01T00:02:00+00:00"
    assert views["agent-2"].profiles()["agent-1"].total_tasks == 2
    assert open_store(tmp_path / "store")["agent-2"].snapshot() == views["agent-2"].snapshot()
    assert not (tmp_path / "store" / SHARED_OWNER / "procedural.json").exists()


def test_procedures_used_is_logged_when_the_episode_does_not_say_it(tmp_path):
    views = open_store(tmp_path / "store", "local", AGENTS)
    view = views["agent-1"]
    view.upsert_procedure(procedure("proc-00001", "agent-1"))
    view.record_task(episode("agent-1", 1, ["proc-00001"]), "qa", ["proc-00001", "proc-00001"])
    log = tmp_path / "store" / "agent-1" / "episodic.jsonl"
    assert json.loads(log.read_text())["procedures_used"] == ["proc-00001", "proc-00001"]
    assert view.get_procedure("proc-00001").successes == 3
    assert open_store(tmp_path / "store")["agent-1"].get_procedure("proc-00001").successes == 3


def test_record_task_rejects_bad_input_before_changing_anything(tmp_path):
    views = open_store(tmp_path / "store", "shared", AGENTS)
    view = views["agent-1"]
    view.record_task(episode("agent-1", 1), "incident", [])
    files = files_of(tmp_path / "store")
    snapshot = view.snapshot()
    with pytest.raises(StoreError):
        view.record_task(episode("agent-1", 2), "incident", ["proc-00404"])
    with pytest.raises(StoreError):
        view.record_task(episode("agent-1", 1), "incident", [])
    with pytest.raises(StoreError):
        views["agent-2"].record_task(episode("agent-1", 3), "incident", [])
    assert view.snapshot() == snapshot
    assert files_of(tmp_path / "store") == files


def test_replaying_a_record_over_a_missing_procedure_names_the_record(tmp_path):
    views = open_store(tmp_path / "store", "shared", AGENTS)
    view = views["agent-1"]
    view.upsert_procedure(procedure("proc-00001"))
    view.record_task(episode("agent-1", 1), "incident", [])
    view.record_task(episode("agent-1", 2, ["proc-00001"]), "incident", ["proc-00001"])
    (tmp_path / "store" / SHARED_OWNER / "procedural.jsonl").unlink()  # the upsert's record
    with pytest.raises(StoreError) as exc:
        open_store(tmp_path / "store")
    assert "task record seq 2" in str(exc.value) and "proc-00001" in str(exc.value)


def upserted_at(tmp_path, created):
    views = open_store(tmp_path / "store", "shared", AGENTS)
    view = views["agent-1"]
    pinned = replace(procedure("proc-00001"), created_at=created, updated_at=created)
    view.upsert_procedure(pinned, created)
    return view


# A bump is stamped with its task's timestamp, whatever the procedure's: a
# January task that used a procedure stamped February, and a task an hour
# after creation written at another UTC offset, whose string sorts first.
@pytest.mark.parametrize(
    "batched, created, stamp",
    [
        pytest.param(False, "2026-02-01T00:00:00+00:00", "2026-01-01T00:00:00+00:00",
                     id="write-through"),
        pytest.param(True, "2026-02-01T00:00:00+00:00", "2026-01-01T00:00:00+00:00",
                     id="batched"),
        pytest.param(False, "2026-01-01T10:00:00+02:00", "2026-01-01T09:00:00+00:00",
                     id="mixed-offset"),
    ],
)
def test_a_bump_stamped_before_its_procedure_is_applied(tmp_path, batched, created, stamp):
    view = upserted_at(tmp_path, created)
    view.record_task(episode("agent-1", 1), "incident", [])
    early = replace(episode("agent-1", 2, ["proc-00001"]), timestamp=stamp)
    with view.batch() if batched else contextlib.nullcontext():
        view.record_task(early, "incident", ["proc-00001"])
    bumped = view.get_procedure("proc-00001")
    assert (bumped.successes, bumped.failures) == (2, 0)
    assert (bumped.created_at, bumped.updated_at) == (created, stamp)
    assert open_store(tmp_path / "store")["agent-1"].snapshot() == view.snapshot()
    view.upsert_procedure(procedure("proc-00002"))  # a pass record after the bump
    reopened = open_store(tmp_path / "store")["agent-1"]
    assert reopened.get_procedure("proc-00001") == bumped


def test_replaying_a_bump_stamped_before_its_procedure_keeps_the_counters(tmp_path):
    view = upserted_at(tmp_path, "2026-02-01T00:00:00+00:00")
    view.record_task(
        replace(episode("agent-1", 1), timestamp="2026-03-01T00:00:00+00:00"), "incident",
        ["proc-00001"],
    )
    log = tmp_path / "store" / SHARED_OWNER / "episodic.jsonl"
    log.write_text(log.read_text().replace("2026-03-01", "2026-01-01"), encoding="utf-8")
    replayed = open_store(tmp_path / "store")["agent-1"].get_procedure("proc-00001")
    live = view.get_procedure("proc-00001")
    assert (replayed.successes, replayed.failures) == (live.successes, live.failures) == (2, 0)
    assert replayed.updated_at == "2026-01-01T00:00:00+00:00"


def test_duplicate_check_keys_are_derived_only(tmp_path):
    views = open_store(tmp_path / "store", "local", AGENTS)
    view = views["agent-1"]
    record(view, episode("agent-1", 1))
    live = view.episodic_store()
    assert live.class_numbers == {(("keep the runbook open",), True): 0}
    assert live.class_members == [["agent-1:1"]]
    assert live.episode_class == {"agent-1:1": 0}
    index = ("class_numbers", "class_members", "episode_class")
    assert not any(getattr(view.snapshot(), name) for name in index)
    assert view.snapshot() == live
    assert not any(name in repr(live) for name in index)
    reopened = open_store(tmp_path / "store")["agent-1"]
    with pytest.raises(StoreError):
        record(reopened, episode("agent-1", 1))


# -- replay on open ----------------------------------------------------------------


@pytest.mark.parametrize("topology", ["local", "shared", "hybrid"])
def test_reopening_after_every_step_gives_the_live_state(tmp_path, topology):
    cfg = SimConfig(topology=topology, n_tasks=40, seed=5)
    runner = SimRunner(cfg, tmp_path / "run")
    root = tmp_path / "run" / "store"
    used = 0
    for _ in range(cfg.n_tasks):
        used += bool(runner.step().procedures_used)
        files = files_of(root)
        reopened = open_store(root)
        assert files_of(root) == files  # opening writes nothing
        for agent, view in runner.views.items():
            assert reopened[agent].snapshot() == view.snapshot()
    assert used > 0  # replay bumped procedures


# -- checkpoints under faults --------------------------------------------------------


class Boom(Exception):
    pass


def find_checkpoint_step(cfg, out):
    """Run until a step that uses procedures and moves a watermark; return it.

    Also returns the executor's procedures as they stood right before that
    step's consolidation pass, with this step's outcomes already counted.
    """
    runner = SimRunner(cfg, out)
    captured = {}
    real = harness_module.maybe_consolidate

    def spy(view, *args, **kwargs):
        captured.clear()
        captured.update(view.procedures())
        return real(view, *args, **kwargs)

    harness_module.maybe_consolidate = spy
    try:
        while True:
            index = runner.completed
            view = runner.views[cfg.agent_ids[index % cfg.team_size]]
            watermark = view.consolidation_watermark()
            entry = runner.step()
            if entry.procedures_used and view.consolidation_watermark() != watermark:
                return runner, index + 1, dict(captured)
    finally:
        harness_module.maybe_consolidate = real


def cut_each_write(cfg, base, tmp_path, monkeypatch, writes):
    """Rerun the step after ``base`` on a copy of it, once per pass-record append.

    Run ``k`` fails at the step's ``k``-th append to a ``procedural.jsonl``,
    before it lands; yields ``k`` and the store root it left. Stops at the
    first run that finishes its step.
    """
    record = disk.append  # the writes fixture's
    k = 0
    while True:
        k += 1
        out = tmp_path / f"cut-{k}"
        shutil.copytree(base, out)
        runner = SimRunner(cfg, out)
        start = len(writes)

        def failing_append(path, text):
            passes = sum(p.name == "procedural.jsonl" for _, p, _ in writes[start:])
            if Path(path).name == "procedural.jsonl" and passes == k - 1:
                raise Boom(path)
            record(path, text)

        monkeypatch.setattr(disk, "append", failing_append)
        try:
            runner.step()
        except Boom:
            pass
        else:
            return
        finally:
            monkeypatch.setattr(disk, "append", record)
        yield k, out / "store"


@pytest.mark.parametrize("topology", ["local", "shared", "hybrid"])
def test_a_checkpoint_cut_at_any_write_loses_and_doubles_no_evidence(
    tmp_path, monkeypatch, writes, topology
):
    cfg = SimConfig(topology=topology, n_tasks=60, seed=5)
    reference, step, before_pass = find_checkpoint_step(cfg, tmp_path / "reference")
    executor = cfg.agent_ids[(step - 1) % cfg.team_size]
    assert before_pass

    def evidence(procedures):
        return {
            pid: (p.successes, p.failures, p.updated_at, p.source_episodes)
            for pid, p in procedures.items()
        }

    after_pass = evidence(reference.views[executor].procedures())
    base = tmp_path / "base"
    runner = SimRunner(cfg, base)
    for _ in range(step - 1):
        runner.step()

    k = 0
    for k, root in cut_each_write(cfg, base, tmp_path, monkeypatch, writes):
        reopened = open_store(root)
        for agent, expected in reference.views.items():
            view = reopened[agent]
            assert view.episodes() == expected.episodes(), (k, agent)
            assert view.profiles() == expected.profiles(), (k, agent)
            assert view.team_patterns() == expected.team_patterns(), (k, agent)
        # the executor's procedures stand as before its pass (this step's
        # outcomes counted) or as after it: nothing in between, nothing twice
        got = evidence(reopened[executor].procedures())
        assert got in (evidence(before_pass), after_pass), k
    # the flush appends one pass record
    assert k == 1


@pytest.mark.parametrize("topology", ["local", "shared", "hybrid"])
def test_a_cut_never_separates_a_consolidation_pass_from_its_watermark(
    tmp_path, monkeypatch, writes, topology
):
    cfg = SimConfig(topology=topology, n_tasks=60, seed=5)
    reference, step, _ = find_checkpoint_step(cfg, tmp_path / "reference")
    executor = cfg.agent_ids[(step - 1) % cfg.team_size]

    base = tmp_path / "base"
    runner = SimRunner(cfg, base)
    for _ in range(step - 1):
        runner.step()

    def state(view):
        return view.consolidation_watermark(), sorted(view.procedures())

    before, after = state(runner.views[executor]), state(reference.views[executor])
    assert before != after
    k = 0
    for k, root in cut_each_write(cfg, base, tmp_path, monkeypatch, writes):
        assert state(open_store(root)[executor]) in (before, after), k
    assert k >= 1


# -- pass records ------------------------------------------------------------------


def test_a_direct_consolidation_checkpoints_every_lagging_snapshot(tmp_path, writes):
    """A direct pass over 200 bumping task records appends one pass record, holding no bump."""
    # the shape of a store built by post_task_update plus one consolidate,
    # which moves no watermark
    views = open_store(tmp_path / "store", "shared", AGENTS)
    views["agent-1"].upsert_procedure(procedure("proc-00001"))
    for i in range(200):
        agent = AGENTS[i % 2]
        views[agent].record_task(episode(agent, i, ["proc-00001"]), "incident", ["proc-00001"])
    writes.clear()
    assert consolidate(views["agent-1"], ConsolidationConfig(), StubGenerator(), HashEmbedder())
    path = tmp_path / "store" / SHARED_OWNER / "procedural.jsonl"
    assert [(op, p) for op, p, _ in writes] == [("append", path)]
    line = json.loads(writes[0][2])
    assert line["seq"] == 200 and line["watermarks"] == {}
    assert all("failures" not in change for change in line["procedures"])
    reopened = open_store(tmp_path / "store")
    assert reopened["agent-2"].snapshot() == views["agent-2"].snapshot()


def test_a_local_pass_writes_only_its_own_snapshot_and_others_keep_their_lag(
    tmp_path, writes
):
    """A local pass appends to its own procedure log only; the others' logs keep their bytes."""
    agents = ["agent-1", "agent-2", "agent-3"]
    root = tmp_path / "store"
    views = open_store(root, "local", agents)
    for agent in agents:
        views[agent].upsert_procedure(procedure("proc-00001", owner=agent))
    # agent-2 and agent-3 use their procedure, so replay bumps it
    for i, agent in enumerate(["agent-2", "agent-3", "agent-2"]):
        views[agent].record_task(episode(agent, i, ["proc-00001"]), "incident", ["proc-00001"])
    for i in range(5):
        record(views["agent-1"], episode("agent-1", i))
    others = {agent: (root / agent / "procedural.jsonl").read_bytes() for agent in agents[1:]}

    writes.clear()
    watermark = views["agent-1"].consolidation_watermark()
    with views["agent-1"].batch():  # as a sim task runs its pass
        maybe_consolidate(views["agent-1"], ConsolidationConfig(), StubGenerator(), HashEmbedder())
    assert views["agent-1"].consolidation_watermark() == watermark + 5
    assert [(op, path) for op, path, _ in writes] == [
        ("append", root / "agent-1" / "procedural.jsonl")
    ]
    assert {agent: (root / agent / "procedural.jsonl").read_bytes() for agent in agents[1:]} == (
        others
    )
    reopened = open_store(root)
    for agent in agents:
        assert reopened[agent].snapshot() == views[agent].snapshot()
        assert reopened[agent].procedures() == views[agent].procedures()


def live_state(views):
    """Everything a reopen must give back, for every view."""
    state = {}
    for agent, view in sorted(views.items()):
        owner = view._store.store_set(view.procedure_owner())
        state[agent] = (
            view.episodes(), view.procedures(), view.consolidation_watermark(),
            owner.next_procedure_seq, view.profiles(), view.team_patterns(),
        )
    return state


@pytest.mark.parametrize("n_tasks", [60, 240])
@pytest.mark.parametrize("topology", ["local", "shared", "hybrid"])
def test_a_reopen_and_a_fresh_runner_per_task_give_the_live_state(tmp_path, topology, n_tasks):
    cfg = SimConfig(topology=topology, n_tasks=n_tasks, seed=7)
    live = SimRunner(cfg, tmp_path / "live")
    live.run()
    state = live_state(live.views)
    assert live_state(open_store(tmp_path / "live" / "store")) == state
    for _ in range(n_tasks):  # criterion 8's resume, one task per runner
        SimRunner(cfg, tmp_path / "resumed").step()
    assert live_state(SimRunner(cfg, tmp_path / "resumed").views) == state
    assert files_of(tmp_path / "resumed" / "store").keys() != set()
    resumed = {p.relative_to(tmp_path / "resumed"): data for p, (data, _) in
               files_of(tmp_path / "resumed").items()}
    assert resumed == {p.relative_to(tmp_path / "live"): data for p, (data, _) in
                       files_of(tmp_path / "live").items()}


@pytest.mark.parametrize("topology", ["local", "shared", "hybrid"])
def test_a_run_appends_every_write_after_the_meta(tmp_path, writes, topology):
    cfg = SimConfig(topology=topology, n_tasks=60, seed=7)
    runner = SimRunner(cfg, tmp_path / "run")
    created = [(op, path.name) for op, path, _ in writes]
    assert created == [("replace", "store_meta.json"), ("replace", "config.json")]
    writes.clear()
    runner.run()
    assert {op for op, _, _ in writes} == {"append"}
    assert {path.name for _, path, _ in writes} == {
        "episodic.jsonl", "procedural.jsonl", "runlog.jsonl"
    }
    assert not list((tmp_path / "run").rglob("procedural.json"))


def test_an_id_handed_out_and_never_upserted_is_not_handed_out_again(tmp_path):
    views = open_store(tmp_path / "store", "shared", AGENTS)
    view = views["agent-1"]
    record(view, episode("agent-1", 1))
    assert view.allocate_procedure_id() == "proc-00001"
    view.persist()
    assert view.allocate_procedure_id() == "proc-00002"
    view.upsert_procedure(procedure("proc-00002"))
    reopened = open_store(tmp_path / "store")["agent-1"]
    assert reopened.allocate_procedure_id() == "proc-00003"
    lines = (tmp_path / "store" / SHARED_OWNER / "procedural.jsonl").read_text().splitlines()
    assert [json.loads(line).get("next_procedure_seq") for line in lines] == [2, None]


@pytest.mark.parametrize(
    "team, spelled",
    [
        (("agent-1", "agent-2", "agent-3"), False),
        (("agent-3", "agent-1", "agent-2"), True),  # the roster, reordered
        (("agent-1", "agent-3"), True),  # a sub-team
    ],
    ids=["roster", "reordered", "sub-team"],
)
@pytest.mark.parametrize("topology", ["local", "shared", "hybrid"])
def test_a_team_is_spelled_unless_it_is_the_roster(tmp_path, topology, team, spelled):
    roster = ["agent-2", "agent-1", "agent-3"]
    views = open_store(tmp_path / "store", topology, roster)
    record(views["agent-1"], replace(episode("agent-1", 1), team_composition=team))
    owner = SHARED_OWNER if topology == "shared" else "agent-1"
    line = json.loads((tmp_path / "store" / owner / "episodic.jsonl").read_text())
    assert ("team_composition" in line) is spelled
    reopened = open_store(tmp_path / "store")["agent-1"]
    (loaded,) = reopened.episodes()
    assert loaded.team_composition == team
    if not spelled:  # one shared tuple: the roster the store holds
        assert loaded.team_composition is reopened._store._roster
        key = next(iter(reopened._store.store_set(reopened.procedure_owner()).tally))
        assert key[1] is reopened._store._roster


def write_torn_task_6(topology, tmp_path, monkeypatch):
    """A 12-task run whose task-6 store append writes half its bytes, then fails; the log."""
    import errno
    import os

    cfg = SimConfig(topology=topology, team_size=3, n_tasks=12, seed=5)
    runner = SimRunner(cfg, tmp_path / "run")
    for _ in range(5):
        runner.step()
    real = os.write

    def half_then_enospc(fd, data):
        real(fd, bytes(data[: len(data) // 2]))
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "write", half_then_enospc)
    with pytest.raises(OSError):
        runner.step()
    monkeypatch.setattr(os, "write", real)
    with pytest.raises(StoreError):  # task 6 is applied in memory, and its retry is refused
        runner.step()
    executor = cfg.agent_ids[5 % cfg.team_size]
    return tmp_path / "run" / "store" / (SHARED_OWNER if topology == "shared" else executor)


@pytest.mark.parametrize("topology", ["local", "shared", "hybrid"])
def test_a_failed_append_is_never_written_twice(tmp_path, monkeypatch, topology):
    log = write_torn_task_6(topology, tmp_path, monkeypatch) / "episodic.jsonl"
    text = log.read_text()
    lines = text.split("\n")
    # every line but the last is whole; the last is at most one torn fragment
    assert all(json.loads(line) for line in lines[:-1])
    fragment = lines[-1]
    assert 0 < len(fragment) < len(lines[-2])
    with pytest.raises(json.JSONDecodeError):
        json.loads(fragment)
    with pytest.raises(StoreError, match=f"{log}, line {len(lines)}: truncated record"):
        open_store(log.parent.parent)


# -- other schema versions ---------------------------------------------------------


OLD_EPISODE = {
    "actions": ["read runbook"], "agent_id": "agent-1", "env_context": "",
    "lessons": ["keep the runbook open"], "outcome": {"cs": 70.0, "success": True, "ts": 80.0},
    "related_procedures": [], "task_description": "triage ticket 1", "task_index": 1,
    "team_composition": ["agent-1", "agent-2"], "timestamp": "2026-01-01T00:01:00+00:00",
}


def write_old_store(root, version):
    """A shared store laid out as schema version 1, 2, 3 or 4 wrote it.

    Version 1 kept the episodes inside ``episodic.json``; versions 2 and 3
    logged them in ``episodic.jsonl`` and kept the watermark in
    ``episodic.json``, and version 2 stored the derived profile fields.
    Versions 4 and 5 logged task records and kept the procedures and the
    watermarks in a ``procedural.json`` snapshot; version 4 listed every
    source episode id there.
    """

    def dump(path, document):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    meta = {"agents": AGENTS, "schema_version": version, "topology": "shared"}
    dump(root / "store_meta.json", meta)
    shared = root / SHARED_OWNER
    if version >= 4:
        line = json.dumps({**OLD_EPISODE, "seq": 1, "task_type": "incident"}, sort_keys=True)
        shared.mkdir(parents=True)
        (shared / "episodic.jsonl").write_text(line + "\n", encoding="utf-8")
        dump(shared / "procedural.json", {
            "next_procedure_seq": 2, "procedures": [to_dict(procedure("proc-00001"))],
            "schema_version": version, "seq": 1, "watermarks": {SHARED_OWNER: 1},
        })
        return
    watermark = {"consolidation_watermark": 1, "schema_version": version}
    if version == 1:
        dump(shared / "episodic.json", {**watermark, "episodes": [OLD_EPISODE]})
    else:
        dump(shared / "episodic.json", watermark)
        line = json.dumps(OLD_EPISODE, sort_keys=True, separators=(",", ":")) + "\n"
        (shared / "episodic.jsonl").write_text(line, encoding="utf-8")
    dump(shared / "transactive.json", {
        "profiles": [{
            "agent_id": "agent-1", "collaboration_history": {}, "proficiency": {"incident": 1.0},
            "specializations": ["incident"], "successes": 1,
            "task_type_counts": {"incident": {"attempts": 1, "successes": 1}}, "total_tasks": 1,
        }],
        "schema_version": version,
        "team_patterns": [],
    })


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
def test_a_store_of_an_older_schema_version_is_rejected_untouched(tmp_path, version):
    root = tmp_path / "store"
    write_old_store(root, version)
    files = files_of(root)
    for args in ((), ("shared", AGENTS)):
        with pytest.raises(StoreError) as exc:
            open_store(root, *args)
        meta = root / "store_meta.json"
        assert f"unsupported schema_version in {meta}: {version}" in str(exc.value)
    assert files_of(root) == files
