"""Store topologies, visibility, durability, and failure modes."""

import json
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from teammem.harness import SimConfig, run_sim
from teammem.store import (
    SHARED_OWNER,
    MemoryStore,
    StoreError,
    StoreSet,
    Topology,
    _decode_sources,
    _encode_sources,
    open_store,
)
from teammem.types import Episode, Outcome, Procedure, episode_from_dict, json_line

from helpers import record

AGENTS = ["agent-1", "agent-2"]


def episode_for(agent_id, index, lessons=("keep the runbook open",)):
    return Episode(
        agent_id=agent_id,
        task_index=index,
        timestamp=f"2026-01-01T00:{index:02d}:00+00:00",
        task_description=f"triage ticket {index}",
        team_composition=tuple(AGENTS),
        actions=("read runbook", "apply fix"),
        outcome=Outcome(ts=80.0, cs=70.0, success=True),
        lessons=lessons,
    )


def procedure_for(pid, owner, sources, created="2026-01-01T00:10:00+00:00", s=1, f=0):
    return Procedure(
        procedure_id=pid,
        owner_id=owner,
        created_at=created,
        updated_at=created,
        title="Read the runbook first",
        knowledge="Open the runbook before touching anything.",
        successes=s,
        failures=f,
        source_episodes=frozenset(sources),
    )


def open_views(tmp_path, topology):
    return open_store(tmp_path / "store", topology, AGENTS)


def files_of(root):
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


# -- creation & metadata ------------------------------------------------------


def test_store_meta_written_on_create(tmp_path):
    open_views(tmp_path, "hybrid")
    meta = json.loads((tmp_path / "store" / "store_meta.json").read_text())
    assert meta == {
        "agents": ["agent-1", "agent-2"],
        "schema_version": 5,
        "topology": "hybrid",
    }


def test_open_store_reads_meta_when_args_omitted(tmp_path):
    open_views(tmp_path, "shared")
    views = open_store(tmp_path / "store")
    assert sorted(views) == AGENTS
    assert views["agent-1"].topology is Topology.SHARED


def test_open_store_without_meta_requires_args(tmp_path):
    with pytest.raises(StoreError):
        open_store(tmp_path / "store")


def test_reopen_with_different_topology_fails(tmp_path):
    open_views(tmp_path, "local")
    with pytest.raises(StoreError):
        open_store(tmp_path / "store", "shared", AGENTS)


def test_reopen_with_different_roster_fails(tmp_path):
    open_views(tmp_path, "local")
    with pytest.raises(StoreError):
        open_store(tmp_path / "store", "local", ["agent-1", "agent-9"])


def test_unexpected_owner_directory_rejected(tmp_path):
    open_views(tmp_path, "local")
    (tmp_path / "store" / "intruder").mkdir()
    with pytest.raises(StoreError):
        open_store(tmp_path / "store")


def test_duplicate_roster_rejected(tmp_path):
    with pytest.raises(StoreError):
        MemoryStore(tmp_path / "store", Topology.LOCAL, ["a", "a"])


@pytest.mark.parametrize(
    "topology, agents",
    [
        ("local", ["../escape", "agent-2"]),
        ("local", ["agent-1", "a/b"]),
        ("local", ["agent-1", ".."]),
        ("local", [".", "agent-2"]),
        ("shared", ["", "agent-2"]),
        ("hybrid", ["shared", "agent-2"]),
    ],
    ids=["parent-escape", "slash", "dotdot", "dot", "empty", "hybrid-shared"],
)
def test_a_roster_id_that_cannot_name_its_own_directory_is_rejected(tmp_path, topology, agents):
    with pytest.raises(StoreError):
        open_store(tmp_path / "store", topology, agents)
    assert list(tmp_path.iterdir()) == []


def test_a_roster_read_back_from_store_meta_is_checked(tmp_path):
    open_views(tmp_path, "local")
    meta_path = tmp_path / "store" / "store_meta.json"
    meta = json.loads(meta_path.read_text())
    meta_path.write_text(json.dumps({**meta, "agents": ["../x", "agent-2"]}), encoding="utf-8")
    with pytest.raises(StoreError) as exc:
        open_store(tmp_path / "store")
    assert "'../x'" in str(exc.value)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["store"]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda meta: [], "is not a JSON object"),
        (lambda meta: {**meta, "agents": "agent-1"}, "agents must be a list of strings"),
        (lambda meta: {**meta, "agents": [1]}, "agents must be a list of strings"),
        (lambda meta: {**meta, "topology": 3}, "topology must be a topology name"),
        (lambda meta: {**meta, "topology": "mesh"}, "topology must be a topology name"),
        (lambda meta: {k: v for k, v in meta.items() if k != "agents"}, "lacks agents"),
    ],
    ids=[
        "not-an-object", "agents-str", "agent-int", "topology-int", "topology-unknown", "no-agents"
    ],
)
@pytest.mark.parametrize("reopen_with_roster", [False, True])
def test_a_wrong_typed_store_meta_value_names_the_file_and_key(
    tmp_path, edit, message, reopen_with_roster
):
    views = open_views(tmp_path, "shared")
    record(views["agent-1"], episode_for("agent-1", 1))
    meta_path = tmp_path / "store" / "store_meta.json"
    meta_path.write_text(json.dumps(edit(json.loads(meta_path.read_text()))), encoding="utf-8")
    files = files_of(tmp_path)
    with pytest.raises(StoreError) as exc:
        if reopen_with_roster:
            open_store(tmp_path / "store", "shared", AGENTS)
        else:
            open_store(tmp_path / "store")
    assert str(meta_path) in str(exc.value) and message in str(exc.value)
    assert files_of(tmp_path) == files


def test_an_agent_named_shared_is_allowed_outside_hybrid(tmp_path):
    views = open_store(tmp_path / "store", "local", ["shared", "agent-2"])
    record(views["shared"], replace(episode_for("agent-1", 1), agent_id="shared"))
    assert len(open_store(tmp_path / "store")["shared"].episodes()) == 1


def test_unknown_agent_view_rejected(tmp_path):
    views = open_views(tmp_path, "local")
    store = views["agent-1"]._store
    from teammem.store import MemoryView

    with pytest.raises(StoreError):
        MemoryView(store, "agent-9")


# -- episodic visibility -------------------------------------------------------


def test_local_episodes_are_private(tmp_path):
    views = open_views(tmp_path, "local")
    record(views["agent-1"], episode_for("agent-1", 1))
    assert len(views["agent-1"].episodes()) == 1
    assert views["agent-2"].episodes() == ()


def test_shared_episodes_are_visible_to_all(tmp_path):
    views = open_views(tmp_path, "shared")
    record(views["agent-1"], episode_for("agent-1", 1))
    assert len(views["agent-2"].episodes()) == 1


def test_hybrid_episodes_stay_private(tmp_path):
    views = open_views(tmp_path, "hybrid")
    record(views["agent-1"], episode_for("agent-1", 1))
    assert views["agent-2"].episodes() == ()


@pytest.mark.parametrize("topology", ["local", "shared", "hybrid"])
def test_record_task_rejects_a_foreign_episode(tmp_path, topology):
    views = open_views(tmp_path, topology)
    with pytest.raises(StoreError):
        record(views["agent-2"], finished_episode("agent-1"), "incident")
    assert views["agent-1"].snapshot() == views["agent-2"].snapshot() == StoreSet()
    assert [p.name for p in (tmp_path / "store").iterdir()] == ["store_meta.json"]


def test_append_episode_rejects_other_owner(tmp_path):
    # record_task is the one episode write path; it keeps the owner check.
    views = open_views(tmp_path, "local")
    with pytest.raises(StoreError):
        record(views["agent-2"], episode_for("agent-1", 1))
    assert views["agent-1"].episodes() == views["agent-2"].episodes() == ()


def test_record_task_rejects_duplicate_index(tmp_path):
    views = open_views(tmp_path, "local")
    record(views["agent-1"], episode_for("agent-1", 1))
    with pytest.raises(StoreError):
        record(views["agent-1"], episode_for("agent-1", 1))


def test_record_task_rejects_unknown_procedure_reference(tmp_path):
    views = open_views(tmp_path, "local")
    bad = Episode(
        agent_id="agent-1",
        task_index=1,
        timestamp="2026-01-01T00:01:00+00:00",
        task_description="x",
        team_composition=("agent-1",),
        actions=(),
        outcome=Outcome(ts=50.0, cs=50.0, success=False),
        related_procedures=frozenset({"proc-99999"}),
    )
    with pytest.raises(StoreError) as exc:
        record(views["agent-1"], bad)
    assert "proc-99999" in str(exc.value)


def test_episode_durable_across_reopen(tmp_path):
    views = open_views(tmp_path, "local")
    record(views["agent-1"], episode_for("agent-1", 1))
    reopened = open_store(tmp_path / "store")
    episodes = reopened["agent-1"].episodes()
    assert len(episodes) == 1
    assert episodes[0].episode_id == "agent-1:1"
    assert episodes[0].outcome == Outcome(ts=80.0, cs=70.0, success=True)


# -- procedural visibility & evidence -----------------------------------------


def test_local_procedures_are_private(tmp_path):
    views = open_views(tmp_path, "local")
    views["agent-1"].upsert_procedure(procedure_for("proc-00001", "agent-1", ["agent-1:1"]))
    assert "proc-00001" in views["agent-1"].procedures()
    assert views["agent-2"].procedures() == {}


@pytest.mark.parametrize("topology", ["shared", "hybrid"])
def test_procedures_shared_outside_local(tmp_path, topology):
    views = open_views(tmp_path, topology)
    views["agent-1"].upsert_procedure(procedure_for("proc-00001", SHARED_OWNER, ["agent-1:1"]))
    assert views["agent-2"].get_procedure("proc-00001") is not None


def test_upsert_refreshes_updated_at(tmp_path):
    views = open_views(tmp_path, "local")
    p = procedure_for("proc-00001", "agent-1", ["agent-1:1"])
    views["agent-1"].upsert_procedure(p, timestamp="2026-01-02T00:00:00+00:00")
    stored = views["agent-1"].get_procedure("proc-00001")
    assert stored.updated_at == "2026-01-02T00:00:00+00:00"
    assert stored.created_at == p.created_at


def test_record_task_bumps_one_counter_per_outcome(tmp_path):
    views = open_views(tmp_path, "local")
    view = views["agent-1"]
    view.upsert_procedure(procedure_for("proc-00001", "agent-1", ["agent-1:1"], s=2, f=1))
    view.record_task(finished_episode("agent-1", 12), "incident", ["proc-00001"])
    updated = view.get_procedure("proc-00001")
    assert (updated.successes, updated.failures) == (3, 1)
    assert updated.updated_at == "2026-01-01T00:12:00+00:00"
    view.record_task(finished_episode("agent-1", 13, success=False), "incident", ["proc-00001"])
    updated = view.get_procedure("proc-00001")
    assert (updated.successes, updated.failures) == (3, 2)
    assert open_store(tmp_path / "store")["agent-1"].get_procedure("proc-00001") == updated


def test_remove_procedures(tmp_path):
    views = open_views(tmp_path, "local")
    views["agent-1"].upsert_procedure(procedure_for("proc-00001", "agent-1", ["agent-1:1"]))
    views["agent-1"].remove_procedures(["proc-00001", "proc-09999"])
    assert views["agent-1"].procedures() == {}
    reopened = open_store(tmp_path / "store")
    assert reopened["agent-1"].procedures() == {}


def test_allocate_procedure_id_sequence_survives_reopen(tmp_path):
    views = open_views(tmp_path, "local")
    assert views["agent-1"].allocate_procedure_id() == "proc-00001"
    assert views["agent-1"].allocate_procedure_id() == "proc-00002"
    views["agent-1"].persist()
    reopened = open_store(tmp_path / "store")
    assert reopened["agent-1"].allocate_procedure_id() == "proc-00003"
    # each local owner counts independently
    assert reopened["agent-2"].allocate_procedure_id() == "proc-00001"


# -- transactive updates --------------------------------------------------------


def finished_episode(agent_id, index=1, success=True):
    return Episode(
        agent_id=agent_id,
        task_index=index,
        timestamp=f"2026-01-01T00:{index:02d}:00+00:00",
        task_description="pair on incident",
        team_composition=("agent-1", "agent-2"),
        actions=("act",),
        outcome=Outcome(ts=70.0, cs=70.0, success=success),
    )


def test_local_transactive_only_touches_owner_store(tmp_path):
    views = open_views(tmp_path, "local")
    record(views["agent-1"], finished_episode("agent-1"), "incident")
    own = views["agent-1"].profiles()
    assert own["agent-1"].total_tasks == 1
    assert own["agent-1"].collaboration_history["agent-2"].joint_tasks == 1
    # the partner's private store never heard about it
    assert views["agent-2"].profiles() == {}
    assert views["agent-2"].team_patterns() == {}


def test_shared_transactive_updates_both_sides(tmp_path):
    views = open_views(tmp_path, "shared")
    record(views["agent-1"], finished_episode("agent-1"), "incident")
    seen = views["agent-2"].profiles()
    assert seen["agent-1"].total_tasks == 1
    assert seen["agent-1"].collaboration_history["agent-2"].joint_tasks == 1
    assert seen["agent-2"].collaboration_history["agent-1"].joint_tasks == 1
    patterns = views["agent-2"].team_patterns()
    assert patterns[("agent-1", "agent-2")].suited_task_types["incident"].attempts == 1


def test_hybrid_aggregates_shared_but_history_private(tmp_path):
    views = open_views(tmp_path, "hybrid")
    record(views["agent-1"], finished_episode("agent-1"), "incident")

    # aggregate counters travel; the owner's collaboration history does not
    seen_by_2 = views["agent-2"].profiles()
    assert seen_by_2["agent-1"].total_tasks == 1
    assert seen_by_2["agent-1"].collaboration_history == {}

    # each side reads its own history from its own private store
    assert (
        views["agent-1"].profiles()["agent-1"].collaboration_history["agent-2"].joint_tasks
        == 1
    )
    assert (
        views["agent-2"].profiles()["agent-2"].collaboration_history["agent-1"].joint_tasks
        == 1
    )


def test_hybrid_team_patterns_visible_to_all(tmp_path):
    views = open_views(tmp_path, "hybrid")
    record(views["agent-1"], finished_episode("agent-1"), "incident")
    patterns = views["agent-2"].team_patterns()
    assert ("agent-1", "agent-2") in patterns


def test_update_transactive_rejects_foreign_episode(tmp_path):
    # record_task is the one transactive write path; a foreign episode folds nothing.
    views = open_views(tmp_path, "local")
    with pytest.raises(StoreError):
        record(views["agent-2"], finished_episode("agent-1"), "incident")
    assert views["agent-2"].profiles() == {}
    assert views["agent-2"].team_patterns() == {}


def test_transactive_suitedness_accumulates(tmp_path):
    views = open_views(tmp_path, "shared")
    record(views["agent-1"], finished_episode("agent-1", 1, True), "incident")
    record(views["agent-1"], finished_episode("agent-1", 2, True), "incident")
    pattern = views["agent-2"].team_patterns()[("agent-1", "agent-2")]
    assert pattern.is_suited("incident")


# -- durability & failure modes -------------------------------------------------


def test_watermark_persists(tmp_path):
    views = open_views(tmp_path, "local")
    views["agent-1"].set_consolidation_watermark(7)
    reopened = open_store(tmp_path / "store")
    assert reopened["agent-1"].consolidation_watermark() == 7
    assert reopened["agent-2"].consolidation_watermark() == 0


def test_corrupt_json_names_the_file(tmp_path):
    views = open_views(tmp_path, "local")
    record(views["agent-1"], episode_for("agent-1", 1))
    views["agent-1"].set_consolidation_watermark(1)
    target = tmp_path / "store" / "agent-1" / "procedural.json"
    target.write_text("{not json", encoding="utf-8")
    with pytest.raises(StoreError) as exc:
        open_store(tmp_path / "store")
    assert str(target) in str(exc.value)


def test_unsupported_schema_version_rejected(tmp_path):
    views = open_views(tmp_path, "local")
    record(views["agent-1"], episode_for("agent-1", 1))
    views["agent-1"].set_consolidation_watermark(1)
    target = tmp_path / "store" / "agent-1" / "procedural.json"
    doc = json.loads(target.read_text())
    doc["schema_version"] = 99
    target.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(StoreError):
        open_store(tmp_path / "store")


@pytest.mark.parametrize(
    "kind, key",
    [
        ("procedural", "watermarks"),
        ("procedural", "seq"),
        ("procedural", "next_procedure_seq"),
        ("procedural", "procedures"),
    ],
)
def test_a_snapshot_without_a_required_key_names_the_file_and_key(tmp_path, kind, key):
    views = open_views(tmp_path, "local")
    record(views["agent-1"], episode_for("agent-1", 1))
    views["agent-1"].upsert_procedure(procedure_for("proc-00001", "agent-1", ["agent-1:1"]))
    record(views["agent-1"], finished_episode("agent-1", 2), "incident")
    target = tmp_path / "store" / "agent-1" / f"{kind}.json"
    doc = json.loads(target.read_text())
    del doc[key]
    target.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(StoreError) as exc:
        open_store(tmp_path / "store")
    assert str(exc.value) == f"{target} lacks {key}"


def untitled(doc):
    return [{k: v for k, v in d.items() if k != "title"} for d in doc["procedures"]]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: [], "is not a JSON object"),
        (lambda doc: {**doc, "watermarks": []}, "watermarks must be"),
        (lambda doc: {**doc, "watermarks": {"shared": "10"}}, "watermarks must be"),
        (lambda doc: {**doc, "seq": "3"}, "seq must be"),
        (lambda doc: {**doc, "seq": True}, "seq must be"),
        (lambda doc: {**doc, "next_procedure_seq": "x"}, "next_procedure_seq must be"),
        (lambda doc: {**doc, "procedures": {}}, "procedures must be"),
        (lambda doc: {**doc, "procedures": [1]}, "procedures holds a malformed entry"),
        (lambda doc: {**doc, "procedures": untitled(doc)}, "KeyError('title')"),
    ],
    ids=[
        "not-an-object", "watermarks-list", "watermark-str", "seq-str", "seq-bool",
        "next-seq-str", "procedures-object", "procedure-int", "procedure-untitled",
    ],
)
def test_a_wrong_typed_snapshot_value_names_the_file_and_key(tmp_path, edit, message):
    views = open_views(tmp_path, "shared")
    record(views["agent-1"], episode_for("agent-1", 1))
    views["agent-1"].upsert_procedure(procedure_for("proc-00001", SHARED_OWNER, ["agent-1:1"]))
    target = tmp_path / "store" / SHARED_OWNER / "procedural.json"
    target.write_text(json.dumps(edit(json.loads(target.read_text()))), encoding="utf-8")
    files = files_of(tmp_path)
    with pytest.raises(StoreError) as exc:
        open_store(tmp_path / "store")
    assert str(target) in str(exc.value) and message in str(exc.value)
    assert files_of(tmp_path) == files


WRONG_TYPED_FIELDS = [
    ("list", "source_episodes", "lessons", "ab"),
    ("text", "title", "task_description", 5),
    ("count", "successes", "task_index", True),
]
WRONG_TYPED_IDS = [kind for kind, *_ in WRONG_TYPED_FIELDS]


@pytest.mark.parametrize("kind, key, _, value", WRONG_TYPED_FIELDS, ids=WRONG_TYPED_IDS)
def test_a_wrong_typed_procedure_field_names_the_file(tmp_path, kind, key, _, value):
    # a string where a list belongs would decode into its characters
    views = open_views(tmp_path, "shared")
    record(views["agent-1"], episode_for("agent-1", 1))
    views["agent-1"].upsert_procedure(procedure_for("proc-00001", SHARED_OWNER, ["agent-1:1"]))
    target = tmp_path / "store" / SHARED_OWNER / "procedural.json"
    doc = json.loads(target.read_text())
    doc["procedures"][0][key] = value
    target.write_text(json.dumps(doc), encoding="utf-8")
    files = files_of(tmp_path)
    with pytest.raises(StoreError) as exc:
        open_store(tmp_path / "store")
    assert str(target) in str(exc.value) and f"{key} must be a" in str(exc.value)
    assert files_of(tmp_path) == files


@pytest.mark.parametrize("kind, _, key, value", WRONG_TYPED_FIELDS, ids=WRONG_TYPED_IDS)
def test_a_wrong_typed_episode_field_names_the_log_and_line(tmp_path, kind, _, key, value):
    views = open_views(tmp_path, "shared")
    record(views["agent-1"], episode_for("agent-1", 1))
    record(views["agent-2"], episode_for("agent-2", 2))
    target = tmp_path / "store" / SHARED_OWNER / "episodic.jsonl"
    first, second = target.read_text().splitlines()
    line = json.loads(second)
    line[key] = value
    target.write_text(f"{first}\n{json.dumps(line)}\n", encoding="utf-8")
    files = files_of(tmp_path)
    with pytest.raises(StoreError) as exc:
        open_store(tmp_path / "store")
    assert f"{target}, line 2: malformed record" in str(exc.value)
    assert f"{key} must be a" in str(exc.value)
    assert files_of(tmp_path) == files


# -- procedure sources on disk ---------------------------------------------------


def two_class_store(tmp_path, sources):
    """A shared store with a class of three episodes, one of one, and a procedure.

    Returns the views and the procedure snapshot's path.
    """
    views = open_views(tmp_path, "shared")
    for i in (1, 2, 3):
        record(views["agent-1"], episode_for("agent-1", i))
    record(views["agent-2"], episode_for("agent-2", 4, ("another lesson",)))
    views["agent-1"].upsert_procedure(procedure_for("proc-00001", SHARED_OWNER, sources))
    return views, tmp_path / "store" / SHARED_OWNER / "procedural.json"


def test_a_snapshot_spells_a_run_of_one_lesson_class_as_a_pair(tmp_path):
    sources = ["agent-1:1", "agent-1:2", "agent-1:3", "agent-2:4", "ghost:9"]
    views, target = two_class_store(tmp_path, sources)
    doc = json.loads(target.read_text())
    assert doc["procedures"][0]["source_episodes"] == [
        ["agent-1:1", "agent-1:3"], "agent-2:4", "ghost:9"
    ]
    assert open_store(tmp_path / "store")["agent-2"].snapshot() == views["agent-2"].snapshot()


@pytest.mark.parametrize(
    "pair, message",
    [
        (["agent-1:1", "ghost:9"], "names an id in no log"),
        (["ghost:9", "agent-1:2"], "names an id in no log"),
        (["agent-1:1", "agent-2:4"], "ends in two lesson classes"),
        (["agent-1:2", "agent-1:1"], "runs backwards"),
        (["agent-1:1"], "neither an id nor a pair of ids"),
        (["agent-1:1", "agent-1:2", "agent-1:3"], "neither an id nor a pair of ids"),
        (["agent-1:1", 2], "neither an id nor a pair of ids"),
        ({"first": "agent-1:1"}, "neither an id nor a pair of ids"),
    ],
    ids=[
        "last-in-no-log", "first-in-no-log", "two-classes", "reversed", "one-end",
        "three-ends", "int-end", "object",
    ],
)
def test_a_malformed_source_entry_names_the_file(tmp_path, pair, message):
    _, target = two_class_store(tmp_path, ["agent-1:1", "agent-1:2"])
    doc = json.loads(target.read_text())
    doc["procedures"][0]["source_episodes"] = [pair]
    target.write_text(json.dumps(doc), encoding="utf-8")
    files = files_of(tmp_path)
    with pytest.raises(StoreError) as exc:
        open_store(tmp_path / "store")
    assert str(target) in str(exc.value) and message in str(exc.value)
    assert files_of(tmp_path) == files


# A pool of episodes over three logs: (log, agent, lesson tuple, success).
POOL = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.sampled_from(["agent-1", "agent-2"]),
        st.sampled_from([(), ("alpha",), ("alpha", "beta"), ("beta",)]),
        st.booleans(),
    ),
    max_size=40,
)


def indexed_logs(pool):
    """Three store sets holding ``pool``'s episodes, and each lesson class in log order."""
    logs = [StoreSet(), StoreSet(), StoreSet()]
    classes = {}
    for index, (log, agent, lessons, success) in enumerate(pool):
        e = replace(
            episode_for(agent, index, lessons), outcome=Outcome(ts=80.0, cs=70.0, success=success)
        )
        logs[log].episodic.append(e)
        logs[log].index_classes([e])
        classes.setdefault((log, lessons, success), []).append(e.episode_id)
    return logs, classes


@given(POOL, st.data())
def test_the_source_spelling_decodes_to_its_set_and_is_canonical(pool, data):
    logs, classes = indexed_logs(pool)
    ids = [e.episode_id for log in logs for e in log.episodic]
    ghosts = ["ghost:1", "ghost:2", "agent-1:99"]  # in no log
    sources = {episode_id for episode_id in ids + ghosts if data.draw(st.booleans())}
    entries = _encode_sources(sources, logs)
    assert sorted(_decode_sources(entries, logs)) == sorted(sources)
    # one entry per maximal run of sources within a class, one per ghost
    starts = sum(
        m in sources and (i == 0 or members[i - 1] not in sources)
        for members in classes.values()
        for i, m in enumerate(members)
    )
    assert len(entries) == starts + len(sources.intersection(ghosts))
    firsts = [entry if type(entry) is str else entry[0] for entry in entries]
    assert firsts == sorted(firsts)
    shuffled = data.draw(st.permutations(sorted(sources)))
    assert json_line(_encode_sources(shuffled, logs)) == json_line(entries)
    # the successful prefixes of k classes take exactly k entries
    prefixes, k = set(), 0
    for key in sorted(key for key in classes if key[2]):
        if data.draw(st.booleans()):
            prefixes.update(classes[key][: data.draw(st.integers(1, len(classes[key])))])
            k += 1
    entries = _encode_sources(prefixes, logs)
    assert len(entries) == k
    assert set(_decode_sources(entries, logs)) == prefixes


@pytest.mark.parametrize(
    "topology, owner, watermarks, bad",
    [
        ("local", "agent-1", {"agent-1": 1, "agent-2": 0}, ["agent-2"]),
        ("local", "agent-1", {}, ["agent-1"]),
        ("shared", SHARED_OWNER, {"agent-1": 1}, ["agent-1", "shared"]),
        ("hybrid", SHARED_OWNER, {"agent-1": 1, "agent-9": 0}, ["agent-2", "agent-9"]),
    ],
    ids=["local-extra", "local-missing", "shared-foreign", "hybrid-swapped"],
)
def test_snapshot_watermarks_must_cover_exactly_its_episodic_owners(
    tmp_path, topology, owner, watermarks, bad
):
    views = open_views(tmp_path, topology)
    record(views["agent-1"], episode_for("agent-1", 1))
    views["agent-1"].set_consolidation_watermark(1)
    target = tmp_path / "store" / owner / "procedural.json"
    doc = json.loads(target.read_text())
    target.write_text(json.dumps({**doc, "watermarks": watermarks}), encoding="utf-8")
    with pytest.raises(StoreError) as exc:
        open_store(tmp_path / "store")
    assert str(target) in str(exc.value) and str(bad) in str(exc.value)


def test_no_tmp_files_left_behind(tmp_path):
    views = open_views(tmp_path, "local")
    record(views["agent-1"], episode_for("agent-1", 1))
    leftovers = list((tmp_path / "store").rglob("*.tmp"))
    assert leftovers == []


def test_snapshot_is_isolated_from_the_store(tmp_path):
    views = open_views(tmp_path, "local")
    record(views["agent-1"], finished_episode("agent-1", 1), "incident")
    snap = views["agent-1"].snapshot()
    snap.episodic.clear()
    snap.profiles["agent-1"].proficiency["incident"] = 0.0
    assert len(views["agent-1"].episodes()) == 1
    assert views["agent-1"].profiles()["agent-1"].proficiency["incident"] == 1.0


def test_persist_is_a_noop_on_clean_store(tmp_path):
    views = open_views(tmp_path, "local")
    record(views["agent-1"], episode_for("agent-1", 1))
    owner_dir = tmp_path / "store" / "agent-1"
    views["agent-1"].set_consolidation_watermark(1)
    targets = [owner_dir / "procedural.json", owner_dir / "episodic.jsonl"]
    before = {t: t.read_bytes() for t in targets}
    mtime = {t: t.stat().st_mtime_ns for t in targets}
    views["agent-1"].persist()
    assert {t: t.read_bytes() for t in targets} == before
    assert {t: t.stat().st_mtime_ns for t in targets} == mtime


def test_shared_store_has_single_owner_directory(tmp_path):
    views = open_views(tmp_path, "shared")
    record(views["agent-1"], episode_for("agent-1", 1))
    dirs = sorted(p.name for p in (tmp_path / "store").iterdir() if p.is_dir())
    assert dirs == ["shared"]


@pytest.mark.parametrize(
    "topology, procedure_owners, directories, covered",
    [
        ("local", ["b", "a", "c"], ["a", "b", "c"], {"b": ["b"], "a": ["a"], "c": ["c"]}),
        ("shared", [SHARED_OWNER] * 3, [SHARED_OWNER], {SHARED_OWNER: [SHARED_OWNER]}),
        ("hybrid", [SHARED_OWNER] * 3, [*"abc", SHARED_OWNER], {SHARED_OWNER: [*"abc"]}),
    ],
)
def test_owners_follow_the_roster_order_for_every_topology(
    tmp_path, topology, procedure_owners, directories, covered
):
    roster = ["b", "a", "c"]
    views = open_store(tmp_path / "store", topology, roster)
    for index, agent in enumerate(roster, start=1):
        episode = replace(episode_for(agent, index), team_composition=("a", "b", "c"))
        record(views[agent], episode)
        views[agent].set_consolidation_watermark(1)
    assert [views[agent].procedure_owner() for agent in roster] == procedure_owners
    store = tmp_path / "store"
    assert sorted(p.name for p in store.iterdir() if p.is_dir()) == directories
    assert list(views["c"].checkpoint_lag()) == list(covered)
    for owner, logs in covered.items():
        snapshot = json.loads((store / owner / "procedural.json").read_text())
        assert list(snapshot["watermarks"]) == logs


# -- episode log and batches -----------------------------------------------------


def log_lines(tmp_path, owner="agent-1"):
    return (tmp_path / "store" / owner / "episodic.jsonl").read_text().splitlines()


def test_episodes_are_appended_as_one_line_each(tmp_path):
    views = open_views(tmp_path, "local")
    record(views["agent-1"], episode_for("agent-1", 1))
    log = tmp_path / "store" / "agent-1" / "episodic.jsonl"
    first = log.read_bytes()
    record(views["agent-1"], episode_for("agent-1", 2))
    assert log.read_bytes().startswith(first)
    lines = log_lines(tmp_path)
    assert [json.loads(line)["task_index"] for line in lines] == [1, 2]
    assert lines[0] == json.dumps(json.loads(lines[0]), sort_keys=True, separators=(",", ":"))
    assert not (tmp_path / "store" / "agent-1" / "procedural.json").exists()


def test_the_snapshot_is_rewritten_on_a_watermark_move_not_on_an_append(tmp_path):
    views = open_views(tmp_path, "local")
    record(views["agent-1"], episode_for("agent-1", 1))
    views["agent-1"].set_consolidation_watermark(1)
    snapshot = tmp_path / "store" / "agent-1" / "procedural.json"
    inode = snapshot.stat().st_ino  # a rewrite renames a new file into place
    record(views["agent-1"], episode_for("agent-1", 2))
    assert snapshot.stat().st_ino == inode
    views["agent-1"].set_consolidation_watermark(2)
    assert snapshot.stat().st_ino != inode
    assert json.loads(snapshot.read_text())["watermarks"] == {"agent-1": 2}
    assert len(log_lines(tmp_path)) == 2


def without(line, key):
    record = json.loads(line)
    del record[key]
    return json.dumps(record)


def with_value(line, key, value):
    return json.dumps({**json.loads(line), key: value})


SUCCESS_STRING = {"ts": 80.0, "cs": 70.0, "success": "yes"}


@pytest.mark.parametrize(
    "damage, line",
    [
        (lambda lines: lines[:-1] + [lines[-1][:-7]], 3),  # torn last append
        (lambda lines: lines[:1] + ["garbage"] + lines[1:], 2),
        (lambda lines: lines[:1] + ['{"agent_id": "agent-1"}'] + lines[1:], 2),
        (lambda lines: [without(lines[0], "seq"), *lines[1:]], 1),
        (lambda lines: [lines[0], without(lines[1], "task_type"), lines[2]], 2),
        (lambda lines: [with_value(lines[0], "seq", "1"), *lines[1:]], 1),
        (lambda lines: [lines[0], with_value(lines[1], "seq", True), lines[2]], 2),
        (lambda lines: [lines[0], with_value(lines[1], "seq", 1), lines[2]], 2),
        (lambda lines: [lines[0], with_value(lines[1], "outcome", SUCCESS_STRING), lines[2]], 2),
    ],
    ids=[
        "truncated-last-line",
        "garbage-line",
        "not-an-episode",
        "no-seq",
        "no-task-type",
        "seq-string",
        "seq-bool",
        "seq-repeated",
        "success-string",
    ],
)
def test_damaged_episode_log_names_file_and_line(tmp_path, damage, line):
    views = open_views(tmp_path, "local")
    for i in (1, 2, 3):
        record(views["agent-1"], episode_for("agent-1", i))
    log = tmp_path / "store" / "agent-1" / "episodic.jsonl"
    lines = log.read_text().splitlines()
    damaged = damage(lines)
    text = "\n".join(damaged) + ("" if damaged[-1] != lines[-1] else "\n")
    log.write_text(text, encoding="utf-8")
    with pytest.raises(StoreError) as exc:
        open_store(tmp_path / "store")
    assert f"{log}, line {line}" in str(exc.value)


def test_a_seq_repeated_in_another_log_names_the_second_record(tmp_path):
    views = open_views(tmp_path, "local")
    record(views["agent-1"], episode_for("agent-1", 1))
    record(views["agent-2"], episode_for("agent-2", 2))
    log = tmp_path / "store" / "agent-2" / "episodic.jsonl"
    log.write_text(with_value(log.read_text(), "seq", 1) + "\n", encoding="utf-8")
    with pytest.raises(StoreError) as exc:
        open_store(tmp_path / "store")
    assert f"{log}, line 1" in str(exc.value) and "'agent-1:1'" in str(exc.value)


@pytest.mark.parametrize(
    "name, where",
    [
        ("store_meta.json", ""),
        ("shared/procedural.json", ""),
        ("shared/episodic.jsonl", ", line 2"),
    ],
)
def test_a_byte_that_is_not_utf8_names_the_file(tmp_path, name, where):
    run_sim(SimConfig(topology="shared", team_size=2, n_tasks=12, seed=1), tmp_path / "run")
    target = tmp_path / "run" / "store" / name
    raw = target.read_bytes()
    at = raw.index(b"\n") + 5 if where else 5
    target.write_bytes(raw[:at] + b"\xff" + raw[at + 1 :])
    with pytest.raises(StoreError) as exc:
        open_store(tmp_path / "run" / "store")
    assert f"{target}{where}" in str(exc.value)


@pytest.fixture(scope="module")
def sim_stores(tmp_path_factory):
    root = tmp_path_factory.mktemp("sim-stores")
    for topology in ("local", "shared", "hybrid"):
        run_sim(SimConfig(topology=topology, team_size=3, n_tasks=24, seed=7), root / topology)
    return root


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["local", "shared", "hybrid"]), st.data())
def test_flipped_bytes_open_or_fail_naming_the_file(sim_stores, topology, data):
    source = sim_stores / topology / "store"
    files = sorted(path.relative_to(source) for path in source.rglob("*.json*"))
    name = data.draw(st.sampled_from(files))
    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp) / "store"
        shutil.copytree(source, store)
        target = store / name
        raw = bytearray(target.read_bytes())
        flips = st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255))
        for at, mask in data.draw(st.lists(flips, min_size=1, max_size=3)):
            raw[at] ^= mask
        target.write_bytes(bytes(raw))
        try:
            views = open_store(store)
        except StoreError as exc:
            assert str(target) in str(exc)
            return
        for view in views.values():  # whatever opens can be read
            view.profiles()
            view.team_patterns()


def test_a_log_rejects_a_record_of_an_agent_who_logs_elsewhere(tmp_path):
    views = open_views(tmp_path, "local")
    record(views["agent-1"], episode_for("agent-1", 1))
    record(views["agent-2"], episode_for("agent-2", 2))
    log = tmp_path / "store" / "agent-2" / "episodic.jsonl"
    log.write_text(log.read_text() + log_lines(tmp_path)[0] + "\n", encoding="utf-8")
    files = files_of(tmp_path)
    with pytest.raises(StoreError) as exc:
        open_store(tmp_path / "store")
    assert f"{log}, line 2" in str(exc.value) and "'agent-1'" in str(exc.value)
    assert files_of(tmp_path) == files


def test_a_log_rejects_a_record_of_an_agent_off_the_roster(tmp_path):
    views = open_views(tmp_path, "shared")
    record(views["agent-1"], episode_for("agent-1", 1))
    record(views["agent-2"], episode_for("agent-2", 2))
    log = tmp_path / "store" / SHARED_OWNER / "episodic.jsonl"
    first, second = log.read_text().splitlines()
    log.write_text(f"{first}\n{with_value(second, 'agent_id', 'agent-9')}\n", encoding="utf-8")
    with pytest.raises(StoreError) as exc:
        open_store(tmp_path / "store")
    assert f"{log}, line 2" in str(exc.value) and "'agent-9'" in str(exc.value)


@pytest.mark.parametrize("topology", ["local", "shared", "hybrid"])
def test_a_log_rejects_a_repeated_episode_id(tmp_path, topology):
    run_sim(SimConfig(topology=topology, team_size=3, n_tasks=12, seed=1), tmp_path / "run")
    store = tmp_path / "run" / "store"
    log = store / ("agent-1" if topology != "shared" else SHARED_OWNER) / "episodic.jsonl"
    lines = log.read_text().splitlines()
    log.write_text("\n".join([*lines, lines[0]]) + "\n", encoding="utf-8")
    files = files_of(store)
    with pytest.raises(StoreError) as exc:
        open_store(store)
    assert f"{log}, line {len(lines) + 1}" in str(exc.value)
    assert repr(episode_from_dict(json.loads(lines[0])).episode_id) in str(exc.value)
    assert files_of(store) == files


def test_batch_flushes_each_file_once_at_the_outermost_exit(tmp_path, writes):
    views = open_views(tmp_path, "shared")
    view = views["agent-1"]
    writes.clear()
    with view.batch():
        view.upsert_procedure(procedure_for("proc-00001", SHARED_OWNER, ["agent-1:1"]))
        with view.batch():
            record(view, finished_episode("agent-1"), "incident")
            view.upsert_procedure(procedure_for("proc-00001", SHARED_OWNER, ["agent-1:1"], s=2))
        view.persist()
        assert writes == []
        assert not (tmp_path / "store" / SHARED_OWNER).exists()
    shared = tmp_path / "store" / SHARED_OWNER
    # the log first (the commit point), then the snapshot
    assert [(op, path) for op, path, _ in writes] == [
        ("append", shared / "episodic.jsonl"),
        ("replace", shared / "procedural.json"),
    ]
    assert len(log_lines(tmp_path, SHARED_OWNER)) == 1
    reopened = open_store(tmp_path / "store")["agent-2"].snapshot()
    assert reopened == view.snapshot()


def test_batch_flushes_what_it_applied_when_the_block_raises(tmp_path):
    views = open_views(tmp_path, "local")
    with pytest.raises(StoreError):
        with views["agent-1"].batch():
            record(views["agent-1"], episode_for("agent-1", 1))
            views["agent-1"].record_task(episode_for("agent-1", 2), "incident", ["proc-00042"])
    assert len(open_store(tmp_path / "store")["agent-1"].episodes()) == 1
