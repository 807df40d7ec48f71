"""Every row of every persisted table: the writer and the loader refuse the same wrong types.

Each stored record kind is described by one table of rows (see
``teammem.types.Row``). For every row, one wrongly typed value is fed to the
writer (construction or append) and one to the loader. Both must refuse it:
the writer before any byte is written, the loader naming the file, and the
line for a log.
"""

import json
from dataclasses import dataclass, replace

import pytest

import teammem.types as types_module
from teammem.metrics import RunLog, RunLogEntry, read_runlog, write_runlog
from teammem.store import (
    SHARED_OWNER,
    StoreError,
    _META_ROWS,
    _SNAPSHOT_ROWS,
    _TASK_ROWS,
    open_store,
)
from teammem.types import (
    Episode,
    Outcome,
    Procedure,
    Record,
    from_dict,
    record,
    stored,
    to_dict,
)

AGENTS = ["agent-1", "agent-2"]
OUTCOME = Outcome(ts=80.0, cs=70.0, success=True)
VALID = {
    Outcome: dict(ts=80.0, cs=70.0, success=True),
    Episode: dict(
        agent_id="agent-1", task_index=2, timestamp="2026-01-01T00:02:00+00:00",
        task_description="triage ticket 2", team_composition=("agent-1", "agent-2"),
        actions=("read runbook",), outcome=OUTCOME, env_context="", lessons=("keep notes",),
        related_procedures=frozenset(),
    ),
    Procedure: dict(
        procedure_id="proc-00001", owner_id=SHARED_OWNER, created_at="2026-01-01T00:10:00+00:00",
        updated_at="2026-01-01T00:10:00+00:00", title="Read first", knowledge="Read the runbook.",
        successes=1, failures=0, source_episodes=frozenset({"agent-1:1"}),
    ),
    RunLogEntry: dict(
        task_index=2, task_id="t0002", ts=55.0, cs=65.0, tokens_in=84, tokens_out=8,
        team_size=2, kind_used="episodic", retrieved_ids=("agent-1:1",), procedures_used=(),
    ),
}


def wrong(kind):
    """A value of the wrong type for a row of ``kind``, in its JSON form."""
    named = {
        int: True, str: 5, bool: 1, types_module._number: "80",
        types_module._strings: "ab", types_module._string_set: "ab",
    }
    return named.get(kind, "not an object")


def rows_of(*tables):
    return [
        pytest.param(name, key, wrong(kind), id=f"{name}.{key}")
        for name, rows in tables
        for key, _, kind, _ in rows
    ]


RECORD_ROWS = rows_of(*[(cls.__name__, cls.ROWS) for cls in VALID])


def record_class(name):
    return next(cls for cls in VALID if cls.__name__ == name)


@pytest.mark.parametrize("name, key, value", RECORD_ROWS)
def test_a_record_with_a_wrongly_typed_field_cannot_be_built(name, key, value):
    cls = record_class(name)
    with pytest.raises(ValueError, match=f"^{key}: "):
        cls(**{**VALID[cls], key: value})
    # the loader decodes through the same rows
    document = to_dict(cls(**VALID[cls]))
    with pytest.raises(ValueError, match=f"^{key}: "):
        from_dict(cls, {**document, key: value})


def test_a_set_field_checks_each_element_of_a_list():
    with pytest.raises(ValueError, match="^source_episodes: must be a list of strings"):
        Procedure(**{**VALID[Procedure], "source_episodes": ["agent-1:1", 2]})
    # rebuilding a record keeps its set as it is, without a rescan
    procedure = Procedure(**VALID[Procedure])
    assert replace(procedure, successes=2).source_episodes is procedure.source_episodes


def test_a_record_refuses_a_missing_or_unknown_key():
    document = to_dict(Episode(**VALID[Episode]))
    with pytest.raises(KeyError, match="lessons"):
        from_dict(Episode, {k: v for k, v in document.items() if k != "lessons"})
    with pytest.raises(ValueError, match="^unknown keys: extra$"):
        from_dict(Episode, {**document, "extra": 1})
    with pytest.raises(ValueError, match="must be an object"):
        from_dict(Episode, [list(pair) for pair in document.items()])


def test_a_field_without_a_row_fails_when_its_class_is_made():
    # the record's table is read off its fields, so a field cannot go unchecked
    with pytest.raises(TypeError, match=r"^Tagged\.role is not declared by stored"):

        @record
        class Tagged(Record):
            name: str = stored(str)
            role: str = ""

    # a config's table is read off its fields the same way
    @dataclass(frozen=True)
    class Knobs:
        width: int = stored(int, default=1)
        depth: int = 2

    with pytest.raises(TypeError, match=r"^Knobs\.depth is not declared by stored"):
        types_module.rows_of(Knobs)


def shared_store(tmp_path):
    """A shared store of two task records and one procedure, and its views."""
    views = open_store(tmp_path / "store", "shared", AGENTS)
    for agent, index in (("agent-1", 1), ("agent-2", 2)):
        episode = Episode(**{**VALID[Episode], "agent_id": agent, "task_index": index})
        views[agent].record_task(episode, "qa", [])
    views["agent-1"].upsert_procedure(Procedure(**VALID[Procedure]))
    views["agent-1"].set_consolidation_watermark(2)
    return views


def files_of(root):
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize(
    "name, key, value",
    rows_of(("Outcome", Outcome.ROWS), ("Episode", Episode.ROWS), ("task", _TASK_ROWS)),
)
def test_a_log_line_with_a_wrongly_typed_field_names_the_log_and_line(tmp_path, name, key, value):
    shared_store(tmp_path)
    log = tmp_path / "store" / SHARED_OWNER / "episodic.jsonl"
    first, second = log.read_text().splitlines()
    line = json.loads(second)
    (line["outcome"] if name == "Outcome" else line)[key] = value
    log.write_text(f"{first}\n{json.dumps(line)}\n", encoding="utf-8")
    files = files_of(tmp_path)
    with pytest.raises(StoreError) as exc:
        open_store(tmp_path / "store")
    assert f"{log}, line 2: malformed record" in str(exc.value)
    assert f"{key}: " in str(exc.value)
    assert files_of(tmp_path) == files


@pytest.mark.parametrize("key, value", [("task_type", 5), ("procedures_used", "ab")])
def test_a_task_record_with_a_wrongly_typed_field_is_not_appended(tmp_path, key, value):
    # seq is handed out by the store, so only the loader can see a wrong one
    views = shared_store(tmp_path)
    files = files_of(tmp_path)
    fields = {"task_type": "qa", "procedures_used": [], key: value}
    episode = Episode(**{**VALID[Episode], "task_index": 3})
    with pytest.raises(StoreError, match=f"{key}: must be"):
        views["agent-1"].record_task(episode, fields["task_type"], fields["procedures_used"])
    assert files_of(tmp_path) == files
    assert len(open_store(tmp_path / "store")["agent-1"].episodes()) == 2


@pytest.mark.parametrize("name, key, value", rows_of(("Procedure", Procedure.ROWS)))
def test_a_snapshot_procedure_with_a_wrongly_typed_field_names_the_file(
    tmp_path, name, key, value
):
    shared_store(tmp_path)
    target = tmp_path / "store" / SHARED_OWNER / "procedural.json"
    doc = json.loads(target.read_text())
    doc["procedures"][0][key] = value
    target.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(StoreError) as exc:
        open_store(tmp_path / "store")
    assert str(target) in str(exc.value) and f"{key}: " in str(exc.value)


@pytest.mark.parametrize(
    "name, key, value", rows_of(("snapshot", _SNAPSHOT_ROWS), ("meta", _META_ROWS))
)
def test_a_store_document_with_a_wrongly_typed_value_names_the_file(tmp_path, name, key, value):
    shared_store(tmp_path)
    target = tmp_path / "store" / (
        "store_meta.json" if name == "meta" else f"{SHARED_OWNER}/procedural.json"
    )
    doc = json.loads(target.read_text())
    doc[key] = value
    target.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(StoreError) as exc:
        open_store(tmp_path / "store")
    assert str(target) in str(exc.value) and f"{key}: " in str(exc.value)


def test_the_store_writer_refuses_what_its_loader_refuses(tmp_path):
    # meta: the roster is checked by the meta rows before anything is written
    with pytest.raises(StoreError, match="agents: must be a list of strings"):
        open_store(tmp_path / "other", "shared", ["agent-1", 2])
    assert not (tmp_path / "other").exists()
    # snapshot: a watermark must be a count within its log
    views = shared_store(tmp_path)
    files = files_of(tmp_path)
    for watermark in ("2", True, -1, 3):
        with pytest.raises(StoreError, match="outside its log of 2 records"):
            views["agent-1"].set_consolidation_watermark(watermark)
    assert files_of(tmp_path) == files
    # procedure: a source set that holds a non-string id is refused before it is written
    odd = Procedure(**{**VALID[Procedure], "source_episodes": frozenset({"agent-1:1", 1})})
    with pytest.raises(StoreError, match="source_episodes: must be a list of strings"):
        views["agent-1"].upsert_procedure(odd)
    assert files_of(tmp_path) == files
    # an upserted proc-NNNNN id moves the counter past it, so no id is handed out twice
    ahead = Procedure(**{**VALID[Procedure], "procedure_id": "proc-00007"})
    views["agent-1"].upsert_procedure(ahead)
    assert views["agent-1"].allocate_procedure_id() == "proc-00008"
    open_store(tmp_path / "store")


@pytest.mark.parametrize("name, key, value", rows_of(("RunLogEntry", RunLogEntry.ROWS)))
def test_a_run_log_line_with_a_wrongly_typed_field_names_the_file_and_line(
    tmp_path, name, key, value
):
    path = tmp_path / "runlog.jsonl"
    entries = [RunLogEntry(**{**VALID[RunLogEntry], "task_index": i}) for i in (1, 2)]
    write_runlog(path, RunLog(entries=tuple(entries)))
    first, second = path.read_text().splitlines()
    line = json.loads(second)
    line[key] = value
    path.write_text(f"{first}\n{json.dumps(line)}\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        read_runlog(path)
    assert f"{path}, line 2: malformed record" in str(exc.value)
    assert f"{key}: " in str(exc.value)
