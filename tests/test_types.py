"""Value-object behaviour: validation, derived scores, JSON round trips."""

import pytest

from teammem.types import (
    AgentProfile,
    Episode,
    Outcome,
    Procedure,
    TeamPattern,
    TypeStats,
    canonical_team_key,
    combined_score,
    derive_agent_reliability,
    derive_reliability,
    from_dict,
    outcome_from_scores,
    to_dict,
)


def make_episode(**overrides):
    base = dict(
        agent_id="agent-1",
        task_index=3,
        timestamp="2026-01-01T00:03:00+00:00",
        task_description="restart the billing worker",
        team_composition=("agent-1", "agent-2"),
        actions=("check queue depth", "restart worker"),
        outcome=Outcome(ts=80.0, cs=60.0, success=True),
        env_context="staging",
        lessons=("check queue depth before restarting",),
        related_procedures=frozenset(),
    )
    base.update(overrides)
    return Episode(**base)


def make_procedure(**overrides):
    base = dict(
        procedure_id="proc-00001",
        owner_id="agent-1",
        created_at="2026-01-01T00:05:00+00:00",
        updated_at="2026-01-01T00:05:00+00:00",
        title="Check queue depth first",
        knowledge="Check queue depth before restarting workers.",
        successes=3,
        failures=1,
        source_episodes=frozenset({"agent-1:1", "agent-1:2"}),
    )
    base.update(overrides)
    return Procedure(**base)


# -- outcomes ---------------------------------------------------------------


def test_outcome_rejects_out_of_range_scores():
    with pytest.raises(ValueError):
        Outcome(ts=-0.1, cs=50.0, success=False)
    with pytest.raises(ValueError):
        Outcome(ts=50.0, cs=100.1, success=True)


def test_combined_score_is_mean_of_ts_and_cs():
    assert combined_score(Outcome(ts=80.0, cs=60.0, success=True)) == 70.0
    assert combined_score(Outcome(ts=0.0, cs=0.0, success=False)) == 0.0


def test_outcome_from_scores_threshold_edges():
    # (ts + cs) / 2 / 100 compared against the threshold with >=
    assert outcome_from_scores(60.0, 60.0).success is True
    assert outcome_from_scores(60.0, 59.9).success is False
    assert outcome_from_scores(100.0, 20.0).success is True
    assert outcome_from_scores(30.0, 30.0, success_threshold=0.30).success is True


def test_outcome_json_round_trip():
    o = Outcome(ts=72.5, cs=81.0, success=True)
    assert from_dict(Outcome, to_dict(o)) == o


# -- team keys ---------------------------------------------------------------


def test_canonical_team_key_sorts_and_dedupes():
    assert canonical_team_key(["b", "a", "b"]) == ("a", "b")
    assert canonical_team_key(("solo",)) == ("solo",)


def test_canonical_team_key_rejects_empty():
    with pytest.raises(ValueError):
        canonical_team_key([])


# -- episodes ----------------------------------------------------------------


def test_episode_id_combines_agent_and_index():
    assert make_episode().episode_id == "agent-1:3"


def test_episode_coerces_sequence_fields():
    e = make_episode(
        team_composition=["agent-1"],
        actions=["a"],
        lessons=["l"],
        related_procedures=["proc-00001"],
    )
    assert e.team_composition == ("agent-1",)
    assert e.actions == ("a",)
    assert e.lessons == ("l",)
    assert e.related_procedures == frozenset({"proc-00001"})


def test_episode_rejects_negative_index():
    with pytest.raises(ValueError):
        make_episode(task_index=-1)


def test_episode_json_round_trip_sorts_related_procedures():
    e = make_episode(related_procedures=frozenset({"proc-00002", "proc-00001"}))
    d = to_dict(e)
    assert d["related_procedures"] == ["proc-00001", "proc-00002"]
    assert from_dict(Episode, d) == e


# -- procedures ----------------------------------------------------------------


def test_procedure_validation():
    with pytest.raises(ValueError):
        make_procedure(successes=-1)
    with pytest.raises(ValueError):
        make_procedure(source_episodes=frozenset())


def test_derive_reliability():
    assert derive_reliability(make_procedure(successes=3, failures=1)) == 0.75
    assert derive_reliability(make_procedure(successes=0, failures=0)) == 0.5
    assert derive_reliability(make_procedure(successes=0, failures=2)) == 0.0


def test_procedure_json_round_trip():
    p = make_procedure()
    d = to_dict(p)
    assert d["source_episodes"] == ["agent-1:1", "agent-1:2"]
    assert from_dict(Procedure, d) == p


# -- agent profiles ------------------------------------------------------------


def test_profile_with_task_result_tracks_running_rate():
    p = AgentProfile(
        agent_id="agent-1",
        task_type_counts={"incident": TypeStats(2, 1), "qa": TypeStats(1, 1)},
        successes=2,
        total_tasks=3,
    )
    assert p.proficiency["incident"] == 0.5
    assert p.proficiency["qa"] == 1.0
    assert p.specializations == frozenset({"incident", "qa"})
    assert AgentProfile(agent_id="agent-1").specializations == frozenset()


def test_derive_agent_reliability_neutral_before_evidence():
    assert derive_agent_reliability(AgentProfile(agent_id="x")) == 0.5
    p = AgentProfile(agent_id="x", successes=3, total_tasks=4)
    assert derive_agent_reliability(p) == 0.75


def test_profile_rejects_impossible_counters():
    with pytest.raises(ValueError):
        AgentProfile(agent_id="x", successes=2, total_tasks=1)


# -- team patterns ---------------------------------------------------------


def test_team_pattern_requires_canonical_composition():
    with pytest.raises(ValueError):
        TeamPattern(composition=("b", "a"))
    with pytest.raises(ValueError):
        TeamPattern(composition=("a", "a"))
    TeamPattern(composition=("a", "b"))  # canonical is fine


def test_team_pattern_suitedness_needs_rate_and_evidence():
    def suited(attempts, successes):
        t = TeamPattern(("a", "b"), {"incident": TypeStats(attempts, successes)})
        return t.is_suited("incident")

    assert not suited(1, 1)  # only one attempt
    assert suited(2, 1)  # 1/2 meets the 0.5 bar
    assert not suited(3, 1)  # 1/3 drops below
    assert not TeamPattern(("a", "b")).is_suited("unknown-type")


def test_team_pattern_suited_types_property():
    t = TeamPattern(("a",), {"qa": TypeStats(2, 2), "incident": TypeStats(2, 0)})
    assert t.suited_types == frozenset({"qa"})
