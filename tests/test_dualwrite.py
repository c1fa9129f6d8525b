from __future__ import annotations

import pytest

from migsim.domain import Key, Schema, VersionStamp, split_rule
from migsim.healing import Trigger
from migsim.scenario import load_file
from migsim.simulation import run_scenario

from conftest import build_pipeline, build_split_schema, scenario_path


class TestOnCommit:
    def test_change_is_due_from_its_commit_tick(self, pipeline):
        pipeline.clock.now = 5
        event = pipeline.commit("project", "1", {"n": "x"})
        pipeline.dualwriter.on_commit(event)
        assert pipeline.dualwriter.run_due(4) == 0
        assert pipeline.dualwriter.pending_count() == 1
        assert pipeline.dualwriter.run_due(5) == 1
        assert pipeline.dualwriter.pending_count() == 0
        assert pipeline.target.peek(Key("project_v2", "1")) is not None

    def test_task_created_even_during_target_outage(self):
        p = build_pipeline(outages=((0, 100),))
        event = p.commit("project", "1", {"n": "x"})
        p.dualwriter.on_commit(event)
        assert p.dualwriter.pending_count() == 1


class TestReplicate:
    def test_healthy_child_write_with_parent_present(self, pipeline):
        pipeline.commit_and_replicate("project", "1", {"n": "p"})
        pipeline.commit_and_replicate("stage", "1", {"n": "s", "parent_project": "1"})
        assert pipeline.counts.enqueued == 0
        assert pipeline.target.peek(Key("stage_v2", "1")) is not None

    def test_child_before_parent_enqueues_and_writes_nothing(self, pipeline):
        pipeline.commit_and_replicate(
            "candidate", "5", {"n": "c", "parent_project": "1", "parent_stage": "1"}
        )
        assert pipeline.target.peek(Key("candidate_v2", "5")) is None
        queued = {e.target_key for e in pipeline.queue.pending()}
        assert Key("candidate_v2", "5") in queued

    def test_partial_failure_writes_first_enqueues_second(self):
        from migsim.stores import StoreUnavailable

        p = build_pipeline(schema=build_split_schema())
        p.commit_and_replicate("project", "1", {"n": "p"})
        notes_key = Key("candidate_notes_v2", "1")
        original_put = p.target.put_if_fresher

        def flaky_put(record):
            if record.key == notes_key:
                raise StoreUnavailable(str(record.key))
            return original_put(record)

        p.target.put_if_fresher = flaky_put
        p.commit_and_replicate(
            "candidate", "1", {"profile": "x", "note": "y", "parent_project": "1"}
        )
        assert p.target.peek(Key("candidate_core_v2", "1")) is not None
        queued = {e.target_key for e in p.queue.pending()}
        assert queued == {notes_key}

    @pytest.mark.parametrize("reverse", [False, True], ids=["declared", "reversed"])
    def test_puts_follow_the_transform_order(self, reverse):
        # The split schema, and a copy that declares its parts the other way.
        parts = [
            ("candidate_core_v2", ("profile", "parent_project")),
            ("candidate_notes_v2", ("note",)),
        ]
        parts = parts[::-1] if reverse else parts
        split = build_split_schema()
        rules = [split.rules[0], split_rule("candidate_rule", "candidate", parts)]
        p = build_pipeline(schema=Schema(split.types.values(), rules))
        p.commit_and_replicate("project", "1", {"n": "p"})
        p.commit_and_replicate(
            "candidate", "1", {"profile": "x", "note": "y", "parent_project": "1"}
        )
        puts = [row.key.etype for row in p.log.rows if row.kind == "put"]
        assert puts == ["project_v2", *(tt for tt, _ in parts)]

    def test_replicate_reads_latest_source_state(self, pipeline):
        event = pipeline.commit("project", "1", {"n": "old"})
        pipeline.commit("project", "1", {"n": "new"})
        pipeline.dualwriter.replicate(event, 0)
        stored = pipeline.target.peek(Key("project_v2", "1"))
        assert stored.value == {"n": "new"}
        assert stored.provenance[Key("project", "1")].counter == 2

    def test_stale_rejection_counts_as_done(self, pipeline):
        event = pipeline.commit("project", "1", {"n": "a"})
        pipeline.commit_and_replicate("project", "1", {"n": "b"})
        # Replaying the older change re-reads latest state: equal provenance
        # is acceptable, never a failure.
        pipeline.dualwriter.replicate(event, 0)
        assert pipeline.counts.enqueued == 0
        assert pipeline.target.peek(Key("project_v2", "1")).value == {"n": "b"}

    def test_delete_replicates_as_tombstone_without_parent_gate(self, pipeline):
        pipeline.commit_and_replicate("project", "1", {"n": "p"})
        pipeline.commit_and_replicate("stage", "1", {"n": "s", "parent_project": "1"})
        pipeline.commit_and_replicate("stage", "1", delete=True)
        assert pipeline.counts.enqueued == 0
        assert pipeline.target.peek(Key("stage_v2", "1")).tombstone

    def test_run_with_dual_writes_off_logs_no_dual_put(self):
        scenario = load_file(scenario_path("catchall"))
        assert not scenario.toggles.enable_dualwrite
        rows = run_scenario(scenario).log.rows
        assert any(row.kind == "commit" and row.t > 0 for row in rows)  # live writes happen
        assert any(row.kind == "put" for row in rows)
        assert not [row for row in rows if row.kind == "put" and row.cls == "dual"]

    def test_legacy_state_identical_with_and_without_dualwrite(self):
        def run(enabled: bool):
            p = build_pipeline(availability=0.5, seed=11)
            events = []
            for i in range(20):
                event = p.commit("project", str(i), {"n": f"v{i}"})
                events.append((event.seq, event.key, event.new_version))
                if enabled:
                    p.dualwriter.on_commit(event)
                p.dualwriter.run_due(p.clock.now)
            return events, p.legacy.records

        assert run(True) == run(False)


class TestOrdering:
    def test_failure_enqueue_uses_commit_time_for_age(self, pipeline):
        pipeline.clock.now = 42
        pipeline.commit_and_replicate(
            "candidate", "9", {"n": "c", "parent_project": "404", "parent_stage": "404"}
        )
        (event,) = pipeline.queue.pending()
        assert event.trigger is Trigger.DUALWRITE
        assert event.source_update_time == 42

    def test_no_live_child_without_parent_under_faults(self):
        p = build_pipeline(availability=0.6, seed=5)

        def commit(etype, gid, value):
            p.dualwriter.on_commit(p.commit(etype, gid, value))

        commit("stage", "0", {"n": "s", "parent_project": "0"})
        for i in range(60):
            p.clock.now = i
            commit("project", str(i), {"n": "p"})
            commit(
                "candidate",
                str(i),
                {"n": "c", "parent_project": str(i), "parent_stage": "0"},
            )
            p.dualwriter.run_due(i)
            for tkey, record in p.target.records.items():
                if tkey.etype == "candidate_v2" and not record.tombstone:
                    src = p.legacy.read(Key("candidate", tkey.id))
                    parent = Key("project_v2", src.value["parent_project"])
                    assert p.target.peek(parent) is not None
