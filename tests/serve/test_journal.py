"""Write-ahead journal and service crash-recovery tests."""

import json

import pytest

from repro.compiled import compiled_available
from repro.serve import (
    COMPLETED,
    JournalError,
    JournalWriter,
    SearchRequest,
    SearchService,
    ServiceCrash,
    read_journal,
)

BUDGET = 4e-4


def request(i, engine="sequential", **kwargs):
    defaults = dict(
        request_id=f"r{i}",
        game="tictactoe",
        engine=engine,
        budget_s=BUDGET,
        seed=100 + i,
    )
    defaults.update(kwargs)
    return SearchRequest(**defaults)


def mixed_requests():
    return [
        request(i, engine=eng)
        for i, eng in enumerate(
            ["sequential", "root:2", "tree:2@arena", "sequential@arena"]
        )
    ]


def crash_run(path, faults, checkpoint_every=5, reqs=None):
    """Run a journalled service into its planned crash."""
    service = SearchService(
        seed=5,
        n_devices=2,
        journal=path,
        checkpoint_every=checkpoint_every,
        faults=faults,
    )
    service.submit_all(reqs if reqs is not None else mixed_requests())
    with pytest.raises(ServiceCrash):
        service.run()
    return service


class TestJournalFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        writer = JournalWriter(path)
        reqs = mixed_requests()
        for req in reqs:
            writer.submit(req)
        writer.checkpoint("r1", 10, b"snapshot-bytes")
        writer.checkpoint("r1", 20, b"later-snapshot")
        writer.complete("r0", COMPLETED, None, 1.5)
        writer.close()

        state = read_journal(path)
        assert list(state.requests) == [r.request_id for r in reqs]
        assert state.requests["r2"] == reqs[2]
        # Latest checkpoint wins; completed requests drop theirs.
        assert state.checkpoints["r1"].iterations == 20
        assert state.checkpoints["r1"].snapshot_blob == b"later-snapshot"
        assert state.completions["r0"].status == COMPLETED
        assert state.completions["r0"].finish_s == 1.5
        assert state.incomplete == ["r1", "r2", "r3"]

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        writer = JournalWriter(path)
        writer.submit(request(0))
        writer.close()
        with open(path, "a") as fh:
            fh.write('{"type": "complete", "rid": "r0", "sta')

        state = read_journal(path)
        assert list(state.requests) == ["r0"]
        assert state.completions == {}

    def test_torn_middle_line_tolerated_and_counted(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        writer = JournalWriter(path)
        writer.submit(request(0))
        writer.close()
        lines = path.read_text().splitlines()
        lines.insert(1, '{"type": "subm')
        path.write_text("\n".join(lines) + "\n")
        state = read_journal(path)
        assert list(state.requests) == ["r0"]
        assert state.corrupt_records == 1

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "notes.jsonl"
        path.write_text(json.dumps({"type": "header"}) + "\n")
        with pytest.raises(JournalError, match="not a request journal"):
            read_journal(path)
        path.write_text("")
        with pytest.raises(JournalError, match="empty"):
            read_journal(path)

    def test_unknown_record_type_counted_corrupt(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        JournalWriter(path).close()
        with open(path, "a") as fh:
            fh.write(json.dumps({"type": "mystery", "rid": "r0"}) + "\n")
        state = read_journal(path)
        assert state.corrupt_records == 1
        assert state.requests == {}

    def test_append_reopen_keeps_single_logical_stream(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        writer = JournalWriter(path)
        writer.submit(request(0))
        writer.close()
        resumed = JournalWriter(path, append=True)
        resumed.complete("r0", COMPLETED, None, 2.0)
        resumed.close()
        state = read_journal(path)
        assert state.incomplete == []
        assert state.completions["r0"].finish_s == 2.0


@pytest.mark.faults
class TestCrashRecovery:
    def test_tick_crash_then_recover_completes_exactly_once(
        self, tmp_path
    ):
        path = tmp_path / "journal.jsonl"
        crashed = crash_run(path, faults="crash=tick:20")
        pre_crash = {
            r.request.request_id: r.result
            for r in crashed._records
            if r.status == COMPLETED
        }

        recovered = SearchService.recover(
            path,
            seed=5,
            n_devices=2,
            checkpoint_every=5,
            faults="crash=tick:20",  # stripped on recovery
        )
        records = recovered.run()
        assert [r.status for r in records].count(COMPLETED) == len(
            records
        )
        # Every journalled request finished exactly once: the journal
        # now holds one completion per submission, and any request
        # completed before the crash kept its original result.
        state = read_journal(path)
        assert set(state.completions) == set(state.requests)
        for rid, result in pre_crash.items():
            adopted = next(
                r
                for r in records
                if r.request.request_id == rid
            )
            assert adopted.result == result

        report = recovered.report()
        assert report.recovered == len(pre_crash)
        assert report.resumed + report.restarted == len(records) - len(
            pre_crash
        )
        assert "resumed from checkpoint" in report.render()

    @pytest.mark.skipif(
        not compiled_available(), reason="no compiled kernels"
    )
    def test_a_checkpoint_resumes_on_the_backend_that_wrote_it(
        self, tmp_path, compiled_env
    ):
        """A journal written where the default stack is the arena
        recovers where it is node (no C library): each engine resumes on
        its snapshot's backend, with the results of a recovery on the
        writing host."""
        path = tmp_path / "journal.jsonl"
        crash_run(path, faults="crash=tick:20")
        elsewhere = tmp_path / "elsewhere.jsonl"
        elsewhere.write_bytes(path.read_bytes())

        def recovered(journal):
            service = SearchService.recover(
                journal, seed=5, n_devices=2, checkpoint_every=5
            )
            records = service.run()
            assert service.report().resumed > 0
            return {r.request.request_id: r.result for r in records}

        here = recovered(path)
        compiled_env("0")
        assert recovered(elsewhere) == here

    def test_late_crash_resumes_from_checkpoints(self, tmp_path):
        """With checkpoints journalled before the crash, recovery must
        salvage them instead of restarting from scratch."""
        path = tmp_path / "journal.jsonl"
        crash_run(path, faults="crash=tick:20")
        state = read_journal(path)
        assert state.checkpoints  # the crash landed after checkpoints

        recovered = SearchService.recover(
            path, seed=5, n_devices=2, checkpoint_every=5
        )
        records = recovered.run()
        assert all(r.status == COMPLETED for r in records)
        report = recovered.report()
        assert report.resumed == len(state.checkpoints)
        assert report.recovered_iterations == sum(
            c.iterations for c in state.checkpoints.values()
        )
        assert report.recovered_iterations > 0

    def test_iteration_site_crash_recovers(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        crashed = crash_run(path, faults="crash=iter:12")
        assert crashed.injector.counters["crash"] == 1

        recovered = SearchService.recover(
            path, seed=5, n_devices=2, checkpoint_every=5
        )
        records = recovered.run()
        assert all(r.status == COMPLETED for r in records)
        state = read_journal(path)
        assert set(state.completions) == set(state.requests)

    def test_early_crash_restarts_from_scratch(self, tmp_path):
        """A crash before any checkpoint leaves only submissions: every
        incomplete request restarts and still completes."""
        path = tmp_path / "journal.jsonl"
        crash_run(path, faults="crash=tick:2", checkpoint_every=50)
        recovered = SearchService.recover(
            path, seed=5, n_devices=2, checkpoint_every=50
        )
        records = recovered.run()
        assert all(r.status == COMPLETED for r in records)
        report = recovered.report()
        assert report.resumed == 0
        assert report.restarted > 0

    def test_crash_drains_device_leases(self, tmp_path):
        """Regression: a crash (or any exception) escaping mid-run must
        not leak device leases -- ``assert_drained`` holds after."""
        path = tmp_path / "journal.jsonl"
        crashed = crash_run(path, faults="crash=iter:12")
        crashed.pool.assert_drained()
        crashed = crash_run(
            tmp_path / "j2.jsonl", faults="crash=tick:20"
        )
        crashed.pool.assert_drained()

    def test_generic_midrun_exception_drains_leases(self, monkeypatch):
        service = SearchService(seed=3, n_devices=2)
        service.submit_all(mixed_requests())

        def boom(*args, **kwargs):
            raise RuntimeError("launch blew up mid-run")

        monkeypatch.setattr(service, "_finish", boom)
        with pytest.raises(RuntimeError, match="mid-run"):
            service.run()
        service.pool.assert_drained()

    def test_recovered_service_journals_its_own_completions(
        self, tmp_path
    ):
        """A second crash during recovery is itself recoverable."""
        path = tmp_path / "journal.jsonl"
        crash_run(path, faults="crash=tick:6")
        second = SearchService.recover(
            path, seed=5, n_devices=2, checkpoint_every=5
        )
        # recover() strips planned crashes from the fault plan, so the
        # second outage is an unplanned exception after one completion.
        original_finish = second._finish
        finished = []

        def finish_once_then_die(record, *args, **kwargs):
            original_finish(record, *args, **kwargs)
            finished.append(record)
            raise RuntimeError("second outage")

        second._finish = finish_once_then_die
        with pytest.raises(RuntimeError, match="second outage"):
            second.run()
        assert finished  # the completion was journalled pre-outage
        third = SearchService.recover(
            path, seed=5, n_devices=2, checkpoint_every=5
        )
        records = third.run()
        assert all(r.status == COMPLETED for r in records)
        state = read_journal(path)
        assert set(state.completions) == set(state.requests)


class TestJournalledRunWithoutCrash:
    def test_journal_records_every_outcome(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        service = SearchService(
            seed=5, n_devices=2, journal=path, checkpoint_every=5
        )
        service.submit_all(mixed_requests())
        records = service.run()
        assert all(r.status == COMPLETED for r in records)
        state = read_journal(path)
        assert set(state.completions) == set(state.requests)
        assert state.checkpoints == {}  # completions supersede them
        for record in records:
            completion = state.completions[record.request.request_id]
            assert completion.result == record.result

    def test_journalling_does_not_change_results(self, tmp_path):
        plain = SearchService(seed=5, n_devices=2)
        plain.submit_all(mixed_requests())
        base = plain.run()

        journalled = SearchService(
            seed=5,
            n_devices=2,
            journal=tmp_path / "journal.jsonl",
            checkpoint_every=5,
        )
        journalled.submit_all(mixed_requests())
        observed = journalled.run()
        for a, b in zip(base, observed):
            assert a.status == b.status
            assert a.result.move == b.result.move
            assert a.result.stats == b.result.stats
            assert a.finish_s == b.finish_s

    def test_checkpoint_every_zero_disables_checkpoints(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        service = SearchService(
            seed=5, n_devices=2, journal=path, checkpoint_every=0
        )
        service.submit_all([request(0), request(1)])
        service.run()
        text = path.read_text()
        assert '"type": "checkpoint"' not in text


class TestForeignShardRecords:
    """A shard's journal polluted with *another shard's* records --
    a misrouted append or an operator concatenating per-shard files
    (docs/cluster.md).  The reader keeps every record; shard-scoped
    recovery (``rid_filter``) adopts only its own."""

    def shared_journal(self, tmp_path):
        """shard-a's journal with shard-b's records interleaved."""
        path = tmp_path / "shard-a.journal"
        writer = JournalWriter(path)
        ours = [request(i, request_id=f"a::r{i}") for i in range(3)]
        theirs = [
            request(i, request_id=f"b::r{i}", seed=900 + i)
            for i in range(2)
        ]
        writer.submit(ours[0])
        writer.submit(theirs[0])       # foreign submission
        writer.submit(ours[1])
        writer.complete("b::r0", COMPLETED, None, 1.0)  # foreign
        writer.checkpoint("b::r1", 7, b"foreign-snapshot")
        writer.submit(theirs[1])
        writer.submit(ours[2])
        writer.complete("a::r0", COMPLETED, None, 2.0)
        writer.close()
        return path, ours, theirs

    def test_read_journal_keeps_interleaved_foreign_records(
        self, tmp_path
    ):
        path, ours, theirs = self.shared_journal(tmp_path)
        state = read_journal(path)
        # The reader is shard-agnostic: everything is surfaced.
        assert set(state.requests) == {
            r.request_id for r in ours + theirs
        }
        assert state.completions["b::r0"].status == COMPLETED
        assert state.checkpoints["b::r1"].iterations == 7
        assert state.corrupt_records == 0

    def test_recover_rid_filter_skips_foreign_records(
        self, tmp_path
    ):
        path, ours, theirs = self.shared_journal(tmp_path)
        service = SearchService.recover(
            path,
            rid_filter=lambda rid: rid.startswith("a::"),
            seed=5,
            n_devices=2,
        )
        # Foreign submissions, completions and checkpoints were all
        # skipped wholesale and counted.
        assert service.foreign_records == 2
        rids = {r.request.request_id for r in service.records}
        assert rids == {r.request_id for r in ours}
        # Own completion adopted verbatim; own incompletes resubmitted.
        assert service.recovered_requests == 1
        assert service.restarted_requests == 2
        records = service.run()
        assert {r.request.request_id for r in records} == rids
        assert all(r.status == COMPLETED for r in records)
        # The foreign checkpoint was never adopted.
        assert service.resumed_requests == 0

    def test_recover_without_filter_adopts_everything(
        self, tmp_path
    ):
        path, ours, theirs = self.shared_journal(tmp_path)
        service = SearchService.recover(path, seed=5, n_devices=2)
        assert service.foreign_records == 0
        assert len(service.records) == 5

    def test_torn_line_at_shard_boundary(self, tmp_path):
        """A partial foreign append tearing mid-line must neither
        poison the reader nor leak into the owning shard's recovery."""
        path, ours, theirs = self.shared_journal(tmp_path)
        with open(path, "a") as fh:
            fh.write(
                '{"type": "submission", "rid": "b::r2", "ga'
            )  # torn mid-record: the writing shard died here
        state = read_journal(path)
        assert "b::r2" not in state.requests
        assert set(state.requests) == {
            r.request_id for r in ours + theirs
        }
        service = SearchService.recover(
            path,
            rid_filter=lambda rid: rid.startswith("a::"),
            seed=5,
            n_devices=2,
        )
        assert service.foreign_records == 2
        records = service.run()
        assert all(r.status == COMPLETED for r in records)
        assert {r.request.request_id for r in records} == {
            r.request_id for r in ours
        }
