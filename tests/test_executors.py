"""The executor-backend seam and the ``"workdir"`` distributed backend.

Covers the backend registry, the cross-backend status-matrix contract (one
sweep semantics whichever backend ran it), the spool file protocol (leases,
heartbeats, reaping, envelopes), whole-worker chaos (``worker_die``,
``worker_stall``, ``lease_steal``, ``envelope_corrupt``), coordinator
resume, the worker CLI, and pickling of the new spool dataclasses.
"""

from __future__ import annotations

import copy
import json
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidParameterError
from repro.experiments import (
    EXECUTOR_BACKENDS,
    ExperimentRunner,
    GraphSpec,
    Lease,
    ResultEnvelope,
    Scenario,
    SoftTimeoutExpired,
    Spool,
    SpoolConfig,
    call_with_soft_timeout,
    make_executor,
    payload_digest,
)
from repro.experiments import executors
from repro.local_model import kernels
from repro.resilience import FaultPlan, FaultSpec

#: Timing knobs shrunk for tests: a dead worker is detected within ~1s.
FAST = {"lease_ttl": 1.0, "heartbeat_interval": 0.2, "drain_timeout": 120.0}


def scenario(tag: str, seed: int = 7, n: int = 16) -> Scenario:
    return Scenario.make(
        name=f"exec-{tag}",
        graph=GraphSpec("random_regular", n=n, degree=4, seed=seed),
        algorithm="legal_coloring",
        params={"c": 2, "quality": "linear"},
    )


def sweep(count: int) -> list:
    return [scenario(str(i), seed=i) for i in range(count)]


def stable(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k != "wall_time"}


def fault_free(scenarios) -> list:
    results = ExperimentRunner(cache_dir=None, max_workers=0).run(scenarios)
    assert all(r.ok for r in results)
    return [stable(r.payload) for r in results]


class TestBackendRegistry:
    def test_three_backends_ship(self):
        assert {"serial", "process", "workdir"} <= set(EXECUTOR_BACKENDS)

    def test_unknown_backend_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown executor backend"):
            make_executor("no-such-backend")

    def test_unknown_backend_rejected_from_runner(self):
        runner = ExperimentRunner(cache_dir=None, backend="no-such-backend")
        with pytest.raises(InvalidParameterError):
            runner.run([scenario("reject")])

    def test_invalid_backend_options_rejected(self):
        with pytest.raises(InvalidParameterError, match="invalid options"):
            make_executor("workdir", no_such_option=1)

    def test_explicit_backends_run_a_sweep(self, tmp_path):
        s = scenario("explicit")
        for backend in ("serial", "process"):
            (result,) = ExperimentRunner(
                cache_dir=None, max_workers=2, backend=backend
            ).run([s])
            assert result.ok


class TestSoftTimeoutWrapper:
    def test_value_passes_through(self):
        assert call_with_soft_timeout(lambda: 42, None) == 42
        assert call_with_soft_timeout(lambda: 42, 5.0) == 42

    def test_exception_passes_through(self):
        with pytest.raises(ZeroDivisionError):
            call_with_soft_timeout(lambda: 1 / 0, 5.0)

    def test_expiry_raises(self):
        with pytest.raises(SoftTimeoutExpired, match="soft timeout"):
            call_with_soft_timeout(lambda: time.sleep(5.0), 0.1)

    def test_none_timeout_runs_on_caller_thread(self):
        import threading

        seen = []
        call_with_soft_timeout(lambda: seen.append(threading.current_thread()), None)
        assert seen == [threading.current_thread()]


class TestStatusMatrixAcrossBackends:
    """Satellite regression: one status matrix, whichever backend ran it.

    Before the executor seam, ``timeout=`` was only enforced through pool
    futures -- a hung scenario blocked a serial sweep forever.  Now every
    backend routes execution through the same soft-timeout watchdog and
    charges the same attempts, so statuses and error shapes agree.
    """

    PLAN = FaultPlan(
        specs=(
            # Permanent error: fails after retries+1 attempts everywhere.
            FaultSpec(index=1, kind="error", attempts=99),
            # Permanent hang, longer than the timeout on every attempt.
            FaultSpec(index=2, kind="hang", attempts=99, hang_seconds=30.0),
        )
    )

    def run_backend(self, backend, **options):
        scenarios = sweep(3)
        runner = ExperimentRunner(
            cache_dir=None,
            max_workers=2,
            retries=1,
            timeout=0.75,
            fault_plan=self.PLAN,
            backend=backend,
            backend_options=options,
        )
        return runner.run(scenarios), runner.last_stats

    @pytest.mark.parametrize("backend", ["serial", "process", "workdir"])
    def test_statuses_and_attempts_agree(self, backend):
        options = dict(FAST) if backend == "workdir" else {}
        results, stats = self.run_backend(backend, **options)
        assert [r.status for r in results] == ["ok", "failed", "failed"]
        assert [r.attempts for r in results] == [1, 2, 2]
        assert "InjectedFaultError" in results[1].error
        assert "soft timeout" in results[2].error
        assert stats.timeouts >= 1
        assert stats.failures == 2 and stats.fresh == 1

    def test_serial_timeout_is_now_enforced(self):
        # The regression proper: a permanently hung scenario must not block
        # a serial sweep forever.
        started = time.monotonic()
        results, stats = self.run_backend("serial")
        assert time.monotonic() - started < 10.0
        assert results[2].status == "failed"
        assert stats.timeouts == 2  # one per attempt


class TestSpoolProtocol:
    def test_claim_is_exclusive(self, tmp_path):
        spool = Spool(tmp_path / "spool").create()
        spool.add_task(spool.task_document("00001-aa", 1, 0, "aa" * 32, {"x": 1}))
        assert spool.claim("00001-aa", "w1", ttl=60.0) is not None
        assert spool.claim("00001-aa", "w2", ttl=60.0) is None

    def test_claim_next_in_task_order(self, tmp_path):
        spool = Spool(tmp_path / "spool").create()
        for index in (2, 0, 1):
            spool.add_task(
                spool.task_document(f"{index:05d}-t", index, 0, "t" * 64, {})
            )
        claimed = [spool.claim_next("w1", 60.0)["index"] for _ in range(3)]
        assert claimed == [0, 1, 2]
        assert spool.claim_next("w1", 60.0) is None

    def test_reap_spares_live_heartbeats(self, tmp_path):
        spool = Spool(tmp_path / "spool").create()
        spool.add_task(spool.task_document("00000-t", 0, 0, "t" * 64, {}))
        spool.claim("00000-t", "w1", ttl=0.01)
        spool.heartbeat("w1")
        time.sleep(0.05)  # lease deadline passes, heartbeat stays fresh
        assert spool.reap_expired(ttl=60.0) == []

    def test_reap_recovers_dead_workers_task(self, tmp_path):
        spool = Spool(tmp_path / "spool").create()
        spool.add_task(spool.task_document("00000-t", 0, 0, "t" * 64, {"s": 1}))
        spool.claim("00000-t", "w1", ttl=0.01)
        spool.heartbeat("w1")
        stale = time.time() - 3600.0
        os.utime(spool.heartbeats_dir / "w1", (stale, stale))
        time.sleep(0.05)
        (task,) = spool.reap_expired(ttl=60.0)
        assert task["task_id"] == "00000-t"
        # The lease is gone: the task can be re-enqueued and claimed anew.
        assert not spool.has_task_or_lease("00000-t")

    def test_config_round_trips(self, tmp_path):
        spool = Spool(tmp_path / "spool").create()
        config = SpoolConfig(
            cache_dir=str(tmp_path / "cache"),
            lease_ttl=2.5,
            heartbeat_interval=0.5,
            timeout=7.0,
        )
        spool.write_config(config)
        assert spool.read_config() == config

    def test_unparseable_envelope_surfaces_as_none(self, tmp_path):
        spool = Spool(tmp_path / "spool").create()
        (spool.results_dir / "00000-t--a0--w1.json").write_text("{torn")
        seen = set()
        ((path, envelope),) = spool.new_envelopes(seen)
        assert envelope is None and path.name.startswith("00000-t")
        # Already-seen envelopes are not yielded again.
        assert spool.new_envelopes(seen) == []


class TestWorkdirSweep:
    def test_multi_worker_sweep_with_cache(self, tmp_path):
        scenarios = sweep(4)
        runner = ExperimentRunner(
            cache_dir=tmp_path / "cache",
            max_workers=2,
            backend="workdir",
            backend_options=dict(FAST),
        )
        results = runner.run(scenarios)
        assert [r.name for r in results] == [s.name for s in scenarios]
        assert all(r.ok and not r.cached for r in results)
        assert [stable(r.payload) for r in results] == fault_free(scenarios)

        # Second pass: served from the shared cache, no workers needed.
        again = runner.run(scenarios)
        assert all(r.cached for r in again)
        assert runner.last_stats.cache_hits == len(scenarios)

    def test_duplicate_scenarios_execute_once(self, tmp_path):
        s = scenario("dup")
        runner = ExperimentRunner(
            cache_dir=tmp_path / "cache",
            max_workers=2,
            backend="workdir",
            backend_options=dict(FAST),
        )
        first, second = runner.run([s, s])
        assert first.payload == second.payload
        assert len(runner.cache) == 1


class TestWorkerChaos:
    def test_worker_die_reassigns_and_completes(self, tmp_path):
        scenarios = sweep(4)
        plan = FaultPlan(specs=(FaultSpec(index=1, kind="worker_die"),))
        runner = ExperimentRunner(
            cache_dir=None,
            max_workers=2,
            backend="workdir",
            fault_plan=plan,
            backend_options=dict(FAST),
        )
        results = runner.run(scenarios)
        assert all(r.ok for r in results)
        assert [stable(r.payload) for r in results] == fault_free(scenarios)
        stats = runner.last_stats
        assert stats.reassignments >= 1
        assert stats.worker_replacements >= 1

    def test_envelope_corrupt_is_quarantined_and_retried(self, tmp_path):
        scenarios = sweep(3)
        plan = FaultPlan(specs=(FaultSpec(index=0, kind="envelope_corrupt"),))
        runner = ExperimentRunner(
            cache_dir=tmp_path / "cache",
            max_workers=2,
            backend="workdir",
            fault_plan=plan,
            backend_options=dict(FAST),
        )
        results = runner.run(scenarios)
        assert all(r.ok for r in results)
        assert [stable(r.payload) for r in results] == fault_free(scenarios)
        assert runner.last_stats.envelopes_rejected >= 1
        assert runner.last_stats.retries >= 1
        # The corrupted envelope never poisoned the shared cache: a fresh
        # cache-only run serves the verified payload.
        again = ExperimentRunner(
            cache_dir=tmp_path / "cache", max_workers=0
        ).run(scenarios)
        assert all(r.cached for r in again)
        assert [stable(r.payload) for r in again] == fault_free(scenarios)

    def test_worker_stall_yields_duplicate_completion(self, tmp_path):
        scenarios = sweep(3)
        # Stall far past the lease TTL with a suppressed heartbeat: the
        # coordinator reaps and reassigns, then the stalled worker's late
        # envelope arrives as a duplicate and must be ignored idempotently.
        plan = FaultPlan(
            specs=(FaultSpec(index=0, kind="worker_stall", hang_seconds=3.0),)
        )
        runner = ExperimentRunner(
            cache_dir=None,
            max_workers=2,
            backend="workdir",
            fault_plan=plan,
            backend_options=dict(FAST),
        )
        results = runner.run(scenarios)
        assert all(r.ok for r in results)
        assert [stable(r.payload) for r in results] == fault_free(scenarios)
        assert runner.last_stats.reassignments >= 1

    def test_lease_steal_duplicates_are_tolerated(self, tmp_path):
        scenarios = sweep(3)
        plan = FaultPlan(specs=(FaultSpec(index=1, kind="lease_steal"),))
        runner = ExperimentRunner(
            cache_dir=None,
            max_workers=2,
            backend="workdir",
            fault_plan=plan,
            backend_options=dict(FAST),
        )
        results = runner.run(scenarios)
        assert all(r.ok for r in results)
        assert [stable(r.payload) for r in results] == fault_free(scenarios)

    def test_chaos_acceptance_kill_half_the_workers(self, tmp_path):
        """The PR's acceptance scenario: kill >= half the workers mid-sweep
        (plus one corrupted envelope) and still match a fault-free
        process-backend run bit for bit, with non-empty recovery counters."""
        scenarios = sweep(6)
        plan = FaultPlan(
            specs=(
                FaultSpec(index=0, kind="worker_die"),
                FaultSpec(index=3, kind="worker_die"),
                FaultSpec(index=4, kind="envelope_corrupt"),
            )
        )
        reference = ExperimentRunner(
            cache_dir=None, max_workers=2, backend="process"
        ).run(scenarios)
        assert all(r.ok for r in reference)

        runner = ExperimentRunner(
            cache_dir=None,
            max_workers=3,  # two worker_die faults: >= half the fleet dies
            backend="workdir",
            fault_plan=plan,
            backend_options=dict(FAST),
        )
        results = runner.run(scenarios)
        assert all(r.ok for r in results)
        assert [stable(r.payload) for r in results] == [
            stable(r.payload) for r in reference
        ]
        stats = runner.last_stats
        assert stats.reassignments >= 2
        assert stats.envelopes_rejected >= 1
        assert stats.worker_replacements >= 2


class TestCoordinatorResume:
    def test_preexisting_envelopes_are_collected_not_reexecuted(self, tmp_path):
        """A killed coordinator's restart honors results its workers produced
        while it was gone: pre-existing digest-valid envelopes complete their
        scenarios without re-execution."""
        scenarios = sweep(3)
        spool_dir = tmp_path / "spool"
        spool = Spool(spool_dir).create()
        token = scenarios[0].cache_token()
        ghost_payload = {"rounds": 123, "resumed_marker": True}
        spool.write_envelope(
            ResultEnvelope(
                task_id=f"{0:05d}-{token[:10]}",
                index=0,
                attempt=0,
                worker="ghost",
                status="ok",
                payload=ghost_payload,
                engine_used="vectorized",
                integrity=payload_digest(ghost_payload),
            )
        )
        runner = ExperimentRunner(
            cache_dir=None,
            max_workers=2,
            backend="workdir",
            backend_options=dict(FAST, spool_dir=spool_dir),
        )
        results = runner.run(scenarios)
        assert all(r.ok for r in results)
        # Scenario 0 was never re-executed: its result is the ghost worker's.
        assert results[0].payload is ghost_payload or results[0].payload == ghost_payload
        assert results[0].payload["resumed_marker"] is True
        assert [stable(r.payload) for r in results[1:]] == fault_free(scenarios[1:])


class TestWorkerCLI:
    def test_externally_launched_worker_drains_the_spool(self, tmp_path):
        """``python -m repro.experiments.worker <dir>`` against a coordinator
        that launches no workers of its own."""
        scenarios = sweep(2)
        spool_dir = tmp_path / "spool"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env.pop("REPRO_FAULT_PLAN", None)
        worker = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.experiments.worker",
                str(spool_dir),
                "--worker-id",
                "external-1",
                "--max-idle",
                "30",
            ],
            env=env,
        )
        try:
            runner = ExperimentRunner(
                cache_dir=None,
                max_workers=1,
                backend="workdir",
                backend_options=dict(FAST, spool_dir=spool_dir, launch_workers=False),
            )
            results = runner.run(scenarios)
            assert all(r.ok for r in results)
            assert [stable(r.payload) for r in results] == fault_free(scenarios)
        finally:
            code = worker.wait(timeout=30)
        assert code == 0  # clean exit on the coordinator's stop sentinel


class TestWorkerLaunchEnvironment:
    """The environment the ``"workdir"`` backend starts its workers with."""

    def launch_env(self, monkeypatch, tmp_path) -> dict:
        launched = {}

        def record_popen(args, env, **kwargs):
            launched.update(env)

        monkeypatch.setattr(executors.subprocess, "Popen", record_popen)
        make_executor("workdir")._launch_worker(
            SimpleNamespace(fault_plan=None), tmp_path, "w-1"
        )
        return launched

    def test_workers_default_to_one_kernel_thread(self, monkeypatch, tmp_path):
        monkeypatch.delenv(kernels.THREADS_ENV, raising=False)
        assert self.launch_env(monkeypatch, tmp_path)[kernels.THREADS_ENV] == "1"

    def test_explicit_kernel_thread_count_is_kept(self, monkeypatch, tmp_path):
        monkeypatch.setenv(kernels.THREADS_ENV, "2")
        assert self.launch_env(monkeypatch, tmp_path)[kernels.THREADS_ENV] == "2"


class TestSpoolDataclassProtocol:
    """Satellite: the new spool dataclasses survive pickle/deepcopy (the
    same dunder-guard contract as ``ScenarioResult``)."""

    def envelope(self) -> ResultEnvelope:
        payload = {"rounds": 9, "colors_used": 4, "__getstate__": "decoy"}
        return ResultEnvelope(
            task_id="00001-abcdef",
            index=1,
            attempt=0,
            worker="w1",
            payload=payload,
            engine_used="reference",
            degraded_from=("vectorized",),
            integrity=payload_digest(payload),
        )

    def test_envelope_payload_attribute_fallthrough(self):
        envelope = self.envelope()
        assert envelope.rounds == 9 and envelope.colors_used == 4
        with pytest.raises(AttributeError):
            envelope.no_such_key

    def test_envelope_dunder_probes_raise(self):
        envelope = self.envelope()
        # The decoy payload key must NOT answer protocol probes: dunders
        # resolve normally (object.__getstate__ on 3.11+) or raise, never
        # fall through to the payload dict.
        assert callable(envelope.__getstate__)
        assert envelope.__getstate__ != "decoy"
        with pytest.raises(AttributeError):
            getattr(envelope, "__deepcopy__")
        with pytest.raises(AttributeError):
            getattr(envelope, "__no_such_dunder__")

    def test_envelope_survives_pickle_and_deepcopy(self):
        envelope = self.envelope()
        for clone in (pickle.loads(pickle.dumps(envelope)), copy.deepcopy(envelope)):
            assert clone == envelope
            assert clone.rounds == 9
            assert clone.verified()

    def test_envelope_document_round_trip(self):
        envelope = self.envelope()
        document = json.loads(json.dumps(envelope.to_document()))
        assert ResultEnvelope.from_document(document) == envelope

    def test_error_envelope_attribute_access_raises(self):
        envelope = ResultEnvelope(
            task_id="00002-ffffff",
            index=2,
            attempt=1,
            worker="w2",
            status="error",
            error="InjectedFaultError: boom",
            error_type="InjectedFaultError",
        )
        assert not envelope.ok and not envelope.verified()
        with pytest.raises(AttributeError):
            envelope.rounds

    def test_lease_survives_pickle_and_deepcopy(self):
        lease = Lease(task_id="00001-abcdef", worker="w1", claimed_at=1.0, deadline=6.0)
        for clone in (pickle.loads(pickle.dumps(lease)), copy.deepcopy(lease)):
            assert clone == lease
        with pytest.raises(AttributeError):
            lease.no_such_field
        document = json.loads(json.dumps(lease.to_document()))
        assert Lease.from_document(document) == lease


class TestClaimReapCompleteInterleavings:
    """Satellite: hypothesis over claim/heartbeat/stall/crash/reap/complete
    interleavings on a real tmpdir spool -- no task is ever lost, and none
    is double-counted by the coordinator."""

    TASKS = 3
    OPS = st.lists(
        st.sampled_from(
            [
                "claim0",
                "claim1",
                "complete0",
                "complete1",
                "crash0",
                "crash1",
                "stall0",
                "stall1",
                "reap",
                "collect",
            ]
        ),
        max_size=30,
    )

    @settings(max_examples=40, deadline=None)
    @given(ops=OPS)
    def test_no_task_lost_or_double_counted(self, ops):
        import tempfile

        root = Path(tempfile.mkdtemp(prefix="repro-spool-hyp-"))
        try:
            self._drive(Spool(root).create(), ops)
        finally:
            import shutil

            shutil.rmtree(root, ignore_errors=True)

    # -- simulation harness ------------------------------------------------

    TTL = 300.0  # huge: leases only "expire" when an op forces it

    def _expire(self, spool, task_id, worker):
        """Model a death/partition: lease deadline passes, heartbeat stale."""
        meta_path = spool.meta_dir / f"{task_id}.json"
        try:
            document = json.loads(meta_path.read_text())
        except (OSError, json.JSONDecodeError):
            document = None  # already reaped (repeated stall/crash): fine
        if document is not None:
            document["deadline"] = time.time() - 60.0
            meta_path.write_text(json.dumps(document))
        beat = spool.heartbeats_dir / worker
        if beat.exists():
            stale = time.time() - 10 * self.TTL
            os.utime(beat, (stale, stale))

    def _complete(self, spool, state, slot):
        doc = state["holding"][slot]
        payload = {"answer": doc["index"]}
        spool.write_envelope(
            ResultEnvelope(
                task_id=doc["task_id"],
                index=doc["index"],
                attempt=doc["attempt"],
                worker=state["ids"][slot],
                payload=payload,
                integrity=payload_digest(payload),
            )
        )
        spool.release(doc["task_id"])
        state["holding"][slot] = None

    def _collect(self, spool, state):
        for _, envelope in spool.new_envelopes(state["seen"]):
            if envelope is None:
                continue
            if envelope.index in state["outstanding"]:
                assert envelope.verified()
                state["outstanding"].discard(envelope.index)
                state["completed"][envelope.index] += 1
            else:
                state["duplicates"] += 1

    def _reap(self, spool, state):
        for task in spool.reap_expired(self.TTL):
            index = task["index"]
            if index not in state["outstanding"]:
                continue
            task["attempt"] += 1
            spool.add_task(task)

    def _drive(self, spool, ops):
        state = {
            "outstanding": set(range(self.TASKS)),
            "completed": dict.fromkeys(range(self.TASKS), 0),
            "duplicates": 0,
            "holding": [None, None],
            "ids": ["w0g0", "w1g0"],
            "gen": [0, 0],
            "seen": set(),
        }
        for index in range(self.TASKS):
            spool.add_task(
                spool.task_document(f"{index:05d}-t", index, 0, "t" * 64, {})
            )

        for op in ops:
            kind, slot = op[:-1], int(op[-1]) if op[-1].isdigit() else None
            if kind == "claim" and state["holding"][slot] is None:
                spool.heartbeat(state["ids"][slot])
                state["holding"][slot] = spool.claim_next(
                    state["ids"][slot], self.TTL
                )
            elif kind == "complete" and state["holding"][slot] is not None:
                self._complete(spool, state, slot)
            elif kind == "crash" and state["holding"][slot] is not None:
                # The worker dies mid-task; its replacement has a new identity
                # (fresh heartbeat file), so the old lease goes reapable.
                doc = state["holding"][slot]
                self._expire(spool, doc["task_id"], state["ids"][slot])
                state["holding"][slot] = None
                state["gen"][slot] += 1
                state["ids"][slot] = f"w{slot}g{state['gen'][slot]}"
            elif kind == "stall" and state["holding"][slot] is not None:
                # Partitioned but alive: the lease expires and the task is
                # reassigned, yet this worker later completes it anyway --
                # producing a duplicate the coordinator must absorb.
                doc = state["holding"][slot]
                self._expire(spool, doc["task_id"], state["ids"][slot])
            elif op == "reap":
                self._reap(spool, state)
            elif op == "collect":
                self._collect(spool, state)

        # Deterministic drain: however the interleaving left the spool,
        # the coordinator loop must finish the sweep.
        for _ in range(200):
            self._collect(spool, state)
            if not state["outstanding"]:
                break
            self._reap(spool, state)
            for slot in (0, 1):
                if state["holding"][slot] is None:
                    spool.heartbeat(state["ids"][slot])
                    state["holding"][slot] = spool.claim_next(
                        state["ids"][slot], self.TTL
                    )
                if state["holding"][slot] is not None:
                    self._complete(spool, state, slot)
        else:
            pytest.fail(f"sweep failed to drain: {state}")

        # The invariant: every task completed exactly once; late duplicate
        # envelopes were counted, never double-completed.
        assert state["outstanding"] == set()
        assert all(count == 1 for count in state["completed"].values())
