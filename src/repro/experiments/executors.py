"""Pluggable executor backends for :class:`~repro.experiments.ExperimentRunner`.

The runner's sweep logic (cache-first lookup, duplicate folding, write-through
checkpointing, result assembly) is backend-agnostic; everything about *how*
the pending scenarios actually execute lives behind the
:class:`ExecutorBackend` seam defined here.  Three backends ship in-tree:

``"serial"``
    In-process execution, one scenario at a time, with the same soft-timeout
    watchdog (:func:`call_with_soft_timeout`), retry policy, and integrity
    verification as the parallel backends -- the status matrix of a sweep is
    identical whichever backend ran it.
``"process"``
    The ``concurrent.futures`` process pool, executed in *generations*: a
    broken pool is rebuilt and only unfinished work resubmitted, collective
    breakage charges bound poison scenarios to ``retries + 1`` attempts, and
    never-individually-convicted suspects get an isolated retrial.
``"workdir"``
    The distributed backend: independent worker processes (see
    :mod:`repro.experiments.worker`) claim tasks from a shared spool
    directory (:mod:`repro.experiments.spool`) via atomic-rename leases,
    heartbeat while alive, and write digest-stamped result envelopes.  The
    coordinator here reaps expired leases from dead workers (charging one
    attempt, same bound as a pool breakage), replaces dead workers, accepts
    the first digest-valid envelope per task (duplicates are counted and
    ignored), and -- because completion goes through the runner's
    write-through ``complete`` callback -- checkpoints every result, so a
    killed coordinator resumes with workers still draining the spool.

Register additional backends with :func:`register_executor_backend`;
:func:`make_executor` instantiates by name with backend-specific options.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, Type

from repro.exceptions import InvalidParameterError
from repro.experiments.cache import ResultCache
from repro.experiments.scenarios import ALGORITHMS, Scenario, payload_digest
from repro.experiments.spool import Spool, SpoolConfig
from repro.local_model import kernels
from repro.resilience.degrade import run_with_degradation
from repro.resilience.faults import FAULT_PLAN_ENV, FaultInjector, FaultPlan

#: How often polling loops wake to check soft timeouts / spool progress
#: (seconds).  The pool backend only polls when a timeout is configured;
#: without one it blocks until a future completes.
_POLL_SECONDS = 0.05


class SoftTimeoutExpired(Exception):
    """A scenario execution exceeded its soft timeout (internal signal)."""


def call_with_soft_timeout(fn: Callable[[], Any], timeout: Optional[float]) -> Any:
    """Run ``fn()`` with a watchdog; raise :class:`SoftTimeoutExpired` on expiry.

    With ``timeout=None`` this is a plain call -- no thread, no overhead.
    Otherwise ``fn`` runs on a daemon thread and the caller waits up to
    ``timeout`` seconds: the timed-out thread cannot be killed (it is
    abandoned and may finish later), which exactly mirrors the pool backend's
    semantics where a hung worker is written off rather than reclaimed.
    """
    if timeout is None:
        return fn()
    box: Dict[str, Any] = {}

    def target() -> None:
        try:
            box["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised in the caller
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        raise SoftTimeoutExpired(
            f"soft timeout: no result within {timeout:g}s (worker hung)"
        )
    if "error" in box:
        raise box["error"]
    return box["value"]


def _run_payload(scenario: Scenario, engine: str) -> Dict[str, Any]:
    """Execute ``scenario`` on ``engine`` and return its JSON-safe payload."""
    try:
        runner = ALGORITHMS[scenario.algorithm]
    except KeyError:
        raise InvalidParameterError(
            f"unknown algorithm {scenario.algorithm!r}; known: {sorted(ALGORITHMS)}"
        ) from None
    started = time.perf_counter()
    network = scenario.graph.build()
    payload = runner(
        network,
        scenario.params_dict,
        engine,
        scenario.capture_colors,
    )
    payload["wall_time"] = time.perf_counter() - started
    payload["num_nodes"] = network.num_nodes
    payload["num_edges"] = network.num_edges
    payload["max_degree"] = network.max_degree
    return payload


def _execute_scenario(
    scenario: Scenario,
    index: int = 0,
    attempt: int = 0,
    injector: Optional[FaultInjector] = None,
) -> Dict[str, Any]:
    """The worker entry point (module-level so it pickles): one envelope.

    The envelope wraps the result payload with resilience metadata that must
    never leak into the cached payload itself (cached payloads stay
    bit-identical to fault-free runs): the engine that actually produced the
    result after degradation, the abandoned engines, and an integrity digest
    computed *before* any injected corruption so the parent can verify the
    payload it received.
    """
    if injector is None:
        injector = FaultInjector.from_env()
    restore = None
    if injector is not None:
        restore = injector.fire_before_run(index, attempt)
    try:
        outcome = run_with_degradation(
            lambda engine: _run_payload(scenario, engine), scenario.engine
        )
    finally:
        if restore is not None:
            restore()
    payload = outcome.result
    envelope = {
        "payload": payload,
        "engine_used": outcome.engine,
        "degraded_from": list(outcome.degraded_from),
        "integrity": payload_digest(payload),
    }
    if injector is not None:
        injector.corrupt_payload(index, attempt, payload)
    return envelope


@dataclass
class _Outcome:
    """Internal per-token outcome record (shared by duplicate scenarios)."""

    payload: Optional[Dict[str, Any]] = None
    cached: bool = False
    status: str = "ok"
    error: Optional[str] = None
    attempts: int = 1
    engine_used: Optional[str] = None
    degraded_from: Tuple[str, ...] = ()


def _ok_outcome(envelope: Dict[str, Any], attempts: int) -> _Outcome:
    return _Outcome(
        payload=envelope["payload"],
        status="ok",
        attempts=attempts,
        engine_used=envelope.get("engine_used"),
        degraded_from=tuple(envelope.get("degraded_from") or ()),
    )


@dataclass
class ExecutionRequest:
    """Everything a backend needs to execute one sweep's pending scenarios.

    ``complete(index, outcome)`` is the runner's write-through completion
    callback (it caches, counts, and reports progress); a backend must call
    it exactly once per pending index.  ``stats`` is the live
    :class:`~repro.experiments.runner.SweepStats` the backend charges its
    reliability counters to.
    """

    scenarios: Sequence[Scenario]
    tokens: Sequence[str]
    pending: Sequence[int]
    complete: Callable[[int, _Outcome], None]
    stats: Any
    retries: int = 2
    retry_backoff: float = 0.0
    timeout: Optional[float] = None
    fault_plan: Optional[FaultPlan] = None
    workers: int = 1
    cache: Optional[ResultCache] = None

    def backoff(self, attempt: int) -> None:
        delay = self.retry_backoff * (2 ** max(0, attempt - 1))
        if delay > 0:
            time.sleep(delay)


class ExecutorBackend:
    """Base class for executor backends (see module docstring)."""

    #: The registry name; subclasses must override.
    name = "abstract"

    def execute(self, request: ExecutionRequest) -> None:
        raise NotImplementedError


#: name -> backend class.  Use :func:`register_executor_backend` to extend.
EXECUTOR_BACKENDS: Dict[str, Type[ExecutorBackend]] = {}


def register_executor_backend(name: str) -> Callable:
    """Decorator registering an :class:`ExecutorBackend` under ``name``."""

    def decorator(cls: Type[ExecutorBackend]) -> Type[ExecutorBackend]:
        cls.name = name
        EXECUTOR_BACKENDS[name] = cls
        return cls

    return decorator


def make_executor(name: str, **options: Any) -> ExecutorBackend:
    """Instantiate the backend registered under ``name``.

    Unknown names and unsupported options raise
    :class:`~repro.exceptions.InvalidParameterError` -- a misconfigured
    backend is a caller bug, not a runtime fault.
    """
    try:
        cls = EXECUTOR_BACKENDS[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown executor backend {name!r}; known: {sorted(EXECUTOR_BACKENDS)}"
        ) from None
    try:
        return cls(**options)
    except TypeError as error:
        raise InvalidParameterError(
            f"invalid options for executor backend {name!r}: {error}"
        ) from None


# --------------------------------------------------------------------------- #
# Serial backend
# --------------------------------------------------------------------------- #


@register_executor_backend("serial")
class SerialExecutor(ExecutorBackend):
    """In-process execution with the full capture/retry/timeout policy.

    The soft timeout is enforced with the same watchdog semantics as the
    pool backend (same error string, same attempt charging), so a sweep's
    status matrix does not depend on which backend ran it.  Injected
    ``"crash"`` faults degrade to raised errors here -- exiting the caller's
    interpreter is never acceptable in-process.
    """

    def execute(self, request: ExecutionRequest) -> None:
        injector = (
            FaultInjector(request.fault_plan, allow_process_exit=False)
            if request.fault_plan is not None
            else None
        )
        for index in request.pending:
            scenario = request.scenarios[index]
            attempt = 0
            while True:
                error = None
                envelope = None
                try:
                    envelope = call_with_soft_timeout(
                        lambda s=scenario, i=index, a=attempt: _execute_scenario(
                            s, i, a, injector=injector
                        ),
                        request.timeout,
                    )
                except InvalidParameterError:
                    raise
                except SoftTimeoutExpired as exc:
                    request.stats.timeouts += 1
                    error = str(exc)
                except Exception as exc:  # noqa: BLE001 - capture, not abort
                    error = f"{type(exc).__name__}: {exc}"
                if error is None and envelope["integrity"] != payload_digest(
                    envelope["payload"]
                ):
                    error = "payload integrity digest mismatch"
                if error is None:
                    request.complete(index, _ok_outcome(envelope, attempt + 1))
                    break
                attempt += 1
                if attempt > request.retries:
                    request.complete(
                        index,
                        _Outcome(status="failed", error=error, attempts=attempt),
                    )
                    break
                request.stats.retries += 1
                request.backoff(attempt)


# --------------------------------------------------------------------------- #
# Process-pool backend
# --------------------------------------------------------------------------- #


@register_executor_backend("process")
class ProcessExecutor(ExecutorBackend):
    """Pool execution in *generations*: a lost pool is rebuilt, and only
    unfinished work is resubmitted to the replacement."""

    def execute(self, request: ExecutionRequest) -> None:
        previous_env = None
        env_set = False
        if request.fault_plan is not None:
            previous_env = os.environ.get(FAULT_PLAN_ENV)
            os.environ[FAULT_PLAN_ENV] = request.fault_plan.to_json()
            env_set = True
        attempts = dict.fromkeys(request.pending, 0)
        unfinished = list(request.pending)
        suspects: set = set()
        first = True
        try:
            while unfinished:
                if not first:
                    request.stats.pool_rebuilds += 1
                first = False
                unfinished = self._pool_generation(
                    request, unfinished, attempts, request.workers, suspects
                )
            # Scenarios that ran out of attempts purely through *collective*
            # pool-breakage charges were never individually convicted: give
            # each one isolated, single-worker execution.  If the pool
            # breaks again the crash is theirs beyond doubt (and is recorded
            # as such); innocents caught near a serial crasher complete here.
            for index in sorted(suspects):
                unfinished = [index]
                while unfinished:
                    request.stats.pool_rebuilds += 1
                    unfinished = self._pool_generation(
                        request, unfinished, attempts, 1, suspects, isolated=True
                    )
        finally:
            if env_set:
                if previous_env is None:
                    os.environ.pop(FAULT_PLAN_ENV, None)
                else:
                    os.environ[FAULT_PLAN_ENV] = previous_env

    def _pool_generation(
        self,
        request: ExecutionRequest,
        unfinished: Sequence[int],
        attempts: Dict[int, int],
        workers: int,
        suspects: set,
        isolated: bool = False,
    ) -> List[int]:
        """Drain one process pool; return the indexes a fresh pool must redo.

        The generation ends early ("the pool is lost") on a broken pool or a
        soft-timeout expiry, because in both cases at least one worker can no
        longer be trusted or reclaimed.  A pool breakage cannot be attributed
        to a single scenario, so it charges one attempt to *every* index that
        was unfinished at that moment -- this guarantees termination (a
        scenario that always kills its worker runs out of attempts after at
        most ``retries + 1`` breakages).  Indexes exhausted *only* by those
        collective charges are not failed here but parked in ``suspects``
        for an isolated retrial (see :meth:`execute`); in an ``isolated``
        (single-scenario) generation a breakage is individual guilt and
        fails the scenario directly.
        """
        scenarios = request.scenarios
        complete = request.complete
        stats = request.stats
        pool = ProcessPoolExecutor(max_workers=workers)
        futures: Dict[Any, int] = {}
        started: Dict[Any, float] = {}
        remaining = set(unfinished)
        lost = False
        charge_all = False
        try:
            for index in unfinished:
                futures[
                    pool.submit(
                        _execute_scenario, scenarios[index], index, attempts[index]
                    )
                ] = index
            while futures and not lost:
                tick = _POLL_SECONDS if request.timeout is not None else None
                finished, _ = wait(
                    set(futures), timeout=tick, return_when=FIRST_COMPLETED
                )
                now = time.monotonic()
                for future in finished:
                    index = futures.pop(future)
                    started.pop(future, None)
                    envelope = None
                    error = None
                    try:
                        envelope = future.result()
                    except InvalidParameterError:
                        raise
                    except BrokenProcessPool:
                        lost = True
                        charge_all = True
                        break
                    except Exception as exc:  # noqa: BLE001 - capture, not abort
                        error = f"{type(exc).__name__}: {exc}"
                    if error is None and envelope["integrity"] != payload_digest(
                        envelope["payload"]
                    ):
                        error = "payload integrity digest mismatch (corrupted in transit)"
                    if error is None:
                        remaining.discard(index)
                        complete(index, _ok_outcome(envelope, attempts[index] + 1))
                        continue
                    attempts[index] += 1
                    if attempts[index] > request.retries:
                        remaining.discard(index)
                        complete(
                            index,
                            _Outcome(
                                status="failed", error=error, attempts=attempts[index]
                            ),
                        )
                    else:
                        stats.retries += 1
                        request.backoff(attempts[index])
                        futures[
                            pool.submit(
                                _execute_scenario,
                                scenarios[index],
                                index,
                                attempts[index],
                            )
                        ] = index
                if lost or request.timeout is None:
                    continue
                for future in list(futures):
                    if future not in started and future.running():
                        started[future] = now
                expired = [
                    future
                    for future, began in started.items()
                    if future in futures and now - began >= request.timeout
                ]
                if expired:
                    # A hung worker cannot be cancelled or reclaimed: charge
                    # the timed-out scenarios an attempt and lose the pool.
                    lost = True
                    stats.timeouts += len(expired)
                    for future in expired:
                        index = futures.pop(future)
                        attempts[index] += 1
                        if attempts[index] > request.retries:
                            remaining.discard(index)
                            complete(
                                index,
                                _Outcome(
                                    status="failed",
                                    error=(
                                        f"soft timeout: no result within "
                                        f"{request.timeout:g}s (worker hung)"
                                    ),
                                    attempts=attempts[index],
                                ),
                            )
                        else:
                            stats.retries += 1
        finally:
            self._teardown_pool(pool, graceful=not lost)
        if charge_all:
            # The pool broke; every unfinished scenario pays one attempt
            # (see the docstring for why attribution is collective).
            for index in sorted(remaining):
                attempts[index] += 1
                if isolated:
                    # The scenario was alone in this pool: the crash is its.
                    remaining.discard(index)
                    complete(
                        index,
                        _Outcome(
                            status="failed",
                            error=(
                                "worker process crashed while executing this "
                                "scenario (confirmed in isolation); retries "
                                "exhausted"
                            ),
                            attempts=attempts[index],
                        ),
                    )
                elif attempts[index] > request.retries:
                    remaining.discard(index)
                    suspects.add(index)
                else:
                    stats.retries += 1
        return sorted(remaining)

    @staticmethod
    def _teardown_pool(pool: ProcessPoolExecutor, graceful: bool) -> None:
        """Shut a pool down; a lost pool's workers are terminated outright.

        ``_processes`` is private executor state, but it is the only handle
        on a *hung* worker -- ``shutdown`` alone would block on (or leak) it.
        The access is defensive: if the attribute moves, teardown degrades to
        the plain non-waiting shutdown.
        """
        if graceful:
            pool.shutdown(wait=True)
            return
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:  # noqa: BLE001 - already-dead workers are fine
                pass
        pool.shutdown(wait=False, cancel_futures=True)


# --------------------------------------------------------------------------- #
# Workdir (distributed spool) backend
# --------------------------------------------------------------------------- #


@register_executor_backend("workdir")
class WorkdirExecutor(ExecutorBackend):
    """Distributed execution over a shared spool directory.

    The coordinator writes one task file per pending scenario into the
    spool, (optionally) launches ``workers`` worker subprocesses, then loops
    collecting result envelopes, reaping expired leases, and replacing dead
    workers until every pending index completed.  See
    :mod:`repro.experiments.spool` for the on-disk protocol.

    Parameters
    ----------
    spool_dir:
        The shared directory.  ``None`` (the default) creates a private
        temporary spool, removed when the sweep finishes.  Point it at a
        durable path to resume a killed coordinator (pre-existing envelopes
        and in-flight leases are honored) or to share a sweep with
        externally launched workers.
    lease_ttl:
        Lease lifetime in seconds.  A task whose lease deadline passed *and*
        whose worker's heartbeat is older than the TTL is reassigned,
        charging one attempt.
    heartbeat_interval:
        How often workers touch their heartbeat file.  Must be comfortably
        below ``lease_ttl`` or live workers get reaped.
    launch_workers:
        When ``False``, the coordinator only manages the spool -- workers
        are expected to be launched externally
        (``python -m repro.experiments.worker <spool_dir>``).
    poll / worker_poll:
        Coordinator / worker loop sleep intervals in seconds.
    drain_timeout:
        Safety net: raise ``RuntimeError`` if the sweep has not drained
        within this many seconds (``None`` waits forever).  The retry bound
        already guarantees termination while workers exist; this guards
        the ``launch_workers=False`` case where none might.
    """

    def __init__(
        self,
        spool_dir: Optional[os.PathLike] = None,
        lease_ttl: float = 5.0,
        heartbeat_interval: float = 1.0,
        launch_workers: bool = True,
        poll: float = _POLL_SECONDS,
        worker_poll: float = _POLL_SECONDS,
        drain_timeout: Optional[float] = None,
    ) -> None:
        self.spool_dir = spool_dir
        self.lease_ttl = float(lease_ttl)
        self.heartbeat_interval = float(heartbeat_interval)
        self.launch_workers = launch_workers
        self.poll = float(poll)
        self.worker_poll = float(worker_poll)
        self.drain_timeout = drain_timeout

    def execute(self, request: ExecutionRequest) -> None:
        own_spool = self.spool_dir is None
        root = Path(
            tempfile.mkdtemp(prefix="repro-spool-")
            if own_spool
            else self.spool_dir
        )
        spool = Spool(root).create()
        spool.clear_stop()
        spool.write_config(
            SpoolConfig(
                cache_dir=(
                    str(request.cache._base) if request.cache is not None else None
                ),
                lease_ttl=self.lease_ttl,
                heartbeat_interval=self.heartbeat_interval,
                timeout=request.timeout,
            )
        )
        attempts: Dict[int, int] = dict.fromkeys(request.pending, 0)
        outstanding: Set[int] = set(request.pending)
        task_ids: Dict[int, str] = {
            index: f"{index:05d}-{request.tokens[index][:10]}"
            for index in request.pending
        }
        index_of: Dict[str, int] = {tid: i for i, tid in task_ids.items()}
        seen_envelopes: Set[str] = set()
        processes: List[subprocess.Popen] = []
        worker_serial = 0
        try:
            # Resume before enqueue: a durable spool may already hold
            # envelopes from workers that outlived a killed coordinator.
            self._collect(request, spool, seen_envelopes, outstanding, attempts, index_of)
            for index in sorted(outstanding):
                if not spool.has_task_or_lease(task_ids[index]):
                    spool.add_task(
                        spool.task_document(
                            task_ids[index],
                            index,
                            attempts[index],
                            request.tokens[index],
                            request.scenarios[index].to_json_dict(),
                        )
                    )
            if self.launch_workers and outstanding:
                for _ in range(max(1, min(request.workers, len(outstanding)))):
                    worker_serial += 1
                    processes.append(
                        self._launch_worker(request, root, f"w{worker_serial}")
                    )
            started = time.monotonic()
            while outstanding:
                self._collect(
                    request, spool, seen_envelopes, outstanding, attempts, index_of
                )
                if not outstanding:
                    break
                self._reap(request, spool, outstanding, attempts, index_of)
                if self.launch_workers:
                    worker_serial = self._replace_dead_workers(
                        request, root, processes, outstanding, worker_serial
                    )
                if (
                    self.drain_timeout is not None
                    and time.monotonic() - started > self.drain_timeout
                ):
                    raise RuntimeError(
                        f"workdir sweep did not drain within {self.drain_timeout:g}s; "
                        f"{len(outstanding)} scenario(s) outstanding"
                    )
                time.sleep(self.poll)
        finally:
            spool.request_stop()
            for process in processes:
                try:
                    process.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    process.terminate()
                    try:
                        process.wait(timeout=5.0)
                    except subprocess.TimeoutExpired:
                        process.kill()
            if own_spool:
                shutil.rmtree(root, ignore_errors=True)

    def _launch_worker(
        self, request: ExecutionRequest, root: Path, worker_id: str
    ) -> subprocess.Popen:
        import repro

        package_root = Path(repro.__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(package_root)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        if request.fault_plan is not None:
            env[FAULT_PLAN_ENV] = request.fault_plan.to_json()
        else:
            env.pop(FAULT_PLAN_ENV, None)
        # Workers run the fused kernels on one thread unless told otherwise,
        # like the "process" backend's forked workers: the worker processes
        # already fill the cores.  At the OpenMP default they oversubscribe
        # them (a 48-scenario sweep on 2 workers and 2 cores ran ~6x slower).
        env.setdefault(kernels.THREADS_ENV, "1")
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.experiments.worker",
                str(root),
                "--worker-id",
                worker_id,
                "--poll",
                str(self.worker_poll),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def _collect(
        self,
        request: ExecutionRequest,
        spool: Spool,
        seen: Set[str],
        outstanding: Set[int],
        attempts: Dict[int, int],
        index_of: Dict[str, int],
    ) -> None:
        """Process new result envelopes: first digest-valid envelope wins."""
        for path, envelope in spool.new_envelopes(seen):
            if envelope is None:
                # Unparseable envelope: quarantine it and charge the task an
                # attempt (its id is recoverable from the filename).
                task_id = path.name.split("--", 1)[0]
                index = index_of.get(task_id)
                spool.quarantine(path)
                request.stats.envelopes_rejected += 1
                if index is not None and index in outstanding:
                    self._requeue(
                        request,
                        spool,
                        outstanding,
                        attempts,
                        index,
                        "unparseable result envelope",
                    )
                continue
            index = index_of.get(envelope.task_id)
            if index is None:
                continue
            if index not in outstanding:
                # A stalled or partitioned worker finished after its task was
                # reassigned and completed elsewhere.  First envelope won;
                # this one is merely counted.
                request.stats.duplicate_completions += 1
                continue
            if envelope.status == "error":
                if envelope.error_type == "InvalidParameterError":
                    # An invalid scenario is a caller bug: propagate, exactly
                    # like the serial and pool backends.
                    raise InvalidParameterError(envelope.error or "invalid scenario")
                if envelope.error_type == "SoftTimeoutExpired":
                    request.stats.timeouts += 1
                self._requeue(
                    request,
                    spool,
                    outstanding,
                    attempts,
                    index,
                    envelope.error or "worker error",
                )
                continue
            if not envelope.verified():
                spool.quarantine(path)
                request.stats.envelopes_rejected += 1
                self._requeue(
                    request,
                    spool,
                    outstanding,
                    attempts,
                    index,
                    "payload integrity digest mismatch (corrupted in transit)",
                )
                continue
            outstanding.discard(index)
            request.complete(
                index,
                _Outcome(
                    payload=envelope.payload,
                    status="ok",
                    attempts=attempts[index] + 1,
                    engine_used=envelope.engine_used,
                    degraded_from=tuple(envelope.degraded_from),
                ),
            )

    def _reap(
        self,
        request: ExecutionRequest,
        spool: Spool,
        outstanding: Set[int],
        attempts: Dict[int, int],
        index_of: Dict[str, int],
    ) -> None:
        """Reassign tasks whose lease expired with a stale worker heartbeat."""
        for task in spool.reap_expired(self.lease_ttl):
            index = index_of.get(str(task.get("task_id")))
            if index is None or index not in outstanding:
                continue
            request.stats.reassignments += 1
            self._requeue(
                request,
                spool,
                outstanding,
                attempts,
                index,
                "lease expired: worker died or partitioned mid-scenario",
            )

    def _requeue(
        self,
        request: ExecutionRequest,
        spool: Spool,
        outstanding: Set[int],
        attempts: Dict[int, int],
        index: int,
        error: str,
    ) -> None:
        """Charge ``index`` one attempt; re-enqueue or fail it.

        Mirrors the pool backend's bound: a poison scenario is reassigned at
        most ``retries + 1`` times before it is failed.  Workdir retries are
        immediate (``retry_backoff`` is not slept here -- the coordinator
        loop must keep collecting envelopes from other workers).
        """
        attempts[index] += 1
        if attempts[index] > request.retries:
            outstanding.discard(index)
            request.complete(
                index,
                _Outcome(status="failed", error=error, attempts=attempts[index]),
            )
            return
        request.stats.retries += 1
        task_id = f"{index:05d}-{request.tokens[index][:10]}"
        # Unconditional: the failing worker's lease may briefly still exist
        # (it releases *after* writing its envelope), and waiting for it
        # would lose the task.  The worst case is a duplicate execution,
        # which first-digest-valid-envelope-wins already tolerates.
        spool.add_task(
            spool.task_document(
                task_id,
                index,
                attempts[index],
                request.tokens[index],
                request.scenarios[index].to_json_dict(),
            )
        )

    def _replace_dead_workers(
        self,
        request: ExecutionRequest,
        root: Path,
        processes: List[subprocess.Popen],
        outstanding: Set[int],
        worker_serial: int,
    ) -> int:
        """Launch a replacement for every exited worker while work remains."""
        for position, process in enumerate(processes):
            if process.poll() is not None and outstanding:
                worker_serial += 1
                processes[position] = self._launch_worker(
                    request, root, f"w{worker_serial}"
                )
                request.stats.worker_replacements += 1
        return worker_serial


# Re-exported for the worker module and tests.
__all__ = [
    "EXECUTOR_BACKENDS",
    "ExecutionRequest",
    "ExecutorBackend",
    "ProcessExecutor",
    "SerialExecutor",
    "SoftTimeoutExpired",
    "WorkdirExecutor",
    "call_with_soft_timeout",
    "make_executor",
    "register_executor_backend",
]
