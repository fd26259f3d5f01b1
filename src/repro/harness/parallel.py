"""Fault-tolerant parallel campaign engine: supervised trial shards.

The paper's headline experiments run 500-1000 randomized trials per
(program, scheduler, d, h) cell; each trial is pure-Python CPU-bound
work, so this module shards the trial index space across a process pool
and *supervises* the shards so one fault cannot destroy a campaign:

* **Work units are picklable.**  Programs and schedulers cross the
  process boundary as registry specs (:class:`repro.workloads.ProgramSpec`,
  :class:`repro.core.factory.SchedulerSpec`) or any other picklable
  factory — not closures (which serial campaigns accept).
* **Seeding is shard-independent.**  Trial ``i`` always runs with
  ``derive_trial_seed(base_seed, i)``, so the aggregate counts are
  bit-identical regardless of worker count, chunking, or how often a
  shard had to be retried.
* **One shard loop, warm everywhere.**  :func:`_run_shard_warm` runs
  every shard.  It builds one :class:`~repro.harness.campaign.TrialRunner`
  — program, scheduler, and pooled execution state — on the first shard
  of a campaign and reuses it for every later shard with that campaign's
  token, with the cyclic collector paused and collected every
  :data:`~repro.harness.campaign.GC_COLLECT_STRIDE` trials.
* **Serial campaigns are campaigns without a pool.**  With ``jobs <= 1``
  (or fewer trials than workers, where a pool start would dominate) the
  same shards run in the parent, through the same supervisor, journal,
  progress hook and interrupt handling as pooled shards.
* **A pool outlives a campaign.**  A :class:`CampaignPool` owns worker
  processes that serve every campaign of a sweep (``figure5``,
  ``table2``, ``repro fuzz``, ...); each shard task ships a campaign
  token with the indices-free shard config.  A pooled campaign run
  without a pool opens a private one for its lifetime.
* **Merging is deterministic and streaming.**  Shard records fold into
  a :class:`~repro.harness.campaign.CampaignAccumulator` as each shard
  finishes; the fold is order-independent, so ``hits``,
  ``inconclusive``, ``total_steps``, ``total_events`` and
  ``run_times_s`` match a serial campaign exactly while the parent
  holds only bounded aggregate state.
* **Faults are contained at three levels.**  A trial that raises or
  exhausts its wall-clock budget becomes an ``error``/``timeout``
  record inside the worker (:meth:`repro.harness.campaign.TrialRunner.run`).
  A worker that *dies* (OOM kill, fork-unsafe state, segfault) breaks
  the pool; the supervisor rebuilds it and retries the lost shards with
  bounded retries and exponential backoff — retries are bit-identical
  because seeds are per-trial.  Shards that keep failing degrade to
  in-process execution so the campaign still finishes (and a
  deterministic infrastructure fault surfaces with a real traceback).
* **Progress is durable.**  With ``checkpoint=PATH`` every completed
  shard is appended to a JSONL trial journal (flushed + fsynced);
  ``resume=True`` skips already-journaled trials.  SIGINT *and SIGTERM*
  (what container orchestrators send) stop the campaign cleanly:
  completed work is journaled, an ``interrupt`` event is appended, and
  the partial aggregates are returned with ``interrupted=True``.
* **Wedged workers are preempted.**  ``trial_timeout_s`` is enforced
  cooperatively inside the step loop, so it cannot fire while a worker
  is stuck *outside* it (a factory wedged in native code, an OS stall).
  With ``hang_timeout_s`` set, warm workers stamp a shared heartbeat
  slot per trial boundary and a supervisor-side watchdog thread
  (:mod:`repro.harness.watchdog`) hard-kills any worker whose busy
  heartbeat goes stale, feeding the lost shard back into the same
  bounded-retry path — the wall-clock budget becomes preemptive.
  ``memory_limit_mb`` likewise recycles workers whose RSS crosses a
  soft ceiling; worker restarts are seed-deterministic, so neither
  lever can change results.

    spec = ProgramSpec("seqlock")
    sched = SchedulerSpec("pctwm", {"depth": 3, "k_com": 18, "history": 2})
    result = run_campaign_parallel(spec, sched, trials=1000, jobs=4,
                                   checkpoint="seqlock.jsonl",
                                   progress=print_progress)

    with CampaignPool(4) as pool:          # one pool for a whole sweep
        for d in (1, 2, 3):
            run_campaign_parallel(spec, SchedulerSpec("pct", {"depth": d}),
                                  trials=100, jobs=4, pool=pool)
"""

from __future__ import annotations

import gc
import itertools
import multiprocessing
import os
import signal
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..runtime.executor import RunResult
from . import faultrig
from .campaign import (
    GC_COLLECT_STRIDE,
    CampaignAccumulator,
    CampaignResult,
    ProgramFactory,
    SchedulerFactory,
    TrialRecord,
    TrialRunner,
    resolve_campaign_names,
)
from .checkpoint import TrialJournal
from .watchdog import HeartbeatBoard, Watchdog, WatchdogStats

__all__ = [
    "CampaignPool",
    "CampaignProgress",
    "ShardResult",
    "ShardSpec",
    "WatchdogStats",
    "print_progress",
    "run_campaign_parallel",
]

#: Environment override for the multiprocessing start method used by
#: campaign pools ("fork", "spawn", or "forkserver").
START_METHOD_ENV = "REPRO_START_METHOD"

#: Ceiling on the exponential shard-retry backoff.  Retries double from
#: ``retry_backoff_s`` but never beyond this, so a high retry budget
#: cannot compound into multi-minute stalls between pool rebuilds.
RETRY_BACKOFF_CAP_S = 5.0

#: Most trials in one shard.  A shard's records are held until the
#: shard completes and folds, so this bounds the records in memory at
#: once (and the work an interrupt can leave unjournaled) however large
#: the campaign.
MAX_SHARD_TRIALS = 2000


@dataclass
class ShardSpec:
    """One shard: a slice of the trial index space.

    ``indices`` is usually a contiguous ``range``, but resuming from a
    checkpoint shards only the *remaining* trials, which may have holes.
    In a pooled campaign everything in here crosses the process boundary,
    so the factories must be picklable (registry specs or module-level
    callables).
    """

    program_factory: ProgramFactory
    scheduler_factory: SchedulerFactory
    base_seed: int
    indices: Sequence[int]
    max_steps: int = 20000
    count_operations: Optional[Callable[[RunResult], int]] = None
    trial_timeout_s: Optional[float] = None
    sanitize: str = "off"
    artifact_dir: Optional[str] = None
    spin_threshold: int = 8
    record_mode: str = "on_failure"
    model: str = "c11"

    def make_runner(self) -> TrialRunner:
        """A warm trial runner configured like this shard."""
        return TrialRunner(
            self.program_factory, self.scheduler_factory, self.base_seed,
            max_steps=self.max_steps,
            count_operations=self.count_operations,
            trial_timeout_s=self.trial_timeout_s, sanitize=self.sanitize,
            artifact_dir=self.artifact_dir,
            spin_threshold=self.spin_threshold,
            record_mode=self.record_mode,
            model=self.model,
        )


@dataclass
class ShardResult:
    """Per-trial records of one shard, plus its wall time."""

    start: int
    records: List[TrialRecord]
    wall_s: float


@dataclass
class CampaignProgress:
    """Snapshot handed to the progress hook after each completed shard."""

    completed_trials: int
    total_trials: int
    elapsed_s: float
    #: Wall time of each shard completed so far, in completion order.
    shard_wall_times: List[float] = field(default_factory=list)
    #: Trials restored from a checkpoint journal (counted in
    #: ``completed_trials`` but not re-run).
    resumed_trials: int = 0

    @property
    def trials_per_second(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return self.completed_trials / self.elapsed_s

    @property
    def eta_s(self) -> float:
        """Estimated seconds until the campaign completes."""
        rate = self.trials_per_second
        if rate <= 0:
            return float("inf")
        return (self.total_trials - self.completed_trials) / rate

    def render(self) -> str:
        eta = f"{self.eta_s:.1f}s" if self.eta_s != float("inf") else "?"
        resumed = (f", {self.resumed_trials} resumed"
                   if self.resumed_trials else "")
        return (
            f"{self.completed_trials}/{self.total_trials} trials "
            f"({self.trials_per_second:.1f}/s, eta {eta}{resumed})"
        )


def print_progress(progress: CampaignProgress) -> None:
    """Default progress hook: one status line per completed shard."""
    print(f"  [campaign] {progress.render()}", file=sys.stderr, flush=True)


class _WarmRunner:
    """The trial runner of the campaign whose token was seen last, plus
    the trials run since the last manual collection."""

    def __init__(self) -> None:
        self.token: Optional[int] = None
        self.runner: Optional[TrialRunner] = None
        self.trials_since_gc = 0


#: Per-worker-process warm state (see :func:`_run_worker_shard`).
_WORKER_WARM = _WarmRunner()
#: The worker's claimed heartbeat slot (None when the pool runs without
#: a hang watchdog or memory ceiling).
_WORKER_HEARTBEAT = None


def _init_worker(board: Optional[HeartbeatBoard] = None) -> None:
    """Pool initializer: claim a heartbeat slot and pause the collector.

    Runs once per worker process.  The cyclic collector stays paused for
    the worker's lifetime (the shard loop collects manually, see
    :func:`_run_shard_warm`).
    """
    global _WORKER_HEARTBEAT
    # Fork-started workers inherit the supervisor's SIGTERM handler
    # (which raises KeyboardInterrupt); a pool worker must simply die
    # when the executor terminates it.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _WORKER_HEARTBEAT = board.claim() if board is not None else None
    faultrig.load_directives()
    gc.disable()


def _run_shard_warm(token: Optional[int], config: ShardSpec,
                    indices: Sequence[int], warm: _WarmRunner,
                    heartbeat=None, inject: bool = False) -> ShardResult:
    """Run trial ``indices`` of campaign ``token``: the one shard loop.

    ``warm`` holds the runner of the campaign seen last: the first shard
    of a campaign builds it from ``config``, later shards with the same
    token reuse it.  The caller keeps the cyclic collector paused; the
    loop collects every :data:`GC_COLLECT_STRIDE` trials.  ``heartbeat``
    (a pool worker's slot, or None) is busy while the runner is built,
    so a factory that wedges is still preemptible; each trial stamps it
    (one shared float store — noise next to even the cheapest trial),
    and it is marked idle on exit so a worker parked between shards is
    never mistaken for a wedged one.  ``inject`` fires the fault rig's
    directives (pool workers only).
    """
    if heartbeat is not None:
        heartbeat.beat()
    try:
        if inject:
            faultrig.maybe_inject(heartbeat)
        if warm.runner is None or token != warm.token:
            # Free the last campaign's runner before building this one,
            # and leave no stale runner paired with a token if it raises.
            warm.token = warm.runner = None
            warm.runner = config.make_runner()
            warm.token = token
        runner = warm.runner
        t0 = time.perf_counter()
        records = []
        for index in indices:
            if heartbeat is not None:
                heartbeat.beat()
            records.append(runner.run(index))
            warm.trials_since_gc += 1
            if warm.trials_since_gc >= GC_COLLECT_STRIDE:
                warm.trials_since_gc = 0
                gc.collect()
    finally:
        if heartbeat is not None:
            heartbeat.idle()
    return ShardResult(indices[0], records, time.perf_counter() - t0)


def _run_worker_shard(token: int, config: ShardSpec,
                      indices: Sequence[int]) -> ShardResult:
    """Pool task: one shard on this worker's warm state, heartbeat slot
    and fault rig."""
    return _run_shard_warm(token, config, indices, _WORKER_WARM,
                           _WORKER_HEARTBEAT, inject=True)


def shard_bounds(trials: int, jobs: int,
                 chunks_per_job: int = 4) -> List[tuple]:
    """Split ``range(trials)`` into contiguous ``(start, stop)`` slices.

    Oversplits to ``jobs * chunks_per_job`` shards for load balancing
    (trial durations vary, e.g. when some seeds hit the step budget),
    and further so that no shard exceeds :data:`MAX_SHARD_TRIALS`;
    sharding never affects results because seeds are per-trial.
    """
    shards = max(1, min(trials, max(jobs * max(1, chunks_per_job),
                                    -(-trials // MAX_SHARD_TRIALS))))
    bounds = []
    base, extra = divmod(trials, shards)
    start = 0
    for i in range(shards):
        stop = start + base + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def _pool_context(start_method: Optional[str] = None):
    """The multiprocessing context campaigns use for worker pools.

    Resolution order: explicit ``start_method`` argument, the
    ``REPRO_START_METHOD`` environment variable, then the historical
    default (fork where available — cheap on Linux — else spawn).  Pass
    ``"spawn"`` when the parent holds threads: forking a threaded
    process is unsafe.
    """
    if start_method is None:
        start_method = os.environ.get(START_METHOD_ENV) or None
    methods = multiprocessing.get_all_start_methods()
    if start_method is not None:
        if start_method not in methods:
            raise ValueError(
                f"unknown start method {start_method!r}; "
                f"available: {', '.join(methods)}"
            )
        return multiprocessing.get_context(start_method)
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def _warn(message: str) -> None:
    print(f"  [campaign] {message}", file=sys.stderr, flush=True)


@contextmanager
def _sigterm_as_interrupt():
    """Deliver SIGTERM exactly like SIGINT for the duration of the block.

    Container orchestrators stop workloads with SIGTERM; without this,
    a terminated campaign would skip the journal-flush/partial-result
    path that SIGINT (KeyboardInterrupt) already takes and lose its
    checkpoint state.  The handler simply raises ``KeyboardInterrupt``,
    so one drain path serves both signals; the previous handler is
    restored on exit.  Signal handlers can only live in the main thread
    — campaigns run from a worker thread (e.g. inside the campaign
    daemon) yield an inert context instead.

    Yields a dict that records ``{"signal": "SIGTERM"}`` if the handler
    fired, letting callers journal which signal drained the campaign.
    """
    seen: Dict[str, str] = {}
    if threading.current_thread() is not threading.main_thread():
        yield seen
        return

    def handler(signum, frame):
        seen["signal"] = "SIGTERM"
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, handler)
    try:
        yield seen
    finally:
        signal.signal(signal.SIGTERM, previous)


def _check_watchdog_limits(hang_timeout_s: Optional[float],
                           memory_limit_mb: Optional[float]) -> None:
    if hang_timeout_s is not None and hang_timeout_s <= 0:
        raise ValueError("hang_timeout_s must be positive")
    if memory_limit_mb is not None and memory_limit_mb <= 0:
        raise ValueError("memory_limit_mb must be positive")


class CampaignPool:
    """Worker processes that outlive a single campaign.

    A sweep opens one pool and hands it to every campaign it runs::

        with CampaignPool(jobs) as pool:
            for spec in specs:
                run_campaign_parallel(program, spec, jobs=jobs, pool=pool)

    The executor starts lazily, on the first campaign that needs
    workers, so a pool nobody uses (``jobs=1``, or only tiny campaigns)
    costs nothing.  A pool that broke (dead or preempted worker) or was
    left mid-campaign (interrupt, error) is torn down and the next
    campaign starts a fresh one.  Leaving the ``with`` block stops every
    worker.

    The pool also owns what lives as long as its workers: the
    multiprocessing ``start_method``, the heartbeat board and watchdog
    (``hang_timeout_s``, ``memory_limit_mb``, ``watchdog_stats``,
    ``watchdog_poll_s``) and the ``on_pool_change`` observer, called
    ``+jobs`` when workers start and ``-jobs`` when they stop.  See
    :func:`run_campaign_parallel` for what each one does.
    """

    def __init__(self, jobs: int, start_method: Optional[str] = None,
                 hang_timeout_s: Optional[float] = None,
                 memory_limit_mb: Optional[float] = None,
                 watchdog_stats: Optional[WatchdogStats] = None,
                 watchdog_poll_s: Optional[float] = None,
                 on_pool_change: Optional[Callable[[int], None]] = None):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        _check_watchdog_limits(hang_timeout_s, memory_limit_mb)
        self.jobs = jobs
        self.start_method = start_method
        self.hang_timeout_s = hang_timeout_s
        self.memory_limit_mb = memory_limit_mb
        self.watchdog_stats = watchdog_stats \
            if watchdog_stats is not None else WatchdogStats()
        self.watchdog_poll_s = watchdog_poll_s
        self.on_pool_change = on_pool_change
        self._executor: Optional[ProcessPoolExecutor] = None
        self._watchdog: Optional[Watchdog] = None
        self._tokens = itertools.count()

    def __enter__(self) -> "CampaignPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.discard(clean=exc_type is None)

    def next_token(self) -> int:
        """A token no other campaign on this pool has used."""
        return next(self._tokens)

    def executor(self) -> ProcessPoolExecutor:
        """The live executor, started on first use."""
        if self._executor is None:
            self._start()
        return self._executor

    def _start(self) -> None:
        ctx = _pool_context(self.start_method)
        # One board per executor lifetime: a lingering worker of a
        # torn-down pool must never stamp (and so mask) its
        # replacement's slot.
        board = None
        if self.hang_timeout_s is not None \
                or self.memory_limit_mb is not None:
            board = HeartbeatBoard(ctx, slots=self.jobs)
        executor = ProcessPoolExecutor(
            max_workers=self.jobs, mp_context=ctx,
            initializer=_init_worker, initargs=(board,))
        self._executor = executor
        if self.on_pool_change is not None:
            self.on_pool_change(self.jobs)
        if board is not None:
            self._watchdog = Watchdog(
                board,
                # Only pids this executor owns are killable; a stale
                # board entry whose OS pid was recycled is never signalled.
                live_pids=lambda: list((executor._processes or {}).keys()),
                hang_timeout_s=self.hang_timeout_s,
                memory_limit_mb=self.memory_limit_mb,
                stats=self.watchdog_stats,
                poll_s=self.watchdog_poll_s,
                warn=_warn,
            )
            self._watchdog.start()

    def discard(self, clean: bool = False) -> None:
        """Stop the current workers, if any; the next use starts anew.

        ``clean`` means every submitted shard finished, so the workers
        are idle and exit on request.  Otherwise the pool is broken or
        still busy with a campaign that was abandoned: its workers are
        killed, then reaped, so none outlives the call.
        """
        executor, self._executor = self._executor, None
        if executor is None:
            return
        if self._watchdog is not None:
            self._watchdog.stop()
            self._watchdog = None
        if not clean:
            for process in list((executor._processes or {}).values()):
                try:
                    process.kill()
                except (OSError, ValueError):
                    pass
        executor.shutdown(wait=True, cancel_futures=True)
        if self.on_pool_change is not None:
            self.on_pool_change(-self.jobs)


class _ShardSupervisor:
    """Runs shards to completion across pool failures and interrupts.

    Owns the retry bookkeeping: ``pending`` shards keyed by their first
    trial index, a per-shard failure count, and the journal/progress
    side effects applied exactly once per completed shard.  Without a
    ``pool`` every shard runs in-process, on the campaign's one warm
    runner.
    """

    def __init__(self, shards: Sequence[ShardSpec],
                 pool: Optional[CampaignPool], max_retries: int,
                 retry_backoff_s: float,
                 journal: Optional[TrialJournal],
                 on_progress: Callable[[ShardResult], None],
                 accumulator: CampaignAccumulator,
                 worker_config: ShardSpec):
        self.pending: Dict[int, ShardSpec] = {
            s.indices[0]: s for s in shards}
        self.failures: Dict[int, int] = {key: 0 for key in self.pending}
        self.pool = pool
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.journal = journal
        self.on_progress = on_progress
        #: Set to end a backoff wait early (graceful drain); interrupt
        #: signals need no help — the deadline wait sleeps in short
        #: slices precisely so KeyboardInterrupt lands promptly.
        self._stop = threading.Event()
        #: Streaming fold target: shard records are folded the moment a
        #: shard completes and never retained — the parent's memory is
        #: bounded by the accumulator, not by the campaign size.
        self.accumulator = accumulator
        #: Indices-free shard config each worker builds its runner from,
        #: once per campaign; the token tells a worker which campaign a
        #: shard belongs to.
        self.worker_config = worker_config
        self.token = pool.next_token() if pool is not None else None
        #: The campaign's runner for shards run in this process.
        self.warm = _WarmRunner()
        #: ``(first trial index, wall seconds)`` per completed shard.
        self.shard_walls: List[Tuple[int, float]] = []
        self.interrupted = False

    def run(self) -> None:
        try:
            if self.pool is not None:
                self._run_pooled()
            self._run_in_process()
        except KeyboardInterrupt:
            self.interrupted = True

    # -- supervision rounds --------------------------------------------------

    def _complete(self, key: int, outcome: ShardResult) -> None:
        del self.pending[key]
        self.shard_walls.append((outcome.start, outcome.wall_s))
        if self.journal is not None:
            self.journal.append(outcome.records)
        for record in outcome.records:
            self.accumulator.add(record)
        self.on_progress(outcome)

    def _runnable(self) -> Dict[int, ShardSpec]:
        return {key: spec for key, spec in self.pending.items()
                if self.failures[key] <= self.max_retries}

    def _backoff_delay(self, round_index: int) -> float:
        """Exponential backoff for retry round ``round_index`` (>= 1),
        capped at :data:`RETRY_BACKOFF_CAP_S`."""
        return min(self.retry_backoff_s * 2 ** (round_index - 1),
                   RETRY_BACKOFF_CAP_S)

    def _backoff_wait(self, delay_s: float) -> None:
        """Deadline-based wait: never a single long ``time.sleep``.

        Sleeps in short slices against a monotonic deadline, so an
        operator signal (KeyboardInterrupt) or :attr:`_stop` (a drain
        request) interrupts the backoff within ~50 ms instead of pinning
        the supervisor for the full delay.
        """
        deadline = time.monotonic() + delay_s
        while not self._stop.is_set():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            self._stop.wait(min(remaining, 0.05))

    def _run_pooled(self) -> None:
        """Submit shards to the pool, rebuilding it after crashes."""
        round_index = 0
        while True:
            runnable = self._runnable()
            if not runnable:
                return
            if round_index > 0 and self.retry_backoff_s > 0:
                self._backoff_wait(self._backoff_delay(round_index))
            lost = self._run_pool_round(runnable)
            if not lost:
                return
            round_index += 1
            for key in lost:
                self.failures[key] += 1
            abandoned = [k for k in lost
                         if self.failures[k] > self.max_retries]
            if abandoned:
                _warn(
                    f"{len(abandoned)} shard(s) failed "
                    f"{self.max_retries + 1}x in workers; degrading to "
                    f"in-process execution"
                )

    def _run_pool_round(self, runnable: Dict[int, ShardSpec]) -> List[int]:
        """Submit ``runnable`` once; returns the shard keys that were lost.

        A round that does not run to the end (broken pool, interrupt,
        error) discards the pool's workers: they are dead or still busy
        with this campaign's shards.
        """
        executor = self.pool.executor()
        finished = False
        try:
            futures = {executor.submit(_run_worker_shard, self.token,
                                       self.worker_config, spec.indices): key
                       for key, spec in runnable.items()}
            lost: List[int] = []
            for future in as_completed(futures):
                key = futures[future]
                try:
                    outcome = future.result()
                except (BrokenProcessPool, OSError) as exc:
                    # A worker died; every unfinished shard of this pool
                    # is lost (the pool is unusable).  Which worker held
                    # which shard is unknowable, so all are retried.
                    lost = [k for k in futures.values()
                            if k in self.pending]
                    _warn(f"worker pool broke ({type(exc).__name__}); "
                          f"retrying {len(lost)} shard(s)")
                    break
                except Exception as exc:
                    # The shard itself raised (infrastructure fault, e.g.
                    # unpicklable result); the pool survives.
                    lost.append(key)
                    _warn(f"shard at trial {key} failed: {exc!r}")
                else:
                    self._complete(key, outcome)
            else:
                finished = True
            return lost
        finally:
            if not finished:
                self.pool.discard()

    def _run_in_process(self) -> None:
        """Run whatever is left in the parent process, in trial order,
        with the cyclic collector paused as it is in pool workers."""
        # The collector switch is process-wide: a daemon running several
        # in-process campaigns on threads may see it re-enabled early by
        # another campaign, but whoever found it on turns it back on.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for key in sorted(self.pending):
                self._complete(key, _run_shard_warm(
                    self.token, self.worker_config,
                    self.pending[key].indices, self.warm))
        finally:
            if gc_was_enabled:
                gc.enable()


def run_campaign_parallel(
        program_factory: ProgramFactory,
        scheduler_factory: SchedulerFactory,
        trials: int = 100,
        base_seed: int = 0,
        max_steps: int = 20000,
        jobs: int = 1,
        scheduler_name: Optional[str] = None,
        count_operations: Optional[Callable[[RunResult], int]] = None,
        progress: Optional[Callable[[CampaignProgress], None]] = None,
        chunks_per_job: int = 4,
        trial_timeout_s: Optional[float] = None,
        checkpoint: Optional[str] = None,
        resume: bool = False,
        max_retries: int = 2,
        retry_backoff_s: float = 0.1,
        start_method: Optional[str] = None,
        sanitize: str = "off",
        artifact_dir: Optional[str] = None,
        spin_threshold: int = 8,
        record_mode: str = "on_failure",
        model: str = "c11",
        hang_timeout_s: Optional[float] = None,
        memory_limit_mb: Optional[float] = None,
        watchdog_stats: Optional[WatchdogStats] = None,
        watchdog_poll_s: Optional[float] = None,
        on_pool_change: Optional[Callable[[int], None]] = None,
        pool: Optional[CampaignPool] = None,
) -> CampaignResult:
    """Run ``trials`` independent randomized tests and aggregate.

    The one campaign entry point, serial or sharded over ``jobs`` worker
    processes.  Aggregate counts and the per-trial ``run_times_s``
    ordering do not depend on ``jobs``, chunking, worker crashes, pool
    reuse, or checkpoint/resume (individual timings naturally vary;
    wall-clock ``trial_timeout_s`` budgets are inherently
    timing-dependent).  With ``jobs <= 1`` — or fewer trials than
    workers, where pool startup would dominate — the shards run
    in-process, through the same supervisor, so callers can thread a
    jobs parameter through unconditionally.  Nothing is pickled then, so
    closure factories work too.  ``scheduler_name`` overrides the
    scheduler's display name.

    ``pool`` — a :class:`CampaignPool` of ``jobs`` workers that serves
    this campaign and outlives it; sweeps pass one pool to every
    campaign they run.  Without one, a pooled campaign opens a private
    pool and stops it before returning.  The pool-level options below
    (``start_method``, ``hang_timeout_s``, ``memory_limit_mb``,
    ``watchdog_stats``, ``watchdog_poll_s``, ``on_pool_change``) then
    belong to the pool: passing any of them together with ``pool`` is a
    ``ValueError``.

    Fault tolerance:

    * ``trial_timeout_s`` — per-trial wall-clock budget, enforced inside
      the worker's step loop; over-budget trials are recorded as
      ``timeouts``, not hangs.
    * ``max_retries`` — how many times a shard lost to a dead worker is
      retried (with exponential backoff starting at ``retry_backoff_s``)
      before it degrades to in-process execution.
    * ``checkpoint``/``resume`` — durable JSONL trial journal; see
      :mod:`repro.harness.checkpoint`.  On SIGINT *or SIGTERM* the
      journal is flushed, an ``interrupt`` event appended, and the
      partial aggregates returned with ``interrupted=True``.
    * ``hang_timeout_s`` — supervisor-side preemptive hang budget: warm
      workers stamp a shared heartbeat per trial boundary, and a
      watchdog thread hard-kills any worker whose *busy* heartbeat goes
      stale for longer than this, feeding the lost shard back into the
      retry path.  Must exceed ``trial_timeout_s`` (the cooperative
      budget should fire first for trials it *can* see).
    * ``memory_limit_mb`` — soft per-worker RSS ceiling; workers above
      it are recycled through the same kill/rebuild/retry path.  Both
      levers are seed-deterministic: retried trials are bit-identical.
    * ``watchdog_stats`` — a :class:`WatchdogStats` to observe scans and
      kills live (e.g. a daemon's liveness endpoint); the campaign also
      reports its own kill deltas on ``result.hang_preemptions`` /
      ``result.rss_recycles``.
    * ``on_pool_change`` — observer of live pool-worker deltas: called
      ``+n`` when a pool of ``n`` workers comes up and ``-n`` when it is
      torn down, letting a daemon meter concurrent campaigns against a
      global worker budget.
    * ``start_method`` — multiprocessing start method ("fork", "spawn",
      "forkserver"); defaults to ``$REPRO_START_METHOD`` or fork.
    * ``sanitize`` — audit trial graphs against the consistency axioms
      ("off" | "sampled" | "all"); sampling is by trial index, so the
      sanitized set is jobs-independent.
    * ``artifact_dir`` — failing trials write replayable bug artifacts
      here from inside the worker, so they survive worker death; only
      the paths cross the process boundary.
    * ``model`` — memory-model backend for every trial ("c11" | "tso");
      recorded in the checkpoint journal, so resuming a campaign under a
      different model is rejected as a config mismatch.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if resume and checkpoint is None:
        raise ValueError("resume=True requires a checkpoint path")
    names = resolve_campaign_names(program_factory, scheduler_factory,
                                   base_seed, scheduler_name, model)
    pool_options = dict(
        start_method=start_method, hang_timeout_s=hang_timeout_s,
        memory_limit_mb=memory_limit_mb, watchdog_stats=watchdog_stats,
        watchdog_poll_s=watchdog_poll_s, on_pool_change=on_pool_change)
    if pool is not None:
        given = [name for name, value in pool_options.items()
                 if value is not None]
        if given:
            raise ValueError(
                f"pool-level options go to CampaignPool, not together "
                f"with pool=: {', '.join(given)}")
        if jobs != pool.jobs:
            raise ValueError(
                f"jobs={jobs} does not match the pool's {pool.jobs} workers")
        hang_timeout_s = pool.hang_timeout_s
    else:
        _check_watchdog_limits(hang_timeout_s, memory_limit_mb)
    if (hang_timeout_s is not None and trial_timeout_s is not None
            and hang_timeout_s <= trial_timeout_s):
        raise ValueError(
            "hang_timeout_s must exceed trial_timeout_s: the cooperative "
            "per-trial budget should fire before the preemptive one")
    with _sigterm_as_interrupt() as term_seen:
        return _run_campaign_parallel(
            program_factory, scheduler_factory, trials, base_seed,
            max_steps, jobs, names, count_operations, progress,
            chunks_per_job, trial_timeout_s, checkpoint, resume,
            max_retries, retry_backoff_s, sanitize, artifact_dir,
            spin_threshold, record_mode, model, pool, pool_options,
            term_seen)


def _run_campaign_parallel(
        program_factory, scheduler_factory, trials, base_seed, max_steps,
        jobs, names, count_operations, progress, chunks_per_job,
        trial_timeout_s, checkpoint, resume, max_retries, retry_backoff_s,
        sanitize, artifact_dir, spin_threshold, record_mode, model, pool,
        pool_options, term_seen) -> CampaignResult:
    """Campaign body; runs with SIGTERM mapped onto KeyboardInterrupt."""
    program_name, sched_name = names
    in_process = jobs <= 1 or trials < jobs
    if in_process:
        jobs = 1
    result = CampaignResult(
        program=program_name,
        scheduler=sched_name,
        trials=trials,
        jobs=jobs,
    )

    journal: Optional[TrialJournal] = None
    done: Dict[int, TrialRecord] = {}
    if checkpoint is not None:
        journal = TrialJournal(checkpoint)
        done = journal.start(
            {"program": program_name, "scheduler": sched_name,
             "base_seed": base_seed, "trials": trials,
             "max_steps": max_steps, "sanitize": sanitize,
             "model": model},
            resume=resume,
        )
        done = {i: r for i, r in done.items() if i < trials}
    result.resumed_trials = len(done)

    # A range while nothing was resumed: shards then hold O(1) indices.
    remaining = (range(trials) if not done
                 else tuple(i for i in range(trials) if i not in done))
    worker_config = ShardSpec(
        program_factory, scheduler_factory, base_seed, (), max_steps,
        count_operations, trial_timeout_s, sanitize, artifact_dir,
        spin_threshold, record_mode, model)
    shards = [
        replace(worker_config, indices=remaining[start:stop])
        for start, stop in shard_bounds(len(remaining), jobs,
                                        chunks_per_job)
        if stop > start
    ]

    start_time = time.perf_counter()
    completed_trials = len(done)
    wall_times: List[float] = []

    def on_progress(outcome: ShardResult) -> None:
        nonlocal completed_trials
        completed_trials += len(outcome.records)
        wall_times.append(outcome.wall_s)
        if progress is not None:
            progress(CampaignProgress(
                completed_trials, trials,
                time.perf_counter() - start_time,
                list(wall_times),
                resumed_trials=len(done),
            ))

    # Streaming, order-independent fold: resumed records seed the
    # accumulator, fresh shard records fold in as each shard completes
    # (inside the supervisor), and finalize() materializes aggregates
    # identical to a serial in-order campaign.
    accumulator = CampaignAccumulator()
    for record in done.values():
        accumulator.add(record)

    if in_process or not shards:
        pool_context = nullcontext(None)
    elif pool is None:
        pool_context = CampaignPool(min(jobs, len(shards)), **pool_options)
    else:
        pool_context = nullcontext(pool)
    with pool_context as active:
        # The stats object may be shared across campaigns (a sweep's
        # pool, or one fleet-wide instance a daemon exposes); this
        # campaign's own preemption counts are the deltas across its run.
        stats = (active.watchdog_stats if active is not None
                 else WatchdogStats())
        hang_kills_before = stats.hang_kills
        rss_kills_before = stats.rss_kills
        supervisor = _ShardSupervisor(
            shards, active, max_retries, retry_backoff_s, journal,
            on_progress, accumulator, worker_config)
        try:
            if shards:
                supervisor.run()
            elif progress is not None:
                progress(CampaignProgress(
                    trials, trials, time.perf_counter() - start_time,
                    resumed_trials=len(done)))
        finally:
            if journal is not None:
                if supervisor.interrupted:
                    journal.append_event(
                        "interrupt",
                        signal=term_seen.get("signal", "SIGINT"),
                        completed=accumulator.completed)
                journal.close()

    result.shard_times_s = [
        wall for _, wall in sorted(supervisor.shard_walls)]
    result.interrupted = supervisor.interrupted
    result.hang_preemptions = stats.hang_kills - hang_kills_before
    result.rss_recycles = stats.rss_kills - rss_kills_before
    result.elapsed_s = time.perf_counter() - start_time
    accumulator.finalize(result)
    return result
