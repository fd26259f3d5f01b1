"""Test campaigns: repeated randomized runs with hit-rate accounting.

A *campaign* runs a program factory under a scheduler factory for N trials
(the paper uses 1000 trials for Tables 2-3 and 500 for Figure 6) and
reports the bug hitting rate plus timing, mirroring the artifact's metrics
(Bug Hitting Rate %, Average Running time, Throughput).

This module holds the per-trial parts: :class:`TrialRunner` runs one
trial, :class:`CampaignAccumulator` folds its :class:`TrialRecord` into a
:class:`CampaignResult`.  Campaigns themselves, serial or pooled, run
through :func:`repro.harness.parallel.run_campaign_parallel`.  Trial
``i`` is seeded by ``derive_trial_seed(base_seed, i)`` — a splitmix-style
derivation that makes trial streams independent across nearby base seeds
and identical however the trials are sharded.

Fast path
    Campaign trials share far more than they differ in: the same program,
    the same scheduler family, the same engine configuration.
    :class:`TrialRunner` exploits that — one warm scheduler instance
    reseeded per trial (registry specs only), one program object
    re-instantiated per run, one pooled :class:`ExecutionState` reset in
    place between trials — and records decision traces *on failure only*
    by deterministically re-executing the failing trial
    (``record_mode="on_failure"``).  Aggregation streams through
    :class:`CampaignAccumulator`, whose fold is order-independent and
    memory-bounded.  All of it is seed-for-seed identical to the
    one-object-web-per-trial slow path; the equivalence suite pins this.
"""

from __future__ import annotations

import heapq
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..core.c11tester import C11TesterScheduler
from ..core.naive import NaiveRandomScheduler
from ..core.pct import PCTScheduler
from ..core.pctwm import PCTWMScheduler
from ..memory.model import resolve_model
from ..runtime.executor import ExecutionState, Executor, RunResult
from ..runtime.program import Program
from ..runtime.scheduler import Scheduler
from .seeding import derive_trial_seed, sample_rank

ProgramFactory = Callable[[], Program]
SchedulerFactory = Callable[[int], Scheduler]

#: How many error summaries a campaign keeps verbatim; further errors are
#: still counted but not sampled (long campaigns must stay bounded).
ERROR_SAMPLE_LIMIT = 8

#: How many per-trial times ``CampaignResult.run_times_s`` retains.  Up
#: to this many trials the sample is the full population; beyond it, a
#: deterministic uniform reservoir (bottom-k by :func:`sample_rank`).
#: Exact mean/RSD always come from the aggregate sums, never the sample.
RUN_TIME_SAMPLE_LIMIT = 1024

#: ``--sanitize sampled`` checks every Nth trial (indices 0, N, 2N, ...),
#: bounding the sanitizer's overhead while still auditing the campaign.
SANITIZE_SAMPLE_STRIDE = 10

#: Valid values for the campaign ``sanitize`` knob.
SANITIZE_MODES = ("off", "sampled", "all")

#: Valid values for the campaign ``record_mode`` knob (meaningful only
#: with an artifact directory).  ``"on_failure"`` runs trials without the
#: recording wrapper and deterministically re-executes failing trials to
#: capture their traces; ``"always"`` records every trial as it runs.
RECORD_MODES = ("on_failure", "always")

#: With the cyclic collector disabled during a campaign loop, collect
#: manually every this many trials to bound floating garbage.
GC_COLLECT_STRIDE = 512

#: Smallest meaningful per-trial wall-clock budget.  The executor
#: enforces ``trial_timeout_s`` cooperatively, checking the clock once
#: per scheduler step; budgets below one step quantum cannot distinguish
#: a slow trial from any trial at all and just time everything out, so
#: the CLI rejects them (the API keeps accepting any value — tests use
#: 0.0 to force deterministic immediate timeouts).
TRIAL_TIMEOUT_MIN_S = 0.001


def sanitize_this_trial(sanitize: str, index: int) -> bool:
    """Whether trial ``index`` runs under the consistency sanitizer.

    Sampling is by trial *index*, not by a counter, so serial and sharded
    parallel campaigns sanitize exactly the same trials.
    """
    if sanitize == "all":
        return True
    if sanitize == "sampled":
        return index % SANITIZE_SAMPLE_STRIDE == 0
    return False


@dataclass
class CampaignResult:
    """Aggregate outcome of N randomized test runs."""

    program: str
    scheduler: str
    trials: int
    hits: int = 0
    inconclusive: int = 0
    total_steps: int = 0
    total_events: int = 0
    elapsed_s: float = 0.0
    #: Bounded deterministic sample of per-run elapsed times, in trial
    #: order — the full population while ``completed`` stays within
    #: :data:`RUN_TIME_SAMPLE_LIMIT`, a uniform reservoir beyond it.
    #: Exact aggregate statistics live in ``time_sum_s``/``time_sq_sum_s``
    #: (see :attr:`avg_run_time_s` / :attr:`run_time_rsd_pct`).
    run_times_s: List[float] = field(default_factory=list)
    #: Exact sum of per-trial elapsed times over *all* completed trials.
    time_sum_s: float = 0.0
    #: Exact sum of squared per-trial elapsed times (for the RSD).
    time_sq_sum_s: float = 0.0
    #: Per-run application-defined operation counts (Silo throughput).
    operations: int = 0
    #: Worker processes used (1 = serial execution).
    jobs: int = 1
    #: Wall time of each shard run by this call, in shard (= trial)
    #: order; empty when every trial was resumed from a checkpoint.
    shard_times_s: List[float] = field(default_factory=list)
    #: Trials whose workload/scheduler raised an unexpected exception.
    #: These are contained faults, not bugs: the campaign keeps going.
    errors: int = 0
    #: Trials that exhausted their per-trial wall-clock budget.
    timeouts: int = 0
    #: Up to :data:`ERROR_SAMPLE_LIMIT` verbatim error summaries, in
    #: trial order, for post-mortem triage.
    error_samples: List[str] = field(default_factory=list)
    #: Trials actually folded into the aggregate.  Equals ``trials``
    #: unless the campaign was interrupted (SIGINT) before finishing.
    completed: int = 0
    #: True when the campaign stopped early on operator interrupt; the
    #: aggregates then cover only ``completed`` trials.
    interrupted: bool = False
    #: Trials restored from a checkpoint journal rather than re-run.
    resumed_trials: int = 0
    #: Trials whose execution graph violated the C11 consistency axioms
    #: (only counted when the sanitizer ran on that trial).  A nonzero
    #: count means the *engine* is broken — the run's verdicts are suspect.
    inconsistent: int = 0
    #: Up to :data:`ERROR_SAMPLE_LIMIT` verbatim axiom-violation
    #: summaries, in trial order.
    violation_samples: List[str] = field(default_factory=list)
    #: Paths of bug artifacts written during the campaign, trial order.
    artifacts: List[str] = field(default_factory=list)
    #: Workers the supervisor watchdog hard-killed for stale heartbeats
    #: (a wedged trial preempted from outside the process).  Infra
    #: metrics, not trial outcomes: the lost shards were retried, so the
    #: deterministic aggregates above are unaffected.
    hang_preemptions: int = 0
    #: Workers the watchdog recycled for exceeding the RSS ceiling.
    rss_recycles: int = 0

    @property
    def hit_rate(self) -> float:
        """Bug hitting rate in percent (the paper's headline metric)."""
        return 100.0 * self.hits / self.trials if self.trials else 0.0

    @property
    def faults(self) -> int:
        """Contained faults: errored plus timed-out trials."""
        return self.errors + self.timeouts

    @property
    def avg_time_ms(self) -> float:
        return 1000.0 * self.elapsed_s / self.trials if self.trials else 0.0

    @property
    def avg_run_time_s(self) -> float:
        """Exact mean per-trial time, independent of the bounded sample."""
        return self.time_sum_s / self.completed if self.completed else 0.0

    @property
    def run_time_rsd_pct(self) -> float:
        """Relative standard deviation of per-trial times, in percent.

        Computed from the exact aggregate sums (population std / mean),
        so it covers every completed trial even when ``run_times_s`` is
        a bounded sample.
        """
        n = self.completed
        if n < 2:
            return 0.0
        mean = self.time_sum_s / n
        if mean <= 0.0:
            return 0.0
        variance = self.time_sq_sum_s / n - mean * mean
        if variance <= 0.0:
            return 0.0
        return 100.0 * math.sqrt(variance) / mean

    @property
    def ops_per_second(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return self.operations / self.elapsed_s

    def __str__(self) -> str:  # pragma: no cover - reporting aid
        text = (
            f"{self.program} / {self.scheduler}: "
            f"{self.hit_rate:.1f}% over {self.trials} runs "
            f"({self.avg_time_ms:.2f} ms/run)"
        )
        if self.errors or self.timeouts:
            text += f" [{self.errors} errors, {self.timeouts} timeouts]"
        if self.interrupted:
            text += f" [interrupted at {self.completed}/{self.trials}]"
        return text


@dataclass
class TrialRecord:
    """Outcome of a single campaign trial, in aggregation-ready form.

    This is what worker processes ship back to the parent: small, picklable,
    and ordered by ``index`` so shard merges are deterministic.
    """

    index: int
    bug_found: bool
    limit_exceeded: bool
    steps: int
    k: int
    elapsed_s: float
    operations: int = 0
    #: True when the trial exhausted its wall-clock budget.
    timed_out: bool = False
    #: ``"ExcType: message @ file:line"`` when the trial raised instead of
    #: completing; ``None`` for a clean run.  Errored trials report zero
    #: steps/events and never count as bugs.
    error: Optional[str] = None
    #: True when the sanitizer found the trial's graph axiom-inconsistent.
    inconsistent: bool = False
    #: The axiom violations behind ``inconsistent`` (strings, bounded).
    violations: List[str] = field(default_factory=list)
    #: Path of the bug artifact written for this trial, if any.
    artifact: Optional[str] = None


class CampaignAccumulator:
    """Order-independent, memory-bounded streaming fold of trial records.

    Counters and time sums are plain commutative additions; the bounded
    collections are deterministic functions of the record *set*:

    * ``run_times_s`` keeps the :data:`RUN_TIME_SAMPLE_LIMIT` trials with
      the smallest :func:`sample_rank` (a uniform reservoir);
    * error and violation samples keep the :data:`ERROR_SAMPLE_LIMIT`
      lowest-indexed offenders — exactly "the first N in trial order",
      however the records actually arrived.

    Folding the same records in any order therefore finalizes into the
    identical :class:`CampaignResult`, which is what keeps serial,
    sharded-parallel, retried, and checkpoint-resumed campaigns
    bit-identical while shard results stream in as they finish.
    """

    def __init__(self) -> None:
        self.completed = 0
        self.hits = 0
        self.inconclusive = 0
        self.total_steps = 0
        self.total_events = 0
        self.operations = 0
        self.errors = 0
        self.timeouts = 0
        self.inconsistent = 0
        self.time_sum_s = 0.0
        self.time_sq_sum_s = 0.0
        #: Min-heap of ``(-rank, index, elapsed)``: the root is the
        #: largest-rank member, i.e. the one a better candidate evicts.
        self._times: list = []
        #: Min-heap of ``(-index, summary)``: root = highest index.
        self._error_samples: list = []
        #: Min-heap of ``(-index, violation tuple)`` per offending trial.
        self._violation_samples: list = []
        #: ``(index, path)`` pairs; sorted once at finalize.
        self._artifacts: list = []

    def add(self, record: TrialRecord) -> None:
        """Fold one trial record (any order, idempotent per index)."""
        self.completed += 1
        elapsed = record.elapsed_s
        self.time_sum_s += elapsed
        self.time_sq_sum_s += elapsed * elapsed
        entry = (-sample_rank(record.index), record.index, elapsed)
        if len(self._times) < RUN_TIME_SAMPLE_LIMIT:
            heapq.heappush(self._times, entry)
        elif entry > self._times[0]:
            heapq.heapreplace(self._times, entry)
        if record.artifact:
            self._artifacts.append((record.index, record.artifact))
        if record.error is not None:
            self.errors += 1
            sample = (-record.index, f"trial {record.index}: {record.error}")
            if len(self._error_samples) < ERROR_SAMPLE_LIMIT:
                heapq.heappush(self._error_samples, sample)
            elif sample > self._error_samples[0]:
                heapq.heapreplace(self._error_samples, sample)
            return
        if record.inconsistent:
            self.inconsistent += 1
            if record.violations:
                sample = (-record.index, tuple(record.violations))
                if len(self._violation_samples) < ERROR_SAMPLE_LIMIT:
                    heapq.heappush(self._violation_samples, sample)
                elif sample > self._violation_samples[0]:
                    heapq.heapreplace(self._violation_samples, sample)
        if record.bug_found:
            self.hits += 1
        if record.limit_exceeded:
            self.inconclusive += 1
        if record.timed_out:
            self.timeouts += 1
        self.total_steps += record.steps
        self.total_events += record.k
        self.operations += record.operations

    def finalize(self, result: CampaignResult) -> None:
        """Materialize the aggregate into ``result`` (idempotent)."""
        result.completed = self.completed
        result.hits = self.hits
        result.inconclusive = self.inconclusive
        result.total_steps = self.total_steps
        result.total_events = self.total_events
        result.operations = self.operations
        result.errors = self.errors
        result.timeouts = self.timeouts
        result.inconsistent = self.inconsistent
        result.time_sum_s = self.time_sum_s
        result.time_sq_sum_s = self.time_sq_sum_s
        result.run_times_s = [
            elapsed for _, _, elapsed
            in sorted(self._times, key=lambda entry: entry[1])
        ]
        result.error_samples = [
            text for _, text
            in sorted(self._error_samples, key=lambda entry: -entry[0])
        ]
        violations: List[str] = []
        for neg_index, texts in sorted(self._violation_samples,
                                       key=lambda entry: -entry[0]):
            for text in texts:
                if len(violations) >= ERROR_SAMPLE_LIMIT:
                    break
                violations.append(f"trial {-neg_index}: {text}")
        result.violation_samples = violations
        result.artifacts = [path for _, path in sorted(self._artifacts)]


def summarize_exception(exc: BaseException) -> str:
    """One-line fault summary: exception type, message, innermost frame."""
    site = ""
    tb = exc.__traceback__
    while tb is not None and tb.tb_next is not None:
        tb = tb.tb_next
    if tb is not None:
        filename = os.path.basename(tb.tb_frame.f_code.co_filename)
        site = f" @ {filename}:{tb.tb_lineno}"
    message = str(exc)
    if len(message) > 200:
        message = message[:197] + "..."
    return f"{type(exc).__name__}: {message}{site}"


class TrialRunner:
    """Executes campaign trials with warm, reusable per-worker state.

    One runner serves many trials of the same campaign and keeps the
    expensive invariants alive between them:

    * **Scheduler**: when the factory declares ``supports_reuse`` (true
      of registry :class:`~repro.core.factory.SchedulerSpec`), one
      instance is constructed and :meth:`~repro.runtime.scheduler
      .Scheduler.reseed`-ed per trial; otherwise a fresh instance per
      trial, exactly as before.
    * **Program**: factories declaring ``supports_reuse`` (registry
      :class:`~repro.workloads.registry.ProgramSpec`) build the program
      once; ``instantiate()`` re-primes fresh generator threads per run.
    * **Execution state**: the graph and trackers are pooled and reset
      in place between runs instead of reallocated (safe because
      campaigns never keep run graphs).
    * **Recording**: with ``record_mode="on_failure"`` (default) trials
      run without the recording wrapper; a failing trial is re-executed
      deterministically with recording enabled, so the artifact is
      identical to what ``"always"`` would have captured — without
      taxing the overwhelmingly common clean trial.

    Every reuse lever is seed-for-seed neutral: a warm runner's records
    match those of a fresh runner per trial field for field (timings
    aside).
    """

    def __init__(self, program_factory: ProgramFactory,
                 scheduler_factory: SchedulerFactory,
                 base_seed: int, max_steps: int = 20000,
                 count_operations: Optional[
                     Callable[[RunResult], int]] = None,
                 trial_timeout_s: Optional[float] = None,
                 sanitize: str = "off",
                 artifact_dir: Optional[str] = None,
                 spin_threshold: int = 8,
                 record_mode: str = "on_failure",
                 model: str = "c11"):
        if sanitize not in SANITIZE_MODES:
            raise ValueError(
                f"sanitize must be one of {SANITIZE_MODES}, got {sanitize!r}")
        if record_mode not in RECORD_MODES:
            raise ValueError(
                f"record_mode must be one of {RECORD_MODES}, "
                f"got {record_mode!r}")
        self.model = model
        self._model = resolve_model(model)
        self.program_factory = program_factory
        self.scheduler_factory = scheduler_factory
        self.base_seed = base_seed
        self.max_steps = max_steps
        self.count_operations = count_operations
        self.trial_timeout_s = trial_timeout_s
        self.sanitize = sanitize
        self.artifact_dir = artifact_dir
        self.spin_threshold = spin_threshold
        self.record_mode = record_mode
        self._reuse_scheduler = bool(
            getattr(scheduler_factory, "supports_reuse", False))
        self._reuse_program = bool(
            getattr(program_factory, "supports_reuse", False))
        self._scheduler: Optional[Scheduler] = None
        self._program: Optional[Program] = None
        self._state: Optional[ExecutionState] = None
        self._executor: Optional[Executor] = None

    # -- warm components -----------------------------------------------------

    def _checkout_scheduler(self, trial_seed: int) -> Scheduler:
        if not self._reuse_scheduler:
            return self.scheduler_factory(trial_seed)
        if self._scheduler is None:
            self._scheduler = self.scheduler_factory(trial_seed)
        else:
            self._scheduler.reseed(trial_seed)
        return self._scheduler

    def _checkout_program(self) -> Program:
        if not self._reuse_program:
            return self.program_factory()
        if self._program is None:
            self._program = self.program_factory()
        return self._program

    def _execute(self, program: Program, scheduler: Scheduler,
                 sanitize_run: bool) -> RunResult:
        executor = self._executor
        if executor is None or executor.program is not program:
            executor = self._executor = self._model.make_executor(
                program, scheduler, max_steps=self.max_steps,
                spin_threshold=self.spin_threshold, keep_graph=False,
                wall_timeout_s=self.trial_timeout_s, sanitize=sanitize_run,
            )
        else:
            executor.scheduler = scheduler
            executor.sanitize = sanitize_run
        state = self._state
        if state is None or state.program is not program:
            state = self._state = self._model.make_state(
                program, self.spin_threshold, fast=True)
        else:
            state.reset(program)
        return executor.run(state)

    # -- one trial -----------------------------------------------------------

    def run(self, index: int) -> TrialRecord:
        """Run campaign trial ``index`` — the unit every shard runs, so
        serial and pooled campaigns execute bit-identical work.

        Faults are *contained*: any exception escaping the workload, the
        scheduler, or the engine (``ReproError``,
        ``ProgramDefinitionError``, arbitrary workload crashes) becomes a
        record with ``error`` set instead of aborting the campaign.
        ``KeyboardInterrupt`` and ``SystemExit`` still propagate —
        interrupting a campaign is an operator action, not a trial fault.

        With ``sanitize`` on (``"all"``, or ``"sampled"`` for every
        :data:`SANITIZE_SAMPLE_STRIDE`-th trial) the run additionally
        audits its execution graph against the consistency axioms;
        violations mark the record ``inconsistent``.  With
        ``artifact_dir`` set, any bug/error/timeout/inconsistent outcome
        is serialized as a replayable JSON artifact there (written here,
        in the worker, so it survives the process boundary); see
        :data:`RECORD_MODES` for when the decision trace is captured.
        """
        trial_seed = derive_trial_seed(self.base_seed, index)
        sanitize_run = sanitize_this_trial(self.sanitize, index)
        recorder = None
        run: Optional[RunResult] = None
        error: Optional[str] = None
        operations = 0
        t0 = time.perf_counter()
        try:
            scheduler = self._checkout_scheduler(trial_seed)
            if self.artifact_dir is not None \
                    and self.record_mode == "always":
                from ..replay.recording import RecordingScheduler

                scheduler = recorder = RecordingScheduler(scheduler)
            run = self._execute(self._checkout_program(), scheduler,
                                sanitize_run)
            operations = self.count_operations(run) \
                if self.count_operations else 0
        except Exception as exc:
            error = summarize_exception(exc)
            run = None
        elapsed = time.perf_counter() - t0
        if error is not None:
            record = TrialRecord(
                index=index,
                bug_found=False,
                limit_exceeded=False,
                steps=0,
                k=0,
                elapsed_s=elapsed,
                error=error,
            )
        else:
            record = TrialRecord(
                index=index,
                bug_found=run.bug_found,
                limit_exceeded=run.limit_exceeded,
                steps=run.steps,
                k=run.k,
                elapsed_s=elapsed,
                operations=operations,
                timed_out=run.timed_out,
                inconsistent=run.inconsistent,
                violations=list(run.violations),
            )
        if self.artifact_dir is not None:
            record.artifact = self._emit_artifact(
                index, trial_seed, sanitize_run, recorder, run, error)
        return record

    # -- record-on-failure ---------------------------------------------------

    def _emit_artifact(self, index: int, trial_seed: int,
                       sanitize_run: bool, recorder,
                       run: Optional[RunResult],
                       error: Optional[str]) -> Optional[str]:
        """Write the trial's replayable artifact, if its outcome merits one.

        Best-effort and outside the timed region: a full disk or an
        unwritable directory must not fail the trial.
        """
        from .artifact import classify_outcome

        if classify_outcome(run, error) is None:
            return None
        try:
            if recorder is None:
                recorder = self._record_failure(trial_seed, sanitize_run, run)
                if recorder is None:
                    return None
            return _write_artifact(
                self.artifact_dir, self.program_factory,
                self.scheduler_factory, recorder, run, error,
                base_seed=self.base_seed, index=index,
                trial_seed=trial_seed, max_steps=self.max_steps,
                spin_threshold=self.spin_threshold, model=self.model,
            )
        except Exception as exc:  # pragma: no cover - defensive
            print(f"warning: trial {index}: could not write artifact: "
                  f"{summarize_exception(exc)}", file=sys.stderr)
            return None

    def _record_failure(self, trial_seed: int, sanitize_run: bool,
                        first_run: Optional[RunResult]):
        """Deterministically re-execute a failing trial with recording on.

        Fresh scheduler and program instances (never the warm ones)
        replay the identical decision sequence — schedulers are
        seed-deterministic and recording consumes no randomness — so the
        captured trace is byte-identical to what ``record_mode="always"``
        would have produced on the first execution.  All artifact
        *metadata* still comes from the first run; only the decision
        trace comes from this re-run.

        A timed-out first run re-executes with its observed step count as
        the step budget and no wall clock, reproducing the same decision
        prefix without racing the clock again.  A first run that raised
        raises again at the same decision; the trace up to the raise is
        kept.  Returns ``None`` when the scheduler factory itself fails
        (then no trace can exist, matching always-record behaviour).
        """
        from ..replay.recording import RecordingScheduler

        try:
            recorder = RecordingScheduler(self.scheduler_factory(trial_seed))
        except Exception:
            return None
        max_steps = self.max_steps
        if first_run is not None and first_run.timed_out:
            max_steps = first_run.steps
        try:
            self._model.run_once(
                self.program_factory(), recorder, max_steps=max_steps,
                keep_graph=False, wall_timeout_s=None,
                spin_threshold=self.spin_threshold,
                sanitize=sanitize_run)
        except Exception:
            pass  # the first run's error reproduces at the same point
        return recorder


def _write_artifact(artifact_dir: str, program_factory: ProgramFactory,
                    scheduler_factory: SchedulerFactory,
                    recorder, run: Optional[RunResult],
                    error: Optional[str], *, base_seed: int, index: int,
                    trial_seed: int, max_steps: int,
                    spin_threshold: int, model: str = "c11") -> Optional[str]:
    """Serialize a failed trial as a replayable artifact; None if clean."""
    from .artifact import (BugArtifact, artifact_path, classify_outcome,
                           program_spec_dict, scheduler_spec_dict)

    outcome = classify_outcome(run, error)
    if outcome is None:
        return None
    trace = recorder.trace
    trace.seed = trial_seed
    trace.spin_threshold = spin_threshold
    artifact = BugArtifact(
        outcome=outcome,
        program=trace.program or getattr(program_factory, "name", ""),
        scheduler=recorder.inner.name,
        trial_index=index,
        trial_seed=trial_seed,
        base_seed=base_seed,
        max_steps=max_steps,
        spin_threshold=spin_threshold,
        model=model,
        trace=trace,
        steps=run.steps if run is not None else 0,
        bug_kind=run.bug_kind if run is not None else None,
        bug_message=run.bug_message if run is not None else None,
        error=error,
        violations=list(run.violations) if run is not None else [],
        diagnostics=run.diagnostics if run is not None else None,
        program_spec=program_spec_dict(program_factory),
        scheduler_spec=scheduler_spec_dict(scheduler_factory),
    )
    os.makedirs(artifact_dir, exist_ok=True)
    return artifact.save(artifact_path(artifact_dir, index))


def resolve_campaign_names(program_factory: ProgramFactory,
                           scheduler_factory: SchedulerFactory,
                           base_seed: int,
                           scheduler_name: Optional[str],
                           model: str = "c11") -> tuple:
    """The (program, scheduler) display names for a campaign result.

    Also refuses, before any program is built or trial runs, a scheduler
    ``model`` does not support.  Specs name their scheduler statically; a
    closure factory is probed at most once, and only when its name is
    needed (no ``scheduler_name`` given, or a model with an allowlist).
    A probe that *raises* is contained (the campaign must survive a
    crashing workload to report it as errors), falling back to the
    factory's own name and leaving the allowlist to the trials.
    """
    backend = resolve_model(model)
    name = getattr(scheduler_factory, "scheduler_name", None)
    if name is None and (scheduler_name is None
                         or backend.scheduler_allowlist is not None):
        try:
            name = scheduler_factory(derive_trial_seed(base_seed, 0)).name
        except Exception:
            pass
    if name is not None and backend.scheduler_allowlist is not None:
        backend.require_scheduler(name)
    if scheduler_name is None:
        scheduler_name = name or getattr(scheduler_factory, "__name__",
                                         "<scheduler>")
    try:
        program_name = program_factory().name
    except Exception:
        program_name = getattr(program_factory, "name", None) \
            or getattr(program_factory, "__name__", "<program>")
    return program_name, scheduler_name

# -- convenience scheduler factories ------------------------------------------


def pctwm_factory(depth: int, k_com: int,
                  history: int = 1) -> SchedulerFactory:
    return lambda seed: PCTWMScheduler(depth, k_com, history, seed=seed)


def pct_factory(depth: int, k_events: int) -> SchedulerFactory:
    return lambda seed: PCTScheduler(depth, k_events, seed=seed)


def c11tester_factory() -> SchedulerFactory:
    return lambda seed: C11TesterScheduler(seed=seed)


def naive_factory() -> SchedulerFactory:
    return lambda seed: NaiveRandomScheduler(seed=seed)
