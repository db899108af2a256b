"""The multiprocess trial-execution engine.

:func:`run_campaign` maps a campaign's trials over a pool of worker
processes with chunked dispatch, a per-trial wall-clock deadline, and
bounded retry of timed-out or crashed trials.  The pool is built
directly on :mod:`multiprocessing` rather than
``concurrent.futures.ProcessPoolExecutor`` for one reason: a hung
worker must be *killable*.  An executor cannot terminate a single stuck
worker without breaking the pool; here the parent owns each worker
process, knows (from ``start`` messages) exactly which trial it is
chewing on, and can terminate + respawn it while the campaign streams
on.  A campaign therefore never deadlocks: every trial ends in a
record, ``ok`` or not.

Determinism: records are keyed by trial index and sorted before
aggregation, trial seeds are pre-derived (:func:`~repro.campaign.spec
.derive_seed`), and wall-clock timing is kept outside the canonical
aggregate — so :meth:`CampaignResult.to_json` is byte-identical for
``jobs=1`` and ``jobs=8``.

``jobs=1`` runs trials in-process (no fork, no IPC) and is the honest
baseline the scaling benchmark compares against.  Workers inherit the
campaign's :class:`~repro.scenarios.options.RunOptions`, which keeps
observability off (enforced by :class:`~repro.campaign.spec
.CampaignSpec`): a worker ships back one compact summary record per
trial, never probe streams.
"""

from __future__ import annotations

import contextlib
import gc
import json
import multiprocessing
import multiprocessing.connection
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.campaign.scenarios import execute_trial
from repro.campaign.spec import CampaignSpec, TrialSpec, expand
from repro.sim import gcctl

__all__ = ["CampaignResult", "run_campaign"]

#: Percentiles reported by the summaries (nearest-rank, deterministic).
_PERCENTILES = (("p50", 0.50), ("p90", 0.90), ("p99", 0.99))


@contextlib.contextmanager
def _gc_batched(every: int = 4):
    """Suspend the cyclic GC around a trial loop.

    A trial allocates millions of short-lived tuples and segments; with
    the collector enabled, generation-2 passes land mid-trial and scan
    the entire testbed object graph.  Virtually all trial garbage dies
    by refcount alone, so the collector is paused and run explicitly
    every ``every`` trials (call the yielded hook once per trial).  The
    previous enabled-state is restored on exit, exceptions included.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    counter = 0

    def tick() -> None:
        nonlocal counter
        counter += 1
        if counter % every == 0:
            gcctl.collect_full()

    try:
        yield tick
    finally:
        if was_enabled:
            gc.enable()


# ------------------------------------------------------------- aggregation

def _percentile_summary(values: list) -> Optional[dict]:
    """min/p50/p90/p99/max/mean over the non-None values, or None."""
    values = sorted(v for v in values if v is not None)
    if not values:
        return None
    n = len(values)
    out = {"n": n, "min": values[0], "max": values[-1],
           "mean": round(sum(values) / n, 3)}
    for name, q in _PERCENTILES:
        out[name] = values[min(n - 1, int(round(q * (n - 1))))]
    return out


def _oracle_tally(records: list[dict]) -> dict:
    tally = {"off": 0, "clean": 0, "violated": 0}
    for record in records:
        verdict = record.get("oracle", "off") or "off"
        tally["violated" if verdict.startswith("violated")
              else verdict if verdict in tally else "off"] += 1
    return tally


@dataclass
class CampaignResult:
    """Per-trial records plus deterministic summaries.

    The canonical aggregate (:meth:`to_json`, :meth:`to_jsonl`) carries
    only virtual-time data and is byte-identical across worker counts;
    wall-clock facts live beside it (:attr:`jobs`, :attr:`wall_s`,
    :attr:`trials_per_sec`).
    """

    spec: CampaignSpec
    records: list[dict]
    jobs: int = 1
    wall_s: float = 0.0
    #: Pool-level retry/kill events (informational, non-canonical).
    dispatch_log: list[str] = field(default_factory=list)

    @property
    def ok(self) -> list[dict]:
        """Records whose trial ran to completion."""
        return [r for r in self.records if r["status"] == "ok"]

    @property
    def failed(self) -> list[dict]:
        """Records that crashed, timed out, or breached an invariant."""
        return [r for r in self.records if r["status"] != "ok"]

    @property
    def trials_per_sec(self) -> float:
        """Throughput of this run (wall clock; not part of the aggregate)."""
        return len(self.records) / self.wall_s if self.wall_s else 0.0

    def summary(self) -> dict:
        """Campaign-level scorecard: counts, percentiles, grid breakdown."""
        ok = self.ok
        out = {
            "trials": len(self.records),
            "ok": len(ok),
            "failed": len(self.records) - len(ok),
            "intact": sum(1 for r in ok if r.get("stream_intact")),
            "oracle": _oracle_tally(self.records),
            "failover_time_ns": _percentile_summary(
                [r.get("failover_time_ns") for r in ok]),
            "goodput_bytes_per_s": _percentile_summary(
                [r.get("goodput_bytes_per_s") for r in ok]),
            "by_point": self._by_point(),
        }
        return out

    def _by_point(self) -> list[dict]:
        """One summary row per grid point, in grid order."""
        names = list(self.spec.grid)
        if not names:
            return []
        groups: dict[tuple, list[dict]] = {}
        order: list[tuple] = []
        for record in self.records:
            key = tuple(record["params"].get(n) for n in names)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(record)
        rows = []
        for key in order:
            group = groups[key]
            ok = [r for r in group if r["status"] == "ok"]
            rows.append({
                "point": dict(zip(names, key)),
                "trials": len(group),
                "ok": len(ok),
                "intact": sum(1 for r in ok if r.get("stream_intact")),
                "failover_time_ns": _percentile_summary(
                    [r.get("failover_time_ns") for r in ok]),
                "goodput_bytes_per_s": _percentile_summary(
                    [r.get("goodput_bytes_per_s") for r in ok]),
            })
        return rows

    def to_dict(self) -> dict:
        """The canonical aggregate (deterministic across worker counts)."""
        return {"campaign": self.spec.describe(),
                "summary": self.summary(),
                "trials": self.records}

    def to_json(self) -> str:
        """Canonical JSON: byte-identical for the same spec regardless of
        ``jobs`` or scheduling order."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_jsonl(self) -> str:
        """One canonical JSON line per trial record, index order."""
        return "".join(json.dumps(r, sort_keys=True) + "\n"
                       for r in self.records)


# -------------------------------------------------------------- the engine

def _auto_chunksize(n_trials: int, jobs: int) -> int:
    """Amortize IPC without starving the pool's tail: aim for ~4 chunks
    per worker, capped so no chunk hoards work."""
    return max(1, min(8, n_trials // (jobs * 4) or 1))


def _affine_chunks(trials: list[TrialSpec],
                   chunksize: int) -> list[list[TrialSpec]]:
    """Chunk the (grid-point-major) trial list without ever straddling a
    parameter change, so a worker's warm testbed cache gets a hit for
    every trial after the first of each grid point.  Records are keyed
    by index, so assignment shape never affects the aggregate."""
    chunks: list[list[TrialSpec]] = []
    run: list[TrialSpec] = []
    for trial in trials:
        if run and (len(run) >= chunksize
                    or trial.params != run[-1].params):
            chunks.append(run)
            run = []
        run.append(trial)
    if run:
        chunks.append(run)
    return chunks


def _profiled(profile_dir: Optional[str], worker_id: int):
    """Context manager: cProfile the body and dump ``worker-<id>.pstats``
    into ``profile_dir`` (no-op when ``profile_dir`` is None).  Pool
    workers wrap their whole trial loop in this, so one stats file per
    worker process lands next to the sweep's other outputs; a worker
    killed mid-trial (timeout/crash) leaves no dump."""
    if profile_dir is None:
        return contextlib.nullcontext()

    @contextlib.contextmanager
    def _ctx():
        import cProfile
        import os
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            yield
        finally:
            profiler.disable()
            profiler.dump_stats(
                os.path.join(profile_dir, f"worker-{worker_id}.pstats"))
    return _ctx()


def _worker_main(worker_id: int, inbox, results,
                 warm_enabled: bool = True,
                 profile_dir: Optional[str] = None) -> None:
    """Worker loop: pull a chunk, announce and run each trial, stream the
    records back.  ``None`` is the shutdown sentinel.

    ``results`` is this worker's own pipe end and every ``send`` is
    synchronous, so a trial that kills its process can never do so
    while a background thread holds a lock another worker needs: with
    one shared ``multiprocessing.Queue`` a worker dying mid-flush left
    the queue's write lock taken and wedged every later worker."""
    from repro.campaign import warm as warm_mod

    warm_mod.set_enabled(warm_enabled)
    # The worker's import graph and pool plumbing live until the process
    # exits: freeze them out of every later collection.  (The in-process
    # jobs=1 path must NOT freeze — it runs inside a long-lived host
    # interpreter whose heap it does not own.)
    gcctl.freeze_baseline()
    with _profiled(profile_dir, worker_id), _gc_batched() as gc_tick:
        while True:
            chunk = inbox.get()
            if chunk is None:
                return
            for trial in chunk:
                results.send(("start", trial.index, None))
                record = execute_trial(trial)
                gc_tick()
                results.send(("done", trial.index, record))
            results.send(("idle", None, None))


class _Worker:
    """One pool slot: a process, its private inbox and result pipe, and
    what it holds."""

    def __init__(self, ctx, worker_id: int, warm_enabled: bool,
                 profile_dir: Optional[str] = None):
        self.id = worker_id
        self.inbox = ctx.Queue()
        self.results, sender = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=_worker_main,
            args=(worker_id, self.inbox, sender, warm_enabled, profile_dir),
            daemon=True, name=f"repro-campaign-{worker_id}")
        self.process.start()
        # Only the worker may hold the sending end, so its death reads
        # as end-of-file here.
        sender.close()
        #: Trials handed to this worker and not yet recorded.
        self.assigned: list[TrialSpec] = []
        #: Index of the trial the worker announced it is running.
        self.current: Optional[int] = None
        self.started_at: Optional[float] = None

    def give(self, chunk: list[TrialSpec]) -> None:
        self.assigned = list(chunk)
        self.current = None
        self.started_at = None
        self.inbox.put(chunk)

    def messages(self):
        """Every message already in the result pipe, oldest first."""
        try:
            while self.results.poll():
                yield self.results.recv()
        except (EOFError, OSError):
            return

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5.0)
        self.inbox.close()
        self.results.close()

    def shutdown(self) -> None:
        try:
            self.inbox.put(None)
        except (OSError, ValueError):  # pragma: no cover - closed queue
            pass


def _failed_record(trial: TrialSpec, error: str) -> dict:
    return {"index": trial.index, "scenario": trial.scenario,
            "seed": trial.seed, "params": dict(trial.params),
            "status": "failed", "error": error}


def _run_pool(trials: list[TrialSpec], jobs: int,
              timeout_s: Optional[float], retries: int,
              chunksize: Optional[int], mp_context: Optional[str],
              log: list[str],
              progress: Optional[Callable[[dict], None]],
              warm: bool = True,
              profile_dir: Optional[str] = None) -> list[dict]:
    """Dispatch trials over ``jobs`` worker processes; always returns one
    record per trial, killing and respawning hung or crashed workers."""
    method = mp_context or ("fork" if "fork" in
                            multiprocessing.get_all_start_methods()
                            else "spawn")
    ctx = multiprocessing.get_context(method)
    chunksize = chunksize or _auto_chunksize(len(trials), jobs)
    backlog = _affine_chunks(trials, chunksize)
    attempts: dict[int, int] = {t.index: 0 for t in trials}
    records: dict[int, dict] = {}
    by_index = {t.index: t for t in trials}
    workers: dict[int, _Worker] = {}
    next_worker_id = 0

    def spawn() -> _Worker:
        nonlocal next_worker_id
        worker = _Worker(ctx, next_worker_id, warm, profile_dir)
        workers[worker.id] = worker
        next_worker_id += 1
        return worker

    def pump() -> None:
        """Hand backlog chunks to every idle worker.  Called after any
        event that frees a worker or refills the backlog, so no chunk
        can strand while a worker sits idle (the no-deadlock property)."""
        for worker in workers.values():
            if not backlog:
                return
            if not worker.assigned:
                worker.give(backlog.pop(0))

    def record_done(index: int, record: dict) -> None:
        records[index] = record
        if progress is not None:
            progress(record)

    def fail_or_retry(worker: _Worker, reason: str) -> None:
        """The worker lost its current trial; retry it or record failure,
        requeue the untouched rest of its chunk, and replace the worker."""
        index = worker.current
        if index is None:
            # A worker can die before announcing a trial (killed from
            # outside between two trials, say).  Charge the attempt to
            # the trial it must have been holding — the first
            # unrecorded one of its chunk — or retries could never
            # exhaust and a crash-looping trial would respawn forever.
            index = next((t.index for t in worker.assigned
                          if t.index not in records), None)
        if index is not None and index not in records:
            attempts[index] += 1
            trial = by_index[index]
            if attempts[index] > retries:
                log.append(f"trial {index}: {reason}; giving up "
                           f"after {attempts[index]} attempt(s)")
                record_done(index, _failed_record(
                    trial, f"{reason} (attempt {attempts[index]}, "
                           f"retries exhausted)"))
            else:
                log.append(f"trial {index}: {reason}; retrying")
                backlog.insert(0, [trial])
        untouched = [t for t in worker.assigned
                     if t.index not in records and t.index != index]
        if untouched:
            backlog.insert(0, untouched)
        worker.kill()
        del workers[worker.id]
        spawn()
        pump()

    def handle(worker: _Worker, kind: str, index, payload) -> None:
        """Apply one message from ``worker``; the caller refills idle
        workers afterwards (never a dead one)."""
        if kind == "start":
            worker.current = index
            worker.started_at = time.monotonic()
        elif kind == "done":
            if index not in records:
                record_done(index, payload)
            worker.current = None
            worker.started_at = None
        elif kind == "idle":
            worker.assigned = []
            worker.current = None
            worker.started_at = None

    for _ in range(jobs):
        spawn()
    pump()

    try:
        while len(records) < len(trials):
            # The next deadline bounds how long we may sit in wait().
            poll = 0.2
            now = time.monotonic()
            if timeout_s is not None:
                for worker in workers.values():
                    if worker.started_at is not None:
                        poll = min(poll, max(
                            0.01, worker.started_at + timeout_s - now))
            ready = multiprocessing.connection.wait(
                [w.results for w in workers.values()], timeout=poll)
            for worker in list(workers.values()):
                if worker.results in ready:
                    for message in worker.messages():
                        handle(worker, *message)
            pump()

            # Deadline sweep: kill workers stuck past the per-trial budget.
            if timeout_s is not None:
                now = time.monotonic()
                for worker in list(workers.values()):
                    if (worker.started_at is not None
                            and now - worker.started_at > timeout_s):
                        fail_or_retry(
                            worker, f"timed out after {timeout_s:g}s")
            # Crash sweep: a worker that died mid-trial sends no message.
            for worker in list(workers.values()):
                if not worker.process.is_alive():
                    for message in worker.messages():
                        handle(worker, *message)
                    code = worker.process.exitcode
                    fail_or_retry(
                        worker, f"worker crashed (exit code {code})")
    finally:
        for worker in workers.values():
            worker.shutdown()
        for worker in workers.values():
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():  # pragma: no cover - stuck exit
                worker.process.terminate()
                worker.process.join(timeout=2.0)
            worker.results.close()

    return [records[t.index] for t in trials]


def run_campaign(spec: CampaignSpec, jobs: int = 1,
                 chunksize: Optional[int] = None,
                 mp_context: Optional[str] = None,
                 progress: Optional[Callable[[dict], None]] = None,
                 warm: bool = True,
                 profile_dir: Optional[str] = None) -> CampaignResult:
    """Run every trial of ``spec`` and aggregate the records.

    ``jobs=1`` executes in-process (serial, no fork); ``jobs>1`` fans
    trials out over that many worker processes with chunked dispatch
    and per-trial timeout/retry (see :class:`~repro.campaign.spec
    .CampaignSpec`).  ``progress`` (if given) is called with each
    record as it lands, in completion order.

    ``warm`` (default on) lets workers reuse a snapshot of each grid
    point's testbed across that point's trials instead of rebuilding it
    (see :mod:`repro.campaign.warm`); chunk assignment is grid-point-
    affine either way.  Records carry only virtual-time data, so the
    aggregate is identical warm or cold.

    ``profile_dir`` (the sweep CLI's ``--profile``) cProfiles every
    worker's trial loop and dumps ``worker-<id>.pstats`` files there —
    one per worker process (``worker-0`` for the in-process ``jobs=1``
    path).  Inspect with ``python -m pstats``.

    The aggregated result is byte-identical across ``jobs`` settings
    for the same spec — an explicit test and a CI leg hold this.
    """
    from repro.campaign import warm as warm_mod

    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    trials = expand(spec)
    log: list[str] = []
    start = time.perf_counter()
    if jobs == 1 or not trials:
        records = []
        prev_warm = warm_mod.is_enabled()
        warm_mod.set_enabled(warm)
        try:
            with _profiled(profile_dir, 0), _gc_batched() as gc_tick:
                for trial in trials:
                    record = execute_trial(trial)
                    gc_tick()
                    records.append(record)
                    if progress is not None:
                        progress(record)
        finally:
            warm_mod.set_enabled(prev_warm)
    else:
        records = _run_pool(trials, jobs, spec.timeout_s, spec.retries,
                            chunksize, mp_context, log, progress,
                            warm=warm, profile_dir=profile_dir)
    wall_s = time.perf_counter() - start
    records.sort(key=lambda r: r["index"])
    return CampaignResult(spec=spec, records=records, jobs=jobs,
                          wall_s=wall_s, dispatch_log=log)
