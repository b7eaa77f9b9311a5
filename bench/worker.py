"""Run one benchmark workload in this process and print its result as JSON.

run.py starts this script in a fresh interpreter for every measurement:

    python3 bench/worker.py --workload W --seed N --seconds S --mode M

Modes: ``setup`` stops when set-up is done; ``measure`` times whole rounds
(CLI workloads) or single pairs (sweep) until S seconds have passed;
``trace`` runs a fixed amount of work untraced and then the same amount
traced, so its work counters repeat exactly for a given seed.
"""

import argparse
import bisect
import gc
import json
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = REPO / ".bench_out"
MIN_JOBS = 20  # the tail percentile needs 10 jobs beyond it
# The tail class of each CLI round has 3 to 5 copies; from three rounds on,
# the tail job lies inside it whatever the number of rounds.
MIN_ROUNDS = 3
TRACE_SWEEP_PAIRS = 1500

# Host speed. On a shared machine the speed of a core drifts: the same
# pure-Python loop runs up to 1.6 times slower in some windows of seconds
# than in others, and every job's wall time moves with it. So while jobs are
# timed, a fixed probe loop runs between jobs (at most every PROBE_EVERY_S
# seconds), and each job's time is rescaled to the host speed at which the
# probe takes PROBE_REF_S (its fast-state time on the 2-core machine the
# benchmark was defined on), by the median of the probes within
# PROBE_WINDOW_S of the job. Raw wall times are reported next to the
# rescaled ones.
PROBE_REF_S = 0.0012
PROBE_EVERY_S = 0.05
PROBE_WINDOW_S = 0.15


def probe():
    """Fixed pure-Python work, independent of imcoalg; returns its seconds.

    It builds and drops small tuples, frozensets and a dict, as the library
    does, with the garbage collector paused so that its time stays fixed.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    seen = {}
    for i in range(2000):
        key = (i, i * 7 % 13, i & 255)
        seen[key] = frozenset((i & 15, i % 7))
    del seen
    seconds = time.perf_counter() - start
    if enabled:
        gc.enable()
    return seconds


class HostSpeed:
    """Probes of the host's speed, taken between jobs."""

    def __init__(self):
        self.samples = []  # (midpoint, seconds), perf_counter clock

    def sample(self):
        """Probe unless the last probe is less than PROBE_EVERY_S old."""
        now = time.perf_counter()
        if not self.samples or now - self.samples[-1][0] > PROBE_EVERY_S:
            seconds = probe()
            self.samples.append((now + seconds / 2, seconds))

    def rescaled(self, spans, times):
        """Job times rescaled to the reference host speed."""
        at = [t for t, _ in self.samples]
        out = []
        for (start, end), seconds in zip(spans, times):
            lo = bisect.bisect_left(at, start - PROBE_WINDOW_S)
            hi = bisect.bisect_right(at, end + PROBE_WINDOW_S)
            if lo == hi:  # no probe in the window: take its neighbours
                lo, hi = max(lo - 1, 0), lo + 1
            near = [p for _, p in self.samples[lo:hi]]
            out.append(seconds * PROBE_REF_S / statistics.median(near))
        return out


def tail_percentile(times):
    """(p, value): the highest whole percentile with >= 10 jobs above it.

    A tail is at or above the median, so fewer than 20 jobs have none.
    """
    ordered = sorted(times)
    n = len(ordered)
    for p in range(99, 49, -1):
        rank = -(-p * n // 100)  # nearest rank, ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None, None


class Run:
    """State of one workload run: inputs, results and failures."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.workdir = workdir
        self.times = []  # seconds per timed job
        self.spans = []  # (start, end) of each timed job, perf_counter
        self.host = None  # HostSpeed probes, taken while jobs are timed
        self.attempted = 0  # jobs checked, warm-up included
        self.failures = []
        self.tracer = None
        self.rounds = 0
        self.next_job = 0
        if workload == "sweep":
            self.frames = workloads.sweep_frames()
        else:
            self.digests = workloads.load_digests()[workload]

    def warm_up(self):
        if self.workload == "sweep":
            for _ in range(workloads.SWEEP_WARMUP_PAIRS):
                self._sweep_one(record=False)
        else:
            for job in workloads.warmup_jobs(self.workload, self.rng):
                self._cli_one(job, record=False)

    def batch(self):
        """Run one round (CLI workloads) or one pair (sweep)."""
        if self.workload == "sweep":
            self._sweep_one()
            return
        jobs = workloads.cli_round(self.workload, self.rng, self.next_job)
        self.next_job += len(jobs)
        for job in jobs:
            self._cli_one(job)
        self.rounds += 1

    def _timing(self, record):
        if record and self.host is not None:
            self.host.sample()
        return time.perf_counter()

    def _record(self, start, seconds):
        self.times.append(seconds)
        self.spans.append((start, time.perf_counter()))
        if self.host is not None:
            self.host.sample()

    def _cli_one(self, job, record=True):
        if self.tracer is not None:
            self.tracer.job = job.name
        start = self._timing(record)
        seconds, rc, out, err = workloads.run_cli_job(job, self.workdir)
        if record:
            self._record(start, seconds)
        reason = workloads.check_cli_job(self.digests.get(job.shape), rc, out, err)
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{job.name} [{job.shape}]: {reason}")

    def _sweep_one(self, record=True):
        i = self.rng.randrange(len(self.frames))
        j = self.rng.randrange(len(self.frames))
        name = f"sweep#{len(self.times)} [frames {i}x{j}]"
        if self.tracer is not None:
            self.tracer.job = name
        start = self._timing(record)
        try:
            reason = workloads.sweep_job(self.frames[i], self.frames[j])
        except Exception as exc:  # a crash is a failed job, not a failed run
            reason = f"{type(exc).__name__}: {exc}"
        if record:
            self._record(start, time.perf_counter() - start)
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{name}: {reason}")


def _timed(run, until):
    """Run batches until until(elapsed) holds; return the elapsed seconds."""
    start = time.perf_counter()
    while True:
        run.batch()
        elapsed = time.perf_counter() - start
        if until(elapsed):
            return elapsed


def measure(run, seconds):
    min_rounds = 0 if run.workload == "sweep" else MIN_ROUNDS
    host = run.host = HostSpeed()
    elapsed = _timed(
        run, lambda e: e >= seconds and len(run.times) >= MIN_JOBS
        and run.rounds >= min_rounds
    )
    jobs = len(run.times)
    times = host.rescaled(run.spans, run.times)
    p, tail = tail_percentile(times)
    _, raw_tail = tail_percentile(run.times)
    return {
        "jobs": jobs,
        "rounds": run.rounds,
        "jobs_per_s": jobs / sum(times),
        "job_ms_p50": statistics.median(times) * 1000.0,
        "job_ms_tail": tail * 1000.0,
        "tail_percentile": p,
        "host_speed": PROBE_REF_S / statistics.median(s for _, s in host.samples),
        "raw": {
            "jobs_per_s": jobs / elapsed,
            "job_ms_p50": statistics.median(run.times) * 1000.0,
            "job_ms_tail": raw_tail * 1000.0,
        },
    }


def trace(run, tracer, spans_path):
    """One untraced and one traced pass over equal work.

    The host-speed probes run between jobs, outside every span.
    """
    def one_pass():
        before = len(run.times)
        run.host = HostSpeed()
        if run.workload == "sweep":
            _timed(run, lambda e: len(run.times) - before >= TRACE_SWEEP_PAIRS)
        else:
            _timed(run, lambda e: True)
        times = run.host.rescaled(run.spans[before:], run.times[before:])
        return len(times) / sum(times)

    untraced = one_pass()
    run.tracer = tracer
    with tracer.installed():
        traced = one_pass()
    tracer.write_spans(spans_path)
    metrics = tracer.metrics()
    metrics["trace.jobs_per_s_ratio"] = (traced / untraced, "ratio")
    return {"layers": metrics, "spans": str(spans_path.relative_to(REPO))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "trace"))
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{args.mode}-{time.monotonic_ns()}"
    workdir.mkdir()
    tracer = layers.Tracer() if args.mode == "trace" else None
    try:
        if tracer is not None:
            with tracer.installed():
                run = Run(args.workload, args.seed, workdir)
                run.tracer = tracer
                run.warm_up()
            run.tracer = None
        else:
            run = Run(args.workload, args.seed, workdir)
            run.warm_up()
        result = {"setup_end": time.monotonic()}
        # set-up is timed by run.py from outside; it rescales it with this
        result["setup_scale"] = PROBE_REF_S / statistics.median(
            probe() for _ in range(5))
        if args.mode == "measure":
            result.update(measure(run, args.seconds))
        elif args.mode == "trace":
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            result.update(trace(run, tracer, spans))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["attempted"] = run.attempted
    result["failures"] = run.failures
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
