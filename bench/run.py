"""Benchmark of imcoalg: seeded workloads, end-to-end and per layer.

    python3 bench/run.py [--workload stages|bisim|distinguish|sweep|all]
                         [--seed N] [--seconds S] [--trace 0|1]

Run it from any directory; it works on the checkout it lives in and builds
nothing (the package is imported from src/). Each workload runs in fresh
interpreters started one after another, a closed loop with one client:
several set-up-only processes, then one measuring process under a wall
budget, so a runaway input fails the run instead of hanging it.

With --trace 0 it prints, per workload, jobs_per_s, job_ms_p50, job_ms_tail
(the highest whole percentile with at least 10 jobs beyond it), setup_s,
peak_rss_mb and fail_ratio. Times are rescaled to a reference host speed
measured by a probe loop (see worker.py); raw wall times are printed too. With --trace 1 it runs a fixed amount of work
untraced and then traced, and prints calls and self time per traced
function and module, the work counters, and the tracing overhead as traced
over untraced jobs_per_s. The last line of output is one JSON object with
the keys correct, attempted, failed and metrics. Every job is checked (see
workloads.py); a mismatch is named, counted in fail_ratio and makes the run
incorrect, and the exit code is then 1.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
WORKLOADS = ("stages", "bisim", "distinguish", "sweep")
DEFAULT_SEED = 1
SETUP_SAMPLES = 5
WALL_BUDGET_S = 170.0  # per workload, all of its processes together


class RunFailed(Exception):
    pass


def spawn(workload, seed, seconds, mode, deadline):
    """Run worker.py in a fresh interpreter; return its result with setup_s."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True,
                              timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{workload}: {mode} process exceeded the wall budget "
                        f"of {WALL_BUDGET_S:.0f} s and was killed") from None
    if proc.returncode != 0:
        raise RunFailed(f"{workload}: {mode} process exited with "
                        f"{proc.returncode}:\n{proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    # interpreter start, import, input generation and warm-up, rescaled to
    # the reference host speed as the job times are (see worker.py)
    result["setup_s"] = (result["setup_end"] - start) * result["setup_scale"]
    return result


def run_workload(workload, seed, seconds, traced):
    deadline = time.monotonic() + WALL_BUDGET_S
    if traced:
        return spawn(workload, seed, seconds, "trace", deadline)
    setups = [spawn(workload, seed, seconds, "setup", deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    result = spawn(workload, seed, seconds, "measure", deadline)
    setups.append(result["setup_s"])
    result["setup_s"] = statistics.median(setups)
    return result


def end_to_end(result):
    return {
        "jobs_per_s": (result["jobs_per_s"], "1/s"),
        "job_ms_p50": (result["job_ms_p50"], "ms"),
        "job_ms_tail": (result["job_ms_tail"], "ms"),
        "setup_s": (result["setup_s"], "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def report(workload, seed, result, traced):
    """Print the human-readable lines; return the metrics for the JSON."""
    failed = len(result["failures"])
    attempted = result["attempted"]
    print(f"[{workload}] seed {seed}")
    if traced:
        metrics = result["layers"]
        calls = {k[:-6]: v for k, (v, _) in metrics.items() if k.endswith(".calls")}
        print(f"  {'function':<40} {'calls':>9} {'self_s':>10}")
        for name in sorted(calls, key=lambda n: -metrics[n + ".self_s"][0]):
            if calls[name]:
                print(f"  {name:<40} {calls[name]:>9} "
                      f"{metrics[name + '.self_s'][0]:>10.4f}")
        for name, (value, unit) in metrics.items():
            if not name.endswith((".calls", ".self_s")) or name.count(".") == 1:
                print(f"  {name:<48} {value:g} {unit}")
        print(f"  spans written to {result['spans']}")
    else:
        metrics = end_to_end(result)
        print(f"  {result['jobs']} timed jobs"
              + (f" in {result['rounds']} rounds" if result["rounds"] else ""))
        notes = {
            "job_ms_tail": f"p{result['tail_percentile']} of {result['jobs']} jobs",
            "setup_s": f"median of {SETUP_SAMPLES} set-ups",
        }
        for name, (value, unit) in metrics.items():
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"  {name:<12} {value:.6g} {unit}{note}")
        raw = result["raw"]
        print(f"  host speed {result['host_speed']:.3f} of reference; raw wall "
              f"times: jobs_per_s {raw['jobs_per_s']:.6g} 1/s, job_ms_p50 "
              f"{raw['job_ms_p50']:.6g} ms, job_ms_tail {raw['job_ms_tail']:.6g} ms")
    print(f"  {'fail_ratio':<12} {failed / attempted:g}  ({failed} of {attempted} jobs)")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="imcoalg benchmark (see the module docstring)")
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (REPO / "src" / "imcoalg" / "__init__.py").is_file():
        print(f"error: no imcoalg sources under {REPO / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for workload in names:
        try:
            result = run_workload(workload, args.seed, args.seconds, args.trace)
        except RunFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        got = report(workload, args.seed, result, args.trace)
        prefix = "" if len(names) == 1 else workload + "."
        for name, (value, unit) in got.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
        attempted += result["attempted"]
        failed += len(result["failures"])
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
