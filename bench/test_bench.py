"""Tests of the benchmark itself (not collected by the package's test suite).

    python3 -m pytest -q bench/test_bench.py

They run the benchmark in fresh processes, so they take a few minutes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(REPO / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

HELD_OUT_SEED = 9  # never used while the workloads were sized


def bench(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True, text=True, timeout=600,
    )
    return proc, json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_work_counters_repeat_across_traced_runs(workload):
    results = [bench("--workload", workload, "--seed", "3", "--trace", "1")[1]
               for _ in range(2)]
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
        for r in results
    ]
    assert counts[0] == counts[1]
    assert all(r["correct"] for r in results)
    assert any(counts[0].values())


@pytest.mark.parametrize("seed", [run.DEFAULT_SEED, HELD_OUT_SEED])
def test_default_and_held_out_seed_pass_the_gate(seed):
    proc, result = bench("--seed", str(seed), "--seconds", "1")
    assert proc.returncode == 0, proc.stdout
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 4 * worker.MIN_JOBS


def test_gate_catches_a_corrupted_report(tmp_path):
    expected = workloads.load_digests()["bisim"]["bisim-10x11"]
    job = workloads.make_job("bisim-10x11", "t", "0badf00dj7")
    _, rc, out, err = workloads.run_cli_job(job, tmp_path)
    assert workloads.check_cli_job(expected, rc, out, err) is None

    flipped = out.replace("~", "=", 1)
    assert "digest" in workloads.check_cli_job(expected, rc, flipped, err)
    failing = out.replace("PASS", "FAIL", 1)
    assert "check failed" in workloads.check_cli_job(expected, rc, failing, err)
    assert "exit code" in workloads.check_cli_job(expected, 1, out, err)
    assert "exit code" in workloads.check_cli_job(expected, None, out, "boom")
    assert "stderr" in workloads.check_cli_job(expected, rc, out, "warning")


def test_digest_ignores_only_the_job_token():
    a = "l_0123abcdj5_3 ~ r_0123abcdj5_3"
    b = "l_ffffffffj123_3 ~ r_ffffffffj123_3"
    assert workloads.canonical_digest(a) == workloads.canonical_digest(b)
    c = "l_ffffffffj123_4 ~ r_ffffffffj123_3"
    assert workloads.canonical_digest(a) != workloads.canonical_digest(c)


def test_every_round_shape_has_a_recorded_outcome():
    digests = workloads.load_digests()
    for workload in workloads.CLI_WORKLOADS:
        assert set(workloads.all_shapes(workload)) == set(digests[workload])


def test_poset_classes_are_the_enumerated_posets():
    from imcoalg.enumeration import all_posets

    posets = all_posets(5)
    for members in workloads.POSET_CLASSES.values():
        for name, up in members.items():
            assert posets[int(name[1:])].up == up


def test_tail_percentile_keeps_ten_jobs_beyond():
    assert worker.tail_percentile(list(range(20))) == (50, 9)
    assert worker.tail_percentile(list(range(108)))[0] == 90
    assert worker.tail_percentile(list(range(19))) == (None, None)


def test_benchmark_json_names_the_printed_metrics():
    with open(REPO / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    sample = {"jobs_per_s": 1, "job_ms_p50": 1, "job_ms_tail": 1,
              "setup_s": 1, "peak_rss_mb": 1}
    assert e2e == {k: u for k, (_, u) in run.end_to_end(sample).items()}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    printed = {k: u for k, (_, u) in layers.Tracer().metrics().items()}
    printed["trace.jobs_per_s_ratio"] = "ratio"
    assert per_layer == printed
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS


def test_tracer_restores_every_binding():
    import imcoalg
    from imcoalg import bisim, cli, complexes, heyting

    before = (cli.largest_bisimulation, heyting.upset_masks,
              complexes.TowerMap.__dict__["from_map"], imcoalg.up_functor)
    tracer = layers.Tracer()
    with tracer.installed():
        assert cli.largest_bisimulation is bisim.largest_bisimulation
        assert cli.largest_bisimulation is not before[0]
        assert imcoalg.up_functor is not before[3]
    after = (cli.largest_bisimulation, heyting.upset_masks,
             complexes.TowerMap.__dict__["from_map"], imcoalg.up_functor)
    assert after == before


def test_recursive_calls_open_no_span():
    from imcoalg import logic
    from imcoalg.frames import ModalFrame
    from imcoalg.poset import make_poset

    p = make_poset(["a", "b"], [("a", "b")])
    model = logic.Model(ModalFrame.from_pairs(p, [("a", "b")]), {"p": 2})
    phi = logic.parse("[](p -> p) & (p | ~p)")
    tracer = layers.Tracer()
    with tracer.installed():
        logic.truth_mask(model, phi)
    metrics = tracer.metrics()
    assert metrics["logic.truth_mask.calls"][0] == 1
    assert metrics["logic.parse.calls"][0] == 0
    assert tracer.spans[0][5] == 1
