"""Every CLI report the benchmark runs stays byte-identical.

``bench/digests.json`` records, per job shape of the CLI workloads, the
exit code and the SHA-256 of the report with the per-job label token
blanked out. The benchmark's correctness gate compares against it on every
run; this test runs each shape once through the same ``bench/workloads.py``
code, so a report change fails here too.
"""

import pytest

from helpers import load_bench_module

workloads = load_bench_module("workloads")
DIGESTS = workloads.load_digests()
SHAPES = [
    (workload, shape)
    for workload in workloads.CLI_WORKLOADS
    for shape in workloads.all_shapes(workload)
]


@pytest.mark.parametrize(
    "workload, shape", SHAPES, ids=[f"{w}/{s}" for w, s in SHAPES]
)
def test_report_matches_recorded_digest(workload, shape, tmp_path):
    expected = DIGESTS[workload][shape]
    job = workloads.make_job(shape, shape, "00000000j0")
    _, rc, out, err = workloads.run_cli_job(job, tmp_path)
    assert rc == expected["exit"], err
    assert err == ""
    assert workloads.canonical_digest(out) == expected["sha256"]
