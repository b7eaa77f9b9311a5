"""Record the expected outcome of every CLI job shape in bench/digests.json.

Run from the repository root at a commit whose CLI reports are known good:

    python3 bench/record_digests.py

For each shape a round can contain, it runs the job once and stores its exit
code and the SHA-256 of its report with the per-job label token blanked out
(workloads.canonical_digest). CLI reports must stay byte-identical, so a
later commit that changes any report fails the benchmark's correctness gate.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main():
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads.CLI_WORKLOADS:
            digests[workload] = {}
            for shape in workloads.all_shapes(workload):
                job = workloads.make_job(shape, shape, "00000000j0")
                _, rc, out, err = workloads.run_cli_job(job, Path(tmp))
                if rc != 0 or err or any(
                    line.startswith("FAIL") for line in out.splitlines()
                ):
                    sys.exit(f"{shape}: exit {rc}, refusing to record: {err}")
                digests[workload][shape] = {
                    "exit": rc,
                    "sha256": workloads.canonical_digest(out),
                }
    with open(workloads.DIGESTS_PATH, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
