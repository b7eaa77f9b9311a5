"""Seeded inputs, job execution and the correctness gate of the benchmark.

A job is one in-process ``imcoalg.cli.main(argv)`` call on frame files
written for it (workloads ``stages``, ``bisim`` and ``distinguish``) or one
ordered frame pair checked through library calls (workload ``sweep``).

The CLI workloads run in rounds. Every round holds the same multiset of
job shapes; the seed decides the order of the jobs in a round, the labels
of every frame file and, for ``stages``, which poset of a size class a slot
gets (the median and tail classes take each of their members equally
often). So two seeds give different inputs with the same cost profile, and
runs on different seeds are comparable. Each job carries labels of its own,
so the ``up_functor`` memo never carries a labelled poset from one job to
the next. The shapes sit in size classes chosen so that the median job and
the tail job each fall inside a class of equal-cost shapes.
"""

import contextlib
import hashlib
import io
import itertools
import json
import re
import time
from dataclasses import dataclass
from pathlib import Path

from imcoalg import bisim, cli, enumeration, errors, frames

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS_PATH = BENCH_DIR / "digests.json"

WORKLOADS = ("stages", "bisim", "distinguish", "sweep")
CLI_WORKLOADS = ("stages", "bisim", "distinguish")

# Five-element posets (up-set rows, as enumeration.all_posets(5) lists them;
# the name is the index in that list) whose depth-2 complex over Up(P) fits
# the default caps, grouped into classes of near-equal stage-2 size.
# Depth-2 job cost grows with the square of the stage-2 size (the order-row
# loop in build_p_g), so a class is a set of interchangeable shapes.
POSET_CLASSES = {
    # stage 2: 111-125 elements, ~5 ms
    "T": {"p61": (29, 30, 28, 24, 16), "p60": (31, 26, 28, 24, 16),
          "p57": (31, 30, 20, 24, 16), "p46": (31, 30, 28, 8, 16)},
    # stage 2: 219-237 elements, ~11 ms
    "S": {"p56": (29, 30, 20, 24, 16), "p45": (29, 30, 28, 8, 16),
          "p55": (31, 22, 20, 24, 16), "p44": (31, 26, 28, 8, 16)},
    # stage 2: 433-449 elements, ~35 ms; the median job of the workload
    "M": {"p40": (29, 30, 12, 8, 16), "p32": (31, 14, 12, 8, 16),
          "p39": (31, 26, 12, 8, 16)},
    # stage 2: 737-769 elements, ~80 ms
    "U": {"p37": (27, 26, 12, 8, 16), "p31": (29, 14, 12, 8, 16),
          "p38": (29, 26, 12, 8, 16)},
    # stage 2: 1353-1429 elements, ~250 ms
    "V": {"p30": (25, 14, 12, 8, 16), "p49": (23, 18, 20, 24, 16),
          "p34": (27, 18, 12, 8, 16)},
    # stage 2: 2693-2767 elements, ~1 s; the tail job of the workload
    "L": {"p22": (15, 10, 12, 8, 16), "p25": (27, 10, 12, 8, 16),
          "p14": (15, 14, 4, 8, 16)},
}

# Small posets for `complex --depth 3`: stage 3 has 29, 718 and 2856 elements.
DEPTH3_POSETS = {
    "chain2": (3, 2),
    "antichain2": (1, 2),
    "chain3": (7, 6, 4),
}

FREEALG_ARGS = {
    "g2-i2": ("--generators", "2", "--inner-depth", "2"),
    "g1-s2": ("--generators", "1", "--stages", "2"),
}

# One round per workload: (slot, copies). A slot names one shape, or a poset
# class from which each copy draws a member.
ROUNDS = {
    "stages": (
        ("freealg-g2-i2", 1), ("freealg-g1-s2", 1),
        ("complex3-chain2", 1), ("complex3-antichain2", 1),
        ("complex3-chain3", 1),
        ("complex2:T", 1), ("complex2:S", 2), ("complex2:M", 6),
        ("complex2:U", 1), ("complex2:V", 1), ("complex2:L", 3),
    ),
    # chain n vs chain m, R[x] = up(x+1): median class 13x14, tail class
    # 15x15, with one larger job above it so that the tail job sits inside
    # the class rather than at its edge
    "bisim": (
        ("bisim-10x11", 1), ("bisim-11x12", 1), ("bisim-12x12", 1),
        ("bisim-12x13", 1), ("bisim-13x14", 4), ("bisim-15x15", 4),
        ("bisim-16x17", 1),
    ),
    # chain n vs chain n+1, letter p true at the top: median class 6x7,
    # tail class 7x8
    "distinguish": (
        ("distinguish-5x6", 4), ("distinguish-6x7", 4),
        ("distinguish-7x8", 5),
    ),
}

# Cheap shapes run once before timing starts, so that lazy imports and
# first-call costs fall into set-up.
WARMUP = {
    "stages": ("freealg-g1-s2", "complex2:T"),
    "bisim": ("bisim-10x11",),
    "distinguish": ("distinguish-5x6",),
}

SWEEP_MAX_ELEMENTS = 3
SWEEP_WARMUP_PAIRS = 300

# Labels look like "x_<8 hex digits>j<job>_<i>"; the token is unique per job.
_TOKEN = re.compile(r"_[0-9a-f]{8}j[0-9]+_")


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``argv`` names the files in ``files`` by index."""

    name: str  # unique within a run, for failure reports
    shape: str  # key into the recorded digests
    argv: tuple
    files: tuple  # frame-file texts


# -- frame files ---------------------------------------------------------------


def _covers(up):
    n = len(up)
    out = []
    for i in range(n):
        for j in range(n):
            if i == j or not (up[i] >> j) & 1:
                continue
            if not any(
                k not in (i, j) and (up[i] >> k) & 1 and (up[k] >> j) & 1
                for k in range(n)
            ):
                out.append((i, j))
    return out


def poset_text(up, prefix):
    labels = [f"{prefix}{i}" for i in range(len(up))]
    lines = ["[elements]", " ".join(labels), "[order]"]
    lines += [f"{labels[i]} < {labels[j]}" for i, j in _covers(up)]
    return "\n".join(lines) + "\n"


def chain_text(n, prefix, letter_at_top):
    """Chain 0 < ... < n-1 with R[x] = up(x+1); the top has no successor."""
    labels = [f"{prefix}{i}" for i in range(n)]
    lines = ["[elements]", " ".join(labels), "[order]"]
    lines += [f"{labels[i]} < {labels[i + 1]}" for i in range(n - 1)]
    lines.append("[modal]")
    lines += [
        f"{labels[x]} R {labels[y]}" for x in range(n) for y in range(x + 1, n)
    ]
    if letter_at_top:
        lines += ["[val]", f"p : {labels[n - 1]}"]
    return "\n".join(lines) + "\n"


def make_job(shape, name, token):
    """The job for a concrete shape; ``token`` makes its labels unique."""
    kind, _, arg = shape.partition("-")
    if kind == "freealg":
        return Job(name, shape, ("freealg",) + FREEALG_ARGS[arg], ())
    if kind == "complex3":
        text = poset_text(DEPTH3_POSETS[arg], f"x_{token}_")
        return Job(name, shape, ("complex", "{0}", "--depth", "3"), (text,))
    if kind == "complex2":
        up = next(c[arg] for c in POSET_CLASSES.values() if arg in c)
        text = poset_text(up, f"x_{token}_")
        return Job(name, shape, ("complex", "{0}", "--depth", "2"), (text,))
    if kind in ("bisim", "distinguish"):
        n, m = (int(v) for v in arg.split("x"))
        val = kind == "distinguish"
        files = (chain_text(n, f"l_{token}_", val), chain_text(m, f"r_{token}_", val))
        extra = ("--distinguish", "3") if val else ()
        return Job(name, shape, ("bisim", "{0}", "{1}", "--depth", "2") + extra, files)
    raise ValueError(f"unknown shape {shape!r}")


def _concrete(slots, rng):
    """Shapes for slots; the copies of a class take its members in a seeded
    order, each once before any twice, so a class's mix is the same in
    every round whenever its copies are a multiple of its members."""
    picks = {}
    out = []
    for slot in slots:
        if slot.startswith("complex2:"):
            cls = slot[9:]
            if cls not in picks:
                members = sorted(POSET_CLASSES[cls])
                picks[cls] = itertools.cycle(rng.sample(members, len(members)))
            slot = "complex2-" + next(picks[cls])
        out.append(slot)
    return out


def _token(rng, job):
    return f"{rng.getrandbits(32):08x}j{job}"


def cli_round(workload, rng, first_job):
    """The jobs of one round, in seeded order, numbered from first_job."""
    slots = [s for s, copies in ROUNDS[workload] for _ in range(copies)]
    rng.shuffle(slots)
    return [
        make_job(shape, f"{workload}#{first_job + i}", _token(rng, first_job + i))
        for i, shape in enumerate(_concrete(slots, rng))
    ]


def warmup_jobs(workload, rng):
    return [
        make_job(shape, f"warmup#{i}", _token(rng, i))
        for i, shape in enumerate(_concrete(WARMUP[workload], rng))
    ]


def all_shapes(workload):
    """Every concrete shape a round of the workload can contain."""
    out = []
    for slot, _ in ROUNDS[workload]:
        if slot.startswith("complex2:"):
            out += ["complex2-" + name for name in sorted(POSET_CLASSES[slot[9:]])]
        else:
            out.append(slot)
    return out


# -- running and checking CLI jobs ---------------------------------------------


def run_cli_job(job, workdir):
    """Write the job's files, run it, return (seconds, rc, stdout, stderr).

    Only the cli.main call is timed. An exception escaping cli.main is
    returned as rc None with the exception text in stderr.
    """
    paths = []
    for k, text in enumerate(job.files):
        path = workdir / f"f{k}.frame"
        path.write_text(text)
        paths.append(str(path))
    argv = [a.format(*paths) for a in job.argv]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # a crash is a failed job, not a failed run
        rc = None
        err.write(f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - start, rc, out.getvalue(), err.getvalue()


def canonical_digest(report):
    """SHA-256 of a report with the per-job label token blanked out."""
    return hashlib.sha256(_TOKEN.sub("_*_", report).encode()).hexdigest()


def load_digests():
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


def check_cli_job(expected, rc, out, err):
    """None if the job matches its recorded outcome, else the reason."""
    if expected is None:
        return "no recorded outcome for this shape"
    if rc != expected["exit"]:
        return f"exit code {rc}, expected {expected['exit']}: {err.strip()[:200]}"
    lines = out.splitlines()
    failed = [line for line in lines if line.startswith("FAIL")]
    if failed:
        return f"check failed: {failed[0][:200]}"
    if not any(line.startswith("PASS") for line in lines):
        return "no PASS line in the report"
    if err:
        return f"unexpected stderr: {err.strip()[:200]}"
    if canonical_digest(out) != expected["sha256"]:
        return "report digest differs from the recorded one"
    return None


# -- sweep -----------------------------------------------------------------------


def sweep_frames():
    """All modal frames on posets of at most three elements, up to iso."""
    out = []
    for n in range(1, SWEEP_MAX_ELEMENTS + 1):
        for p in enumeration.all_posets(n):
            out += enumeration.frames_up_to_iso(p)
    return out


def sweep_job(left, right):
    """Cross-check one ordered frame pair; None if it passes, else why."""
    bis = bisim.largest_bisimulation(left, right)
    relational = bisim.is_box_bisimulation(bis)
    try:
        coalgebraic = bisim.coalgebraic_bisim_check(bis, depth=2)
    except errors.ProjectionNotPMorphism as exc:
        coalgebraic = False
        detail = str(exc)
    else:
        detail = ""
    if not relational:
        return "largest bisimulation violates a clause"
    if coalgebraic != relational:
        return f"coalgebraic check disagrees with the relational one {detail}"
    for f in enumeration.pmorphisms(left.poset, right.poset):
        modal = frames.is_modal_pmorphism(f, left, right)
        square = frames.check_coalgebra_morphism(f, left, right)
        if modal != square:
            return f"p-morphism {f.assign}: modal {modal}, coalgebra square {square}"
    return None
