"""Command-line entry point.

Subcommands: check, mc, bisim, complex, lift, freealg, export. Every
command prints a deterministic human-readable report (one PASS/FAIL line
per check) and can write the same report as JSON. Exit codes are a stable
contract: 0 all checks pass, 1 check failure, 2 usage or parse error,
3 resource cap exceeded, 4 standard output closed before the report was
written (as by ``| head -1``): nothing more is written, a --report file
included.

Timing is measured but only emitted under --timing so that identical
inputs produce byte-identical output.
"""

import argparse
import functools
import hashlib
import os
import sys
import time

from .bisim import (
    coalgebraic_bisim_check,
    is_box_bisimulation,
    largest_bisimulation,
    search_distinguishing_formulas,
)
from .complexes import (
    check_limit_pmorphism,
    intuitionistic_lift,
    lift_map,
    verify_complex,
)
from .config import DEFAULT_CAPS
from .errors import (
    CapExceeded,
    ConstructionError,
    FormulaSyntaxError,
    ImcoalgError,
    NotAntisymmetric,
    NotTransitive,
    ParseError,
    ProjectionNotPMorphism,
    UsageError,
)
from .export import (
    JSON_SCHEMA,
    complex_to_dot,
    complex_to_json_dict,
    dump_json,
    frame_to_dot,
    frame_to_json_dict,
    free_stages_to_dot,
    free_stages_to_json_dict,
)
from .framefile import parse_frame_file
from .frames import frame_to_upmap
from .freealg import (
    build_free_stages,
    check_modal_stage_properties,
    generator_poset,
)
from .logic import parse, print_formula, truth_mask
from .poset import format_label, pairs_of

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_OUTPUT_CLOSED = 4


class Report:
    """Accumulates named checks; serializable deterministically."""

    def __init__(self, subcommand, inputs):
        self.subcommand = subcommand
        self.inputs = inputs
        self.checks = []
        self.lines = []
        self.started = time.monotonic()

    def check(self, name, passed, detail=None):
        self.checks.append(
            {"name": name, "pass": bool(passed), "detail": detail}
        )
        mark = "PASS" if passed else "FAIL"
        suffix = f" ({detail})" if detail and not passed else ""
        self.lines.append(f"{mark} {name}{suffix}")
        return passed

    def info(self, line):
        self.lines.append(line)

    @property
    def ok(self):
        return all(c["pass"] for c in self.checks)

    def to_dict(self, timing=False):
        doc = {
            "schema": JSON_SCHEMA,
            "subcommand": self.subcommand,
            "inputs": self.inputs,
            "checks": self.checks,
            "ok": self.ok,
        }
        if timing:
            doc["timing_ms"] = round(
                (time.monotonic() - self.started) * 1000.0, 3
            )
        return doc

    def emit(self, args):
        for line in self.lines:
            print(line)
        if args.timing:
            print(
                f"elapsed: {(time.monotonic() - self.started) * 1000.0:.1f} ms"
            )
        if args.report:
            doc = self.to_dict(timing=args.timing)
            _write_file(args.report, dump_json(doc))
        return EXIT_OK if self.ok else EXIT_CHECK_FAILED


def _digest(data):
    return hashlib.sha256(data.encode()).hexdigest()[:16]


def _read_file(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise UsageError(
            f"cannot read {path}: not {exc.encoding} text "
            f"({exc.reason} at byte {exc.start})"
        ) from None


def _write_file(path, text, report=None):
    """Write an output file, noting it in the report when one is given."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None
    if report is not None:
        report.info(f"wrote {path}")


def _caps(args):
    caps = DEFAULT_CAPS
    env = os.environ.get("IMCOALG_MAX_STAGE")
    if env is not None:
        try:
            caps = caps.with_stage(_int_at_least(0)(env))
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"IMCOALG_MAX_STAGE: {exc}") from None
    if getattr(args, "max_stage", None) is not None:
        caps = caps.with_stage(args.max_stage)
    if getattr(args, "max_depth", None) is not None:
        caps = caps.with_depth(args.max_depth)
    return caps


def _order_check(report, ff):
    """Build the poset, folding order-axiom violations into the report."""
    try:
        poset = ff.build_poset()
    except (NotAntisymmetric, NotTransitive) as exc:
        report.check("order-axioms", False, str(exc))
        return None
    report.check("order-axioms", True)
    return poset


def _mix_law_check(report, frame, name):
    """Report the mix law as check name, with a witness when it fails;
    the frame holds the witness (ModalFrame.mix_witness)."""
    witness = frame.mix_witness
    detail = None if witness is None else f"witness {witness}"
    return report.check(name, witness is None, detail)


# -- subcommands -------------------------------------------------------------


def cmd_check(args):
    text = _read_file(args.file)
    ff = parse_frame_file(text)
    report = Report("check", {"file": _digest(text)})
    poset = _order_check(report, ff)
    if poset is None:
        return report.emit(args)
    frame = ff.build_frame(poset)
    _mix_law_check(report, frame, "mix-law")
    try:
        ff.valuation_masks(poset, close=args.close_valuations)
        report.check("valuation-persistence", True)
    except ConstructionError as exc:
        report.check("valuation-persistence", False, str(exc))
    if ff.nbhd:
        try:
            ff.build_nbhd_frame(
                poset, close=args.close_valuations, strict=args.strict_nbhd
            )
            report.check("nbhd-wellformed", True)
        except ConstructionError as exc:
            report.check("nbhd-wellformed", False, str(exc))
    return report.emit(args)


def cmd_mc(args):
    text = _read_file(args.file)
    ff = parse_frame_file(text)
    phi = parse(args.formula)
    report = Report(
        "mc", {"file": _digest(text), "formula": print_formula(phi)}
    )
    poset = _order_check(report, ff)
    if poset is None:
        return report.emit(args)
    frame = ff.build_frame(poset)
    _mix_law_check(report, frame, "mix-law")
    model = ff.build_model(close=args.close_valuations, frame=frame)
    mask = truth_mask(model, phi)
    report.info(f"formula: {print_formula(phi)}")
    for i, lab in enumerate(poset.labels):
        holds = "true " if (mask >> i) & 1 else "false"
        report.info(f"  {format_label(lab)}: {holds}")
    report.check(
        "formula-valid",
        mask == poset.full_mask,
        f"holds at {mask.bit_count()}/{poset.n} points",
    )
    return report.emit(args)


def _build_checked_frame(report, ff, name):
    poset = _order_check(report, ff)
    if poset is None:
        return None
    frame = ff.build_frame(poset)
    if not _mix_law_check(report, frame, f"mix-law-{name}"):
        return None
    return frame


def cmd_bisim(args):
    text1 = _read_file(args.file1)
    text2 = _read_file(args.file2)
    ff1 = parse_frame_file(text1)
    ff2 = parse_frame_file(text2)
    report = Report(
        "bisim", {"file1": _digest(text1), "file2": _digest(text2)}
    )
    frame1 = _build_checked_frame(report, ff1, "left")
    frame2 = _build_checked_frame(report, ff2, "right")
    if frame1 is None or frame2 is None:
        return report.emit(args)
    bis = largest_bisimulation(frame1, frame2)
    labels1, labels2 = frame1.poset.labels, frame2.poset.labels
    names1 = [format_label(lab) for lab in labels1]
    names2 = [format_label(lab) for lab in labels2]
    # in the order of bis.label_pairs(), each label formatted once
    pairs = sorted(bis.pairs, key=lambda p: (labels1[p[0]], labels2[p[1]]))
    report.info(f"largest bisimulation: {len(pairs)} pairs")
    for x, y in pairs:
        report.info(f"  {names1[x]} ~ {names2[y]}")
    report.check("largest-is-bisimulation", is_box_bisimulation(bis))
    caps = _caps(args)
    try:
        agrees = coalgebraic_bisim_check(bis, depth=args.depth, caps=caps)
        report.check("coalgebraic-agreement", agrees, f"depth {args.depth}")
    except ProjectionNotPMorphism as exc:
        report.check("coalgebraic-agreement", False, str(exc))
    if args.distinguish is not None:
        model1 = ff1.build_model(close=args.close_valuations, frame=frame1)
        model2 = ff2.build_model(close=args.close_valuations, frame=frame2)
        letters = sorted(set(model1.valuation) & set(model2.valuation))
        full2 = frame2.poset.full_mask
        unrelated = pairs_of([full2 & ~row for row in bis.rows])
        found = search_distinguishing_formulas(
            model1, model2, unrelated, letters, args.distinguish, caps
        )
        shown = {None: "(none found)"}  # each distinct formula printed once
        for x, y in unrelated:
            phi = found[x, y]
            if phi not in shown:
                shown[phi] = print_formula(phi)
            report.info(f"distinguish {names1[x]} vs {names2[y]}: {shown[phi]}")
    return report.emit(args)


def cmd_complex(args):
    text = _read_file(args.file)
    ff = parse_frame_file(text)
    report = Report(
        "complex", {"file": _digest(text), "depth": args.depth}
    )
    poset = _order_check(report, ff)
    if poset is None:
        return report.emit(args)
    cx = intuitionistic_lift(poset, args.depth, _caps(args))
    report.info(f"stage sizes: {[s.n for s in cx.stages]}")
    for i in range(1, len(cx.stages)):
        report.info(
            f"  r_{i}: stage {i} ({cx.stages[i].n} elements) -> "
            f"stage {i - 1} ({cx.stages[i - 1].n} elements)"
        )
    report.check("stages-valid", verify_complex(cx))
    if args.dot:
        _write_file(args.dot, complex_to_dot(cx), report)
    if args.json:
        _write_file(args.json, dump_json(complex_to_json_dict(cx)), report)
    return report.emit(args)


def cmd_lift(args):
    text = _read_file(args.file)
    ff = parse_frame_file(text)
    report = Report("lift", {"file": _digest(text), "depth": args.depth})
    frame = _build_checked_frame(report, ff, "frame")
    if frame is None:
        return report.emit(args)
    # the complex enforces the depth cap before any deep lifting starts
    caps = _caps(args)
    cx = intuitionistic_lift(frame.poset, args.depth, caps)
    upmap = frame_to_upmap(frame, caps)
    lifted = lift_map(upmap, cx, args.depth)
    for x in range(frame.poset.n):
        report.info(f"{format_label(frame.poset.labels[x])}:")
        for level in range(1, args.depth + 1):
            i = lifted.maps[level].assign[x]
            # label() builds the printed label alone, from its members down
            label = cx.stages[level].label(i)
            report.info(f"  level {level}: {format_label(label)}")
    report.check("tower-compatible", lifted.compatible())
    report.check("coords-monotone", lifted.coords_monotone())
    report.check("limit-pmorphism", check_limit_pmorphism(lifted, args.depth))
    return report.emit(args)


def cmd_freealg(args):
    report = Report(
        "freealg",
        {
            "generators": args.generators,
            "stages": args.stages,
            "inner_depth": args.inner_depth,
        },
    )
    variables = [f"p{i}" for i in range(args.generators)]
    base = generator_poset(variables)
    caps = _caps(args)
    stages = build_free_stages(base, args.stages, args.inner_depth, caps)
    report.info(f"stage sizes: {[s.poset.n for s in stages]}")
    for stage in stages[1:]:
        stage_report = check_modal_stage_properties(stage, caps)
        for name, passed in stage_report.checks.items():
            report.check(
                f"stage{stage.index}-{name}",
                passed,
                stage_report.counterexamples.get(name),
            )
    if args.dot:
        _write_file(args.dot, free_stages_to_dot(stages), report)
    if args.json:
        _write_file(args.json, dump_json(free_stages_to_json_dict(stages)), report)
    return report.emit(args)


def cmd_export(args):
    text = _read_file(args.file)
    ff = parse_frame_file(text)
    report = Report("export", {"file": _digest(text)})
    poset = _order_check(report, ff)
    if poset is None:
        return report.emit(args)
    frame = ff.build_frame(poset)
    if args.json:
        # built before anything is written, so that a rejected valuation
        # or family leaves no file behind
        close = args.close_valuations
        vals = ff.valuation_masks(poset, close=close)
        nbhd = ff.build_nbhd_frame(poset, close=close) if ff.nbhd else None
        doc = dump_json(frame_to_json_dict(frame, vals, nbhd))
    if args.dot:
        _write_file(args.dot, frame_to_dot(frame), report)
    if args.json:
        _write_file(args.json, doc, report)
    return report.emit(args)


# -- argument parsing ---------------------------------------------------------


def _add_common(sub, valuations=True):
    sub.add_argument("--report", metavar="OUT", help="write the report as JSON")
    sub.add_argument("--timing", action="store_true", help="include timing")
    if valuations:
        sub.add_argument(
            "--close-valuations",
            action="store_true",
            help="close valuation sets upward instead of rejecting them",
        )


def _int_at_least(low):
    """An argparse type accepting integers of at least ``low``."""

    def convert(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}"
            )
        return value

    return convert


def _add_caps(sub, stage=True):
    if stage:
        sub.add_argument(
            "--max-stage", type=_int_at_least(0), metavar="N",
            help=f"stage element cap (default {DEFAULT_CAPS.max_stage})")
    sub.add_argument("--max-depth", type=_int_at_least(0), metavar="N",
                     help=f"depth cap (default {DEFAULT_CAPS.max_depth})")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="imcoalg",
        description="finite workbench for intuitionistic modal frames",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check", help="order axioms, mix law, valuations")
    p.add_argument("file")
    p.add_argument("--strict-nbhd", action="store_true",
                   help="require neighbourhood families to be up-closed")
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = subs.add_parser("mc", help="model-check a formula")
    p.add_argument("file")
    p.add_argument("formula")
    _add_common(p)
    p.set_defaults(func=cmd_mc)

    p = subs.add_parser("bisim", help="largest bisimulation of two frames")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--depth", type=_int_at_least(1), default=2,
                   help="coalgebraic comparison depth (default 2)")
    p.add_argument("--distinguish", type=_int_at_least(0), metavar="D",
                   help="search distinguishing formulas up to D connectives")
    _add_caps(p, stage=False)
    _add_common(p)
    p.set_defaults(func=cmd_bisim)

    p = subs.add_parser("complex", help="terminal complex over the frame's upsets")
    p.add_argument("file")
    p.add_argument("--depth", type=_int_at_least(1), default=2)
    p.add_argument("--dot", metavar="OUT")
    p.add_argument("--json", metavar="OUT")
    _add_caps(p)
    _add_common(p, valuations=False)
    p.set_defaults(func=cmd_complex)

    p = subs.add_parser("lift", help="lift the frame's coalgebra map")
    p.add_argument("file")
    p.add_argument("--depth", type=_int_at_least(1), default=2)
    _add_caps(p)
    _add_common(p, valuations=False)
    p.set_defaults(func=cmd_lift)

    p = subs.add_parser("freealg", help="truncated free-algebra stages")
    p.add_argument("--generators", type=_int_at_least(0), default=1)
    p.add_argument("--stages", type=_int_at_least(0), default=1)
    p.add_argument("--inner-depth", type=_int_at_least(1), default=1)
    p.add_argument("--dot", metavar="OUT")
    p.add_argument("--json", metavar="OUT")
    _add_caps(p)
    _add_common(p, valuations=False)
    p.set_defaults(func=cmd_freealg)

    p = subs.add_parser("export", help="write DOT or JSON for a frame file")
    p.add_argument("file")
    p.add_argument("--dot", metavar="OUT")
    p.add_argument("--json", metavar="OUT")
    _add_common(p)
    p.set_defaults(func=cmd_export)

    return parser


def _discard_stdout():
    """Point standard output at devnull once its reader has gone, so that
    the flush at interpreter exit cannot raise a second BrokenPipeError."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, sys.stdout.fileno())
    finally:
        os.close(devnull)


@functools.cache
def _parser():
    """The argument parser, built on first use and kept for the process."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        _discard_stdout()
        return EXIT_OUTPUT_CLOSED
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (
        ParseError, FormulaSyntaxError, ConstructionError, UsageError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ImcoalgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
