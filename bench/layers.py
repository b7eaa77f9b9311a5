"""Per-layer tracing for the benchmark's traced run.

The tracer wraps public functions of the imcoalg modules (the layers) from
outside: every module attribute bound to a traced function, in any imcoalg
module, is replaced while the tracer is installed and restored afterwards.
``src/`` itself is never changed.

Each wrapped call opens a span. A call made while the innermost open span
belongs to the same traced function (recursion, as in ``truth_mask``, or
``TowerMap.from_map`` calling ``tower_coords``) opens none. Self time is a
span's duration minus the time of the spans it directly contains, so a
layer's self time is the time spent in its own code. Consecutive sibling
calls of one function are kept as one span record with a call count, which
keeps a traced run of millions of ``truth_mask`` calls small in memory.

Work counters are computed from the arguments and return values of the
wrapped calls, so they repeat exactly for the same inputs.
"""

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

MODULES = (
    "cli", "framefile", "poset", "heyting", "complexes", "frames", "bisim",
    "logic", "freealg", "enumeration",
)

# (metric name, module, attribute path); two attributes may share a name.
TRACED = (
    ("cli.main", "cli", "main"),
    ("framefile.parse_frame_file", "framefile", "parse_frame_file"),
    ("poset.make_poset", "poset", "make_poset"),
    ("poset.is_monotone", "poset", "is_monotone"),
    ("poset.is_pmorphism", "poset", "is_pmorphism"),
    ("heyting.upset_masks", "heyting", "upset_masks"),
    ("heyting.up_functor", "heyting", "up_functor"),
    ("heyting.up_functor_map", "heyting", "up_functor_map"),
    ("complexes.build_p_g", "complexes", "build_p_g"),
    ("complexes.build_complex", "complexes", "build_complex"),
    ("complexes.verify_complex", "complexes", "verify_complex"),
    ("complexes.tower_map", "complexes", "TowerMap.from_map"),
    ("complexes.tower_map", "complexes", "tower_coords"),
    ("complexes.lift_map", "complexes", "lift_map"),
    ("complexes.check_limit_pmorphism", "complexes", "check_limit_pmorphism"),
    ("frames.mix_law_witness", "frames", "mix_law_witness"),
    ("frames.frame_to_lifted", "frames", "frame_to_lifted"),
    ("frames.is_modal_pmorphism", "frames", "is_modal_pmorphism"),
    ("frames.check_coalgebra_morphism", "frames", "check_coalgebra_morphism"),
    ("bisim.largest_bisimulation", "bisim", "largest_bisimulation"),
    ("bisim.is_box_bisimulation", "bisim", "is_box_bisimulation"),
    ("bisim.coalgebraic_bisim_check", "bisim", "coalgebraic_bisim_check"),
    ("bisim.distinguishing_formula", "bisim", "distinguishing_formula"),
    ("logic.truth_mask", "logic", "truth_mask"),
    ("logic.enumerate_formulas", "logic", "enumerate_formulas"),
    ("logic.parse", "logic", "parse"),
    ("logic.print_formula", "logic", "print_formula"),
    ("freealg.build_free_stages", "freealg", "build_free_stages"),
    ("freealg.check_modal_stage_properties", "freealg",
     "check_modal_stage_properties"),
    ("enumeration.frames_up_to_iso", "enumeration", "frames_up_to_iso"),
    ("enumeration.pmorphisms", "enumeration", "pmorphisms"),
)

FUNCTIONS = tuple(dict.fromkeys(name for name, _, _ in TRACED))

COUNTERS = (
    "cli.main.capped",
    "heyting.upset_masks.scanned",
    "heyting.upset_masks.found",
    "complexes.build_p_g.candidates",
    "complexes.build_p_g.accepted",
    "bisim.largest_bisimulation.pairs_start",
    "bisim.largest_bisimulation.pairs_removed",
    "bisim.coalgebraic_bisim_check.relation_size",
    "bisim.distinguishing_formula.formulas_tried",
    "bisim.distinguishing_formula.found",
    "logic.enumerate_formulas.yielded",
)
RATIOS = {
    "heyting.upset_masks.yield": (
        "heyting.upset_masks.found", "heyting.upset_masks.scanned"),
    "complexes.build_p_g.yield": (
        "complexes.build_p_g.accepted", "complexes.build_p_g.candidates"),
    "bisim.distinguishing_formula.found_ratio": (
        "bisim.distinguishing_formula.found",
        "bisim.distinguishing_formula.calls"),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_upset_masks(c, args, kwargs, result):
    c["heyting.upset_masks.scanned"] += 1 << _arg(args, kwargs, 0, "p").n
    c["heyting.upset_masks.found"] += len(result)


def _count_build_p_g(c, args, kwargs, result):
    base = _arg(args, kwargs, 0, "g").source
    c["complexes.build_p_g.candidates"] += sum(
        1 << (row.bit_count() - 1) for row in base.up
    )
    c["complexes.build_p_g.accepted"] += len(result.member_masks)


def _count_largest_bisimulation(c, args, kwargs, result):
    start = (_arg(args, kwargs, 0, "left").poset.n
             * _arg(args, kwargs, 1, "right").poset.n)
    c["bisim.largest_bisimulation.pairs_start"] += start
    c["bisim.largest_bisimulation.pairs_removed"] += start - len(result.pairs)


def _count_coalgebraic(c, args, kwargs, result):
    c["bisim.coalgebraic_bisim_check.relation_size"] += len(
        _arg(args, kwargs, 0, "bis").pairs
    )


def _count_distinguishing(c, args, kwargs, result):
    c["bisim.distinguishing_formula.found"] += result is not None


def _count_main(c, args, kwargs, result):
    c["cli.main.capped"] += result == 3  # the CLI's resource-cap exit code


AFTER = {
    "heyting.upset_masks": _count_upset_masks,
    "complexes.build_p_g": _count_build_p_g,
    "bisim.largest_bisimulation": _count_largest_bisimulation,
    "bisim.coalgebraic_bisim_check": _count_coalgebraic,
    "bisim.distinguishing_formula": _count_distinguishing,
    "cli.main": _count_main,
}


class _Open:
    __slots__ = ("name", "index", "child_s", "last_child")

    def __init__(self, name, index):
        self.name = name
        self.index = index
        self.child_s = 0.0
        self.last_child = None


class Tracer:
    """Spans, self times and work counters of the traced imcoalg layers."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        # span record: [name, parent index, job, start, end, calls, busy_s]
        self.spans = []
        self.job = None
        self._stack = []
        self._last_root = None

    # -- span bookkeeping ----------------------------------------------------

    def _open(self, name):
        stack = self._stack
        parent = stack[-1] if stack else None
        last = parent.last_child if parent is not None else self._last_root
        if (last is not None and self.spans[last][0] == name
                and self.spans[last][2] == self.job):
            index = last
        else:
            parent_index = parent.index if parent is not None else -1
            self.spans.append([name, parent_index, self.job, None, None, 0, 0.0])
            index = len(self.spans) - 1
        frame = _Open(name, index)
        stack.append(frame)
        return frame

    def _close(self, frame, start, end, count=True):
        stack = self._stack
        stack.pop()
        busy = end - start
        if count:
            self.calls[frame.name] += 1
        self.self_s[frame.name] += busy - frame.child_s
        record = self.spans[frame.index]
        if record[3] is None:
            record[3] = start
        record[4] = end
        record[5] += 1
        record[6] += busy
        if stack:
            stack[-1].child_s += busy
            stack[-1].last_child = frame.index
        else:
            self._last_root = frame.index

    # -- wrappers ------------------------------------------------------------

    def wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        after = AFTER.get(name)
        counting = name == "bisim.distinguishing_formula"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1].name == name:
                return fn(*args, **kwargs)
            if counting:
                args, kwargs = tracer._count_formulas(args, kwargs)
            frame = tracer._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, start, time.perf_counter())
            if after is not None:
                after(tracer.counters, args, kwargs, result)
            return result

        return traced

    def _count_formulas(self, args, kwargs):
        """Pass the formula stream through a counter of formulas tried."""
        counters = self.counters
        key = "bisim.distinguishing_formula.formulas_tried"

        def counted(formulas):
            for phi in formulas:
                counters[key] += 1
                yield phi

        if len(args) > 4:
            return args[:4] + (counted(args[4]),) + args[5:], kwargs
        return args, dict(kwargs, formulas=counted(kwargs["formulas"]))

    def _wrap_generator(self, name, fn):
        """One call per generator; each resume is a span of its own."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            gen = fn(*args, **kwargs)

            def resumed():
                while True:
                    frame = tracer._open(name)
                    start = time.perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(frame, start, time.perf_counter(),
                                      count=False)
                    tracer.counters[name + ".yielded"] += 1
                    yield item

            return resumed()

        return traced

    # -- installation --------------------------------------------------------

    @contextmanager
    def installed(self):
        """Bind every traced function to its wrapper in all imcoalg modules."""
        modules = [m for k, m in sys.modules.items()
                   if k == "imcoalg" or k.startswith("imcoalg.")]
        saved = []
        for name, module_name, attr in TRACED:
            owner = sys.modules["imcoalg." + module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                saved.append((cls, meth, original))
                setattr(cls, meth, classmethod(self.wrap(name, original.__func__)))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        saved.append((module, key, original))
                        setattr(module, key, wrapper)
        try:
            yield self
        finally:
            for target, key, original in reversed(saved):
                setattr(target, key, original)

    # -- results -------------------------------------------------------------

    def metrics(self):
        """Every per-layer metric: calls, self time, counters and ratios."""
        out = {}
        for name in FUNCTIONS:
            out[name + ".calls"] = (self.calls[name], "count")
            out[name + ".self_s"] = (self.self_s[name], "s")
        for module in MODULES:
            out[module + ".self_s"] = (
                sum(self.self_s[f] for f in FUNCTIONS
                    if f.startswith(module + ".")), "s")
        for name in COUNTERS:
            out[name] = (self.counters[name], "count")
        for name, (num, den) in RATIOS.items():
            top = self.counters[num]
            bottom = (self.calls[den[:-len(".calls")]] if den.endswith(".calls")
                      else self.counters[den])
            out[name] = (top / bottom if bottom else 0.0, "ratio")
        return out

    def write_spans(self, path):
        names = list(FUNCTIONS)
        rows = [[names.index(r[0])] + r[1:] for r in self.spans]
        with open(path, "w") as fh:
            json.dump(
                {"names": names,
                 "columns": ["name", "parent", "job", "start", "end",
                             "calls", "busy_s"],
                 "spans": rows},
                fh,
            )
