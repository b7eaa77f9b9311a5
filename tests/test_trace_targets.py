"""The benchmark's traced run binds imcoalg functions by name.

``bench/layers.py`` lists every traced layer as (metric, module, attribute
path). A deleted or renamed library function would only surface when a
traced benchmark run fails; this test resolves every entry directly. A
dotted entry names a method that the tracer rebinds as a classmethod of the
wrapped ``__func__``, so it must be a classmethod in its class ``__dict__``:
a plain or static method would break traced runs only. The work counters
read library values the same way, so each one that reads a result (a
Bisimulation, a rooted stage, a list of upset masks) is run on a real one
here. A frame decides the mix law the first time its witness is read, so
that read must still go through the traced ``frames.mix_law_witness``, or
the benchmark's ``frames.mix_law_witness.*`` metrics would read zero.
"""

import importlib
from collections import defaultdict

import pytest

from imcoalg.bisim import coalgebraic_bisim_check, largest_bisimulation
from imcoalg.complexes import build_p_g, terminal_complex
from imcoalg.enumeration import all_posets
from imcoalg.frames import ModalFrame, check_mix_law, frame_to_lifted
from imcoalg.poset import make_poset, point_poset, terminal_map, upset_masks

from helpers import load_bench_module


def traced_targets():
    return load_bench_module("layers").TRACED


@pytest.mark.parametrize(
    "metric, module, attr", traced_targets(), ids=str
)
def test_traced_attribute_resolves(metric, module, attr):
    target = importlib.import_module("imcoalg." + module)
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target), metric


@pytest.mark.parametrize(
    "metric, module, attr",
    [entry for entry in traced_targets() if "." in entry[2]],
    ids=str,
)
def test_traced_method_is_a_classmethod(metric, module, attr):
    owner = importlib.import_module("imcoalg." + module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert isinstance(owner.__dict__.get(name), classmethod), metric


def test_first_read_of_a_mix_witness_is_traced():
    chain = make_poset(["a", "b"], [("a", "b")])
    failing = ModalFrame.from_pairs(chain, [("a", "a")])
    holding = ModalFrame.from_pairs(chain, [("a", "b")])
    importlib.import_module("imcoalg.cli")  # the tracer binds every layer
    tracer = load_bench_module("layers").Tracer()
    with tracer.installed():
        assert failing.mix_witness == ("a", "b")
        assert not check_mix_law(failing)
        frame_to_lifted(holding, 2)
        frame_to_lifted(holding, 1)
    # once per frame: the reads that find the witness held are not calls
    assert tracer.calls["frames.mix_law_witness"] == 2


def test_bisimulation_counters_read_a_real_result():
    # a < b with a R b, against a point without successors: only (b, *)
    # survives, since a's successor has no partner among *'s
    left = ModalFrame.from_pairs(make_poset(["a", "b"], [("a", "b")]),
                                 [("a", "b")])
    right = ModalFrame(point_poset(), [0])
    bis = largest_bisimulation(left, right)
    assert bis.pairs == {(1, 0)}
    layers = load_bench_module("layers")
    counters = defaultdict(int)
    layers._count_largest_bisimulation(counters, (left, right), {}, bis)
    result = coalgebraic_bisim_check(bis, depth=2)
    layers._count_coalgebraic(counters, (bis,), {"depth": 2}, result)
    assert dict(counters) == {
        "bisim.largest_bisimulation.pairs_start": 2,
        "bisim.largest_bisimulation.pairs_removed": 1,
        "bisim.coalgebraic_bisim_check.relation_size": 1,
    }


def test_stage_counter_reads_a_real_result():
    # build_p_g as build_complex calls it: accepted is the stage size, and
    # candidates the rooted subsets, sum over x of 2^(|up(x)| - 1)
    layers = load_bench_module("layers")
    for n in (1, 2, 3):
        for p in all_posets(n):
            for g in (terminal_map(p), terminal_complex(p, 2).root_maps[2]):
                counters = defaultdict(int)
                stage = build_p_g(g)
                layers._count_build_p_g(counters, (g,), {}, stage)
                base = g.source
                assert dict(counters) == {
                    "complexes.build_p_g.candidates": sum(
                        1 << (row.bit_count() - 1) for row in base.up
                    ),
                    "complexes.build_p_g.accepted": stage.poset.n,
                }


def test_upset_counter_reads_a_real_result():
    layers = load_bench_module("layers")
    for n in (1, 2, 3):
        for p in all_posets(n):
            counters = defaultdict(int)
            masks = upset_masks(p)
            layers._count_upset_masks(counters, (p,), {}, masks)
            found = sum(p.is_upset(m) for m in range(1 << n))
            assert dict(counters) == {
                "heyting.upset_masks.scanned": 1 << n,
                "heyting.upset_masks.found": found,
            }
