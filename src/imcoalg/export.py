"""DOT and JSON export.

DOT dialect: one node per element, label verbatim; solid arrows for order
covers (low to high), dashed arrows for the modal relation. Complexes and
free-stage sequences render one cluster per stage with dashed arrows for
the connecting maps. JSON documents carry schema tag "imcoalg/1" and
mirror the frame file sections.

All output is sorted by element index, so identical inputs produce
byte-identical files.
"""

import json

from .heyting import up_functor
from .poset import format_label, iter_bits, pairs_of

JSON_SCHEMA = "imcoalg/1"


def _quote(text):
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def poset_dot_lines(poset, prefix="", indent="  "):
    names = [prefix + format_label(lab) for lab in poset.labels]
    lines = [f"{indent}{_quote(name)};" for name in names]
    for i, j in poset.covers():
        lines.append(f"{indent}{_quote(names[i])} -> {_quote(names[j])};")
    return names, lines


def frame_to_dot(frame):
    names, lines = poset_dot_lines(frame.poset)
    for x, y in pairs_of(frame.rel):
        lines.append(
            f"  {_quote(names[x])} -> {_quote(names[y])} [style=dashed];"
        )
    return "digraph imcoalg {\n" + "\n".join(lines) + "\n}\n"


def _stages_to_dot(graph, prefix, posets, arrows):
    """One cluster per stage poset, nodes named prefix + stage index, and a
    dashed arrow per (i, a, b) in arrows from element a of stage i to
    element b of stage i - 1."""
    out = ["digraph " + graph + " {"]
    all_names = []
    for i, poset in enumerate(posets):
        names, lines = poset_dot_lines(
            poset, prefix=f"{prefix}{i}:", indent="    "
        )
        all_names.append(names)
        out.append(f"  subgraph cluster_{i} {{")
        out.append(f'    label="stage {i}";')
        out.extend(lines)
        out.append("  }")
    for i, a, b in arrows:
        out.append(
            f"  {_quote(all_names[i][a])} -> "
            f"{_quote(all_names[i - 1][b])} [style=dashed];"
        )
    out.append("}")
    return "\n".join(out) + "\n"


def complex_to_dot(cx):
    arrows = (
        (i, src, t)
        for i in range(1, len(cx.stages))
        for src, t in enumerate(cx.root_maps[i].assign)
    )
    return _stages_to_dot("complex", "P", cx.stages, arrows)


def free_stages_to_dot(stages):
    arrows = (
        (stage.index, e, y)
        for stage in stages
        if stage.rel is not None
        for e, y in pairs_of(stage.rel)
    )
    return _stages_to_dot("freealg", "M", [s.poset for s in stages], arrows)


def frame_to_json_dict(frame, valuations=None, nbhd=None):
    """The frame as a JSON document; valuations maps letters to upset
    masks, and nbhd is an NbhdFrame on the frame's poset, written as the
    members of every element's family, each member in index order."""
    p = frame.poset
    doc = {
        "schema": JSON_SCHEMA,
        "elements": [format_label(lab) for lab in p.labels],
        "order": [
            [format_label(p.labels[i]), format_label(p.labels[j])]
            for i, j in p.covers()
        ],
        "modal": [
            [format_label(a), format_label(b)] for a, b in frame.pairs()
        ],
    }
    if valuations:
        doc["val"] = {
            letter: [format_label(p.labels[i]) for i in iter_bits(mask)]
            for letter, mask in sorted(valuations.items())
        }
    if nbhd is not None:
        upsets = up_functor(p).masks
        doc["nbhd"] = {
            format_label(p.labels[x]): [
                [format_label(p.labels[i]) for i in iter_bits(upsets[j])]
                for j in iter_bits(family)
            ]
            for x, family in enumerate(nbhd.families)
        }
    return doc


def complex_to_json_dict(cx):
    stages = []
    for i, stage in enumerate(cx.stages):
        entry = {
            "index": i,
            "size": stage.n,
            "elements": [format_label(lab) for lab in stage.labels],
        }
        if i >= 1:
            r = cx.root_maps[i]
            entry["root_map"] = {
                format_label(stage.labels[s]): format_label(
                    cx.stages[i - 1].labels[r.assign[s]]
                )
                for s in range(stage.n)
            }
        stages.append(entry)
    return {"schema": JSON_SCHEMA, "stages": stages}


def free_stages_to_json_dict(stages):
    doc = {"schema": JSON_SCHEMA, "stages": []}
    for stage in stages:
        entry = {
            "index": stage.index,
            "size": stage.poset.n,
            "inner_depth": stage.inner_depth,
            "elements": [format_label(lab) for lab in stage.poset.labels],
            "projection": {
                format_label(stage.poset.labels[e]): format_label(
                    stage.projection.target.labels[stage.projection.assign[e]]
                )
                for e in range(stage.poset.n)
            },
        }
        if stage.rel is not None:
            entry["step_relation"] = {
                format_label(stage.poset.labels[e]): [
                    format_label(stage.prev.labels[y])
                    for y in iter_bits(stage.rel[e])
                ]
                for e in range(stage.poset.n)
            }
        doc["stages"].append(entry)
    return doc


def dump_json(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
