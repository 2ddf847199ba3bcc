"""The JSON of the records that serialize from their own fields, against
the hand-written bodies they replaced, kept here as the reference."""
import dataclasses
import json
import re
from pathlib import Path

import pytest

from dipath_ramsey import (
    BLUE,
    RED,
    ConstantsConfig,
    EdgeColoring,
    complete_symmetric,
    multicolor_path_finder,
    random_digraph,
    random_oriented_graph,
    symmetric_multicolor_finder,
    theorem1_adversary,
    transitive_tournament,
    two_color_path_finder,
)
from dipath_ramsey.experiment import ExperimentManifest, GeneratorSpec


def _trace_dict(t):
    return {
        "threshold": t.threshold,
        "num_classes": t.num_classes,
        "blocks": [list(b) for b in t.blocks],
        "block_paths": [list(p) for p in t.block_paths],
        "cycles": [list(c) for c in t.cycles],
        "aux_coloring": [[list(e), c] for e, c in t.aux_coloring],
        "aux_branch": t.aux_branch,
        "aux_path": list(t.aux_path),
        "c_red": t.c_red,
        "c_blue": t.c_blue,
        "floors_met": t.floors_met,
        "notes": list(t.notes),
    }


def _certificate_dict(cert):
    return {
        "path": list(cert.path.vertices),
        "length": cert.path.length,
        "color": cert.color,
        "branch": cert.branch,
        "guarantee_active": cert.guarantee_active,
        "trace": _trace_dict(cert.trace),
    }


def _family_dict(f):
    return {"size": f.size, "eps": f.eps,
            "blocks": [list(b) for b in f.blocks],
            "inner_bound": f.inner_bound, "bound": f.bound}


def _partition_dict(p):
    return {
        "x": list(p.x),
        "families": [_family_dict(f) for f in p.families],
        "residue": list(p.residue),
        "covered": list(p.covered),
        "bounds": {"x": p.x_bound, "covered": p.covered_bound,
                   "residue": p.residue_bound, "crossing": p.crossing_bound,
                   "total": p.total_bound},
        "x_classes": p.x_classes,
        "residue_classes": p.residue_classes,
    }


def _manifest_dict(m):
    return {
        "experiment_id": m.experiment_id,
        "kind": m.kind,
        "generator": {"model": m.generator.model, "sizes": list(m.generator.sizes),
                      "density": m.generator.density},
        "config": dataclasses.asdict(m.config),
        "repetitions": m.repetitions,
        "params": dict(m.params),
        "csv_path": m.csv_path,
        "json_path": m.json_path,
    }


def _same_json(new, old):
    assert json.dumps(new, sort_keys=True) == json.dumps(old, sort_keys=True)


def _coloring(g, color_of, num=2):
    return EdgeColoring(num, {e: color_of(*e) for e in g.edges()})


def _certificates():
    """(expected branch, certificate) over every branch and trace shape."""
    g = complete_symmetric(9)
    yield "red-case", two_color_path_finder(g, _coloring(g, lambda u, v: RED), 2)
    # red only left to right: the red run of the auxiliary cycle threads
    g = complete_symmetric(29)
    col = _coloring(g, lambda u, v: RED if u < 15 <= v else BLUE)
    yield "red-case", two_color_path_finder(g, col, 2)
    g = complete_symmetric(42)
    col = _coloring(g, lambda u, v: RED if u % 2 == 0 and v == u + 1 else BLUE)
    yield "blue-case", two_color_path_finder(g, col, 1)
    # the recursion's note, on a class of the even vertices
    g = complete_symmetric(84)
    col = _coloring(g, lambda u, v: 3 if u % 2 < v % 2 else
                    RED if u % 4 == 0 and v == u + 2 else BLUE, 3)
    yield "blue-case", multicolor_path_finder(g, col, 1, 2)
    g = transitive_tournament(12)
    yield "small-n-fallback", two_color_path_finder(g, _coloring(g, lambda u, v: BLUE), 1)
    g = complete_symmetric(7)
    col = _coloring(g, lambda u, v: RED if u < v else BLUE)
    yield "blue-case", symmetric_multicolor_finder(7, col, 2)


def test_certificate_json_matches_the_hand_written_body():
    shapes = []
    for branch, cert in _certificates():
        assert cert.branch == branch
        _same_json(cert.to_dict(), _certificate_dict(cert))
        shapes.append(cert.trace)
    # the cases reach blocks, cycles, an auxiliary coloring and notes
    assert any(t.aux_coloring for t in shapes) and any(t.notes for t in shapes)
    assert any(t.blocks and not t.cycles for t in shapes)


def test_partition_json_matches_the_hand_written_body():
    cases = [(random_oriented_graph(40, 350, 2), 1, ConstantsConfig()),
             (random_digraph(40, 720, 0), 1, ConstantsConfig()),
             (random_digraph(40, 800, 1), 2, ConstantsConfig.relaxed())]
    for g, q, cfg in cases:
        part = theorem1_adversary(g, q, cfg).partition
        assert part.families
        _same_json(part.to_dict(), _partition_dict(part))
        for fam in part.families:
            _same_json(fam.to_dict(), _family_dict(fam))


def _readme_manifest():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (text,) = re.findall(r"```json\n(.*?)```", readme, re.S)
    return json.loads(text)


@pytest.mark.parametrize("config", [None, ConstantsConfig.relaxed()])
def test_manifest_json_matches_the_hand_written_body(config):
    data = _readme_manifest()
    if config is not None:
        data["config"] = config.to_dict()
    m = ExperimentManifest.from_dict(data)
    _same_json(m.to_dict(), _manifest_dict(m))
    direct = ExperimentManifest(
        experiment_id="direct", kind="builder",
        generator=GeneratorSpec("tournament", (8, 10)),
        config=config or ConstantsConfig(), params={"colors": 3, "k": 2})
    _same_json(direct.to_dict(), _manifest_dict(direct))
    # to_dict hands out copies: editing them leaves the manifest as it was
    d = m.to_dict()
    d["params"]["q"] = 5
    d["generator"]["density"] = 0.5
    d["config"]["c"] = 9.0
    assert m == ExperimentManifest.from_dict(data)


def test_readme_manifest_hash_is_pinned():
    """The hash of the README's manifest, as the hand-written body gave it."""
    m = ExperimentManifest.from_dict(_readme_manifest())
    assert m.hash() == "3bb3d704f1f83ddef2604410201e543a4a5ab7605905c30e31b58e63adbf99ec"
