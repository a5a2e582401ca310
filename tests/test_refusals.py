"""Refusals of malformed input and broken preconditions, each checked for
its exception type and message: graph labels and edges, stored cores read
as JSON, and the bounds and positions the word and core functions take."""

from __future__ import annotations

import json

import pytest

from raagcc.cli import main
from raagcc.complexes import (
    LabeledCubeComplex,
    build_core,
    count_elements,
    enumerate_elements,
    membership,
)
from raagcc.errors import ContractError, InputError
from raagcc.family import family, verify_star
from raagcc.graphs import DefiningGraph
from raagcc.surfaces import SurfaceModel
from raagcc.words import normal_word_from_pairs, normalize, parse_word, subword_decompose

LABEL_RULE = "[A-Za-z_][A-Za-z_0-9]*"


@pytest.fixture(scope="module")
def worked_core(abc_graph):
    """The worked example's verified core, ⟨b c a, b a b c⟩ over abc."""
    return build_core(abc_graph, [parse_word("b c a", abc_graph), parse_word("b a b c", abc_graph)])


# -- defining graphs ------------------------------------------------------------------

@pytest.mark.parametrize("vertices, edges, message", [
    (["a", "b", "a"], [], "duplicate vertex labels in ('a', 'b', 'a')"),
    ("ab", [("a",)], "edge ('a',) is not a pair"),
    ("ab", [("a", "b", "a")], "edge ('a', 'b', 'a') is not a pair"),
    ("ab", [("a", "a")], "self-loop at 'a' is not simplicial"),
    ("ab", [("a", "z")], "edge ('a', 'z') uses undeclared vertices"),
])
def test_graph_build_refuses_a_graph_that_is_not_simplicial(vertices, edges, message):
    with pytest.raises(InputError) as info:
        DefiningGraph.build(vertices, edges)
    assert str(info.value) == message


@pytest.mark.parametrize("label", ["a^2", "b c", "", "2a", "a-b", "é"])
def test_graph_build_refuses_a_label_no_word_text_can_name(label):
    """``a^2`` to the first power printed as ``a^2``, which parses back as
    a squared; ``b c`` and the empty label no token could name."""
    with pytest.raises(InputError) as info:
        DefiningGraph.build(["a", label], [])
    assert str(info.value) == f"vertex label {label!r} is not a name ({LABEL_RULE})"


@pytest.mark.parametrize("vertices, edges, message", [
    (["a", None], [], "vertex label None is not a string"),
    (["a", True], [], "vertex label True is not a string"),
    (["a", 1], [], "vertex label 1 is not a string"),
    ("ab", [("a", None)], "edge ('a', None) has an endpoint that is not a string"),
    ("ab", [(b"a", "b")], "edge (b'a', 'b') has an endpoint that is not a string"),
])
def test_graph_build_refuses_a_label_that_is_not_a_string(vertices, edges, message):
    """Labels are not coerced with ``str``: ``None`` would become the vertex
    ``'None'``, which word text could then name."""
    with pytest.raises(InputError) as info:
        DefiningGraph.build(vertices, edges)
    assert str(info.value) == message


def test_every_declared_label_reads_back_from_its_text():
    graph = DefiningGraph.build(["a", "_b", "c_1", "Xy9"], [("a", "_b")])
    for label in graph.vertices:
        assert parse_word(label, graph).to_text() == label
        assert normalize(parse_word(f"{label}^-2", graph), graph).to_text() == f"{label}^-2"


def test_complement_diameter_refuses_a_disconnected_complement():
    with pytest.raises(InputError) as info:
        DefiningGraph.build("abc", [("a", "b"), ("a", "c")]).complement_diameter()
    assert str(info.value) == "complement graph is disconnected; diameter undefined"


# -- stored models and cores ----------------------------------------------------------

@pytest.mark.parametrize("data", [[], "model", None, {"graph": {"vertices": [], "edges": []}}])
def test_model_json_must_be_an_object_with_its_keys(data):
    with pytest.raises(InputError) as info:
        SurfaceModel.from_json_dict(data)
    assert str(info.value) == \
        "model JSON must be an object with 'graph', 'minimal_filling_sets', 'admissible'"


def _forged(core, **fields) -> dict:
    return {**core.complex.to_json_dict(), **fields}


def test_core_json_of_the_wrong_shape_is_input_error(worked_core):
    data = worked_core.complex.to_json_dict()
    for forged, message in (
        ([], "invalid core JSON: list indices must be integers or slices, not str"),
        ({k: v for k, v in data.items() if k != "squares"}, "invalid core JSON: 'squares'"),
        (_forged(worked_core, edges=[[0, 0, 2]]),
         "invalid core JSON: not enough values to unpack (expected 4, got 3)"),
        (_forged(worked_core, squares=[[[0, [0, 0, 1], [1, 0]]]]),
         "invalid core JSON: too many values to unpack (expected 2)"),
    ):
        with pytest.raises(InputError) as info:
            LabeledCubeComplex.from_json_dict(forged)
        assert str(info.value) == message


def test_core_json_with_duplicate_edge_ids_is_input_error(worked_core):
    data = worked_core.complex.to_json_dict()
    edges = data["edges"]
    with pytest.raises(InputError) as info:
        LabeledCubeComplex.from_json_dict({**data, "edges": edges + edges[-1:]})
    assert str(info.value) == "invalid core JSON: duplicate edge ids"


def test_core_json_ids_must_be_json_integers(worked_core):
    """``int()`` once read ``true`` as the basepoint 1, 0.9 as 0, an
    endpoint of 2.7 as 2 and "3" as 3, and ``str()`` any label; the core
    with basepoint ``true`` passed the link check and called the generator
    ``b c a`` a non-member."""
    data = worked_core.complex.to_json_dict()
    edges, squares = data["edges"], data["squares"]
    ids = "invalid core JSON: ids and endpoints must be JSON integers, not "
    for fields, message in (
        ({"basepoint": True}, ids + "True"),
        ({"basepoint": 0.9}, ids + "0.9"),
        ({"basepoint": "0"}, ids + "'0'"),
        ({"vertices": [str(v) for v in data["vertices"]]}, ids + "'0'"),
        ({"edges": [[e, s, 2.7 if e == 0 else t, x] for e, s, t, x in edges]}, ids + "2.7"),
        ({"edges": [[False, *e[1:]] if e[0] == 0 else e for e in edges]}, ids + "False"),
        ({"squares": [[[1.0, *corner[1:]] for corner in sq] for sq in squares]}, ids + "1.0"),
        ({"squares": [[[c[0], [c[1][0], True], c[2]] for c in sq] for sq in squares]},
         ids + "True"),
        ({"edges": [[*e[:3], ["b"]] if e[0] == 0 else e for e in edges]},
         "invalid core JSON: edge labels must be JSON strings, not ['b']"),
    ):
        with pytest.raises(InputError) as info:
            LabeledCubeComplex.from_json_dict({**data, **fields})
        assert str(info.value) == message, fields


def test_a_core_file_with_a_boolean_basepoint_is_input_error(worked_core, tmp_path, capsys):
    path = tmp_path / "core.json"
    path.write_text(json.dumps(_forged(worked_core, basepoint=True)), encoding="utf-8")
    for argv in (["core", "check"], ["core", "member", "--word", "b c a"]):
        assert main([*argv, "--core", str(path)]) == 3, argv
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == \
            "error: invalid core JSON: ids and endpoints must be JSON integers, not True\n"


# -- preconditions of the core and word functions ---------------------------------------

def test_core_functions_require_a_subgroup_core(worked_core, abc_graph):
    with pytest.raises(ContractError) as info:
        membership(worked_core.complex, parse_word("b c a", abc_graph))
    assert str(info.value) == "expected a SubgroupCore, got LabeledCubeComplex"


def test_negative_length_caps_are_input_errors(worked_core):
    for call in (count_elements, enumerate_elements):
        with pytest.raises(InputError) as info:
            call(worked_core, -1)
        assert str(info.value) == "max_len must be >= 0"
        assert call(worked_core, 0) in (1, (normal_word_from_pairs([]),))
    with pytest.raises(InputError) as info:
        verify_star(family(4, 1), -1)
    assert str(info.value) == "k_max must be >= 0"


def test_subword_decompose_positions(path_graph):
    """p and q must be two distinct syllables of the word, given in either
    order: L commutes with the earlier one and R with the later one."""
    word = normal_word_from_pairs([("a", 1), ("c", 1), ("b", 1), ("d", 1)])
    for p, q, message in ((1, 1, "p and q must be distinct syllables"),
                          (1, 4, "p and q must be syllables of w"),
                          (-1, 1, "p and q must be syllables of w")):
        with pytest.raises(ContractError) as info:
            subword_decompose(word, p, q, path_graph)
        assert str(info.value) == message
    word = normal_word_from_pairs([("b", 1), ("a", 1), ("d", 1), ("c", 1)])
    left, right = subword_decompose(word, 0, 3, path_graph)
    assert (left.to_text(), right.to_text()) == ("a", "d")
    assert subword_decompose(word, 3, 0, path_graph) == (left, right)
    assert subword_decompose(word, word.syllables[3], word.syllables[0], path_graph) == \
        (left, right)


@pytest.mark.parametrize("value", ["a b", ("a", 1), None])
def test_a_value_that_is_no_word_is_a_type_error(abc_graph, value):
    with pytest.raises(TypeError) as info:
        normalize(value, abc_graph)
    assert str(info.value) == f"expected Word or NormalWord, got {type(value).__name__}"
