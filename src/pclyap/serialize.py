"""JSON and CSV wire formats.

Graph JSON:        {"alphabet": M, "nodes": ["a", ...], "edges": [["a", "b", 1], ...]}
Matrix set JSON:   {"n": 3, "matrices": [[[...], [...], [...]], ...]}
Certificate JSON:  {"flavor": "dual", "gamma": 1.25, "vectors": {"a": [...], ...}}

Structured node identities serialize as strings: multiset "{a,a}", subset
"{a,b}", composition "a∘1", word "(1,2)".
"""

from __future__ import annotations

import json

import numpy as np

from .copositive import Certificate, MatrixSet
from .graphs import LabeledGraph, make_graph, parse_node_id


def graph_to_dict(g: LabeledGraph) -> dict:
    return {
        "alphabet": g.alphabet_size,
        "nodes": list(g.nodes),
        "edges": [list(e) for e in g.edges],
    }


def _node_ids(names, field) -> list:
    """The nodes ``names`` spell; two names of one node raise ``ValueError``."""
    spelling = {}
    for s in names:
        node = parse_node_id(s)
        if node in spelling:
            raise ValueError(f"{field} give node {node} twice, as {spelling[node]!r} and {s!r}")
        spelling[node] = s
    return list(spelling)


def graph_from_dict(data: dict) -> LabeledGraph:
    """``nodes`` and ``edges`` must be lists, every edge a list
    ``[src, dst, label]``, and every node named once in ``nodes``."""
    try:
        alphabet, nodes, edges = data["alphabet"], data["nodes"], data["edges"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed graph JSON: {exc}") from exc
    for name, value in (("nodes", nodes), ("edges", edges)):
        if type(value) is not list:
            raise ValueError(f"graph JSON field {name!r} must be a list, "
                             f"got {type(value).__name__}")
    for k, edge in enumerate(edges):
        if type(edge) is not list or len(edge) != 3:
            raise ValueError(f"graph JSON field 'edges' entry {k} must be a list "
                             f"[src, dst, label], got {edge!r}")
    return make_graph(alphabet, _node_ids(nodes, "graph nodes"),
                      [(parse_node_id(a), parse_node_id(b), i) for a, b, i in edges])


def matrix_set_to_dict(mats: MatrixSet) -> dict:
    return {"n": mats.n, "matrices": [m.tolist() for m in mats.matrices]}


def matrix_set_from_dict(data: dict) -> MatrixSet:
    """``n`` must be an ``int`` and every entry an ``int`` or ``float``."""
    try:
        n = data["n"]
        entries = [x for m in data["matrices"] for row in m for x in row]
        mats = [np.asarray(m, dtype=float) for m in data["matrices"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed matrix-set JSON: {exc}") from exc
    if type(n) is not int:
        raise ValueError(f"n must be an integer, got {n!r}")
    bad = [x for x in entries if type(x) not in (int, float)]
    if bad:
        raise ValueError(f"matrix entry must be a number, got {bad[0]!r}")
    for m in mats:
        if m.shape != (n, n):
            raise ValueError(f"matrix shape {m.shape} does not match n={n}")
    return MatrixSet.from_matrices(mats)


def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "flavor": cert.flavor,
        "gamma": cert.gamma,
        "vectors": {s: v.tolist() for s, v in cert.vectors.items()},
    }


def certificate_from_dict(data: dict) -> Certificate:
    """``gamma`` and every vector entry must be an ``int`` or ``float``, and
    no two keys of ``vectors`` may spell one node (``{a,b}`` and ``{b,a}``)."""
    try:
        gamma = data["gamma"]
        vectors = dict(zip(_node_ids(data["vectors"], "certificate vectors"),
                           data["vectors"].values()))
        entries = [gamma] + [x for v in vectors.values() for x in v]
        bad = [x for x in entries if type(x) not in (int, float)]
        if bad:
            raise ValueError(f"certificate entry must be a number, got {bad[0]!r}")
        return Certificate(data["flavor"], float(gamma), vectors)
    except (KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed certificate JSON: {exc}") from exc


def dumps(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_json(path: str) -> dict:
    """Read a JSON file, rephrasing parse failures with line/column info."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
