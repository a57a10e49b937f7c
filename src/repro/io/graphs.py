"""Graph serialization helpers."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

import networkx as nx


def graph_to_dict(graph: nx.Graph) -> Dict:
    """A JSON-serializable representation of a graph (nodes, positions, edges).

    The representation is *canonical*: nodes are listed in sorted order and
    edges as sorted ``(min, max)`` endpoint pairs, so two graphs with the
    same nodes, edges and attributes serialize byte-identically regardless
    of insertion history.  The byte-identity contracts (serial vs sharded,
    maintained vs fresh) are defined through this form.
    """
    return {
        "nodes": [
            {
                "id": int(node),
                "pos": list(map(float, graph.nodes[node]["pos"]))
                if "pos" in graph.nodes[node]
                else None,
            }
            for node in sorted(graph.nodes)
        ],
        "edges": [
            {
                "u": int(u),
                "v": int(v),
                "length": float(graph[u][v]["length"]) if "length" in graph[u][v] else None,
            }
            for u, v in sorted((min(a, b), max(a, b)) for a, b in graph.edges)
        ],
    }


def graph_from_dict(payload: Dict) -> nx.Graph:
    """Rebuild a graph from :func:`graph_to_dict` output."""
    graph = nx.Graph()
    for node in payload.get("nodes", []):
        attrs = {}
        if node.get("pos") is not None:
            attrs["pos"] = tuple(node["pos"])
        graph.add_node(node["id"], **attrs)
    for edge in payload.get("edges", []):
        attrs = {}
        if edge.get("length") is not None:
            attrs["length"] = edge["length"]
        graph.add_edge(edge["u"], edge["v"], **attrs)
    return graph


def write_edge_list(graph: nx.Graph, path: Union[str, Path]) -> None:
    """Write a graph as JSON to ``path``."""
    Path(path).write_text(json.dumps(graph_to_dict(graph), indent=2), encoding="utf-8")


def read_edge_list(path: Union[str, Path]) -> nx.Graph:
    """Read a graph written by :func:`write_edge_list`."""
    return graph_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
