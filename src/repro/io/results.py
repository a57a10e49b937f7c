"""Experiment-result serialization.

Results produced by the experiment harnesses are simple dataclasses; these
helpers convert them (or any nesting of dataclasses, dicts, lists and
scalars) into JSON and back into plain dictionaries.  Deserialization is
deliberately schema-free — the benchmarks only need to archive and reload
numbers, not reconstruct typed objects.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Any, Union

import networkx as nx


def _to_jsonable(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {field.name: _to_jsonable(getattr(value, field.name)) for field in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(key): _to_jsonable(item) for key, item in value.items()}
    if isinstance(value, set):
        # Canonical order when the elements sort; insertion order otherwise.
        try:
            items = sorted(value)
        except TypeError:
            items = list(value)  # detlint: ignore[det-set-iteration] -- unsortable elements fall back to insertion order by design
        return [_to_jsonable(item) for item in items]
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(item) for item in value]
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    if isinstance(value, nx.Graph) and not value.is_directed():
        # Undirected graphs serialize canonically (sorted nodes/edges) —
        # this is what makes "byte-identical topology" a meaningful notion
        # for the equivalence tests.
        from repro.io.graphs import graph_to_dict

        return graph_to_dict(value)
    # Other heavyweight objects are summarized rather than dumped.
    return repr(value)


def results_to_json(result: Any, *, indent: int = 2) -> str:
    """Serialize an experiment result (dataclass tree) to a JSON string.

    Output is canonical: mapping keys are emitted sorted (``sort_keys``), so
    two structurally equal results serialize byte-identically regardless of
    dict insertion history.
    """
    return json.dumps(_to_jsonable(result), indent=indent, sort_keys=True)


def canonical_json(value: Any) -> str:
    """The compact canonical serialization of ``value`` (one line).

    Same conversion and key ordering as :func:`results_to_json`, but with
    all whitespace elided — the form used for cache keys and wire payloads,
    where two structurally equal values must map to the same string and
    every byte counts.
    """
    return json.dumps(_to_jsonable(value), sort_keys=True, separators=(",", ":"))


def results_from_json(payload: str) -> Any:
    """Parse a JSON string produced by :func:`results_to_json`."""
    return json.loads(payload)


def write_json(result: Any, path: Union[str, Path]) -> None:
    """Write an experiment result as JSON to ``path``."""
    Path(path).write_text(results_to_json(result), encoding="utf-8")


def read_json(path: Union[str, Path]) -> Any:
    """Read a JSON result file back into plain dictionaries/lists."""
    return results_from_json(Path(path).read_text(encoding="utf-8"))
