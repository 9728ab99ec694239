"""Reference estimate writers: the one-shot writers the streamed ones replaced.

Kept only as a test oracle. Each builds the whole file as one string.
"""

from __future__ import annotations

import json

import numpy as np


def json_with_estimates(head: dict, graph, values: np.ndarray) -> str:
    """``json.dumps({**head, "estimates": {id: value}}, indent=1) + "\n"`` in one join."""
    text = json.dumps({**head, "estimates": {}}, indent=1)
    floats = json.dumps(values.tolist())[1:-1].split(", ")
    block = ",\n  ".join(f'"{i}": {x}' for i, x in zip(graph.orig_ids.tolist(), floats))
    return text[:-len("{}\n}")] + "{\n  " + block + "\n }\n}\n"


def estimates_text(graph, values: np.ndarray, fmt: str) -> str:
    """The whole estimates file of format ``fmt`` (json, tsv or csv)."""
    rows = zip(graph.orig_ids.tolist(), values.tolist())
    if fmt == "json":
        return json_with_estimates({}, graph, values)
    if fmt == "tsv":
        return "".join(f"{i}\t{x:.17g}\n" for i, x in rows)
    return "original_id,value\r\n" + "".join(f"{i},{x:.17g}\r\n" for i, x in rows)
