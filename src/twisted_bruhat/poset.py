"""Finite graded posets (Hasse DAGs) with DOT and JSON-lines export."""

from __future__ import annotations

import json
from typing import NamedTuple


class PosetNode(NamedTuple):
    key: object  # hashable element handle
    grade: int
    label: str


class PosetEdge(NamedTuple):
    lower: object
    upper: object
    reflection: str  # label of the covering reflection ('' if not applicable)
    kind: str = "strong"  # 'weak' edges are also weak-order covers


class GradedPoset:
    def __init__(self, nodes=None, edges=None):
        self.nodes = [] if nodes is None else nodes
        self.edges = [] if edges is None else edges

    def __eq__(self, other):
        if not isinstance(other, GradedPoset):
            return NotImplemented
        return (self.nodes, self.edges) == (other.nodes, other.edges)

    def grading(self) -> dict:
        return {n.key: n.grade for n in self.nodes}

    def labels(self) -> dict:
        return {n.key: n.label for n in self.nodes}

    def keys(self):
        return [n.key for n in self.nodes]

    def check_grading(self) -> bool:
        """Every Hasse edge must raise the grade by exactly 1."""
        g = self.grading()
        return all(g[e.upper] - g[e.lower] == 1 for e in self.edges)

    # ----- export ------------------------------------------------------

    def to_dot(self, name="poset") -> str:
        lines = [f"digraph {name} {{", "  rankdir=BT;"]
        ids = {n.key: f"n{i}" for i, n in enumerate(self.nodes)}
        by_grade = {}
        for n in self.nodes:
            by_grade.setdefault(n.grade, []).append(n)
            lines.append(
                f'  {ids[n.key]} [label="{n.label}\\n{n.grade}"];'
            )
        for g in sorted(by_grade):
            group = " ".join(ids[n.key] + ";" for n in by_grade[g])
            lines.append(f"  {{ rank=same; {group} }}")
        for e in self.edges:
            color = "black" if e.kind == "weak" else "blue"
            attr = f'[color={color}'
            if e.reflection:
                attr += f', label="{e.reflection}"'
            attr += "]"
            lines.append(f"  {ids[e.lower]} -> {ids[e.upper]} {attr};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_jsonl(self) -> str:
        lines = []
        for n in self.nodes:
            lines.append(
                json.dumps(
                    {"type": "node", "label": n.label, "grade": n.grade},
                    sort_keys=True,
                )
            )
        labels = self.labels()
        for e in self.edges:
            lines.append(
                json.dumps(
                    {
                        "type": "edge",
                        "lower": labels[e.lower],
                        "upper": labels[e.upper],
                        "reflection": e.reflection,
                        "kind": e.kind,
                    },
                    sort_keys=True,
                )
            )
        return "\n".join(lines) + "\n"


def parse_jsonl(text: str):
    """Round-trip parse of to_jsonl output: returns (node records, edge records)."""
    nodes, edges = [], []
    for line in text.strip().splitlines():
        rec = json.loads(line)
        (nodes if rec["type"] == "node" else edges).append(rec)
    return nodes, edges
