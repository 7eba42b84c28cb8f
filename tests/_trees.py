"""A node view of a PartitionTree's level-order rows, for tests that walk a tree node by node.

The library keeps a tree only as rows: node i's interval in row i of ends, its moment point in row i of
points, its children in rows 2i + 1 and 2i + 2.  node_view rebuilds the nested nodes those rows stand for,
the form the references are written over (a preorder digest, the depth-first build, the node-dict printer).
No Interval is made, so the rows may hold any floats.
"""

from typing import NamedTuple


class Ends(NamedTuple):
    """An interval's ends as the row holds them, unchecked."""

    a: float
    b: float

    @property
    def length(self) -> float:
        return self.b - self.a


class Node(NamedTuple):
    interval: Ends
    point: tuple[float, float]
    children: tuple["Node", ...] = ()


def node_view(ends, points) -> Node:
    """The root Node of level-order rows of ends and points (each (2^(depth+1) - 1, 2)), built from the leaves."""
    ivs, pts = [Ends(*row) for row in ends.tolist()], [tuple(row) for row in points.tolist()]
    lo = len(ivs) // 2  # the leaves
    nodes = list(map(Node, ivs[lo:], pts[lo:]))
    while lo:
        hi, lo = lo, lo // 2
        nodes = list(map(Node, ivs[lo:hi], pts[lo:hi], zip(nodes[0::2], nodes[1::2])))
    return nodes[0]


def walk(node: Node):
    """The node and its subtree in preorder."""
    yield node
    for child in node.children:
        yield from walk(child)
