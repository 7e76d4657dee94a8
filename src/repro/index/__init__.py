"""Hierarchical spatial index (kd-tree) with per-node bound aggregates."""

from repro.index.rectangle import Rectangle
from repro.index.kdtree import KDTree, KDTreeNode

__all__ = ["Rectangle", "KDTree", "KDTreeNode"]
