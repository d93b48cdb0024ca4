"""Deep-tree regression: fit and traversals must survive chains.

``max_depth=None`` puts no bound on tree depth, so growing, ``depth()``,
``n_leaves()`` and prediction routing must not recurse -- a chain deeper
than Python's recursion limit would otherwise raise ``RecursionError``.
The traversal tests build the chain directly as pre-order node arrays
(several times deeper than the default limit); the fit test grows one
from an alternating-label staircase.
"""

import sys

import numpy as np

from repro.ml.tree import DecisionTreeClassifier

#: Deeper than any default recursion limit (CPython ships with 1000).
CHAIN_DEPTH = max(5000, sys.getrecursionlimit() * 3)


def _chain_tree(depth: int) -> DecisionTreeClassifier:
    """A pathological right-leaning chain: every split sheds one leaf.

    In pre-order, the split at level ``L`` is node ``2L``, its shed leaf
    node ``2L + 1`` and the terminal leaf node ``2 * depth``.  Thresholds
    descend with depth, so a sample with a large feature value is routed
    right through every split down to the terminal leaf.
    """
    n_nodes = 2 * depth + 1
    splits = np.arange(0, 2 * depth, 2)
    feature = np.full(n_nodes, -1, dtype=np.int64)
    feature[splits] = 0
    threshold = np.zeros(n_nodes)
    threshold[splits] = -np.arange(depth, dtype=float)
    children_left = np.full(n_nodes, -1, dtype=np.int64)
    children_left[splits] = splits + 1
    children_right = np.full(n_nodes, -1, dtype=np.int64)
    children_right[splits] = splits + 2
    class_counts = np.zeros((n_nodes, 2))
    class_counts[splits] = np.column_stack([depth - np.arange(depth), np.ones(depth)])
    class_counts[splits + 1] = [1.0, 0.0]
    class_counts[-1] = [0.0, 1.0]
    tree = DecisionTreeClassifier()
    tree.classes_ = np.array([0, 1])
    tree.n_features_in_ = 1
    tree.set_tree_arrays(
        {
            "feature": feature,
            "threshold": threshold,
            "children_left": children_left,
            "children_right": children_right,
            "class_counts": class_counts,
        }
    )
    return tree


class TestDeepChainTree:
    def test_depth_iterative(self):
        tree = _chain_tree(CHAIN_DEPTH)
        assert tree.depth() == CHAIN_DEPTH

    def test_n_leaves_iterative(self):
        tree = _chain_tree(CHAIN_DEPTH)
        # One shed leaf per split plus the terminal leaf.
        assert tree.n_leaves() == CHAIN_DEPTH + 1

    def test_predict_routes_through_whole_chain(self):
        tree = _chain_tree(CHAIN_DEPTH)
        # 1e9 exceeds every threshold: routed right down to the terminal
        # leaf; -1e9 exits left at the very first split.
        probabilities = tree.predict_proba(np.array([[1e9], [-1e9]]))
        assert np.array_equal(probabilities[0], [0.0, 1.0])
        assert np.array_equal(probabilities[1], [1.0, 0.0])

    def test_fit_grows_chain_deeper_than_recursion_limit(self):
        """Lockstep growth keeps pending nodes on a list: an alternating-label
        staircase forces the tree to peel one sample per level, far past
        the limit."""
        n = sys.getrecursionlimit() + 500
        X = np.arange(n, dtype=float).reshape(-1, 1)
        y = np.arange(n) % 2
        tree = DecisionTreeClassifier(max_depth=None).fit(X, y)
        assert tree.depth() == n - 1
        assert tree.n_leaves() == n
        assert tree.score(X, y) == 1.0

    def test_single_leaf_tree_depth_zero(self):
        tree = DecisionTreeClassifier()
        tree.classes_ = np.array([0])
        tree.n_features_in_ = 1
        tree.set_tree_arrays(
            {
                "feature": np.array([-1]),
                "threshold": np.array([0.0]),
                "children_left": np.array([-1]),
                "children_right": np.array([-1]),
                "class_counts": np.array([[3.0]]),
            }
        )
        assert tree.depth() == 0
        assert tree.n_leaves() == 1
