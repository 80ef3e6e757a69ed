"""Tools that measure a source tree of sswim from outside it.

    python -m bench fingerprint TREE_A TREE_B

Each tree is run in its own subprocess through its own ``perfbench``
workloads, which are imported read-only; nothing is written into a tree.
"""
