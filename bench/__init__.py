"""Tools that measure a source tree of sswim from outside it.

    python -m bench fingerprint TREE_A TREE_B
    python -m bench compare TREE_A TREE_B --workload W --seeds S [S ...]

Each tree is run in its own subprocess through its own ``perfbench``
harness and workloads, which are imported read-only; beyond the model files
``perfbench/run.py`` itself writes under ``perfbench/out/``, nothing is
written into a tree.
"""
