"""Command line of the bench tools; see the package docstring."""

import argparse
import sys

from bench import fingerprint


def main(argv=None):
    p = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    fp = sub.add_parser("fingerprint", help=fingerprint.__doc__.splitlines()[0])
    fp.add_argument("tree_a", help="source checkout holding src/sswim and perfbench/")
    fp.add_argument("tree_b", help="the checkout to compare against TREE_A")
    args = p.parse_args(argv)
    try:
        outputs = [fingerprint.collect(tree) for tree in (args.tree_a, args.tree_b)]
    except fingerprint.TreeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(fingerprint.format_table(fingerprint.compare(*outputs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
