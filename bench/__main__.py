"""Command line of the bench tools; see the package docstring."""

import argparse
import sys

from bench import compare, fingerprint


def main(argv=None):
    p = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, module in (("fingerprint", fingerprint), ("compare", compare)):
        cmd = sub.add_parser(name, help=module.__doc__.splitlines()[0])
        cmd.add_argument("tree_a", help="source checkout holding src/sswim and perfbench/")
        cmd.add_argument("tree_b", help="the checkout to compare against TREE_A")
    cmp = sub.choices["compare"]
    cmp.add_argument("--workload", required=True, help="a workload of perfbench/workloads.py")
    cmp.add_argument("--seeds", type=int, nargs="+", required=True,
                     help="one pair of runs per seed")
    args = p.parse_args(argv)
    try:
        if args.command == "compare":
            print(compare.main(args.tree_a, args.tree_b, args.workload, args.seeds))
            return 0
        outputs = [fingerprint.collect(tree) for tree in (args.tree_a, args.tree_b)]
    except fingerprint.TreeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(fingerprint.format_table(fingerprint.compare(*outputs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
