"""Set-up child: build a workload's input files with the splitfree library.

Usage: python3 perfbench/make_inputs.py <out_dir> <json list of [name, builder, *args]>

Runs in its own interpreter, so it also compiles and warms the package's
imports before any timed invocation.
"""

import json
import os
import sys

from splitfree import constructions as cons
from splitfree import graphs

BUILDERS = {
    "round_robin": lambda n: cons.round_robin_coloring(n),
    "c4pipeline": lambda n: cons.construct_c4_free_split(n),
    "affine": lambda p: cons.build_affine_split(p),
    "pruned_affine": lambda p: graphs.prune_to_split(cons.build_affine_split(p)),
    "star": lambda n, t: cons.build_star_free_split(n, t),
    "bipartite": lambda n: cons.build_bipartite_split(n),
}


def main() -> None:
    out_dir, jobs = sys.argv[1], json.loads(sys.argv[2])
    import splitfree.cli  # noqa: F401  (warm the import the timed children use)
    for name, builder, *args in jobs:
        obj = BUILDERS[builder](*args)
        path = os.path.join(out_dir, name)
        if isinstance(obj, cons.EdgeColoring):
            cons.write_coloring(obj, path)
        else:
            graphs.write_split(obj, path)


if __name__ == "__main__":
    main()
