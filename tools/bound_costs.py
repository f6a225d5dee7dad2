"""Time and memory of ``bit_bound(CLIQUE)`` on a few large graphs, one fresh process each.

    python3 tools/bound_costs.py

Runs from any directory and imports the package from the checkout the
script lives in (its ``src``).  Each graph gets a child process of its own,
so every bound is computed cold: the maximal cliques, the vertex monomials
and the depth pass all count.  The graphs are the seeded G(64, 1/2) and
G(128, 1/2) (``strip_stars(random_graph(n, 0.5, random.Random(n)))``) and
the complete multipartite graphs K_{3,...,3} with 8 and 10 parts, which have
3^8 and 3^10 maximal cliques.  Prints one line per graph: the bound, the
seconds ``bit_bound`` took and the child's peak resident set
(``ru_maxrss``).  Standard library only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

GRAPHS = ("gnp 64", "gnp 128", "parts 8", "parts 10")

CHILD = """
import json, random, resource, sys, time
import cliquegames as cg

shape, size = sys.argv[1], int(sys.argv[2])
if shape == "gnp":
    g = cg.strip_stars(cg.random_graph(size, 0.5, random.Random(size)))[0]
else:
    n = 3 * size
    g = cg.graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if u // 3 != v // 3])
start = time.perf_counter()
bound = cg.bit_bound(cg.CLIQUE, g)
seconds = time.perf_counter() - start
maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"n": g.n, "bound": bound, "seconds": seconds, "maxrss_mb": maxrss / 1024}))
"""


def main() -> int:
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    for graph in GRAPHS:
        shape, size = graph.split()
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, shape, size], env=env, capture_output=True, text=True
        )
        if proc.returncode != 0:
            print(f"{graph}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}", file=sys.stderr)
            return 1
        r = json.loads(proc.stdout)
        name = f"G({size}, 1/2)" if shape == "gnp" else f"K_3,...,3 ({size} parts)"
        print(f"{name:<22} n={r['n']:<4} bit_bound={r['bound']:<4} {r['seconds']:7.3f} s  {r['maxrss_mb']:7.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
