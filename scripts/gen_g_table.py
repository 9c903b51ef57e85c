"""Write src/miotcore/_g_table.py, the g table of miotcore.delay, from the march.

The table holds h(rho) = g(rho) / (1 - rho) at the Chebyshev-Lobatto nodes
of the two pieces that miotcore.delay.tail_exponent interpolates.  Each
value is the packaged criticality_exponent at that node divided by
(1 - rho), written with repr, so the table reproduces the march exactly.

    python scripts/gen_g_table.py           # rewrite the table module
    python scripts/gen_g_table.py --check   # recompute; exit 1 if it differs

Either form marches every node, the costliest near rho 0.995, and takes
a few minutes.
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from miotcore.delay import criticality_exponent, g_table_node_rhos  # noqa: E402

TABLE_PATH = os.path.join(ROOT, "src", "miotcore", "_g_table.py")

# nodes per piece: 52 put the low piece within 1e-12 of the march; the
# high piece cannot beat the march's own 4e-8 steps, which 16 reach
N_LOW = 52
N_HIGH = 16

HEADER = '''"""h(rho) = g(rho) / (1 - rho) at the nodes of miotcore.delay's g table.

Generated by scripts/gen_g_table.py from criticality_exponent; do not edit.
H_LOW runs over the low piece and H_HIGH over the high piece, each in the
node order of miotcore.delay.g_table_node_rhos.
"""
'''


def _values(name, rhos):
    lines = [f"{name} = ("]
    for rho in rhos:
        lines.append(f"    {criticality_exponent(rho) / (1.0 - rho)!r},")
        print(f"{name} rho={rho:.6f}", file=sys.stderr, flush=True)
    lines.append(")")
    return "\n".join(lines)


def render():
    low, high = g_table_node_rhos(N_LOW, N_HIGH)
    return "\n".join([HEADER, _values("H_LOW", low), _values("H_HIGH", high), ""])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed table instead of writing")
    args = parser.parse_args(argv)
    text = render()
    if args.check:
        with open(TABLE_PATH) as fh:
            same = fh.read() == text
        print("g table matches the march" if same else
              "g table differs from the march; rerun without --check")
        return 0 if same else 1
    with open(TABLE_PATH, "w") as fh:
        fh.write(text)
    print(f"wrote {TABLE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
