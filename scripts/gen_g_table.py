"""Write src/miotcore/_g_table.py, the g table of miotcore.delay, from the march.

g(rho) is the sojourn-tail decay exponent of the M/D/1-PS queue, located
here by a backward march plus bisection (criticality_exponent).  The
table holds h(rho) = g(rho) / (1 - rho) at the Chebyshev-Lobatto nodes,
in logit(rho) on [1e-6, 0.995], of the one piece that
miotcore.delay.tail_exponent interpolates.  Each value is
criticality_exponent at that node divided by (1 - rho), written with
repr, so the table reproduces the march exactly.  The march is the
tests' oracle for the table as well; they import it from this script.

    python scripts/gen_g_table.py           # rewrite the table module
    python scripts/gen_g_table.py --check   # recompute; exit 1 if it differs

Either form marches every node, the costliest near rho 0.995 (about 35 s
there), and takes five to six minutes: --check took 4 min 56 s and
5 min 47 s in two runs on a 2-vCPU host.
"""

import argparse
import functools
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from miotcore.delay import g_table_node_rhos  # noqa: E402
from miotcore.errors import NumericalError, OverloadError  # noqa: E402

TABLE_PATH = os.path.join(ROOT, "src", "miotcore", "_g_table.py")

# nodes of the table.  64 already meet the tests' 1e-11 bound, but only
# just: 8.0e-12 off the march at rho 0.75, 6.0e-12 at 0.57, where the
# interpolation error still dominates.  88 bring that below the march's
# own resolution, within 8e-13 at off-node loads from 2e-6 to 0.99 (above
# 0.99 the bisection step of 8 * 2**-46 is about 1e-11 relative, as g
# falls below 0.01), at 1.6 us more per tail_exponent call than 64.
N_NODES = 88

# backward-march discretization: grid points per service time, domain cap
# for the marched value, and bisection steps on the exponent
_MARCH_GRID = 500
_MARCH_CAP = 50.0
_MARCH_BISECTIONS = 46

HEADER = '''"""h(rho) = g(rho) / (1 - rho) at the nodes of miotcore.delay's g table.

Generated by scripts/gen_g_table.py from its criticality march; do not
edit.  H runs in the node order of miotcore.delay.g_table_node_rhos.
"""
'''


def _stable_branch_root(rho) -> float:
    """Positive root of c = rho * (e^c - 1), the left-tail mode scale."""
    lo, hi = 1e-12, 700.0
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if mid - rho * math.expm1(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _march_decays(rho, s, per_d, n_periods, cap, thresh) -> bool:
    """March zeta(u) = s*c(u) + rho*Int_u^{u+1}(e^zeta - 1) right to left.

    Units of the service time: the window hat is c(u) = (1-|u|)+ and
    zeta = 0 for u >= 1.  Returns True when the marched solution decays
    toward 0 on the left tail instead of being attracted to the spurious
    constant branch (or blowing up), i.e. when s is below critical.
    """
    expm1 = math.expm1
    du = 1.0 / per_d
    n = (n_periods + 1) * per_d + 1
    kap = rho * du / 2.0
    rho_du = rho * du
    g = [0.0] * n
    suf = [0.0] * n
    z = 0.0
    for i in range(1, n):
        u = 1.0 - i * du
        c = 1.0 - (u if u >= 0.0 else -u)
        if c < 0.0:
            c = 0.0
        lo_idx = i - per_d
        if lo_idx >= 1:
            ssum = suf[i - 1] - suf[lo_idx - 1]
            far = g[lo_idx]
        else:
            ssum = suf[i - 1]
            far = 0.0
        a = s * c + rho_du * (ssum - 0.5 * far)
        if a > cap:
            return False
        z = a + kap * expm1(a)
        if z > cap:
            return False
        z = a + kap * expm1(z)
        if z > cap:
            return False
        z = a + kap * expm1(z)
        if z > cap:
            return False
        gi = expm1(z)
        g[i] = gi
        suf[i] = suf[i - 1] + gi
    return z < thresh


@functools.lru_cache(maxsize=256)
def criticality_exponent(rho) -> float:
    """Dimensionless sojourn-tail decay exponent g(rho) of the M/D/1-PS queue.

    gamma = g(rho) / D.  In virtual time the jobs sharing the server with
    a tagged job form a self-exciting cluster with box kernel rho*1[0,1];
    the tagged sojourn is 1 + sum of window overlaps c(p) = (1-|p|)+ over
    cluster points p, and its exponential moment generating function is
    finite exactly for s below the blow-up point of the fixed point
    zeta(u) = s*c(u) + rho*Int_u^{u+1}(e^zeta(w) - 1) dw.  That critical
    s is located by bisection on a backward march of the fixed point.
    """
    if not 0.0 < rho < 1.0:
        raise OverloadError(f"rho={rho:.6g} outside (0, 1)",
                            min_capacity_multiplier=rho if rho >= 1 else None)
    branch = _stable_branch_root(rho)
    thresh = 0.5 * min(branch, _MARCH_CAP)
    # long enough that g no longer moves with n_periods: within 7e-13 of a
    # 40 / branch march at rho 0.75 to 0.95, where 16 / branch was off by
    # up to 1.1e-7 and stepped wherever n_periods changed
    n_periods = max(32, int(math.ceil(28.0 / branch)))
    lo, hi = 1e-6, max(8.0, 2.0 * -math.log(rho))
    if not _march_decays(rho, lo, _MARCH_GRID, n_periods, _MARCH_CAP, thresh):
        raise NumericalError(f"march diverges at s={lo} for rho={rho}")
    if _march_decays(rho, hi, _MARCH_GRID, n_periods, _MARCH_CAP, thresh):
        raise NumericalError(f"march decays at s={hi} for rho={rho}")
    for _ in range(_MARCH_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if _march_decays(rho, mid, _MARCH_GRID, n_periods, _MARCH_CAP, thresh):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _values(name, rhos):
    lines = [f"{name} = ("]
    for rho in rhos:
        lines.append(f"    {criticality_exponent(rho) / (1.0 - rho)!r},")
        print(f"{name} rho={rho:.6g}", file=sys.stderr, flush=True)
    lines.append(")")
    return "\n".join(lines)


def render():
    return "\n".join([HEADER, _values("H", g_table_node_rhos(N_NODES)), ""])


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
