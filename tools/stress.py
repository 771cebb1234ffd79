"""Robustness check: plan random Waxman networks across six parameter families.

    python3 tools/stress.py <seed>

Run it from the root of a checkout; the package is imported from the
checkout's ``src/``. One ``numpy.random.default_rng(seed)`` runs six
families (a, b, k), in the order of ``FAMILIES``, 300 trials t = 0-299
each. Per trial it draws, in this order, the node count n =
``integers(4, 14)``, the link probability p = 10^``uniform(a, 0)``, the
swap probability q = 10^``uniform(b, 0)``, the top capacity cap_hi =
``int(10**uniform(0, k))`` and the bottom capacity cap_lo =
``integers(1, cap_hi + 1)``, then builds ``generate_waxman(n, 0.8, 0.8,
cap_lo, cap_hi, p, q, seed=t)`` with three SD pairs
(``sample_sd_pairs(..., 3, seed=t)``); a draw the generator refuses
(`ValidationError`) is skipped. On one model per network it runs
``solve_max_total``, the reversed-order ``solve_lexicographic`` and, for
each SD pair, ``solve_lexicographic`` with that pair alone ranked first.
A network fails at its first `SolverError`.

It prints one line per failing network (family, trial and message), then
the failure and skip counts, one sha256 over the (family, trial,
message) triples and one sha256 over every plan's surpluses, in run
order. A change meant to keep plans prints the same plan digest; one
that only rewords errors keeps the failing networks and moves only the
failure digest. A seed takes about 30 s on a 2-core x86 host.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from entsched import (  # noqa: E402
    SolverError,
    ValidationError,
    build_mred,
    generate_waxman,
    sample_sd_pairs,
    solve_lexicographic,
    solve_max_total,
)

# (a, b, k): p in [10^a, 1], q in [10^b, 1], capacities up to 10^k
FAMILIES = ((-3, -3, 9), (-1, -1, 9), (-2, -2, 5), (-3, -3, 6), (-3, -3, 3), (-1, -1, 2))
TRIALS = 300


def plans(net):
    """Each plan of `net`, made on one model, in run order."""
    m = build_mred(net)
    yield solve_max_total(net, m)
    yield solve_lexicographic(net, net.sorted_sd[::-1], m)
    for sd in net.sorted_sd:
        yield solve_lexicographic(net, [sd], m)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.splitlines()[2].strip(), file=sys.stderr)
        return 1
    rng = np.random.default_rng(int(argv[0]))
    failures: list[tuple] = []
    skipped = 0
    surpluses = hashlib.sha256()
    for a, b, k in FAMILIES:
        for t in range(TRIALS):
            n = int(rng.integers(4, 14))
            p = 10 ** rng.uniform(a, 0)
            q = 10 ** rng.uniform(b, 0)
            cap_hi = int(10 ** rng.uniform(0, k))
            cap_lo = int(rng.integers(1, cap_hi + 1))
            try:
                net = sample_sd_pairs(generate_waxman(n, 0.8, 0.8, cap_lo, cap_hi, p, q, seed=t),
                                      3, seed=t)
            except ValidationError:
                skipped += 1
                continue
            try:
                for plan in plans(net):
                    eta = sorted((str(sd), v) for sd, v in plan.eta.items())
                    surpluses.update(json.dumps(eta).encode())
            except SolverError as exc:
                failures.append(((a, b, k), t, str(exc)))
                print(f"fail {(a, b, k)} trial {t}: {exc}", flush=True)
    print(f"{len(failures)} failing networks, {skipped} skipped")
    print(f"failures {hashlib.sha256(json.dumps(failures).encode()).hexdigest()}")
    print(f"plans {surpluses.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
