#!/usr/bin/env python3
"""Tabulate CNOT and qubit costs of the two encodings across color bounds.

Prints closed-form counts for sparse instances (m = n) together with the
crossover verdict of the published qubit inequality, and cross-checks a
few rows against the expansion oracle.
"""

from __future__ import annotations

import argparse

from qpart.gates import cnot_count_log_closed, cnot_count_onehot_closed, cnot_count_oracle
from qpart.graphs import generate_random_connected
from qpart.logenc import bits_for_colors, encode_mgc_log
from qpart.onehot import encode_mgc_onehot
from qpart.quadratize import qubit_advantage_predicate


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=40, help="vertices (edges set equal)")
    ap.add_argument("--colors", default="4,8,16,32,64", help="comma-separated color bounds")
    args = ap.parse_args()
    if args.n < 3:
        ap.error("--n must be at least 3: a simple graph on fewer vertices has fewer than n edges")

    n = m = args.n
    print(f"n = m = {n}")
    header = f"{'c':>4} {'L':>3} {'cnot_onehot':>12} {'cnot_log':>10} {'ratio':>7} {'qubits_log':>11} {'qubits_1hot':>12} {'advantage':>9}"
    print(header)
    for c in (int(x) for x in args.colors.split(",")):
        l = bits_for_colors(c)
        onehot = cnot_count_onehot_closed(n, m, c)
        log = cnot_count_log_closed(m, l)
        advantage, log_q, onehot_q = qubit_advantage_predicate(n, m, c)
        print(
            f"{c:>4} {l:>3} {onehot:>12} {log:>10} {onehot / log:>7.2f} "
            f"{log_q:>11} {onehot_q:>12} {str(advantage):>9}"
        )

    print("\noracle cross-check on a random sparse instance:")
    g = generate_random_connected(8, 0.3, 1)
    for c in (2, 4):
        oh = encode_mgc_onehot(g, c)
        lg = encode_mgc_log(g, c)
        print(
            f"  c={c}: onehot oracle {cnot_count_oracle(oh.polynomial).cnot_count} "
            f"(closed {cnot_count_onehot_closed(g.n, g.m, c)}), "
            f"log oracle {cnot_count_oracle(lg.polynomial).cnot_count} "
            f"(closed {cnot_count_log_closed(g.m, lg.meta['L'])})"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
