#!/usr/bin/env python3
"""How extra non-oracle selective phase shifts reshape the search readout.

The two-call search leaves per-spin z coefficients proportional to
eps_k * a_k(s).  Appending selective phase shifts for additional,
freely chosen indices r adds their sign vectors on top, so the readout
tracks a_k(s) + sum_r a_k(r): aligned choices enhance the signal,
misaligned ones cancel it, and either way the marked-state signs get
harder to isolate as more terms pile up.  No selection rule for the r's
is attempted here; this script only makes the trade visible.  Each
measured row is asserted to match its sum-vector prediction within
TOLERANCE.
"""

import numpy as np

from spinsearch.linalg import iz_diagonals, product_rotation
from spinsearch.oracle import MarkedState, sign_vector
from spinsearch.sequences import conjugate_multi_selective, initial_state

N_QUBITS = 3
MARKED = 5
THETA = -np.pi / 2
TOLERANCE = 1e-12  # on |measured - predicted|; the worst gap seen is 1.1e-16


def readout_with_extras(extra_indices):
    rho = initial_state(N_QUBITS, np.ones(N_QUBITS), "y")
    indices = [MARKED] + list(extra_indices)
    markeds = [MarkedState(s=r, n=N_QUBITS) for r in indices]
    rho = conjugate_multi_selective(rho, markeds, [THETA] * len(indices))
    pulse = product_rotation(N_QUBITS, "y", np.pi / 2)
    # the gradient crush and the zero-quantum dephase keep the diagonal,
    # which is all the z readout reads: the populations of the pulsed state
    populations = np.diag(pulse @ rho @ pulse.conj().T).real
    return iz_diagonals(N_QUBITS) @ populations / (2**N_QUBITS / 4)


def main():
    base = readout_with_extras([])
    scale = np.sin(THETA) * 2 / 2**N_QUBITS  # signed per-sign-unit coefficient
    a_s = sign_vector(MARKED, N_QUBITS)
    print(f"n={N_QUBITS}, marked s={MARKED}, signs {a_s}, theta={THETA:+.4f}")
    print(f"oracle-only coefficients: {np.round(base, 6)}  (scale {scale:+.4f})\n")

    cases = {
        "r=4: agrees on qubits 1,2; zeroes qubit 3": [4],
        "r=4 and r=7: triple-enhances qubit 1": [4, 7],
        "r=2 (complement of s): cancels every qubit": [2],
        "r=0..3: crowd of four extras": [0, 1, 2, 3],
    }
    print(f"{'extras':<60} {'coefficients':<34} sum-vector prediction")
    for label, extras in cases.items():
        got = readout_with_extras(extras)
        predicted = a_s + sum(sign_vector(r, N_QUBITS) for r in extras)
        pred_scaled = scale * predicted
        print(f"{label:<60} {np.round(got, 4)!s:<34} {np.round(pred_scaled, 4)}")
        gap = np.abs(got - pred_scaled).max()
        if gap > TOLERANCE:
            raise AssertionError(f"{label}: measured coefficients miss the sum-vector prediction by {gap:.2e}")
    print(
        "\nmeasured coefficients follow the summed sign vectors: parallel signs"
        " add, opposite signs cancel, and zero entries lose the marked-state"
        " information entirely."
    )


if __name__ == "__main__":
    main()
