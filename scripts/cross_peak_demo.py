#!/usr/bin/env python3
"""Cross zero-quantum peaks between two frequency-labeled subsystems.

A 2+2 spin split with subsystem A labeled at 100 Hz and B at 60 Hz puts
all cross zero-quantum coherence at multiples of 40 Hz while every
subsystem-internal zero-quantum line stays at 0 Hz.  The excitation mixes
a marked-state zero-quantum term with a stronger oracle-independent term
on subsystem A; this script sweeps that dominance factor and reports the
cross-peak amplitudes relative to the 0 Hz line.  Only ratios are
reported; whether a given ratio is "strong enough" is left to the reader.
The transfer pair comes from `spinsearch.spectroscopy.spectrum_transfer`,
as in the `spectrum` command: this preset forms its U and V as dense
matrices.
"""

import numpy as np

from spinsearch.config import SpectrumConfig, parse
from spinsearch.spectroscopy import run_pipeline, spectrum, spectrum_transfer


def peak_table(dominance):
    cfg = parse(SpectrumConfig, {"preset": "cross-peak-demo", "dominance": dominance})
    p, q, _, _ = spectrum_transfer(cfg)
    spec = spectrum(run_pipeline(p, q, cfg.pipe), cfg.pipe.dt, label_omega=cfg.label_omega)
    return spec.peaks, cfg.label_omega / (2 * np.pi)


def main():
    for dominance in (1.0, 5.0, 20.0):
        peaks, delta = peak_table(dominance)
        zero = next(p for p in peaks if p.order == 0)
        print(f"\ndominance factor {dominance:>4.1f} (delta = {delta:.0f} Hz):")
        print(f"  {'order':>5} {'freq (Hz)':>10} {'|amplitude|':>13} {'vs 0 Hz line':>13}")
        for p in peaks:
            rel = abs(p.amplitude) / abs(zero.amplitude)
            print(
                f"  {p.order:>5} {p.frequency / (2 * np.pi):>10.1f} "
                f"{abs(p.amplitude):>13.4e} {rel:>13.4e}"
            )


if __name__ == "__main__":
    main()
