"""Spectral readout: simulated FID after a hard pi/2 pulse, spectrum
synthesis, and basis-state classification from peak signs.

Sign convention: |0> (spin up) gives a positive absorption peak, so the
thermal-like |0>|0> state shows two positive peaks. Dipolar coupling is
off during detection (MAS-averaged), so each spin contributes a single
line at its resonance offset.
"""

from dataclasses import dataclass

import numpy as np

from .operators import SPINS, expectation, spin_operator
from .propagator import rotation_unitary
from .units import angular_to_hz, number


# smallest |peak amplitude| that classify_state reads as a bit
CLASSIFY_THRESHOLD = 0.2
# the most points of an FID, checked before any is allocated
MAX_FID_POINTS = 2**20


class UnclassifiableStateError(ValueError):
    """A peak amplitude is below the classification threshold."""


@dataclass(frozen=True)
class Spectrum:
    """Signed stick spectrum; peaks are (offset_hz, amplitude) per spin."""

    peaks: tuple

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("offset_hz,amplitude\n")
            for off, amp in self.peaks:
                fh.write(f"{off:.12g},{amp:.12g}\n")


def stick_spectrum(rho, system):
    """Peak per spin at its offset, amplitude 2<I_z> (so +-1 for basis states)."""
    peaks = []
    for k, dw in enumerate(system.offsets):
        amp = 2.0 * expectation(rho, spin_operator(k, "z")).real
        peaks.append((angular_to_hz(dw), amp))
    return Spectrum(peaks=tuple(peaks))


def fid_points(duration, dwell):
    """round(duration / dwell), an FID's point count. A duration that is not
    a finite non-negative number of at most MAX_FID_POINTS dwells, or a dwell
    that is not a finite positive one, raises a ValueError that names it."""
    duration = number(duration, "duration", 0.0)
    dwell = number(dwell, "dwell", positive=True)
    # round(x) passes the (even) limit exactly when x > limit + 1/2, or x = inf
    if duration / dwell > MAX_FID_POINTS + 0.5:
        raise ValueError(f"duration must be at most {MAX_FID_POINTS} dwells of {dwell:g} s, "
                         f"got {duration:g} s")
    return int(round(duration / dwell))


def simulate_fid(rho, system, duration, dwell):
    """Complex FID after an ideal nonselective pi/2 pulse, of `fid_points`
    points.

    The register then precesses freely under its offsets only; the detected
    signal is <I_+ + S_+>(t). For |0>|0> this is
    (1/2)(e^{i dw_I t} + e^{i dw_S t}).
    """
    ts = np.arange(fid_points(duration, dwell)) * float(dwell)  # dwell, checked there
    u = rotation_unitary(SPINS, "y", np.pi / 2)
    rho = u @ np.asarray(rho, dtype=complex) @ u.conj().T
    amplitudes = [expectation(rho, spin_operator(k, "+")) for k in SPINS]
    fid = np.zeros(len(ts), dtype=complex)
    for amp, dw in zip(amplitudes, system.offsets):
        fid += amp * np.exp(1j * dw * ts)
    return fid


def classify_state(spectrum):
    """Basis-state label from peak signs: positive -> 0, negative -> 1.

    Returns the label as a string ordered |I>|S>, e.g. '01'. Raises
    UnclassifiableStateError when any |amplitude| falls below
    CLASSIFY_THRESHOLD.
    """
    bits = []
    for off, amp in spectrum.peaks:
        if abs(amp) < CLASSIFY_THRESHOLD:
            raise UnclassifiableStateError(
                f"peak at {off:.1f} Hz has amplitude {amp:.3f}, below "
                f"threshold {CLASSIFY_THRESHOLD}")
        bits.append("0" if amp > 0 else "1")
    return "".join(bits)


def fid_to_csv(fid, dwell, path):
    with open(path, "w") as fh:
        fh.write("t_s,re,im\n")
        for k, val in enumerate(fid.tolist()):
            fh.write(f"{k * dwell:.12g},{val.real:.12g},{val.imag:.12g}\n")
