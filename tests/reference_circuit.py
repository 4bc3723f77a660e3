"""The paper's teleportation circuit, gate by gate, on one (D, D, D) register.

``reg[b, m, j]`` holds the amplitude of |b>|m>|j>: b is the receiver's half
of the channel, m the sender's half and j the unknown input.  The sender
and receiver share sum_m a_m |m>|m>, the sender half controls a
generalized XOR on the input, the maximum-confidence filters act on the
sender half, the sender reads out (in the Fourier basis, or directly for
the ``guess`` fallback) and the receiver applies X^-k Z^l.  The roots of
unity come from ``np.fft``, not from the package's tables, so a fault in
those tables cannot cancel here.
"""

import numpy as np

from mcteleport import build_stage_plan


def roots(D):
    """roots[l, n] = exp(2 pi i l n / D); row l is the diagonal of Z^l."""
    return np.fft.fft(np.eye(D)).conj()


def dft(D):
    """The Fourier matrix F[m, n] = exp(2 pi i m n / D) / sqrt(D)."""
    return roots(D) / np.sqrt(D)


def family_states(e, D):
    """Row l is psi_l = Z^l sum_m e_m |m>, l = 0..D-1: the symmetric family
    of the coefficients ``e`` (at most D of them)."""
    psi = np.zeros((D, D), dtype=complex)
    psi[:, :len(e)] = roots(D)[:, :len(e)] * e
    return psi


def gxor(reg):
    """|m>|j> -> |m>|m - j mod D> on the sender half and the input."""
    j = np.arange(reg.shape[0])
    return reg[:, j[:, None], (j[:, None] - j) % j.size]


def post_shift(coeffs, psi):
    """The register after the controlled shift, for Schmidt coefficients
    ``coeffs`` (at most D of them) and input amplitudes ``psi``."""
    m = np.arange(len(coeffs))
    reg = np.zeros((psi.size,) * 3, dtype=complex)
    reg[m, m] = np.multiply.outer(coeffs, psi)
    return gxor(reg)


def kraus_filter(reg, ks, kf, rng):
    """The filter diag(ks), diag(kf) on the sender half: (passed, collapsed
    register, probability of the branch taken)."""
    passed = reg * ks[:, None]
    p = np.vdot(passed, passed).real
    if rng.random() < p:
        return True, passed / np.sqrt(p), p
    failed = reg * kf[:, None]
    p = np.vdot(failed, failed).real
    return False, failed / np.sqrt(p), p


def measure(reg, axis, rng):
    """Computational readout of one axis: (outcome, collapsed register,
    probability of the outcome)."""
    probs = (np.abs(np.moveaxis(reg, axis, 0)) ** 2).sum(axis=(1, 2))
    cum = np.cumsum(probs)
    outcome = min(int(np.searchsorted(cum, rng.random() * cum[-1], side="right")), cum.size - 1)
    keep = np.zeros(probs.size)
    keep[outcome] = 1 / np.sqrt(probs[outcome])
    collapsed = reg * np.expand_dims(keep, [a for a in range(3) if a != axis])
    return outcome, collapsed, probs[outcome]


def correct(v, k, l=0):
    """X^-k Z^l v: the phases of Z^l, then a cyclic shift down by k."""
    return np.roll(roots(v.size)[l] * v, -k)


def run(channel, psi, cfg, rng, rotate=np.matmul):
    """One run: (end class, sender outcomes, receiver amplitudes).  The end
    class is s - 1 for a run conclusive at stage s, else k_max (0 for the
    deterministic strategy); a discarded attempt has outcomes (-1, -1) and
    no amplitudes.  ``rotate(finv, reg)`` applies F^+ to the sender half."""
    D = channel.D
    reg = post_shift(channel.coeffs, psi)
    end, conclusive = 0, cfg.kind != "mc-smc"
    if not conclusive:
        plan = build_stage_plan(channel)
        end = cfg.k_max
        for stage in range(cfg.k_max):
            conclusive, reg, _ = kraus_filter(reg, plan.K_s[stage], plan.K_f[stage], rng)
            if conclusive:
                end = stage
                break
    me = conclusive or cfg.fallback == "me"
    if not me and cfg.fallback == "discard":
        return end, (-1, -1), None
    if me:
        reg = rotate(dft(D).conj().T, reg)
    l, reg, _ = measure(reg, 1, rng)
    k, reg, _ = measure(reg, 2, rng)
    return end, (l, k), correct(reg[:, l, k], k, l if me else 0)


def fidelity(a, b):
    """Pure-state fidelity |<a|b>|^2 of two amplitude vectors."""
    return float(np.abs(np.vdot(a, b)) ** 2)
