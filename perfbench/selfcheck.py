"""Second, independent evaluation of every closed form the benchmark uses.

``check_references()`` runs before any timing: it recomputes the closed
forms of ``closed_forms`` at a few points by another route, in mpmath at
25 digits, so that a wrong reference cannot pass for a fault of the program.

- P_s and Q: the Cahill-Glauber sum over Fock levels,
  P_s(g) = 2/(pi(1-s)) sum_n u^n <n|D(-g) rho D(-g)^dag|n>, u = (s+1)/(s-1),
  with displaced Fock amplitudes from D(z)|k> = (a^dag - z*)^k |z> / sqrt(k!).
- Q also as <g|rho|g>/pi summed over Fock levels.
- Quadrature marginals: sum over Fock levels of rho_mn <x|m><n|x> with
  mpmath's Hermite polynomials.
- Two-mode splitting amplitudes and the binomial loss: the exponential of
  the complete number-conserving generator block, U = exp(sum g_jk a_j^dag a_k)
  with g = log M.

Run as a script it also runs one round of each workload against the
program, and each workload's reference kernel (``calibrate``), as the
benchmark's own test:

    python3 perfbench/selfcheck.py
"""
from __future__ import annotations

import shutil
import sys

import mpmath as mp

mp.mp.dps = 25
TOL = 1e-12
NMAX = 70


def _coherent(alpha, nmax=NMAX):
    alpha = mp.mpc(alpha)
    return [mp.exp(-abs(alpha) ** 2 / 2) * alpha**n / mp.sqrt(mp.factorial(n)) for n in range(nmax)]


def _displaced_columns(z, kmax, nmax=NMAX):
    """<n|D(z)|k> for k < kmax, n < nmax, from D(z)|k> = (a^dag - z*)^k |z> / sqrt(k!)
    applied one creation at a time."""
    col = _coherent(z, nmax)
    cols = [col]
    zc = mp.conj(mp.mpc(z))
    for k in range(1, kmax):
        col = [((mp.sqrt(n) * col[n - 1] if n else 0) - zc * col[n]) / mp.sqrt(k)
               for n in range(nmax)]
        cols.append(col)
    return cols


def _pure_coherent_sum(coeffs, alphas, gamma, nmax=NMAX):
    """Fock amplitudes of D(-gamma) sum_j c_j |a_j>."""
    g = mp.mpc(gamma)
    vec = [mp.mpc(0)] * nmax
    for c, a in zip(coeffs, alphas):
        a = mp.mpc(a)
        phase = mp.exp((-g * mp.conj(a) + mp.conj(g) * a) / 2)
        for n, amp in enumerate(_coherent(a - g, nmax)):
            vec[n] += mp.mpc(c) * phase * amp
    return vec


def cahill_pure(coeffs, alphas, gamma, s):
    u = (mp.mpf(s) + 1) / (mp.mpf(s) - 1)
    vec = _pure_coherent_sum(coeffs, alphas, gamma)
    return 2 / (mp.pi * (1 - mp.mpf(s))) * sum(u**n * abs(v) ** 2 for n, v in enumerate(vec))


def cahill_diagonal(pops, gamma, s):
    u = (mp.mpf(s) + 1) / (mp.mpf(s) - 1)
    total = mp.mpf(0)
    for p, amps in zip(pops, _displaced_columns(-mp.mpc(gamma), len(pops))):
        total += mp.mpf(p) * sum(u**n * abs(a) ** 2 for n, a in enumerate(amps))
    return 2 / (mp.pi * (1 - mp.mpf(s))) * total


def husimi_fock(psi_or_pops, gamma, pure):
    coh = _coherent(gamma, len(psi_or_pops))
    if pure:
        return abs(sum(mp.conj(c) * p for c, p in zip(coh, psi_or_pops))) ** 2 / mp.pi
    return sum(mp.mpf(p) * abs(c) ** 2 for c, p in zip(coh, psi_or_pops)) / mp.pi


def _hermite_fn(n, x):
    x = mp.mpf(x)
    return ((2 / mp.pi) ** mp.mpf(0.25) * mp.hermite(n, mp.sqrt(2) * x) * mp.exp(-x * x)
            / mp.sqrt(2**n * mp.factorial(n)))


def marginal_fock(psi_or_pops, x, phase, pure):
    if pure:
        acc = sum(mp.mpc(p) * mp.expj(-n * phase) * _hermite_fn(n, x)
                  for n, p in enumerate(psi_or_pops))
        return abs(acc) ** 2
    return sum(mp.mpf(p) * _hermite_fn(n, x) ** 2 for n, p in enumerate(psi_or_pops))


def _mp_psi(coeffs, alphas, nmax=NMAX):
    psi = [mp.mpc(0)] * nmax
    for c, a in zip(coeffs, alphas):
        for n, amp in enumerate(_coherent(a, nmax)):
            psi[n] += mp.mpc(c) * amp
    return psi


def splitter_log(t, r):
    return mp.logm(mp.matrix([[t, r], [-mp.conj(r), mp.conj(t)]]))


def block_unitary_column(n1, n2, g):
    """Column |n1, n2> of exp(G) on the complete block N = n1 + n2, basis |k, N-k>,
    for the generator G = sum g_jk a_j^dag a_k."""
    big_n = n1 + n2
    gen = mp.zeros(big_n + 1, big_n + 1)
    for k in range(big_n + 1):
        gen[k, k] = g[0, 0] * k + g[1, 1] * (big_n - k)
        if k < big_n:  # a1^dag a2 |k, N-k> = sqrt((k+1)(N-k)) |k+1, N-k-1>
            gen[k + 1, k] = g[0, 1] * mp.sqrt((k + 1) * (big_n - k))
        if k > 0:  # a2^dag a1 |k, N-k> = sqrt(k(N-k+1)) |k-1, N-k+1>
            gen[k - 1, k] = g[1, 0] * mp.sqrt(k * (big_n - k + 1))
    u = mp.expm(gen)
    return [u[k, n1] for k in range(big_n + 1)]


def check_references() -> float:
    """Worst discrepancy between each closed form and its second evaluation;
    raises AssertionError above TOL."""
    import numpy as np

    import closed_forms as cfm

    worst = {}

    def compare(name, fast, slow):
        d = abs(complex(fast) - complex(slow))
        worst[name] = max(worst.get(name, 0.0), d)

    gammas = (0.7 - 0.3j, -1.1 + 0.9j)
    coh_a = 1.3 * np.exp(0.5j)
    cat_a = [1.1 * np.exp(0.3j), -1.1 * np.exp(0.3j)]
    cat_c = cfm.superposition_vector([1.0, 0.6 * np.exp(0.8j)], cat_a, 2)[1]
    thermal = 0.3
    th_pops = [float(p) for p in cfm.geometric_populations(thermal, 26)]
    lossy = [float(p) for p in cfm.binomial_populations(3, 0.6)]
    for g in gammas:
        for s in (0.0, -0.45):
            compare("P_s coherent", cfm.ps_coherent(np.array(g), coh_a, s),
                    cahill_pure([1.0], [coh_a], g, s))
            compare("P_s superposition", cfm.ps_superposition(np.array(g), cat_c, cat_a, s),
                    cahill_pure(cat_c, cat_a, g, s))
            compare("P_s Fock mixture", cfm.ps_diagonal(np.array(g), lossy, s),
                    cahill_diagonal(lossy, g, s))
        compare("P_s thermal", cfm.ps_thermal(np.array(g), thermal, -0.5),
                cahill_diagonal(th_pops, g, -0.5))
        compare("Q coherent", cfm.ps_coherent(np.array(g), coh_a, -1.0),
                husimi_fock(_mp_psi([1.0], [coh_a]), g, True))
        compare("Q superposition", cfm.ps_superposition(np.array(g), cat_c, cat_a, -1.0),
                husimi_fock(_mp_psi(cat_c, cat_a), g, True))
        compare("Q thermal", cfm.ps_thermal(np.array(g), thermal, -1.0),
                husimi_fock(th_pops, g, False))
        compare("Q Fock mixture", cfm.ps_diagonal(np.array(g), lossy, -1.0),
                husimi_fock(lossy, g, False))
    for x in (-0.4, 0.9):
        phase = 0.7
        compare("marginal coherent", cfm.marginal_gaussian(
            np.array(x), (coh_a * np.exp(-1j * phase)).real, 0.25),
            marginal_fock(_mp_psi([1.0], [coh_a]), x, phase, True))
        compare("marginal superposition", cfm.marginal_superposition(
            np.array(x), cat_c, cat_a, phase), marginal_fock(_mp_psi(cat_c, cat_a), x, phase, True))
        compare("marginal thermal", cfm.marginal_gaussian(np.array(x), 0.0, (2 * thermal + 1) / 4),
                marginal_fock(th_pops, x, phase, False))
        compare("marginal Fock mixture", cfm.marginal_diagonal(np.array([x]), lossy)[0],
                marginal_fock(lossy, x, phase, False))
    t, r = 0.6 * np.exp(0.4j), 0.8 * np.exp(-1.1j)
    g = splitter_log(t, r)
    for n1, n2 in ((1, 1), (2, 3), (3, 5)):
        for fast, slow in zip(cfm.split_fock(n1, n2, t, r), block_unitary_column(n1, n2, g)):
            compare("two-mode Fock splitting", fast, slow)
    psi = np.array([0.5, 0.3 - 0.2j, 0.1j, -0.4, 0.25 + 0.1j])
    psi /= np.linalg.norm(psi)
    dim = len(psi)
    fast = cfm.lossy_state(np.outer(psi, psi.conj()), t)
    joint = {}
    for n, c in enumerate(psi):
        for k, amp in enumerate(block_unitary_column(n, 0, g)):
            joint[(k, n - k)] = joint.get((k, n - k), 0) + mp.mpc(c) * amp
    for j in range(dim):
        for k in range(dim):
            slow = sum(joint.get((j, l), 0) * mp.conj(joint.get((k, l), 0)) for l in range(dim))
            compare("binomial loss", fast[j, k], slow)
    bad = {k: v for k, v in worst.items() if not v <= TOL}
    if bad:
        raise AssertionError(f"closed forms disagree with their second evaluation: {bad}")
    return max(worst.values())


def main() -> int:
    import run
    from calibrate import HostSpeed

    prog = run.load_program()
    print(f"closed forms vs second evaluation: worst {check_references():.2e} (tolerance {TOL:g})")
    status = 0
    workdir = run.BENCH / "_work" / "selfcheck"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in run.WORKLOAD_NAMES:
            wl = run.make_workload(name, prog, workdir, seed=12345)
            tally = run.Tally()
            for op in wl.round(0):
                tally.record(op, *run.run_op(op))
            probes = sum(op.probe for op in wl.round(0))
            print(f"{name}: {tally.attempted} operations, {tally.failed} failed "
                  f"({probes} probes of known faults), correct={tally.correct}")
            for msg in tally.messages:
                print("  " + msg)
            status |= not tally.correct
            host = HostSpeed(name)
            for _ in range(3):
                host.sample()
            print(f"  reference kernel {host.median_ms():.2f} ms, host-speed factor {host.factor():.3f}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("self-check", "FAILED" if status else "passed")
    return status


if __name__ == "__main__":
    sys.exit(main())
