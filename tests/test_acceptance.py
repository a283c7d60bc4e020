"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Each test prints `ACCEPTANCE n: PASS|FAIL — summary (metric vs tolerance)` so
the whole scorecard is visible in `pytest -v -s` output even when a criterion
fails.
"""
import time

import numpy as np
import pytest

from spinbath import cce, cli, lattice, tfa
from spinbath.hamiltonian import (TermMask, bath_operator_diagonal,
                                  cluster_hamiltonians)

from baths import (DIAMOND_A0, bath_from_positions, convergence_bath, nn_pair,
                   random_bath, species)

U111 = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)


def report(num, ok, summary):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {summary}")
    assert ok, f"criterion {num}: {summary}"


def pair_gap_oracle(bath, mask=TermMask(), lo=0.0, hi=np.inf,
                    weight_floor=1e-8):
    """Transition frequencies (omega_bar) and spectral weights of a two-spin
    bath from the exact eigendecomposition of its cluster Hamiltonian."""
    H = cluster_hamiltonians([(0, 1)], bath, mask=mask)[0]
    b = bath_operator_diagonal((0, 1), bath)
    E, V = np.linalg.eigh(H)
    Bp = (V.conj().T * b) @ V
    W = np.abs(Bp) ** 2
    fr = (E[:, None] - E[None, :]) / bath.A_bar
    sel = (W > weight_floor * W.max()) & (fr > 1e-9) & (fr >= lo) & (fr <= hi)
    return np.unique(np.round(fr[sel], 10)), W


def band_power(freqs, coeffs, lo, hi, cols):
    sel = (freqs >= lo) & (freqs <= hi)
    return (np.abs(coeffs[np.ix_(sel, cols)]) ** 2).sum()


def test_criterion_1_two_spin_channel_placement():
    t0 = time.perf_counter()
    bath = nn_pair()                       # Delta_hf = 0, bond [111], axis [001]
    n = 4096
    times = np.arange(n) * (400 * np.pi / n)   # 0.5 and 1.0 land on exact bins
    series = cce.exact_bath_correlation(bath, times_tbar=times)
    cbar = tfa.normalize_correlation(series)

    spec = tfa.power_spectrum(cbar)
    dw = spec.omega_bar[1]
    inb = np.zeros(len(spec.omega_bar), dtype=bool)
    for w0 in (0.5, 1.0):
        k = int(round(w0 / dw))
        assert abs(spec.omega_bar[k] - w0) < 1e-9
        inb[max(k - 1, 0): k + 2] = True
    spec_ratio = spec.power[~inb].sum() / spec.power[inb].sum()

    sst = tfa.synchrosqueeze(tfa.cwt_bump(cbar))
    cols = np.arange(n // 4, 3 * n // 4)    # away from the wavelet edges
    E = np.abs(sst.coeffs[:, cols]) ** 2
    inb_rows = np.zeros(len(sst.freqs), dtype=bool)
    for w0 in (0.5, 1.0):
        k = np.argmin(np.abs(sst.freqs - w0))
        inb_rows[max(k - 1, 0): k + 2] = True
    sst_ratio = E[~inb_rows].sum() / E[inb_rows].sum()
    elapsed = time.perf_counter() - t0

    ok = spec_ratio < 0.01 and sst_ratio < 0.01 and elapsed < 5.0
    report(1, ok, "channels at omega_bar 0.5 / 1.0 within one bin "
                  f"(spectrum out/in {spec_ratio:.2e}, SST out/in "
                  f"{sst_ratio:.2e}, tol 1e-2; {elapsed:.1f}s < 5s)")


def test_criterion_2_detuning_beat():
    bath = nn_pair(detune=0.01)
    oneq, _ = pair_gap_oracle(bath, lo=0.4, hi=0.6, weight_floor=1e-12)
    fb = float(np.ptp(oneq))                # 1Q splitting = beat frequency
    n = 4096
    times = np.linspace(0.0, 4 * 2 * np.pi / fb, n)

    def band_trace(b):
        s = tfa.normalize_correlation(cce.exact_bath_correlation(b, times_tbar=times))
        return tfa.band_amplitude(tfa.cwt_bump(s), 0.4, 0.6), s.dt

    tr, dt = band_trace(bath)
    m = tr - tr.mean()
    P = np.abs(np.fft.rfft(m * np.hanning(n))) ** 2
    grid = 2 * np.pi * np.fft.rfftfreq(n, dt)
    measured = grid[1:][np.argmax(P[1:])]
    period_err = abs(2 * np.pi / measured - 2 * np.pi / fb) / (2 * np.pi / fb)

    tr0, _ = band_trace(nn_pair())
    mid = tr0[n // 4: 3 * n // 4]
    flat_var = (mid.max() - mid.min()) / mid.mean()

    ok = period_err < 0.05 and flat_var < 0.05
    report(2, ok, "1Q beat period matches the exact pair oracle "
                  f"(err {period_err:.2%} < 5%) and the zero-detuning band is "
                  f"flat (variation {flat_var:.2%} < 5%)")


def test_criterion_3_cce_completeness():
    t0 = time.perf_counter()
    worst = 0.0
    for n, spin in [(2, 0.5), (3, 0.5), (4, 0.5), (2, 1.5), (3, 1.5), (4, 1.5)]:
        bath = random_bath(np.random.default_rng(100 + n), n, spin=spin)
        times = cce.time_grid(60.0, 256)
        exact = cce.exact_bath_correlation(bath, times_tbar=times)
        cset = cce.enumerate_clusters(bath, 1e-6, n)
        got = cce.compute_correlation(bath, cset, times_tbar=times)
        scale = abs(exact.values[0])
        worst = max(worst, np.abs(got.values - exact.values).max() / scale)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    report(3, ok, "CCE-N equals whole-bath diagonalization on 2/3/4-spin baths "
                  f"for I=1/2 and I=3/2 (max normalized dev {worst:.2e} < 1e-10; "
                  f"{elapsed:.1f}s < 10s)")


def test_criterion_4_cce_convergence_ordering():
    bath = convergence_bath()
    times = cce.time_grid(200.0, 4096)
    exact = tfa.normalize_correlation(cce.exact_bath_correlation(bath, times_tbar=times))
    win = times >= 50.0
    devs = {}
    for order in (2, 3, 4):
        cset = cce.enumerate_clusters(bath, 2.7 * bath.a0, order)
        got = tfa.normalize_correlation(
            cce.compute_correlation(bath, cset, times_tbar=times))
        devs[order] = np.abs(got.values - exact.values)[win].max()
    ok = devs[2] > devs[3] >= devs[4]
    report(4, ok, "max-norm deviation from exact is ordered on the fixed "
                  f"8-spin bath over tbar in [50, 200]: CCE-2 {devs[2]:.2e} > "
                  f"CCE-3 {devs[3]:.2e} >= CCE-4 {devs[4]:.2e}")


def test_criterion_5_sum_rule():
    times = cce.time_grid(50.0, 256)
    configs = [
        ("nn pair I=1/2", nn_pair()),
        ("detuned pair", nn_pair(detune=0.01)),
        ("nn pair I=3/2", nn_pair(spin=1.5)),
        ("random 3-spin", random_bath(np.random.default_rng(200), 3)),
        ("random 4-spin I=3/2", random_bath(np.random.default_rng(201), 4, spin=1.5)),
        ("8-spin convergence bath", convergence_bath()),
    ]
    worst_c0, worst_im = 0.0, 0.0
    for _, bath in configs:
        I = bath.species.spin_I
        expect = (bath.hf_couplings_A ** 2).sum() * I * (I + 1) / 3.0
        cset = cce.enumerate_clusters(bath, 2.7 * bath.a0, min(bath.n_spins, 4))
        s = cce.compute_correlation(bath, cset, times_tbar=times)
        worst_c0 = max(worst_c0, abs(s.values[0] - expect) / expect)
        worst_im = max(worst_im, s.metadata["max_imag"] / expect)
    ok = worst_c0 < 1e-10 and worst_im < 1e-10
    report(5, ok, "C(0) = sum A_i^2 I(I+1)/3 on every suite configuration "
                  f"(worst rel err {worst_c0:.2e} < 1e-10, worst Im residue "
                  f"{worst_im:.2e} < 1e-10)")


def test_criterion_6_magic_angle_suppression():
    # two well-separated nearest-neighbor pairs, both bonds along <111>
    # directions, hf axis [001] (theta_hf = 0): every bond sits at the magic
    # angle, so the 0Q channel is starved relative to 1Q
    sp = species()
    bond = DIAMOND_A0 * np.sqrt(3) / 4
    c1, u1 = 2.0e-9 * U111, U111
    c2 = np.array([-1.8e-9, 1.1e-9, 0.6e-9])
    u2 = np.array([1.0, -1.0, -1.0]) / np.sqrt(3)
    pos = np.vstack([c1 - 0.5 * bond * u1, c1 + 0.5 * bond * u1,
                     c2 - 0.5 * bond * u2, c2 + 0.5 * bond * u2])
    bath = bath_from_positions(pos, sp, (0, 0, 1), DIAMOND_A0)
    times = np.linspace(0.0, 400 * np.pi, 4096)
    cset = cce.enumerate_clusters(bath, 2.5 * DIAMOND_A0, 2)
    cbar = tfa.normalize_correlation(
        cce.compute_correlation(bath, cset, times_tbar=times))
    sst = tfa.synchrosqueeze(tfa.cwt_bump(cbar))

    def mass(lo, hi):
        sel = (sst.freqs >= lo) & (sst.freqs <= hi)
        return np.abs(sst.coeffs[sel]).sum()

    ratio = mass(0.0, 0.1) / mass(0.4, 0.6)
    report(6, ratio < 0.05, "0Q SST mass is suppressed at theta_hf = 0 on an "
           f"all-<111>-bond bath (0Q/1Q mass ratio {ratio:.2%} < 5%)")


def test_criterion_7_sst_sharpening():
    n = 4096
    t = np.linspace(0.0, 400 * np.pi, n)
    x = np.cos(0.5 * t)

    def spread(freqs, coeffs):
        E = np.abs(coeffs[:, n // 4: 3 * n // 4]) ** 2
        w = E.sum(axis=1)
        fm = (w * freqs).sum() / w.sum()
        return np.sqrt((w * (freqs - fm) ** 2).sum() / w.sum())

    scal = tfa.cwt_bump(cce.CorrelationSeries(t, x))
    s_c = spread(scal.freqs, scal.coeffs)       # before the SST writes over W
    sst = tfa.synchrosqueeze(scal)
    s_s = spread(sst.freqs, sst.coeffs)
    ratio = s_s / s_c
    report(7, ratio <= 0.5, "energy-weighted frequency spread of the SST map "
           f"vs the scalogram for a pure tone (ratio {ratio:.2f} <= 0.5)")


def test_criterion_8_high_field_spin_comparison():
    mask = TermMask(enable_CD=False, enable_EF=False)
    center = 2.0e-9 * U111
    times = cce.time_grid(8000.0, 4096)
    results = {}
    for spin in (0.5, 1.5):
        bath = nn_pair(spin=spin, axis=U111, center=center)
        gaps, _ = pair_gap_oracle(bath, mask=mask, lo=1e-9, hi=0.2)
        cbar = tfa.normalize_correlation(
            cce.exact_bath_correlation(bath, mask=mask, times_tbar=times))
        tr = tfa.band_amplitude(tfa.cwt_bump(cbar), 0.02, 0.1)
        n = len(tr)
        mid = tr[n // 4: 3 * n // 4]
        results[spin] = (len(gaps), (mid.max() - mid.min()) / mid.max())
    n_half, var_half = results[0.5]
    n_three, var_three = results[1.5]
    ok = n_half == 1 and var_half < 0.05 and n_three >= 2 and var_three > 0.20
    report(8, ok, "secular 0Q structure: spin-1/2 has one gap and a flat band "
                  f"(gaps {n_half}, variation {var_half:.2%} < 5%); spin-3/2 "
                  f"has several and a modulated band (gaps {n_three} >= 2, "
                  f"peak-to-trough {var_three:.2%} > 20%)")


def test_criterion_9_realization_fingerprinting():
    mask = TermMask(enable_CD=False, enable_EF=False)
    center = 2.0e-9 * U111
    times = cce.time_grid(8000.0, 4096)
    # rotate the hf axis so the bond itself sits at the magic angle
    w = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
    theta_m = np.arccos(1 / np.sqrt(3))
    axis_magic = np.cos(theta_m) * U111 + np.sin(theta_m) * w

    def pair_mass(axis):
        bath = nn_pair(axis=axis, center=center)
        s = cce.exact_bath_correlation(bath, mask=mask, times_tbar=times)
        v = s.values - s.values.mean()        # unnormalized: common scale
        sst = tfa.synchrosqueeze(tfa.cwt_bump(cce.CorrelationSeries(s.times_tbar, v)))
        sel = (sst.freqs >= 0.005) & (sst.freqs <= 0.1)
        return np.abs(sst.coeffs[sel]).sum()

    m_ref = pair_mass(U111)
    m_magic = pair_mass(axis_magic)
    drop = 1.0 - m_magic / m_ref
    report(9, drop > 0.90, "rotating the hf axis to put the target bond at the "
           f"magic angle removes its 0Q feature (mass drop {drop:.2%} > 90%)")


def test_criterion_10_desk_scale_performance(tmp_path):
    cfg = cli.parse_config("order = 4\n")     # all other defaults: silicon
    cfg.outdir = str(tmp_path / "out")        # 10x10x7, rho 0.02, 4096 samples
    t0 = time.perf_counter()
    manifest = cli.run_pipeline(cfg)
    elapsed = time.perf_counter() - t0
    products = set(manifest.products)
    has_maps = any(p.endswith("sst.bin") for p in products) and \
        any(p.endswith("cwt.bin") for p in products)
    ok = elapsed < 600.0 and has_maps
    report(10, ok, "full order-4 pipeline on the silicon reference box with "
                   f"CWT + SST finished in {elapsed:.0f}s < 600s "
                   f"({manifest.derived['n_spinful']} spins, "
                   f"{sum(manifest.derived['cluster_counts'].values())} clusters)")
