import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tfu
from tfu.core import SignalLayout, TFGrid
from tfu.support import SupportMode, SupportVariant


def stft_energy_defect(f, g, grid):
    return tfu.energy_defect(tfu.compute_stft(f, g, grid), f.l2_norm(), g.l2_norm())


def test_value_at_origin_is_inner_product(unit_pair, grid):
    f, g = unit_pair
    v = tfu.compute_stft(f, g, grid)
    k = grid.x_count // 2
    assert abs(v.values[k, k] - 1.0) < 1e-10


def test_matches_closed_form_everywhere(unit_pair, grid, closed_field):
    f, g = unit_pair
    v = tfu.compute_stft(f, g, grid)
    assert np.max(np.abs(v.values - closed_field.values)) < 1e-8


def test_shifted_signal_shifts_envelope(layout, grid):
    # f = M_1 T_2 (unit gaussian): |V(x, xi)| = exp(-pi ((x-2)^2 + (xi-1)^2)/2)
    f = tfu.sample(tfu.unit_gaussian(1.0, z=2.0, w=1.0), layout)
    g = tfu.sample(tfu.unit_gaussian(), layout)
    v = tfu.compute_stft(f, g, grid)
    x, xi = grid.meshgrid()
    expected = np.exp(-np.pi * ((x - 2) ** 2 + (xi - 1) ** 2) / 2)
    assert np.max(np.abs(np.abs(v.values) - expected)) < 1e-8


def test_isometry_defect_unit_pair(unit_pair, grid):
    f, g = unit_pair
    assert stft_energy_defect(f, g, grid) < 1e-9


def test_isometry_defect_hermite_pair(layout, grid):
    f = tfu.sample(tfu.hermite(2), layout)
    g = tfu.sample(tfu.unit_gaussian(), layout)
    assert stft_energy_defect(f, g, grid) < 1e-8


def test_isometry_defect_scale_invariant(layout, grid):
    f = tfu.sample(tfu.unit_gaussian(), layout)
    g = tfu.sample(tfu.hermite(1), layout)
    scaled = tfu.SampledSignal(3.0 * f.samples, layout.step)
    d1 = stft_energy_defect(f, g, grid)
    d2 = stft_energy_defect(scaled, g, grid)
    assert abs(d1 - d2) < 1e-12


def test_isometry_defect_bank(bank_pairs, grid):
    for name, f, g in bank_pairs:
        assert stft_energy_defect(f, g, grid) < 1e-8, name


def test_degenerate_pair_rejected(layout, grid):
    f = tfu.sample(tfu.unit_gaussian(), layout)
    zero = tfu.SampledSignal(np.zeros(layout.count, dtype=complex), layout.step)
    with pytest.raises(ValueError, match="degenerate pair"):
        stft_energy_defect(f, zero, grid)


def test_pointwise_bound_by_norm_product(bank_pairs, bank_stfts):
    # |V_g f| <= |f|_2 |g|_2 everywhere
    for name, f, g in bank_pairs:
        peak = float(np.max(np.abs(bank_stfts[name].values)))
        assert peak <= f.l2_norm() * g.l2_norm() + 1e-10, name


def test_conjugate_symmetry_for_real_even_pair(unit_pair, grid):
    f, g = unit_pair
    v = np.abs(tfu.compute_stft(f, g, grid).values)
    n = grid.x_count
    idx = (n - np.arange(n)) % n
    reflected = v[np.ix_(idx, idx)]
    assert np.max(np.abs(v - reflected)) < 1e-10


def test_layout_mismatch_rejected(layout, grid):
    f = tfu.sample(tfu.unit_gaussian(), layout)
    other = SignalLayout(count=layout.count, step=layout.step / 2)
    g = tfu.sample(tfu.unit_gaussian(), other)
    with pytest.raises(ValueError, match="does not match signal layout"):
        tfu.compute_stft(f, g, grid)


#: The signal-by-dual plane of DEFAULT_LAYOUT is 256 x 256 with steps (1/16, 1/16).
OFF_PLANE_GRIDS = {
    "stride-4": TFGrid(x_step=0.25, xi_step=1 / 16, x_count=64, xi_count=256),
    "128x256": TFGrid(x_step=1 / 16, xi_step=1 / 16, x_count=128, xi_count=256),
    "xi-step-doubled": TFGrid(x_step=1 / 16, xi_step=1 / 8, x_count=256, xi_count=256),
}
PLANE_USERS = {
    "compute_stft": lambda f, grid: tfu.compute_stft(f, f, grid),
    "build_auxiliary": lambda f, grid: tfu.build_auxiliary(f, f, grid, 0.0, 0.0),
    "fundamental_identity_defect": lambda f, grid: tfu.fundamental_identity_defect(f, f, f, f, grid),
    "bound_sweep": lambda f, grid: tfu.bound_sweep(f, f, grid, [SupportMode(SupportVariant.L1_FRACTION, 2.0, 0.1)]),
}


@pytest.mark.parametrize("user", PLANE_USERS)
@pytest.mark.parametrize("grid_name", OFF_PLANE_GRIDS)
def test_off_plane_grids_are_refused(unit_pair, grid_name, user):
    # the STFT family samples one plane: x on the signal's lattice, xi on its dual
    with pytest.raises(ValueError, match="^off-plane grid: "):
        PLANE_USERS[user](unit_pair[0], OFF_PLANE_GRIDS[grid_name])


def test_off_lattice_x_nodes_refused(layout):
    f = tfu.sample(tfu.unit_gaussian(), layout)
    bad = TFGrid(x_step=layout.step * 1.5, xi_step=layout.dual_step, x_count=256, xi_count=256)
    with pytest.raises(ValueError, match="off-plane grid"):
        tfu.compute_stft(f, f, bad)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(f_name=st.sampled_from(["g05", "g1", "g2"]), g_name=st.sampled_from(["G", "h1", "h2"]), s=st.integers(-40, 40))
def test_translation_is_an_index_shift_times_a_root_of_unity(bank_signals, grid, f_name, g_name, s):
    # V_g(T_z f)(x_j, xi_k) = w^(-s k') V_g f(x_{j-s}, xi_k) for z = s * step,
    # with w = exp(2 pi i / N) and k' the signed frequency index: xi_k z =
    # k' s / N exactly. The bank signals have decayed where the shift moves
    # samples in or out of the window.
    f_bank, g_bank = bank_signals
    f, g = f_bank[f_name], g_bank[g_name]
    n = grid.xi_count
    base = tfu.compute_stft(f, g, grid).values
    moved = tfu.compute_stft(tfu.translate_modulate(f, s * f.step, 0.0), g, grid).values
    phase = np.exp(-2j * np.pi * ((s * (np.arange(n) - n // 2)) % n) / n)
    lo, hi = max(s, 0), n + min(s, 0)  # the rows j whose x_{j-s} is on the grid
    gap = np.max(np.abs(moved[lo:hi] - phase * base[lo - s : hi - s]))
    assert gap <= 1e-12 * np.max(np.abs(base))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(f_name=st.sampled_from(["g05", "g1", "g2"]), g_name=st.sampled_from(["G", "h1", "h2"]), m=st.integers(-128, 128))
def test_modulation_is_a_frequency_index_shift(bank_signals, grid, f_name, g_name, m):
    # V_g(M_zeta f)(x, xi) = V_g f(x, xi - zeta); for zeta = m * dual_step the
    # modulation exp(2 pi i m j' / N) of the samples is a cyclic shift of the
    # DFT, so the field rolls by m frequency columns, up to the phase's rounding
    f_bank, g_bank = bank_signals
    f, g = f_bank[f_name], g_bank[g_name]
    base = tfu.compute_stft(f, g, grid).values
    moved = tfu.compute_stft(tfu.translate_modulate(f, 0.0, m * f.layout.dual_step), g, grid).values
    assert np.max(np.abs(moved - np.roll(base, m, axis=1))) <= 1e-12 * np.max(np.abs(base))
