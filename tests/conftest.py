import pytest

import tfu

# The standard test bank: unit-norm Gaussians of three widths against a
# Gaussian window and the first two Hermite windows.
F_SPECS = {"g05": tfu.unit_gaussian(0.5), "g1": tfu.unit_gaussian(1.0), "g2": tfu.unit_gaussian(2.0)}
G_SPECS = {"G": tfu.unit_gaussian(1.0), "h1": tfu.hermite(1), "h2": tfu.hermite(2)}


@pytest.fixture(scope="session")
def layout():
    return tfu.DEFAULT_LAYOUT


@pytest.fixture(scope="session")
def grid():
    return tfu.TFGrid.from_layout(tfu.DEFAULT_LAYOUT)


@pytest.fixture(scope="session")
def bank_signals(layout):
    f_bank = {name: tfu.sample(fn, layout) for name, fn in F_SPECS.items()}
    g_bank = {name: tfu.sample(fn, layout) for name, fn in G_SPECS.items()}
    return f_bank, g_bank


@pytest.fixture(scope="session")
def bank_pairs(bank_signals):
    f_bank, g_bank = bank_signals
    return [
        (f"{fn}-{gn}", f, g) for fn, f in f_bank.items() for gn, g in g_bank.items()
    ]


@pytest.fixture(scope="session")
def bank_stfts(bank_pairs, grid):
    """Numeric STFT of every bank pair, computed once per session."""
    return {name: tfu.compute_stft(f, g, grid) for name, f, g in bank_pairs}


@pytest.fixture(scope="session")
def unit_pair(layout):
    f = tfu.sample(tfu.unit_gaussian(), layout)
    return f, f


@pytest.fixture(scope="session")
def closed_field(grid):
    return tfu.gaussian_stft_field(grid)


@pytest.fixture(scope="session")
def exact_transform_pair(layout):
    """Unit Gaussian with closed-form transform samples (noise-free tails)."""
    f = tfu.sample(tfu.unit_gaussian(), layout)
    fhat = tfu.sample(tfu.fourier_closed_form(tfu.unit_gaussian()), layout.dual())
    return f, fhat


def l2_norms(f, g):
    return f.l2_norm(), g.l2_norm()
