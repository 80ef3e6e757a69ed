"""Synthetic fixtures: formulas pinned, generation deterministic."""

import numpy as np
import pytest

from sswim.data import load_csv
from sswim.synthetic import SyntheticSpec, gen, gramacy_2d, steps_chirp_1d, write_csv


def test_steps_chirp_formula_pins():
    # at x = 0.5: step = -1 and the chirp phase is 13 pi, so f = -1 exactly
    assert steps_chirp_1d(0.5) == pytest.approx(-1.0, abs=1e-12)
    # plateau levels left of the modulated part
    assert steps_chirp_1d(0.0) == pytest.approx(1.0, abs=1e-12)
    third = np.nextafter(1.0 / 3.0, 0.0)  # just below the first break
    assert steps_chirp_1d(third) - np.sin(2 * np.pi * (4 + 36 * third ** 2) * third) * 0.5 \
        == pytest.approx(1.0, abs=1e-12)
    assert steps_chirp_1d(1.0 / 3.0) - np.sin(2 * np.pi * (4 + 4) / 3) * 0.5 \
        == pytest.approx(-1.0, abs=1e-12)


def test_steps_chirp_matches_documented_formula_everywhere():
    x = np.linspace(0, 1, 1001)
    step = np.where(x < 1 / 3, 1.0, np.where(x < 2 / 3, -1.0, 0.0))
    chirp = 0.5 * np.sin(2 * np.pi * (4 + 36 * x ** 2) * x)
    np.testing.assert_allclose(steps_chirp_1d(x), step + chirp, atol=1e-12)


def test_gramacy_zero_at_origin():
    assert gramacy_2d(0.0, 0.0) == 0.0


def test_gramacy_maximum_location_and_value():
    # stationary point of x1 exp(-x1^2) at 1/sqrt(2)
    peak = gramacy_2d(1 / np.sqrt(2), 0.0)
    assert peak == pytest.approx(0.42888, abs=5e-6)
    grid = np.linspace(-2, 6, 801)
    g1, g2 = np.meshgrid(grid, grid, indexing="ij")
    assert np.max(gramacy_2d(g1, g2)) <= peak + 1e-9


def test_gen_noise_free_is_pure_function_of_inputs():
    ds = gen(SyntheticSpec("steps_chirp_1d", 100, noise_std=0.0, seed=5))
    np.testing.assert_allclose(ds.y, steps_chirp_1d(ds.X[:, 0]), atol=1e-15)
    assert np.all((ds.X >= 0) & (ds.X <= 1))


def test_gen_deterministic_in_seed():
    a = gen(SyntheticSpec("gramacy_2d", 50, noise_std=0.1, seed=9))
    b = gen(SyntheticSpec("gramacy_2d", 50, noise_std=0.1, seed=9))
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.y, b.y)
    assert a.X.shape == (50, 2)
    assert a.columns == ["x1", "x2"]


def test_gen_validation():
    with pytest.raises(ValueError, match="kind"):
        gen(SyntheticSpec("spiral", 10))
    with pytest.raises(ValueError, match="n must"):
        gen(SyntheticSpec("gramacy_2d", 0))
    for bad in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="noise_std"):
            gen(SyntheticSpec("gramacy_2d", 10, noise_std=bad))


def test_write_csv_round_trip(tmp_path):
    ds = gen(SyntheticSpec("gramacy_2d", 30, noise_std=0.05, seed=3))
    path = write_csv(ds, tmp_path / "g.csv")
    back = load_csv(path, "y", name="g")
    # repr() serialization keeps every bit
    np.testing.assert_array_equal(back.X, ds.X)
    np.testing.assert_array_equal(back.y, ds.y)
    assert back.columns == ["x1", "x2"]
