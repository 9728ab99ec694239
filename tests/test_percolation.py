import io

import numpy as np
import pytest

from percolator import (PercolationModel, load_states, percolation_differences,
                        random_states)

from gen import build, path_edges
from oracle_exact import kappa


def brute_differences(x):
    """O(n^2) oracle over all ordered pairs."""
    ramp = np.maximum(x[None, :] - x[:, None], 0.0)
    total = ramp.sum()
    minus = np.array([total - ramp[:, v].sum() - ramp[v, :].sum() for v in range(len(x))])
    return total, minus


def test_three_state_example():
    total, minus = percolation_differences([0.0, 0.5, 1.0])
    assert total == pytest.approx(2.0, abs=1e-12)
    assert minus.tolist() == pytest.approx([0.5, 1.0, 0.5], abs=1e-12)


def test_equal_states_are_all_zero():
    for c in (0.0, 0.37, 1.0):
        total, minus = percolation_differences([c, c, c, c])
        assert total == 0.0
        assert (minus == 0.0).all()


def test_two_states():
    total, minus = percolation_differences([0.0, 1.0])
    assert total == pytest.approx(1.0)
    assert minus.tolist() == pytest.approx([0.0, 0.0], abs=1e-12)


def test_matches_brute_force_with_ties():
    rng = np.random.default_rng(5)
    for trial in range(30):
        n = int(rng.integers(2, 400))
        x = rng.random(n)
        if trial % 3 == 0:
            x = np.round(x, 1)  # force ties
        total, minus = percolation_differences(x)
        total_o, minus_o = brute_differences(x)
        scale = max(total_o, 1.0)
        assert abs(total - total_o) / scale < 1e-9
        assert np.abs(minus - minus_o).max() / scale < 1e-9


def stable_differences(x):
    """``percolation_differences``' arithmetic over a stable sort, in plain
    expressions: the order it had before it sorted stably only on ties."""
    order = np.argsort(x, kind="stable")
    a, n = x[order], len(x)
    pref = np.concatenate(([0.0], np.cumsum(a)))
    idx = np.arange(n, dtype=np.float64)
    below = idx * a - pref[:n]
    above = (pref[n] - pref[1:]) - (n - 1 - idx) * a
    total = float(below.sum())
    minus = np.empty(n)
    minus[order] = np.maximum(total - below - above, 0.0)
    return total, minus


def test_exclusion_sums_keep_the_stable_orders_bits():
    """The exclusion sums equal a stable sort's bit for bit, on quantized
    states, where many tie (an unstable order changes the bits of tied
    vertices' sums in about one trial of six), and on untied ones."""
    rng = np.random.default_rng(11)
    for trial in range(60):
        n, q = int(rng.integers(20, 2000)), int(rng.choice([2, 3, 7, 10, 100]))
        x = rng.random(n) if trial % 6 == 0 else rng.integers(0, q + 1, n) / q
        total, minus = percolation_differences(x)
        total_s, minus_s = stable_differences(x)
        assert total == total_s
        assert minus.tobytes() == minus_s.tobytes()


def test_inclusion_exclusion_identity():
    rng = np.random.default_rng(6)
    x = rng.random(100)
    total, minus = percolation_differences(x)
    ramp = np.maximum(x[None, :] - x[:, None], 0.0)   # ramp[i, j] = R(x_j - x_i)
    ending_at_v = ramp.sum(axis=1)                    # sum_u R(x_u - x_v)
    starting_at_v = ramp.sum(axis=0)                  # sum_w R(x_v - x_w)
    assert np.allclose(minus, total - ending_at_v - starting_at_v, atol=1e-9)


def test_permutation_equivariance():
    rng = np.random.default_rng(7)
    x = rng.random(50)
    perm = rng.permutation(50)
    _, minus = percolation_differences(x)
    _, minus_p = percolation_differences(x[perm])
    assert np.allclose(minus_p, minus[perm], atol=1e-12)


def test_state_bounds_enforced():
    with pytest.raises(ValueError):
        percolation_differences([0.5, 1.2])
    with pytest.raises(ValueError):
        percolation_differences([-0.1, 0.5])


def test_nan_state_rejected():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        PercolationModel([0.5, float("nan"), 0.2])


def test_kappa_worked_example():
    m = PercolationModel([1.0, 0.5, 0.0])
    assert kappa(m, 0, 2, 1) == pytest.approx(1.0)


def test_kappa_zero_for_equal_endpoints():
    m = PercolationModel([0.3, 0.7, 0.3])
    assert kappa(m, 0, 2, 1) == 0.0


def test_kappa_degenerate_rule():
    m = PercolationModel([0.5, 0.5, 0.5])
    assert m.all_equal
    assert kappa(m, 0, 2, 1) == 0.0


def test_kappa_rejects_endpoint_collision():
    m = PercolationModel([1.0, 0.5, 0.0])
    with pytest.raises(ValueError):
        kappa(m, 0, 1, 1)
    with pytest.raises(ValueError):
        kappa(m, 1, 2, 1)


def test_random_states_deterministic():
    a = random_states(5, seed=7)
    b = random_states(5, seed=7)
    assert (a == b).all()
    assert (random_states(5, seed=8) != a).any()


def test_random_states_range_and_mean():
    x = random_states(10_000, seed=3)
    assert ((0.0 <= x) & (x <= 1.0)).all()
    assert abs(x.mean() - 0.5) < 0.03


def test_states_file_round_trip():
    g = build(path_edges(3))
    states = np.array([0.25, 1 / 3, 0.875])
    text = "# ids: 0 1 2\n" + "".join(f"{v!r}\n" for v in states.tolist())
    loaded = load_states(io.StringIO(text), g)
    assert (loaded == states).all()


def test_states_file_count_validated():
    g = build(path_edges(3))
    with pytest.raises(ValueError):
        load_states(io.StringIO("0.5\n0.5\n"), g)
    with pytest.raises(ValueError, match="line 1"):
        load_states(io.StringIO("zap\n"))
