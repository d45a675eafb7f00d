"""Window shapes, Chebyshev design figures, and the optimal power map."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.signal.windows import chebwin

from otfswin import (
    ConfigurationError,
    Constellation,
    FrameGrid,
    NumericalFailure,
    WindowPair,
    dc_window,
    isfft,
    nominal_sidelobe_level,
    optimal_tx_window,
)
from otfswin.detection import analytic_detection_mse
from otfswin.oracles import rect_doppler_response
from otfswin.windows import measure_doppler_response

from oracles import bisection_water_level, grid_search_allocation, random_feasible_allocations


@st.composite
def gain_grids(draw):
    """Per-bin gains log-uniform over 1e-12 .. 1e12, some bins exactly zero."""
    shape = draw(st.tuples(st.integers(1, 8), st.integers(1, 8)))
    exponents = draw(hnp.arrays(float, shape, elements=st.floats(-12.0, 12.0)))
    zero = draw(hnp.arrays(bool, shape))
    lam = 10.0 ** exponents
    lam[zero] = 0.0
    assume(lam.any())
    return lam


class TestRectangular:
    def test_far_sidelobe_level_is_one_over_n(self):
        # the Dirichlet response envelope flattens to 1/N away from the peak
        n = 20
        far = abs(rect_doppler_response(n / 2 + 0.5, n))
        assert far == pytest.approx(1.0 / n, rel=0.01)


class TestChebyshevDesign:
    def test_matches_reference_synthesis(self):
        # oracle: the scipy Dolph-Chebyshev window, same recipe
        import warnings

        for n, at in ((20, 40.0), (16, 60.0), (21, 50.0), (32, 30.0)):
            ours = dc_window(n, -at).coeffs
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # shallow-attenuation advisory
                ref = chebwin(n, at, sym=True)
            ref = ref * np.sqrt(n / np.sum(ref**2))
            assert np.allclose(ours, ref, atol=1e-10)

    def test_forty_db_design_figures(self):
        design = dc_window(20, -40.0)
        assert design.sl_db_measured <= -39.5
        # null-to-null mainlobe of about three Doppler bins
        assert 2.5 <= design.k_main <= 4.0
        assert np.sum(design.coeffs**2) == pytest.approx(20.0, rel=1e-12)

    def test_measured_sidelobes_meet_target_with_margin(self):
        for sl in (-20.0, -30.0, -40.0, -60.0):
            design = dc_window(20, sl)
            assert design.sl_db_measured <= sl + 0.5

    def test_mainlobe_widens_monotonically_with_attenuation(self):
        widths = [dc_window(20, sl).k_main for sl in (-20.0, -30.0, -40.0, -60.0)]
        assert all(a < b for a, b in zip(widths, widths[1:]))

    def test_weak_attenuation_approaches_flat_window(self):
        # degenerate end of the family: interior coefficients level out
        mild = dc_window(20, -10.0).coeffs
        strong = dc_window(20, -60.0).coeffs
        flat_dev_mild = np.std(mild[2:-2]) / np.mean(mild[2:-2])
        flat_dev_strong = np.std(strong[2:-2]) / np.mean(strong[2:-2])
        assert flat_dev_mild < 0.25 * flat_dev_strong

    def test_shallow_target_rejected(self):
        with pytest.raises(ConfigurationError):
            dc_window(20, -5.0)

    def test_infeasible_length_reports_max_attenuation(self):
        with pytest.raises(ConfigurationError, match="achievable"):
            dc_window(3, -100.0)

    def test_nominal_sidelobe_levels(self):
        assert nominal_sidelobe_level("rect", 20) == pytest.approx(0.05)
        assert nominal_sidelobe_level("dc", 20, -40.0) == pytest.approx(1e-2)
        with pytest.raises(ValueError):
            nominal_sidelobe_level("dc", 20)
        with pytest.raises(ValueError):
            nominal_sidelobe_level("hann", 20)

    def test_response_measure_rejects_nearly_constantless_window(self):
        # a two-point window has no sidelobe region at all
        with pytest.raises(ConfigurationError):
            measure_doppler_response(np.array([1.0, 1.0]))


class TestOptimalTxWindow:
    def test_uniform_gains_give_uniform_allocation(self):
        lam = np.full((2, 3), 1.7)
        alloc = optimal_tx_window(lam)
        assert np.allclose(alloc.x, 1.0, atol=1e-9)
        assert np.ptp(alloc.mercury) < 1e-9  # common offset only

    def test_two_channel_closed_form(self):
        alloc = optimal_tx_window(np.array([4.0, 1.0]))
        assert alloc.eta == pytest.approx(36.0 / 169.0, abs=1e-9)
        assert alloc.x[0] == pytest.approx(5.0 / 6.0, abs=1e-9)
        assert alloc.x[1] == pytest.approx(7.0 / 6.0, abs=1e-9)
        mse = analytic_detection_mse(np.array([4.0, 1.0]), alloc.x)
        assert mse == pytest.approx(9.0 / 26.0, abs=1e-9)
        assert mse < 0.35  # beats the uniform split

    def test_two_channel_grid_search_oracle(self):
        lam = np.array([4.0, 1.0])
        best_x, best_mse = grid_search_allocation(lam, step=1e-3)
        alloc = optimal_tx_window(lam)
        assert np.max(np.abs(best_x - alloc.x)) <= 1e-3
        assert analytic_detection_mse(lam, alloc.x) <= best_mse + 1e-9

    def test_weak_channel_shut_off(self):
        lam = np.array([10.0, 0.01])
        alloc = optimal_tx_window(lam)
        assert alloc.x[1] == pytest.approx(0.0, abs=1e-12)
        assert alloc.x[0] == pytest.approx(2.0, abs=1e-9)
        assert alloc.eta >= lam[1]  # the shut-off condition
        best_x, _ = grid_search_allocation(lam, step=1e-3)
        assert np.max(np.abs(best_x - alloc.x)) <= 1e-3

    def test_budget_and_kkt_residuals_on_random_grids(self):
        rng = np.random.default_rng(20)
        for _ in range(30):
            lam = rng.exponential(size=(4, 4)) * 10 ** rng.uniform(-2, 2)
            alloc = optimal_tx_window(lam)
            assert abs(np.mean(alloc.x) - 1.0) < 1e-8
            active = alloc.x > 1e-12
            stationarity = lam[active] / (lam[active] * alloc.x[active] + 1.0) ** 2
            assert np.max(np.abs(stationarity / alloc.eta - 1.0)) < 1e-6
            assert np.all(lam[~active] <= alloc.eta * (1 + 1e-9))

    def test_beats_uniform_and_random_allocations(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            lam = rng.exponential(size=(4, 4))
            alloc = optimal_tx_window(lam)
            opt = analytic_detection_mse(lam, alloc.x)
            assert opt <= analytic_detection_mse(lam, np.ones_like(lam)) + 1e-12
            for x in random_feasible_allocations(rng, lam.shape, 1000):
                assert opt <= analytic_detection_mse(lam, x) + 1e-12

    def test_budget_is_monotone_in_dual_level(self):
        from otfswin.windows import _allocation

        lam = np.array([0.3, 2.0, 7.5, 0.02])
        etas = np.geomspace(1e-4, lam.max(), 40)
        budgets = [float(np.mean(_allocation(lam, e))) for e in etas]
        assert all(a >= b - 1e-15 for a, b in zip(budgets, budgets[1:]))

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            optimal_tx_window(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            optimal_tx_window(np.array([1.0, -0.5]))

    def test_zero_gain_entries_get_no_power(self):
        alloc = optimal_tx_window(np.array([4.0, 0.0, 1.0]))
        assert alloc.x[1] == 0.0
        assert np.mean(alloc.x) == pytest.approx(1.0, abs=1e-8)

    def test_tx_window_is_real_square_root(self):
        alloc = optimal_tx_window(np.array([4.0, 1.0]))
        assert np.allclose(alloc.tx_window**2, alloc.x, atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(gain_grids())
    def test_water_level_is_exact(self, lam):
        alloc = optimal_tx_window(lam)
        assert abs(alloc.eta / bisection_water_level(lam) - 1.0) <= 1e-12
        active = alloc.x > 0
        # one ulp of eta moves the budget by about eps * (size + sum 1/lam) / size
        budget_scale = (lam.size + np.sum(1.0 / lam[active])) / lam.size
        assert abs(np.mean(alloc.x) - 1.0) <= 1e-12 * budget_scale
        stationarity = lam[active] / (lam[active] * alloc.x[active] + 1.0) ** 2
        assert np.max(np.abs(stationarity / alloc.eta - 1.0)) <= 1e-12
        assert np.all(lam[~active] <= alloc.eta * (1.0 + 1e-12))

    def test_subnormal_gain_is_inactive_not_fatal(self):
        with_tiny = optimal_tx_window(np.array([4.0, 1.0, 5e-324]))
        with_zero = optimal_tx_window(np.array([4.0, 1.0, 0.0]))
        assert with_tiny.eta == with_zero.eta
        assert np.array_equal(with_tiny.x, with_zero.x)

    def test_gains_too_small_for_the_budget_raise_numerical_failure(self):
        # size * lam << eps: the level rounds onto lam and no power map is left
        with pytest.raises(NumericalFailure):
            optimal_tx_window(np.full((4, 4), 1e-300))


class TestWindowPair:
    def test_separable_normalization_carries_through(self):
        grid = FrameGrid(M=6, N=20)
        design = dc_window(grid.N, -40.0)
        pair = WindowPair.separable(grid, tx_doppler=design.coeffs)
        assert np.sum(np.abs(pair.joint) ** 2) == pytest.approx(grid.size, rel=1e-9)
        assert pair.tx_power() == pytest.approx(1.0, rel=1e-12)

    def test_axis_length_validation(self):
        grid = FrameGrid(M=6, N=20)
        with pytest.raises(ValueError):
            WindowPair.separable(grid, tx_doppler=np.ones(5))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            WindowPair(tx=np.ones((2, 3)), rx=np.ones((3, 2)))

    def test_average_transmit_power_is_window_energy(self):
        # Monte Carlo over unit-energy frames: E ||U * isfft(x)||^2 = sum |U|^2
        rng = np.random.default_rng(23)
        grid = FrameGrid(M=4, N=4)
        qpsk = Constellation.qpsk()
        pair = WindowPair.from_tx_grid(np.abs(rng.standard_normal(grid.shape)) + 0.2)
        total = 0.0
        frames = 10_000
        for _ in range(frames):
            x = qpsk.points[rng.integers(0, 4, grid.size)].reshape(grid.shape)
            total += float(np.sum(np.abs(pair.tx * isfft(x)) ** 2))
        assert total / frames == pytest.approx(grid.size * pair.tx_power(), rel=0.01)
