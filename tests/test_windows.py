"""Window shapes, Chebyshev design figures, and the optimal power map."""

import re

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
    windows,
)
from otfswin.detection import analytic_detection_mse
from otfswin.oracles import rect_doppler_response
from otfswin.windows import measure_doppler_response

from oracles import (
    bisection_water_level,
    grid_search_allocation,
    random_feasible_allocations,
    stepwise_doppler_response,
)


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

    @pytest.mark.parametrize("sl_db", [np.nan, -np.inf, np.inf])
    def test_non_finite_target_rejected(self, sl_db):
        with pytest.raises(ConfigurationError, match="finite"):
            dc_window(6, sl_db)

    def test_infeasible_length_reports_the_mainlobe_reason(self):
        # three taps leave no sidelobe region at -100 dB: the refusal says
        # so and quotes no bound
        with pytest.raises(ConfigurationError) as info:
            dc_window(3, -100.0)
        assert str(info.value) == ("requested -100 dB is infeasible for N=3: the designed "
                                   "window's mainlobe spans the whole Doppler axis")

    @pytest.mark.parametrize("length", [3, 4, 5, 8, 16, 20])
    def test_every_target_is_accepted_as_measured_or_refused_for_a_reason(self, length):
        # one rule: a design is accepted when its measured sidelobes sit at
        # most 0.5 dB above the target; a refusal is one line naming the
        # measured fact that rules it out, and nothing else
        reasons = (r"the sidelobe ratio 10\^\(\|dB\|/20\) overflows a float"
                   r"|the designed window's mainlobe spans the whole Doppler axis"
                   r"|the designed window's sidelobes measure -\d+\.\d dB")
        accepted = []
        for sl in range(-10, -401, -5):
            try:
                design = dc_window(length, float(sl))
            except ConfigurationError as exc:
                pattern = f"requested {sl} dB is infeasible for N={length}: (?:{reasons})"
                assert re.fullmatch(pattern, str(exc)), str(exc)
            else:
                assert np.all(np.isfinite(design.coeffs))
                assert design.sl_db_measured <= sl + 0.5
                accepted.append(sl)
        assert accepted and accepted[0] == -10
        if length == 3:
            assert -60 in accepted
            with pytest.raises(ConfigurationError, match="mainlobe spans the whole Doppler axis"):
                dc_window(3, -120.0)

    def test_a_nan_measurement_is_refused(self, monkeypatch):
        monkeypatch.setattr(windows, "measure_doppler_response",
                            lambda coeffs: windows.WindowResponse(3.0, float("nan")))
        with pytest.raises(ConfigurationError, match="sidelobes measure nan dB"):
            dc_window(20, -40.0)

    def test_an_overflowing_sidelobe_ratio_is_named(self):
        with pytest.raises(ConfigurationError) as info:
            dc_window(20, -1e308)
        assert str(info.value) == ("requested -1e+308 dB is infeasible for N=20: the sidelobe "
                                   "ratio 10^(|dB|/20) overflows a float")

    @pytest.mark.parametrize("length", [16, 20, 64, 300])
    def test_a_target_past_the_rounding_floor_is_refused(self, length):
        # toward -300 dB the coefficients' rounding sets the sidelobes: a
        # design that measures more than 0.5 dB above its target is refused,
        # naming the level it measured
        for sl in (-400.0, -1000.0):
            with pytest.raises(ConfigurationError, match="infeasible") as info:
                dc_window(length, sl)
            measured = float(str(info.value).split("measure ")[1].split(" dB")[0])
            assert sl + 0.5 < measured < -250.0
        assert dc_window(length, -120.0).sl_db_measured <= -120.0 + 0.5

    def test_nominal_sidelobe_levels(self):
        assert nominal_sidelobe_level("rect", 20, -40.0) == pytest.approx(0.05)
        assert nominal_sidelobe_level("dc", 20, -40.0) == pytest.approx(1e-2)
        with pytest.raises(ValueError):
            nominal_sidelobe_level("hann", 20, -40.0)

    def test_mainlobe_search_matches_the_stepwise_scan(self, monkeypatch):
        # every design field, or the refusal, is bit for bit what stepping
        # down the scan one point at a time gives
        def designs():
            out = []
            for length in range(3, 301):
                for sl in (-10.0, -25.0, -40.0, -60.0, -120.0):
                    try:
                        d = dc_window(length, sl)
                    except ConfigurationError as exc:
                        out.append(str(exc))
                    else:
                        out.append((d.coeffs.tobytes(), d.sl_db_target, d.sl_db_measured,
                                    d.k_main))
            return out

        fast = designs()
        monkeypatch.setattr(windows, "measure_doppler_response", stepwise_doppler_response)
        assert fast == designs()
        assert any(isinstance(d, str) for d in fast)

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
        assert np.mean(np.abs(pair.tx) ** 2) == pytest.approx(1.0, rel=1e-12)
        # with no Doppler vectors both sides are the rectangular grid of 1+0j
        rect, plain = WindowPair.rectangular(grid), WindowPair.separable(grid)
        for a, b in ((rect.tx, plain.tx), (rect.rx, plain.rx)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_all_ones_sides_are_marked_where_they_are_built(self):
        grid = FrameGrid(M=6, N=20)
        coeffs = dc_window(grid.N, -40.0).coeffs
        marks = {
            "rect": WindowPair.rectangular(grid),
            "dc-tx": WindowPair.separable(grid, tx_doppler=coeffs),
            "dc-rx": WindowPair.separable(grid, rx_doppler=coeffs),
            "tx-grid": WindowPair.from_tx_grid(np.full((3,) + grid.shape, 0.5)),
            # a pair built from two grids marks neither side, all ones or not
            "grids": WindowPair(tx=np.ones(grid.shape), rx=np.ones(grid.shape)),
        }
        assert {name: (pair.tx_ones, pair.rx_ones) for name, pair in marks.items()} == {
            "rect": (True, True), "dc-tx": (False, True), "dc-rx": (True, False),
            "tx-grid": (False, True), "grids": (False, False)}
        for pair in marks.values():
            assert np.all(pair.tx == 1.0) or not pair.tx_ones
            assert np.all(pair.rx == 1.0) or not pair.rx_ones

    def test_joint_of_a_marked_pair_is_never_a_writable_alias(self):
        grid = FrameGrid(M=6, N=20)
        tx = np.abs(np.random.default_rng(5).standard_normal(grid.shape)) + 0.1
        for pair in (WindowPair.rectangular(grid), WindowPair.from_tx_grid(tx),
                     WindowPair.separable(grid, rx_doppler=dc_window(grid.N, -40.0).coeffs)):
            joint = pair.joint
            assert joint.tobytes() == (pair.rx * pair.tx).tobytes()
            assert not joint.flags.writeable
            with pytest.raises(ValueError):
                joint[0, 0] = 2.0
        plain = WindowPair(tx=tx, rx=np.ones(grid.shape))
        assert plain.joint.flags.writeable and not np.shares_memory(plain.joint, plain.tx)
        # a rect/rect pair hands back the gains themselves, with no product
        gains = np.ones(grid.shape, dtype=complex)
        assert WindowPair.rectangular(grid).windowed(gains) is gains
        assert WindowPair.from_tx_grid(tx).windowed(gains) is not gains

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
        assert total / frames == pytest.approx(grid.size * np.mean(np.abs(pair.tx) ** 2),
                                               rel=0.01)
