import numpy as np
import pytest

from ltlt.extremal import DeltaWindowError, extremal_matrix, verify_example
from ltlt.growth import growth_factor
from ltlt.matcore import assemble, max_abs, residual


def _window_grid(n, points=20):
    lo, up = {4: (0.0, 2.0), 5: (0.0, 1.0), 6: (0.4, 0.8)}[n]
    if n == 6:
        return np.linspace(lo, up, points)
    return np.linspace(lo, up, points + 1)[1:]  # open at 0


def test_assembly_and_growth_closed_forms():
    for n in (4, 5, 6):
        for d in _window_grid(n):
            ex = extremal_matrix(n, float(d))
            diff = np.max(np.abs(assemble(ex.ref.L, ex.ref.T).entries - ex.A.entries))
            assert diff <= 1e-13
            assert max_abs(ex.A) == 1.0
            ref = growth_factor(ex.A, ex.ref)
            assert ref == ex.expected_growth


def test_expected_growth_formulas():
    assert extremal_matrix(4, 0.01).expected_growth == 8 - 2 * 0.01
    assert extremal_matrix(5, 0.01).expected_growth == 16 - 12 * 0.01
    assert extremal_matrix(6, 0.4).expected_growth == 24.0


def test_attainability_near_zero_delta():
    for n in (4, 5):
        ex = extremal_matrix(n, 1e-8)
        assert abs(ex.expected_growth - 2.0 ** (n - 1)) <= 1e-6


def test_n6_peak_growth_at_window_edge():
    grid = [extremal_matrix(6, float(d)).expected_growth for d in _window_grid(6, 50)]
    assert max(grid) == extremal_matrix(6, 0.4).expected_growth == 24.0
    assert max(grid) < 32.0


def test_window_errors():
    cases = [
        (4, 3.0, "0 < delta <= 2"),
        (4, 0.0, "degenerates"),
        (4, -0.0, "degenerates"),
        (5, 0.0, "degenerates"),
        (6, 0.5, "t[3,2]"),
        (4, -1.0, "a[2,4]"),
        (5, 1.0001, "0 < delta <= 1"),
        (6, 0.2, "2/5 <= delta <= 4/5"),
        (6, 0.9, "a[4,4]"),
        # a non-finite delta is named, not blamed on delta = 0 or an entry bound
        (4, float("nan"), "delta must be a finite number, got nan"),
        (5, float("nan"), "delta must be a finite number, got nan"),
        (6, float("nan"), "delta must be a finite number, got nan"),
        (4, float("inf"), "delta must be a finite number, got inf"),
        (6, float("-inf"), "delta must be a finite number, got -inf"),
    ]
    for n, d, fragment in cases:
        with pytest.raises(DeltaWindowError, match=".*"):
            extremal_matrix(n, d)
        try:
            extremal_matrix(n, d)
        except DeltaWindowError as e:
            assert fragment in str(e)


def test_unsupported_dimension():
    with pytest.raises(ValueError):
        extremal_matrix(7, 0.5)


def test_window_boundaries_valid():
    extremal_matrix(4, 2.0)
    extremal_matrix(5, 1.0)
    extremal_matrix(6, 0.4)
    extremal_matrix(6, 0.8)


def test_verify_n4_half():
    rep = verify_example(extremal_matrix(4, 0.5))
    assert rep.reference_residual <= 1e-13
    assert abs(rep.recomputed_certificate.rho - 7.0) <= 1e-10
    assert rep.reference_certificate.all_pass
    assert rep.recomputed_certificate.all_pass


def test_verify_n6_two_fifths():
    rep = verify_example(extremal_matrix(6, 2.0 / 5.0))
    assert rep.reference_certificate.all_pass
    assert rep.recomputed_certificate.all_pass
    assert abs(rep.reference_certificate.rho - 24.0) <= 1e-10
    assert abs(rep.recomputed_certificate.rho - 24.0) <= 1e-10


def test_verify_n5_window_edge():
    rep = verify_example(extremal_matrix(5, 1.0))
    assert rep.reference_residual <= 1e-13


def test_recomputed_branch_tracks_reference():
    # the factorizer recovers the displayed growth across each window
    for n in (4, 5, 6):
        for d in (*_window_grid(n), *_window_grid(n, 50)):
            ex = extremal_matrix(n, float(d))
            rep = verify_example(ex)
            assert abs(rep.recomputed_certificate.rho - ex.expected_growth) <= 1e-10
            assert rep.recomputed_residual <= 1e-13


def test_reference_residual_across_windows():
    for n in (4, 5, 6):
        for d in _window_grid(n):
            ex = extremal_matrix(n, float(d))
            assert residual(ex.A, ex.ref.p, ex.ref.L, ex.ref.T) <= 1e-13
