import numpy as np
import pytest

from _helpers import column_identity_residual, rand_sym
from ltlt.aasen import (
    SingularMatrixError,
    factorize,
    solve,
    tridiag_solve,
)
from ltlt.extremal import extremal_matrix
from ltlt.matcore import (
    SymmetricMatrix,
    SymmetricTridiagonal,
    max_abs,
    permute_sym,
    residual,
)


def test_factorize_n1():
    f = factorize(SymmetricMatrix(np.array([[5.0]])))
    assert f.p.p.tolist() == [0]
    assert f.L.full().tolist() == [[1.0]]
    assert f.T.diag.tolist() == [5.0]


def test_factorize_n2_is_trivial():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = rand_sym(rng, 2)
        f = factorize(a)
        assert f.p.p.tolist() == [0, 1]
        assert np.array_equal(f.L.strict, np.zeros((2, 2)))
        assert f.T.diag.tolist() == [a.entries[0, 0], a.entries[1, 1]]
        assert f.T.offdiag.tolist() == [a.entries[1, 0]]


def test_factorize_extremal_n4():
    ex = extremal_matrix(4, 0.5)
    f = factorize(ex.A)
    assert residual(ex.A, f.p, f.L, f.T) <= 1e-13
    assert f.T.max_abs() == 8 - 2 * 0.5


def test_factorize_rejects_non_finite():
    m = np.zeros((2, 2))
    m[0, 1] = m[1, 0] = np.inf
    with pytest.raises(ValueError):
        factorize(SymmetricMatrix(m))


def test_factorize_zero_matrix():
    f = factorize(SymmetricMatrix(np.zeros((4, 4))))
    assert np.array_equal(f.L.strict, np.zeros((4, 4)))
    assert f.T.max_abs() == 0.0


def test_factorize_overflow_is_an_error():
    # finite entries whose factors do not fit in a double: scaled down by
    # 1.5e308 this matrix has growth 4, so its true T overflows
    s = np.array([[1, 1, 1, 1], [1, 1, 1, -1], [1, 1, 1, 1], [1, -1, 1, 1]], float)
    with pytest.raises(OverflowError, match="overflow"):
        factorize(SymmetricMatrix(1.5e308 * s))


def test_reconstruction_sweep_1000():
    rng = np.random.default_rng(100)
    for _ in range(1000):
        n = int(rng.integers(1, 31))
        a = rand_sym(rng, n)
        f = factorize(a)
        assert residual(a, f.p, f.L, f.T) <= 1e-12 * n * max_abs(a)
        if n > 1:
            assert np.max(np.abs(f.L.strict)) <= 1.0 + 1e-14
            assert np.all(f.L.strict[1:, 0] == 0.0)


def test_scale_equivariance():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(2, 20))
        a = rand_sym(rng, n)
        c = float(rng.choice([-1000.0, -1.0, 1e-3, 1e3]))
        fa = factorize(a)
        fb = factorize(SymmetricMatrix(a.entries * c))
        assert np.array_equal(fa.p.p, fb.p.p)
        assert np.max(np.abs(fa.L.strict - fb.L.strict)) <= 1e-12
        # T equals c*T up to roundoff at the scale of the problem
        scale = max(n, 1) * max_abs(a) * abs(c)
        assert np.max(np.abs(fb.T.diag - c * fa.T.diag)) <= 1e-14 * scale
        if n > 1:
            assert np.max(np.abs(fb.T.offdiag - c * fa.T.offdiag)) <= 1e-14 * scale


def test_column_identities():
    rng = np.random.default_rng(14)
    for _ in range(50):
        n = int(rng.integers(2, 15))
        a = rand_sym(rng, n)
        f = factorize(a)
        ap = permute_sym(a, f.p).entries
        worst = column_identity_residual(ap, f.L.full(), f.T.diag, f.T.offdiag)
        assert worst <= 1e-12


def test_tridiag_solve_diagonal():
    z = tridiag_solve(SymmetricTridiagonal([2.0, 2.0], [0.0]), [4.0, 6.0])
    assert z.tolist() == [2.0, 3.0]


def test_tridiag_solve_antidiagonal_swap():
    z = tridiag_solve(SymmetricTridiagonal([0.0, 0.0], [1.0]), [3.0, 5.0])
    assert z.tolist() == [5.0, 3.0]


def test_tridiag_solve_vs_dense_oracle():
    rng = np.random.default_rng(15)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 11))
        tri = SymmetricTridiagonal(
            rng.uniform(-1, 1, n), rng.uniform(-1, 1, max(n - 1, 0))
        )
        if abs(np.linalg.det(tri.full())) < 1e-3:
            continue
        y = rng.uniform(-1, 1, n)
        z = tridiag_solve(tri, y)
        worst = max(worst, float(np.max(np.abs(z - np.linalg.solve(tri.full(), y)))))
    assert worst <= 1e-11


def test_tridiag_singular_reports_index():
    with pytest.raises(SingularMatrixError) as err:
        tridiag_solve(SymmetricTridiagonal([1.0, 0.0], [0.0]), [1.0, 1.0])
    assert err.value.pivot_index == 1


def test_solve_identity():
    f = factorize(SymmetricMatrix(np.eye(4)))
    b = np.array([1.0, -2.0, 3.0, 0.5])
    assert solve(f, b).tolist() == b.tolist()


def test_solve_extremal_n6():
    a = extremal_matrix(6, 0.5).A
    x_true = np.ones(6)
    x = solve(factorize(a), a.entries @ x_true)
    assert np.max(np.abs(x - x_true)) <= 1e-10


def test_solve_zero_matrix_singular():
    f = factorize(SymmetricMatrix(np.zeros((3, 3))))
    with pytest.raises(SingularMatrixError):
        solve(f, np.ones(3))


def test_solve_random_well_conditioned():
    rng = np.random.default_rng(16)
    for _ in range(50):
        n = int(rng.integers(1, 31))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        d = rng.uniform(1.0, 2.0, n) * rng.choice([-1.0, 1.0], n)
        a = SymmetricMatrix.from_full(q @ np.diag(d) @ q.T, tol=1e-12)
        b = rng.uniform(-1, 1, n)
        x = solve(factorize(a), b)
        scale = n * max_abs(a) * max(np.max(np.abs(x)), np.max(np.abs(b)))
        assert np.max(np.abs(a.entries @ x - b)) <= 1e-10 * scale


def test_factorize_deterministic():
    rng = np.random.default_rng(17)
    a = rand_sym(rng, 9)
    f1 = factorize(a)
    f2 = factorize(a)
    assert np.array_equal(f1.p.p, f2.p.p)
    assert np.array_equal(f1.L.strict, f2.L.strict)
    assert np.array_equal(f1.T.diag, f2.T.diag)
    assert np.array_equal(f1.T.offdiag, f2.T.offdiag)
