import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import assemble_triple_loop, rand_sym
from ltlt.aasen import factorize, solve, tridiag_solve
from ltlt.extremal import extremal_matrix
from ltlt.matcore import (
    PermutationVector,
    SymmetricMatrix,
    SymmetricTridiagonal,
    UnitLowerTriangular,
    assemble,
    max_abs,
    permute_sym,
    residual,
)


def test_max_abs_identity():
    assert max_abs(SymmetricMatrix(np.eye(3))) == 1.0


def test_max_abs_zero():
    assert max_abs(SymmetricMatrix(np.zeros((2, 2)))) == 0.0


def test_max_abs_extremal_n6():
    assert max_abs(extremal_matrix(6, 0.4).A) == 1.0


def test_max_abs_scaling():
    rng = np.random.default_rng(3)
    a = rand_sym(rng, 5)
    for c in (-3.5, 0.25, 1e3):
        assert max_abs(SymmetricMatrix(a.entries * c)) == abs(c) * max_abs(a)


def test_permute_identity():
    rng = np.random.default_rng(0)
    a = rand_sym(rng, 4)
    out = permute_sym(a, PermutationVector.identity(4))
    np.testing.assert_array_equal(out.entries, a.entries)


def test_permute_2x2_swap():
    a = SymmetricMatrix(np.array([[1.0, 2.0], [2.0, 3.0]]))
    out = permute_sym(a, PermutationVector(np.array([1, 0])))
    np.testing.assert_array_equal(out.entries, [[3.0, 2.0], [2.0, 1.0]])


def test_permute_roundtrip_exact():
    rng = np.random.default_rng(1)
    a = rand_sym(rng, 5)
    p = PermutationVector(rng.permutation(5))
    back = permute_sym(permute_sym(a, p), PermutationVector(np.argsort(p.p)))
    assert np.array_equal(back.entries, a.entries)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**31))
def test_permute_roundtrip_property(n, seed):
    rng = np.random.default_rng(seed)
    a = rand_sym(rng, n)
    p = PermutationVector(rng.permutation(n))
    back = permute_sym(permute_sym(a, p), PermutationVector(np.argsort(p.p)))
    assert np.array_equal(back.entries, a.entries)


def test_permute_dim_mismatch():
    a = SymmetricMatrix(np.eye(3))
    with pytest.raises(ValueError):
        permute_sym(a, PermutationVector.identity(4))


def test_assemble_identity():
    out = assemble(UnitLowerTriangular.identity(2), SymmetricTridiagonal([1.0, 1.0], [0.0]))
    np.testing.assert_array_equal(out.entries, np.eye(2))


def test_assemble_extremal_n4():
    ex = extremal_matrix(4, 0.5)
    out = assemble(ex.refL, ex.refT)
    assert np.max(np.abs(out.entries - ex.A.entries)) <= 1e-14


def test_assemble_matches_triple_loop():
    rng = np.random.default_rng(5)
    n = 6
    strict = np.tril(rng.uniform(-1, 1, (n, n)), -1)
    strict[1:, 0] = 0.0
    lower = UnitLowerTriangular(strict)
    tri = SymmetricTridiagonal(rng.uniform(-2, 2, n), rng.uniform(-2, 2, n - 1))
    got = assemble(lower, tri).entries
    want = assemble_triple_loop(lower.full(), tri.diag, tri.offdiag)
    assert np.max(np.abs(got - want)) <= 1e-13


def test_assemble_exactly_symmetric():
    rng = np.random.default_rng(6)
    n = 7
    strict = np.tril(rng.uniform(-1, 1, (n, n)), -1)
    strict[1:, 0] = 0.0
    out = assemble(
        UnitLowerTriangular(strict),
        SymmetricTridiagonal(rng.uniform(-2, 2, n), rng.uniform(-2, 2, n - 1)),
    )
    assert np.array_equal(out.entries, out.entries.T)


def test_residual_trivial_2x2():
    a = SymmetricMatrix(np.array([[2.0, -1.0], [-1.0, 0.5]]))
    r = residual(
        a,
        PermutationVector.identity(2),
        UnitLowerTriangular.identity(2),
        SymmetricTridiagonal(np.diag(a.entries), np.array([a.entries[1, 0]])),
    )
    assert r == 0.0


def test_residual_extremal_n5():
    ex = extremal_matrix(5, 0.25)
    assert residual(ex.A, ex.refP, ex.refL, ex.refT) <= 1e-13


def test_residual_random_20x20():
    rng = np.random.default_rng(7)
    a = rand_sym(rng, 20)
    f = factorize(a)
    assert residual(a, f.p, f.L, f.T) <= 1e-12 * 20 * max_abs(a)


def test_symmetric_matrix_rejects_asymmetry():
    m = np.array([[1.0, 2.0], [2.0 + 1e-6, 1.0]])
    with pytest.raises(ValueError):
        SymmetricMatrix.from_full(m, tol=1e-9)
    fixed = SymmetricMatrix.from_full(m, tol=1e-5)
    assert np.array_equal(fixed.entries, fixed.entries.T)


def _lower3(l32):
    """3-by-3 strict lower part whose one multiplier, l_32, is l32."""
    strict = np.zeros((3, 3))
    strict[2, 1] = l32
    return strict


def test_unit_lower_invariants():
    with pytest.raises(ValueError):
        UnitLowerTriangular(np.array([[0.0, 0.0], [1.5, 0.0]]))  # multiplier > 1
    bad_first = np.zeros((3, 3))
    bad_first[1, 0] = 0.5
    with pytest.raises(ValueError):
        UnitLowerTriangular(bad_first)
    # |l_ij| <= 1 holds with no slack: the sweep clips every multiplier into [-1, 1]
    for l32 in (1.0, -1.0):
        assert UnitLowerTriangular(_lower3(l32)).strict[2, 1] == l32


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: SymmetricMatrix(np.zeros((2, 3))), r"square matrix, got shape \(2, 3\)"),
        (lambda: SymmetricMatrix(np.zeros((0, 0))), "matrix dimension must be >= 1"),
        (lambda: SymmetricMatrix([[1.0, 2.0], [3.0, 1.0]]), "not exactly symmetric"),
        (lambda: SymmetricMatrix.from_full(np.zeros((3, 2))), r"square matrix, got shape \(3, 2\)"),
        # non-finite entries are rejected first, by name, in both constructors
        (lambda: SymmetricMatrix.from_full([[1.0, np.nan], [2.0, 1.0]]), "finite, got nan"),
        (lambda: SymmetricMatrix.from_full([[1.0, 2.0], [np.nan, 1.0]]), "finite, got nan"),
        (lambda: SymmetricMatrix([[1.0, np.inf], [np.inf, 1.0]]), "finite, got inf"),
        (lambda: SymmetricMatrix([[np.nan]]), "finite, got nan"),
        (lambda: SymmetricMatrix.from_full([[np.nan, 0.0], [0.0, 1.0]]), "finite, got nan"),
        # inf - inf in the skew used to print a RuntimeWarning before the error
        (lambda: SymmetricMatrix.from_full([[1.0, np.inf], [np.inf, 1.0]]), "finite, got inf"),
        # finite entries whose skew overflows used to print a RuntimeWarning too
        (lambda: SymmetricMatrix.from_full([[0.0, 1.7e308], [-1.7e308, 0.0]]), "asymmetric by inf"),
        # 0-d arrays used to raise IndexError before the ndim check
        (lambda: PermutationVector(3), "not a permutation"),
        (lambda: UnitLowerTriangular(np.float64(0.5)), r"square array, got shape \(\)"),
        (lambda: SymmetricTridiagonal(1.0, []), r"1-d, got shapes \(\) and \(0,\)"),
        (lambda: SymmetricTridiagonal([1.0, 2.0], 5.0), r"1-d, got shapes \(2,\) and \(\)"),
        (lambda: UnitLowerTriangular(np.zeros((3, 2))), "expected a square array"),
        (lambda: UnitLowerTriangular(np.eye(2)), "on or above the diagonal must be zero"),
        (lambda: UnitLowerTriangular(_lower3(np.nextafter(1.0, 2.0))), "exceeds 1"),
        (lambda: UnitLowerTriangular(_lower3(np.nextafter(-1.0, -2.0))), "exceeds 1"),
        (lambda: SymmetricTridiagonal([1.0, 2.0, 3.0], [1.0]), "got 3 and 1"),
        (
            lambda: assemble(
                UnitLowerTriangular.identity(2), SymmetricTridiagonal(np.ones(3), np.zeros(2))
            ),
            "dimension mismatch: L is 2, T is 3",
        ),
        (
            lambda: tridiag_solve(SymmetricTridiagonal(np.ones(2), np.zeros(1)), np.ones(3)),
            "right-hand side has length",
        ),
        (lambda: solve(factorize(SymmetricMatrix(np.eye(2))), [1.0]), "right-hand side has length"),
    ],
    ids=[
        "sym-non-square", "sym-empty", "sym-asymmetric", "from-full-non-square",
        "from-full-nan-above", "from-full-nan-below", "sym-inf", "sym-nan", "from-full-nan-diag",
        "from-full-inf", "from-full-skew-overflow", "perm-0d", "lower-0d", "tridiag-0d-diag",
        "tridiag-0d-offdiag",
        "lower-non-square", "lower-diagonal", "lower-above-1", "lower-below-minus-1",
        "tridiag-lengths", "assemble-dims", "tridiag-solve-rhs", "solve-rhs",
    ],
)
def test_constructors_and_solves_reject_bad_shapes_and_values(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        PermutationVector(np.array([0, 0, 2]))


def test_types_compare_by_value():
    eye, flip = np.eye(3), np.eye(3)[::-1]
    pairs = [
        (SymmetricMatrix(eye), SymmetricMatrix(eye.copy()), SymmetricMatrix(flip)),
        (PermutationVector.identity(3), PermutationVector(np.arange(3)),
         PermutationVector([2, 1, 0])),
        (UnitLowerTriangular.identity(3), UnitLowerTriangular(np.zeros((3, 3))),
         UnitLowerTriangular(np.tril(np.full((3, 3), 0.5), -1) * [0.0, 1.0, 1.0])),
        (SymmetricTridiagonal([1.0, 2.0], [3.0]), SymmetricTridiagonal([1.0, 2.0], [3.0]),
         SymmetricTridiagonal([1.0, 2.0], [-3.0])),
    ]
    for a, same, other in pairs:
        assert a == same and not a != same
        assert a != other and not a == other
        assert a != SymmetricMatrix(np.eye(4)) and a != 1
    f = factorize(SymmetricMatrix(flip))
    assert f == factorize(SymmetricMatrix(flip.copy()))
    assert f != factorize(SymmetricMatrix(eye))
