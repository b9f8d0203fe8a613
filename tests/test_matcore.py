import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import assemble_triple_loop, rand_sym
from ltlt.aasen import factorize, solve, tridiag_solve
from ltlt.extremal import extremal_matrix
from ltlt.growth import growth_certificate
from ltlt.matcore import (
    PermutationVector,
    SymmetricMatrix,
    SymmetricTridiagonal,
    UnitLowerTriangular,
    assemble,
    max_abs,
    permute_sym,
    residual,
    working_matrix,
)

TESTS = os.path.dirname(os.path.abspath(__file__))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_max_abs_identity():
    assert max_abs(SymmetricMatrix(np.eye(3))) == 1.0


def test_max_abs_zero():
    assert max_abs(SymmetricMatrix(np.zeros((2, 2)))) == 0.0
    # max(a.max(), -a.min()) reads -0.0 on a matrix of negative zeros
    assert not np.signbit(max_abs(SymmetricMatrix(-np.zeros((2, 2)))))


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
    out = assemble(ex.ref.L, ex.ref.T)
    assert np.max(np.abs(out.entries - ex.A.entries)) <= 1e-14


def _rand_factors(rng, n):
    """Random L (first column e_1, |l_ij| <= 1) and T with entries in [-2, 2]."""
    strict = np.tril(rng.uniform(-1, 1, (n, n)), -1)
    strict[1:, 0] = 0.0
    tri = SymmetricTridiagonal(rng.uniform(-2, 2, n), rng.uniform(-2, 2, max(n - 1, 0)))
    return UnitLowerTriangular(strict), tri


@pytest.mark.parametrize("n", range(1, 9))
def test_assemble_matches_triple_loop(n):
    lower, tri = _rand_factors(np.random.default_rng(5), n)  # n = 6 is the original case
    got = assemble(lower, tri).entries
    want = assemble_triple_loop(lower.full(), tri.diag, tri.offdiag)
    assert np.max(np.abs(got - want)) <= 1e-13


def _working_matrix_cases():
    rng = np.random.default_rng(7)
    for n in range(1, 61):
        yield _rand_factors(rng, n)
    for n, deltas in ((4, (0.1, 0.5, 1.0, 2.0)), (5, (0.1, 0.25, 1.0)), (6, (0.4, 0.6, 0.8))):
        for delta in deltas:
            ref = extremal_matrix(n, delta).ref
            yield ref.L, ref.T


def test_working_matrix_matches_dense_product():
    eps = np.finfo(float).eps
    for lower, tri in _working_matrix_cases():
        h = working_matrix(lower, tri)
        dense = tri.full() @ lower.full().T
        assert h.shape == dense.shape and h.flags.c_contiguous
        assert np.max(np.abs(h - dense)) <= 8 * eps * tri.max_abs()
        # upper Hessenberg: every entry below the subdiagonal is a zero
        assert not np.any(np.tril(h, -2))


def _traced_peak(call) -> int:
    """Bytes a call allocates at its peak beyond what was live before it."""
    call()  # first-call caches and imports stay out of the measurement
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "stage, budget", [("factorize", 4), ("certificate", 2), ("residual", 2), ("max_abs", 0.01)]
)
def test_dense_stages_stay_within_memory_budget(stage, budget):
    # budget in n x n arrays of doubles: n x n temporaries that hold no
    # result (np.eye, np.triu and np.abs copies, a dense T, a second copy of
    # the certificate's rows, a whole L T L^T or its difference
    # with P A P^T) go over it
    n = 300
    a = rand_sym(np.random.default_rng(8), n)
    f = factorize(a)
    call = {
        "factorize": lambda: factorize(a),
        "certificate": lambda: growth_certificate(a, f),
        "residual": lambda: residual(a, f.p, f.L, f.T),
        "max_abs": lambda: max_abs(a),
    }[stage]
    assert _traced_peak(call) <= budget * 8 * n * n


def test_dense_op_stays_within_memory_budget():
    # one op as the benchmark runs it: the factors and the certificate stay
    # alive through the residual and the solve.  The op peaks at 3.4 n x n
    # arrays beyond A (3.35 of them in factorize), where holding a whole
    # second product in the residual took it to 4.2
    n = 300
    a = rand_sym(np.random.default_rng(8), n)
    b = np.random.default_rng(9).uniform(-1.0, 1.0, n)

    def op():
        f = factorize(a)
        cert = growth_certificate(a, f)
        return f, cert, residual(a, f.p, f.L, f.T), solve(f, b)

    assert _traced_peak(op) <= 3.5 * 8 * n * n


def _assert_lh_path_matches_reference(a, perm, lower, tri):
    """assemble and residual against the whole-matrix products, bit for bit."""
    h = working_matrix(lower, tri)
    m = lower.strict @ h + h
    sym = np.tril(m) + np.tril(m, -1).T  # the lower triangle, mirrored as from_full() does
    want = np.max(np.abs(a.entries[np.ix_(perm.p, perm.p)] - sym))
    assert assemble(lower, tri).entries.tobytes() == sym.tobytes()
    assert np.float64(residual(a, perm, lower, tri)).tobytes() == want.tobytes()


def _lh_path_cases():
    for n in (1, 2, 63, 64, 65, 129):  # in 64-row blocks: 1, 1, 1, 1, 2 and 3 of them
        a = rand_sym(np.random.default_rng([12, n]), n)
        yield pytest.param(a, factorize(a), id=f"random-{n}")
    for n, delta in ((4, 0.5), (5, 0.25), (6, 0.4)):
        ex = extremal_matrix(n, delta)
        yield pytest.param(ex.A, ex.ref, id=f"extremal-{n}-reference")
        yield pytest.param(ex.A, factorize(ex.A), id=f"extremal-{n}-factorize")


@pytest.mark.parametrize("a, f", _lh_path_cases())
def test_lh_path_matches_whole_matrix_reference(a, f):
    _assert_lh_path_matches_reference(a, f.p, f.L, f.T)


def _run_child(code: str, threads: int) -> str:
    """Run ``code`` in a fresh interpreter with ``threads`` BLAS threads and
    the tests directory importable; returns its standard output."""
    env = dict(os.environ, **{v: str(threads) for v in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (TESTS, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_column_blocked_product_matches_one_shot_product():
    # from n = 260 on L H is formed in column blocks; under a single-threaded
    # BLAS each block's bits equal the one-shot product's.  A multithreaded
    # BLAS splits a product between threads by its own rule, so from n ~ 260
    # the one-shot product's bits already depend on the thread count, and the
    # check runs in a child with one BLAS thread
    code = (
        "import numpy as np\n"
        "from _helpers import rand_sym\n"
        "from test_matcore import _assert_lh_path_matches_reference\n"
        "from ltlt.aasen import factorize\n"
        "for n in (300, 600):\n"
        "    a = rand_sym(np.random.default_rng([12, n]), n)\n"
        "    f = factorize(a)\n"
        "    _assert_lh_path_matches_reference(a, f.p, f.L, f.T)\n"
    )
    _run_child(code, threads=1)


def test_factors_and_certificate_do_not_depend_on_the_blas_thread_count():
    # at n = 300 a multithreaded BLAS already changes the bits of L H, and so
    # of assemble and residual; the factors, the growth and the certificate's
    # lhs must hash the same with one BLAS thread and with two
    code = (
        "import hashlib\n"
        "import numpy as np\n"
        "from _helpers import rand_sym\n"
        "from ltlt.aasen import factorize\n"
        "from ltlt.growth import growth_certificate, growth_factor\n"
        "a = rand_sym(np.random.default_rng([12, 300]), 300)\n"
        "f = factorize(a)\n"
        "parts = (f.p.p, f.L.strict, f.T.diag, f.T.offdiag,\n"
        "         np.float64(growth_factor(a, f)), growth_certificate(a, f).lhs)\n"
        "for x in parts:\n"
        "    print(hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest())\n"
    )
    one, two = (_run_child(code, threads).split() for threads in (1, 2))
    assert len(one) == 6
    assert one == two


def test_assemble_exactly_symmetric():
    out = assemble(*_rand_factors(np.random.default_rng(6), 7))
    assert np.array_equal(out.entries, out.entries.T)


def test_assemble_near_the_top_of_the_double_range():
    # L = I, so L T L^T is T, with entries near the top of the double range
    tri = SymmetricTridiagonal([1.7e308, -1.7e308], [1.7e308])
    assert np.array_equal(assemble(UnitLowerTriangular.identity(2), tri).entries, tri.full())


def _overflowing_factors():
    # entry (3, 3) of L T L^T is t_22 + t_33, past the double range
    return UnitLowerTriangular(_lower3(1.0)), SymmetricTridiagonal(np.full(3, 1.7e308), np.zeros(2))


def test_assemble_overflow_is_an_error():
    lower, tri = _overflowing_factors()
    with pytest.raises(OverflowError, match=r"L T L\^T overflows"):
        assemble(lower, tri)


def test_residual_overflow_is_an_error():
    lower, tri = _overflowing_factors()
    eye = SymmetricMatrix(np.eye(3))
    with pytest.raises(OverflowError, match=r"L T L\^T overflows"):
        residual(eye, PermutationVector.identity(3), lower, tri)


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
    assert residual(ex.A, ex.ref.p, ex.ref.L, ex.ref.T) <= 1e-13


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
        # the three factor types used to construct at n = 0, and a solve or
        # max_abs() through them then raised IndexError or numpy's zero-size error
        (lambda: SymmetricTridiagonal([], []), "matrix dimension must be >= 1"),
        (lambda: UnitLowerTriangular(np.zeros((0, 0))), "matrix dimension must be >= 1"),
        (lambda: PermutationVector([]), "permutation dimension must be >= 1"),
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
        # a NaN multiplier used to pass the |l| <= 1 test
        (lambda: UnitLowerTriangular(_lower3(np.nan)), "multiplier entries must be finite, got nan"),
        (lambda: UnitLowerTriangular(_lower3(-np.inf)),
         "multiplier entries must be finite, got -inf"),
        (lambda: SymmetricTridiagonal([1.0, np.nan], [0.0]),
         "diag and offdiag entries must be finite, got nan"),
        (lambda: SymmetricTridiagonal([1.0, 2.0], [np.inf]),
         "diag and offdiag entries must be finite, got inf"),
        # the int cast used to truncate 1.7 to 1
        (lambda: PermutationVector([1.7, 0.2]), "not a permutation"),
        (lambda: PermutationVector(np.array([1.0, np.nan])), "not a permutation"),
        (
            lambda: assemble(
                UnitLowerTriangular.identity(2), SymmetricTridiagonal(np.ones(3), np.zeros(2))
            ),
            "dimension mismatch: L is 2, T is 3",
        ),
        (
            lambda: residual(
                SymmetricMatrix(np.eye(3)), PermutationVector.identity(3),
                UnitLowerTriangular.identity(2), SymmetricTridiagonal(np.ones(2), np.zeros(1)),
            ),
            "dimension mismatch: A is 3, L is 2",
        ),
        (
            lambda: tridiag_solve(SymmetricTridiagonal(np.ones(2), np.zeros(1)), np.ones(3)),
            "right-hand side has length",
        ),
        (lambda: solve(factorize(SymmetricMatrix(np.eye(2))), [1.0]), "right-hand side has length"),
        # a NaN right-hand side used to read as "overflows the double range"
        (lambda: tridiag_solve(SymmetricTridiagonal(np.ones(2), np.zeros(1)), [0.0, np.nan]),
         "right-hand side entries must be finite, got nan"),
        (lambda: tridiag_solve(SymmetricTridiagonal(np.ones(2), np.zeros(1)), [np.inf, 0.0]),
         "right-hand side entries must be finite, got inf"),
        (lambda: solve(factorize(SymmetricMatrix(np.eye(2))), [0.0, np.nan]),
         "right-hand side entries must be finite, got nan"),
        (lambda: solve(factorize(SymmetricMatrix(np.eye(2))), [np.inf, 0.0]),
         "right-hand side entries must be finite, got inf"),
        # a float cast used to drop the imaginary part with only a ComplexWarning
        (lambda: SymmetricMatrix(np.array([[1j]])), "entries must be real, got complex128"),
        (lambda: SymmetricMatrix.from_full([[1.0, 1j], [1j, 1.0]]), "must be real, got complex128"),
        (lambda: SymmetricTridiagonal([1.0, 2.0], [1j]), "must be real, got complex128"),
        (lambda: UnitLowerTriangular(np.zeros((2, 2), complex)), "must be real, got complex128"),
        (lambda: PermutationVector([0j, 1 + 0j]), "must be real, got complex128"),
        (lambda: solve(factorize(SymmetricMatrix(np.eye(2))), [1j, 1.0]),
         "entries must be real, got complex128"),
        (lambda: tridiag_solve(SymmetricTridiagonal(np.ones(2), np.zeros(1)), [0.0, 1j]),
         "entries must be real, got complex128"),
    ],
    ids=[
        "sym-non-square", "sym-empty", "tridiag-empty", "lower-empty", "perm-empty",
        "sym-asymmetric", "from-full-non-square",
        "from-full-nan-above", "from-full-nan-below", "sym-inf", "sym-nan", "from-full-nan-diag",
        "from-full-inf", "from-full-skew-overflow", "perm-0d", "lower-0d", "tridiag-0d-diag",
        "tridiag-0d-offdiag",
        "lower-non-square", "lower-diagonal", "lower-above-1", "lower-below-minus-1",
        "tridiag-lengths", "lower-nan", "lower-inf", "tridiag-nan", "tridiag-inf",
        "perm-fractional", "perm-nan", "assemble-dims", "residual-dims", "tridiag-solve-rhs",
        "solve-rhs",
        "tridiag-solve-nan", "tridiag-solve-inf", "solve-nan", "solve-inf",
        "sym-complex", "from-full-complex", "tridiag-complex", "lower-complex", "perm-complex",
        "solve-complex", "tridiag-solve-complex",
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
