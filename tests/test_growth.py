import numpy as np
import pytest

from _helpers import certificate_rows_scalar, extremal_n6_half, rand_sym
from ltlt.aasen import AasenFactors, factorize
from ltlt.extremal import extremal_matrix
from ltlt.growth import (
    MARGIN_TOL,
    MAX_N,
    CheckRow,
    GrowthCertificate,
    UndefinedGrowthError,
    growth_certificate,
    growth_factor,
)
from ltlt.matcore import (
    PermutationVector,
    SymmetricMatrix,
    SymmetricTridiagonal,
    UnitLowerTriangular,
)


def test_growth_identity():
    a = SymmetricMatrix(np.eye(5))
    assert growth_factor(a, factorize(a)) == 1.0


def test_growth_extremal_n4():
    a = extremal_matrix(4, 0.01).A
    assert abs(growth_factor(a, factorize(a)) - 7.98) <= 1e-10


def test_growth_extremal_n6():
    a = extremal_matrix(6, 0.4).A
    assert abs(growth_factor(a, factorize(a)) - 24.0) <= 1e-10


def test_growth_zero_matrix_rejected():
    a = SymmetricMatrix(np.zeros((3, 3)))
    f = factorize(a)
    with pytest.raises(UndefinedGrowthError):
        growth_factor(a, f)
    with pytest.raises(UndefinedGrowthError):
        growth_certificate(a, f)


def test_growth_rejects_factors_of_another_dimension():
    a, f = SymmetricMatrix(np.eye(3)), factorize(SymmetricMatrix(np.eye(2)))
    for run in (growth_factor, growth_certificate):
        with pytest.raises(ValueError, match="dimension mismatch: A is 3, its factors are 2"):
            run(a, f)


def test_certificate_identity_all_pass():
    a = SymmetricMatrix(np.eye(6))
    cert = growth_certificate(a, factorize(a))
    assert cert.all_pass
    # the unit diagonal sits exactly on the |t11|, |t22| bounds; no row dips below
    assert np.all(cert.bound - cert.lhs >= 0)
    assert cert.rho == 1.0


def test_certificate_small_delta_margin():
    # reference factors at delta -> 0+: the trailing diagonal bound margin
    # closes like 12 * delta
    ex = extremal_matrix(5, 1e-6)
    cert = growth_certificate(ex.A, ex.ref)
    assert cert.all_pass
    t54, t55 = cert.row(len(cert.lhs) - 2), cert.row(len(cert.lhs) - 1)
    assert (t54.label, t55.label) == ("t[5,4]", "t[5,5]")
    assert t55.bound == 16.0
    assert abs(t55.margin - 12e-6) <= 1e-9
    assert abs(t54.margin - 4e-6) <= 1e-9


def test_certificate_row_count_structure():
    # n rows of T bounds: 3 leading + 2(n-2); H rows: (n-2) + (n-1)(n-2)/2 + 1
    for n in (3, 6, 10):
        a = SymmetricMatrix(np.eye(n))
        cert = growth_certificate(a, factorize(a))
        expect = 3 + 2 * (n - 2) + (n - 2) + (n - 1) * (n - 2) // 2 + 1
        assert len(cert.lhs) == len(cert.bound) == expect
        assert cert.row(expect - 1).label == f"t[{n},{n}]"


def test_certificate_n2_leading_rows_only():
    a = SymmetricMatrix(np.array([[1.0, -0.5], [-0.5, 0.25]]))
    cert = growth_certificate(a, factorize(a))
    assert len(cert.lhs) == 3
    assert [cert.row(k).label for k in range(3)] == ["t[1,1]", "t[2,1]", "t[2,2]"]
    assert cert.all_pass


def test_certificate_random_sweep():
    rng = np.random.default_rng(200)
    for _ in range(200):
        n = int(rng.integers(3, 13))
        a = rand_sym(rng, n)
        f = factorize(a)
        cert = growth_certificate(a, f)
        assert cert.all_pass
        # certificate dominance: passing rows cap the growth factor
        assert cert.rho <= 2.0 ** (n - 1) + 1e-9


def _float_bytes(values):
    return np.array(values, dtype=float).tobytes()


def _assert_matches_oracle(a, f):
    """growth_certificate against the row-at-a-time oracle, bit for bit."""
    cert = growth_certificate(a, f)
    want = certificate_rows_scalar(a, f)
    assert len(cert.lhs) == len(want)
    for k, row in enumerate(want):
        got = cert.row(k)
        assert got.label == row[0]
        assert _float_bytes(got[1:]) == _float_bytes(row[1:])
    for k, got in enumerate((cert.lhs, cert.bound, cert.bound - cert.lhs), 1):
        assert got.tobytes() == _float_bytes([row[k] for row in want])
    assert cert.all_pass is all(row[3] >= -MARGIN_TOL for row in want)
    assert cert.rho == growth_factor(a, f)
    worst = cert.worst()
    assert type(worst.lhs) is float and type(worst.margin) is float
    assert tuple(worst) == min(want, key=lambda row: row[3])
    return cert, want


@pytest.mark.parametrize("n", range(1, 31))
def test_certificate_matches_oracle_random(n):
    rng = np.random.default_rng([60, n])
    for _ in range(3):
        a = rand_sym(rng, n)
        _assert_matches_oracle(a, factorize(a))
        # quarter-quantized entries: exact ties in the pivot search and in H
        q = SymmetricMatrix(np.round(4.0 * a.entries) / 4.0)
        if np.any(q.entries):
            _assert_matches_oracle(q, factorize(q))


@pytest.mark.parametrize("n", [50, 200])
def test_certificate_matches_oracle_large(n):
    a = rand_sym(np.random.default_rng([61, n]), n)
    _assert_matches_oracle(a, factorize(a))


@pytest.mark.parametrize("n", [1, 2, 3, 6, 12])
def test_certificate_matches_oracle_identity_and_ones(n):
    for entries in (np.eye(n), np.ones((n, n))):
        a = SymmetricMatrix(entries)
        _assert_matches_oracle(a, factorize(a))


@pytest.mark.parametrize("n,deltas", [
    (4, (1e-6, 0.01, 0.05, 0.5, 1.0, 2.0)),
    (5, (1e-6, 0.01, 0.1, 0.5, 1.0)),
    (6, (0.4, 0.6, 0.8)),
])
def test_certificate_matches_oracle_extremal(n, deltas):
    for d in deltas:
        ex = extremal_matrix(n, d)
        _assert_matches_oracle(ex.A, factorize(ex.A))
        _assert_matches_oracle(ex.A, ex.ref)
    if n == 6:  # and delta = 1/2, which extremal_matrix rejects
        a = extremal_n6_half()
        _assert_matches_oracle(a, factorize(a))


def test_certificate_failing_rows_match_oracle():
    # factors built by hand, not from A: T breaks several bounds, so the
    # certificate must fail on the same first row the oracle fails on
    lower = np.zeros((5, 5))
    lower[2:, 1] = [1.0, -0.5, 0.25]
    lower[3:, 2] = [1.0, -1.0]
    lower[4, 3] = 0.5
    f = AasenFactors(
        p=PermutationVector.identity(5),
        L=UnitLowerTriangular(lower),
        T=SymmetricTridiagonal(
            np.array([0.5, -1.0, 3.0, -9.0, 40.0]), np.array([1.0, 2.5, -1.0, 7.0])
        ),
    )
    cert, want = _assert_matches_oracle(SymmetricMatrix(np.eye(5)), f)
    assert cert.all_pass is False
    margin = cert.bound - cert.lhs
    k = int(np.flatnonzero(margin < -MARGIN_TOL)[0])
    assert cert.row(k) == next(row for row in want if row[3] < -MARGIN_TOL)
    assert cert.worst().margin < -MARGIN_TOL


def test_certificate_worst_first_of_ties():
    # identity: t[1,1] and t[2,2] both sit exactly on their bound
    a = SymmetricMatrix(np.eye(6))
    cert = growth_certificate(a, factorize(a))
    tight = np.flatnonzero(cert.bound - cert.lhs == 0.0)[:2]
    assert [cert.row(k).label for k in tight] == ["t[1,1]", "t[2,2]"]
    assert cert.worst() == ("t[1,1]", 1.0, 1.0, 0.0)


def test_certificate_row_index_out_of_range():
    a = SymmetricMatrix(np.eye(4))
    cert = growth_certificate(a, factorize(a))
    rows = len(cert.lhs)
    assert cert.row(rows - 1).label == "t[4,4]"
    for k in (rows, -rows - 1, -1):
        with pytest.raises(IndexError, match=f"certificate row {k} out of range for {rows} rows"):
            cert.row(k)


def test_certificate_row_groups_at_max_n():
    # the first and last row of every row group at the largest n whose
    # bounds are representable, and h[3,4], the first from H's third row
    n = MAX_N
    a = rand_sym(np.random.default_rng([62, n]), n)
    cert = growth_certificate(a, factorize(a))
    assert len(cert.lhs) == 525_823
    expect = {
        0: ("t[1,1]", 1.0),
        2: ("t[2,2]", 1.0),
        3: ("h[1,3]", 1.0),
        1_024: ("h[1,1024]", 1.0),
        1_025: ("h[2,3]", 1.0),
        2_046: ("h[2,1024]", 1.0),
        2_047: ("h[3,4]", 2.0),
        523_777: ("h[1023,1024]", 2.0 ** 1021),
        523_778: ("h[1024,1024]", 2.0 ** 1022),
        523_779: ("t[3,2]", 2.0),
        523_780: ("t[3,3]", 4.0),
        525_821: ("t[1024,1023]", 2.0 ** 1022),
        525_822: ("t[1024,1024]", 2.0 ** 1023),
    }
    for k, (label, bound) in expect.items():
        lhs = float(cert.lhs[k])
        assert cert.row(k) == CheckRow(label, lhs, bound, bound - lhs)
    margin = cert.bound - cert.lhs
    k = int(np.argmin(margin))
    assert cert.worst() == cert.row(k)
    assert cert.worst().margin == margin.min()


def test_certificate_equality_by_value():
    a = SymmetricMatrix(np.eye(4))
    f = factorize(a)
    assert growth_certificate(a, f) == growth_certificate(a, f)
    assert growth_certificate(a, f) != growth_certificate(SymmetricMatrix(2.0 * np.eye(4)), f)


def test_certificate_rejects_n_past_max():
    n = MAX_N + 1
    a = SymmetricMatrix(np.eye(n))
    f = AasenFactors(
        p=PermutationVector.identity(n),
        L=UnitLowerTriangular.identity(n),
        T=SymmetricTridiagonal(np.ones(n), np.zeros(n - 1)),
    )
    with pytest.raises(OverflowError, match=f"certificate needs n <= {MAX_N} .*, got {n}"):
        growth_certificate(a, f)


def test_certificate_arrays_are_read_only():
    a = SymmetricMatrix(np.eye(4))
    cert = growth_certificate(a, factorize(a))
    with pytest.raises(ValueError):
        cert.lhs[0] = 0.0
    with pytest.raises(ValueError):
        cert.bound[0] = 0.0
    # a certificate is its rows and n: bound depends on n alone and is built
    # on first access, rho and all_pass are read from lhs, none is stored
    assert list(GrowthCertificate.__dataclass_fields__) == ["lhs", "n"]
    assert cert.bound is cert.bound
    # a caller's writeable lhs is copied, not frozen under the caller
    lhs = np.array(cert.lhs)
    mine = GrowthCertificate(lhs=lhs, n=cert.n)
    assert lhs.flags.writeable and mine.lhs is not lhs and mine == cert
    assert (mine.rho, mine.all_pass) == (cert.rho, cert.all_pass) == (1.0, True)
    # only a read-only float lhs is kept as given: a read-only complex one is
    # rejected, not truncated, as every matrix type's entries are
    lhs = lhs.astype(complex)
    lhs.setflags(write=False)
    with pytest.raises(ValueError, match="entries must be real, got complex128"):
        GrowthCertificate(lhs=lhs, n=cert.n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 9])
def test_certificate_rejects_lhs_of_another_shape(n):
    a = SymmetricMatrix(np.eye(n))
    lhs = growth_certificate(a, factorize(a)).lhs
    rows = len(lhs)
    assert GrowthCertificate(lhs=lhs, n=n).rho == 1.0
    # rho reads T's rows by position, so the rows of another n must not pass
    for m in (n - 1, n + 1):
        with pytest.raises(ValueError, match=rf"\({rows},\) does not hold the rows for n = {m}$"):
            GrowthCertificate(lhs=lhs, n=m)
    with pytest.raises(ValueError, match=rf"\(1, {rows}\) does not hold the rows for n = {n}$"):
        GrowthCertificate(lhs=lhs[None, :], n=n)
    with pytest.raises(ValueError, match=r"shape \(0,\) does not hold the rows for n = 0$"):
        GrowthCertificate(lhs=[], n=0)


def test_growth_scale_invariance():
    rng = np.random.default_rng(21)
    a = rand_sym(rng, 8)
    g = growth_factor(a, factorize(a))
    for c in (-1e3, 1e-3, 7.0):
        b = SymmetricMatrix(a.entries * c)
        gb = growth_factor(b, factorize(b))
        assert abs(gb - g) <= 1e-12 * g
