import math
import tracemalloc

import numpy as np
import pytest

import oracles
from fibspec import (ALPHA, TridiagonalMatrix, eigenvalues,
                     fibonacci_tridiagonal)
from fibspec import hamiltonian
from fibspec.errors import SizeCapError

from oracles import (plain_bisection_eigenvalues, plain_count_below,
                     substitution_word)


def _word(n: int, omega0: float = 0.0) -> list[int]:
    """The 0/1 word w(1), ..., w(n), read off the diagonal at coupling 1."""
    return [int(v) for v in fibonacci_tridiagonal(1.0, n, omega0).diagonal]


def test_potential_first_values():
    assert fibonacci_tridiagonal(1.0, 5).diagonal.tolist() == [1.0, 0.0, 1.0,
                                                                1.0, 0.0]
    assert fibonacci_tridiagonal(2.5, 5).diagonal.tolist() == [2.5, 0.0, 2.5,
                                                                2.5, 0.0]


def test_potential_matches_substitution_word():
    assert _word(100) == substitution_word(100)


def test_word_factor_structure():
    """No '00' and no '111' occur in the golden-rotation coding."""
    w = "".join(map(str, _word(500)))
    assert "00" not in w
    assert "111" not in w


def test_potential_refuses_non_finite_coupling_and_phase():
    for lam, omega0 in ((math.inf, 0.0), (math.nan, 0.0), (1.0, math.inf)):
        with pytest.raises(ValueError, match="coupling and phase must be finite"):
            fibonacci_tridiagonal(lam, 5, omega0)


def test_threshold_constant():
    assert ALPHA == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-15)


def test_eigenvalues_path_graphs():
    evs2 = eigenvalues(TridiagonalMatrix(np.zeros(2)))
    assert np.allclose(evs2, [-1.0, 1.0], atol=1e-9)
    evs3 = eigenvalues(TridiagonalMatrix(np.zeros(3)))
    assert np.allclose(evs3, [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-9)


def test_eigenvalues_hand_computed_3x3():
    evs = eigenvalues(TridiagonalMatrix(np.array([2.0, 0.0, 2.0])))
    assert np.allclose(evs, sorted([2.0, 1 - math.sqrt(3), 1 + math.sqrt(3)]),
                       atol=1e-9)


def test_eigenvalues_sorted_and_complete():
    m = fibonacci_tridiagonal(2.0, 55)
    evs = eigenvalues(m)
    assert evs.size == 55
    assert np.all(np.diff(evs) >= 0)
    assert np.all(np.abs(evs) <= 2 + 2.0 + 1e-9)


def test_sturm_count_at_range_ends():
    m = fibonacci_tridiagonal(3.0, 89)
    assert m.count_below(-2 - 3.0 - 1e-9) == 0
    assert m.count_below(2 + 3.0 + 1e-9) == 89


def test_sturm_count_matches_numpy():
    rng = np.random.default_rng(21)
    diag = rng.uniform(-1, 1, size=12)
    m = TridiagonalMatrix(diag)
    full = np.diag(diag) + np.diag(np.ones(11), 1) + np.diag(np.ones(11), -1)
    ref = np.sort(np.linalg.eigvalsh(full))
    for t in rng.uniform(-3, 3, size=40):
        assert m.count_below(t) == int(np.sum(ref < t))
    assert np.allclose(eigenvalues(m), ref, atol=1e-9)


def test_omega0_shift_changes_word_but_not_structure():
    base = _word(50, omega0=0.0)
    shifted = _word(50, omega0=0.37)
    assert base != shifted
    w = "".join(map(str, shifted))
    assert "00" not in w and "111" not in w


@pytest.mark.parametrize("tol", [1e-10, 1e-6])
@pytest.mark.parametrize("omega0", [0.0, 0.37])
@pytest.mark.parametrize("n", [1, 2, 3, 89, 987])
@pytest.mark.parametrize("lam", [0.0, 2.0, 5.0, 20.0])
def test_eigenvalues_bit_identical_to_plain_bisection(lam, n, omega0, tol):
    m = fibonacci_tridiagonal(lam, n, omega0)
    assert np.array_equal(eigenvalues(m, tol), plain_bisection_eigenvalues(m, tol))


@pytest.mark.parametrize("lam, n, omega0, tol", [
    (5.0, 2584, 0.37, 1e-10),
    (20.0, 1597, 0.37, 1e-10),
])
def test_eigenvalues_bit_identical_at_benchmark_sizes(lam, n, omega0, tol):
    """The largest boxes the oracle benchmark solves; each ends in a
    partial block of sites."""
    assert n % hamiltonian._COUNT_BLOCK != 0
    m = fibonacci_tridiagonal(lam, n, omega0)
    assert np.array_equal(eigenvalues(m, tol), plain_bisection_eigenvalues(m, tol))


def test_eigenvalues_bit_identical_on_many_valued_diagonal():
    m = TridiagonalMatrix(np.random.default_rng(5).uniform(-2, 2, size=60))
    evs = eigenvalues(m)
    assert np.all(np.diff(evs) >= 0)  # ascending without a sort
    assert np.array_equal(evs, plain_bisection_eigenvalues(m))


@pytest.mark.parametrize("diagonal, message", [
    (np.zeros(0), "non-empty 1-d array"),
    (np.zeros((2, 2)), "non-empty 1-d array"),
    (np.array([0.0, math.inf]), "must be finite"),
    (np.array([math.nan, 1.0]), "must be finite"),
], ids=["empty", "2-d", "inf", "nan"])
def test_tridiagonal_refuses_bad_diagonal(diagonal, message):
    with pytest.raises(ValueError, match=message):
        TridiagonalMatrix(diagonal)


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.inf, math.nan])
def test_eigenvalues_refuse_bad_tolerance(tol):
    with pytest.raises(ValueError):
        eigenvalues(fibonacci_tridiagonal(2.0, 8), tol)


def test_sturm_count_vector_matches_scalar_at_zero_pivot():
    m = TridiagonalMatrix(np.zeros(3))
    t = np.array([0.0, 0.5, -0.0, 1.0])
    vector = m.count_below(t)
    assert vector.tolist() == [m.count_below(x) for x in t]
    assert np.array_equal(vector, plain_count_below(m.diagonal, t))


def test_sturm_count_includes_an_eigenvalue_with_zero_pivot():
    """Eigenvalues of zeros(3) are -sqrt(2), 0 and sqrt(2); at t = 0 the
    zero pivots count as negative, so the count is of eigenvalues <= 0."""
    m = TridiagonalMatrix(np.zeros(3))
    assert m.count_below(0.0) == 2
    assert m.count_below(-1e-12) == 1
    assert m.count_below(1e-12) == 2


def test_eigenvalues_count_at_most_half_the_plain_points(monkeypatch):
    def logging_sizes(count, sizes):
        def wrapper(*args):
            sizes.append(np.size(args[-1]))
            return count(*args)
        return wrapper

    m = fibonacci_tridiagonal(20.0, 987)
    plain = []
    monkeypatch.setattr(oracles, "plain_count_below",
                        logging_sizes(oracles.plain_count_below, plain))
    want = plain_bisection_eigenvalues(m)
    shared = []
    monkeypatch.setattr(TridiagonalMatrix, "count_below",
                        logging_sizes(TridiagonalMatrix.count_below, shared))
    assert np.array_equal(eigenvalues(m), want)
    assert sum(plain) == len(plain) * m.n
    assert sum(shared) <= 0.5 * sum(plain)


def _count_grid(m):
    """Points around and between the eigenvalues, the signed zeros, the
    pivot guard's magnitude, and infinities, whose pivots are infinite."""
    radius = float(np.max(np.abs(m.diagonal))) + 3.0
    return np.concatenate([np.linspace(-radius, radius, 257),
                           [0.0, -0.0, 1e-300, -1e-300, math.inf, -math.inf]])


_B = hamiltonian._COUNT_BLOCK


# sizes around one and two blocks of sites, and n < B, where the one
# block is the whole matrix
@pytest.mark.parametrize("n", sorted({1, 15, 16, 17, 33, 987,
                                      _B - 1, _B, _B + 1, 2 * _B + 1}))
@pytest.mark.parametrize("lam", [0.0, 2.0, 5.0, 20.0])
def test_blocked_count_equals_site_by_site_count(lam, n):
    m = fibonacci_tridiagonal(lam, n)
    t = _count_grid(m)
    assert np.array_equal(m.count_below(t), plain_count_below(m.diagonal, t))


def test_blocked_count_on_many_valued_diagonal():
    """Every site has its own value, so no row a - t is shared in a block;
    0.0 and -0.0 are one key, and their rows may differ only where a
    zero pivot is replaced either way."""
    diag = np.random.default_rng(8).uniform(-2, 2, size=100)
    diag[[3, 40]] = 0.0
    diag[[4, 41]] = -0.0
    m = TridiagonalMatrix(diag)
    t = _count_grid(m)
    assert np.array_equal(m.count_below(t), plain_count_below(m.diagonal, t))


@pytest.mark.parametrize("offset", [-2, -1, 0, 1])
def test_blocked_count_with_zero_pivot_at_block_seam(offset):
    """a_{j-1} = 1e20 makes 1/d_{j-1} vanish against 2, so a_j = 2 and
    a_{j+1} = 0.5 give the exact zero pivot d_{j+1} = 0 at t = 0, on the
    site ``offset`` places from the first site of the second block."""
    zero_site = hamiltonian._COUNT_BLOCK + offset
    diag = np.random.default_rng(9).uniform(-1, 1, size=40)
    diag[zero_site - 2:zero_site + 1] = [1e20, 2.0, 0.5]
    d = diag[0]
    for a in diag[1:zero_site + 1]:
        d = a - 1.0 / d
    assert d == 0.0
    m = TridiagonalMatrix(diag)
    t = np.array([0.0, -0.0, 1e-300, -1e-300, 0.25, -0.5])
    assert np.array_equal(m.count_below(t), plain_count_below(m.diagonal, t))


@pytest.mark.parametrize("block", [255, 256])
def test_block_tally_holds_a_full_block(monkeypatch, block):
    """Every pivot negative: a block's tally at 255, the most a uint8
    tally holds, or at 256, one past it, and a total above 255."""
    monkeypatch.setattr(hamiltonian, "_COUNT_BLOCK", block)
    m = fibonacci_tridiagonal(5.0, 600)
    t = np.array([math.inf, 1e6, -1e6])
    assert m.count_below(t).tolist() == [600, 600, 0]
    assert np.array_equal(m.count_below(t), plain_count_below(m.diagonal, t))


def test_count_keeps_the_shape_of_t():
    m = fibonacci_tridiagonal(5.0, 40)
    assert type(m.count_below(0.5)) is int
    t = np.linspace(-8, 8, 12).reshape(3, 4)
    got = m.count_below(t)
    assert got.shape == (3, 4)
    assert np.array_equal(got, plain_count_below(m.diagonal, t))
    assert m.count_below(np.array([])).shape == (0,)


@pytest.mark.parametrize("t", [math.nan, -math.nan, [0.5, math.nan]])
def test_count_refuses_nan(t):
    with pytest.raises(ValueError):
        fibonacci_tridiagonal(5.0, 20).count_below(np.asarray(t))


def test_count_memory_stays_small():
    """A 2584-site diagonal with every value distinct, counted at 2584
    points: the per-block rows a - t stay within a block, far from the
    53 MB a whole-matrix table of them would take."""
    m = TridiagonalMatrix(np.linspace(-5, 5, 2584))
    t = np.linspace(-8, 8, 2584)
    tracemalloc.start()
    try:
        m.count_below(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("lam, n, omega0, tol, sweeps", [
    (5.0, 2584, 0.0, 1e-10, 20),
    (2.0, 987, 0.0, 1e-10, 26),
])
def test_eigensolve_sweeps(monkeypatch, lam, n, omega0, tol, sweeps):
    """The Sturm sweeps of the oracle benchmark's solves."""
    count_below = TridiagonalMatrix.count_below
    made = []

    def counting(self, t):
        made.append(t)
        return count_below(self, t)

    monkeypatch.setattr(TridiagonalMatrix, "count_below", counting)
    eigenvalues(fibonacci_tridiagonal(lam, n, omega0), tol)
    assert len(made) == sweeps


def _floor(m):
    """The float spacing at the Gershgorin bound max|d| + 2."""
    return float(np.spacing(np.max(np.abs(m.diagonal)) + 2.0))


@pytest.mark.parametrize("lam, n, omega0", [
    (5.0, 89, 0.37), (20.0, 987, 0.37), (1e6, 144, 0.0), (0.0, 3, 0.0)])
def test_eigensolve_at_the_floor_matches_plain_bisection(lam, n, omega0):
    m = fibonacci_tridiagonal(lam, n, omega0)
    tol = _floor(m)
    assert np.array_equal(eigenvalues(m, tol), plain_bisection_eigenvalues(m, tol))


@pytest.mark.parametrize("lam, n, omega0", [
    (5.0, 89, 0.37), (20.0, 987, 0.37), (1e6, 2584, 0.0), (0.0, 3, 0.0)])
def test_tolerance_below_the_floor_refused_before_any_count(
        lam, n, omega0, monkeypatch):
    """The next float below the floor is refused up front; such a
    tolerance was once bisected until no pass moved a bracket, and then
    reported as an eigenvalue separation failure."""
    def no_count(self, t):
        raise AssertionError("a Sturm sweep ran")
    monkeypatch.setattr(TridiagonalMatrix, "count_below", no_count)
    m = fibonacci_tridiagonal(lam, n, omega0)
    tol = float(np.nextafter(_floor(m), 0.0))
    with pytest.raises(ValueError, match="past the precision floor"):
        eigenvalues(m, tol)


def _diagonals_near_powers_of_two(seed: int, count: int):
    """Diagonals whose max|d| + 2 lies within a few ulps, or within one,
    of a power of two 2**e, on either side: random ones with an entry at
    +-max|d|, and constant ones, whose top eigenvalue max|d| + 2cos(pi/(n+1))
    sits just under 2**e when max|d| + 2 is just over it."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        e = int(rng.integers(1, 40))
        top = 2.0 ** e
        ulps = int(rng.integers(-4, 5))
        edge = top + ulps * float(np.spacing(top)) + rng.choice([0.0, -1.0, 0.5])
        bound = max(edge - 2.0, 0.0)
        n = int(rng.integers(1, 40))
        if rng.random() < 0.5:
            d = rng.uniform(-bound, bound, size=n)
            d[rng.integers(n)] = rng.choice([-bound, bound])
        else:
            d = np.full(n, rng.choice([-bound, bound]))
        yield TridiagonalMatrix(d)


@pytest.mark.parametrize("scale", [1.0, 1.9])
def test_solves_near_powers_of_two_reach_tol(scale):
    """At the floor and at 1.9 times it, every solve ends with every
    bracket within tol: plain bisection reaches tol within its 200 passes,
    and the shared-count solve, which takes the same passes, equals it."""
    for m in _diagonals_near_powers_of_two(29, 150):
        tol = scale * _floor(m)
        want = plain_bisection_eigenvalues(m, tol)
        assert np.array_equal(eigenvalues(m, tol), want)


def test_eigensolve_over_the_cap_refused_before_any_count(monkeypatch):
    def no_count(self, t):
        raise AssertionError("a Sturm sweep ran")
    monkeypatch.setattr(TridiagonalMatrix, "count_below", no_count)
    n = hamiltonian._EIGENSOLVE_SITE_CAP + 1
    with pytest.raises(SizeCapError) as refused:
        eigenvalues(fibonacci_tridiagonal(5.0, n))
    assert (refused.value.requested, refused.value.cap) == (n, n - 1)


@pytest.mark.parametrize("lam", [9e307, 1e308, 1.7e308])
def test_eigensolve_past_the_precision_floor_refused_before_any_count(
        lam, monkeypatch):
    """From max|d| ~ 9e307 on the starting window [-r, r] is wider than
    the largest double; it once ended in an OverflowError from
    math.ceil(inf)."""
    def no_count(self, t):
        raise AssertionError("a Sturm sweep ran")
    monkeypatch.setattr(TridiagonalMatrix, "count_below", no_count)
    with pytest.raises(ValueError, match="past the precision floor"):
        eigenvalues(fibonacci_tridiagonal(lam, 3))
