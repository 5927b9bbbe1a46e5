import math

import numpy as np
import pytest

import oracles
from fibspec import (ALPHA, FibonacciPotential, TridiagonalMatrix,
                     eigenvalues, fibonacci_tridiagonal)
from fibspec.errors import EigenvalueSeparationError

from oracles import (plain_bisection_eigenvalues, plain_count_below,
                     substitution_word)


def test_potential_first_values():
    p = FibonacciPotential(lam=1.0)
    assert p.word(1, 5).tolist() == [1, 0, 1, 1, 0]
    assert p.word(0, 0).tolist() == [0]


def test_potential_matches_substitution_word():
    p = FibonacciPotential(lam=1.0)
    assert p.word(1, 100).tolist() == substitution_word(100)


def test_word_factor_structure():
    """No '00' and no '111' occur in the golden-rotation coding."""
    w = "".join(map(str, FibonacciPotential(1.0).word(1, 500)))
    assert "00" not in w
    assert "111" not in w


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
    base = FibonacciPotential(1.0, omega0=0.0).word(1, 50)
    shifted = FibonacciPotential(1.0, omega0=0.37).word(1, 50)
    assert base.tolist() != shifted.tolist()
    w = "".join(map(str, shifted))
    assert "00" not in w and "111" not in w


@pytest.mark.parametrize("tol", [1e-10, 1e-6])
@pytest.mark.parametrize("omega0", [0.0, 0.37])
@pytest.mark.parametrize("n", [1, 2, 3, 89, 987])
@pytest.mark.parametrize("lam", [0.0, 2.0, 5.0, 20.0])
def test_eigenvalues_bit_identical_to_plain_bisection(lam, n, omega0, tol):
    m = fibonacci_tridiagonal(lam, n, omega0)
    assert np.array_equal(eigenvalues(m, tol), plain_bisection_eigenvalues(m, tol))


def test_eigenvalues_bit_identical_on_many_valued_diagonal():
    m = TridiagonalMatrix(np.random.default_rng(5).uniform(-2, 2, size=60))
    assert np.array_equal(eigenvalues(m), plain_bisection_eigenvalues(m))


def test_separation_failure_matches_plain_bisection():
    m = fibonacci_tridiagonal(5.0, 89, 0.37)
    with pytest.raises(EigenvalueSeparationError) as got:
        eigenvalues(m, 1e-18)
    with pytest.raises(EigenvalueSeparationError) as want:
        plain_bisection_eigenvalues(m, 1e-18)
    assert got.value.indices == want.value.indices
    assert got.value.width == want.value.width


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
