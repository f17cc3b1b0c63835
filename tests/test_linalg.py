import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from qfuca.errors import DimensionError, DomainError
from qfuca.linalg import bessel_j, diagonalize_row_blocks, idft_matrix
from qfuca.linalg import _bessel_quadrature, _bessel_series

from reference import circulant_from_first_row


class TestIdftMatrix:
    def test_n1_identity(self):
        assert np.allclose(idft_matrix(1), [[1.0]], atol=1e-15)

    def test_n2(self):
        expect = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.max(np.abs(idft_matrix(2) - expect)) < 1e-15

    def test_n4_unitary(self):
        w = idft_matrix(4)
        assert np.max(np.abs(w @ w.conj().T - np.eye(4))) < 1e-12

    def test_invalid_dimension(self):
        with pytest.raises(DimensionError):
            idft_matrix(0)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 33, 64])
    def test_unitarity(self, n):
        w = idft_matrix(n)
        assert np.max(np.abs(w @ w.conj().T - np.eye(n))) < 1e-12

    @pytest.mark.parametrize("n", [3, 4, 8])
    def test_mode_periodicity(self, n):
        # column built for mode l equals the one for mode l + n
        a = np.arange(n)
        for l in range(n):
            col = np.exp(2j * np.pi * a * l / n) / np.sqrt(n)
            col_shift = np.exp(2j * np.pi * a * (l + n) / n) / np.sqrt(n)
            assert np.max(np.abs(col - col_shift)) < 1e-12
            assert np.max(np.abs(idft_matrix(n)[:, l] - col)) < 1e-12


class TestCirculant:
    def test_single(self):
        assert np.array_equal(circulant_from_first_row([3.5]), [[3.5]])

    def test_3x3_pattern(self):
        c = circulant_from_first_row([1, 2, 3])
        assert np.array_equal(c.real, [[1, 2, 3], [3, 1, 2], [2, 3, 1]])

    def test_row_rotation_layout(self):
        # row r carries the first row right-rotated by r, i.e. entry (r, c)
        # equals h_{(c - r) mod K}, the standard circulant arrangement
        h = np.arange(5) + 1j * np.arange(5) ** 2
        c = circulant_from_first_row(h)
        for r in range(5):
            for col in range(5):
                assert c[r, col] == h[(col - r) % 5]

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            circulant_from_first_row([])

    def test_identity_eigenvalues(self):
        assert np.allclose(diagonalize_row_blocks([np.eye(3)]), np.ones(3), atol=1e-12)

    def test_shift_matrix_against_direct_product(self):
        c = circulant_from_first_row([0, 1, 0])
        w = idft_matrix(3)
        direct = np.diag(w.conj().T @ c @ w)
        assert np.max(np.abs(diagonalize_row_blocks([c]) - direct)) < 1e-12

    def test_random_8x8_against_direct_product(self):
        rng = np.random.default_rng(11)
        row = rng.normal(size=8) + 1j * rng.normal(size=8)
        c = circulant_from_first_row(row)
        w = idft_matrix(8)
        product = w.conj().T @ c @ w
        offdiag = product - np.diag(np.diag(product))
        assert np.max(np.abs(offdiag)) < 1e-10 * np.linalg.norm(c)
        assert np.max(np.abs(diagonalize_row_blocks([c]) - np.diag(product))) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False,
                                       allow_infinity=False),
                    min_size=1, max_size=16))
    def test_closed_form_matches_similarity_transform(self, row):
        c = circulant_from_first_row(row)
        n = len(row)
        w = idft_matrix(n)
        direct = np.diag(w.conj().T @ c @ w)
        scale = max(1.0, np.max(np.abs(direct)))
        assert np.max(np.abs(diagonalize_row_blocks([c]) - direct)) < 1e-10 * scale

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 97, 128])
    def test_any_square_matrix_against_direct_product(self, n):
        # the wrapped-diagonal form holds for every square matrix, not only
        # for circulant ones
        rng = np.random.default_rng(n)
        c = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        w = idft_matrix(n)
        direct = np.diag(w.conj().T @ c @ w)
        assert np.max(np.abs(diagonalize_row_blocks([c]) - direct)) \
            <= 1e-12 * np.max(np.abs(c))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            diagonalize_row_blocks([np.ones((2, 3))])

    @pytest.mark.parametrize("n", [1, 2, 97, 130, 512])
    def test_row_blocks_bit_identical_to_one_block(self, n):
        # the running sums enter each block's reduction as its first row, so
        # the cut into blocks changes no bit; the one-block case is the
        # full-matrix sum of the wrapped diagonals
        rng = np.random.default_rng(n)
        c = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        idx = np.arange(n)
        full = np.fft.ifft(c[idx[:, None], (idx[:, None] + idx) % n].sum(axis=0))
        assert np.array_equal(diagonalize_row_blocks([c]), full)
        for rows in (1, 3, 64, n):
            blocks = (c[r:r + rows] for r in range(0, n, rows))
            assert np.array_equal(diagonalize_row_blocks(blocks), full)

    @pytest.mark.parametrize("blocks", [
        [],                                   # no rows
        [np.ones((2, 4))],                    # rows missing
        [np.ones((2, 4)), np.ones((3, 4))],   # rows past the square
        [np.ones((2, 4)), np.ones((2, 3))],   # column count changes
        [np.ones(4)]])                        # not a row block
    def test_row_blocks_must_tile_a_square(self, blocks):
        with pytest.raises(DimensionError):
            diagonalize_row_blocks(blocks)


class TestBessel:
    def test_j0_at_zero(self):
        assert bessel_j(0, 0.0) == 1.0

    def test_j3_at_zero(self):
        assert bessel_j(3, 0.0) == 0.0

    def test_j1_at_2_against_integral_oracle(self):
        # (1/2pi) int_{-pi}^{pi} e^{j x cos(phi)} e^{j phi} dphi = j J_1(x)
        x = 2.0
        n = 20000
        phi = -np.pi + 2 * np.pi * np.arange(n) / n
        val = np.mean(np.exp(1j * x * np.cos(phi)) * np.exp(1j * phi)) / 1j
        assert abs(val.imag) < 1e-12
        assert abs(bessel_j(1, 2.0) - val.real) < 1e-10

    @pytest.mark.parametrize("l", range(1, 9))
    def test_recurrence(self, l):
        for x in np.linspace(0.5, 50.0, 40):
            lhs = bessel_j(l - 1, x) + bessel_j(l + 1, x)
            rhs = 2 * l / x * bessel_j(l, x)
            assert abs(lhs - rhs) < 1e-8

    def test_series_and_quadrature_agree_at_crossover(self):
        for l in (0, 1, 5, 20):
            for x in (8.0, 11.5, 12.0):
                assert abs(_bessel_series(l, x) - _bessel_quadrature(l, x)) < 1e-10

    @pytest.mark.parametrize("l,x", [(0, 0.5), (1, 2.0), (2, 11.9), (3, 12.1),
                                     (7, 40.0), (12, 300.0), (64, 1e4),
                                     (0, 9999.5), (33, 777.7)])
    def test_against_scipy(self, l, x):
        assert abs(bessel_j(l, x) - special.jv(l, x)) < 1e-10

    @pytest.mark.parametrize("l,x", [(1, 3.0), (2, 7.5), (5, 100.0)])
    def test_reflections(self, l, x):
        assert bessel_j(-l, x) == pytest.approx((-1) ** l * bessel_j(l, x), abs=1e-14)
        assert bessel_j(l, -x) == pytest.approx((-1) ** l * bessel_j(l, x), abs=1e-14)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_j(65, 1.0)
        with pytest.raises(DomainError):
            bessel_j(0, 1.0001e4)
        with pytest.raises(DomainError):
            bessel_j(0.5, 1.0)
