import numpy as np
import pytest

from schmidt_lens import linalg
from schmidt_lens.errors import (
    DimensionMismatchError,
    NotHermitianError,
    NotSquareError,
)
from schmidt_lens.states import max_entangled

from conftest import (
    random_hermitian,
    random_rank_matrix,
    ref_partial_trace,
    ref_partial_transpose,
)


class TestKron:
    def test_identity(self):
        assert np.array_equal(linalg.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal_rank(self):
        out = linalg.kron(np.diag([1.0, 0.0]), np.diag([1.0, 1.0]))
        assert np.array_equal(out, np.diag([1.0, 1.0, 0.0, 0.0]))
        assert linalg.matrix_rank(out) == 2

    def test_equals_np_kron_bit_for_bit(self, rng):
        shapes = [(1, 1), (1, 4), (4, 1), (2, 3), (3, 2), (4, 4), (1, 5), (5, 1)]
        for sa in shapes:
            for sb in shapes:
                a = rng.standard_normal(sa) + 1j * rng.standard_normal(sa)
                b = rng.standard_normal(sb) + 1j * rng.standard_normal(sb)
                assert np.array_equal(linalg.kron(a, b), np.kron(a, b)), (sa, sb)
                real = rng.standard_normal(sa)
                assert linalg.kron(real, b).tobytes() == np.kron(real + 0j, b).tobytes()

    def test_rank_multiplicativity_random(self, rng):
        for _ in range(50):
            a = random_rank_matrix(3, 2, rng)
            b = random_rank_matrix(3, 2, rng)
            # oracle: singular-value count on the 9x9 product, via numpy
            assert np.linalg.matrix_rank(np.kron(a, b)) == 4
            assert linalg.matrix_rank(linalg.kron(a, b)) == 4

    def test_rank_multiplicativity_up_to_4(self, rng):
        for _ in range(200):
            na, nb = rng.integers(2, 5), rng.integers(2, 5)
            ra = int(rng.integers(1, na + 1))
            rb = int(rng.integers(1, nb + 1))
            a = random_rank_matrix(na, ra, rng)
            b = random_rank_matrix(nb, rb, rng)
            assert linalg.matrix_rank(linalg.kron(a, b)) == ra * rb


class TestHermitianEig:
    def test_identity(self):
        vals, _ = linalg.hermitian_eig(np.eye(3))
        np.testing.assert_allclose(vals, [1.0, 1.0, 1.0])

    def test_diagonal_sorted_ascending(self):
        vals, _ = linalg.hermitian_eig(np.diag([3.0, -1.0, 2.0]))
        np.testing.assert_allclose(vals, [-1.0, 2.0, 3.0])

    def test_max_entangled_projector_spectrum(self):
        proj = max_entangled(3).density().matrix
        vals, _ = linalg.hermitian_eig(proj)
        np.testing.assert_allclose(vals[:-1], 0.0, atol=1e-12)
        np.testing.assert_allclose(vals[-1], 1.0, atol=1e-12)

    def test_reconstruction_and_trace(self, rng):
        for n in (4, 9, 27, 81):
            h = random_hermitian(n, rng)
            vals, vecs = linalg.hermitian_eig(h)
            scale = np.max(np.abs(h))
            assert np.max(np.abs((vecs * vals) @ vecs.conj().T - h)) <= 1e-10 * scale
            assert abs(vals.sum() - np.trace(h).real) <= 1e-10 * abs(np.trace(h).real or 1.0)
            assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(n))) <= 1e-12

    def test_rejects_non_square(self):
        with pytest.raises(NotSquareError):
            linalg.hermitian_eig(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotHermitianError):
            linalg.hermitian_eig(m)

    def test_symmetrizes_tolerable_noise(self, rng):
        h = random_hermitian(5, rng)
        noisy = h + 1e-12 * rng.standard_normal((5, 5))
        vals, _ = linalg.hermitian_eig(noisy)
        ref = np.linalg.eigvalsh(h)
        np.testing.assert_allclose(vals, ref, atol=1e-10)

    def test_rejects_nan(self):
        m = np.full((2, 2), np.nan)
        with pytest.raises(ValueError):
            linalg.hermitian_eig(m)

    def test_zero_matrix(self):
        vals, vecs = linalg.hermitian_eig(np.zeros((3, 3)))
        np.testing.assert_array_equal(vals, np.zeros(3))
        np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(3), atol=1e-15)


def planted_hermitian(dim, lowest, rng, n=None):
    """Random Hermitian matrix (or an (n, dim, dim) stack) with minimum eigenvalue ``lowest``.

    The other eigenvalues are drawn from [0.01, 1]; a ``lowest`` of 0 makes
    the matrix rank-deficient.
    """
    shape = () if n is None else (n,)
    g = rng.standard_normal((*shape, dim, dim)) + 1j * rng.standard_normal((*shape, dim, dim))
    u, _ = np.linalg.qr(g)
    vals = rng.uniform(0.01, 1.0, (*shape, dim))
    vals[..., 0] = lowest
    h = (u * vals[..., None, :]) @ np.swapaxes(u.conj(), -1, -2)
    return (h + np.swapaxes(h.conj(), -1, -2)) / 2.0


PSD_TOL = 1e-9
# planted minimum eigenvalue -> whether "no eigenvalue below -PSD_TOL" holds
PLANTED = {
    -PSD_TOL * (1 - 1e-3): True,
    -PSD_TOL * (1 + 1e-3): False,
    0.0: True,
    -1e-3: False,
    1e-3: True,
}


class TestPsdMinima:
    """psd_minima decides, indexes and reports as a stacked eigvalsh would."""

    @staticmethod
    def assert_matches_eigvalsh(h, expected_pass):
        ref = np.linalg.eigvalsh(h)[..., 0]
        ref_bad = np.flatnonzero(ref < -PSD_TOL)
        lo = linalg.psd_minima(h, PSD_TOL)
        bad = np.flatnonzero(lo < -PSD_TOL) if lo is not None else np.array([], dtype=int)
        assert (bad.size == 0) == (ref_bad.size == 0) == expected_pass
        np.testing.assert_array_equal(bad, ref_bad)  # the same first failing index
        if lo is not None:
            assert lo.shape == ref.shape
            np.testing.assert_array_equal(lo, ref)  # the same reported values

    @pytest.mark.parametrize("dim", [4, 9, 16, 81])
    @pytest.mark.parametrize("lowest", list(PLANTED), ids=lambda v: f"{v:.4g}")
    def test_single_matrix(self, dim, lowest, rng):
        self.assert_matches_eigvalsh(planted_hermitian(dim, lowest, rng), PLANTED[lowest])

    @pytest.mark.parametrize("dim", [4, 9, 16, 81])
    @pytest.mark.parametrize("lowest", list(PLANTED), ids=lambda v: f"{v:.4g}")
    def test_stack(self, dim, lowest, rng):
        h = planted_hermitian(dim, 1e-3, rng, n=5)
        h[2] = planted_hermitian(dim, lowest, rng)
        h[4] = planted_hermitian(dim, lowest, rng)
        self.assert_matches_eigvalsh(h, PLANTED[lowest])
        self.assert_matches_eigvalsh(planted_hermitian(dim, lowest, rng, n=3), PLANTED[lowest])

    def test_passing_input_takes_no_eigensolve(self, rng, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
        assert linalg.psd_minima(planted_hermitian(9, 0.0, rng, n=4), PSD_TOL) is None
        assert calls == []
        assert linalg.psd_minima(planted_hermitian(9, -1e-3, rng, n=4), PSD_TOL).shape == (4,)
        assert calls == [1]


class TestSingularValues:
    def test_identity(self):
        np.testing.assert_allclose(linalg.singular_values(np.eye(2)), [1.0, 1.0])

    def test_diagonal(self):
        np.testing.assert_allclose(linalg.singular_values(np.diag([2.0, 0.0])), [2.0, 0.0])

    def test_max_entangled_coefficients(self):
        # coefficient matrix of |phi+> for d=3 is I/sqrt(3)
        coeff = max_entangled(3).coefficient_matrix()
        np.testing.assert_allclose(coeff, np.eye(3) / np.sqrt(3))
        np.testing.assert_allclose(linalg.singular_values(coeff), np.full(3, 1 / np.sqrt(3)))

    def test_matches_eigvals_of_gram(self, rng):
        a = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        s = linalg.singular_values(a)
        gram = np.sort(np.linalg.eigvalsh(a.conj().T @ a))[::-1]
        np.testing.assert_allclose(s * s, gram[: s.size], atol=1e-10)
        assert np.all(np.diff(s) <= 1e-15)
        assert np.all(s >= 0)


class TestMatrixRank:
    def test_zero(self):
        assert linalg.matrix_rank(np.zeros((3, 3))) == 0

    def test_identity(self):
        assert linalg.matrix_rank(np.eye(3)) == 3


class TestPartialTrace:
    def test_max_entangled_marginal(self):
        rho = max_entangled(3).density().matrix
        np.testing.assert_allclose(linalg.partial_trace(rho, (3, 3), 0), np.eye(3) / 3, atol=1e-12)
        np.testing.assert_allclose(linalg.partial_trace(rho, (3, 3), 1), np.eye(3) / 3, atol=1e-12)

    def test_product_state(self, rng):
        a = random_hermitian(3, rng)
        b = random_hermitian(4, rng)
        prod = np.kron(a, b)
        np.testing.assert_allclose(
            linalg.partial_trace(prod, (3, 4), 0), a * np.trace(b), atol=1e-12
        )
        np.testing.assert_allclose(
            linalg.partial_trace(prod, (3, 4), 1), b * np.trace(a), atol=1e-12
        )

    def test_against_loop_reference(self, rng):
        m = random_hermitian(12, rng)
        for keep in (0, 1):
            np.testing.assert_allclose(
                linalg.partial_trace(m, (3, 4), keep),
                ref_partial_trace(m, 3, 4, keep),
                atol=1e-13,
            )

    def test_trace_preserved(self, rng):
        m = random_hermitian(6, rng)
        for keep in (0, 1):
            assert abs(np.trace(linalg.partial_trace(m, (2, 3), keep)) - np.trace(m)) < 1e-12

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            linalg.partial_trace(np.eye(5), (2, 3), 0)


class TestPartialTranspose:
    def test_diagonal_unchanged(self):
        d = np.diag(np.arange(6, dtype=float))
        for which in (0, 1):
            np.testing.assert_array_equal(linalg.partial_transpose(d, (2, 3), which), d)

    def test_max_entangled_flip(self):
        # PT of |phi+><phi+| is the flip operator over d; min eigenvalue -1/d
        rho = max_entangled(3).density().matrix
        pt = linalg.partial_transpose(rho, (3, 3), 1)
        flip = np.zeros((9, 9))
        for i in range(3):
            for j in range(3):
                flip[i * 3 + j, j * 3 + i] = 1.0
        np.testing.assert_allclose(pt, flip / 3, atol=1e-12)
        assert abs(np.linalg.eigvalsh(pt)[0] - (-1 / 3)) < 1e-12

    def test_involution_and_hermiticity(self, rng):
        m = random_hermitian(12, rng)
        for which in (0, 1):
            pt = linalg.partial_transpose(m, (4, 3), which)
            np.testing.assert_allclose(pt, pt.conj().T, atol=1e-13)
            np.testing.assert_array_equal(
                linalg.partial_transpose(pt, (4, 3), which), m
            )
            assert abs(np.trace(pt) - np.trace(m)) < 1e-12

    def test_against_loop_reference(self, rng):
        m = random_hermitian(12, rng)
        for which in (0, 1):
            np.testing.assert_allclose(
                linalg.partial_transpose(m, (3, 4), which),
                ref_partial_transpose(m, 3, 4, which),
                atol=0,
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            linalg.partial_transpose(np.eye(7), (2, 3), 0)
