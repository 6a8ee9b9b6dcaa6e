"""The dense kernel: exponentials, Jacobi roots and norms."""

import math

import numpy as np
import pytest
import scipy.linalg

from pfcircuit import linalg
from pfcircuit.errors import NotSPD, SeriesOverflow


def test_adjoint_fixes_symmetric(reference_pf):
    assert np.max(np.abs(reference_pf.S_phi - reference_pf.S_phi.T)) == 0.0


def test_expm_zero_matrix():
    np.testing.assert_array_equal(linalg.expm(np.zeros((4, 4)), 3.7), np.eye(4))


def test_expm_tau_stack_matches_the_scalar_call(reference_generator):
    # squaring counts 0 (tau = 0 and 0.05), 2, 3, 5 and 7 in one call
    taus = np.array([0.0, 0.05, 0.3, 0.7, 3.0, 11.0])
    stack = linalg.expm(reference_generator, taus)
    assert stack.shape == (taus.size, 4, 4)
    np.testing.assert_array_equal(stack[0], np.eye(4))
    for tau, member in zip(taus, stack):
        single = linalg.expm(reference_generator, tau)
        assert np.all(np.abs(member - single) <= 4.0 * np.spacing(np.abs(single)))


def test_expm_matrix_stack_matches_the_single_calls(reference_generator):
    # complex and real members in one stack, each with its own squarings
    mats = [reference_generator, reference_generator.T, 1j * reference_generator, np.zeros((4, 4))]
    stack = linalg.expm(np.stack(mats), 0.9)
    for m, member in zip(mats, stack):
        single = linalg.expm(np.asarray(m, dtype=complex), 0.9)
        assert np.all(np.abs(member - single) <= 4.0 * np.spacing(np.abs(single)))


def test_expm_diagonal():
    lams = np.array([0.0, -1.5, 0.3, 2.0])
    result = linalg.expm(np.diag(lams), 1.0)
    np.testing.assert_allclose(result, np.diag(np.exp(lams)), rtol=1e-14)


def test_expm_matches_scipy(reference_generator, reference_spectrum):
    # the eigendecomposition route is checked against this oracle in test_heisenberg
    shifted = reference_generator - reference_spectrum.l3 * np.eye(4)
    taylor_route = linalg.expm(shifted, 0.7)
    scale = np.linalg.norm(taylor_route)
    reference = scipy.linalg.expm(shifted * 0.7)
    assert np.linalg.norm(taylor_route - reference) / scale < 1e-12


def test_expm_semigroup(reference_generator, reference_spectrum):
    shifted = reference_generator - reference_spectrum.l3 * np.eye(4)
    for t1, t2 in ((0.3, 0.9), (1.1, 0.4), (2.0, 2.0)):
        combined = linalg.expm(shifted, t1 + t2)
        split = linalg.expm(shifted, t1) @ linalg.expm(shifted, t2)
        assert np.linalg.norm(combined - split) / np.linalg.norm(combined) < 1e-9


def test_expm_derivative_at_zero(reference_generator):
    h = 1e-5
    diff = (linalg.expm(reference_generator, h) - linalg.expm(reference_generator, -h)) / (2 * h)
    assert np.max(np.abs(diff - reference_generator)) < 1e-6


def test_sqrtm_identity_and_diagonal():
    np.testing.assert_allclose(linalg.sqrtm_spd(np.eye(4)), np.eye(4), atol=1e-14)
    np.testing.assert_allclose(
        linalg.sqrtm_spd(np.diag([4.0, 9.0, 16.0, 25.0])),
        np.diag([2.0, 3.0, 4.0, 5.0]), atol=1e-13)


def test_sqrtm_metric(reference_pf):
    root = linalg.sqrtm_spd(reference_pf.S_psi)
    residual = np.linalg.norm(root @ root - reference_pf.S_psi)
    assert residual < 1e-9
    assert np.max(np.abs(root - root.T)) < 1e-12


def test_sqrtm_rejects_indefinite():
    with pytest.raises(NotSPD) as err:
        linalg.sqrtm_spd(np.diag([1.0, 2.0, -3.0, 4.0]))
    assert err.value.eigenvalue == pytest.approx(-3.0, rel=1e-12)


def test_sqrtm_rejects_asymmetric():
    m = np.eye(4)
    m[0, 1] = 0.5
    with pytest.raises(ValueError):
        linalg.sqrtm_spd(m)


def test_spectral_norm_basics():
    assert linalg.spectral_norm(np.eye(4)) == pytest.approx(1.0, rel=1e-12)
    assert linalg.spectral_norm(np.diag([0.0, 0.0, 0.0, -7.0])) == pytest.approx(7.0, rel=1e-12)


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.standard_normal((4, 4))
        expected = np.linalg.svd(a, compute_uv=False)[0]
        assert linalg.spectral_norm(a) == pytest.approx(expected, rel=1e-11)


def test_spectral_norm_number_operator(reference_pf):
    # non-orthogonal idempotents have norm >= 1
    assert linalg.spectral_norm(reference_pf.N[0]) >= 1.0


def test_jacobi_matches_library():
    rng = np.random.default_rng(4)
    for _ in range(10):
        base = rng.standard_normal((4, 4))
        sym = base + base.T
        w, v = linalg.jacobi_eigh(sym)
        w_ref = np.linalg.eigvalsh(sym)
        np.testing.assert_allclose(w, w_ref, atol=1e-11 * max(1.0, np.max(np.abs(w_ref))))
        residual = np.linalg.norm(sym @ v - v @ np.diag(w))
        assert residual < 1e-11 * max(1.0, np.linalg.norm(sym))


def test_jacobi_ill_conditioned_metric(reference_pf):
    # cond(S_phi) ~ 1e4; the sweep must still converge to eps-level residuals
    w, v = linalg.jacobi_eigh(reference_pf.S_phi)
    residual = np.linalg.norm(reference_pf.S_phi @ v - v @ np.diag(w))
    assert residual < 1e-11 * np.linalg.norm(reference_pf.S_phi)
    assert np.linalg.norm(v.T @ v - np.eye(4)) < 1e-13


def _assert_eigh(a, w, v):
    assert np.all(np.diff(w) >= 0.0)
    assert np.max(np.abs(v.T @ v - np.eye(len(w)))) <= 1e-13
    assert np.max(np.abs(v @ np.diag(w) @ v.T - a)) <= 1e-13 * max(1.0, np.max(np.abs(a)))


@pytest.mark.parametrize("n", [2, 4])
def test_jacobi_reconstructs_random_symmetric(n):
    rng = np.random.default_rng(10 + n)
    for _ in range(20):
        base = rng.standard_normal((n, n))
        sym = base + base.T
        _assert_eigh(sym, *linalg.jacobi_eigh(sym))


def test_jacobi_diagonal_input_takes_no_rotation():
    a = np.diag([3.0, -1.0, 2.0, 0.5])
    w, v = linalg.jacobi_eigh(a)
    np.testing.assert_array_equal(w, [-1.0, 0.5, 2.0, 3.0])
    np.testing.assert_array_equal(v, np.eye(4)[:, [1, 3, 2, 0]])


def test_jacobi_zero_off_diagonal_pair():
    a = np.array([[2.0, 0.0, 0.3, -0.1],
                  [0.0, 1.0, 0.7, 0.2],
                  [0.3, 0.7, -1.5, 0.4],
                  [-0.1, 0.2, 0.4, 0.8]])
    _assert_eigh(a, *linalg.jacobi_eigh(a))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_jacobi_rounds_are_disjoint_and_cover_each_pair_once(n):
    rounds = linalg._rounds(n)
    assert len(rounds) == n - 1 + n % 2
    seen = []
    for pairs, pivots in rounds:
        p, q = pairs
        assert np.all(p < q) and len(set(pairs.ravel().tolist())) == pairs.size
        # the flat indices of (a_pq, a_pp, a_qq) in a row-major n x n matrix
        assert pivots.tolist() == [(p * n + q).tolist(), (p * n + p).tolist(),
                                   (q * n + q).tolist()]
        seen += zip(p.tolist(), q.tolist())
    assert sorted(seen) == [(p, q) for p in range(n) for q in range(p + 1, n)]
    if n == 4:
        assert [pairs.T.tolist() for pairs, _ in rounds] == [
            [[0, 1], [2, 3]], [[0, 2], [1, 3]], [[0, 3], [1, 2]]]


def test_jacobi_stop_rule_is_relative_to_the_norm():
    # scaling A by a power of two scales every rotation's inputs exactly and
    # leaves its angle alone, so the sweeps and V keep their bits; an absolute
    # floor on the threshold would stop a small A's sweeps early
    rng = np.random.default_rng(12)
    base = rng.standard_normal((3, 4, 4))
    stack = base + np.swapaxes(base, 1, 2)
    w, v = linalg.jacobi_eigh(stack)
    for k in (-300, -40, 40, 300):
        w_k, v_k = linalg.jacobi_eigh(np.ldexp(stack, k))
        assert w_k.tobytes() == np.ldexp(w, k).tobytes() and v_k.tobytes() == v.tobytes()


@pytest.mark.parametrize("members", [1, 62])
def test_jacobi_stopping_sum_adds_left_to_right(members):
    # the stopping test sums each member's off-diagonal squares down axis 0
    # with cumsum; for a lone member np.sum adds these 12 squares pairwise,
    # and its last bit differs
    rng = np.random.default_rng(6)
    squares = (rng.standard_normal((12, members))
               * np.exp(rng.uniform(-3.0, 3.0, (12, members)))) ** 2
    sequential = squares[0].copy()
    for row in squares[1:]:
        sequential = sequential + row
    assert np.cumsum(squares, axis=0)[-1].tobytes() == sequential.tobytes()


def _list_route(a, tol=linalg.JACOBI_TOL, max_sweeps=linalg.JACOBI_MAX_SWEEPS):
    """Round-robin Jacobi on one symmetric matrix held in float lists, one scalar at a time.

    The reference the stacked solver must match bit for bit: the same rounds,
    formulas and stopping rule, written out for a single matrix.  A round takes
    all its angles first, then rotates the rows of each pair, then the columns.
    """
    w = (a + a.T) / 2.0
    n = w.shape[0]
    with np.errstate(over="ignore"):
        frobenius = np.linalg.norm(w, "fro")
    if not math.isfinite(frobenius):
        frobenius = linalg._scaled_frobenius(w.reshape(1, n * n))[0]
    threshold = tol * frobenius
    w, v = w.tolist(), np.eye(n).tolist()
    off_diagonal = [(i, j) for i in range(n) for j in range(n) if i != j]
    rounds = [pairs.T.tolist() for pairs, _ in linalg._rounds(n)]
    for _ in range(max_sweeps):
        total = 0.0  # added one by one: sum() compensates floats from Python 3.12 on
        for i, j in off_diagonal:
            total += w[i][j] * w[i][j]
        if math.sqrt(total) <= threshold:
            break
        for pairs in rounds:
            angles = []
            for p, q in pairs:
                apq = w[p][q]
                if apq == 0.0:
                    continue
                theta = (w[q][q] - w[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                angles.append((p, q, c, t * c))
            for p, q, c, s in angles:
                w[p], w[q] = ([c * x - s * y for x, y in zip(w[p], w[q])],
                              [s * x + c * y for x, y in zip(w[p], w[q])])
            for p, q, c, s in angles:
                for row in (*w, *v):
                    x, y = row[p], row[q]
                    row[p], row[q] = c * x - s * y, s * x + c * y
    eigenvalues = np.array([w[i][i] for i in range(n)])
    order = np.argsort(eigenvalues)
    return eigenvalues[order], np.array(v)[:, order]


def _assert_stack_matches_list_route(stack, **kwargs):
    w, v = linalg.jacobi_eigh(stack, **kwargs)
    assert w.shape == stack.shape[:2] and v.shape == stack.shape
    for k, member in enumerate(stack):
        w_k, v_k = _list_route(member, **kwargs)
        # equal bits, the signs of zeros included
        assert w[k].tobytes() == w_k.tobytes() and v[k].tobytes() == v_k.tobytes()


def _sweeps_taken(a):
    full = linalg.jacobi_eigh(a)
    return next(k for k in range(linalg.JACOBI_MAX_SWEEPS + 1)
                if all(np.array_equal(x, y)
                       for x, y in zip(linalg.jacobi_eigh(a, max_sweeps=k), full)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_jacobi_stack_is_bitwise_the_list_route(n):
    rng = np.random.default_rng(40 + n)
    for _ in range(20):
        base = rng.standard_normal((12, n, n)) * np.exp(rng.uniform(-8.0, 8.0, (12, 1, 1)))
        base[rng.random(base.shape) < 0.3] = 0.0  # zero pivots, skipped per member
        stack = base + np.swapaxes(base, 1, 2)
        stack[0] = np.diag(rng.standard_normal(n))  # already diagonal: no sweep at all
        stack[1] = np.diag(rng.standard_normal(n)) + 1e-6 * stack[2]  # converges early
        _assert_stack_matches_list_route(stack)
        _assert_stack_matches_list_route(stack, max_sweeps=1)  # members left unconverged
    assert len({_sweeps_taken(a) for a in stack}) > 1


@pytest.mark.parametrize("j", [1, 2])
def test_jacobi_stack_on_the_verify_norm_stacks(reference_pf, j):
    from pfcircuit.heisenberg import evolve_observable
    n_op = reference_pf.N[j - 1]
    X = evolve_observable(n_op, reference_pf, np.linspace(0.0, 3.0, 31)).X
    ata = np.swapaxes(X, 1, 2) @ X
    for k, x in enumerate(X):
        assert ata[k].tobytes() == (x.T @ x).tobytes()
    _assert_stack_matches_list_route(ata)
    norms = linalg.spectral_norm(X)
    assert norms.tobytes() == np.array([linalg.spectral_norm(x) for x in X]).tobytes()
    assert len({_sweeps_taken(a) for a in ata}) > 1


def test_jacobi_matrix_is_a_stack_of_one():
    rng = np.random.default_rng(7)
    base = rng.standard_normal((4, 4))
    base[0, 2] = base[1, 3] = 0.0
    for a in (base + base.T, np.diag([3.0, -1.0, 2.0, 0.5]), np.zeros((3, 3))):
        w, v = linalg.jacobi_eigh(a)
        w_stack, v_stack = linalg.jacobi_eigh(a[None])
        assert w.shape == a.shape[:1] and v.shape == a.shape
        assert w.tobytes() == w_stack[0].tobytes() and v.tobytes() == v_stack[0].tobytes()
    norm = linalg.spectral_norm(base)
    assert type(norm) is float and norm.hex() == float(linalg.spectral_norm(base[None])[0]).hex()


def test_jacobi_rotates_when_the_frobenius_norm_overflows():
    # ||A||_F^2 leaves the double range while the off-diagonal squares do not;
    # an unscaled threshold would be inf and stop the sweeps before a rotation
    a = np.array([[1e155, 1e153], [1e153, 1e154]])
    want = np.linalg.eigvalsh(a)
    for w in (linalg.jacobi_eigh(a)[0], linalg.jacobi_eigh(a[None])[0][0]):
        np.testing.assert_allclose(w, want, rtol=1e-15, atol=0.0)
    _assert_stack_matches_list_route(np.stack([a, np.eye(2), a * 1e-150]))


def test_jacobi_stack_rejects_an_asymmetric_member():
    stack = np.stack([np.eye(4)] * 3)
    stack[2, 0, 1] = 0.5
    # the bound is relative to the member, so a small matrix has no absolute slack
    for scale in (1.0, 1e-6, 1e-12):
        with pytest.raises(ValueError, match="not symmetric"):
            linalg.jacobi_eigh(stack * scale)


def test_spectral_norm_stack_refuses_overflow():
    finite = np.stack([np.eye(4), np.full((4, 4), 1e200)])  # A^T A overflows
    bad = np.stack([np.eye(4), np.full((4, 4), np.inf)])
    for stack in (finite, bad):
        with pytest.raises(SeriesOverflow, match="overflow"):
            linalg.spectral_norm(stack)


@pytest.mark.parametrize("a, error, match", [
    (np.full((4, 4), 1e200), SeriesOverflow, "overflow"),  # A^T A overflows
    (np.diag([1.0, np.inf, 1.0, 1.0]), SeriesOverflow, "overflow"),
    (np.diag([1.0, np.nan, 1.0, 1.0]), SeriesOverflow, "overflow"),
    (1j * np.eye(4), ValueError, "real matrix"),  # refused by jacobi_eigh
])
def test_spectral_norm_refuses_a_single_matrix(a, error, match):
    assert issubclass(SeriesOverflow, ValueError)
    with pytest.raises(error, match=match):
        linalg.spectral_norm(a)


def test_probes_repeat_for_one_seed():
    assert linalg.probes(7, (10, 4)).tobytes() == linalg.probes(7, (10, 4)).tobytes()


def test_probes_shape_and_range():
    p = linalg.probes(3, (50, 21))
    assert p.shape == (50, 21) and p.dtype == np.float64
    assert np.all(p >= -1.0) and np.all(p < 1.0)
    assert p.min() < -0.99 and p.max() > 0.99


def test_probes_differ_between_seeds():
    assert not np.any(linalg.probes(1, (4, 4)) == linalg.probes(2, (4, 4)))


def test_probes_pinned_for_the_verify_seed():
    # verify's bytes follow these values; a Python or numpy change must not move them
    first = [float(x).hex() for x in linalg.probes(20260810, (2, 3)).ravel()]
    assert first == ["0x1.c08e6f094ab54p-1", "-0x1.290f4ee79c564p-2", "-0x1.93dddeffb5bc0p-5",
                     "0x1.32f909e0ddcf8p-3", "-0x1.430509667ce00p-3", "-0x1.9e2f5bfc1eed0p-1"]
