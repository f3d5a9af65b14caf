"""Tests for the dense tensor primitives.

The unfolding convention (rows = chosen mode, columns = remaining modes in
C order, last fastest) is frozen here against hand-expanded matrices, and
the algebraic identities are exercised under randomized inputs.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import tensor_and_mode, tensors, tensor_two_modes_two_factors
from tarst.bench import Pattern1Config, add_gaussian_noise, gen_lowrank_tensor, inject_outliers
from tarst.decomp import TuckerModel, reconstruct
from tarst import tensor_ops
from tarst.tensor_ops import (_BLOCK, _grams, fold, frobenius_norm, mode_product,
                              multi_mode_product, unfold)

# t[i, j, k] = 1 + 4i + 2j + k, so each unfolding below can be checked by eye
T222 = np.arange(1.0, 9.0).reshape(2, 2, 2)


def test_unfold_hand_expanded_mode0():
    np.testing.assert_array_equal(
        unfold(T222, 0), [[1.0, 2, 3, 4], [5, 6, 7, 8]])


def test_unfold_hand_expanded_mode1():
    np.testing.assert_array_equal(
        unfold(T222, 1), [[1.0, 2, 5, 6], [3, 4, 7, 8]])


def test_unfold_hand_expanded_mode2():
    np.testing.assert_array_equal(
        unfold(T222, 2), [[1.0, 3, 5, 7], [2, 4, 6, 8]])


def test_unfold_shape():
    t = np.zeros((3, 4, 5))
    for k, want in [(0, (3, 20)), (1, (4, 15)), (2, (5, 12))]:
        assert unfold(t, k).shape == want


def test_unfold_vector_is_row_count_one_free():
    v = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(unfold(v, 0), [[1.0], [2.0], [3.0]])


@settings(max_examples=250, deadline=None)
@given(tensor_and_mode())
def test_fold_unfold_round_trip_bit_exact(tm):
    t, mode = tm
    back = fold(unfold(t, mode), mode, t.shape)
    assert back.dtype == np.float64
    assert np.array_equal(back, t)


def test_fold_unfold_round_trip_seeded_sweep():
    # a denser deterministic sweep over shapes and modes
    rng = np.random.default_rng(11)
    for _ in range(300):
        ndim = rng.integers(1, 5)
        shape = tuple(int(s) for s in rng.integers(1, 6, size=ndim))
        t = rng.standard_normal(shape)
        for mode in range(ndim):
            assert np.array_equal(fold(unfold(t, mode), mode, shape), t)


@given(tensor_and_mode(min_dims=2))
def test_norm_consistency_under_unfolding(tm):
    t, mode = tm
    assert frobenius_norm(unfold(t, mode)) == pytest.approx(
        frobenius_norm(t), rel=1e-12, abs=1e-12)


@settings(max_examples=250, deadline=None)
@given(tensor_two_modes_two_factors())
def test_mode_product_distinct_modes_commute(case):
    t, u, j, v, k = case
    left = mode_product(mode_product(t, u, j), v, k)
    right = mode_product(mode_product(t, v, k), u, j)
    np.testing.assert_allclose(left, right, rtol=1e-12, atol=1e-9)


@given(tensor_two_modes_two_factors())
def test_unfolding_compatibility(case):
    t, u, j, _, _ = case
    lhs = unfold(mode_product(t, u, j), j)
    rhs = u @ unfold(t, j)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-9)


def test_mode_product_identity_is_noop():
    rng = np.random.default_rng(5)
    t = rng.standard_normal((4, 3, 5))
    for k in range(3):
        np.testing.assert_array_equal(mode_product(t, np.eye(t.shape[k]), k), t)


def test_mode_product_zero_annihilates():
    t = np.ones((2, 3, 4))
    out = mode_product(t, np.zeros((5, 3)), 1)
    assert out.shape == (2, 5, 4)
    assert np.all(out == 0.0)


def test_mode_product_loop_oracle():
    # contract mode 1 by explicit summation
    rng = np.random.default_rng(7)
    t = rng.standard_normal((2, 3, 4))
    u = rng.standard_normal((5, 3))
    out = mode_product(t, u, 1)
    for i in range(2):
        for r in range(5):
            for k in range(4):
                want = sum(u[r, j] * t[i, j, k] for j in range(3))
                assert out[i, r, k] == pytest.approx(want, rel=1e-12)


def _tensordot_mode_product(t, u, k):
    """The n-mode product as tensordot + moveaxis spell it."""
    return np.moveaxis(np.tensordot(u, t, axes=([1], [k])), 0, k)


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.strides == want.strides
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("shape", [(5,), (4, 6), (1, 7), (3, 4, 5), (6, 1, 3),
                                   (2, 3, 4, 5), (3, 1, 2, 4)])
def test_mode_product_bit_identical_to_tensordot(shape):
    rng = np.random.default_rng(sum(shape) * 31 + len(shape))
    t = rng.standard_normal(shape)
    # a non-contiguous input too: the moved-axis output of another product
    t_view = mode_product(t, rng.standard_normal((shape[0], shape[0])), 0)
    for a in (t, t_view):
        for k, n in enumerate(shape):
            for rows in (0, 1, 3, n):
                u = rng.standard_normal((rows, n))
                _assert_same_bits(mode_product(a, u, k), _tensordot_mode_product(a, u, k))
                # transposed (F-ordered) factor, as HOOI and the core apply them
                ut = rng.standard_normal((n, rows)).T
                _assert_same_bits(mode_product(a, ut, k), _tensordot_mode_product(a, ut, k))


@pytest.mark.parametrize("shape, k", [((0, 3, 4), 0), ((3, 0, 4), 1), ((2, 3, 0), 2),
                                      ((0,), 0), ((0, 5), 0)])
def test_mode_product_zero_column_factor(shape, k):
    # a degenerate TARST mode: the core has extent 0 there, and expanding it
    # back contracts a factor with no columns; the product is all zeros
    rng = np.random.default_rng(3)
    t = np.zeros(shape)
    for rows in (2, 0):
        u = rng.standard_normal((rows, 0))
        got = mode_product(t, u, k)
        want = _tensordot_mode_product(t, u, k)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert not np.any(got)


def test_unfold_bit_identical_to_moveaxis_and_zero_sizes():
    rng = np.random.default_rng(29)
    t = rng.standard_normal((3, 4, 2, 5))
    for a in (t, t.transpose(2, 0, 3, 1)):
        for k in range(4):
            want = np.moveaxis(a, k, 0).reshape(a.shape[k], -1)
            _assert_same_bits(unfold(a, k), want)
    assert unfold(np.zeros((3, 0, 2)), 0).shape == (3, 0)
    assert unfold(np.zeros((3, 0, 2)), 1).shape == (0, 6)


def test_mode_product_rejects_mismatched_factor():
    with pytest.raises(ValueError, match="contract mode"):
        mode_product(np.zeros((2, 3)), np.zeros((4, 5)), 1)
    with pytest.raises(ValueError, match="matrix"):
        mode_product(np.zeros((2, 3)), np.zeros(3), 1)


def test_bad_mode_rejected():
    t = np.zeros((2, 2))
    for bad in (-1, 2, 7):
        with pytest.raises(ValueError, match="out of range"):
            unfold(t, bad)


def test_non_integer_mode_or_extent_raises_type_error():
    # int() used to truncate: unfold(t, 1.7) unfolded mode 1, and a
    # (4.5, 4, 4) target shape folded to 4 x 4 x 4
    t = np.arange(64.0).reshape(4, 4, 4)
    for bad in (1.7, 1.0, "1"):
        with pytest.raises(TypeError, match="mode must be an integer"):
            unfold(t, bad)
        with pytest.raises(TypeError, match="mode must be an integer"):
            mode_product(t, np.eye(4), bad)
        with pytest.raises(TypeError, match="mode must be an integer"):
            fold(unfold(t, 1), bad, t.shape)
    for shape in [(4.5, 4, 4), (4.0, 4, 4), (4, 4, np.float64(4))]:
        with pytest.raises(TypeError, match="extent must be an integer"):
            fold(unfold(t, 0), 0, shape)
    # numpy integers are integers
    m = unfold(t, np.int64(1))
    np.testing.assert_array_equal(m, unfold(t, 1))
    np.testing.assert_array_equal(fold(m, np.uint8(1), np.array([4, 4, 4])), t)
    np.testing.assert_array_equal(mode_product(t, np.eye(4), np.int32(2)), t)


def test_fold_rejects_wrong_geometry():
    with pytest.raises(ValueError, match="cannot fold"):
        fold(np.zeros((3, 7)), 0, (3, 2, 4))
    with pytest.raises(ValueError, match=r"^invalid shape \(2, 0\)$"):
        fold(np.zeros((2, 2)), 0, (2, 0))


@pytest.mark.parametrize("shape", [(0, 3), (3, 0, 2), ()])
def test_one_shape_rule_for_generator_config_and_fold(shape, monkeypatch):
    # the generator used to report (0, 3) as a rank fault and to draw random
    # numbers before it failed on ()
    def no_draws(*args, **kwargs):
        raise AssertionError("drew random numbers for an invalid shape")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    message = f"^invalid shape {re.escape(repr(shape))}$"
    ranks = (1,) * len(shape)
    with pytest.raises(ValueError, match=message):
        gen_lowrank_tensor(shape, ranks, 10.0, 2.0, 0)
    with pytest.raises(ValueError, match=message):
        Pattern1Config(shape=shape, true_ranks=ranks)
    with pytest.raises(ValueError, match=message):
        fold(np.zeros((1, 1)), 0, shape)


def test_multi_mode_product_matches_sequential():
    rng = np.random.default_rng(13)
    t = rng.standard_normal((3, 4, 5))
    us = [rng.standard_normal((2, 3)), rng.standard_normal((6, 4)),
          rng.standard_normal((2, 5))]
    want = mode_product(mode_product(mode_product(t, us[0], 0), us[1], 1), us[2], 2)
    np.testing.assert_allclose(multi_mode_product(t, us), want, rtol=1e-12)
    # full rank: the last product, written in C order, may round apart from
    # the chain on a few entries, depending on the BLAS kernel
    t = rng.standard_normal((50, 50, 50))
    us = [np.linalg.qr(rng.standard_normal((50, 50)))[0] for _ in range(3)]
    want = mode_product(mode_product(mode_product(t, us[0], 0), us[1], 1), us[2], 2)
    np.testing.assert_allclose(multi_mode_product(t, us), want, rtol=1e-12)


def _last_product(core, us):
    """multi_mode_product(core, us) and one np.dot for its last product."""
    m = core
    for k in range(core.ndim - 1):
        m = mode_product(m, us[k], k)
    rest = m.shape[:-1]
    want = np.dot(m.reshape(-1, m.shape[-1]), us[-1].T).reshape(rest + (us[-1].shape[0],))
    return multi_mode_product(core, us), want


def test_multi_mode_product_one_block_has_the_bits_of_one_dot():
    # a last product of at most _BLOCK output entries is one np.dot call
    rng = np.random.default_rng(31)
    extent = 285
    rows = _BLOCK // extent
    cases = [((5, 10), [(rows, 5), (extent, 10)]), ((6, 1, 5), [(6, 6), (1, 1), (5, 5)]),
             ((3, 3, 3), [(10, 3)] * 3), ((5, 5, 5), [(40, 5)] * 3), ((7,), [(9, 7)])]
    for shape, factors in cases:
        core = rng.standard_normal(shape)
        got, want = _last_product(core, [rng.standard_normal(f) for f in factors])
        assert got.size <= _BLOCK
        assert got.flags.c_contiguous and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape, modes, block", [
    ((7, 5, 6), (1,), 60),  # slabs of 2, 2, 2 and a short last slab of 1 slice
    ((7, 5, 6), (1, 2), 10),  # one-slice slabs: a slice exceeds the budget
    ((5, 3, 4, 2), (1, 2), 20),  # 4-way: one pass serves both middle modes
    ((4, 1, 6, 3), (1, 2), 40),  # an extent-1 middle mode
    ((9, 6, 1), (1,), 13),
    ((70, 50, 40), (1,), None),  # the package's budget: slabs of 32, 32 and 6 slices
])
def test_grams_match_the_gram_matrix_of_the_whole_unfolding(shape, modes, block, monkeypatch):
    # the slab sums equal m @ m.T of the whole unfolding up to the roundoff
    # of the sum, with every slab's columns counted once
    if block is not None:
        monkeypatch.setattr(tensor_ops, "_BLOCK", block)
    assert math.prod(shape) > tensor_ops._BLOCK
    a = np.random.default_rng(37).standard_normal(shape)
    grams = _grams(a, modes)
    assert sorted(grams) == sorted(modes)
    for k in modes:
        m = unfold(a, k)
        want = m @ m.T
        np.testing.assert_allclose(grams[k], want, rtol=0, atol=1e-14 * np.abs(want).max())


@pytest.mark.parametrize("shape, modes", [((10, 10, 10), (1,)), ((5, 4, 3, 6), (1, 2)),
                                          ((3, 1, 7), (1,))])
def test_grams_of_one_slab_have_the_bits_of_the_whole_unfolding(shape, modes, monkeypatch):
    # a tensor of at most _BLOCK entries, here also exactly _BLOCK, is one
    # slab: each Gram matrix is m @ m.T of the unfolding m, bit for bit
    a = np.random.default_rng(38).standard_normal(shape)
    for block in (_BLOCK, a.size):
        monkeypatch.setattr(tensor_ops, "_BLOCK", block)
        grams = _grams(a, modes)
        for k in modes:
            m = unfold(a, k)
            assert grams[k].tobytes() == (m @ m.T).tobytes()


def _multi_block_products():
    """(core, factors) whose last product spans several row blocks (with a
    short last block, with one-row blocks for a 3 x 140000 output, and at
    30^4), and 1-way inputs whose contracted or output extent is 200000."""
    rng = np.random.default_rng(29)
    extent = 285
    step = _BLOCK // extent
    t = rng.standard_normal((5, 10))
    for rows in (step + 1, 2 * step, 3 * step - 7):
        yield t, [rng.standard_normal((rows, 5)), rng.standard_normal((extent, 10))]
    yield rng.standard_normal((2, 4)), [rng.standard_normal((3, 2)),
                                        rng.standard_normal((140000, 4))]
    yield rng.standard_normal((6, 6, 6, 6)), [np.linalg.qr(rng.standard_normal((30, 6)))[0]
                                              for _ in range(4)]
    yield rng.standard_normal(200000), [rng.standard_normal((3, 200000))]
    yield rng.standard_normal(4), [rng.standard_normal((200000, 4))]


def test_multi_mode_product_last_product_matches_one_dot():
    # past one block the row blocks equal one np.dot up to roundoff, and a
    # second call gives the same bits
    for core, us in _multi_block_products():
        got, want = _last_product(core, us)
        assert got.flags.c_contiguous and got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())
        assert multi_mode_product(core, us).tobytes() == got.tobytes()
    # a last factor with no rows gives an empty result, not a zero division
    core = np.ones((6, 6, 6, 6))
    us = [np.ones((30, 6))] * 3 + [np.zeros((0, 6))]
    assert multi_mode_product(core, us).shape == (30, 30, 30, 0)


def test_multi_mode_product_needs_one_factor_per_mode():
    rng = np.random.default_rng(17)
    t = rng.standard_normal((3, 4, 5))
    us = [rng.standard_normal((2, 3)), rng.standard_normal((6, 4)),
          rng.standard_normal((2, 5))]
    with pytest.raises(ValueError, match="expected 3 factors"):
        multi_mode_product(t, us[:2])
    with pytest.raises(ValueError, match="expected 3 factors"):
        multi_mode_product(t, us + [np.eye(1)])
    # every mode gets a matrix; None does not skip one
    with pytest.raises(ValueError, match="factor must be a matrix"):
        multi_mode_product(t, [us[0], None, us[2]])


def test_multi_mode_product_transpose_projects():
    # orthonormal factors: transpose then forward is the orthogonal projection
    rng = np.random.default_rng(19)
    t = rng.standard_normal((5, 6, 4))
    qs = [np.linalg.qr(rng.standard_normal((n, r)))[0]
          for n, r in zip(t.shape, (2, 3, 2))]
    core = multi_mode_product(t, [q.T for q in qs])
    assert core.shape == (2, 3, 2)
    proj = multi_mode_product(core, qs)
    # projecting twice changes nothing
    core2 = multi_mode_product(proj, [q.T for q in qs])
    np.testing.assert_allclose(core2, core, rtol=1e-10, atol=1e-12)
    assert frobenius_norm(proj) <= frobenius_norm(t) + 1e-9


@pytest.mark.parametrize("shape", [(7,), (1,), (4, 6), (1, 7), (6, 1), (3, 4, 5), (6, 1, 3),
                                   (1, 1, 1), (2, 3, 4, 5), (3, 1, 2, 4)])
def test_products_reconstructions_and_generated_tensors_are_c_order(shape):
    # the layout every caller gets: rrse's truth copy is then a memcpy and
    # write_tensor's rows are views
    rng = np.random.default_rng(len(shape) * 97 + sum(shape))
    ranks = tuple(min(2, n) for n in shape)
    qs = [np.linalg.qr(rng.standard_normal((n, r)))[0] for n, r in zip(shape, ranks)]
    core = rng.standard_normal(ranks)
    t = rng.standard_normal(shape)
    outputs = [multi_mode_product(core, qs),
               multi_mode_product(np.asfortranarray(t), [q.T for q in qs]),
               multi_mode_product(mode_product(t, np.eye(shape[0]), 0), [q.T for q in qs]),
               reconstruct(TuckerModel(core=core, factors=qs))]
    truth = gen_lowrank_tensor(shape, ranks, 10.0, 2.0, seed=5)
    outputs += [truth, add_gaussian_noise(truth, 0.5, seed=6),
                inject_outliers(truth, 1.0, 10.0, seed=7)]
    # a degenerate model: one mode (first, middle or last) kept nothing
    for k in range(len(shape)):
        ranks0 = ranks[:k] + (0,) + ranks[k + 1:]
        factors = [q[:, :r] for q, r in zip(qs, ranks0)]
        outputs.append(reconstruct(TuckerModel(core=np.zeros(ranks0), factors=factors)))
    for out in outputs:
        assert out.flags.c_contiguous
    for out in outputs[-len(shape):]:
        assert out.shape == shape and not np.any(out)


def test_frobenius_norm_loop_oracle():
    rng = np.random.default_rng(23)
    t = rng.standard_normal((3, 2, 4))
    want = np.sqrt(sum(x * x for x in t.ravel()))
    assert frobenius_norm(t) == pytest.approx(want, rel=1e-14)
    assert frobenius_norm(np.zeros((2, 2))) == 0.0


def _plain_norm(t):
    return float(np.linalg.norm(np.asarray(t, dtype=np.float64).ravel()))


def test_frobenius_norm_is_the_plain_norm_in_range():
    # wherever sqrt(x . x) neither overflows nor nears underflow it comes
    # back bit for bit
    rng = np.random.default_rng(29)
    for _ in range(2000):
        shape = tuple(int(s) for s in rng.integers(1, 8, size=rng.integers(1, 4)))
        t = rng.standard_normal(shape) * 10.0 ** rng.uniform(-100, 100)
        assert frobenius_norm(t) == _plain_norm(t)


@pytest.mark.parametrize("k", [600, 1000, -600, -900])
def test_frobenius_norm_scales_exactly_by_powers_of_two(k):
    y = np.random.default_rng(31).standard_normal((10, 10, 10))
    c = 2.0 ** k
    assert frobenius_norm(c * y) == c * frobenius_norm(y)


def test_frobenius_norm_extremes():
    # finite whenever the norm is representable, inf only past the top
    assert frobenius_norm(np.full(4, 8e307)) == pytest.approx(1.6e308, rel=1e-15)
    assert frobenius_norm(np.full(4, 1e-200)) == pytest.approx(2e-200, rel=1e-15)
    assert frobenius_norm(np.full(4, 1.7e308)) == np.inf
    assert frobenius_norm([5e-324]) == 5e-324
    assert frobenius_norm([3e-170, 4e-170]) == pytest.approx(5e-170, rel=1e-15)
    # zero, empty, 0-d, and non-finite entries keep their plain results
    assert frobenius_norm(np.zeros((2, 2))) == 0.0
    assert frobenius_norm(np.zeros(0)) == 0.0
    assert frobenius_norm(-5.0) == 5.0
    assert frobenius_norm([np.inf, 1.0]) == np.inf
    assert np.isnan(frobenius_norm([np.nan, 1.0]))
