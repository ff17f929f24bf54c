import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from scipy.special import expit, logit
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vqround import errors
from vqround.quantize import (
    GAMMA,
    ZETA,
    QuantParams,
    adaptive_quantize,
    compute_quant_params,
    hard_round,
    inverse_rectified_sigmoid,
    rectified_sigmoid,
    regularizer_grad,
    round_half_away,
    rounding_regularizer,
    rtn_quantize,
)

finite_matrices = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.floats(-100, 100),
)


def params_for(scale, zero, bits=4):
    return QuantParams(
        bits=bits,
        scale=np.asarray(scale, dtype=np.float64),
        zero=np.asarray(zero, dtype=np.int64),
    )


class TestQuantParams:
    def test_mixed_sign_row(self):
        p = compute_quant_params(np.array([[-1.0, 2.0]]), 4)
        assert p.scale[0] == pytest.approx(0.2)
        assert p.zero[0] == 5

    def test_all_zero_row_degenerates(self):
        p = compute_quant_params(np.zeros((1, 3)), 4)
        assert p.scale[0] == 1.0
        assert p.zero[0] == 0

    def test_nonnegative_row(self):
        p = compute_quant_params(np.array([[0.0, 15.0]]), 4)
        assert p.scale[0] == 1.0
        assert p.zero[0] == 0

    @pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_scale_that_is_not_positive_and_finite_is_refused(self, scale):
        # NaN passed a `scale <= 0` test, and every quantizer downstream
        # then computed NaN.
        with pytest.raises(errors.DomainError, match="positive finite"):
            QuantParams(3, [scale], [0])
        with pytest.raises(errors.DomainError, match="positive finite"):
            QuantParams(3, [0.5, scale], [0, 1])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("row", [[np.inf, 1.0], [-1e308, 1e308], [np.nan, 0.5], [2.0, -np.inf]])
    def test_row_whose_range_is_not_finite_is_refused(self, row):
        # An infinite entry gave scale inf; extremes of +-1e308 overflowed
        # their difference with only a RuntimeWarning, which is not raised.
        with pytest.raises(errors.OutOfRange, match="row 0"):
            compute_quant_params(np.array([row]), 3)
        with pytest.raises(errors.OutOfRange, match="row 1.s range"):
            compute_quant_params(np.array([[0.5, -0.25], row]), 3)

    def test_weights_with_no_columns_are_refused(self):
        # The row extremes of a zero-width layer raised numpy's ValueError.
        with pytest.raises(errors.ShapeMismatch, match="no columns"):
            compute_quant_params(np.zeros((3, 0)), 4)

    @pytest.mark.parametrize("bits", [1, 9, 0, -2])
    def test_bits_out_of_range(self, bits):
        with pytest.raises(errors.BitsOutOfRange):
            compute_quant_params(np.eye(2), bits)

    @settings(max_examples=100, deadline=None)
    @given(finite_matrices, st.integers(2, 8))
    def test_zero_point_on_grid(self, W, bits):
        p = compute_quant_params(W, bits)
        assert np.all(p.scale > 0)
        assert np.all((0 <= p.zero) & (p.zero <= p.q_max))

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_float32_weights_match_their_float64_copy(self, layout):
        # Positive-only, negative-only, constant and subnormal-span rows
        # beside mixed ones, in a float32 array of each layout.
        W = np.random.default_rng(4).normal(size=(9, 40)).astype(np.float32)
        W[1] = np.abs(W[1])
        W[2] = -np.abs(W[2])
        W[3] = 0.25
        W[4] = np.float32(1e-44) * np.arange(40)
        W[5] *= np.float32(1e37)
        if layout == "F":
            W = np.asfortranarray(W)
        elif layout == "strided":
            W = W[:, ::2]
        for bits in (2, 3, 8):
            got = compute_quant_params(W, bits)
            want = compute_quant_params(W.astype(np.float64), bits)
            assert got.scale.tobytes() == want.scale.tobytes()
            assert got.zero.tobytes() == want.zero.tobytes()

    def test_does_not_copy_float32_weights_to_float64(self):
        W = np.random.default_rng(5).normal(size=(512, 512)).astype(np.float32)
        compute_quant_params(W, 3)
        tracemalloc.start()
        try:
            compute_quant_params(W, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < W.nbytes // 4


class TestRtn:
    def test_round_up(self):
        q, w = rtn_quantize(np.array([[2.7]]), params_for([1.0], [0]))
        assert q[0, 0] == 3
        assert w[0, 0] == 3.0

    def test_saturation(self):
        q, _ = rtn_quantize(np.array([[100.0]]), params_for([1.0], [0]))
        assert q[0, 0] == 15

    def test_negative_half_rounds_away_from_zero(self):
        # -0.5 / 0.2 = -2.5 rounds to -3, shifted by zero-point 5 -> 2.
        q, w = rtn_quantize(np.array([[-0.5]]), params_for([0.2], [5]))
        assert q[0, 0] == 2
        assert w[0, 0] == pytest.approx(-0.6)

    def test_shape_mismatch(self):
        with pytest.raises(errors.ShapeMismatch):
            rtn_quantize(np.eye(3), params_for([1.0], [0]))


class TestRoundHalfAway:
    @pytest.mark.parametrize(
        "x,expected",
        [(2.5, 3), (-2.5, -3), (0.5, 1), (-0.5, -1), (2.4, 2), (-2.4, -2), (0.0, 0)],
    )
    def test_values(self, x, expected):
        assert round_half_away(np.array([x]))[0] == expected


class TestRectifiedSigmoid:
    def test_zero_maps_to_half(self):
        assert rectified_sigmoid(np.array([[0.0]]))[0, 0] == pytest.approx(0.5)

    def test_positive_saturation(self):
        assert rectified_sigmoid(np.array([[20.0]]))[0, 0] == 1.0

    def test_negative_saturation(self):
        assert rectified_sigmoid(np.array([[-20.0]]))[0, 0] == 0.0

    def test_stretch_is_adarounds_byte_for_byte(self):
        # gamma = -0.1 and zeta = 1.1, with the stretch taken as zeta -
        # gamma = 1.2000000000000002: the literal 1.2 differs in the last
        # bit on most entries, which the hardened outputs do not show.
        A = np.random.default_rng(0).normal(scale=3.0, size=(64, 64))
        want = np.clip(-0.1 + (1.1 - -0.1) * expit(A), 0.0, 1.0)
        assert rectified_sigmoid(A).tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, (3, 3), elements=st.floats(-1e6, 1e6)))
    def test_range(self, A):
        H = rectified_sigmoid(A)
        assert np.all((0.0 <= H) & (H <= 1.0))


class TestInverseRectifiedSigmoid:
    def test_half_maps_to_zero(self):
        assert inverse_rectified_sigmoid(np.array([[0.5]]))[0, 0] == pytest.approx(0.0)

    def test_endpoint_zero(self):
        # logit((0 + 0.1)/1.2) = log((1/12) / (11/12)) = -log(11)
        a = inverse_rectified_sigmoid(np.array([[0.0]]))[0, 0]
        assert a == pytest.approx(-math.log(11.0), rel=1e-12)
        assert a == pytest.approx(-2.397895, abs=1e-6)

    def test_endpoint_one(self):
        a = inverse_rectified_sigmoid(np.array([[1.0]]))[0, 0]
        assert a == pytest.approx(math.log(11.0), rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(errors.OutOfRange):
            inverse_rectified_sigmoid(np.array([[1.2]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("rest", [[0.2], [0.0, 1.0], [0.0] * 20])
    def test_non_finite_raises(self, bad, rest):
        with pytest.raises(errors.OutOfRange):
            inverse_rectified_sigmoid(np.array([rest + [bad]]))

    def test_empty(self):
        assert inverse_rectified_sigmoid(np.zeros((0, 3))).shape == (0, 3)

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, (2, 4), elements=st.floats(0.0, 1.0)))
    def test_inverse_consistency(self, H):
        back = rectified_sigmoid(inverse_rectified_sigmoid(H))
        assert np.max(np.abs(back - H)) <= 1e-6


def elementwise_latent(H):
    """The latent as one logit over every entry."""
    return logit((np.asarray(H, dtype=np.float64) - GAMMA) / (ZETA - GAMMA))


def seed_latents():
    """Rounding matrices by name: saturated as a curvature seed is,
    interior as a residual seed is, and mixtures, in several layouts."""
    rng = np.random.default_rng(3)
    binary = (rng.random((96, 130)) < 0.4).astype(np.float64)
    residual = rng.random((96, 130))

    def mixed(share):
        return np.where(rng.random(binary.shape) < share, residual, binary)

    sparse = mixed(0.02)
    return {
        "saturated": binary,
        "residual": residual,
        "mixed": mixed(0.5),
        "sparse": sparse,
        "transposed-saturated": binary.T,
        "fortran-sparse": np.asfortranarray(sparse),
        "strided-sparse": sparse[::2, ::-3],
        "signed-zeros": np.where(binary > 0, 1.0, -0.0),
        "near-ends": np.where(binary > 0, 1.0 - 2**-53, 5e-324),
        "one-interior": np.where(np.arange(binary.size).reshape(binary.shape) == 77, 0.5, binary),
    }


class TestInverseRectifiedSigmoidBytes:
    @pytest.mark.parametrize("name", list(seed_latents()))
    def test_matches_elementwise_logit(self, name):
        H = seed_latents()[name]
        got = inverse_rectified_sigmoid(H)
        want = elementwise_latent(H)
        assert got.shape == H.shape
        assert got.tobytes() == want.tobytes()
        if H.flags.f_contiguous and not H.flags.c_contiguous:
            assert got.flags.f_contiguous

    def test_interior_entries_never_take_an_end_latent(self):
        # Entries that are neither 0 nor 1 go through the logit even when
        # every other entry is saturated.
        values = [5e-324, 1e-300, 0.25, 0.5, 0.75, 1.0 - 2**-53]
        H = np.zeros((40, 40))
        H[1::2, ::2] = 1.0
        H.flat[:len(values)] = values
        A = inverse_rectified_sigmoid(H)
        ends = elementwise_latent([0.0, 1.0])
        assert A.flat[:len(values)].tobytes() == elementwise_latent(values).tobytes()
        assert not np.isin(A.flat[2:5], ends).any()
        assert set(np.unique(A.flat[len(values):])) == set(ends)

    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("soft_at", [None, 0, -1])
    def test_several_blocks_match_elementwise_logit(self, layout, soft_at):
        # 75000 entries span three blocks of the saturated walk; one soft
        # entry in the first or the last block sends all of H to the logit.
        H = (np.random.default_rng(7).random((300, 250)) < 0.5).astype(np.float64)
        if soft_at is not None:
            H.flat[soft_at] = 0.5
        if layout == "F":
            H = np.asfortranarray(H)
        A = inverse_rectified_sigmoid(H)
        assert A.tobytes() == elementwise_latent(H).tobytes()
        assert A.flags.f_contiguous == (layout == "F")

    def test_saturated_transposed_latent_allocates_only_its_result(self):
        # The sweep's seed is a transposed view. Two masks and a temporary
        # of its size took the peak to 2.1 times its bytes; walking it in
        # blocks of its memory order leaves the result, one 256 KB buffer
        # and the blocks' masks.
        H = (np.random.default_rng(6).random((768, 512)) < 0.4).astype(np.float64).T
        inverse_rectified_sigmoid(H)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            A = inverse_rectified_sigmoid(H)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert A.tobytes() == elementwise_latent(H).tobytes()
        assert A.flags.f_contiguous
        assert peak <= 1.2 * H.nbytes

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 255), st.floats(0.0, 1.0)), max_size=40),
           st.integers(0, 2**32 - 1))
    def test_sparse_interior_matches_elementwise_logit(self, entries, seed):
        H = (np.random.default_rng(seed).random((16, 16)) < 0.5).astype(np.float64)
        for index, value in entries:
            H.flat[index] = value
        assert inverse_rectified_sigmoid(H).tobytes() == elementwise_latent(H).tobytes()


class TestAdaptiveQuantize:
    def test_round_up_matches_rtn(self):
        q, _ = adaptive_quantize(np.array([[2.7]]), params_for([1.0], [0]), np.array([[1.0]]))
        assert q[0, 0] == 3

    def test_round_down_overrides_rtn(self):
        q, _ = adaptive_quantize(np.array([[2.7]]), params_for([1.0], [0]), np.array([[0.0]]))
        assert q[0, 0] == 2

    def test_soft_value_stays_real(self):
        q, w = adaptive_quantize(np.array([[2.7]]), params_for([1.0], [0]), np.array([[0.5]]))
        assert q[0, 0] == 2.5
        assert w[0, 0] == 2.5

    def test_out_of_range_h(self):
        with pytest.raises(errors.OutOfRange):
            adaptive_quantize(np.eye(1), params_for([1.0], [0]), np.array([[1.5]]))

    @pytest.mark.parametrize("nan_at", [[(1, 0)], [(0, 0), (0, 1), (1, 0), (1, 1)]],
                             ids=["one-nan", "all-nan"])
    def test_nan_h_is_refused(self, nan_at):
        # NaN fails both `min < 0` and `max > 1`, so it passed the range
        # check and came out as NaN weights.
        W = np.ones((2, 2))
        H = np.full((2, 2), 0.5)
        for index in nan_at:
            H[index] = np.nan
        with pytest.raises(errors.OutOfRange, match=r"\[0, 1\]"):
            adaptive_quantize(W, compute_quant_params(W, 4), H)

    @settings(max_examples=100, deadline=None)
    @given(finite_matrices)
    def test_output_in_grid_range(self, W):
        p = compute_quant_params(W, 3)
        H = np.full_like(W, 0.37)
        q, _ = adaptive_quantize(W, p, H)
        assert np.all((p.q_min <= q) & (q <= p.q_max))


class TestHardRound:
    @pytest.mark.parametrize("h,expected", [(0.5, 1.0), (0.4999, 0.0), (1.0, 1.0), (0.0, 0.0)])
    def test_threshold(self, h, expected):
        assert hard_round(np.array([[h]]))[0, 0] == expected


class TestRegularizer:
    def test_max_at_half(self):
        H = np.full((3, 4), 0.5)
        for beta in (0.5, 2.0, 20.0):
            assert rounding_regularizer(H, beta) == pytest.approx(12.0)

    def test_zero_iff_binary(self):
        H = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert rounding_regularizer(H, 3.0) == 0.0

    def test_single_entry(self):
        assert rounding_regularizer(np.array([[0.75]]), 2.0) == pytest.approx(0.75)

    @settings(max_examples=100, deadline=None)
    @given(
        arrays(np.float64, (2, 3), elements=st.floats(0.0, 1.0)),
        st.floats(0.1, 30.0),
    )
    def test_nonnegative_zero_iff_binary(self, H, beta):
        r = rounding_regularizer(H, beta)
        assert r >= -1e-12
        # Binary at evaluation precision: |2H - 1| rounds to exactly 1.
        if np.all(np.abs(2.0 * H - 1.0) == 1.0):
            assert r == pytest.approx(0.0, abs=1e-12)
        else:
            assert r > 0.0


class TestRegularizerGrad:
    def test_stationary_at_half(self):
        assert regularizer_grad(np.array([[0.5]]), 2.0)[0, 0] == 0.0

    def test_analytic_value(self):
        # d/dH [1 - (2H-1)^2] = -4(2H-1) -> -2 at H = 0.75
        assert regularizer_grad(np.array([[0.75]]), 2.0)[0, 0] == pytest.approx(-2.0)

    def test_matches_central_differences(self):
        h, beta, step = 0.6, 3.0, 1e-4
        fd = (
            rounding_regularizer(np.array([[h + step]]), beta)
            - rounding_regularizer(np.array([[h - step]]), beta)
        ) / (2 * step)
        analytic = regularizer_grad(np.array([[h]]), beta)[0, 0]
        assert analytic == pytest.approx(fd, rel=1e-5)


class TestResidualRtnEquivalence:
    """Hard-rounding the floor residual must reproduce round-to-nearest.

    Exact negative half-integer grid points are excluded: there the
    away-from-zero tie rule rounds down in value while the >= threshold
    rounds up. Such points have measure zero for continuous weights.
    """

    @settings(max_examples=200, deadline=None)
    @given(finite_matrices, st.integers(2, 8))
    def test_equivalence(self, W, bits):
        p = compute_quant_params(W, bits)
        u = W / p.scale[:, None]
        resid = u - np.floor(u)
        assume(np.all(np.abs(resid - 0.5) > 1e-6))
        H = hard_round(rectified_sigmoid(inverse_rectified_sigmoid(resid)))
        q_adaptive, w_adaptive = adaptive_quantize(W, p, H)
        q_rtn, w_rtn = rtn_quantize(W, p)
        assert np.array_equal(q_adaptive, q_rtn.astype(np.float64))
        assert np.array_equal(w_adaptive, w_rtn)
