"""Unit tests for the autodiff tape: Tensor mechanics and arithmetic ops."""

import weakref

import numpy as np
import pytest

from repro.autodiff import Tensor, tensor, no_grad, is_grad_enabled
from repro.autodiff import functional as F
from repro.autodiff.ops import custom_vjp_with_residuals

from tests.helpers import check_grad


class TestTensorBasics:
    def test_construction_from_list(self):
        t = tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.data.dtype == np.float64

    def test_construction_from_scalar(self):
        t = tensor(3.5)
        assert t.shape == ()
        assert t.item() == 3.5

    def test_requires_grad_flag(self):
        t = tensor([1.0], requires_grad=True)
        assert t.requires_grad
        assert tensor([1.0]).requires_grad is False

    def test_detach_cuts_tape(self):
        a = tensor([2.0], requires_grad=True)
        b = (a * 3.0).detach()
        c = (b * 2.0).sum()
        c.backward()
        assert a.grad is None

    def test_repr_mentions_shape(self):
        assert "shape=(2,)" in repr(tensor([1.0, 2.0]))

    def test_backward_nonscalar_requires_seed(self):
        a = tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (a * 2.0).backward()

    def test_backward_with_explicit_seed(self):
        a = tensor([1.0, 2.0], requires_grad=True)
        (a * 2.0).backward(np.array([1.0, 10.0]))
        np.testing.assert_allclose(a.grad, [2.0, 20.0])

    def test_grad_accumulates_across_backward_calls(self):
        a = tensor([1.0], requires_grad=True)
        (a * 2.0).sum().backward()
        (a * 3.0).sum().backward()
        np.testing.assert_allclose(a.grad, [5.0])

    def test_zero_grad(self):
        a = tensor([1.0], requires_grad=True)
        (a * 2.0).sum().backward()
        a.zero_grad()
        assert a.grad is None

    def test_item_on_nonscalar_raises(self):
        with pytest.raises(TypeError):
            tensor([1.0, 2.0]).item()


class TestNoGrad:
    def test_no_grad_blocks_tape(self):
        a = tensor([1.0], requires_grad=True)
        with no_grad():
            b = a * 2.0
        assert b._parents == ()

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert is_grad_enabled()


class TestArithmetic:
    def test_add_values(self):
        c = tensor([1.0, 2.0]) + tensor([3.0, 4.0])
        np.testing.assert_allclose(c.data, [4.0, 6.0])

    def test_add_grad(self):
        check_grad(lambda x: (x + x).sum(), np.array([1.0, -2.0, 3.0]))

    def test_add_scalar_broadcast(self):
        check_grad(lambda x: (x + 5.0).sum(), np.array([1.0, 2.0]))

    def test_radd(self):
        c = 1.0 + tensor([1.0])
        np.testing.assert_allclose(c.data, [2.0])

    def test_sub_grad(self):
        check_grad(lambda x: (x - 2.0 * x).sum(), np.array([1.0, -1.0]))

    def test_rsub(self):
        c = 10.0 - tensor([3.0])
        np.testing.assert_allclose(c.data, [7.0])

    def test_mul_grad(self):
        check_grad(lambda x: (x * x).sum(), np.array([1.5, -0.5, 2.0]))

    def test_div_grad(self):
        check_grad(lambda x: (1.0 / x).sum(), np.array([1.0, 2.0, -3.0]))

    def test_rdiv(self):
        c = 6.0 / tensor([2.0])
        np.testing.assert_allclose(c.data, [3.0])

    def test_neg_grad(self):
        check_grad(lambda x: (-x).sum(), np.array([1.0, 2.0]))

    def test_pow_grad(self):
        check_grad(lambda x: (x**3).sum(), np.array([1.0, 2.0, 0.5]))

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            tensor([1.0]) ** tensor([2.0])

    def test_broadcast_row_times_col(self):
        def fn(x):
            row = x.reshape(1, 3)
            col = tensor(np.array([[1.0], [2.0]]))
            return (row * col).sum()

        check_grad(fn, np.array([1.0, 2.0, 3.0]))

    def test_chain_of_ops_matches_numpy(self):
        x = np.array([0.3, -0.8, 1.2])
        t = tensor(x)
        out = ((t * 2.0 + 1.0) / 3.0 - 0.5).sum()
        expected = np.sum((x * 2.0 + 1.0) / 3.0 - 0.5)
        assert out.item() == pytest.approx(expected)

    def test_diamond_graph_grad(self):
        # f = (x*2) + (x*3): gradient 5 everywhere; exercises fan-out.
        a = tensor([1.0, 2.0], requires_grad=True)
        ((a * 2.0) + (a * 3.0)).sum().backward()
        np.testing.assert_allclose(a.grad, [5.0, 5.0])

    def test_deep_chain_does_not_recurse(self):
        # toposort is iterative, so a deep chain must not hit the
        # Python recursion limit.
        a = tensor([1.0], requires_grad=True)
        b = a
        for _ in range(5000):
            b = b + 1.0
        b.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0])


class TestGetitem:
    def test_slice_values(self):
        t = tensor(np.arange(6.0).reshape(2, 3))
        np.testing.assert_allclose(t[0].data, [0.0, 1.0, 2.0])

    def test_slice_grad(self):
        check_grad(lambda x: x[1:].sum(), np.array([1.0, 2.0, 3.0]))

    def test_2d_window_grad(self):
        check_grad(
            lambda x: (x[1:3, 0:2] * 2.0).sum(),
            np.arange(16.0).reshape(4, 4),
        )

    def test_repeated_index_accumulates(self):
        a = tensor(np.array([1.0, 2.0]), requires_grad=True)
        idx = np.array([0, 0, 1])
        a[idx].sum().backward()
        np.testing.assert_allclose(a.grad, [2.0, 1.0])


class TestComparisons:
    def test_gt_returns_bool_array(self):
        mask = tensor([1.0, 3.0]) > 2.0
        assert mask.dtype == bool
        np.testing.assert_array_equal(mask, [False, True])

    def test_comparison_with_tensor(self):
        mask = tensor([1.0, 3.0]) <= tensor([2.0, 2.0])
        np.testing.assert_array_equal(mask, [True, False])


class TestConsumedTape:
    """``backward()`` frees the tape it walks; reusing it raises."""

    def test_second_backward_through_shared_node_raises(self):
        a = tensor([1.0, 2.0], requires_grad=True)
        shared = a * 3.0
        first = (shared * 2.0).sum()
        second = (shared + 1.0).sum()
        first.backward()
        np.testing.assert_allclose(a.grad, [6.0, 6.0])
        with pytest.raises(RuntimeError, match="consumed"):
            second.backward()
        np.testing.assert_allclose(a.grad, [6.0, 6.0])

    def test_repeated_backward_on_root_raises(self):
        a = tensor([1.0], requires_grad=True)
        loss = (a * 2.0).sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="consumed"):
            loss.backward()
        np.testing.assert_allclose(a.grad, [2.0])

    def test_residuals_die_with_the_backward_pass(self):
        class Residual:  # stands in for an LU solver and its fields
            pass

        refs = []

        def forward(x):
            residual = Residual()
            refs.append(weakref.ref(residual))
            return 2.0 * x, residual

        op = custom_vjp_with_residuals(
            forward, lambda g, out, residual, x: (2.0 * g,), name="double"
        )
        a = tensor([1.0, 2.0], requires_grad=True)
        loss = op(a).sum()
        assert refs[0]() is not None
        loss.backward()
        assert refs[0]() is None
        np.testing.assert_allclose(a.grad, [2.0, 2.0])

    def test_fresh_graph_on_same_leaf_still_differentiates(self):
        a = tensor([1.0, 2.0], requires_grad=True)
        (a * a).sum().backward()
        np.testing.assert_allclose(a.grad, [2.0, 4.0])
        a.zero_grad()
        (a * 3.0).sum().backward()
        np.testing.assert_allclose(a.grad, [3.0, 3.0])
