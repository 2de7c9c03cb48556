"""Core :class:`Tensor` type and the reverse-mode tape.

A :class:`Tensor` wraps a real numpy array together with (optionally) the
information needed to backpropagate through the operation that produced it:
its parent tensors and a list of backward closures mapping the output
cotangent to each parent's cotangent contribution.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["Tensor", "tensor", "no_grad", "is_grad_enabled"]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables tape recording.

    Inside the block every operation produces constant tensors; useful for
    evaluation passes (e.g. Monte-Carlo robustness checks) where gradients
    are not needed and the tape would waste memory.
    """
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def is_grad_enabled() -> bool:
    """Whether operations currently record to the tape."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, inverting numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    return arr


class Tensor:
    """A real array plus optional autodiff tape metadata.

    Parameters
    ----------
    data:
        Anything convertible to a ``float64`` numpy array.
    requires_grad:
        If True, ``backward()`` accumulates a gradient into ``self.grad``.
    parents / backward_fns / op_name:
        Tape metadata; filled in by operations, not by callers.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fns", "_op_name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: Sequence["Tensor"] = (),
        backward_fns: Sequence[Callable[[np.ndarray], np.ndarray | None]] = (),
        op_name: str = "leaf",
    ):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = tuple(parents)
        self._backward_fns = tuple(backward_fns)
        self._op_name = op_name
        if len(self._parents) != len(self._backward_fns):
            raise ValueError("parents and backward_fns must have equal length")

    # ------------------------------------------------------------------ #
    # Introspection                                                      #
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        """Return the value of a scalar (or size-1) tensor as a float."""
        if self.data.size != 1:
            raise TypeError(
                f"item() requires a size-1 tensor, got shape {self.shape}"
            )
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, do not mutate)."""
        return self.data

    def detach(self) -> "Tensor":
        """A constant tensor sharing this tensor's data, cut from the tape."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self._op_name!r}{grad_flag})"

    # ------------------------------------------------------------------ #
    # Backward pass                                                      #
    # ------------------------------------------------------------------ #
    def backward(self, grad: np.ndarray | float | None = None) -> None:
        """Backpropagate from this tensor through the recorded tape.

        The pass consumes the tape: once a node's cotangent has been
        propagated, the node drops its parents and backward closures, and
        with them every residual those closures hold (FDFD fields, LU
        solvers).  A later ``backward()`` that reaches a consumed node
        raises :class:`RuntimeError` before accumulating any gradient;
        rebuild the graph from its leaves to differentiate again.

        Parameters
        ----------
        grad:
            Cotangent seed.  Defaults to 1 for scalar tensors; required for
            non-scalars.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient is only valid "
                    f"for scalar tensors; this tensor has shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.broadcast_to(_as_array(grad), self.data.shape).astype(np.float64)

        order = self._toposort()
        for node in order:
            if node._consumed:
                raise RuntimeError(
                    f"backward() reached a {node._op_name!r} node whose tape "
                    "an earlier backward() already consumed; rebuild the "
                    "graph from its leaves to differentiate again"
                )
        grads: dict[int, np.ndarray] = {id(self): np.array(grad, copy=True)}
        for node in order:
            node_grad = grads.pop(id(node), None)
            if node_grad is not None:
                if node.requires_grad and not node._parents:
                    if node.grad is None:
                        node.grad = np.zeros_like(node.data)
                    node.grad = node.grad + node_grad
                for parent, fn in zip(node._parents, node._backward_fns):
                    if not parent._needs_grad():
                        continue
                    contribution = fn(node_grad)
                    if contribution is None:
                        continue
                    contribution = _unbroadcast(
                        np.asarray(contribution, dtype=np.float64), parent.shape
                    )
                    key = id(parent)
                    if key in grads:
                        grads[key] = grads[key] + contribution
                    else:
                        grads[key] = contribution
            if node._parents:
                # Free the closures (and their residuals) now, not when
                # the caller drops the root; ``None`` marks the node.
                node._parents = ()
                node._backward_fns = None

    @property
    def _consumed(self) -> bool:
        """Whether a backward pass already freed this node's tape."""
        return self._backward_fns is None

    def _needs_grad(self) -> bool:
        # A consumed node stays on the tape so that differentiating
        # through it again raises instead of treating it as a constant.
        return self.requires_grad or bool(self._parents) or self._consumed

    def _toposort(self) -> list["Tensor"]:
        """Reverse topological order starting at ``self``."""
        visited: set[int] = set()
        order: list[Tensor] = []
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        order.reverse()
        return order

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------ #
    # Operator sugar (implementations live in repro.autodiff.ops)        #
    # ------------------------------------------------------------------ #
    def __add__(self, other):
        from repro.autodiff import ops

        return ops.add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        from repro.autodiff import ops

        return ops.mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        from repro.autodiff import ops

        return ops.sub(self, other)

    def __rsub__(self, other):
        from repro.autodiff import ops

        return ops.sub(other, self)

    def __truediv__(self, other):
        from repro.autodiff import ops

        return ops.div(self, other)

    def __rtruediv__(self, other):
        from repro.autodiff import ops

        return ops.div(other, self)

    def __neg__(self):
        from repro.autodiff import ops

        return ops.neg(self)

    def __pow__(self, exponent):
        from repro.autodiff import ops

        return ops.power(self, exponent)

    def __getitem__(self, index):
        from repro.autodiff import ops

        return ops.getitem(self, index)

    def sum(self, axis=None, keepdims: bool = False):
        from repro.autodiff import functional

        return functional.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        from repro.autodiff import functional

        return functional.mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        from repro.autodiff import functional

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return functional.reshape(self, shape)

    # Comparisons return plain boolean arrays (no gradient flows).
    def __gt__(self, other):
        other_data = other.data if isinstance(other, Tensor) else other
        return self.data > other_data

    def __lt__(self, other):
        other_data = other.data if isinstance(other, Tensor) else other
        return self.data < other_data

    def __ge__(self, other):
        other_data = other.data if isinstance(other, Tensor) else other
        return self.data >= other_data

    def __le__(self, other):
        other_data = other.data if isinstance(other, Tensor) else other
        return self.data <= other_data


def tensor(data, requires_grad: bool = False) -> Tensor:
    """Create a leaf :class:`Tensor` (convenience constructor)."""
    if isinstance(data, Tensor):
        return Tensor(data.data, requires_grad=requires_grad)
    return Tensor(data, requires_grad=requires_grad)


def make_op(
    out_data: np.ndarray,
    parents: Iterable[Tensor],
    backward_fns: Iterable[Callable[[np.ndarray], np.ndarray | None]],
    op_name: str,
) -> Tensor:
    """Build an op result tensor, honouring the global no-grad switch.

    Only parents participating in differentiation (leaves with
    ``requires_grad`` or interior nodes) are recorded; if none qualify or
    recording is disabled the result is a constant.
    """
    parents = tuple(parents)
    backward_fns = tuple(backward_fns)
    if not _GRAD_ENABLED or not any(p._needs_grad() for p in parents):
        return Tensor(out_data)
    return Tensor(
        out_data,
        parents=parents,
        backward_fns=backward_fns,
        op_name=op_name,
    )
