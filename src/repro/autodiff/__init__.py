"""Minimal reverse-mode automatic differentiation over real numpy arrays.

The BOSON-1 optimization chain

    theta -> pattern -> lithography -> etching -> permittivity -> FoM

is differentiated end to end.  The electromagnetic piece (FDFD solve +
monitors) is registered as a *custom op* whose vector-Jacobian product runs
one adjoint simulation; everything else (level-set projection, convolution
kernels, penalty algebra, Eq. 2/3 blending) is ordinary array math handled
here.

Design notes
------------
* Values are real ``numpy.float64`` arrays.  Complex arithmetic stays inside
  custom ops (lithography kernels, FDFD fields) which expose real-in /
  real-out interfaces with hand-derived VJPs.
* The graph is a dynamic tape (define-by-run): each :class:`Tensor` records
  its parents and a backward closure; ``Tensor.backward()`` walks the tape
  in reverse topological order.
* ``backward()`` consumes the tape: each node drops its closures, and the
  residuals they hold (fields, LU solvers), as soon as its cotangent has
  been propagated.  A second ``backward()`` through a consumed node
  raises :class:`RuntimeError`; rebuild the graph from the leaves to
  differentiate again.
* Broadcasting follows numpy semantics; gradients are un-broadcast by
  summation, as in autograd/JAX.

Public surface
--------------
:class:`Tensor`, :func:`tensor`, :func:`custom_vjp` and the functional
namespace :mod:`repro.autodiff.functional` (also re-exported here).
"""

from repro.autodiff.tensor import Tensor, tensor, no_grad, is_grad_enabled
from repro.autodiff.ops import custom_vjp
from repro.autodiff import functional
from repro.autodiff.functional import (
    abs as abs_,
    clip,
    concatenate,
    exp,
    log,
    maximum,
    mean,
    minimum,
    pad_constant,
    relu,
    reshape,
    sigmoid,
    softplus,
    sqrt,
    stack,
    sum as sum_,
    tanh,
    upsample_bilinear,
    where,
)

__all__ = [
    "Tensor",
    "tensor",
    "no_grad",
    "is_grad_enabled",
    "custom_vjp",
    "functional",
    "abs_",
    "clip",
    "concatenate",
    "exp",
    "log",
    "maximum",
    "mean",
    "minimum",
    "pad_constant",
    "relu",
    "reshape",
    "sigmoid",
    "softplus",
    "sqrt",
    "stack",
    "sum_",
    "tanh",
    "upsample_bilinear",
    "where",
]
