"""A small reverse-mode automatic differentiation engine on NumPy.

The paper's architecture (BiLSTM-C content encoder, fully-connected HisRect
combiner, embedding layers, POI classifier and co-location judge) is built in
this package from scratch since no deep-learning framework is available
offline.  :class:`Tensor` wraps a ``numpy.ndarray`` and records the operations
applied to it; ``Tensor.backward()`` runs reverse-mode differentiation over the
recorded graph.

Only the operations the HisRect models need are implemented, but each supports
full NumPy broadcasting where it makes sense, and every op is covered by
gradient-check tests in ``tests/nn``.

Serving needs no gradients.  Inside :func:`inference_mode` (a thread-local
``torch.no_grad``/``inference_mode`` analogue) ops record no parents and no
backward closures, so no reference cycles reach the garbage collector, and the
serving entry points (``ContentEncoder.encode_batch``, ``MLP.forward``) hand
plain arrays to their layers (see :func:`is_inference_mode`).  Another thread
training at the same time is unaffected.

**One definition per layer.**  The free functions :func:`sigmoid`,
:func:`tanh`, :func:`relu`, :func:`exp`, :func:`stack` and
:func:`concatenate`, plus :func:`read` (a :class:`Parameter` as the kind of
the input) and :func:`lift` (a constant as the kind of the input), accept
either a :class:`Tensor` or an ``ndarray`` and dispatch on its type.  A
layer written over them, with a ``Tensor`` as the left operand of every
mixed arithmetic op, runs the same NumPy ops in the same order on both
kinds: ``Tensor``s record the graph training needs, arrays skip the
interpreter entirely, and the two outputs are bit-identical by construction.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

Array = np.ndarray


class _InferenceState(threading.local):
    active = False


_inference = _InferenceState()


@contextmanager
def inference_mode() -> Iterator[None]:
    """Run the block without autograd bookkeeping, on this thread only.

    Tensors made inside never require grad, ``backward()`` raises, dropout is
    skipped, and the serving entry points (``ContentEncoder.encode_batch``,
    ``MLP.forward``) run their layers on plain arrays.  Nests; the previous
    state is restored on exit.
    """
    previous = _inference.active
    _inference.active = True
    try:
        yield
    finally:
        _inference.active = previous


def is_inference_mode() -> bool:
    """True inside :func:`inference_mode` on the calling thread."""
    return _inference.active


def _as_array(value) -> Array:
    if isinstance(value, np.ndarray):
        return value.astype(np.float64, copy=False)
    return np.asarray(value, dtype=np.float64)


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``grad`` down to ``shape`` — the adjoint of NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class _Scatter:
    """The gradient of an indexing op: ``values`` at ``index`` of a zero array.

    The backward pass adds it into its accumulated full-size gradient in
    place, so reading ``T`` slices of one tensor (a recurrence reading its
    hoisted input projection step by step) costs ``O(slice)`` each, not a
    zero-filled full-size array plus a full-size add per slice.
    """

    __slots__ = ("index", "values", "basic")

    def __init__(self, index, values: Array):
        self.index = index
        self.values = values
        parts = index if isinstance(index, tuple) else (index,)
        # Ints and slices cannot repeat a position, so a plain ``+=`` is
        # exact; array indices may, and go through ``np.add.at``.
        self.basic = all(
            part is None
            or part is Ellipsis
            or isinstance(part, slice)
            or (isinstance(part, (int, np.integer)) and not isinstance(part, bool))
            for part in parts
        )

    def add_into(self, target: Array) -> None:
        if self.basic:
            target[self.index] += self.values
        else:
            np.add.at(target, self.index, self.values)


class Tensor:
    """A node in the autodiff graph.

    Parameters
    ----------
    data:
        Anything convertible to a float64 ``numpy.ndarray``.
    requires_grad:
        Whether gradients should flow into this tensor.  Parameters and any
        tensor produced from a gradient-requiring tensor have this set.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "name")

    #: Opt out of NumPy's ufunc dispatch: with an ndarray on the left
    #: (``np.ones(2) * t``) NumPy then returns ``NotImplemented`` and Python
    #: calls the reflected ``Tensor`` operator, instead of NumPy building an
    #: object array of per-element Tensors cut off from the graph.
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data: Array = _as_array(data)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[Array], tuple[Array, ...]] | None = None
        self.name = name

    # ------------------------------------------------------------------ util
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> Array:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a scalar tensor as a Python float."""
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        grad_tag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{grad_tag}, name={self.name!r})"

    # -------------------------------------------------------------- graph ops
    @staticmethod
    def _make(
        data: Array,
        parents: Sequence["Tensor"],
        backward_fn: Callable[[Array], tuple[Array, ...]],
    ) -> "Tensor":
        requires = not _inference.active and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward_fn = backward_fn
        return out

    def backward(self, grad: Array | None = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        ``grad`` defaults to 1.0 and is only optional for scalar outputs.
        Raises inside :func:`inference_mode`, which records no graph.
        """
        if _inference.active:
            raise RuntimeError("backward() called inside inference_mode(); no graph was recorded")
        if not self.requires_grad:
            raise ValueError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise ValueError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = _as_array(grad)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, Array] = {id(self): grad}
        # Gradients this pass allocated itself, so safe to add into in place.
        owned: set[int] = set()
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward_fn is None:
                # Only leaves keep a gradient; intermediates just pass theirs on.
                node.grad = node_grad.copy() if node.grad is None else node.grad + node_grad
                continue
            parent_grads = node._backward_fn(node_grad)
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if isinstance(pgrad, _Scatter):
                    if key not in owned:
                        base = grads.get(key)
                        grads[key] = np.zeros_like(parent.data) if base is None else base.copy()
                        owned.add(key)
                    pgrad.add_into(grads[key])
                elif key in grads:
                    grads[key] = grads[key] + pgrad
                    owned.add(key)
                else:
                    grads[key] = pgrad

    # ------------------------------------------------------------ arithmetic
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        data = self.data + other.data

        def backward(g: Array):
            return (_unbroadcast(g, self.data.shape), _unbroadcast(g, other.data.shape))

        return Tensor._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g: Array):
            return (-g,)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        data = self.data * other.data

        def backward(g: Array):
            return (
                _unbroadcast(g * other.data, self.data.shape),
                _unbroadcast(g * self.data, other.data.shape),
            )

        return Tensor._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        data = self.data / other.data

        def backward(g: Array):
            return (
                _unbroadcast(g / other.data, self.data.shape),
                _unbroadcast(-g * self.data / (other.data**2), other.data.shape),
            )

        return Tensor._make(data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        data = self.data**exponent

        def backward(g: Array):
            return (g * exponent * self.data ** (exponent - 1),)

        return Tensor._make(data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        data = self.data @ other.data

        def backward(g: Array):
            grad_a = g @ np.swapaxes(other.data, -1, -2)
            grad_b = np.swapaxes(self.data, -1, -2) @ g
            return (
                _unbroadcast(grad_a, self.data.shape),
                _unbroadcast(grad_b, other.data.shape),
            )

        return Tensor._make(data, (self, other), backward)

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(g: Array):
            return (_Scatter(index, g),)

        return Tensor._make(data, (self,), backward)

    # ----------------------------------------------------------- elementwise
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(g: Array):
            return (g * data,)

        return Tensor._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(g: Array):
            return (g / self.data,)

        return Tensor._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(g: Array):
            return (g * (1.0 - data**2),)

        return Tensor._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = sigmoid(self.data)

        def backward(g: Array):
            return (g * data * (1.0 - data),)

        return Tensor._make(data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = self.data * mask

        def backward(g: Array):
            return (g * mask,)

        return Tensor._make(data, (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        data = np.abs(self.data)

        def backward(g: Array):
            return (g * sign,)

        return Tensor._make(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    # ------------------------------------------------------------ reductions
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: Array):
            if axis is None:
                return (np.broadcast_to(g, self.data.shape).copy(),)
            g_expanded = g
            if not keepdims:
                g_expanded = np.expand_dims(g, axis=axis)
            return (np.broadcast_to(g_expanded, self.data.shape).copy(),)

        return Tensor._make(data, (self,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g: Array):
            if axis is None:
                mask = (self.data == self.data.max()).astype(np.float64)
                mask /= mask.sum()
                return (mask * g,)
            expanded = data if keepdims else np.expand_dims(data, axis=axis)
            mask = (self.data == expanded).astype(np.float64)
            mask /= mask.sum(axis=axis, keepdims=True)
            g_expanded = g if keepdims else np.expand_dims(g, axis=axis)
            return (mask * g_expanded,)

        return Tensor._make(data, (self,), backward)

    # --------------------------------------------------------------- reshape
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)

        def backward(g: Array):
            return (g.reshape(self.data.shape),)

        return Tensor._make(data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        axes_tuple = axes if axes else tuple(reversed(range(self.data.ndim)))
        data = self.data.transpose(axes_tuple)
        inverse = np.argsort(axes_tuple)

        def backward(g: Array):
            return (g.transpose(inverse),)

        return Tensor._make(data, (self,), backward)


def sigmoid(x):
    """Logistic sigmoid of a :class:`Tensor` or an ``ndarray``, same kind out."""
    if isinstance(x, Tensor):
        return x.sigmoid()
    return 1.0 / (1.0 + np.exp(-x))


def tanh(x):
    """Hyperbolic tangent of a :class:`Tensor` or an ``ndarray``, same kind out."""
    return x.tanh() if isinstance(x, Tensor) else np.tanh(x)


def relu(x):
    """Rectifier of a :class:`Tensor` or an ``ndarray``, same kind out."""
    return x.relu() if isinstance(x, Tensor) else x * (x > 0)


def exp(x):
    """Exponential of a :class:`Tensor` or an ``ndarray``, same kind out."""
    return x.exp() if isinstance(x, Tensor) else np.exp(x)


def read(param: Tensor, like):
    """A parameter as the kind of ``like``.

    The parameter itself when ``like`` is a :class:`Tensor` (so gradients
    reach it), else its array, read at call time so a reload or an optimiser
    step is seen at once.
    """
    return param if isinstance(like, Tensor) else param.data


def lift(value: Array, like):
    """A constant array as the kind of ``like``: wrapped when ``like`` is a :class:`Tensor`."""
    return Tensor(value) if isinstance(like, Tensor) else value


def as_tensor(value) -> Tensor:
    """Coerce NumPy arrays and Python scalars into (non-grad) tensors."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def concatenate(tensors: Sequence, axis: int = -1):
    """Concatenate along an axis: differentiably if any input is a :class:`Tensor`."""
    if not any(isinstance(t, Tensor) for t in tensors):
        return np.concatenate(tensors, axis=axis)
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g: Array):
        grads = []
        for i in range(len(tensors)):
            slicer = [slice(None)] * g.ndim
            slicer[axis] = slice(int(offsets[i]), int(offsets[i + 1]))
            grads.append(g[tuple(slicer)])
        return tuple(grads)

    return Tensor._make(data, tensors, backward)


def stack(tensors: Sequence, axis: int = 0):
    """Stack along a new axis: differentiably if any input is a :class:`Tensor`."""
    if not any(isinstance(t, Tensor) for t in tensors):
        # ``np.stack``'s result (same values, C order) in half its time on the
        # few tiny per-step arrays the recurrent and conv layers stack.
        joined = np.array(tensors)
        axes = list(range(1, joined.ndim))
        axes.insert(axis % joined.ndim, 0)
        return np.ascontiguousarray(joined.transpose(axes))
    tensors = [as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g: Array):
        return tuple(np.take(g, i, axis=axis) for i in range(len(tensors)))

    return Tensor._make(data, tensors, backward)


def zeros(shape: tuple[int, ...] | int, requires_grad: bool = False) -> Tensor:
    """A tensor of zeros."""
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def no_grad_params(tensors: Iterable[Tensor]) -> None:
    """Clear gradients on an iterable of tensors."""
    for tensor in tensors:
        tensor.zero_grad()
