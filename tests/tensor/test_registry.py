"""Tests for the primitive registry: one (name, forward, vjp) per op."""

import numpy as np
import pytest

from repro.tensor import Tensor
from repro.tensor.autograd import Tensor as AutogradTensor
from repro.tensor.primitives import MUL, REGISTRY, Primitive, register


def test_primitive_carries_only_name_forward_and_vjp():
    assert Primitive.__slots__ == ("name", "forward", "vjp")
    assert all(REGISTRY[name].name == name for name in REGISTRY)
    assert "_lazy" not in AutogradTensor.__slots__


def test_register_rejects_duplicate_name():
    with pytest.raises(ValueError, match="duplicate primitive 'mul'"):
        register("mul", np.multiply, None)
    assert REGISTRY["mul"] is MUL


def test_forward_and_vjp_are_reassignable_in_place():
    """Wrapping a registered op's callables reroutes every dispatch of it."""
    calls = []
    forward, vjp = MUL.forward, MUL.vjp

    def traced_forward(*args, **kwargs):
        calls.append("forward")
        return forward(*args, **kwargs)

    def traced_vjp(*args, **kwargs):
        calls.append("vjp")
        return vjp(*args, **kwargs)

    MUL.forward, MUL.vjp = traced_forward, traced_vjp
    try:
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (a * 3.0).sum().backward()
    finally:
        MUL.forward, MUL.vjp = forward, vjp
    assert calls == ["forward", "vjp"]
    assert np.array_equal(a.grad, [3.0, 3.0])
