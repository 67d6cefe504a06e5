"""Shared test utilities: numerical gradient checking, tiny fixtures, the
gate/stub pair the serving-scheduler tests are built on, and the two
handles on the last encoder block's pruning gate."""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

from repro.core.annotator import AnnotatedTable
from repro.nn import Tensor
from repro.serving import AnnotationOptions, AnnotationRequest, AnnotationResult
from repro.serving.diskcache import request_identity


def numerical_gradient(
    fn: Callable[[np.ndarray], float],
    x: np.ndarray,
    eps: float = 1e-3,
) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        f_plus = fn(x)
        flat[i] = original - eps
        f_minus = fn(x)
        flat[i] = original
        grad_flat[i] = (f_plus - f_minus) / (2 * eps)
    return grad


def gradcheck(
    op: Callable[[Tensor], Tensor],
    x_data: np.ndarray,
    atol: float = 2e-2,
    rtol: float = 2e-2,
) -> None:
    """Assert that autograd gradients of ``sum(op(x))`` match finite differences."""
    x_data = np.asarray(x_data, dtype=np.float64).astype(np.float32)

    def scalar_fn(arr: np.ndarray) -> float:
        t = Tensor(arr.astype(np.float32))
        return float(op(t).sum().data)

    x = Tensor(x_data.copy(), requires_grad=True)
    out = op(x).sum()
    out.backward()
    analytic = x.grad.astype(np.float64)
    numeric = numerical_gradient(scalar_fn, x_data.astype(np.float64).copy())
    np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=rtol)


def decide_pruning_now(session) -> None:
    """Skip the deferral of the last block's pruning proofs: the session's
    next prunable pass proves whatever verdict is missing."""
    from repro.nn.kernels import proof_rows

    session._banked_rows = proof_rows(session.max_position)


def pruning_proven(proofs) -> bool:
    """Did this host's BLAS pass every pruning proof this cache has seen —
    row stability and, behind it, query stability?"""
    from repro.nn.kernels import QUERY_STABLE, ROW_STABLE

    verdicts = {
        key: ok
        for key, ok in proofs.verdicts.items()
        if ROW_STABLE in key or QUERY_STABLE in key
    }
    return all(verdicts.values()) and any(QUERY_STABLE in key for key in verdicts)


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


class EngineGate:
    """Hold an engine's ``annotate_batch`` shut until :meth:`open`.

    Scheduling tests use it to pile requests up behind a drain that is
    provably running — no sleeps and no linger, so timing cannot matter.
    ``drains`` records the ``table_id``s of every engine call, in order.
    Once opened the gate stays open.
    """

    TIMEOUT = 30.0

    def __init__(self, engine) -> None:
        self.drains = []
        self._entered = threading.Semaphore(0)
        self._open = threading.Event()
        inner = engine.annotate_batch

        def gated(requests, *args, **kwargs):
            self.drains.append([r.table.table_id for r in requests])
            self._entered.release()
            assert self._open.wait(self.TIMEOUT), "gate never opened"
            return inner(requests, *args, **kwargs)

        engine.annotate_batch = gated

    def wait_entered(self) -> None:
        """Return once one more engine call has started."""
        assert self._entered.acquire(timeout=self.TIMEOUT), "no drain started"

    def open(self) -> None:
        self._open.set()


class StubEngine:
    """The slice of ``AnnotationEngine`` an ``EngineWorker`` touches, with
    no model behind it: requests hash like real ones and every table
    "annotates" to a constant, except ``poison`` table ids, which raise."""

    model_fingerprint = "stub-model"
    result_cache = None

    def __init__(self, poison=()) -> None:
        self.poison = set(poison)

    def _as_request(self, item, options=None):
        if isinstance(item, AnnotationRequest):
            return item
        return AnnotationRequest(table=item, options=options or AnnotationOptions())

    def identify(self, request, known=None):
        return known or request_identity(self.model_fingerprint, request)

    def annotate_batch(self, requests, options=None, identities=None):
        for request in requests:
            if request.table.table_id in self.poison:
                raise ValueError(f"poisoned: {request.table.table_id}")
        return [
            AnnotationResult(
                request=request,
                annotated=AnnotatedTable(
                    table=request.table,
                    coltypes=[["stub"]] * request.table.num_columns,
                ),
            )
            for request in requests
        ]
