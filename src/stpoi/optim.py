"""First-order training machinery: Adam with bias correction, the
non-positivity projection that keeps constrained gate weights valid,
global-norm gradient clipping, and a central-difference gradient checker.

Adam and the clip scaling update ``CellParams`` (parameters, gradients and
moments in one layout) in place through their ``flat`` buffers; the other
functions work by name on any name -> ndarray mapping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cells import CellParams

# floats of ``flat`` per slice of the Adam update
ADAM_SLICE = 1 << 15


@dataclass
class AdamState:
    """First/second moment accumulators in the parameters' layout, and the step."""

    m: CellParams
    v: CellParams
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0

    @classmethod
    def for_tensors(cls, tensors: CellParams, **hyper) -> "AdamState":
        """Zero moments for ``tensors``; ``hyper`` sets lr, beta1, beta2, eps."""
        return cls(tensors.zeros_like(), tensors.zeros_like(), **hyper)


def adam_step(tensors: CellParams, grads: CellParams, state: AdamState) -> AdamState:
    """One Adam update, in place, over the whole ``flat`` buffer.  Requires
    ``grads`` and the moments in the layout of ``tensors``.

    The update runs over consecutive ``ADAM_SLICE``-float slices of ``flat``,
    so its temporaries stay small and in cache; each element sees the same
    operations in the same order as in one pass, so the bits are those of
    one pass.
    """
    for other in (grads, state.m, state.v):
        if other.layout != tensors.layout:
            error = KeyError if set(tensors) - set(other) else ValueError
            raise error(f"adam_step: layout {other.layout} is not {tensors.layout}")
    state.t += 1
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    for s in range(0, tensors.flat.size, ADAM_SLICE):
        part = slice(s, s + ADAM_SLICE)
        p, g = tensors.flat[part], grads.flat[part]
        m, v = state.m.flat[part], state.v.flat[part]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        denom = np.sqrt(v / bc2) + state.eps
        p -= state.lr * (m / bc1) / denom
    return state


def project(tensors: dict, constrained) -> None:
    """Clamp every entry of the named tensors to <= 0, in place.

    Runs right after each optimizer step so constrained interval weights can
    never spend a forward pass on the wrong side of zero.
    """
    for name in constrained:
        if name not in tensors:
            raise KeyError(f"project: no tensor named {name!r}")
        np.minimum(tensors[name], 0.0, out=tensors[name])


def clip_global_norm(grads: CellParams, max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm.

    Returns the pre-clip norm, summed tensor by tensor in the mapping's
    order.  ``max_norm <= 0`` disables clipping; a norm that is not finite
    leaves the gradients as they are, for the caller to reject.
    """
    sq = 0.0
    for g in grads.values():
        sq += float(np.sum(g * g))
    norm = float(np.sqrt(sq))
    if max_norm > 0 and max_norm < norm < np.inf:
        grads.flat *= max_norm / norm
    return norm


@dataclass
class FdReport:
    passed: bool
    max_rel_err: float
    worst: str            # "tensor[flat_index]" of the worst coordinate
    n_checked: int

    def __str__(self):
        verdict = "ok" if self.passed else "FAIL"
        return (
            f"gradient check {verdict}: max rel err {self.max_rel_err:.3e} "
            f"at {self.worst} over {self.n_checked} coordinates"
        )


def fd_check(loss_fn, tensors: dict, analytic: dict, eps: float = 1e-5,
             tol: float = 1e-4, floor: float = 1e-3) -> FdReport:
    """Compare analytic gradients against central finite differences.

    ``loss_fn()`` must return the scalar loss computed from the live
    ``tensors``, which are perturbed one coordinate at a time and restored.
    The error metric is |a - n| / max(|a|, |n|, floor): relative where the
    gradient has real magnitude, absolute below ``floor`` so that
    differencing noise on near-zero coordinates cannot fail the check.
    """
    worst = ("", 0.0)
    checked = 0
    for name, arr in tensors.items():
        if name not in analytic:
            raise KeyError(f"fd_check: no analytic gradient for {name!r}")
        flat = arr.reshape(-1)
        a_flat = np.asarray(analytic[name]).reshape(-1)
        if a_flat.shape != flat.shape:
            raise ValueError(f"fd_check: gradient shape mismatch for {name!r}")
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            up = loss_fn()
            flat[j] = orig - eps
            down = loss_fn()
            flat[j] = orig
            numeric = (up - down) / (2.0 * eps)
            err = abs(a_flat[j] - numeric) / max(abs(a_flat[j]), abs(numeric), floor)
            if err > worst[1]:
                worst = (f"{name}[{j}]", err)
            checked += 1
    return FdReport(
        passed=worst[1] <= tol, max_rel_err=worst[1], worst=worst[0] or "n/a",
        n_checked=checked,
    )
