"""Gated recurrent cells for check-in sequences.

Three variants share one parameter layout (``CellParams``):

``lstm``
    The plain cell.  With z = [h_prev, x]:

        i = sigmoid(w_i z + b_i)        f = sigmoid(w_f z + b_f)
        g = tanh(w_c z + b_c)           o = sigmoid(w_o z + b_o)
        c = f * c_prev + i * g          h = o * tanh(c)

``st-lstm``
    Adds four interval gates driven by the elapsed time dt (hours) and
    travelled distance dd (km) of the incoming transition.  Each gate is

        gate = sigmoid(w_x x + sigmoid(u * w_u) + b)

    with u the scalar interval and w_u a length-n_c weight vector (the inner
    sigmoid is applied to the scalar-times-vector product).  Gates t1/d1
    filter the candidate on a short-term path that only feeds the output;
    t2/d2 filter what enters the recurrent carry:

        c_hat = f * c_prev + i * t1 * d1 * g     (feeds h only)
        c     = f * c_prev + i * t2 * d2 * g     (carried to the next step)
        o     = sigmoid(w_o z + dt * w_to + dd * w_do + b_o)
        h     = o * tanh(c_hat)

``st-clstm``
    The coupled variant: the forget gate is removed and the input gate's
    complement takes its place, so the cell has no w_f/b_f tensors at all:

        c_hat = (1 - i*t1*d1) * c_prev + i*t1*d1 * g
        c     = (1 - i)       * c_prev + i * t2*d2 * g

All three are one update with write gates w1, w2 and keep gates k1, k2:

    c_hat = k1 * c_prev + w1 * g        c = k2 * c_prev + w2 * g

w1 = w2 = i without interval gates (lstm, where c is c_hat), w1 = i*t1*d1
and w2 = i*t2*d2 with them; k1 = k2 = f with a forget gate, k1 = 1 - w1 and
k2 = 1 - i without one (st-clstm).

Keeping t1/d1 monotonically non-increasing in the interval requires their
interval weight vectors to stay non-positive; the optimizer's projection
step maintains that (see optim.project and constrained_names below).

One forward (``cell_forward``) and one backward (``cell_backward``) serve
all three variants.  Both work on row batches: x is (B, n_i), dt/dd are
(B,) and states, caches and gradients are (B, n_c).  A 1-D x or state and
scalar dt/dd are read as a batch of one; lstm ignores dt/dd.  Batch rows
are independent sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import numkit

VARIANTS = ("lstm", "st-lstm", "st-clstm")

# ablation presets: which interval gates get pinned to the all-ones vector
_ABLATION_PRESETS = {
    "none": (),
    "time-only": ("d1", "d2"),
    "distance-only": ("t1", "t2"),
    "short-only": ("t2", "d2"),
    "long-only": ("t1", "d1"),
}


@dataclass
class GateAblation:
    """Switches that pin individual interval gates to ones.

    A pinned gate is the constant ones vector in the forward pass and its
    parameters receive exactly zero gradient in the backward pass.
    """

    fix_t1: bool = False
    fix_t2: bool = False
    fix_d1: bool = False
    fix_d2: bool = False

    @classmethod
    def from_name(cls, name: str) -> "GateAblation":
        if name not in _ABLATION_PRESETS:
            raise ValueError(
                f"unknown ablation {name!r}; expected one of {sorted(_ABLATION_PRESETS)}"
            )
        fixed = _ABLATION_PRESETS[name]
        return cls(**{f"fix_{g}": g in fixed for g in ("t1", "t2", "d1", "d2")})

    def to_dict(self) -> dict:
        return {
            "fix_t1": self.fix_t1,
            "fix_t2": self.fix_t2,
            "fix_d1": self.fix_d1,
            "fix_d2": self.fix_d2,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GateAblation":
        return cls(**d)


@dataclass
class StepInput:
    """One transition: embedded POI vector plus the interval to the next visit."""

    x: np.ndarray
    dt: float | np.ndarray = 0.0
    dd: float | np.ndarray = 0.0


@dataclass
class CellState:
    """Recurrent state.  c is the carry; c_hat is the per-step short-term
    memory that only feeds h and is not consumed by the next step."""

    c: np.ndarray
    h: np.ndarray
    c_hat: np.ndarray


class CellParams(dict):
    """One variant's tensors as an ordered name -> array mapping.

    Construction checks the names and shapes against ``_tensor_shapes`` and
    stores the tensors in that order, which fixes the iteration order of the
    optimizer and the clipping norm and the checkpoint layout.  Tensors also
    read as attributes (``p.w_i``).
    """

    def __init__(self, variant: str, tensors: dict):
        w_i = tensors.get("w_i")
        if w_i is None or np.ndim(w_i) != 2 or w_i.shape[1] <= w_i.shape[0]:
            raise ValueError(f"{variant} params: w_i must be an (n_c, n_c + n_i) matrix")
        n_c = w_i.shape[0]
        shapes = _tensor_shapes(variant, w_i.shape[1] - n_c, n_c)
        check_shapes(tensors, shapes, f"{variant} params")
        super().__init__((name, tensors[name]) for name in shapes)
        self.variant = variant

    def __getattr__(self, name):
        try:
            return self[name]
        except KeyError:
            raise AttributeError(name) from None

    @property
    def n_c(self) -> int:
        return self["w_i"].shape[0]

    @property
    def n_i(self) -> int:
        return self["w_i"].shape[1] - self["w_i"].shape[0]


def LstmParams(**tensors) -> CellParams:
    """The plain cell's eight tensors as CellParams."""
    return CellParams("lstm", tensors)


def check_shapes(tensors: dict, shapes: dict, who: str) -> None:
    """Raise ValueError unless ``tensors`` holds exactly the names of
    ``shapes`` (name -> shape), each with its shape."""
    missing = [name for name in shapes if name not in tensors]
    if missing:
        raise ValueError(f"{who}: missing tensors {', '.join(missing)}")
    extra = [name for name in tensors if name not in shapes]
    if extra:
        raise ValueError(f"{who}: unexpected tensors {', '.join(extra)}")
    for name, shape in shapes.items():
        if np.shape(tensors[name]) != shape:
            raise ValueError(f"{who}: tensor {name} has shape "
                             f"{np.shape(tensors[name])}, expected {shape}")


@dataclass
class StepCache:
    """Everything the backward pass needs from one forward step."""

    variant: str
    x: np.ndarray
    dt: Optional[np.ndarray]    # None for lstm, which reads no intervals
    dd: Optional[np.ndarray]
    z: np.ndarray
    i: np.ndarray
    g: np.ndarray
    o: np.ndarray
    c_prev: np.ndarray
    w1: np.ndarray              # write and keep gates of c_hat and c
    w2: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    tanh_c_hat: np.ndarray
    f: Optional[np.ndarray] = None      # None for st-clstm, which has no forget gate
    gates: dict = field(default_factory=dict)   # name -> (value, inner or None if pinned)


def _tensor_shapes(variant: str, n_i: int, n_c: int) -> dict:
    """Ordered name -> shape map of every tensor the variant owns."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    zw = (n_c, n_c + n_i)
    shapes = {"w_i": zw, "b_i": (n_c,)}
    if variant != "st-clstm":
        shapes.update({"w_f": zw, "b_f": (n_c,)})
    shapes.update({"w_c": zw, "b_c": (n_c,), "w_o": zw, "b_o": (n_c,)})
    if variant != "lstm":
        for gate, _ in _GATE_SPECS:
            shapes.update({
                f"w_x{gate}": (n_c, n_i),
                f"w_{gate}": (n_c,),
                f"b_{gate}": (n_c,),
            })
        shapes.update({"w_to": (n_c,), "w_do": (n_c,)})
    return shapes


# gate name -> which interval drives it ("dt" or "dd")
_GATE_SPECS = (("t1", "dt"), ("t2", "dt"), ("d1", "dd"), ("d2", "dd"))


def constrained_names(variant: str, constraint_target: str = "interval"):
    """Tensor names whose entries must stay <= 0 for gate monotonicity.

    ``interval`` constrains the interval weight vectors of the short-term
    gates (the default, and the choice that actually makes t1/d1
    non-increasing in dt/dd).  ``input`` additionally constrains their
    input matrices.
    """
    if variant == "lstm":
        return ()
    if constraint_target == "interval":
        return ("w_t1", "w_d1")
    if constraint_target == "input":
        return ("w_t1", "w_d1", "w_xt1", "w_xd1")
    raise ValueError(
        f"unknown constraint_target {constraint_target!r}; expected 'interval' or 'input'"
    )


def init_params(variant, n_i, n_c, rng, constraint_target="interval"):
    """Draw fresh parameters: weights ~ U(-1/sqrt(n_c), 1/sqrt(n_c)),
    biases zero, constrained tensors clamped to <= 0 after the draw."""
    scale = 1.0 / math.sqrt(n_c)
    arrays = {}
    for name, shape in _tensor_shapes(variant, n_i, n_c).items():
        if name.startswith("b_"):
            arrays[name] = np.zeros(shape)
        else:
            arrays[name] = rng.uniform(-scale, scale, size=shape)
    for name in constrained_names(variant, constraint_target):
        np.minimum(arrays[name], 0.0, out=arrays[name])
    return CellParams(variant, arrays)


def count_params(variant: str, n_i: int, n_c: int, n_o: int = 0) -> int:
    """Exact scalar parameter count by enumerating the variant's tensors.

    ``n_o > 0`` adds a dense softmax readout (n_o x n_c weight plus n_o
    bias).  The embedding table is not included.
    """
    total = sum(
        int(np.prod(shape)) for shape in _tensor_shapes(variant, n_i, n_c).values()
    )
    if n_o:
        total += n_o * n_c + n_o
    return total


def formula_param_count(variant: str, n_i: int, n_c: int, n_o: int = 0):
    """Closed-form parameter estimates quoted for the lstm and st-lstm
    variants.  They do not reconcile with the enumerated counts (different
    bookkeeping of recurrent/input blocks and biases); both figures are
    reported side by side and never forced to agree.  Returns None for
    st-clstm, which has no quoted formula."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "st-clstm":
        return None
    if variant == "lstm":
        return n_c * n_c * 4 + n_i * n_c * 4 + n_c * n_o + n_c * 3
    return n_c * n_c * 5 + n_i * n_c * 8 + n_c * n_o + n_c * 9     # st-lstm


def zero_state(n_c: int, batch: int = 1) -> CellState:
    shape = (batch, n_c)
    return CellState(c=np.zeros(shape), h=np.zeros(shape), c_hat=np.zeros(shape))


def _promote(p, step, prev, needs_intervals):
    """Read a step and its previous state as a row batch; returns
    ``(x, dt, dd, c_prev, h_prev)``, dt/dd None unless ``needs_intervals``."""
    x = np.atleast_2d(np.asarray(step.x, dtype=float))
    if x.ndim != 2 or x.shape[1] != p.n_i:
        raise ValueError(
            f"cell forward: x has shape {np.shape(step.x)}, expected (B, {p.n_i})"
        )
    b = x.shape[0]
    c_prev = np.atleast_2d(np.asarray(prev.c, dtype=float))
    h_prev = np.atleast_2d(np.asarray(prev.h, dtype=float))
    if c_prev.shape != (b, p.n_c) or h_prev.shape != (b, p.n_c):
        raise ValueError(
            f"cell forward: state shapes {np.shape(prev.c)}/{np.shape(prev.h)} do "
            f"not match batch {b} x n_c {p.n_c}"
        )
    if not (np.all(np.isfinite(c_prev)) and np.all(np.isfinite(h_prev))):
        raise ValueError("cell forward: previous state contains NaN or inf")
    if not needs_intervals:
        return x, None, None, c_prev, h_prev
    dt = np.atleast_1d(np.asarray(step.dt, dtype=float))
    dd = np.atleast_1d(np.asarray(step.dd, dtype=float))
    if dt.shape != (b,) or dd.shape != (b,):
        raise ValueError(
            f"cell forward: dt/dd shapes {dt.shape}/{dd.shape} do not match batch {b}"
        )
    if not (np.all(np.isfinite(dt)) and np.all(np.isfinite(dd))):
        raise ValueError("cell forward: dt/dd contain NaN or inf")
    if np.any(dt < 0) or np.any(dd < 0):
        raise ValueError("cell forward: dt and dd must be non-negative")
    return x, dt, dd, c_prev, h_prev


def _interval_gate(p, gate, x, u):
    """gate = sigmoid(w_x x + sigmoid(u * w_u) + b); returns (value, inner)."""
    inner = numkit.sigmoid(u[:, None] * p[f"w_{gate}"][None, :])
    value = numkit.sigmoid(numkit.affine(p[f"w_x{gate}"], x, p[f"b_{gate}"]) + inner)
    return value, inner


def cell_forward(variant, p: CellParams, step: StepInput, prev: CellState,
                 ablation: Optional[GateAblation] = None):
    """One step of ``variant`` over a row batch; returns (CellState, StepCache)."""
    if p.variant != variant:
        raise ValueError(f"cell_forward: params hold the {p.variant} tensors, "
                         f"not those of {variant!r}")
    ablation = ablation or GateAblation()
    has_forget, has_intervals = "w_f" in p, "w_to" in p
    x, dt, dd, c_prev, h_prev = _promote(p, step, prev, has_intervals)
    z = np.concatenate([h_prev, x], axis=1)
    i = numkit.sigmoid(numkit.affine(p["w_i"], z, p["b_i"]))
    g = numkit.tanh_v(numkit.affine(p["w_c"], z, p["b_c"]))
    a_o = numkit.affine(p["w_o"], z, p["b_o"])
    f = None
    if has_forget:
        f = numkit.sigmoid(numkit.affine(p["w_f"], z, p["b_f"]))
    gates = {}
    w1 = w2 = i
    if has_intervals:
        ones = np.ones((x.shape[0], p.n_c))
        for gate, which in _GATE_SPECS:
            if getattr(ablation, f"fix_{gate}"):
                gates[gate] = (ones, None)
            else:
                gates[gate] = _interval_gate(p, gate, x, dt if which == "dt" else dd)
        a_o = a_o + dt[:, None] * p["w_to"] + dd[:, None] * p["w_do"]
        w1 = i * gates["t1"][0] * gates["d1"][0]
        w2 = i * gates["t2"][0] * gates["d2"][0]
    o = numkit.sigmoid(a_o)
    k1, k2 = (f, f) if has_forget else (1.0 - w1, 1.0 - i)
    c_hat = k1 * c_prev + w1 * g
    c = k2 * c_prev + w2 * g if has_intervals else c_hat
    tch = np.tanh(c_hat)
    h = o * tch
    cache = StepCache(
        variant=variant, x=x, dt=dt, dd=dd, z=z, i=i, f=f,
        g=g, o=o, c_prev=c_prev, w1=w1, w2=w2, k1=k1, k2=k2, tanh_c_hat=tch,
        gates=gates,
    )
    return CellState(c=c, h=h, c_hat=c_hat), cache


def cell_backward(p, cache: StepCache, grad_h, grad_c, grads):
    """Backpropagate one step, adding the parameter gradients into ``grads``.

    ``grad_h``/``grad_c`` are the loss gradients at this step's h output and
    carried c, (B, n_c) each.  ``grads`` maps every tensor name of the
    variant to an accumulator of its shape; each entry is added to in place
    (pinned gates' entries are left untouched).  Returns ``(grad_h_prev,
    grad_c_prev, grad_x)``, shaped (B, n_c), (B, n_c) and (B, n_i).
    """
    if p.variant != cache.variant:
        raise ValueError(f"cell_backward: cache was built by {cache.variant!r}, "
                         f"params hold the {p.variant} tensors")
    gh = np.asarray(grad_h, dtype=float)
    gc = np.asarray(grad_c, dtype=float)
    if gh.shape != cache.i.shape or gc.shape != cache.i.shape:
        raise ValueError(
            f"cell_backward: upstream gradient shapes {gh.shape}/{gc.shape} do not "
            f"match step batch/width {cache.i.shape}"
        )

    i, g, o, f = cache.i, cache.g, cache.o, cache.f
    tch = cache.tanh_c_hat
    c_prev = cache.c_prev

    do = gh * tch
    da_o = do * o * (1.0 - o)
    dch = gh * o * (1.0 - tch * tch)

    # c_hat = k1 * c_prev + w1 * g  and  c = k2 * c_prev + w2 * g
    dk1, dw1 = dch * c_prev, dch * g
    dk2, dw2 = gc * c_prev, gc * g
    dg = dch * cache.w1 + gc * cache.w2
    dc_prev = dch * cache.k1 + gc * cache.k2
    da_f = None
    dgates = {}
    if f is not None:           # k1 = k2 = f
        da_f = (dk1 + dk2) * f * (1.0 - f)
        di = 0.0
    else:                       # k1 = 1 - w1, k2 = 1 - i
        dw1 = dw1 - dk1
        di = -dk2
    if not cache.gates:         # w1 = w2 = i
        di = di + dw1 + dw2
    else:                       # w1 = i * t1 * d1, w2 = i * t2 * d2
        t1, d1 = cache.gates["t1"][0], cache.gates["d1"][0]
        t2, d2 = cache.gates["t2"][0], cache.gates["d2"][0]
        di = di + dw1 * t1 * d1 + dw2 * t2 * d2
        dgates = {"t1": dw1 * i * d1, "t2": dw2 * i * d2,
                  "d1": dw1 * i * t1, "d2": dw2 * i * t2}
        grads["w_to"] += (cache.dt[:, None] * da_o).sum(axis=0)
        grads["w_do"] += (cache.dd[:, None] * da_o).sum(axis=0)

    da_i = di * i * (1.0 - i)
    da_g = dg * (1.0 - g * g)
    grads["w_i"] += da_i.T @ cache.z
    grads["b_i"] += da_i.sum(axis=0)
    grads["w_c"] += da_g.T @ cache.z
    grads["b_c"] += da_g.sum(axis=0)
    grads["w_o"] += da_o.T @ cache.z
    grads["b_o"] += da_o.sum(axis=0)

    dz = (numkit.matmul_rows(da_i, p["w_i"]) + numkit.matmul_rows(da_g, p["w_c"])
          + numkit.matmul_rows(da_o, p["w_o"]))
    if da_f is not None:
        grads["w_f"] += da_f.T @ cache.z
        grads["b_f"] += da_f.sum(axis=0)
        dz += numkit.matmul_rows(da_f, p["w_f"])
    n_c = p.n_c
    dx = dz[:, n_c:]
    for gate, dgate in dgates.items():
        value, inner = cache.gates[gate]
        if inner is None:           # pinned by the ablation: no parameters to train
            continue
        dpre = dgate * value * (1.0 - value)
        grads[f"w_x{gate}"] += dpre.T @ cache.x
        grads[f"b_{gate}"] += dpre.sum(axis=0)
        dx += numkit.matmul_rows(dpre, p[f"w_x{gate}"])
        dinner = dpre * inner * (1.0 - inner)
        u = cache.dt if gate[0] == "t" else cache.dd
        grads[f"w_{gate}"] += (u[:, None] * dinner).sum(axis=0)
    return dz[:, :n_c], dc_prev, dx
