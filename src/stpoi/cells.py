"""Gated recurrent cells for check-in sequences.

Three variants share one parameter layout:

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

Parameters are one name -> array mapping (``CellParams``) whose gate
groups are each one stacked block: w_i/w_f/w_o/w_c, their biases, and the
interval gates' w_x*, w_* and b_*.  The named tensors are views of their
block, so they are written in place, never replaced.

One forward (``cell_forward``) and one backward (``cell_backward``) serve
all three variants, with one product per gate group in each direction.
Both work on row batches: x is (B, n_i), dt/dd are (B,) and states, caches
and gradients are (B, n_c).  A 1-D x or state and scalar dt/dd are read as
a batch of one; lstm ignores dt/dd.  Batch rows are independent sequences.
"""

from __future__ import annotations

import copyreg
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import numkit

VARIANTS = ("lstm", "st-lstm", "st-clstm")

# ablation presets: which interval gates get pinned to the all-ones vector
ABLATION_PRESETS = {
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
        if name not in ABLATION_PRESETS:
            raise ValueError(
                f"unknown ablation {name!r}; expected one of {sorted(ABLATION_PRESETS)}"
            )
        fixed = ABLATION_PRESETS[name]
        return cls(**{f"fix_{g}": g in fixed for g in INTERVAL_GATES})

    def to_dict(self) -> dict:
        return asdict(self)


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

    Construction checks the names and shapes against ``shapes`` (by default
    ``_tensor_shapes``) and holds the tensors in that order, which fixes the
    iteration order of the optimizer and the clipping norm and the
    checkpoint layout.  Each gate group is copied into one stacked array in
    ``blocks`` (see ``_gate_groups``) and its tensors are views of it; the
    others are held as given.  Tensors also read as attributes (``p.w_i``).
    """

    def __init__(self, variant: str, tensors: dict, shapes: Optional[dict] = None):
        if shapes is None:
            w_i = tensors.get("w_i")
            if w_i is None or np.ndim(w_i) != 2 or w_i.shape[1] <= w_i.shape[0]:
                raise ValueError(f"{variant} params: w_i must be an (n_c, n_c + n_i) matrix")
            n_c = w_i.shape[0]
            shapes = _tensor_shapes(variant, w_i.shape[1] - n_c, n_c)
        check_shapes(tensors, shapes, f"{variant} params")
        self.__setstate__((variant, {name: tensors[name] for name in shapes}))

    def __reduce__(self):
        # a copy is rebuilt whole, since entries cannot be assigned one by one
        return copyreg.__newobj__, (type(self),), (self.variant, dict(self))

    def __setstate__(self, state):
        """Hold ``state = (variant, tensors)``, unchecked, in the tensors'
        order, each gate group as views of its block."""
        variant, tensors = state
        self.variant = variant
        self.blocks = {}
        views = {}
        for block, members in _gate_groups(variant).items():
            stacked = self.blocks[block] = np.concatenate([tensors[m] for m in members])
            views.update(zip(members, stacked.reshape(len(members), -1, *stacked.shape[1:])))
        dict.update(self, ((name, views.get(name, a)) for name, a in tensors.items()))

    def __setitem__(self, name, value):
        if name not in self or value is not self[name]:
            raise TypeError(f"params: tensor {name!r} can only be written in place")

    def __getattr__(self, name):
        try:
            return self[name]
        except KeyError:
            raise AttributeError(name) from None

    def zeros_like(self):
        """Zeros of every tensor, in this mapping's class, order and blocks."""
        out = dict.__new__(type(self))
        out.__setstate__((self.variant, {n: np.zeros(a.shape) for n, a in self.items()}))
        return out

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
    u: Optional[np.ndarray] = None      # (B, 4, 1) dt, dt, dd, dd; None for lstm
    iv: Optional[np.ndarray] = None     # (B, 4, n_c) interval gates t1, t2, d1, d2
    inner: Optional[np.ndarray] = None  # (B, 4, n_c) their sigmoid(u * w_u) terms

    @property
    def gates(self) -> dict:
        """Interval gate name -> (value, inner), (B, n_c) views each."""
        if self.iv is None:
            return {}
        return {gate: (self.iv[:, k], self.inner[:, k])
                for k, gate in enumerate(INTERVAL_GATES)}


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
        for gate in INTERVAL_GATES:
            shapes.update({
                f"w_x{gate}": (n_c, n_i),
                f"w_{gate}": (n_c,),
                f"b_{gate}": (n_c,),
            })
        shapes.update({"w_to": (n_c,), "w_do": (n_c,)})
    return shapes


# interval gates in stacked order; t* read dt and d* read dd
INTERVAL_GATES = ("t1", "t2", "d1", "d2")


def _gate_groups(variant: str) -> dict:
    """Block name -> the tensors stacked into it, in stacked order; i[, f],
    o, c, so that one sigmoid covers all z-gates but the candidate."""
    z = ("i", "o", "c") if variant == "st-clstm" else ("i", "f", "o", "c")
    groups = {"w_z": tuple(f"w_{g}" for g in z), "b_z": tuple(f"b_{g}" for g in z)}
    if variant != "lstm":
        groups.update(w_x=tuple(f"w_x{g}" for g in INTERVAL_GATES),
                      w_u=tuple(f"w_{g}" for g in INTERVAL_GATES),
                      b_x=tuple(f"b_{g}" for g in INTERVAL_GATES))
    return groups


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


def draw_tensors(shapes: dict, n_c: int, rng, constrained=()) -> dict:
    """Fresh tensors for ``shapes`` (name -> shape), drawn in its order:
    weights ~ U(-1/sqrt(n_c), 1/sqrt(n_c)), biases (``b_*``) zero, the
    ``constrained`` tensors clamped to <= 0 after the draw."""
    scale = 1.0 / math.sqrt(n_c)
    arrays = {}
    for name, shape in shapes.items():
        if name.startswith("b_"):
            arrays[name] = np.zeros(shape)
        else:
            arrays[name] = rng.uniform(-scale, scale, size=shape)
    for name in constrained:
        np.minimum(arrays[name], 0.0, out=arrays[name])
    return arrays


def init_params(variant, n_i, n_c, rng, constraint_target="interval"):
    """Fresh parameters of one cell (see ``draw_tensors``)."""
    return CellParams(variant, draw_tensors(
        _tensor_shapes(variant, n_i, n_c), n_c, rng,
        constrained_names(variant, constraint_target)))


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


def cell_forward(variant, p: CellParams, step: StepInput, prev: CellState,
                 ablation: Optional[GateAblation] = None):
    """One step of ``variant`` over a row batch; returns (CellState, StepCache).
    A pinned interval gate is set to exactly 1."""
    if p.variant != variant:
        raise ValueError(f"cell_forward: params hold the {p.variant} tensors, "
                         f"not those of {variant!r}")
    ablation = ablation or GateAblation()
    has_forget, has_intervals = "w_f" in p, "w_to" in p
    x, dt, dd, c_prev, h_prev = _promote(p, step, prev, has_intervals)
    n = p.n_c
    z = np.concatenate([h_prev, x], axis=1)
    a = numkit.affine(p.blocks["w_z"], z, p.blocks["b_z"])
    u = iv = inner = None
    if has_intervals:
        u = np.stack([dt, dt, dd, dd], axis=1)[:, :, None]
        a_o = a[:, -2 * n:-n]
        a_o += u[:, 0] * p["w_to"]
        a_o += u[:, 2] * p["w_do"]
        inner = numkit.sigmoid(u * p.blocks["w_u"].reshape(4, n))
        iv = numkit.sigmoid(numkit.affine(p.blocks["w_x"], x, p.blocks["b_x"])
                            .reshape(-1, 4, n) + inner)
        iv[:, [k for k, gate in enumerate(INTERVAL_GATES)
               if getattr(ablation, f"fix_{gate}")]] = 1.0
    s = numkit.sigmoid(a[:, :-n])
    i, o = s[:, :n], s[:, -n:]
    f = s[:, n:2 * n] if has_forget else None
    g = numkit.tanh_v(a[:, -n:])
    w1 = w2 = i
    if has_intervals:
        t1, t2, d1, d2 = iv.transpose(1, 0, 2)
        w1 = i * t1 * d1
        w2 = i * t2 * d2
    k1, k2 = (f, f) if has_forget else (1.0 - w1, 1.0 - i)
    c_hat = k1 * c_prev + w1 * g
    c = k2 * c_prev + w2 * g if has_intervals else c_hat
    tch = np.tanh(c_hat)
    h = o * tch
    cache = StepCache(
        variant=variant, x=x, z=z, i=i, f=f, g=g, o=o, c_prev=c_prev,
        w1=w1, w2=w2, k1=k1, k2=k2, tanh_c_hat=tch, u=u, iv=iv, inner=inner,
    )
    return CellState(c=c, h=h, c_hat=c_hat), cache


def cell_backward(p, cache: StepCache, grad_h, grad_c, grads):
    """Backpropagate one step, adding the parameter gradients into ``grads``.

    ``grad_h``/``grad_c`` are the loss gradients at this step's h output and
    carried c, (B, n_c) each.  ``grads`` is a ``p.zeros_like()``; each gate
    group's block takes one weight-gradient product and one bias sum, in
    place.  A pinned gate is exactly 1, so its gradients stay exactly 0.
    Returns ``(grad_h_prev, grad_c_prev, grad_x)``, shaped (B, n_c),
    (B, n_c) and (B, n_i).
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

    i, g, o, f, iv = cache.i, cache.g, cache.o, cache.f, cache.iv
    tch = cache.tanh_c_hat
    c_prev = cache.c_prev
    B, n = i.shape
    # pre-activation gradients in the column order of w_z: i[, f], o, c
    da = np.empty((B, p.blocks["w_z"].shape[0]))

    do = gh * tch
    da_o = da[:, -2 * n:-n]
    np.multiply(do * o, 1.0 - o, out=da_o)
    dch = gh * o * (1.0 - tch * tch)

    # c_hat = k1 * c_prev + w1 * g  and  c = k2 * c_prev + w2 * g
    dk1, dw1 = dch * c_prev, dch * g
    dk2, dw2 = gc * c_prev, gc * g
    dg = dch * cache.w1 + gc * cache.w2
    dc_prev = dch * cache.k1 + gc * cache.k2
    if f is not None:           # k1 = k2 = f
        np.multiply((dk1 + dk2) * f, 1.0 - f, out=da[:, n:2 * n])
        di = 0.0
    else:                       # k1 = 1 - w1, k2 = 1 - i
        dw1 = dw1 - dk1
        di = -dk2
    if iv is None:              # w1 = w2 = i
        di = di + dw1 + dw2
    else:                       # w1 = i * t1 * d1, w2 = i * t2 * d2
        t1, t2, d1, d2 = iv.transpose(1, 0, 2)
        di = di + dw1 * t1 * d1 + dw2 * t2 * d2
        # d/d(t1, t2, d1, d2) = (dw1 * i * d1, dw2 * i * d2, dw1 * i * t1, dw2 * i * t2)
        dgate = np.stack([dw1, dw2, dw1, dw2], axis=1) * i[:, None] * iv[:, [2, 3, 0, 1]]
        dpre = dgate * iv * (1.0 - iv)
        dinner = dpre * cache.inner * (1.0 - cache.inner)
        grads.blocks["w_u"] += (cache.u * dinner).sum(axis=0).reshape(-1)
        dpre = dpre.reshape(B, -1)
        grads.blocks["w_x"] += dpre.T @ cache.x
        grads.blocks["b_x"] += dpre.sum(axis=0)
        grads["w_to"] += (cache.u[:, 0] * da_o).sum(axis=0)
        grads["w_do"] += (cache.u[:, 2] * da_o).sum(axis=0)

    np.multiply(di * i, 1.0 - i, out=da[:, :n])
    np.multiply(dg, 1.0 - g * g, out=da[:, -n:])
    grads.blocks["w_z"] += da.T @ cache.z
    grads.blocks["b_z"] += da.sum(axis=0)
    dz = numkit.matmul_rows(da, p.blocks["w_z"])
    dx = dz[:, n:]
    if iv is not None:
        dx = dx + numkit.matmul_rows(dpre, p.blocks["w_x"])
    return dz[:, :n], dc_prev, dx
