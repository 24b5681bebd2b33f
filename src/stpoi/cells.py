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

Parameters are one name -> array mapping (``CellParams``) of views of one
float64 buffer, in which each gate group is one stacked block: w_i/w_f/w_o/
w_c, their biases, and the interval gates' w_x*, w_* and b_*.  Tensors are
written in place, never replaced; gradients and Adam moments share the
layout (``zeros_like``), so the optimizer makes one pass over the buffer.

One forward and one backward serve all three variants, with one product per
gate group in each direction, on row batches: x is (B, n_i), dt/dd are (B,)
and states, caches and gradients are (B, n_c); rows are independent
sequences.  The forward is ``interval_terms``, the interval gates, which
read no h and so can run for many steps at once, then ``cell_step``, the
step kernel; neither checks anything (see ``check_bounded``).  The
backward mirrors that split: ``step_backward`` is the recurrence alone,
the elementwise chain of a step and the gradients it hands the step before,
which the time loop needs; ``input_backward`` is the rest, which feeds no
earlier step and so runs for many steps at once: every parameter gradient,
the interval gates' chain and the input gradient.  The model calls the four
parts.  The public ``cell_forward`` wraps the forward for one step, with
per-call checks of shapes, variant, x, state, intervals and the bound; it
reads a 1-D x or state and scalar dt/dd as a batch of one, and lstm ignores
dt/dd.
"""

from __future__ import annotations

import copyreg
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import numkit

VARIANTS = ("lstm", "st-lstm", "st-clstm")

# the most check_bounded lets a pre-activation or logit reach, far enough
# below the float64 maximum (1.8e308) that rounding cannot cross it
BOUND = 1e300

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

    Construction checks the names and shapes against ``shapes`` (name ->
    shape, as from ``_tensor_shapes``) and copies the tensors, in that order,
    into one float64 buffer ``flat``; ``layout`` (the variant, then each name
    with its shape) fixes where each lies.  A gate group's members lie side
    by side, so its stacked array in ``blocks`` (see ``_gate_groups``) is a
    view of ``flat`` like every tensor.  Tensors also read as attributes.
    """

    def __init__(self, variant: str, tensors: dict, shapes: dict):
        check_shapes(tensors, shapes, f"{variant} params")
        self.__setstate__(((variant, tuple(shapes.items())),
                           np.empty(sum(math.prod(s) for s in shapes.values()))))
        for name, a in self.items():
            a[...] = tensors[name]

    def __reduce__(self):
        # copies and pickles rebuild the views over a copy of the buffer
        return copyreg.__newobj__, (type(self),), (self.layout, self.flat.copy())

    def __setstate__(self, state):
        """Hold views of ``flat`` for ``state = (layout, flat)``: the
        tensors in their order, except that a gate group's members follow
        its first one."""
        self.layout, self.flat = layout, flat = state
        self.variant, shapes = layout[0], dict(layout[1])
        group_of = {m: (block, members) for block, members
                    in _gate_groups(self.variant).items() for m in members}
        self.blocks, views, at = {}, {}, 0
        for name, shape in shapes.items():
            if name in views:
                continue
            block, members = group_of.get(name, (None, (name,)))
            chunk = flat[at:at + len(members) * math.prod(shape)]
            at += chunk.size
            views.update(zip(members, chunk.reshape(len(members), *shape)))
            if block is not None:
                self.blocks[block] = chunk.reshape(-1, *shape[1:])
        dict.update(self, ((name, views[name]) for name in shapes))

    def __setitem__(self, name, value):
        if name not in self or value is not self[name]:
            raise TypeError(f"params: tensor {name!r} can only be written in place")

    def __getattr__(self, name):
        try:
            return self[name]
        except KeyError:
            raise AttributeError(name) from None

    def zeros_like(self):
        """Zeros of every tensor, in this mapping's class and layout."""
        out = dict.__new__(type(self))
        out.__setstate__((self.layout, np.zeros(self.flat.size)))
        return out

    @property
    def n_c(self) -> int:
        return self["w_i"].shape[0]

    @property
    def n_i(self) -> int:
        return self["w_i"].shape[1] - self["w_i"].shape[0]


def LstmParams(**tensors) -> CellParams:
    """The plain cell's eight tensors as CellParams, sized by w_i."""
    n_c, n_z = np.shape(tensors["w_i"])
    return CellParams("lstm", tensors, _tensor_shapes("lstm", n_z - n_c, n_c))


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

    z: np.ndarray               # [h_prev | x]
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
    shapes = _tensor_shapes(variant, n_i, n_c)
    return CellParams(variant, draw_tensors(
        shapes, n_c, rng, constrained_names(variant, constraint_target)), shapes)


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
    ``(x, dt, dd, c_prev, h_prev)``, dt/dd 0 unless ``needs_intervals``."""
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
    if not all(np.isfinite(a).all() for a in (x, c_prev, h_prev)):
        raise ValueError("cell forward: x or previous state contains NaN or inf")
    if not needs_intervals:
        return x, 0.0, 0.0, c_prev, h_prev
    dt = np.atleast_1d(np.asarray(step.dt, dtype=float))
    dd = np.atleast_1d(np.asarray(step.dd, dtype=float))
    if dt.shape != (b,) or dd.shape != (b,):
        raise ValueError(
            f"cell forward: dt/dd shapes {dt.shape}/{dd.shape} do not match batch {b}"
        )
    check_intervals(dt, dd, "cell forward")
    return x, dt, dd, c_prev, h_prev


def check_intervals(dt, dd, who: str) -> None:
    """Raise ValueError unless the intervals dt and dd are finite and
    non-negative."""
    if not (np.isfinite(dt).all() and np.isfinite(dd).all()):
        raise ValueError(f"{who}: dt/dd contain NaN or inf")
    if (dt < 0).any() or (dd < 0).any():
        raise ValueError(f"{who}: dt and dd must be non-negative")


def check_bounded(p: CellParams, z_max, dt, dd, who: str) -> None:
    """Raise NonFiniteError unless no gate pre-activation, ``u * w_u`` or
    logit can overflow on inputs ``[h | x]`` of magnitude at most ``z_max``
    and intervals up to the maxima of ``dt``/``dd``.

    Each is a sum of at most K = n_c + n_i + 3 products of a parameter and
    an input or a bias, plus 1 for the inner sigmoid.  With w the largest
    |parameter| and s = max(1, w, z_max, dt, dd), each product is at most
    w * s, so K * w * s + 1 < ``BOUND`` keeps every float sum finite.  The
    model's z_max is 1: x is an embedding row, and |h| <= 1 as h = o *
    tanh(c_hat).  ``numkit.check_finite`` names a NaN or inf parameter.
    """
    flat = p.flat
    with np.errstate(over="ignore"):
        w = max(flat.max(), -flat.min())
        s = max(1.0, w, z_max, np.max(dt, initial=0.0), np.max(dd, initial=0.0))
        if (p.n_c + p.n_i + 3) * w * s + 1.0 < BOUND:
            return
    numkit.check_finite(p, who)
    raise numkit.NonFiniteError(
        f"{who}: parameters up to {w:.3g} and inputs up to {s:.3g} let a gate "
        f"or logit overflow to NaN or inf")


def interval_terms(p: CellParams, x, dt, dd, ablation: Optional[GateAblation] = None):
    """The interval gates of R rows: x (R, n_i) and dt/dd (R,).

    They read only the transition's input, never h, so the model computes
    them for many steps at once.  Returns ``(u, inner, iv)``: u (R, 4, 1)
    holds dt, dt, dd, dd; inner (R, 4, n_c) the sigmoid(u * w_u) terms and
    iv (R, 4, n_c) the gates t1, t2, d1, d2, a pinned gate exactly 1.  All
    three are None for lstm.  Nothing is checked (see ``check_bounded``).
    """
    if "w_to" not in p:
        return None, None, None
    ablation = ablation or GateAblation()
    n = p.n_c
    u = np.stack([dt, dt, dd, dd], axis=1)[:, :, None]
    inner = numkit.sigmoid(u * p.blocks["w_u"].reshape(4, n))
    iv = numkit.sigmoid(numkit.affine(p.blocks["w_x"], x, p.blocks["b_x"])
                        .reshape(-1, 4, n) + inner)
    iv[:, [k for k, gate in enumerate(INTERVAL_GATES)
           if getattr(ablation, f"fix_{gate}")]] = 1.0
    return u, inner, iv


def cell_step(p: CellParams, x, c_prev, h_prev, u, inner, iv):
    """One step over a row batch from its ``interval_terms``; returns
    (CellState, StepCache).  Expects (B, n_i) x and finite (B, n_c) states
    that pass ``check_bounded``; checks nothing.
    """
    n = p.n_c
    z = np.concatenate([h_prev, x], axis=1)
    a = numkit.affine(p.blocks["w_z"], z, p.blocks["b_z"])
    if iv is not None:
        a_o = a[:, -2 * n:-n]
        a_o += u[:, 0] * p["w_to"]
        a_o += u[:, 2] * p["w_do"]
    s = numkit.sigmoid(a[:, :-n])
    i, o = s[:, :n], s[:, -n:]
    f = s[:, n:2 * n] if "w_f" in p else None
    g = np.tanh(a[:, -n:])
    w1 = w2 = i
    if iv is not None:
        t1, t2, d1, d2 = iv.transpose(1, 0, 2)
        w1 = i * t1 * d1
        w2 = i * t2 * d2
    k1, k2 = (f, f) if f is not None else (1.0 - w1, 1.0 - i)
    c_hat = k1 * c_prev + w1 * g
    c = k2 * c_prev + w2 * g if iv is not None else c_hat
    tch = np.tanh(c_hat)
    h = o * tch
    cache = StepCache(
        z=z, i=i, f=f, g=g, o=o, c_prev=c_prev, w1=w1, w2=w2, k1=k1, k2=k2,
        tanh_c_hat=tch, u=u, iv=iv, inner=inner,
    )
    return CellState(c=c, h=h, c_hat=c_hat), cache


def cell_forward(variant, p: CellParams, step: StepInput, prev: CellState,
                 ablation: Optional[GateAblation] = None):
    """One checked step of ``variant`` over a row batch; returns
    (CellState, StepCache).  A pinned interval gate is set to exactly 1."""
    if p.variant != variant:
        raise ValueError(f"cell_forward: params hold the {p.variant} tensors, "
                         f"not those of {variant!r}")
    x, dt, dd, c_prev, h_prev = _promote(p, step, prev, "w_to" in p)
    z_max = np.abs(np.hstack([h_prev, x])).max(initial=0.0)
    check_bounded(p, z_max, dt, dd, "cell forward")
    return cell_step(p, x, c_prev, h_prev, *interval_terms(p, x, dt, dd, ablation))


def step_backward(p, cache: StepCache, gh, gc, da, dwi):
    """The recurrent part of one step's backward, for the model's time loop.

    Writes the step's gate pre-activation gradients into ``da`` (B, G*n_c),
    in the column order of ``w_z``, and, with interval gates, the products
    of the gradients of the two write gates w1, w2 with i into ``dwi``
    (B, 2, n_c).  Returns ``(grad_h_prev, grad_c_prev)``; the rest of the
    step, which feeds no earlier step, is ``input_backward``.
    """
    i, g, o, f, iv = cache.i, cache.g, cache.o, cache.f, cache.iv
    tch = cache.tanh_c_hat
    c_prev = cache.c_prev
    n = i.shape[1]

    do = gh * tch
    np.multiply(do * o, 1.0 - o, out=da[:, -2 * n:-n])
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
        np.multiply(dw1, i, out=dwi[:, 0])
        np.multiply(dw2, i, out=dwi[:, 1])

    np.multiply(di * i, 1.0 - i, out=da[:, :n])
    np.multiply(dg, 1.0 - g * g, out=da[:, -n:])
    return numkit.matmul_rows(da, p.blocks["w_z"][:, :n]), dc_prev


def input_backward(p, x, z, terms, da, dwi, grads, batch):
    """The part of the backward that feeds no earlier step, for R rows of
    ``step_backward`` output: every cell parameter gradient, the interval
    gates' chain and the input gradient.

    ``x`` (R, n_i), ``z`` (R, n_c + n_i) the rows' ``[h_prev | x]``,
    ``terms`` (the ``interval_terms`` of those rows), ``da`` and ``dwi`` hold
    whole steps of ``batch`` rows each, in step order.  Adds each step's
    rank-``batch`` sums into the cell's gradients in ``grads`` (a
    ``p.zeros_like()``), the last step first, each gate group's block in
    place; a pinned gate is exactly 1, so its gradients stay exactly 0.
    Returns the input gradient (R, n_i).  As in the forward, one product
    over all R rows gives each row the bits of a per-step one.
    """
    u, inner, iv = terms
    n = p.n_c
    dx = numkit.matmul_rows(da, p.blocks["w_z"][:, n:])
    if iv is not None:
        # d/d(t1, t2, d1, d2) = (dw1 * i * d1, dw2 * i * d2, dw1 * i * t1, dw2 * i * t2)
        dgate = dwi[:, [0, 1, 0, 1]] * iv[:, [2, 3, 0, 1]]
        dpre = dgate * iv * (1.0 - iv)
        dw_u = u * (dpre * inner * (1.0 - inner))
        dpre = dpre.reshape(len(x), -1)
        dx += numkit.matmul_rows(dpre, p.blocks["w_x"])
    for r in reversed(range(0, len(x), batch)):
        rows = slice(r, r + batch)
        grads.blocks["w_z"] += da[rows].T @ z[rows]
        grads.blocks["b_z"] += da[rows].sum(axis=0)
        if iv is None:
            continue
        da_o = da[rows, -2 * n:-n]
        grads["w_to"] += (u[rows, 0] * da_o).sum(axis=0)
        grads["w_do"] += (u[rows, 2] * da_o).sum(axis=0)
        grads.blocks["w_u"] += dw_u[rows].sum(axis=0).reshape(-1)
        grads.blocks["w_x"] += dpre[rows].T @ x[rows]
        grads.blocks["b_x"] += dpre[rows].sum(axis=0)
    return dx
