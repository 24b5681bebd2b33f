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
and states and gradients are (B, n_c); rows are independent sequences.
The forward is ``interval_terms``, the interval gates, which read no h and
so can run for many steps at once, then ``cell_step``, the step kernel,
which writes a step's gates through ``out=`` into a batch's ``Gates``
buffers; neither checks anything (see ``check_bounded``).  Multi-gate
values (the sigmoid z-gates, the interval terms, the gate gradients) are
gate-major, so that every elementwise operation of a step runs on
contiguous (B, n_c) blocks.  The backward mirrors the forward's split:
``step_backward`` is the recurrence alone, the elementwise chain of a step
and the gradients it hands the step before, which the time loop needs;
``input_backward`` is the rest, which feeds no earlier step and so runs for
many steps at once: every parameter gradient, the interval gates' chain and
the input gradient.  The model calls the four parts.  The public
``cell_forward`` wraps the forward for one step, with per-call checks of
shapes, variant, x, state, intervals and the bound; it reads a 1-D x or
state and scalar dt/dd as a batch of one, and lstm ignores dt/dd.
"""

from __future__ import annotations

import copyreg
import functools
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import numkit

VARIANTS = ("lstm", "st-lstm", "st-clstm")

# the most check_bounded lets a pre-activation or logit reach, far enough
# below the float64 maximum (1.8e308) that rounding cannot cross it
BOUND = 1e300

# bytes of stacked weight-gradient products per step group of add_step_sums
# (w_out's, or w_z's and w_x's): many toy-shape steps, one paper-shape step
STEP_GROUP_BYTES = 1 << 20

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
        """Hold views of ``flat`` for ``state = (layout, flat)``, placed by
        the layout's ``_view_plan``."""
        self.layout, self.flat = layout, flat = state
        self.variant = layout[0]
        names, blocks = _view_plan(layout)
        self.blocks = {block: flat[a:b].reshape(shape)
                       for block, a, b, shape in blocks}
        dict.update(self, ((name, flat[a:b].reshape(shape))
                           for name, a, b, shape in names))

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


@functools.lru_cache(maxsize=64)
def _view_plan(layout) -> tuple:
    """Where each view of a ``CellParams`` layout lies in its buffer:
    ``(tensors, blocks)``, each a tuple of (name, start, stop, shape).  The
    tensors come in their order, except that a gate group's members follow
    its first one; a group's block spans its members."""
    variant, shapes = layout[0], dict(layout[1])
    group_of = {m: (block, members) for block, members
                in _gate_groups(variant).items() for m in members}
    spans, blocks, at = {}, [], 0
    for name, shape in shapes.items():
        if name in spans:
            continue
        block, members = group_of.get(name, (None, (name,)))
        start, size = at, math.prod(shape)
        for member in members:
            spans[member] = (at, at + size, shape)
            at += size
        if block is not None:
            blocks.append((block, start, at, (-1, *shape[1:])))
    return tuple((name, *spans[name]) for name in shapes), tuple(blocks)


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
    """Everything the backward pass needs from one ``cell_forward`` step:
    (B, ·) views of its one-slot ``Gates``, ``buffers``."""

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
    buffers: Optional["Gates"] = None

    @property
    def gates(self) -> dict:
        """Interval gate name -> (value, inner), (B, n_c) views each."""
        if self.iv is None:
            return {}
        return {gate: (self.iv[:, k], self.inner[:, k])
                for k, gate in enumerate(INTERVAL_GATES)}


class Gates:
    """The gate values of a row batch's steps, which ``cell_step`` writes
    through ``out=`` and ``step_backward`` reads: step t in slot t % slots
    of (slots, ..., rows, n_c) buffers, and the cell memories ``c``, whose
    slot (t + 1) % (slots + 1) holds step t's pair [c_hat, c], so that slot
    t % (slots + 1) holds its c_prev (zero at step 0).  One slot per step
    keeps every step for the backward; one slot keeps the last, for a
    forward alone.

    ``s`` (slots, G - 1, rows, n_c) holds the sigmoid z-gates i[, f], o
    gate-major, so that a step's gate is one contiguous (rows, n_c) block.
    The write gates ``w`` = [w1, w2] and keep gates ``k`` = [k1, k2] are
    (slots, 2, rows, n_c) pairs, so that one call covers both of a pair:
    stride-0 pair views of i or f where a variant has no gates of its own.
    """

    def __init__(self, p: CellParams, slots: int, rows: int):
        n = p.n_c

        def new(*lead):
            return np.empty((slots, *lead, rows, n))

        def pair(gate):
            return np.broadcast_to(gate[:, None], (slots, 2, rows, n))
        self.s = new(p.blocks["b_z"].size // n - 1)
        self.g, self.tch = new(), new()
        self.c = np.zeros((slots + 1, 2, rows, n))
        self.w = new(2) if "w_to" in p else pair(self.s[:, 0])
        self.k = pair(self.s[:, 1]) if "w_f" in p else new(2)
        # the step kernels read a slot's views from lists built once here,
        # which costs less than indexing the buffers at every step
        self.slot = list(zip(self.s, self.g, self.tch, self.w, self.k))
        self.carry = list(self.c)

    def hoist(self) -> None:
        """The backward's factors that need no gradient, over every step at
        once, each with the per-element expression of a step's: ``ds`` =
        1 - s, ``dg`` = 1 - g**2 and ``dtch`` = 1 - tanh(c_hat)**2; step
        t's are ``back[t]``."""
        self.ds = 1.0 - self.s
        self.dg = 1.0 - self.g * self.g
        self.dtch = 1.0 - self.tch * self.tch
        self.back = list(zip(self.ds, self.dg, self.dtch))


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
    names = {"interval": ("w_t1", "w_d1"),
             "input": ("w_t1", "w_d1", "w_xt1", "w_xd1")}
    if constraint_target not in names:
        raise ValueError(f"unknown constraint_target {constraint_target!r}; "
                         "expected 'interval' or 'input'")
    return () if variant == "lstm" else names[constraint_target]


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
    them for many steps at once.  Returns ``(u, inner, iv, ow)``, each
    gate-major: u (4, R, 1) holds dt, dt, dd, dd; inner (4, R, n_c) the
    sigmoid(u * w_u) terms, iv (4, R, n_c) the gates t1, t2, d1, d2, a
    pinned gate exactly 1, and ow (2, R, n_c) the output gate's terms
    dt * w_to and dd * w_do.  All four are None for lstm.  Nothing is
    checked (see ``check_bounded``).
    """
    if "w_to" not in p:
        return None, None, None, None
    ablation = ablation or GateAblation()
    n = p.n_c
    u = np.array((dt, dt, dd, dd))[:, :, None]
    inner = numkit.sigmoid(u * p.blocks["w_u"].reshape(4, 1, n))
    pre = numkit.affine(p.blocks["w_x"], x, p.blocks["b_x"]).reshape(-1, 4, n)
    iv = numkit.sigmoid(inner + pre.transpose(1, 0, 2))
    fixed = [k for k, gate in enumerate(INTERVAL_GATES)
             if getattr(ablation, f"fix_{gate}")]
    if fixed:
        iv[fixed] = 1.0
    ow = u[::2] * np.array((p["w_to"], p["w_do"]))[:, None]
    return u, inner, iv, ow


def cell_step(p: CellParams, h, z, ow, iv, gates: Gates, t: int):
    """Step t of the first k = len(h) rows of a batch: writes their h into
    the (k, n_c) array ``h`` and their gates into ``gates``.  ``z`` holds
    the rows' [h_prev | x] in its first k rows, any k <= len(z); its other
    rows may hold anything finite.  A z of at least ``numkit.TILE_ROWS`` rows
    makes the gate product one BLAS call on it, with no copy.  ``ow``/``iv``
    are the k rows' gate-major ``interval_terms``.  Expects finite inputs
    that pass ``check_bounded``; checks nothing.
    """
    k, n = h.shape
    s, g, tch, w, keep = gates.slot[t % len(gates.slot)]
    c_prev = gates.carry[t % len(gates.carry)][1]
    c = gates.carry[(t + 1) % len(gates.carry)]
    if k < len(g):
        s, g, tch, w, keep = s[:, :k], g[:k], tch[:k], w[:, :k], keep[:, :k]
        c_prev, c = c_prev[:k], c[:, :k]
    a = numkit.affine(p.blocks["w_z"], z, p.blocks["b_z"])[:k]
    # the sigmoid gates' pre-activations, gate-major
    pre = a[:, :-n].reshape(k, -1, n).transpose(1, 0, 2).copy()
    if iv is not None:
        pre[-1] += ow[0]
        pre[-1] += ow[1]
    numkit.sigmoid(pre, out=s)
    i, o = s[0], s[-1]
    np.tanh(a[:, -n:], out=g)
    if iv is not None:          # [w1, w2] = i * [t1, t2] * [d1, d2]
        np.multiply(i, iv[:2], out=w)
        w *= iv[2:]
    if "w_f" not in p:          # [k1, k2] = [1 - w1, 1 - i]
        np.subtract(1.0, w[0], out=keep[0])
        np.subtract(1.0, i, out=keep[1])
    # [c_hat, c] = [k1, k2] * c_prev + [w1, w2] * g; lstm's c is its c_hat
    np.multiply(keep, c_prev, out=c)
    c += w * g
    np.multiply(o, np.tanh(c[0], out=tch), out=h)


def cell_forward(variant, p: CellParams, step: StepInput, prev: CellState,
                 ablation: Optional[GateAblation] = None):
    """One checked step of ``variant`` over a row batch; returns
    (CellState, StepCache).  A pinned interval gate is set to exactly 1."""
    if p.variant != variant:
        raise ValueError(f"cell_forward: params hold the {p.variant} tensors, "
                         f"not those of {variant!r}")
    x, dt, dd, c_prev, h_prev = _promote(p, step, prev, "w_to" in p)
    z = np.concatenate((h_prev, x), axis=1)
    check_bounded(p, np.abs(z).max(initial=0.0), dt, dd, "cell forward")
    terms = interval_terms(p, x, dt, dd, ablation)
    gates = Gates(p, 1, len(x))
    gates.c[0, 1] = c_prev
    h = np.empty_like(c_prev)
    cell_step(p, h, z, terms[3], terms[2], gates, 0)
    s = gates.s[0]
    # the cache holds the interval terms row-major, (B, 4, ·)
    u, inner, iv = (None if a is None else a.transpose(1, 0, 2) for a in terms[:3])
    cache = StepCache(
        z=z, i=s[0], f=s[1] if "w_f" in p else None, g=gates.g[0],
        o=s[-1], c_prev=gates.c[0, 1], w1=gates.w[0, 0], w2=gates.w[0, 1],
        k1=gates.k[0, 0], k2=gates.k[0, 1], tanh_c_hat=gates.tch[0], u=u,
        iv=iv, inner=inner, buffers=gates)
    return CellState(c=gates.c[1, 1], h=h, c_hat=gates.c[1, 0]), cache


def step_backward(p, gates: Gates, t: int, iv, gh, dc, da, dw):
    """The recurrent part of step t's backward, for the model's time loop,
    over the B = len(gh) rows of ``gates`` (all of them, after
    ``gates.hoist()``); ``iv`` (4, B, n_c) holds the rows' interval gates.

    ``dc`` (2, B, n_c) holds the gradient of the step's c in ``dc[1]``; the
    step writes the gradient of its c_hat into ``dc[0]`` and that of its
    c_prev into ``dc[1]``.  Writes the step's gate pre-activation gradients
    into the first B rows of ``da`` (G, >= ``numkit.TILE_ROWS``, n_c; zero
    past B), gate-major in the order of ``w_z``, and the gradients of the
    write gates [w1, w2] into ``dw`` (2, B, n_c).  Returns grad_h_prev; the
    rest of the step, which feeds no earlier step, is ``input_backward``.
    """
    b, n = gh.shape
    s, g, tch, w, keep = gates.slot[t]
    ds, dgt, dtch = gates.back[t]
    c_prev = gates.carry[t][1]
    i, o = s[0], s[-1]
    dch, gc = dc[0], dc[1]

    np.multiply(gh * tch * o, ds[-1], out=da[-2, :b])
    np.multiply(gh * o, dtch, out=dch)

    # [c_hat, c] = [k1, k2] * c_prev + [w1, w2] * g: a pair of a variant's
    # own gates is one product with [dch, gc], a shared gate two
    dk1, dk2 = dch * c_prev, gc * c_prev
    dw1, dw2 = np.multiply(dch, g, out=dw[0]), np.multiply(gc, g, out=dw[1])
    if iv is None:              # w1 = w2 = i
        dg = dch * i + gc * i
    else:
        dg = dc * w
        dg = dg[0] + dg[1]
    if "w_f" in p:              # k1 = k2 = f
        f = s[1]
        np.add(dch * f, gc * f, out=gc)
        np.multiply((dk1 + dk2) * f, ds[1], out=da[1, :b])
        di = 0.0
    else:                       # k1 = 1 - w1, k2 = 1 - i
        dc_prev = dc * keep
        np.add(dc_prev[0], dc_prev[1], out=gc)
        dw1 -= dk1
        di = -dk2
    if iv is None:
        di = di + dw1 + dw2
    else:                       # [w1, w2] = i * [t1, t2] * [d1, d2]
        dw_iv = dw * iv[:2]
        dw_iv *= iv[2:]
        di = di + dw_iv[0] + dw_iv[1]

    np.multiply(di * i, ds[0], out=da[0, :b])
    np.multiply(dg, dgt, out=da[-1, :b])
    rows = da.transpose(1, 0, 2).reshape(da.shape[1], -1)
    return numkit.matmul_rows(rows, p.blocks["w_z"][:, :n])[:b]


def step_groups(steps: int, group: int):
    """Slices of ``steps`` steps in groups of at most ``group``, from the
    last group to the first, each running from its last step down."""
    for s1 in range(steps, 0, -group):
        yield slice(s1 - 1, s1 - group - 1 if s1 > group else None, -1)


def _add_last_first(total, parts) -> None:
    """total += parts[0], then parts[1], and so on: the bits of one ``+=``
    per part, in one reduce over the (S, ...) ``parts``, which it
    overwrites."""
    if len(parts) == 1:
        total += parts[0]
        return
    parts[0] += total
    np.add.reduce(parts, axis=0, out=total)


def add_step_sums(gw, gb, runs, group: int) -> None:
    """Add each step's ``d.T @ x`` into the weight gradient ``gw`` (O, K)
    and the row sum of its ``d`` into the bias gradient ``gb`` (O,), the
    last step first.  ``runs`` are (d, x) pairs in step order, d (S, R, O)
    and x (S, R, K): S steps of R rows each.

    The steps run in groups of at most ``group`` (``step_groups``), the
    caller's share of ``STEP_GROUP_BYTES``, and ``gw`` in blocks of as many
    rows as ``numkit.BLOCK_BYTES`` holds (one at least), so that a block
    stays in cache while every group adds into it.  Per group there is one
    stacked row sum, and per group and row block one stacked product; one
    reduce per gradient then adds the group's steps in order
    (``_add_last_first``).  These are the bits of one ``+=`` per step.
    """
    groups = [(d[g], x[g]) for d, x in reversed(runs)
              for g in step_groups(len(d), group)]
    for d, _ in groups:
        _add_last_first(gb, d.sum(axis=1))
    rows = max(1, numkit.BLOCK_BYTES // gw[0].nbytes)
    for v in range(0, len(gw), rows):
        for d, x in groups:
            _add_last_first(gw[v:v + rows],
                            np.matmul(d[:, :, v:v + rows].transpose(0, 2, 1), x))


def input_backward(p, z, terms, i, da, dw, grads):
    """The part of the backward that feeds no earlier step, for S steps of
    B rows of ``step_backward`` output: every cell parameter gradient, the
    interval gates' chain and the input gradient.

    ``z`` (S, B, n_c + n_i) holds the rows' ``[h_prev | x]``, x read in
    place from it, ``terms`` their ``interval_terms`` (S * B rows,
    step-major), ``i`` (S, B, n_c) their input gates, ``da`` (S, G, >= B,
    n_c) and ``dw`` (S, 2, B, n_c) the steps' ``step_backward`` output.
    Adds each step's rank-B sums into the cell's gradients in ``grads`` (a
    ``p.zeros_like()``), the last step first, each gate group's block in
    place: ``add_step_sums`` for ``w_z``/``b_z`` and ``w_x``/``b_x``, and
    one stacked reduction per sum for ``w_to``, ``w_do`` and ``w_u``, all on
    groups of as many steps as ``STEP_GROUP_BYTES`` holds of the stacked
    ``w_z`` and ``w_x`` products (one step at least).  A pinned gate is
    exactly 1, so its gradients stay exactly 0.  Returns the input gradient
    (S * B, n_i).  As in the forward, one product over all S * B rows gives
    each row the bits of a per-step one.
    """
    u, inner, iv, _ = terms
    steps, b, _ = z.shape
    n = p.n_c
    # the rows' gate pre-activation gradients in the column order of w_z
    da = da[:, :, :b].transpose(0, 2, 1, 3).reshape(steps, b, -1)
    dx = numkit.matmul_rows(da.reshape(steps * b, -1), p.blocks["w_z"][:, n:])
    group = max(1, STEP_GROUP_BYTES // sum(
        p.blocks[w].nbytes for w in ("w_z", "w_x") if w in p.blocks))
    add_step_sums(grads.blocks["w_z"], grads.blocks["b_z"], [(da, z)], group)
    if iv is None:
        return dx
    # d/d(t1, t2, d1, d2) = (dw1 * i * d1, dw2 * i * d2, dw1 * i * t1, dw2 * i * t2)
    dwi = (dw * i[:, None]).transpose(1, 0, 2, 3).reshape(2, -1, n)
    dpre = np.concatenate([dwi * iv[2:], dwi * iv[:2]]) * iv * (1.0 - iv)
    dw_u = dpre * inner
    dw_u *= 1.0 - inner
    dw_u *= u
    dw_u = dw_u.reshape(4, steps, b, n).sum(axis=2).transpose(1, 0, 2)
    dpre = dpre.transpose(1, 0, 2).reshape(steps * b, -1)
    dx += numkit.matmul_rows(dpre, p.blocks["w_x"])
    add_step_sums(grads.blocks["w_x"], grads.blocks["b_x"],
                  [(dpre.reshape(steps, b, -1), z[:, :, n:])], group)
    u = u.reshape(4, steps, b, 1)
    for last_first in step_groups(steps, group):
        d_o = da[last_first, :, -2 * n:-n]
        _add_last_first(grads["w_to"], (u[0, last_first] * d_o).sum(axis=1))
        _add_last_first(grads["w_do"], (u[2, last_first] * d_o).sum(axis=1))
        _add_last_first(grads.blocks["w_u"], dw_u[last_first].reshape(-1, 4 * n))
    return dx
