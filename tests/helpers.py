"""Shared test utilities: an unrolled linear-readout loss over the raw cells
and its gradients through the library's one-step backward
(``one_step_backward``: ``cells.step_backward`` then ``cells.input_backward``),
used as the finite-difference harness; a generic central-difference oracle
that perturbs one coordinate at a time; and plain-loop oracles of the
batched library paths: a per-gate cell forward, a streaming model step, a
per-step unroll through the public cell forward, a per-step cell backward
that shares no code with ``cells``' backward, the per-step parameter sums
of ``cells.input_backward``, a per-step training readout and embedding
scatter, a one-logit-vector rank and a rank by sorting every candidate, a
one-row softmax cross-entropy, the two-branch sigmoid, a one-user-at-a-time
evaluation, a per-tensor Adam step and gradient clipping, and the product
in fixed 16-row tiles, and per-object check-in cleaning and corpus
building with a scalar haversine.  Also a
model whose finite parameters overflow the readout, the largest
pre-activation or logit in plain numpy, a user's test transitions and a
corpus's raw-id index, which only tests read."""

import math

import numpy as np

from stpoi import cells
from stpoi import data
from stpoi import model
from stpoi import numkit


def random_cell_setup(variant, n_i, n_c, steps, rng, ablation=None):
    """Random params and a random input sequence with positive intervals."""
    p = cells.init_params(variant, n_i, n_c, rng)
    seq = [
        cells.StepInput(
            x=rng.uniform(-0.8, 0.8, size=n_i),
            dt=float(rng.uniform(0.5, 3.0)),
            dd=float(rng.uniform(0.5, 3.0)),
        )
        for _ in range(steps)
    ]
    readouts = [rng.uniform(-1.0, 1.0, size=n_c) for _ in range(steps)]
    return p, seq, readouts


def unrolled_readout_loss(variant, p, seq, readouts, ablation=None):
    """Forward the cell over seq; loss = sum_t readouts[t] . h_t."""
    state = cells.zero_state(p.n_c)
    loss = 0.0
    caches = []
    for step, r in zip(seq, readouts):
        state, cache = cells.cell_forward(variant, p, step, state, ablation)
        loss += float(state.h[0] @ r)
        caches.append(cache)
    return loss, caches


def one_step_backward(p, cache, gh, gc, grads):
    """The library backward through one ``cell_forward`` step:
    ``cells.step_backward`` on the step's gates, then
    ``cells.input_backward`` on its rows.  Adds the parameter gradients into
    ``grads`` and returns ``(grad_h_prev, grad_c_prev, grad_x)``."""
    B, n = cache.i.shape
    gates = cache.buffers
    gates.hoist()
    da = np.zeros((1, p.blocks["w_z"].shape[0] // n, max(B, numkit.TILE_ROWS), n))
    dw = np.empty((1, 2, B, n))
    # the library's interval terms are gate-major, (4, B, ·)
    terms = tuple(None if a is None else a.transpose(1, 0, 2)
                  for a in (cache.u, cache.inner, cache.iv)) + (None,)
    dc = np.zeros((2, B, n))
    dc[1] = gc
    dh = cells.step_backward(p, gates, 0, terms[2], gh, dc, da[0], dw[0])
    dx = cells.input_backward(p, cache.z[None], terms, cache.i[None], da, dw,
                              grads)
    return dh, dc[1], dx


def unrolled_readout_grads(variant, p, seq, readouts, ablation=None):
    """Analytic gradients of unrolled_readout_loss via one_step_backward;
    returns ``(loss, grads, dxs)`` with one (n_i,) input gradient per step."""
    loss, caches = unrolled_readout_loss(variant, p, seq, readouts, ablation)
    grads = p.zeros_like()
    dh = np.zeros((1, p.n_c))
    dc = np.zeros((1, p.n_c))
    dxs = []
    for cache, r in zip(reversed(caches), reversed(readouts)):
        dh, dc, dx = one_step_backward(p, cache, dh + r, dc, grads)
        dxs.append(dx[0])
    return loss, grads, dxs[::-1]


def per_gate_forward(variant, p, step, prev, ablation=None):
    """Oracle of cells.cell_forward: one product and one checked
    nonlinearity per gate, each interval gate on its own, a pinned gate the
    ones vector.  Returns ``(CellState, gates)`` with ``gates`` mapping
    i, f (None for st-clstm), g, o and each interval gate to its (B, n_c)
    value."""
    ablation = ablation or cells.GateAblation()
    has_forget, has_intervals = "w_f" in p, "w_to" in p
    x, dt, dd, c_prev, h_prev = cells._promote(p, step, prev, has_intervals)
    z = np.concatenate([h_prev, x], axis=1)
    i = numkit.sigmoid(numkit.affine(p["w_i"], z, p["b_i"]))
    g = np.tanh(numkit.affine(p["w_c"], z, p["b_c"]))
    a_o = numkit.affine(p["w_o"], z, p["b_o"])
    f = None
    if has_forget:
        f = numkit.sigmoid(numkit.affine(p["w_f"], z, p["b_f"]))
    gates = {}
    w1 = w2 = i
    if has_intervals:
        for gate in cells.INTERVAL_GATES:
            if getattr(ablation, f"fix_{gate}"):
                gates[gate] = np.ones((x.shape[0], p.n_c))
                continue
            u = dt if gate[0] == "t" else dd
            inner = numkit.sigmoid(u[:, None] * p[f"w_{gate}"][None, :])
            gates[gate] = numkit.sigmoid(
                numkit.affine(p[f"w_x{gate}"], x, p[f"b_{gate}"]) + inner)
        a_o = a_o + dt[:, None] * p["w_to"] + dd[:, None] * p["w_do"]
        w1 = i * gates["t1"] * gates["d1"]
        w2 = i * gates["t2"] * gates["d2"]
    o = numkit.sigmoid(a_o)
    k1, k2 = (f, f) if has_forget else (1.0 - w1, 1.0 - i)
    c_hat = k1 * c_prev + w1 * g
    c = k2 * c_prev + w2 * g if has_intervals else c_hat
    h = o * np.tanh(c_hat)
    gates.update(i=i, f=f, g=g, o=o)
    return cells.CellState(c=c, h=h, c_hat=c_hat), gates


def overflowing_readout(corpus):
    """An st-clstm model (n_i 4, n_c 8) over ``corpus`` whose parameters
    are finite but whose logits overflow: z-gate biases of 10 keep every h
    well above 0, w_out is 1e308 and b_out alternates +-1.7e308."""
    cfg = model.ModelConfig(variant="st-clstm", vocab=corpus.n_pois, n_i=4,
                            n_c=8)
    params = model.init_model(cfg, np.random.default_rng(3))
    params.blocks["b_z"][...] = 10.0
    params.w_out[...] = 1e308
    params.b_out[...] = np.where(np.arange(cfg.vocab) % 2, 1.7e308, -1.7e308)
    return params, cfg


def largest_sum(params, cfg, seqs):
    """The largest |value| of any gate pre-activation, inner interval term
    u * w_u or logit of the model over ``(pois, dts, dds, ...)`` sequences,
    computed in plain numpy: one sequence, one step and one gate at a time,
    each sigmoid as (1 + tanh(a / 2)) / 2, which cannot overflow."""
    def sig(a):
        return 0.5 * (1.0 + np.tanh(0.5 * a))

    p, n = params, cfg.n_c
    largest = 0.0
    for pois, dts, dds, *_ in seqs:
        h, c = np.zeros(n), np.zeros(n)
        for poi, dt, dd in zip(pois, dts, dds):
            x = p.embedding[poi]
            z = np.concatenate([h, x])
            pre = {g: p[f"w_{g}"] @ z + p[f"b_{g}"] for g in "ifoc" if f"w_{g}" in p}
            gates = dict.fromkeys(cells.INTERVAL_GATES, 1.0)
            if "w_to" in p:
                pre["o"] = pre["o"] + dt * p["w_to"] + dd * p["w_do"]
                for gate in cells.INTERVAL_GATES:
                    pre["u" + gate] = (dt if gate[0] == "t" else dd) * p[f"w_{gate}"]
                    pre[gate] = (p[f"w_x{gate}"] @ x + p[f"b_{gate}"]
                                 + sig(pre["u" + gate]))
                    if not getattr(cfg.ablation, f"fix_{gate}"):
                        gates[gate] = sig(pre[gate])
            largest = max(largest, *(np.abs(a).max() for a in pre.values()))
            i, o, g = sig(pre["i"]), sig(pre["o"]), np.tanh(pre["c"])
            w1 = i * gates["t1"] * gates["d1"]
            w2 = i * gates["t2"] * gates["d2"]
            if "w_f" in p:
                f = sig(pre["f"])
                c_hat, c = f * c + w1 * g, f * c + w2 * g
            else:
                c_hat, c = (1.0 - w1) * c + w1 * g, (1.0 - i) * c + w2 * g
            h = o * np.tanh(c_hat)
            largest = max(largest, np.abs(p.w_out @ h + p.b_out).max())
    return largest


def user_test_steps(u):
    """A user's test transitions ``(pois, dts, dds, targets)``: the input
    POIs from the last training record on, and the POIs they lead to."""
    k = u.n_train
    return u.pois[k - 1:-1], u.dts[k - 1:], u.dds[k - 1:], u.pois[k:]


def poi_index(corpus):
    """Raw POI id -> dense id."""
    return {raw: i for i, raw in enumerate(corpus.vocab)}


def central_diff(fn, arr, eps=1e-5):
    """Central finite differences of scalar fn() w.r.t. every entry of arr,
    mutating arr in place and restoring it."""
    out = np.zeros(arr.shape)
    flat = arr.reshape(-1)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + eps
        up = fn()
        flat[j] = orig - eps
        down = fn()
        flat[j] = orig
        out.reshape(-1)[j] = (up - down) / (2.0 * eps)
    return out


def rel_err(a, b, floor=1e-3):
    """Max mixed relative/absolute error between arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def step(params, cfg, state, poi, dt, dd):
    """Advance one user by one transition; returns ``(logits, new_state)``
    with logits (vocab,) and the state a batch of one.  The streaming form
    of ``model.forward_batch`` followed by ``model.readout``."""
    if not 0 <= poi < cfg.vocab:
        raise IndexError(f"step: POI id {poi} out of vocabulary ({cfg.vocab})")
    x = params.embedding[poi]
    new_state, _ = cells.cell_forward(cfg.variant, params,
                                      cells.StepInput(x, dt, dd), state,
                                      cfg.ablation)
    return model.readout(params, new_state.h)[0], new_state


def per_step_unroll(params, cfg, pois, dts, dds):
    """Oracle of model._unroll: the public ``cells.cell_forward`` over padded
    (B, T) inputs, one step at a time with its own embedding gather and
    interval gates; yields ``(state, cache)`` after each step."""
    state = cells.zero_state(cfg.n_c, batch=pois.shape[0])
    for t in range(pois.shape[1]):
        state, cache = cells.cell_forward(
            cfg.variant, params,
            cells.StepInput(params.embedding[pois[:, t]], dts[:, t], dds[:, t]),
            state, cfg.ablation)
        yield state, cache


def per_step_forward(params, cfg, seqs):
    """Oracle of model.forward_batch through ``per_step_unroll``: every row
    steps the whole padded length, in batch order, and each state past a
    sequence's length is then zeroed."""
    pois, dts, dds, lengths = model._pad(seqs, cfg, "per_step_forward")
    hs = np.empty(pois.shape + (cfg.n_c,))
    for t, (state, _) in enumerate(per_step_unroll(params, cfg, pois, dts, dds)):
        hs[:, t] = state.h
    hs[np.arange(pois.shape[1]) >= lengths[:, None]] = 0.0
    return hs


def per_step_cell_backward(p, cache, grad_h, grad_c, grads):
    """Oracle of the model's backward through one step, independent of
    ``cells``' backward: every gradient of the step in one pass, the input
    gradient sliced from the full-width product ``da @ w_z`` and the
    stacked interval-gate chain per step, the row products in 16-row tiles
    (``matmul_in_tiles``).  Adds the parameter gradients into ``grads`` and
    returns ``(grad_h_prev, grad_c_prev, grad_x)`` as ``one_step_backward``
    does."""
    i, g, o, f, iv = cache.i, cache.g, cache.o, cache.f, cache.iv
    tch = cache.tanh_c_hat
    c_prev = cache.c_prev
    B, n = i.shape
    # pre-activation gradients in the column order of w_z: i[, f], o, c
    da = np.empty((B, p.blocks["w_z"].shape[0]))

    do = grad_h * tch
    da_o = da[:, -2 * n:-n]
    np.multiply(do * o, 1.0 - o, out=da_o)
    dch = grad_h * o * (1.0 - tch * tch)

    # c_hat = k1 * c_prev + w1 * g  and  c = k2 * c_prev + w2 * g
    dk1, dw1 = dch * c_prev, dch * g
    dk2, dw2 = grad_c * c_prev, grad_c * g
    dg = dch * cache.w1 + grad_c * cache.w2
    dc_prev = dch * cache.k1 + grad_c * cache.k2
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
        grads.blocks["w_x"] += dpre.T @ cache.z[:, n:]
        grads.blocks["b_x"] += dpre.sum(axis=0)
        grads["w_to"] += (cache.u[:, 0] * da_o).sum(axis=0)
        grads["w_do"] += (cache.u[:, 2] * da_o).sum(axis=0)

    np.multiply(di * i, 1.0 - i, out=da[:, :n])
    np.multiply(dg, 1.0 - g * g, out=da[:, -n:])
    grads.blocks["w_z"] += da.T @ cache.z
    grads.blocks["b_z"] += da.sum(axis=0)
    dz = matmul_in_tiles(da, p.blocks["w_z"])
    dx = dz[:, n:]
    if iv is not None:
        dx = dx + matmul_in_tiles(dpre, p.blocks["w_x"])
    return dz[:, :n], dc_prev, dx


def per_step_input_sums(p, z, terms, i, da, dw, grads):
    """Oracle of cells.input_backward, independent of it: for S steps of B
    rows (its arguments, gate-major ``terms``/``da``/``dw``), one step at a
    time from the last, each step's rows in row-major (B, ·) form, every
    parameter sum added on its own into ``grads``, and the input gradient
    from 16-row tiles (``matmul_in_tiles``).  Returns it, (S * B, n_i)."""
    u, inner, iv, _ = terms
    S, B, _ = z.shape
    n = p.n_c
    dxs = []
    for s in reversed(range(S)):
        d = np.concatenate(list(da[s, :, :B]), axis=1)     # (B, G * n)
        grads.blocks["w_z"] += d.T @ z[s]
        grads.blocks["b_z"] += d.sum(axis=0)
        dx = matmul_in_tiles(d, p.blocks["w_z"][:, n:])
        if iv is not None:
            rows = slice(s * B, (s + 1) * B)
            us, inn, gates = (a[:, rows].transpose(1, 0, 2) for a in (u, inner, iv))
            dw1, dw2 = dw[s, 0] * i[s], dw[s, 1] * i[s]
            t1, t2, d1, d2 = gates.transpose(1, 0, 2)
            dgate = np.stack([dw1 * d1, dw2 * d2, dw1 * t1, dw2 * t2], axis=1)
            dpre = dgate * gates * (1.0 - gates)
            da_o = d[:, -2 * n:-n]
            grads["w_to"] += (us[:, 0] * da_o).sum(axis=0)
            grads["w_do"] += (us[:, 2] * da_o).sum(axis=0)
            grads.blocks["w_u"] += (us * (dpre * inn * (1.0 - inn))).sum(axis=0).reshape(-1)
            dpre = dpre.reshape(B, -1)
            grads.blocks["w_x"] += dpre.T @ z[s, :, n:]
            grads.blocks["b_x"] += dpre.sum(axis=0)
            dx = dx + matmul_in_tiles(dpre, p.blocks["w_x"])
        dxs.append(dx)
    return np.concatenate(dxs[::-1])


def per_step_loss_and_grads(params, cfg, seqs):
    """Oracle of model.batch_loss_and_grads: ``per_step_unroll`` steps the
    cell and ``per_step_cell_backward`` steps it back; the readout, softmax
    and ``dlog @ w_out`` run inside the forward loop on all B rows of each
    step, padded rows masked; the whole ``w_out`` accumulator takes each
    step's rank-B sum and the embedding each step's per-POI sums in the
    backward loop."""
    numkit.check_finite(params.tensors(), "per_step_loss_and_grads")
    pois, dts, dds, lengths = model._pad(seqs, cfg, "per_step_loss_and_grads")
    B, T = pois.shape
    targets = np.zeros((B, T), dtype=np.int64)
    for b, seq in enumerate(seqs):
        targets[b, :lengths[b]] = seq[3]
    mask = (np.arange(T) < lengths[:, None]).astype(float)

    caches, hs, dlogits = [], [], []
    total_loss = 0.0
    for t, (state, cache) in enumerate(per_step_unroll(params, cfg, pois, dts, dds)):
        losses, dlog = numkit.softmax_xent_rows(model.readout(params, state.h),
                                                targets[:, t])
        total_loss += float(losses @ mask[:, t])
        dlogits.append(dlog * mask[:, t][:, None])
        caches.append(cache)
        hs.append(state.h)

    n_steps = float(mask.sum())
    grads = params.zeros_like()
    dh_next = np.zeros((B, cfg.n_c))
    dc_next = np.zeros((B, cfg.n_c))
    for t in reversed(range(T)):
        dlog = dlogits[t]
        grads["w_out"] += dlog.T @ hs[t]
        grads["b_out"] += dlog.sum(axis=0)
        dh = matmul_in_tiles(dlog, params.w_out) + dh_next
        dh_prev, dc_prev, dx = per_step_cell_backward(params, caches[t], dh,
                                                      dc_next, grads)
        uniq, inv = np.unique(pois[:, t], return_inverse=True)
        sums = np.zeros((len(uniq), cfg.n_i))
        np.add.at(sums, inv, dx)
        grads["embedding"][uniq] += sums
        if cfg.bptt_cap is not None and t % cfg.bptt_cap == 0:
            dh_next = np.zeros((B, cfg.n_c))
            dc_next = np.zeros((B, cfg.n_c))
        else:
            dh_next, dc_next = dh_prev, dc_prev
    for name in grads:
        grads[name] /= n_steps
    return total_loss / n_steps, grads


def rank_of(logits, target, exclude=()):
    """1-based rank of ``target`` under logit-descending, id-ascending order,
    without ``exclude`` (never the target itself); oracle of eval._ranks."""
    logits = np.asarray(logits, dtype=float)
    keep = np.ones(logits.shape[0], dtype=bool)
    for poi in exclude:
        keep[poi] = False
    keep[target] = True
    lt = logits[target]
    higher = int(np.sum(keep & (logits > lt)))
    tied_before = int(np.sum(keep[:target] & (logits[:target] == lt)))
    return 1 + higher + tied_before


def brute_force_rank(logits, target, exclude=()):
    """1-based place of ``target`` in the plain-Python sort of every
    candidate id but the excluded ones (never the target itself) by logit
    descending, then id ascending; an oracle of eval._ranks that shares no
    code with it or with ``rank_of``."""
    values = [float(v) for v in logits]
    excluded = {int(i) for i in exclude} - {int(target)}
    candidates = sorted((i for i in range(len(values)) if i not in excluded),
                        key=lambda i: (-values[i], i))
    return candidates.index(int(target)) + 1


def softmax_xent(logits, target):
    """Cross-entropy of softmax(logits) against one class; ``(loss, grad)``.

    Oracle of numkit.softmax_xent_rows for one row.  A target at the maximum
    takes the loss as log1p of the other classes' mass, so tiny losses keep
    full precision.
    """
    z = np.asarray(logits, dtype=float)
    n = z.shape[0]
    if not 0 <= target < n:
        raise IndexError(f"softmax_xent: target {target} out of range [0, {n})")
    m = z.max()
    ex = np.exp(z - m)
    total = ex.sum()
    if z[target] == m:
        loss = float(np.log1p(np.delete(ex, target).sum()))
    else:
        loss = float(np.log(total) - (z[target] - m))
    grad = ex / total
    grad[target] -= 1.0
    return loss, grad


def sigmoid_two_branch(x):
    """The masked two-branch logistic: 1 / (1 + exp(-x)) where x >= 0 and
    exp(x) / (1 + exp(x)) elsewhere; oracle of numkit.sigmoid."""
    a = np.asarray(x, dtype=float)
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ex = np.exp(a[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def streaming_ranks(params, cfg, corpus, *, cohort="all", cold_threshold=5,
                    exclude_visited=False):
    """Oracle of eval.collect_ranks: each cohort user on its own, one
    ``step`` per triple over its training then its test inputs, ranked by
    ``rank_of`` at every test step.  Returns (user, step, rank) triples."""
    out = []
    for u in corpus.users:
        if cohort == "cold" and u.n_train >= cold_threshold:
            continue
        state = cells.zero_state(cfg.n_c)
        visited = set()
        train_in, train_dt, train_dd, _ = u.train_steps()
        for t in range(len(train_in)):
            _, state = step(params, cfg, state, int(train_in[t]),
                            train_dt[t], train_dd[t])
            visited.add(int(train_in[t]))
        test_in, test_dt, test_dd, test_tg = user_test_steps(u)
        for t in range(len(test_in)):
            logits, state = step(params, cfg, state, int(test_in[t]),
                                 test_dt[t], test_dd[t])
            visited.add(int(test_in[t]))
            exclude = visited if exclude_visited else ()
            out.append((u.user, t, rank_of(logits, int(test_tg[t]), exclude)))
    return out


def adam_step_per_tensor(tensors, grads, m, v, t, lr=1e-3, beta1=0.9,
                         beta2=0.999, eps=1e-8):
    """Oracle of optim.adam_step: step ``t`` (counted from 1) of Adam, one
    tensor at a time, on name -> array dicts of parameters, gradients and
    first/second moments, all updated in place."""
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in tensors.items():
        g = grads[name]
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * (g * g)
        p -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)


def clip_per_tensor(grads, max_norm):
    """Oracle of optim.clip_global_norm on a name -> array dict: the norm
    summed and the scale applied one tensor at a time."""
    sq = 0.0
    for g in grads.values():
        sq += float(np.sum(g * g))
    norm = float(np.sqrt(sq))
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


def matmul_in_tiles(a, m):
    """Oracle of numkit.matmul_rows: (B, K) @ (K, O) as one BLAS call per
    16-row tile, the last tile zero-padded, with the last ``O % 8`` columns
    taken from a product against those columns zero-padded to 8."""
    n, k = a.shape
    width = m.shape[1]
    main = width - width % 8
    height = -(-n // 16) * 16
    tiles = np.zeros((height, k))
    tiles[:n] = a
    pad = np.zeros((k, 8))
    pad[:, :width - main] = m[:, main:]
    out = np.empty((height, width))
    for r in range(0, height, 16):
        np.matmul(tiles[r:r + 16], m[:, :main], out=out[r:r + 16, :main])
        out[r:r + 16, main:] = (tiles[r:r + 16] @ pad)[:, :width - main]
    return out[:n]


def clean_per_object(checkins, min_user_checkins=10, min_poi_users=10):
    """Oracle of data.clean: each sweep counts with a dict of users and a
    dict of per-POI visitor sets, one check-in object at a time."""
    current = list(checkins)
    while True:
        by_user = {}
        for c in current:
            by_user[c.user] = by_user.get(c.user, 0) + 1
        kept = [c for c in current if by_user[c.user] >= min_user_checkins]
        poi_users = {}
        for c in kept:
            poi_users.setdefault(c.poi, set()).add(c.user)
        kept2 = [c for c in kept if len(poi_users[c.poi]) >= min_poi_users]
        if len(kept2) == len(current):
            return kept2
        current = kept2


def haversine_scalar(lat1, lon1, lat2, lon2):
    """Great-circle km between two points in degrees, one pair at a time."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2.0) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2.0) ** 2
    a = min(a, 1.0)
    return 6371.0 * 2.0 * math.atan2(math.sqrt(a), math.sqrt(1.0 - a))


def build_corpus_per_object(checkins, train_frac=0.7, clip_dt=None, clip_dd=None,
                            log_scale=False):
    """Oracle of data.build_corpus on finite input: each user's records
    sorted by (ts, input index) as objects, POI ids handed out along that
    walk, and every interval computed on its own pair."""
    order, grouped = [], {}
    for idx, c in enumerate(checkins):
        if c.user not in grouped:
            grouped[c.user] = []
            order.append(c.user)
        grouped[c.user].append((c.ts, idx, c))
    vocab, index, users = [], {}, []
    for user in order:
        recs = [c for _, _, c in sorted(grouped[user], key=lambda t: (t[0], t[1]))]
        if len(recs) < 2:
            continue
        pois = np.empty(len(recs), dtype=np.int64)
        for j, c in enumerate(recs):
            if c.poi not in index:
                index[c.poi] = len(vocab)
                vocab.append(c.poi)
            pois[j] = index[c.poi]
        dts = np.empty(len(recs) - 1)
        dds = np.empty(len(recs) - 1)
        for j in range(len(recs) - 1):
            a, b = recs[j], recs[j + 1]
            dts[j] = (b.ts - a.ts) / 3600.0
            dds[j] = haversine_scalar(a.lat, a.lon, b.lat, b.lon)
        if clip_dt is not None:
            np.minimum(dts, clip_dt, out=dts)
        if clip_dd is not None:
            np.minimum(dds, clip_dd, out=dds)
        if log_scale:
            dts = np.log1p(dts)
            dds = np.log1p(dds)
        n_train = max(1, min(len(recs) - 1, int(math.floor(train_frac * len(recs) + 0.5))))
        users.append(data.UserSeq(user=user, pois=pois, dts=dts, dds=dds, n_train=n_train))
    meta = {"train_frac": train_frac, "interval_transform": {
        "clip_dt": clip_dt, "clip_dd": clip_dd, "log_scale": log_scale}}
    return data.Corpus(users=users, vocab=vocab, meta=meta)
