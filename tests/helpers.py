"""Shared test utilities: an unrolled linear-readout loss over the raw cells
(used as the finite-difference harness), a generic central-difference
oracle that perturbs one coordinate at a time, and plain-loop oracles of
the batched library paths: a per-gate cell forward, a streaming model step,
a per-step training readout, a one-logit-vector rank, a one-row softmax
cross-entropy, the two-branch sigmoid and a one-user-at-a-time evaluation.
Also a user's test transitions and a corpus's raw-id index, which only
tests read."""

import numpy as np

from stpoi import cells
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


def unrolled_readout_grads(variant, p, seq, readouts, ablation=None):
    """Analytic gradients of unrolled_readout_loss via cell_backward;
    returns ``(loss, grads, dxs)`` with one (n_i,) input gradient per step."""
    loss, caches = unrolled_readout_loss(variant, p, seq, readouts, ablation)
    grads = p.zeros_like()
    dh = np.zeros((1, p.n_c))
    dc = np.zeros((1, p.n_c))
    dxs = []
    for cache, r in zip(reversed(caches), reversed(readouts)):
        dh, dc, dx = cells.cell_backward(p, cache, dh + r, dc, grads)
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
    g = numkit.tanh_v(numkit.affine(p["w_c"], z, p["b_c"]))
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


def per_step_loss_and_grads(params, cfg, seqs):
    """Oracle of model.batch_loss_and_grads: the readout, softmax and
    ``dlog @ w_out`` run inside the forward loop on all B rows of each step,
    padded rows masked, and the whole ``w_out`` accumulator takes each
    step's rank-B sum in the backward loop."""
    numkit.check_finite(params.tensors(), "per_step_loss_and_grads")
    pois, dts, dds, lengths = model._pad(seqs, cfg, "per_step_loss_and_grads")
    B, T = pois.shape
    targets = np.zeros((B, T), dtype=np.int64)
    for b, seq in enumerate(seqs):
        targets[b, :lengths[b]] = seq[3]
    mask = (np.arange(T) < lengths[:, None]).astype(float)

    caches, hs, dlogits = [], [], []
    total_loss = 0.0
    for t, (state, cache) in enumerate(model._unroll(params, cfg, pois, dts, dds)):
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
        dh = numkit.matmul_rows(dlog, params.w_out) + dh_next
        dh_prev, dc_prev, dx = cells.cell_backward(params, caches[t], dh,
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
