"""Check-in data pipeline.

Raw check-ins come from tab-separated location-based social network dumps
(``snap`` format) or a comma-separated variant (``csv``).  Both carry one
check-in per line in the field order

    user, time, latitude, longitude, poi

where time is ISO-8601 (a trailing ``Z`` meaning UTC) or plain unix seconds.
The csv variant may start with a header line, which is detected and skipped.

The pipeline is: load -> clean (drop rare users and rare POIs until a fixed
point) -> build_corpus (per-user chronological ordering, 70/30 split, and
transition triples).  A transition triple pairs the POI being left with the
elapsed hours and travelled km toward the next check-in; the POI of that
next check-in is the prediction target.  Each user therefore contributes
``n_train - 1`` training steps and ``n - n_train`` evaluation steps, with
the step that crosses the split belonging to evaluation so no test target
is ever trained on.

``synth_corpus`` fabricates corpora with two behavioural patterns used by
the test and experiment suites (see the function docstring).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import container

log = logging.getLogger("stpoi.data")

EARTH_RADIUS_KM = 6371.0


class FormatError(ValueError):
    """Raised when an input file is mostly unparseable for its format."""


@dataclass
class CheckIn:
    user: str
    ts: float          # unix seconds
    lat: float
    lon: float
    poi: str


@dataclass
class UserSeq:
    """One user's full chronological record chain in dense POI ids.

    ``dts[t]``/``dds[t]`` are the hours and km between record t and t+1.
    ``n_train`` counts the records in the training split; the first
    ``n_train - 1`` transitions train, the rest evaluate.
    """

    user: str
    pois: np.ndarray       # int64, length n
    dts: np.ndarray        # float64, length n-1
    dds: np.ndarray        # float64, length n-1
    n_train: int

    def train_steps(self):
        k = self.n_train
        return self.pois[: k - 1], self.dts[: k - 1], self.dds[: k - 1], self.pois[1:k]


@dataclass
class Corpus:
    users: list
    vocab: list                      # dense id -> raw poi id
    meta: dict = field(default_factory=dict)

    @property
    def n_pois(self) -> int:
        return len(self.vocab)

    def stats(self) -> dict:
        return {
            "users": len(self.users),
            "pois": len(self.vocab),
            "records": int(sum(len(u.pois) for u in self.users)),
            "train_transitions": int(sum(u.n_train - 1 for u in self.users)),
            "test_transitions": int(
                sum(len(u.pois) - u.n_train for u in self.users)
            ),
        }


def _hop_km(lats, lons) -> list:
    """Great-circle km between consecutive (lat, lon) points in degrees.

    One haversine per pair through ``math``, with the terms in the order of
    the scalar formula, so each distance has the bits of a scalar
    evaluation; each point's radians and cosine are taken once.
    """
    sin, radians, sqrt, atan2 = math.sin, math.radians, math.sqrt, math.atan2
    rad = [radians(x) for x in lats]
    cos = [math.cos(x) for x in rad]
    # min: rounding lifts the term past 1 at (near-)antipodal points
    terms = (
        min(sin((p2 - p1) / 2.0) ** 2 + c1 * c2 * sin(radians(l2 - l1) / 2.0) ** 2, 1.0)
        for p1, p2, c1, c2, l1, l2 in zip(rad, rad[1:], cos, cos[1:], lons, lons[1:])
    )
    return [EARTH_RADIUS_KM * 2.0 * atan2(sqrt(a), sqrt(1.0 - a)) for a in terms]


def haversine(lat1, lon1, lat2, lon2) -> float:
    """Great-circle distance in km between two (lat, lon) points in degrees."""
    return _hop_km((lat1, lat2), (lon1, lon2))[0]


def load_checkins(path, fmt: str = "snap"):
    """Parse a check-in file; returns a list of CheckIn in file order.

    Malformed lines are skipped with a warning tally; if more than half of
    the non-blank lines fail to parse the file is rejected as being in the
    wrong format, as is a file that is not UTF-8 text.  A leading byte-order
    mark is not part of the first user id.  An empty file is legal and
    yields an empty list.
    """
    if fmt not in ("snap", "csv"):
        raise ValueError(f"unknown format {fmt!r}; expected 'snap' or 'csv'")
    sep = "\t" if fmt == "snap" else ","
    fromisoformat, utc, isfinite = datetime.fromisoformat, timezone.utc, math.isfinite
    out = []
    seen = 0
    bad = 0
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                parts = line.rstrip("\n").split(sep)
                try:
                    if len(parts) != 5:
                        raise ValueError(f"expected 5 fields, got {len(parts)}")
                    user, when, lat, lon, poi = parts
                    user, poi = user.strip(), poi.strip()
                    if not user or not poi:
                        raise ValueError("empty user or poi id")
                    when = when.strip()
                    try:    # ISO-8601, naive meaning UTC
                        stamp = fromisoformat(when.replace("Z", "+00:00"))
                        if stamp.tzinfo is None:
                            stamp = stamp.replace(tzinfo=utc)
                        ts = stamp.timestamp()
                    except ValueError:
                        ts = float(when)    # plain unix seconds, or malformed
                    lat, lon = float(lat), float(lon)
                    if not (-90.0 <= lat <= 90.0) or not (-180.0 <= lon <= 180.0):
                        raise ValueError(f"coordinates out of range: {lat}, {lon}")
                    if not isfinite(ts):
                        raise ValueError("non-finite timestamp")
                except (ValueError, OverflowError):
                    if fmt == "csv" and lineno == 1:
                        continue   # header line, not data
                    seen += 1
                    bad += 1
                    continue
                out.append(CheckIn(user, ts, lat, lon, poi))
                seen += 1
    except UnicodeDecodeError:
        with open(path, "rb") as fh:    # offsets of the whole file, not of
            raw = fh.read()             # the decoder's read chunk
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text at byte {exc.start}") from None
        raise
    if seen == 0:
        log.warning("%s: no check-ins found", path)
        return []
    if bad > 0:
        log.warning("%s: skipped %d of %d malformed lines", path, bad, seen)
    if bad * 2 > seen:
        raise FormatError(
            f"{path}: {bad}/{seen} lines malformed; is this really {fmt} format?"
        )
    return out


def _codes(values):
    """Dense int64 codes of ``values`` in order of first appearance, and the
    distinct values in code order."""
    index = {}
    codes = np.array([index.setdefault(v, len(index)) for v in values], dtype=np.int64)
    return codes, list(index)


def clean(checkins, min_user_checkins: int = 10, min_poi_users: int = 10):
    """Iteratively drop users with too few check-ins and POIs visited by too
    few distinct users, until neither rule removes anything.

    Removing a POI shrinks user histories which can push a user under the
    threshold on the next sweep, hence the fixed-point loop.  The sweeps
    count over integer user and POI codes; the kept check-ins are returned
    in input order.
    """
    checkins = list(checkins)
    users, names = _codes([c.user for c in checkins])
    pois, poi_names = _codes([c.poi for c in checkins])
    n_users = len(names)
    # the distinct (POI, user) pairs, and each check-in's pair
    pairs, pair_of = np.unique(pois * n_users + users, return_inverse=True)
    pair_poi = pairs // max(n_users, 1)
    alive = np.ones(len(checkins), dtype=bool)
    while True:
        kept = alive & (np.bincount(users[alive], minlength=n_users)[users]
                        >= min_user_checkins)
        visited = np.bincount(pair_of[kept], minlength=pairs.size) > 0
        kept &= np.bincount(pair_poi[visited], minlength=len(poi_names))[pois] >= min_poi_users
        if np.count_nonzero(kept) == np.count_nonzero(alive):
            return [checkins[i] for i in np.flatnonzero(kept).tolist()]
        alive = kept


def _split_point(n: int, train_frac: float) -> int:
    # round-half-up of train_frac*n, clamped so both splits are non-empty:
    # 10 records -> 7 train / 3 test, 2 records -> 1 / 1
    return max(1, min(n - 1, int(math.floor(train_frac * n + 0.5))))


def build_corpus(checkins, train_frac: float = 0.7, clip_dt=None, clip_dd=None,
                 log_scale: bool = False) -> Corpus:
    """Assemble per-user transition sequences with a dense POI vocabulary.

    Users appear in order of first appearance in ``checkins``; within a user
    records are sorted by timestamp with input order breaking ties.  Dense
    POI ids are assigned by first appearance along that traversal.  Users
    with fewer than two records cannot form a transition and are dropped
    with a warning.  A time or coordinate that is NaN or infinite raises
    ValueError naming its user.

    Intervals are raw hours/km by default.  ``clip_dt``/``clip_dd`` cap them
    first; ``log_scale`` then maps u -> log1p(u).
    """
    if not 0.0 < train_frac < 1.0:
        raise ValueError(f"train_frac must be in (0, 1), got {train_frac}")
    checkins = list(checkins)
    users, names = _codes([c.user for c in checkins])
    ts = np.array([c.ts for c in checkins], dtype=np.float64)
    lat = np.array([c.lat for c in checkins], dtype=np.float64)
    lon = np.array([c.lon for c in checkins], dtype=np.float64)
    finite = np.isfinite(ts) & np.isfinite(lat) & np.isfinite(lon)
    if not finite.all():
        user = checkins[int(np.argmin(finite))].user
        raise ValueError(f"user {user!r}: non-finite time or coordinates")

    # users by first appearance, then time; the sort is stable, so input
    # order breaks ties
    sizes = np.bincount(users, minlength=len(names))
    order = np.lexsort((ts, users))
    order = order[sizes[users[order]] >= 2]
    kept = np.flatnonzero(sizes >= 2)
    dropped = len(names) - kept.size
    ends = np.cumsum(sizes[kept])
    recs = [checkins[i] for i in order.tolist()]
    pois, vocab = _codes([c.poi for c in recs])

    # hops between consecutive records, less the ones between two users
    inner = np.ones(max(order.size - 1, 0), dtype=bool)
    inner[ends[:-1] - 1] = False
    ts = ts[order]
    with np.errstate(over="ignore"):
        dts = ((ts[1:] - ts[:-1]) / 3600.0)[inner]
    if not np.isfinite(dts).all():
        owner = np.repeat(kept, sizes[kept] - 1)[np.argmin(np.isfinite(dts))]
        raise ValueError(f"user {names[owner]!r}: time span overflows")
    dds = np.array(_hop_km([c.lat for c in recs], [c.lon for c in recs]))[inner]
    if clip_dt is not None:
        np.minimum(dts, clip_dt, out=dts)
    if clip_dd is not None:
        np.minimum(dds, clip_dd, out=dds)
    if log_scale:
        dts = np.log1p(dts)
        dds = np.log1p(dds)

    seqs = []
    start = 0
    for k, (code, end) in enumerate(zip(kept.tolist(), ends.tolist())):
        iv = slice(start - k, end - k - 1)
        seqs.append(UserSeq(user=names[code], pois=pois[start:end], dts=dts[iv],
                            dds=dds[iv], n_train=_split_point(end - start, train_frac)))
        start = end
    if dropped:
        log.warning("dropped %d users with fewer than 2 check-ins", dropped)
    meta = {
        "train_frac": train_frac,
        "interval_transform": {
            "clip_dt": clip_dt, "clip_dd": clip_dd, "log_scale": log_scale,
        },
    }
    return Corpus(users=seqs, vocab=vocab, meta=meta)


def checkin_stats(checkins) -> dict:
    """Raw counts used for before/after-cleaning reports."""
    return {
        "users": len({c.user for c in checkins}),
        "pois": len({c.poi for c in checkins}),
        "records": len(checkins),
    }


def save_corpus(corpus: Corpus, path) -> None:
    """Serialize to the binary container; byte-stable for equal content."""
    meta = {
        "kind": "corpus",
        "vocab": corpus.vocab,
        "users": [
            {"user": u.user, "n": int(len(u.pois)), "n_train": int(u.n_train)}
            for u in corpus.users
        ],
        **corpus.meta,
    }
    arrays = {
        "pois": np.concatenate([u.pois for u in corpus.users])
        if corpus.users else np.zeros(0, dtype=np.int64),
        "dts": np.concatenate([u.dts for u in corpus.users])
        if corpus.users else np.zeros(0),
        "dds": np.concatenate([u.dds for u in corpus.users])
        if corpus.users else np.zeros(0),
    }
    container.save(path, meta, arrays)


def _check_corpus(meta: dict, arrays: dict, path) -> None:
    """Raise FormatError unless the corpus header describes the payload:
    well-formed user entries with distinct ids (eval selects and reports
    users by id) and ``1 <= n_train <= n``, lengths that sum to the
    payload's, POI ids inside the vocabulary, and finite non-negative
    intervals."""
    users, vocab = meta.get("users"), meta.get("vocab")
    if not isinstance(users, list) or not isinstance(vocab, list):
        raise FormatError(f"{path}: corpus header needs 'users' and 'vocab' lists")
    for name, kinds in (("pois", "iu"), ("dts", "f"), ("dds", "f")):
        arr = arrays.get(name)
        if arr is None or arr.ndim != 1 or arr.dtype.kind not in kinds:
            raise FormatError(f"{path}: corpus payload needs a 1-D "
                              f"{'integer' if kinds == 'iu' else 'float'} {name!r}")
    seen = set()
    for i, e in enumerate(users):
        if not (type(e) is dict and type(e.get("user")) is str
                and type(e.get("n")) is int and type(e.get("n_train")) is int):
            raise FormatError(f"{path}: corpus user entry {i} is malformed")
        if e["user"] in seen:
            raise FormatError(f"{path}: corpus user id {e['user']!r} repeats "
                              f"(entry {i})")
        seen.add(e["user"])
        if not 1 <= e["n_train"] <= e["n"]:
            raise FormatError(f"{path}: corpus user {i} has n_train "
                              f"{e['n_train']} outside [1, n = {e['n']}]")
    n = sum(e["n"] for e in users)
    sizes = (arrays["pois"].size, arrays["dts"].size, arrays["dds"].size)
    if sizes != (n, n - len(users), n - len(users)):
        raise FormatError(f"{path}: corpus users hold {n} records, the payload "
                          f"{sizes[0]} POIs and {sizes[1]}/{sizes[2]} intervals")
    pois = arrays["pois"]
    if pois.size and (pois.min() < 0 or pois.max() >= len(vocab)):
        raise FormatError(f"{path}: corpus POI id out of vocabulary "
                          f"(size {len(vocab)})")
    for name in ("dts", "dds"):
        iv = arrays[name]
        if iv.size and not (iv.min() >= 0 and iv.max() < np.inf):  # NaN fails
            raise FormatError(f"{path}: corpus {name} holds a non-finite or "
                              f"negative interval")


def load_corpus(path) -> Corpus:
    meta, arrays = container.load(path)
    if meta.get("kind") != "corpus":
        raise FormatError(f"{path}: not a corpus cache")
    _check_corpus(meta, arrays, path)
    users = []
    at_poi = 0
    at_iv = 0
    for entry in meta["users"]:
        n = entry["n"]
        users.append(
            UserSeq(
                user=entry["user"],
                pois=arrays["pois"][at_poi : at_poi + n].copy(),
                dts=arrays["dts"][at_iv : at_iv + n - 1].copy(),
                dds=arrays["dds"][at_iv : at_iv + n - 1].copy(),
                n_train=entry["n_train"],
            )
        )
        at_poi += n
        at_iv += n - 1
    extra = {k: v for k, v in meta.items() if k not in ("kind", "vocab", "users")}
    return Corpus(users=users, vocab=list(meta["vocab"]), meta=extra)


# --------------------------------------------------------------------------
# synthetic corpora


def _cluster_coords(rng, center_lat, center_lon, n, jitter):
    lats = center_lat + rng.uniform(-jitter, jitter, size=n)
    lons = center_lon + rng.uniform(-jitter, jitter, size=n)
    return list(zip(lats, lons))


def _synth_periodic(rng, n_users, n_pois, length, n_short, jump_every):
    """Each user cycles through three POIs of a home neighbourhood at a
    near-constant pace and takes a scheduled excursion to one far POI every
    ``jump_every``-th step.  Continuations are deterministic given the
    history and the incoming interval, and the transition pairs each user
    contributes are kept globally unique where possible so the pattern is
    learnable without memorizing user identities."""
    if n_pois < 16:
        raise ValueError("periodic pattern needs at least 16 POIs")
    cluster_size = 8
    n_clusters = max(2, n_pois // cluster_size)
    coords = [None] * n_pois
    members = [[] for _ in range(n_clusters)]
    for p in range(n_pois):
        members[p % n_clusters].append(p)
    for ci, pois in enumerate(members):
        lat = float(rng.uniform(-55, 55))
        lon = float(rng.uniform(-170, 170))
        for p, c in zip(pois, _cluster_coords(rng, lat, lon, len(pois), 0.01)):
            coords[p] = c

    used_pairs = set()
    checkins = []
    t0 = 0.0
    for u in range(n_users):
        home = u % n_clusters
        pool = members[home]
        cyc = far = None
        for _ in range(300):
            trial_cyc = [int(q) for q in rng.choice(pool, size=3, replace=False)]
            away = (home + 1 + int(rng.integers(n_clusters - 1))) % n_clusters
            trial_far = int(rng.choice(members[away]))
            a, b, c = trial_cyc
            into = trial_cyc[(jump_every - 1) % 3]
            back = trial_cyc[jump_every % 3]
            pairs = {(a, b), (b, c), (c, a), (into, trial_far), (trial_far, back)}
            if pairs.isdisjoint(used_pairs):
                cyc, far = trial_cyc, trial_far
                used_pairs |= pairs
                break
        if cyc is None:       # pool exhausted; accept a colliding draw
            cyc = [int(q) for q in rng.choice(pool, size=3, replace=False)]
            far = int(rng.choice(members[(home + 1) % n_clusters]))
        m = 6 if u < n_short else length
        t = t0
        cycle_count = 1
        visits = [cyc[0]]
        gaps = []
        for s in range(1, m):
            if s % jump_every == 0:
                visits.append(far)
                gaps.append(float(48.0 + rng.uniform(-4, 4)))
            else:
                visits.append(cyc[cycle_count % 3])
                cycle_count += 1
                gaps.append(float(8.0 + rng.uniform(-0.5, 0.5)))
        for j, p in enumerate(visits):
            checkins.append(
                CheckIn(
                    user=f"u{u}", ts=t, lat=coords[p][0], lon=coords[p][1],
                    poi=f"p{p}",
                )
            )
            if j < len(gaps):
                t += gaps[j] * 3600.0
        t0 += 1.0e7
    return checkins


def _synth_interval(rng, n_users, n_pois, length, n_short):
    """Next POI depends on the incoming interval: a short gap stays in the
    current neighbourhood, a long gap switches to one of two others, and
    which one is told apart by the travelled distance (the three
    neighbourhoods sit at pairwise-distinct distances).  Within a
    neighbourhood visits alternate between its two POIs.  Each user owns six
    private POIs, so the rule is exactly recoverable from history plus the
    interval inputs, while a model blind to intervals cannot beat guessing
    the stay/switch coin."""
    if n_pois < 6 * n_users:
        raise ValueError(
            f"interval pattern needs at least 6 POIs per user "
            f"({6 * n_users} for {n_users} users, got {n_pois})"
        )
    checkins = []
    t0 = 0.0
    for u in range(n_users):
        base_lat = float(rng.uniform(-35, 35))
        base_lon = float(rng.uniform(-60, 60))
        km_per_deg = 111.32 * math.cos(math.radians(base_lat))
        offsets = [0.0, 300.0 / km_per_deg, 900.0 / km_per_deg]
        clusters = []
        for ci in range(3):
            pts = _cluster_coords(rng, base_lat, base_lon + offsets[ci], 2, 0.003)
            ids = [f"p{6 * u + 2 * ci}", f"p{6 * u + 2 * ci + 1}"]
            clusters.append(list(zip(ids, pts)))
        m = 6 if u < n_short else length
        visit_count = [1, 0, 0]
        cur = 0
        poi_id, (lat, lon) = clusters[0][0]
        t = t0
        checkins.append(CheckIn(user=f"u{u}", ts=t, lat=lat, lon=lon, poi=poi_id))
        for _ in range(m - 1):
            r = rng.random()
            if r < 0.5:
                target = cur
                gap = float(rng.uniform(1, 4))
            else:
                target = (cur + (1 if r < 0.75 else 2)) % 3
                gap = float(rng.uniform(24, 48))
            poi_id, (lat, lon) = clusters[target][visit_count[target] % 2]
            visit_count[target] += 1
            cur = target
            t += gap * 3600.0
            checkins.append(CheckIn(user=f"u{u}", ts=t, lat=lat, lon=lon, poi=poi_id))
        t0 += 1.0e7
    return checkins


SYNTH_PATTERNS = ("periodic", "interval")


def synth_corpus(seed: int, n_users: int, n_pois: int, pattern: str = "periodic",
                 length: int = 60, n_short: int = 0, train_frac: float = 0.7,
                 jump_every: int = 7) -> Corpus:
    """Generate a deterministic synthetic corpus.

    ``periodic``: home cycles with scheduled far excursions (see
    _synth_periodic).  ``interval``: stay-or-switch behaviour readable only
    from the elapsed-time/distance inputs (see _synth_interval).  The first
    ``n_short`` users get 6-record histories so cold-start cohorts are
    non-empty.  The same arguments always produce byte-identical corpora.
    """
    rng = np.random.default_rng(seed)
    if pattern == "periodic":
        checkins = _synth_periodic(rng, n_users, n_pois, length, n_short, jump_every)
    elif pattern == "interval":
        checkins = _synth_interval(rng, n_users, n_pois, length, n_short)
    else:
        raise ValueError(
            f"unknown pattern {pattern!r}; expected one of {SYNTH_PATTERNS}"
        )
    corpus = build_corpus(checkins, train_frac=train_frac)
    corpus.meta["synth"] = {
        "seed": seed, "pattern": pattern, "n_users": n_users, "n_pois": n_pois,
        "length": length, "n_short": n_short, "jump_every": jump_every,
    }
    return corpus
