import logging
import math
import time
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stpoi import container, data
from stpoi.data import CheckIn

from helpers import (build_corpus_per_object, clean_per_object, poi_index,
                     user_test_steps)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def make_checkin(user, ts, poi, lat=0.0, lon=0.0):
    return CheckIn(user=str(user), ts=float(ts), lat=lat, lon=lon, poi=str(poi))


class TestLoad:
    SNAP_LINE = "0\t2010-10-19T23:55:27Z\t30.2359091167\t-97.7951395833\t22847\n"

    def test_snap_line(self, tmp_path):
        path = write(tmp_path / "a.txt", self.SNAP_LINE)
        (rec,) = data.load_checkins(path, "snap")
        assert rec.user == "0" and rec.poi == "22847"
        expected_ts = datetime(
            2010, 10, 19, 23, 55, 27, tzinfo=timezone.utc
        ).timestamp()
        assert rec.ts == expected_ts
        assert rec.lat == pytest.approx(30.2359091167)
        assert rec.lon == pytest.approx(-97.7951395833)

    def test_csv_variant_with_header(self, tmp_path):
        text = (
            "user,time,lat,lon,poi\n"
            "42,2011-01-02T03:04:05Z,10.5,-20.25,99\n"
            "42,1293940000,10.5,-20.25,100\n"
        )
        path = write(tmp_path / "a.csv", text)
        recs = data.load_checkins(path, "csv")
        assert [r.poi for r in recs] == ["99", "100"]
        assert recs[1].ts == 1293940000.0

    def test_unix_seconds_accepted_in_snap(self, tmp_path):
        path = write(tmp_path / "a.txt", "1\t1500000000\t0\t0\t7\n")
        (rec,) = data.load_checkins(path, "snap")
        assert rec.ts == 1500000000.0

    def test_malformed_minority_skipped(self, tmp_path):
        good = self.SNAP_LINE
        bad = "junk line without tabs\n"
        path = write(tmp_path / "a.txt", good * 3 + bad)
        recs = data.load_checkins(path, "snap")
        assert len(recs) == 3

    def test_out_of_range_coordinates_are_malformed(self, tmp_path):
        bad_lat = "0\t2010-10-19T23:55:27Z\t91.0\t0.0\t5\n"
        bad_lon = "0\t2010-10-19T23:55:27Z\t0.0\t-181.0\t5\n"
        path = write(tmp_path / "a.txt", self.SNAP_LINE * 3 + bad_lat + bad_lon)
        recs = data.load_checkins(path, "snap")
        assert len(recs) == 3

    def test_blank_lines_are_not_counted(self, tmp_path, caplog):
        path = write(tmp_path / "a.txt", "\n  \n" + self.SNAP_LINE + "\t\n\n")
        with caplog.at_level(logging.WARNING, logger="stpoi.data"):
            recs = data.load_checkins(path, "snap")
        assert len(recs) == 1 and not caplog.messages

    @pytest.mark.parametrize("line", [
        " \t2010-10-19T23:55:27Z\t0.0\t0.0\t5\n",
        "0\t2010-10-19T23:55:27Z\t0.0\t0.0\t \n",
    ], ids=["user", "poi"])
    def test_empty_id_is_malformed(self, tmp_path, line, caplog):
        path = write(tmp_path / "a.txt", self.SNAP_LINE * 3 + line)
        with caplog.at_level(logging.WARNING, logger="stpoi.data"):
            recs = data.load_checkins(path, "snap")
        assert len(recs) == 3
        assert any("skipped 1 of 4" in m for m in caplog.messages)

    @pytest.mark.parametrize("when", ["inf", "-inf", "nan"])
    def test_non_finite_unix_time_is_malformed(self, tmp_path, when):
        path = write(tmp_path / "a.txt",
                     self.SNAP_LINE * 3 + f"0\t{when}\t0.0\t0.0\t5\n")
        recs = data.load_checkins(path, "snap")
        assert len(recs) == 3

    def test_naive_iso_time_is_utc(self, tmp_path, monkeypatch):
        # under a zone five hours off UTC, which a local reading would add
        monkeypatch.setenv("TZ", "EST5")
        time.tzset()
        try:
            path = write(tmp_path / "a.txt", self.SNAP_LINE.replace("Z", ""))
            (rec,) = data.load_checkins(path, "snap")
        finally:
            monkeypatch.undo()
            time.tzset()
        assert rec.ts == datetime(
            2010, 10, 19, 23, 55, 27, tzinfo=timezone.utc).timestamp()

    def test_mostly_malformed_rejected(self, tmp_path):
        path = write(tmp_path / "a.txt", self.SNAP_LINE + "x\n" * 5)
        with pytest.raises(data.FormatError):
            data.load_checkins(path, "snap")

    def test_empty_file_warns_and_returns_empty(self, tmp_path, caplog):
        path = write(tmp_path / "a.txt", "")
        with caplog.at_level(logging.WARNING, logger="stpoi.data"):
            recs = data.load_checkins(path, "snap")
        assert recs == []
        assert any("no check-ins" in m for m in caplog.messages)

    @pytest.mark.parametrize("good_lines", [0, 200])
    def test_non_utf8_file_names_the_byte_offset(self, tmp_path, good_lines):
        # 200 lines put the bad byte past the text decoder's first read chunk
        head = self.SNAP_LINE.encode() * good_lines
        path = tmp_path / "a.txt"
        path.write_bytes(head + b"\xff\xfe" + self.SNAP_LINE.encode())
        with pytest.raises(data.FormatError,
                           match=f"a.txt: not UTF-8 text at byte {len(head)}$"):
            data.load_checkins(str(path), "snap")

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            data.load_checkins(str(tmp_path / "nope.txt"), "snap")

    def test_unknown_format_rejected(self, tmp_path):
        path = write(tmp_path / "a.txt", self.SNAP_LINE)
        with pytest.raises(ValueError):
            data.load_checkins(path, "parquet")

    @pytest.mark.parametrize("fmt, header", [("snap", ""), ("csv", "user,time,lat,lon,poi\n")])
    def test_byte_order_mark_is_not_part_of_the_first_user(self, tmp_path, fmt, header,
                                                           caplog):
        sep = "\t" if fmt == "snap" else ","
        lines = [sep.join(["u1", str(1500000000 + 60 * t), "1.0", "2.0", f"p{t}"])
                 for t in range(3)]
        path = tmp_path / "a.txt"
        path.write_bytes(("\ufeff" + header + "\n".join(lines) + "\n").encode("utf-8"))
        recs = data.load_checkins(str(path), fmt)
        assert [r.user for r in recs] == ["u1"] * 3
        with caplog.at_level(logging.WARNING, logger="stpoi.data"):
            corpus = data.build_corpus(recs)
        assert [len(u.pois) for u in corpus.users] == [3] and not caplog.messages


class TestClean:
    def test_user_below_threshold_removed(self):
        recs = [make_checkin("a", t, f"p{t}") for t in range(9)]
        assert data.clean(recs, min_user_checkins=10, min_poi_users=0) == []

    def test_already_clean_is_fixed_point(self):
        # 3 users x 3 check-ins at shared POIs, thresholds 2/2
        recs = [
            make_checkin(u, t, p)
            for u in "abc"
            for t, p in enumerate(["x", "y", "z"])
        ]
        cleaned = data.clean(recs, min_user_checkins=2, min_poi_users=2)
        assert cleaned == recs
        assert data.clean(cleaned, 2, 2) == cleaned

    def test_cascade_reaches_fixed_point(self):
        # u0 has exactly 10 check-ins, one of them at POI "rare" which only
        # 9 users visit; dropping "rare" pushes u0 to 9 and out next sweep.
        # hub starts with 11 users so it survives losing u0.
        recs = []
        for t in range(9):
            recs.append(make_checkin("u0", t, "hub"))
        recs.append(make_checkin("u0", 9, "rare"))
        for k in range(1, 9):
            for t in range(10):
                recs.append(make_checkin(f"u{k}", 100 * k + t, "hub"))
            recs.append(make_checkin(f"u{k}", 100 * k + 10, "rare"))
        for k in (9, 10):
            for t in range(10):
                recs.append(make_checkin(f"u{k}", 100 * k + t, "hub"))
        cleaned = data.clean(recs, min_user_checkins=10, min_poi_users=10)
        users = {c.user for c in cleaned}
        pois = {c.poi for c in cleaned}
        assert "rare" not in pois
        assert "u0" not in users          # lost its rare check-in, fell to 9
        assert users == {f"u{k}" for k in range(1, 11)} and pois == {"hub"}
        # result is a fixed point
        assert data.clean(cleaned, 10, 10) == cleaned


class TestHaversine:
    def test_zero_distance(self):
        assert data.haversine(45.0, 7.0, 45.0, 7.0) == 0.0

    def test_quarter_meridian(self):
        # equator to pole along a meridian: R * pi/2
        d = data.haversine(0.0, 0.0, 90.0, 0.0)
        assert abs(d - 10007.543) < 1e-3

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            lat1, lat2 = rng.uniform(-90, 90, 2)
            lon1, lon2 = rng.uniform(-180, 180, 2)
            d1 = data.haversine(lat1, lon1, lat2, lon2)
            d2 = data.haversine(lat2, lon2, lat1, lon1)
            assert abs(d1 - d2) < 1e-9
            assert d1 >= 0.0

    # rounding lifts the haversine term just past 1 for some exact
    # antipodal pairs (72 of these 2000, and this named one), which raised
    # "math domain error"; each pair is half a great circle apart
    ANTIPODES = (3.309661790284011, -89.77779913133884,
                 -3.309661790284011, 90.22220086866116)

    def test_antipodal_points(self):
        half = math.pi * data.EARTH_RADIUS_KM
        assert data.haversine(*self.ANTIPODES) == pytest.approx(half)
        rng = np.random.default_rng(3)
        for lat, lon in zip(rng.uniform(-90, 90, 2000), rng.uniform(-180, 0, 2000)):
            assert data.haversine(lat, lon, -lat, lon + 180.0) == pytest.approx(half)

    def test_antipodal_move_builds_a_corpus(self):
        lat1, lon1, lat2, lon2 = self.ANTIPODES
        corpus = data.build_corpus([make_checkin("u", 0, "a", lat1, lon1),
                                    make_checkin("u", 3600, "b", lat2, lon2),
                                    make_checkin("u", 7200, "a", lat1, lon1)])
        np.testing.assert_allclose(corpus.users[0].dds,
                                   math.pi * data.EARTH_RADIUS_KM)


class TestBuildCorpus:
    def test_ten_records_split_seven_three(self):
        recs = [make_checkin("a", 3600 * t, f"p{t % 4}") for t in range(10)]
        corpus = data.build_corpus(recs)
        (u,) = corpus.users
        assert u.n_train == 7
        ins, dts, dds, targets = u.train_steps()
        assert len(ins) == 6 and len(targets) == 6
        ins_t, _, _, targets_t = user_test_steps(u)
        assert len(ins_t) == 3 and len(targets_t) == 3

    def test_two_records_split_one_one(self):
        recs = [make_checkin("a", 0, "x"), make_checkin("a", 3600, "y")]
        corpus = data.build_corpus(recs)
        (u,) = corpus.users
        assert u.n_train == 1
        ins, _, _, targets = u.train_steps()
        assert len(ins) == 0
        ins_t, _, _, targets_t = user_test_steps(u)
        # the single transition spans the split and evaluates the test record
        assert len(ins_t) == 1 and list(targets_t) == [poi_index(corpus)["y"]]

    def test_crossing_transition_not_trained_on(self):
        recs = [make_checkin("a", 3600 * t, f"p{t}") for t in range(4)]
        corpus = data.build_corpus(recs)   # n=4 -> n_train=3
        (u,) = corpus.users
        _, _, _, train_targets = u.train_steps()
        test_ins, _, _, test_targets = user_test_steps(u)
        idx = poi_index(corpus)
        assert list(train_targets) == [idx["p1"], idx["p2"]]
        assert list(test_ins) == [idx["p2"]]
        assert list(test_targets) == [idx["p3"]]

    def test_interval_units(self):
        recs = [
            make_checkin("a", 0, "x", lat=0.0, lon=0.0),
            make_checkin("a", 5 * 3600, "y", lat=0.0, lon=0.0),
            make_checkin("a", 6 * 3600, "x", lat=90.0, lon=0.0),
        ]
        corpus = data.build_corpus(recs)
        (u,) = corpus.users
        np.testing.assert_allclose(u.dts, [5.0, 1.0], atol=1e-12)
        assert u.dds[0] == 0.0
        assert abs(u.dds[1] - 10007.543) < 1e-3

    def test_chronological_sort_is_stable(self):
        recs = [
            make_checkin("a", 100, "first"),
            make_checkin("a", 100, "second"),   # same timestamp: keep order
            make_checkin("a", 50, "zeroth"),
        ]
        corpus = data.build_corpus(recs)
        (u,) = corpus.users
        raw = [corpus.vocab[j] for j in u.pois]
        assert raw == ["zeroth", "first", "second"]

    def test_vocab_by_first_appearance(self):
        recs = [
            make_checkin("a", 0, "z"), make_checkin("a", 1, "m"),
            make_checkin("b", 0, "m"), make_checkin("b", 1, "a"),
        ]
        corpus = data.build_corpus(recs)
        assert corpus.vocab == ["z", "m", "a"]

    def test_single_record_user_dropped_with_warning(self, caplog):
        recs = [make_checkin("lonely", 0, "x")] + [
            make_checkin("ok", t, "y") for t in range(3)
        ]
        with caplog.at_level(logging.WARNING, logger="stpoi.data"):
            corpus = data.build_corpus(recs)
        assert [u.user for u in corpus.users] == ["ok"]
        assert any("fewer than 2" in m for m in caplog.messages)

    def test_interval_transform(self):
        recs = [
            make_checkin("a", 0, "x"),
            make_checkin("a", 10_000 * 3600, "y"),   # huge gap, gets clipped
            make_checkin("a", 10_001 * 3600, "x"),
        ]
        corpus = data.build_corpus(recs, clip_dt=720.0, log_scale=True)
        (u,) = corpus.users
        np.testing.assert_allclose(u.dts, np.log1p([720.0, 1.0]), atol=1e-12)

    def test_bad_train_frac(self):
        with pytest.raises(ValueError):
            data.build_corpus([], train_frac=1.0)

    @pytest.mark.parametrize("field", ["ts", "lat", "lon"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_names_the_user(self, field, value):
        recs = [make_checkin("a", t, "x") for t in range(3)]
        recs += [make_checkin("b", t, "y", lat=1.0, lon=2.0) for t in range(3)]
        setattr(recs[4], field, value)
        with pytest.raises(ValueError, match="user 'b': non-finite"):
            data.build_corpus(recs)

    def test_time_span_overflow_names_the_user(self):
        recs = [make_checkin("a", 0, "x"), make_checkin("a", 1, "y"),
                make_checkin("b", 1e308, "x"), make_checkin("b", -1e308, "y")]
        with pytest.raises(ValueError, match="user 'b': time span overflows"):
            data.build_corpus(recs)

    def test_times_far_apart_across_users_build(self):
        # the hop from one user's last record to the next user's first is
        # never an interval, however far apart the two times are
        recs = [make_checkin("a", 1e308, "x"), make_checkin("a", 1e308, "y"),
                make_checkin("b", -1e308, "x"), make_checkin("b", -1e308, "y")]
        corpus = data.build_corpus(recs, log_scale=True)
        assert [u.dts.tolist() for u in corpus.users] == [[0.0], [0.0]]

    def test_stats(self):
        recs = [make_checkin("a", 3600 * t, f"p{t % 4}") for t in range(10)]
        corpus = data.build_corpus(recs)
        s = corpus.stats()
        assert s == {
            "users": 1, "pois": 4, "records": 10,
            "train_transitions": 6, "test_transitions": 3,
        }


# check-in lists for the oracle comparison: few users and POIs so that
# cleaning cascades and single-record users are common, times from a small
# set so that ties are too (-0.0 ties 0.0), and some records repeated, as
# the same object or as an equal one
_TIMES = st.sampled_from([0.0, -0.0, 1800.0, 3600.0, 5400.0, 86400.0, 1.3e9])
_RECORD = st.builds(
    CheckIn, user=st.sampled_from(["u0", "u1", "u2", "u3", "u4", "u5"]),
    ts=_TIMES | st.floats(-1e10, 1e10),
    lat=st.sampled_from([0.0, 45.0, -45.0, 90.0]) | st.floats(-90.0, 90.0),
    lon=st.sampled_from([0.0, 180.0, -180.0, 135.0]) | st.floats(-180.0, 180.0),
    poi=st.sampled_from([f"p{j}" for j in range(8)]))


@st.composite
def _checkins(draw):
    recs = draw(st.lists(_RECORD, max_size=40))
    for j in draw(st.lists(st.integers(0, max(len(recs) - 1, 0)), max_size=6)):
        if recs:
            twin = recs[j] if draw(st.booleans()) else CheckIn(**vars(recs[j]))
            recs.insert(draw(st.integers(0, len(recs))), twin)
    return recs


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("oracle")


class TestPipelineOracle:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(recs=_checkins(), min_user=st.integers(0, 4), min_poi=st.integers(0, 3),
           train_frac=st.floats(0.01, 0.99),
           clip_dt=st.none() | st.floats(0.0, 50.0),
           clip_dd=st.none() | st.floats(0.0, 5000.0), log_scale=st.booleans())
    def test_clean_and_cache_match_the_per_object_oracle(self, cache_dir, recs, min_user,
                                                         min_poi, train_frac, clip_dt,
                                                         clip_dd, log_scale):
        kept = data.clean(recs, min_user, min_poi)
        want = clean_per_object(recs, min_user, min_poi)
        assert [id(c) for c in kept] == [id(c) for c in want]
        kw = dict(train_frac=train_frac, clip_dt=clip_dt, clip_dd=clip_dd,
                  log_scale=log_scale)
        data.save_corpus(data.build_corpus(kept, **kw), cache_dir / "got.bin")
        data.save_corpus(build_corpus_per_object(kept, **kw), cache_dir / "want.bin")
        assert (cache_dir / "got.bin").read_bytes() == (cache_dir / "want.bin").read_bytes()

    def test_generated_dump_matches_the_per_object_oracle(self, tmp_path):
        # ragged histories in file order newest first, several users per
        # POI; at thresholds 10/5 a second sweep removes what the first
        # one's removals pushed under a threshold
        rng = np.random.default_rng(61)
        lines = []
        for u in range(30):
            n = int(rng.integers(1, 25))
            for t in sorted(rng.integers(0, 10**6, size=n), reverse=True):
                lines.append(f"user{u}\t{1.3e9 + t}\t{rng.uniform(-60, 60):.6f}\t"
                             f"{rng.uniform(-170, 170):.6f}\tvenue{rng.integers(40)}\n")
        path = write(tmp_path / "a.txt", "".join(lines))
        recs = data.load_checkins(path, "snap")
        kept = data.clean(recs, 10, 5)
        assert [id(c) for c in kept] == [id(c) for c in clean_per_object(recs, 10, 5)]
        assert 0 < len(kept) < len(recs)
        data.save_corpus(data.build_corpus(kept), tmp_path / "got.bin")
        data.save_corpus(build_corpus_per_object(kept), tmp_path / "want.bin")
        assert (tmp_path / "got.bin").read_bytes() == (tmp_path / "want.bin").read_bytes()


class TestCorpusRoundTrip:
    def test_exact(self, tmp_path):
        corpus = data.synth_corpus(7, n_users=5, n_pois=16, length=12, n_short=2)
        path = tmp_path / "c.bin"
        data.save_corpus(corpus, path)
        back = data.load_corpus(path)
        assert back.vocab == corpus.vocab
        assert len(back.users) == len(corpus.users)
        for a, b in zip(corpus.users, back.users):
            assert a.user == b.user and a.n_train == b.n_train
            np.testing.assert_array_equal(a.pois, b.pois)
            np.testing.assert_array_equal(a.dts, b.dts)
            np.testing.assert_array_equal(a.dds, b.dds)

    def test_byte_stable(self, tmp_path):
        c1 = data.synth_corpus(9, n_users=4, n_pois=16, length=10)
        c2 = data.synth_corpus(9, n_users=4, n_pois=16, length=10)
        p1, p2 = tmp_path / "1.bin", tmp_path / "2.bin"
        data.save_corpus(c1, p1)
        data.save_corpus(c2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_wrong_kind_rejected(self, tmp_path):
        from stpoi import container

        path = tmp_path / "x.bin"
        container.save(path, {"kind": "other"}, {"a": np.zeros(1)})
        with pytest.raises(data.FormatError):
            data.load_corpus(path)


def _corrupt_user0_n(meta, arrays):
    meta["users"][0]["n"] += 5


def _set(key, value):
    def edit(meta, arrays):
        meta["users"][1][key] = value
    return edit


def _poke(name, value):
    def edit(meta, arrays):
        arrays[name][3] = value
    return edit


class TestCorpusHeaderChecks:
    """A corpus cache whose header does not describe its payload raises
    FormatError instead of loading users that borrow each other's visits."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("header") / "c.bin"
        data.save_corpus(data.synth_corpus(5, n_users=3, n_pois=20, length=14),
                         path)
        return path

    @staticmethod
    def rewrite(saved, edit):
        """A copy of the ``saved`` corpus with ``edit(meta, arrays)`` applied."""
        meta, arrays = container.load(saved)
        edit(meta, arrays)
        path = saved.parent / "edit.bin"
        container.save(path, meta, arrays)
        return path

    @pytest.mark.parametrize("edit, message", [
        (_corrupt_user0_n, "users hold"),
        (_set("n_train", 99), "outside"),
        (_set("n_train", 0), "outside"),
        (_set("n", "14"), "malformed"),
        (_set("n_train", True), "malformed"),
        (lambda m, a: m.pop("users"), "lists"),
        (lambda m, a: a.pop("dds"), "'dds'"),
        (lambda m, a: a.update(pois=a["pois"].astype(float)), "'pois'"),
        (lambda m, a: m.update(vocab=m["vocab"][:5]), "out of vocabulary"),
        (_poke("pois", -1), "out of vocabulary"),
        (_poke("dts", -1.0), "dts"),
        (_poke("dts", np.nan), "dts"),
        (_poke("dds", np.inf), "dds"),
        (_set("user", "u0"), "'u0' repeats"),
    ], ids=["users0-n-raised", "n_train-99", "n_train-0", "n-string",
            "n_train-bool", "no-users", "no-dds", "float-pois", "short-vocab",
            "negative-id", "negative-dt", "nan-dt", "inf-dd", "repeated-user"])
    def test_rejected(self, saved, edit, message):
        path = self.rewrite(saved, edit)
        with pytest.raises(data.FormatError, match=message):
            data.load_corpus(path)

    @settings(max_examples=150, deadline=None)
    @given(field=st.one_of(st.integers(-2, 40), st.none(), st.booleans(),
                           st.text(max_size=2)),
           user=st.integers(0, 2), key=st.sampled_from(["n", "n_train"]),
           vocab_len=st.integers(0, 25), poi=st.integers(-2, 30))
    def test_header_edit_loads_consistently_or_raises(self, saved, field, user,
                                                      key, vocab_len, poi):
        def edit(meta, arrays):
            meta["users"][user][key] = field
            meta["vocab"] = meta["vocab"][:vocab_len]
            arrays["pois"][0] = poi

        try:
            corpus = data.load_corpus(self.rewrite(saved, edit))
        except data.FormatError:
            return
        records = container.load(saved)[1]["pois"].size
        assert sum(len(u.pois) for u in corpus.users) == records
        for u in corpus.users:
            assert len(u.dts) == len(u.dds) == len(u.pois) - 1
            assert 1 <= u.n_train <= len(u.pois)
            assert u.pois.min() >= 0 and u.pois.max() < corpus.n_pois


class TestSynth:
    def test_deterministic(self):
        a = data.synth_corpus(3, n_users=6, n_pois=20, length=15)
        b = data.synth_corpus(3, n_users=6, n_pois=20, length=15)
        assert a.vocab == b.vocab
        for ua, ub in zip(a.users, b.users):
            np.testing.assert_array_equal(ua.pois, ub.pois)
            np.testing.assert_array_equal(ua.dts, ub.dts)
            np.testing.assert_array_equal(ua.dds, ub.dds)

    def test_intervals_nonnegative_finite(self):
        for pattern, pois in (("periodic", 24), ("interval", 36)):
            corpus = data.synth_corpus(11, n_users=6, n_pois=pois, pattern=pattern,
                                       length=20)
            for u in corpus.users:
                assert np.all(u.dts >= 0) and np.all(np.isfinite(u.dts))
                assert np.all(u.dds >= 0) and np.all(np.isfinite(u.dds))

    def test_short_users_are_cold(self):
        corpus = data.synth_corpus(5, n_users=6, n_pois=20, length=30, n_short=2)
        trains = sorted(u.n_train for u in corpus.users)
        assert trains[:2] == [4, 4]          # 6 records -> 4 train, under 5
        assert all(t > 5 for t in trains[2:])

    def test_periodic_frequency_predictor_hits_about_a_third(self):
        # predicting each user's most frequent training POI ignores the cycle
        # structure; each of the three cycle POIs covers ~2/7 of the targets
        corpus = data.synth_corpus(13, n_users=20, n_pois=40, length=43)
        hits = total = 0
        for u in corpus.users:
            counts = np.bincount(u.pois[: u.n_train], minlength=corpus.n_pois)
            guess = int(np.argmax(counts))
            _, _, _, targets = user_test_steps(u)
            hits += int(np.sum(targets == guess))
            total += len(targets)
        acc = hits / total
        assert 0.2 <= acc <= 0.42
        # while the continuation itself is perfectly periodic per user
        u = corpus.users[0]
        assert len(set(u.pois.tolist())) == 4     # 3-cycle plus one far POI

    def test_interval_pattern_structure(self):
        corpus = data.synth_corpus(17, n_users=5, n_pois=30, pattern="interval",
                                   length=40)
        assert corpus.n_pois == 30
        for u in corpus.users:
            assert len(set(u.pois.tolist())) <= 6
            stay = u.dts < 12.0
            # short gaps stay nearby, long gaps jump at least 250 km
            assert np.all(u.dds[stay] < 5.0)
            assert np.all(u.dds[~stay] > 250.0)

    def test_interval_needs_enough_pois(self):
        with pytest.raises(ValueError):
            data.synth_corpus(1, n_users=10, n_pois=30, pattern="interval")

    def test_unknown_pattern(self):
        with pytest.raises(ValueError):
            data.synth_corpus(1, n_users=2, n_pois=20, pattern="fractal")
