"""Command-line entry point for reproducible experiment runs.

Subcommands:

    prepare    load/clean/split a check-in file (or synthesize a corpus)
               into a cache, reporting corpus statistics
    train      mini-batch training run; writes a run directory with the
               resolved config, corpus hash, per-epoch checkpoints, and the
               loss log
    eval       rank all test transitions of a corpus under a checkpoint and
               emit Acc@{1,5,10,15,20} plus MAP per cohort
    grid       cross-product of variants x ablations x cell sizes x batch
               sizes x seeds, one ranked comparison table; each leg is a
               training run with a run directory of its own
    gradcheck  finite-difference audit of the analytic gradients

Every run directory holds enough to reproduce the run exactly: resolved
config (including seed) and the corpus content hash.  Nothing in the outputs
depends on wall-clock time.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from . import data
from . import eval as evalmod
from . import train as trainmod
from .cells import ABLATION_PRESETS, INTERVAL_GATES, GateAblation, VARIANTS
from .model import (
    ModelConfig,
    init_model,
    load_checkpoint,
    loss_and_grads,
    model_param_count,
)
from .optim import fd_check

log = logging.getLogger(__name__)

def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _checked(kind, ok, what: str):
    """argparse type: ``kind(text)``, which must satisfy ``ok``."""
    def parse(text: str):
        try:
            if ok(value := kind(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return parse


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_nonnegative_int = _checked(int, lambda v: v >= 0, "an integer >= 0")
_positive_float = _checked(float, lambda v: math.isfinite(v) and v > 0,
                           "a positive finite number")
_finite_float = _checked(float, math.isfinite, "a finite number")
_nonnegative_float = _checked(float, lambda v: math.isfinite(v) and v >= 0,
                              "a finite number >= 0")
_fraction = _checked(float, lambda v: 0 < v < 1, "a number between 0 and 1")
_at_least_two = _checked(int, lambda v: v >= 2, "an integer >= 2")


def _list_of(item):
    """argparse type: comma-separated values, each parsed by ``item``; at
    least one value, and no value twice."""
    def parse(text: str):
        values = [item(tok) for tok in text.split(",") if tok]
        if not values or len(set(values)) < len(values):
            raise argparse.ArgumentTypeError(
                f"expected a comma-separated list of distinct values, "
                f"got {text!r}")
        return values
    return parse


def _one_of(names):
    """argparse type: one of ``names``."""
    return _checked(str, lambda v: v in names, f"one of {', '.join(names)}")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors are one line, ``prog: error: ...``,
    without the usage text."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def _add_run_flags(p):
    """The flags of a training run that ``train`` and ``grid`` share."""
    p.add_argument("--embed-size", type=_positive_int, default=128,
                   help="POI embedding width (default 128)")
    p.add_argument("--constraint-target", choices=("interval", "input"),
                   default="interval",
                   help="which tensors the non-positivity projection clamps")
    p.add_argument("--epochs", type=_positive_int, default=100)
    p.add_argument("--lr", type=_positive_float, default=1e-3)
    p.add_argument("--clip-norm", type=_finite_float, default=5.0,
                   help="global gradient norm cap; <= 0 disables")


# ---------------------------------------------------------------- prepare

def cmd_prepare(args) -> int:
    out = Path(args.out)
    if args.synth:
        corpus = data.synth_corpus(
            args.seed, n_users=args.users, n_pois=args.pois,
            pattern=args.pattern, length=args.length, n_short=args.short,
            train_frac=args.train_frac, jump_every=args.jump_every,
        )
        raw = corpus.stats()
    else:
        checkins = data.load_checkins(args.input, args.format)
        raw = data.checkin_stats(checkins)
        cleaned = data.clean(checkins, args.min_user_checkins,
                             args.min_poi_users)
        corpus = data.build_corpus(
            cleaned, train_frac=args.train_frac, clip_dt=args.clip_dt,
            clip_dd=args.clip_dd, log_scale=args.log_scale,
        )
    if not corpus.users:
        raise ValueError("no user is left after cleaning; no corpus written")
    out.parent.mkdir(parents=True, exist_ok=True)
    data.save_corpus(corpus, out)
    stats = corpus.stats()
    lines = [f"raw_users {raw['users']}", f"raw_pois {raw['pois']}",
             f"raw_checkins {raw['records']}"]
    lines += [f"{k} {v}" for k, v in stats.items()]
    # the corpus has a user, so it has a POI too
    density = stats["records"] / (stats["users"] * stats["pois"])
    lines.append(f"density {density:.6g}")
    report = "\n".join(lines) + "\n"
    Path(str(out) + ".stats.txt").write_text(report, encoding="utf-8")
    print(report, end="")
    print(f"wrote corpus cache: {out}")
    return 0


# ------------------------------------------------------------------ train

_FIT_ARGS = ("epochs", "batch_size", "lr", "clip_norm", "early_stop",
             "patience", "seed")


def _start_run(job, corpus_sha256: str, vocab: int):
    """Model config and ``train.fit`` keyword arguments of one training job:
    ``train``'s parsed flags or a grid leg's values.  Makes ``job.out_dir``
    and writes the job there as ``config.json`` first, so the file records
    what runs."""
    preset = ABLATION_PRESETS[job.ablation]
    ablation = GateAblation(**{f"fix_{g}": g in preset or getattr(job, f"fix_{g}")
                               for g in INTERVAL_GATES})
    cfg = ModelConfig(
        variant=job.variant, vocab=vocab, n_i=job.embed_size,
        n_c=job.cell_size, ablation=ablation, bptt_cap=job.bptt_cap,
        constraint_target=job.constraint_target,
    )
    fit_args = {k: getattr(job, k) for k in _FIT_ARGS}
    out_dir = Path(job.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "config.json", {
        "command": job.command, "corpus": str(job.corpus),
        "corpus_sha256": corpus_sha256, "variant": cfg.variant,
        "embed_size": cfg.n_i, "cell_size": cfg.n_c,
        "ablation": ablation.to_dict(),
        "constraint_target": cfg.constraint_target, "bptt_cap": cfg.bptt_cap,
        **fit_args,
    })
    return cfg, {**fit_args, "out_dir": out_dir}


def _train_sequences(corpus):
    """``train.train_sequences(corpus)``; a corpus without a training
    transition is a data error."""
    seqs, names = trainmod.train_sequences(corpus)
    if not seqs:
        raise ValueError("corpus has no training transitions")
    return seqs, names


def cmd_train(args) -> int:
    corpus = data.load_corpus(args.corpus)
    seqs, names = _train_sequences(corpus)
    cfg, job = _start_run(args, _sha256(args.corpus), corpus.n_pois)
    counts = model_param_count(cfg)
    print(f"parameters (enumerated, incl. embedding): "
          f"{counts['enumerated_total']}")
    formula = counts["formula_cell_and_readout"]
    print(f"parameters (quoted formula, cell+readout): "
          f"{formula if formula is not None else 'n/a for this variant'} "
          f"vs enumerated {counts['enumerated_cell_and_readout']}")
    params = init_model(cfg, np.random.default_rng(job["seed"]))
    result = trainmod.fit(params, cfg, seqs, names=names, **job)
    print(f"epochs run: {result.epochs_run}"
          + (" (early stop)" if result.stopped_early else ""))
    print(f"final epoch loss: {result.losses[-1]:.6f}")
    print(f"checkpoint: {job['out_dir'] / 'checkpoint.bin'}")
    return 0


# ------------------------------------------------------------------- eval

def _emit_metrics(results_by_cohort, ks, out_dir, dump):
    """One report per cohort, in the order asked, to stdout and, byte for
    byte, to ``metrics.txt``; ``metrics.json`` holds the same reports."""
    reports = [evalmod.summarize(results, cohort, ks)
               for cohort, results in results_by_cohort.items()]
    text = "\n".join("\n".join(rep.lines()) + "\n" for rep in reports)
    print(text, end="")
    if out_dir is not None:
        (out_dir / "metrics.txt").write_text(text, encoding="utf-8")
        _write_json(out_dir / "metrics.json",
                    [rep.to_dict() for rep in reports])
        if dump:
            rows = ["user\tstep\trank"]
            for results in results_by_cohort.values():
                rows += [f"{r.user}\t{r.step}\t{r.rank}" for r in results]
            (out_dir / "ranks.tsv").write_text("\n".join(rows) + "\n",
                                               encoding="utf-8")


def cmd_eval(args) -> int:
    corpus = data.load_corpus(args.corpus)
    params, cfg, _ = load_checkpoint(args.checkpoint)
    out_dir, made = None, []
    if args.out_dir is not None:
        # an unusable --out-dir fails here, before the ranking pass; the
        # directories made for it go again if the pass fails
        out_dir = Path(args.out_dir)
        made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
        out_dir.mkdir(parents=True, exist_ok=True)
    cohorts = ("all", "cold") if args.cohort == "both" else (args.cohort,)
    try:
        results_by_cohort = evalmod.rank_cohorts(
            params, cfg, corpus, cohorts, cold_threshold=args.cold_threshold,
            exclude_visited=args.exclude_visited)
    except BaseException:
        for d in made:
            d.rmdir()
        raise
    _emit_metrics(results_by_cohort, tuple(args.topk), out_dir, args.dump_ranks)
    return 0


# ------------------------------------------------------------------- grid

def cmd_grid(args) -> int:
    legs = [leg for leg in itertools.product(
                args.variants, args.ablations, args.cell_sizes,
                args.batch_sizes, args.seeds)
            if leg[0] != "lstm" or leg[1] == "none"]  # lstm has no gate to pin
    if not legs:
        raise ValueError("no legs: lstm takes only the none ablation")
    corpus = data.load_corpus(args.corpus)
    seqs, names = _train_sequences(corpus)
    corpus_sha256 = _sha256(args.corpus)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for variant, ablation, n_c, batch, seed in legs:
        leg = f"{variant}-{ablation}-c{n_c}-b{batch}-s{seed}"
        row = {"leg": leg, "variant": variant, "ablation": ablation,
               "cell": n_c, "batch": batch, "seed": seed}
        try:
            cfg, job = _start_run(argparse.Namespace(**{
                **vars(args), "variant": variant, "ablation": ablation,
                "cell_size": n_c, "batch_size": batch, "seed": seed,
                "out_dir": out_dir / leg}), corpus_sha256, corpus.n_pois)
            params = init_model(cfg, np.random.default_rng(job["seed"]))
            trainmod.fit(params, cfg, seqs, names=names, **job)
            rep = evalmod.evaluate(params, cfg, corpus)
            row.update(acc1=rep.acc[1], acc5=rep.acc[5], acc10=rep.acc[10],
                       map=rep.mean_ap, status="ok")
        except Exception as exc:      # leg isolation
            log.warning("grid leg %s failed: %s", leg, exc)
            nan = float("nan")
            row.update(acc1=nan, acc5=nan, acc10=nan, map=nan,
                       status=f"failed: {exc}")
        rows.append(row)
    rows.sort(key=lambda r: (-(r["acc1"] if r["acc1"] == r["acc1"] else -1.0),
                             -(r["map"] if r["map"] == r["map"] else -1.0),
                             r["leg"]))
    header = ["leg", "variant", "ablation", "cell", "batch", "seed",
              "acc@1", "acc@5", "acc@10", "map", "status"]
    lines = ["\t".join(header)]
    for r in rows:
        lines.append("\t".join([
            r["leg"], r["variant"], r["ablation"], str(r["cell"]),
            str(r["batch"]), str(r["seed"]), f"{r['acc1']:.4f}",
            f"{r['acc5']:.4f}", f"{r['acc10']:.4f}", f"{r['map']:.4f}",
            r["status"],
        ]))
    table = "\n".join(lines) + "\n"
    (out_dir / "grid.tsv").write_text(table, encoding="utf-8")
    print(table, end="")
    failures = sum(r["status"] != "ok" for r in rows)
    if failures:
        print(f"grid: {failures} leg(s) failed", file=sys.stderr)
        return 1
    return 0


# -------------------------------------------------------------- gradcheck

def cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(args.seed)
    variants = VARIANTS if args.variant == "all" else (args.variant,)
    all_ok = True
    for variant in variants:
        cfg = ModelConfig(variant=variant, vocab=args.vocab,
                          n_i=args.embed_size, n_c=args.cell_size)
        params = init_model(cfg, rng)
        pois = rng.integers(0, cfg.vocab, size=args.steps)
        targets = rng.integers(0, cfg.vocab, size=args.steps)
        dts = rng.uniform(0.5, 30.0, size=args.steps)
        dds = rng.uniform(0.0, 40.0, size=args.steps)
        _, grads = loss_and_grads(params, cfg, pois, dts, dds, targets)
        report = fd_check(
            lambda: loss_and_grads(params, cfg, pois, dts, dds, targets)[0],
            params.tensors(), grads, eps=args.eps, tol=args.tol,
        )
        print(f"{variant}: {report}")
        all_ok &= report.passed
    return 0 if all_ok else 1


# ------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="stpoi",
        description="next-POI recommendation experiments",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="build a corpus cache")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="check-in file to load")
    source.add_argument("--synth", action="store_true",
                        help="synthesize a corpus instead of loading a file")
    p.add_argument("--format", choices=("snap", "csv"), default="snap")
    p.add_argument("--pattern", choices=data.SYNTH_PATTERNS,
                   default="periodic")
    p.add_argument("--users", type=_positive_int, default=50)
    p.add_argument("--pois", type=_positive_int, default=40)
    p.add_argument("--length", type=_at_least_two, default=60)
    p.add_argument("--short", type=_nonnegative_int, default=0,
                   help="number of 6-record users (cold-start cohort)")
    p.add_argument("--jump-every", type=_positive_int, default=7)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--train-frac", type=_fraction, default=0.7)
    p.add_argument("--min-user-checkins", type=_nonnegative_int, default=10)
    p.add_argument("--min-poi-users", type=_nonnegative_int, default=10)
    p.add_argument("--clip-dt", type=_nonnegative_float, default=None,
                   help="cap time intervals at this many hours")
    p.add_argument("--clip-dd", type=_nonnegative_float, default=None,
                   help="cap distances at this many km")
    p.add_argument("--log-scale", action="store_true",
                   help="apply log1p to the intervals")
    p.add_argument("--out", default="corpus.bin")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train a model on a corpus cache")
    p.add_argument("--corpus", required=True)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--out-dir", required=True)
    _add_run_flags(p)
    p.add_argument("--variant", choices=VARIANTS, default="st-clstm")
    p.add_argument("--cell-size", type=_positive_int, default=128,
                   help="recurrent state width (default 128)")
    p.add_argument("--ablation", choices=tuple(ABLATION_PRESETS), default="none",
                   help="named gate-pinning preset")
    p.add_argument("--fix-t1", action="store_true",
                   help="pin the short-term time gate to ones")
    p.add_argument("--fix-t2", action="store_true",
                   help="pin the long-term time gate to ones")
    p.add_argument("--fix-d1", action="store_true",
                   help="pin the short-term distance gate to ones")
    p.add_argument("--fix-d2", action="store_true",
                   help="pin the long-term distance gate to ones")
    p.add_argument("--bptt-cap", type=_positive_int, default=None,
                   help="truncate gradient flow to this many steps")
    p.add_argument("--batch-size", type=_positive_int, default=10)
    p.add_argument("--early-stop", action="store_true",
                   help="stop after --patience epochs without improvement")
    p.add_argument("--patience", type=_positive_int, default=10)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--cohort", choices=("all", "cold", "both"),
                   default="both")
    p.add_argument("--cold-threshold", type=_nonnegative_int, default=5)
    p.add_argument("--exclude-visited", action="store_true",
                   help="drop already-visited POIs from the candidate list")
    p.add_argument("--topk", type=_list_of(_positive_int),
                   default="1,5,10,15,20",
                   help="comma-separated K values for Acc@K")
    p.add_argument("--out-dir", default=None)
    p.add_argument("--dump-ranks", action="store_true",
                   help="also write one rank per test instance of each cohort")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("grid", help="variant/ablation/size comparison table")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--variants", type=_list_of(_one_of(VARIANTS)),
                   default="lstm,st-lstm,st-clstm")
    p.add_argument("--ablations", type=_list_of(_one_of(ABLATION_PRESETS)),
                   default="none")
    p.add_argument("--cell-sizes", type=_list_of(_positive_int), default="128")
    p.add_argument("--batch-sizes", type=_list_of(_positive_int), default="10")
    p.add_argument("--seeds", type=_list_of(_nonnegative_int), default="0")
    _add_run_flags(p)
    # every leg runs with train's defaults for the train flags grid lacks
    p.set_defaults(func=cmd_grid, bptt_cap=None, early_stop=False, patience=10,
                   **{f"fix_{g}": False for g in INTERVAL_GATES})

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--variant", choices=VARIANTS + ("all",), default="all")
    p.add_argument("--vocab", type=_positive_int, default=6)
    p.add_argument("--embed-size", type=_positive_int, default=3)
    p.add_argument("--cell-size", type=_positive_int, default=4)
    p.add_argument("--steps", type=_positive_int, default=5)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--eps", type=_positive_float, default=1e-5)
    p.add_argument("--tol", type=_positive_float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)
    return ap


def main(argv=None) -> int:
    """Run one command.  Exit status: 0 success, 1 a failed gradient check
    or grid leg, 2 an input or output the command cannot use (flags are
    rejected by the parser first), 3 training divergence.  Errors with
    status 2 or 3 are one line on stderr, ``<command>: <message>``."""
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (trainmod.TrainingDiverged, OSError, ValueError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, trainmod.TrainingDiverged) else 2


if __name__ == "__main__":
    sys.exit(main())
