"""The three workloads: set-up, the timed user job, and its checks.

A run sets its workload up ``Config.setups`` times (``setup_s`` is the median),
then repeats whole rounds of the user job until ``seconds`` have passed,
and reports each timed end-to-end metric from the upper quartile of its
per-call times (see :func:`slow_quartile`). Every round trains fresh
learners on the same inputs, so all rounds do identical work.
The checks run after the last round, outside every timed region, on that
round's outputs.
"""
from __future__ import annotations

import contextlib
import gc
import io
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ofs import cli, data, learners, pipeline

from . import checks
from .tracing import Instrumentation, NullTracer, Tracer

ALGOS = ("sofs", "arow", "pet", "ogd")
clock = time.perf_counter


@dataclass(frozen=True)
class Config:
    """Make-up of one workload's inputs and job."""

    name: str
    n_train: int
    n_test: int
    dim: int
    idim: int
    ndim: int
    budget: int
    gamma: float
    setups: int  # set-ups per run, about 3 s of them; setup_s is their median
    eta: float = 0.2
    n_pet: Optional[int] = None  # pet trains on this prefix of the stream
    sofs_prefix: int = 0  # examples in the sort-select reference check
    files: bool = False  # libsvm files and the CLI instead of in-memory calls
    sweep_budgets: Tuple[int, ...] = ()
    sweep_repeats: int = 0
    max_in_memory: int = 0
    # calls per round of the short operations, so each gets enough samples
    reps: Tuple[Tuple[str, int], ...] = ()

    def budget_for(self, algo: str) -> Optional[int]:
        return self.budget if algo in learners.BUDGETED else None

    def calls(self, op: str) -> int:
        return dict(self.reps).get(op, 1)

    @property
    def ops(self) -> Tuple[str, ...]:
        return ALGOS + ("predict", "sweep") if self.files else ALGOS + ("predict",)


WORKLOADS: Dict[str, Config] = {
    "small-m": Config(
        "small-m", n_train=10_000, n_test=2_000, dim=3_000, idim=10, ndim=2,
        budget=40, gamma=1.0, setups=30, sofs_prefix=2_000,
    ),
    "ultra-hd": Config(
        "ultra-hd", n_train=600, n_test=2_000, dim=1_000_000, idim=500, ndim=500,
        budget=500, gamma=1.0, setups=9, n_pet=200, sofs_prefix=100,
        reps=(("arow", 5), ("ogd", 5), ("predict", 5)),
    ),
    "file-cli": Config(
        "file-cli", n_train=400, n_test=300, dim=10_000, idim=20, ndim=80,
        budget=40, gamma=1.0, setups=21, sofs_prefix=300, files=True,
        sweep_budgets=(20, 40), sweep_repeats=2, max_in_memory=200,
        reps=(("sofs", 2), ("arow", 2), ("pet", 2), ("ogd", 2), ("predict", 3)),
    ),
}
SWEEP_ALGOS = ("sofs", "pet", "ogd")


@dataclass
class Inputs:
    train: list
    test: list
    informative: frozenset
    streams: Dict[str, list]
    paths: Dict[str, str] = field(default_factory=dict)


@dataclass
class Round:
    seconds: Dict[str, List[float]]  # operation -> wall seconds of each call
    models: Dict[str, object]  # in-memory workloads: the last trained learners
    outputs: List[str]  # what each evaluate returned, or each ofs eval printed
    paths: Dict[str, str] = field(default_factory=dict)  # files the round wrote last


class OperationFailed(RuntimeError):
    """A timed call into the program did not complete."""


def setup(cfg: Config, seed: int, workdir: str, tr, index: int = 0) -> Inputs:
    """Generate the inputs with the program's generator; write files if any.

    Each set-up writes files under new names: replacing a file that was
    just written makes ext4 flush it on close, which on a virtual disk
    costs far more than the write.
    """
    spec = data.SyntheticSpec(
        n_train=cfg.n_train, n_test=cfg.n_test, dim=cfg.dim,
        idim=cfg.idim, ndim=cfg.ndim, seed=seed,
    )
    with tr.span("data.generate"):
        train_s, test_s, informative = data.generate_synthetic(spec)
        train, test = list(train_s), list(test_s)
    streams = {a: train for a in ALGOS}
    if cfg.n_pet:
        streams["pet"] = train[: cfg.n_pet]
    inp = Inputs(train, test, informative, streams)
    if cfg.files:
        paths = {k: os.path.join(workdir, f"s{index}-{k}.svm") for k in ("train", "test")}
        paths["truth"] = os.path.join(workdir, f"s{index}-informative.txt")
        with tr.span("data.write"):
            data.write_libsvm(train, paths["train"])
            data.write_libsvm(test, paths["test"])
            with open(paths["truth"], "w", encoding="ascii") as fh:
                fh.write("".join(f"{j + 1}\n" for j in sorted(informative)))
        inp.paths = paths
    return inp


def _timed(secs: Dict[str, List[float]], op: str, fn, *args, **kwargs):
    t0 = clock()
    out = fn(*args, **kwargs)
    secs.setdefault(op, []).append(clock() - t0)
    return out


def memory_round(cfg: Config, inp: Inputs) -> Round:
    """Each learner through train_stream, then evaluate the sofs model."""
    secs: Dict[str, List[float]] = {}
    models = {}
    for algo in ALGOS:
        for _ in range(cfg.calls(algo)):
            learner = learners.make_learner(algo, budget=cfg.budget_for(algo), gamma=cfg.gamma, eta=cfg.eta)
            _timed(secs, algo, pipeline.train_stream, learner, inp.streams[algo], threads=1)
            models[algo] = learner
    outputs = [repr(_timed(secs, "predict", pipeline.evaluate, models["sofs"], inp.test))
               for _ in range(cfg.calls("predict"))]
    return Round(secs, models, outputs)


def _cli(argv: List[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise OperationFailed(f"ofs {' '.join(argv)} exited with {code}")
    return out.getvalue()


def cli_round(cfg: Config, inp: Inputs, seed: int, tr, index: int, workdir: str) -> Round:
    """The user's CLI session: train each learner, eval sofs, one sweep.

    Every call writes its model or CSV under a new name, for the reason
    given in :func:`setup`.
    """
    p = dict(inp.paths)
    hyper = ["--gamma", repr(cfg.gamma), "--eta", repr(cfg.eta)]
    secs: Dict[str, List[float]] = {}
    for algo in ALGOS:
        for rep in range(cfg.calls(algo)):
            p[algo] = os.path.join(workdir, f"r{index}-{rep}-{algo}.model")
            argv = ["train", "--algo", algo, *hyper, "--data", p["train"], "--model", p[algo]]
            if cfg.budget_for(algo):
                argv += ["--B", str(cfg.budget)]
            with tr.span(f"cli.train.{algo}"):
                _timed(secs, algo, _cli, argv)
    outputs = []
    for _ in range(cfg.calls("predict")):
        with tr.span("cli.eval"):
            argv = ["eval", "--model", p["sofs"], "--data", p["test"], "--recovery", p["truth"]]
            outputs.append(_timed(secs, "predict", _cli, argv))
    p["csv"] = os.path.join(workdir, f"r{index}-sweep.csv")
    argv = [
        "sweep", "--algos", ",".join(SWEEP_ALGOS), "--B", ",".join(map(str, cfg.sweep_budgets)),
        "--train", p["train"], "--test", p["test"], "--repeats", str(cfg.sweep_repeats),
        "--seed", str(seed), *hyper, "--dim", str(cfg.dim),
        "--max-in-memory", str(cfg.max_in_memory), "--csv", p["csv"],
    ]
    with tr.span("cli.sweep"):
        _timed(secs, "sweep", _cli, argv)
    return Round(secs, {}, outputs, p)


def slow_quartile(values) -> float:
    """The upper quartile (nearest rank) of per-call times.

    The host alternates between a steady slow phase and faster, noisier
    bursts lasting seconds to tens of seconds, and now and then stalls a
    call outright. The upper quartile of a run's per-call times reads the
    slow phase whenever it covers a quarter of the run, where the median
    needs half, and it ignores stalls that hit under a quarter of the calls.
    """
    ranked = sorted(values)
    return ranked[math.ceil(0.75 * len(ranked)) - 1]


def op_seconds(cfg: Config, rounds: List[Round]) -> Dict[str, float]:
    """Each operation's per-call time over all rounds of a run."""
    return {op: slow_quartile([t for r in rounds for t in r.seconds[op]]) for op in cfg.ops}


def end_to_end(cfg: Config, inp: Inputs, setup_times, rounds: List[Round], peak_rss_mb: float) -> dict:
    secs = op_seconds(cfg, rounds)
    out = {
        "setup_s": (statistics.median(setup_times), "s"),
        "job_s": (sum(secs.values()), "s"),
    }
    for algo in ALGOS:
        out[f"train_eps.{algo}"] = (len(inp.streams[algo]) / secs[algo], "1/s")
    out["predict_eps"] = (len(inp.test) / secs["predict"], "1/s")
    out["peak_rss_mb"] = (peak_rss_mb, "MB")
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def state_mb(models) -> float:
    """Bytes of the trained learners' state vectors, in MB."""
    total = 0
    for m in models:
        for attr in ("weights", "sigma"):
            vec = getattr(m, attr, None)
            if vec is not None:
                total += vec.array.nbytes
    return total / 2**20


def _per_call(tr: Tracer, name: str) -> float:
    d = tr.durations(name)
    return statistics.median(d) if d else 0.0


def per_layer(tr: Tracer, n_rounds: int, generated: int, written: int, models) -> dict:
    """Per-layer metrics from the traced run.

    Counts are per round; times are per example, per call or per pair as
    their names say.
    """
    us = 1e6
    out = {}
    gen = sum(tr.durations("data.generate"))
    out["data.generate_us"] = (_ratio(gen, generated) * us, "us")
    out["data.write_us"] = (_ratio(sum(tr.durations("data.write")), written) * us, "us")
    lines, parse_s = tr.leaf_totals("data.parse_line")
    out["data.parse_us_per_pair"] = (_ratio(parse_s, tr.counter("data.pairs")) * us, "us")
    out["data.lines_parsed"] = (lines / n_rounds, "count")
    dots, dot_s = tr.leaf_totals("core.sparse_dot")
    out["core.sparse_dot_us"] = (_ratio(dot_s, dots) * us, "us")
    n_updates = 0
    for algo in ALGOS:
        d = np.asarray(tr.durations(f"learners.update.{algo}"))
        n_updates += len(d)
        out[f"learners.update_us.{algo}"] = (float(np.median(d)) * us if len(d) else 0.0, "us")
        out[f"learners.update_p99_us.{algo}"] = (float(np.percentile(d, 99)) * us if len(d) else 0.0, "us")
        out[f"learners.updates.{algo}"] = (tr.counter(f"learners.updates.{algo}") / n_rounds, "count")
    calls, trunc_s = tr.leaf_totals("learners.truncate")
    out["learners.truncate_us"] = (_ratio(trunc_s, calls) * us, "us")
    out["learners.truncate_calls"] = (calls / n_rounds, "count")
    out["learners.save_model_s"] = (_per_call(tr, "learners.save_model"), "s")
    out["learners.load_model_s"] = (_per_call(tr, "learners.load_model"), "s")
    out["learners.state_mb"] = (state_mb(models), "MB")
    offers, offer_s = tr.leaf_totals("topb.offer")
    sofs_updates = tr.counter("learners.updates.sofs")
    admitted = tr.counter("topb.admitted") + tr.counter("topb.admitted_evicting")
    out["topb.offers_per_update"] = (_ratio(offers, sofs_updates), "count")
    out["topb.offer_us"] = (_ratio(offer_s, offers) * us, "us")
    out["topb.comparisons_per_update"] = (_ratio(tr.counter("topb.comparisons"), sofs_updates), "count")
    out["topb.evictions_per_update"] = (_ratio(tr.counter("topb.admitted_evicting"), sofs_updates), "count")
    out["topb.admit_ratio"] = (_ratio(admitted, offers), "ratio")
    spans = tr.spans
    self_train = sum(s[4] - s[3] - s[5] - s[6] for s in spans if s[2] == "pipeline.train_stream")
    out["pipeline.train_stream_self_us"] = (_ratio(self_train, n_updates) * us, "us")
    evaluate = sum(s[4] - s[3] - s[6] for s in spans if s[2] == "pipeline.evaluate")
    out["pipeline.evaluate_us"] = (_ratio(evaluate, dots) * us, "us")
    sweep_self = sum(s[4] - s[3] - s[5] for s in spans if s[2] == "pipeline.benchmark_sweep")
    out["pipeline.sweep_self_s"] = (sweep_self / n_rounds, "s")
    for algo in ALGOS:
        out[f"cli.train_s.{algo}"] = (_per_call(tr, f"cli.train.{algo}"), "s")
    out["cli.eval_s"] = (_per_call(tr, "cli.eval"), "s")
    out["cli.sweep_s"] = (_per_call(tr, "cli.sweep"), "s")
    return out


def _trained_in_memory(cfg: Config, inp: Inputs) -> dict:
    models = {}
    for algo in ALGOS:
        learner = learners.make_learner(algo, budget=cfg.budget_for(algo), gamma=cfg.gamma, eta=cfg.eta)
        pipeline.train_stream(learner, inp.streams[algo], threads=1)
        models[algo] = learner
    return models


def run_checks(cfg: Config, inp: Inputs, rounds: List[Round]) -> Tuple[List[str], dict]:
    """Every correctness check; returns the failures and the checked models."""
    failures: List[str] = []

    def check(name, fn, *args):
        try:
            return fn(*args)
        except checks.CheckFailed as err:
            failures.append(f"{name}: {err}")
            return None

    last = rounds[-1]
    if len({out for r in rounds for out in r.outputs}) != 1:
        failures.append("rounds: identical calls gave different results")
    if cfg.files:
        p = last.paths
        check("parse train", checks.check_same_examples, list(data.read_libsvm(p["train"])), inp.train, "train file")
        check("parse test", checks.check_same_examples, list(data.read_libsvm(p["test"])), inp.test, "test file")
        models = _trained_in_memory(cfg, inp)
        for algo in ALGOS:
            check(f"ofs train {algo}", checks.check_same_model, learners.load_model(p[algo]), models[algo],
                  f"{algo} model from the file")
    else:
        models = last.models
    dim = cfg.dim
    check("arow rule", checks.check_arow, models["arow"], inp.streams["arow"], cfg.gamma, dim)
    check("ogd rule", checks.check_ogd, models["ogd"], inp.streams["ogd"], cfg.eta, dim)
    check("pet rule", checks.check_pet, models["pet"], inp.streams["pet"], cfg.eta, cfg.budget, dim)
    check("sofs kept set", checks.check_sofs_kept, models["sofs"], cfg.budget)
    prefix = inp.train[: cfg.sofs_prefix]
    sofs = learners.make_learner("sofs", budget=cfg.budget, gamma=cfg.gamma)
    pipeline.train_stream(sofs, prefix, threads=1)
    check("sofs sort-select", checks.check_sofs_sort_select, sofs, prefix, cfg.budget, cfg.gamma, dim)
    sofs_acc = checks.accuracy(checks.padded(models["sofs"].weights, dim, 0.0), inp.test)
    arow_acc = checks.accuracy(checks.padded(models["arow"].weights, dim, 0.0), inp.test)
    rec = checks.recovery(models["sofs"], inp.informative)
    if cfg.files:
        check("ofs eval output", checks.check_eval_output, last.outputs[-1], sofs_acc, rec)
        with open(p["csv"], encoding="ascii") as fh:
            rows = fh.read()
        dense = [a for a in SWEEP_ALGOS if a not in learners.BUDGETED]
        budgeted = [a for a in SWEEP_ALGOS if a in learners.BUDGETED]
        check("sweep rows", checks.check_sweep_rows, rows, budgeted, dense, cfg.sweep_budgets,
              cfg.sweep_repeats, dim)
    else:
        check("evaluate", checks.check_accuracy, float(last.outputs[-1]), models["sofs"], inp.test, dim)
    check("quality", checks.check_quality, sofs_acc, arow_acc, rec)
    return failures, models


def run(cfg: Config, seed: int, seconds: float, trace: bool, workdir: str) -> Tuple[dict, dict]:
    """One benchmark run; returns the result object and run details."""
    tr = Tracer() if trace else NullTracer()
    instrumented = Instrumentation(tr) if trace else contextlib.nullcontext()
    setup_times = []
    rounds: List[Round] = []
    with instrumented:
        for index in range(cfg.setups):
            inp = None  # drop the previous inputs before making new ones
            gc.collect()
            t0 = clock()
            inp = setup(cfg, seed, workdir, tr, index)
            setup_times.append(clock() - t0)
        started = clock()
        while True:
            if rounds:
                rounds[-1].models = {}  # one round's learners alive at a time
            if cfg.files:
                rounds.append(cli_round(cfg, inp, seed, tr, len(rounds), workdir))
            else:
                rounds.append(memory_round(cfg, inp))
            if clock() - started >= seconds:
                break
        wall = clock() - started
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures, models = run_checks(cfg, inp, rounds)
    per_round = sum(len(calls) for calls in rounds[0].seconds.values())
    if trace:
        generated = cfg.setups * (cfg.n_train + cfg.n_test)
        written = generated if cfg.files else 0
        metrics = per_layer(tr, len(rounds), generated, written, models.values())
    else:
        metrics = end_to_end(cfg, inp, setup_times, rounds, peak)
    result = {
        "correct": not failures,
        "attempted": per_round * len(rounds),
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {
        "rounds": len(rounds),
        "wall_s": wall,
        "job_s": sum(op_seconds(cfg, rounds).values()),
        "failures": failures,
        "tracer": tr if trace else None,
    }
    return result, details
