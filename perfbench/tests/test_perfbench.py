"""The benchmark's own tests: tiny runs of each workload, and every check
shown to fail on a deliberately wrong model or figure.

    python3 -m pytest perfbench/tests -q
"""
import dataclasses
import json
import os

import numpy as np
import pytest

from ofs import data, learners, pipeline

from perfbench import checks, workloads
from perfbench.tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

TINY = {
    "small-m": dict(n_train=400, n_test=100, sofs_prefix=200),
    "ultra-hd": dict(n_train=150, n_test=100, dim=20_000, idim=50, ndim=50, budget=50,
                     n_pet=40, sofs_prefix=40),
    "file-cli": dict(n_train=150, n_test=50, dim=2_000, sofs_prefix=60, max_in_memory=80),
}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run(name, trace, tmp_path):
    cfg = dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])
    result, details = workloads.run(cfg, seed=5, seconds=0.0, trace=bool(trace), workdir=str(tmp_path))
    assert details["failures"] == []
    assert result["correct"] is True
    assert result["attempted"] >= 5 and result["failed"] == 0
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    elif cfg.files:
        assert result["metrics"]["data.lines_parsed"]["value"] > 0


# -- each check against a deliberately wrong input --------------------------

DIM = 400


@pytest.fixture(scope="module")
def stream():
    spec = data.SyntheticSpec(n_train=600, n_test=200, dim=DIM, idim=8, ndim=12, seed=11)
    train, test, informative = data.generate_synthetic(spec)
    return list(train), list(test), informative


def _trained(algo, examples, budget=20):
    learner = learners.make_learner(algo, budget=budget if algo in learners.BUDGETED else None)
    pipeline.train_stream(learner, examples, threads=1)
    return learner


def _bump(model, j=None):
    a = model.weights.array
    j = int(np.argmax(np.abs(a))) if j is None else j
    a[j] += 1e-6 * float(np.max(np.abs(a)))


def test_arow_check_fails_on_perturbed_weight(stream):
    train = stream[0]
    model = _trained("arow", train)
    checks.check_arow(model, train, 1.0, DIM)
    _bump(model)
    with pytest.raises(checks.CheckFailed, match="arow mu"):
        checks.check_arow(model, train, 1.0, DIM)


def test_arow_check_fails_on_perturbed_sigma(stream):
    train = stream[0]
    model = _trained("arow", train)
    model.sigma.array[int(train[0].indices[0])] *= 1.0 + 1e-6
    with pytest.raises(checks.CheckFailed, match="arow sigma"):
        checks.check_arow(model, train, 1.0, DIM)


def test_ogd_check_fails_on_perturbed_weight(stream):
    train = stream[0]
    model = _trained("ogd", train)
    checks.check_ogd(model, train, 0.2, DIM)
    _bump(model)
    with pytest.raises(checks.CheckFailed, match="ogd w"):
        checks.check_ogd(model, train, 0.2, DIM)


def test_pet_check_fails_on_perturbed_weight(stream):
    train = stream[0]
    model = _trained("pet", train)
    checks.check_pet(model, train, 0.2, 20, DIM)
    _bump(model)
    with pytest.raises(checks.CheckFailed, match="pet w"):
        checks.check_pet(model, train, 0.2, 20, DIM)


def _swap_kept_for_dropped(model):
    """Keep B weights, but drop the most confident kept one for the least
    confident dropped one."""
    mu, sig = model.weights.array, model.sigma.array
    kept = np.flatnonzero(mu)
    dropped = np.setdiff1d(np.flatnonzero(sig < 1.0), kept)
    mu[kept[np.argmin(sig[kept])]] = 0.0
    mu[dropped[np.argmax(sig[dropped])]] = 0.5


def test_sofs_kept_check_fails_when_not_b_smallest(stream):
    model = _trained("sofs", stream[0])
    checks.check_sofs_kept(model, 20)
    _swap_kept_for_dropped(model)
    assert np.count_nonzero(model.weights.array) == 20
    with pytest.raises(checks.CheckFailed, match="not the B smallest"):
        checks.check_sofs_kept(model, 20)


def test_sofs_kept_check_fails_over_budget(stream):
    model = _trained("sofs", stream[0])
    mu, sig = model.weights.array, model.sigma.array
    mu[np.setdiff1d(np.flatnonzero(sig < 1.0), np.flatnonzero(mu))[0]] = 0.5
    with pytest.raises(checks.CheckFailed, match="budget is 20"):
        checks.check_sofs_kept(model, 20)


def test_sort_select_check_fails_on_wrong_kept_set(stream):
    prefix = stream[0][:200]
    model = _trained("sofs", prefix)
    checks.check_sofs_sort_select(model, prefix, 20, 1.0, DIM)
    _swap_kept_for_dropped(model)
    with pytest.raises(checks.CheckFailed, match="kept set differs"):
        checks.check_sofs_sort_select(model, prefix, 20, 1.0, DIM)


def test_sort_select_check_fails_on_perturbed_weight(stream):
    prefix = stream[0][:200]
    model = _trained("sofs", prefix)
    _bump(model)
    with pytest.raises(checks.CheckFailed, match="sofs mu"):
        checks.check_sofs_sort_select(model, prefix, 20, 1.0, DIM)


def test_accuracy_check_fails_on_wrong_accuracy(stream):
    train, test, _ = stream
    model = _trained("sofs", train)
    acc = pipeline.evaluate(model, test)
    assert checks.check_accuracy(acc, model, test, DIM) == acc
    with pytest.raises(checks.CheckFailed, match="reported accuracy"):
        checks.check_accuracy(acc + 1.0 / len(test), model, test, DIM)


def test_quality_check_fails_below_arow_or_on_poor_recovery():
    checks.check_quality(0.90, 0.91, 0.8)
    with pytest.raises(checks.CheckFailed, match="below arow"):
        checks.check_quality(0.88, 0.91, 1.0)
    with pytest.raises(checks.CheckFailed, match="recovers"):
        checks.check_quality(0.95, 0.91, 0.75)


def test_same_examples_check_fails_on_a_changed_value(stream):
    train = stream[0][:50]
    copy = [data.SparseExample(ex.label, ex.indices.copy(), ex.values.copy()) for ex in train]
    checks.check_same_examples(copy, train, "train")
    copy[7].values[0] = np.nextafter(copy[7].values[0], np.inf)
    with pytest.raises(checks.CheckFailed, match="example 8"):
        checks.check_same_examples(copy, train, "train")


def test_same_model_check_fails_on_one_bit(stream, tmp_path):
    model = _trained("sofs", stream[0])
    path = tmp_path / "sofs.model"
    learners.save_model(model, path)
    loaded = learners.load_model(path)
    checks.check_same_model(loaded, model, "sofs")
    j = int(np.flatnonzero(loaded.weights.array)[0])
    loaded.weights.array[j] = np.nextafter(loaded.weights.array[j], np.inf)
    with pytest.raises(checks.CheckFailed, match="weights differ"):
        checks.check_same_model(loaded, model, "sofs")


def test_eval_output_check_fails_on_wrong_figures():
    checks.check_eval_output("accuracy 0.912000\nrecovery 1.000000 (8/8)\n", 0.912, 1.0)
    with pytest.raises(checks.CheckFailed, match="accuracy"):
        checks.check_eval_output("accuracy 0.913000\nrecovery 1.000000 (8/8)\n", 0.912, 1.0)
    with pytest.raises(checks.CheckFailed, match="recovery"):
        checks.check_eval_output("accuracy 0.912000\nrecovery 0.875000 (7/8)\n", 0.912, 1.0)


def _sweep_csv(dense_per_budget: bool, sofs_nnz: int = 10) -> str:
    rows = [pipeline.CSV_HEADER]
    dim = 1000
    for seed in (0, 1):
        for b in (10, 20):
            rows.append(f"sofs,{b},{seed},0.9,5,{100 * (1 - min(sofs_nnz, b) / dim):.4f},0.1,0.1")
            rows.append(f"pet,{b},{seed},0.8,9,{100 * (1 - b / dim):.4f},0.1,0.1")
        for b in ((10, 20) if dense_per_budget else (0,)):
            rows.append(f"ogd,{b},{seed},0.85,7,0.0000,0.1,0.1")
    return "\n".join(rows) + "\n"


def test_sweep_check_accepts_both_dense_layouts_and_fails_over_budget():
    for per_budget in (True, False):
        checks.check_sweep_rows(_sweep_csv(per_budget), ["sofs", "pet"], ["ogd"], (10, 20), 2, 1000)
    bad = _sweep_csv(True).replace("sofs,10,1,0.9,5,99.0000", "sofs,10,1,0.9,5,98.9000")
    with pytest.raises(checks.CheckFailed, match="keeps 11 weights"):
        checks.check_sweep_rows(bad, ["sofs", "pet"], ["ogd"], (10, 20), 2, 1000)
    missing = "\n".join(ln for ln in _sweep_csv(True).splitlines() if not ln.startswith("pet,20,1"))
    with pytest.raises(checks.CheckFailed, match="sweep rows for pet"):
        checks.check_sweep_rows(missing, ["sofs", "pet"], ["ogd"], (10, 20), 2, 1000)


def test_tracer_self_time_excludes_children():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        tr.sample("learners.update.arow", 0.25)
        tr.leaf("data.parse_line", 0.5)
    inner, outer = tr.spans
    assert inner[1] == outer[0] and outer[1] is None
    assert outer[5] == pytest.approx(inner[4] - inner[3] + 0.25)
    assert outer[6] == 0.5
    assert tr.leaf_totals("data.parse_line") == (1, 0.5)
    assert tr.durations("learners.update.arow") == [0.25]
