"""Correctness checks, computed apart from the program.

Each check takes a trained model (or a reported figure) plus the inputs it
was trained or scored on, recomputes the expected result with the
benchmark's own numpy code, and raises :class:`CheckFailed` with a short
reason when the two disagree. None of this code calls into ``ofs`` beyond
reading a model's public state vectors (``weights``, ``sigma``), so a fault
in a learner cannot hide in its own reference.
"""
from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

# tolerance for the documented update rules, relative to max |mu|
REL_TOL = 1e-9


class CheckFailed(AssertionError):
    """A program output disagreed with the benchmark's own computation."""


def padded(vec, dim: int, fill: float) -> np.ndarray:
    """A model state vector padded to ``dim`` with its untouched value."""
    arr = np.asarray(vec.array, dtype=np.float64)
    if len(arr) > dim:
        raise CheckFailed(f"state vector has {len(arr)} cells, more than dim {dim}")
    out = np.full(dim, fill)
    out[: len(arr)] = arr
    return out


def _close(name: str, got: np.ndarray, want: np.ndarray, scale: float) -> None:
    err = float(np.max(np.abs(got - want))) if len(want) else 0.0
    if err > REL_TOL * scale:
        j = int(np.argmax(np.abs(got - want)))
        raise CheckFailed(
            f"{name}: max deviation {err:.3g} at index {j} "
            f"(program {got[j]!r}, reference {want[j]!r}), tolerance {REL_TOL * scale:.3g}"
        )


def arow_reference(examples: Iterable, gamma: float, dim: int, budget: int | None = None):
    """AROW with a diagonal covariance, carried as its inverse.

    On a positive squared-hinge loss (y*m < 1) with m = mu.x:
    ``c = (1 - y*m) / (sum(sigma*x^2) + gamma)``, ``mu += c*y*sigma*x`` and
    ``1/sigma += x^2/gamma``. With ``budget`` set this is the sort-select
    form of sofs: after every such update, all coordinates touched so far
    are ordered by (sigma, index) and all but the first ``budget`` have
    their weight zeroed.
    """
    mu = np.zeros(dim)
    prec = np.ones(dim)
    touched = np.zeros(dim, dtype=bool)
    for ex in examples:
        idx, x, y = ex.indices, ex.values, ex.label
        if len(idx) == 0:
            continue
        margin = float(mu[idx] @ x)
        if y * margin >= 1.0:
            continue
        sx = x / prec[idx]
        c = (1.0 - y * margin) / (float(sx @ x) + gamma)
        mu[idx] += c * y * sx
        prec[idx] += x * x / gamma
        if budget is not None:
            touched[idx] = True
            cand = np.flatnonzero(touched)
            if len(cand) > budget:
                order = np.lexsort((cand, 1.0 / prec[cand]))
                mu[cand[order[budget:]]] = 0.0
    return mu, 1.0 / prec


def ogd_reference(examples: Iterable, eta: float, dim: int) -> np.ndarray:
    """Hinge-loss gradient descent: on y*m < 1, ``w += eta/sqrt(t) * y * x``."""
    w = np.zeros(dim)
    for t, ex in enumerate(examples, start=1):
        idx = ex.indices
        if len(idx) and ex.label * float(w[idx] @ ex.values) < 1.0:
            w[idx] += eta / math.sqrt(t) * ex.label * ex.values
    return w


def pet_reference(examples: Iterable, eta: float, budget: int, dim: int) -> np.ndarray:
    """Perceptron with truncation: on a mistake (sign(0) = +1),
    ``w += eta * y * x``, then keep the ``budget`` largest |w| (ties keep
    the lower index)."""
    w = np.zeros(dim)
    support = np.zeros(0, dtype=np.int64)
    for ex in examples:
        idx, y = ex.indices, ex.label
        if (1 if float(w[idx] @ ex.values) >= 0.0 else -1) == y:
            continue
        w[idx] += eta * y * ex.values
        support = np.union1d(support, idx)
        support = support[w[support] != 0.0]
        if len(support) > budget:
            order = np.lexsort((support, -np.abs(w[support])))
            w[support[order[budget:]]] = 0.0
            support = np.sort(support[order[:budget]])
    return w


def check_arow(model, examples: Sequence, gamma: float, dim: int) -> None:
    mu, sigma = arow_reference(examples, gamma, dim)
    scale = max(float(np.max(np.abs(mu))), 1e-300)
    _close("arow mu", padded(model.weights, dim, 0.0), mu, scale)
    _close("arow sigma", padded(model.sigma, dim, 1.0), sigma, 1.0)


def check_ogd(model, examples: Sequence, eta: float, dim: int) -> None:
    w = ogd_reference(examples, eta, dim)
    _close("ogd w", padded(model.weights, dim, 0.0), w, max(float(np.max(np.abs(w))), 1e-300))


def check_pet(model, examples: Sequence, eta: float, budget: int, dim: int) -> None:
    w = pet_reference(examples, eta, budget, dim)
    _close("pet w", padded(model.weights, dim, 0.0), w, max(float(np.max(np.abs(w))), 1e-300))


def check_sofs_sort_select(model, examples: Sequence, budget: int, gamma: float, dim: int) -> None:
    """sofs weights equal a from-scratch sort-select recomputation."""
    mu, sigma = arow_reference(examples, gamma, dim, budget=budget)
    got = padded(model.weights, dim, 0.0)
    kept_got, kept_want = np.flatnonzero(got), np.flatnonzero(mu)
    if not np.array_equal(kept_got, kept_want):
        extra = np.setdiff1d(kept_got, kept_want)[:5].tolist()
        missing = np.setdiff1d(kept_want, kept_got)[:5].tolist()
        raise CheckFailed(f"sofs kept set differs from sort-select: extra {extra}, missing {missing}")
    _close("sofs mu", got, mu, max(float(np.max(np.abs(mu))), 1e-300))
    _close("sofs sigma", padded(model.sigma, dim, 1.0), sigma, 1.0)


def check_sofs_kept(model, budget: int) -> None:
    """At most B nonzeros, and they are B smallest sigma among touched.

    Holds whatever rule breaks ties: max sigma(kept) <= min sigma(touched
    but not kept).
    """
    mu = np.asarray(model.weights.array)
    sigma = np.asarray(model.sigma.array)
    kept = np.flatnonzero(mu)
    touched = np.flatnonzero(sigma[: len(sigma)] < 1.0)
    if len(kept) > budget:
        raise CheckFailed(f"sofs keeps {len(kept)} nonzero weights, budget is {budget}")
    if len(np.setdiff1d(kept, touched)):
        raise CheckFailed("sofs keeps a weight on a coordinate it never updated")
    if len(kept) != min(budget, len(touched)):
        raise CheckFailed(
            f"sofs keeps {len(kept)} weights with {len(touched)} touched coordinates "
            f"and budget {budget}"
        )
    rest = np.setdiff1d(touched, kept)
    if len(kept) and len(rest):
        worst_kept = float(sigma[kept].max())
        best_dropped = float(sigma[rest].min())
        if worst_kept > best_dropped:
            raise CheckFailed(
                f"sofs kept set is not the B smallest sigma: kept max {worst_kept!r} "
                f"> dropped min {best_dropped!r}"
            )


def accuracy(weights: np.ndarray, examples: Sequence) -> float:
    """Share of examples where sign(w.x), with sign(0) = +1, equals the label."""
    right = 0
    for ex in examples:
        pred = 1 if float(weights[ex.indices] @ ex.values) >= 0.0 else -1
        right += pred == ex.label
    return right / len(examples)


def check_accuracy(reported: float, model, examples: Sequence, dim: int) -> float:
    """The reported accuracy equals numpy sign(w.x) over the examples."""
    want = accuracy(padded(model.weights, dim, 0.0), examples)
    if reported != want:
        raise CheckFailed(f"reported accuracy {reported!r}, recomputed {want!r}")
    return want


def recovery(model, informative) -> float:
    kept = set(np.flatnonzero(model.weights.array).tolist())
    return len(kept & set(informative)) / len(informative)


def check_quality(sofs_acc: float, arow_acc: float, rec: float) -> None:
    """Acceptance 06's criteria: sofs within 0.02 of arow, recovery >= 0.8."""
    if sofs_acc < arow_acc - 0.02:
        raise CheckFailed(f"sofs accuracy {sofs_acc:.4f} is below arow {arow_acc:.4f} - 0.02")
    if rec < 0.8:
        raise CheckFailed(f"sofs recovers {rec:.3f} of the informative set, below 0.8")


def check_same_examples(got: Sequence, want: Sequence, what: str) -> None:
    """Parsed examples equal the generated ones exactly."""
    if len(got) != len(want):
        raise CheckFailed(f"{what}: {len(got)} examples parsed, {len(want)} generated")
    for n, (a, b) in enumerate(zip(got, want), start=1):
        if (
            a.label != b.label
            or not np.array_equal(a.indices, b.indices)
            or not np.array_equal(a.values, b.values)
        ):
            raise CheckFailed(f"{what}: example {n} differs from the generator's")


def check_same_model(got, want, what: str) -> None:
    """Two models hold the same algorithm, hyperparameters and state, bit for bit."""
    if got.algo != want.algo or got.hyperparams() != want.hyperparams():
        raise CheckFailed(f"{what}: {got.algo} {got.hyperparams()} vs {want.algo} {want.hyperparams()}")
    for attr in ("weights", "sigma"):
        if not hasattr(want, attr):
            continue
        a = np.asarray(getattr(got, attr).array)
        b = np.asarray(getattr(want, attr).array)
        if len(a) != len(b) or not np.array_equal(a, b):
            raise CheckFailed(f"{what}: {attr} differ from the in-memory model")


def check_eval_output(text: str, acc: float, rec: float) -> None:
    """``ofs eval --recovery`` printed the recomputed accuracy and recovery."""
    lines = {ln.split()[0]: ln.split()[1] for ln in text.splitlines() if ln.strip()}
    if lines.get("accuracy") != f"{acc:.6f}":
        raise CheckFailed(f"ofs eval printed accuracy {lines.get('accuracy')}, recomputed {acc:.6f}")
    if lines.get("recovery") != f"{rec:.6f}":
        raise CheckFailed(f"ofs eval printed recovery {lines.get('recovery')}, recomputed {rec:.6f}")


def check_sweep_rows(
    csv_text: str, budgeted: Sequence[str], dense: Sequence[str], budgets: Sequence[int],
    repeats: int, dim: int,
) -> None:
    """Every budgeted (algo, B, repeat) row is present and keeps at most B weights.

    A dense baseline may appear once per repeat or once per budget and
    repeat; both are accepted.
    """
    rows = [ln.split(",") for ln in csv_text.strip().splitlines()[1:]]
    seen = {}
    for algo, b, seed, _acc, _mist, sparsity, *_ in rows:
        seen.setdefault(algo, []).append((int(b), int(seed), float(sparsity)))
    for algo in budgeted:
        got = sorted((b, s) for b, s, _ in seen.get(algo, []))
        seeds = sorted({s for _, s in got})
        if len(seeds) != repeats or got != sorted((b, s) for b in budgets for s in seeds):
            raise CheckFailed(f"sweep rows for {algo}: {got}")
        for b, s, sparsity in seen[algo]:
            nnz = round(dim * (100.0 - sparsity) / 100.0)
            if nnz > b:
                raise CheckFailed(f"sweep row {algo} B={b} seed={s} keeps {nnz} weights")
    for algo in dense:
        n = len(seen.get(algo, []))
        if n not in (repeats, repeats * len(budgets)):
            raise CheckFailed(f"sweep has {n} rows for dense {algo}, {repeats} repeats")
