"""Online learners: budgeted second-order selection plus baselines.

All learners share one calling convention: ``update(example)`` consumes a
single labelled instance, mutates the model in place, and returns the raw
pre-update margin (weights dot features) so callers can count mistakes
without recomputing the dot product. ``predict`` never mutates.

Learners
--------
sofs  second-order update on the touched coordinates, then keep only the
      B most confident (smallest covariance) features seen so far
arow  the same second-order update without any selection
pet   mistake-driven perceptron truncated to the B largest magnitudes
fofs  mistake-driven regularised gradient step, projection onto the L2
      ball of radius 1/sqrt(lambda), then truncation; deliberately scales
      the full dense vector, so its per-update cost is O(d)
ogd   hinge-driven gradient descent with a decaying step, no selection
"""
from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from .core import DenseVector, SparseExample, sparse_dot, squared_hinge_slope
from .topb import TopBTracker

ALGOS = ("sofs", "pet", "fofs", "ogd", "arow")
BUDGETED = frozenset({"sofs", "pet", "fofs"})

MODEL_MAGIC = "OFSMODEL"
MODEL_VERSION = "v1"

# hyperparameter -> whether 0 is allowed; eta = 0 yields a learner that
# never moves, useful as a degenerate grid point
_ZERO_ALLOWED = {"gamma": False, "eta": True, "lambda": False}


def _check_hyperparam(name: str, value: float) -> float:
    """Return ``value`` as a float, or raise ``ValueError`` if it is not a
    finite number > 0 (>= 0 for ``eta``)."""
    zero_ok = _ZERO_ALLOWED[name]
    if not (math.isfinite(value) and (value >= 0.0 if zero_ok else value > 0.0)):
        sign = "non-negative" if zero_ok else "positive"
        raise ValueError(f"{name} must be {sign} and finite, got {value}")
    return float(value)


def truncate(w: DenseVector, budget: int) -> DenseVector:
    """Zero all but the ``budget`` largest-magnitude entries of ``w``.

    Ties at the cutoff keep the lower index. Idempotent; returns ``w`` for
    chaining.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    a = w.array
    if budget >= len(a) or int(np.count_nonzero(a)) <= budget:
        return w
    ab = np.abs(a)
    cut = np.partition(ab, len(ab) - budget)[len(ab) - budget]
    keep = ab > cut
    short = budget - int(np.count_nonzero(keep))
    if short > 0:
        ties = np.flatnonzero(ab == cut)
        keep[ties[:short]] = True
    a[~keep] = 0.0
    return w


class OnlineLearner:
    """Common prediction plumbing; subclasses implement ``update``."""

    algo = "?"
    budget: Optional[int] = None

    @property
    def weights(self) -> DenseVector:
        raise NotImplementedError

    def raw_margin(self, ex: SparseExample) -> float:
        return sparse_dot(self.weights, ex)

    def predict(self, ex: SparseExample) -> int:
        return 1 if self.raw_margin(ex) >= 0.0 else -1

    def update(self, ex: SparseExample) -> float:
        raise NotImplementedError

    def nonzero_count(self) -> int:
        return int(np.count_nonzero(self.weights.array))

    def selected_indices(self) -> frozenset:
        return frozenset(np.flatnonzero(self.weights.array).tolist())

    def hyperparams(self) -> Dict[str, float]:
        return {}

    def _grown_margin(self, ex: SparseExample) -> float:
        """Margin that also grows the state vectors to cover ``ex``."""
        idx = ex.indices
        if len(idx) == 0:
            return 0.0
        last = int(idx[-1])
        if last >= len(self.weights):
            self._ensure(last + 1)
        return float(self.weights.array[idx] @ ex.values)

    def _ensure(self, n: int) -> None:
        self.weights.ensure(n)


class _SecondOrder(OnlineLearner):
    """Mean/covariance state shared by the sofs and arow learners.

    The covariance diagonal starts at 1 for every coordinate and can only
    shrink, and only when the coordinate is touched by an update.
    """

    def __init__(self, gamma: float = 1.0):
        self.gamma = _check_hyperparam("gamma", gamma)
        self.mu = DenseVector(fill=0.0)
        self.sigma = DenseVector(fill=1.0)

    @property
    def weights(self) -> DenseVector:
        return self.mu

    def _ensure(self, n: int) -> None:
        self.mu.ensure(n)
        self.sigma.ensure(n)

    def hyperparams(self) -> Dict[str, float]:
        return {"gamma": self.gamma}

    def _arow_step(self, idx: np.ndarray, vals: np.ndarray, y: int, margin: float) -> np.ndarray:
        """Closed-form second-order update on the active coordinates.

        With ``slope`` the :func:`squared_hinge_slope` at ``margin`` and
        ``c = -slope / 2 / (sum(sigma * x^2) + gamma)``, which is ``(1 - y *
        margin) * y / (...)``, the step is ``mu += c * sigma * x`` and
        ``sigma <- sigma * gamma / (gamma + sigma * x^2)``. Caller gates on
        positive squared hinge loss, i.e. y * margin < 1. Returns the
        refreshed covariance values aligned with ``idx``.
        """
        gamma = self.gamma
        sig = self.sigma.array
        sx = sig[idx]
        sxv = sx * vals
        c = -0.5 * squared_hinge_slope(margin, y) / (float(sxv @ vals) + gamma)
        self.mu.array[idx] += c * sxv
        new_sig = sx * gamma / (gamma + sxv * vals)
        sig[idx] = new_sig
        return new_sig


class ArowModel(_SecondOrder):
    """Full-diagonal second-order learner; keeps every touched weight."""

    algo = "arow"

    def update(self, ex: SparseExample) -> float:
        margin = self._grown_margin(ex)
        y = ex.label
        if y * margin < 1.0 and len(ex.indices):
            self._arow_step(ex.indices, ex.values, y, margin)
        return margin


class SofsModel(_SecondOrder):
    """Second-order learner that keeps only the B most confident features.

    After the closed-form update, a :class:`TopBTracker` keeps the B
    features with the smallest covariance, ties to the lower index, among
    those kept and those just touched, and the weights of all others are
    zeroed. A feature that later re-enters restarts from weight zero. At
    most ``budget`` weights are ever nonzero. An update costs O(m), plus
    O(B + k) when k touched features reach the tracker's bound.
    """

    algo = "sofs"

    def __init__(self, budget: int, gamma: float = 1.0):
        super().__init__(gamma=gamma)
        sigma = self.sigma
        self.tracker = TopBTracker(budget, lambda ix: sigma.array[ix])
        self.budget = int(budget)

    def update(self, ex: SparseExample) -> float:
        y = ex.label
        margin = self._grown_margin(ex)
        if y * margin >= 1.0 or len(ex.indices) == 0:
            return margin
        new_sig = self._arow_step(ex.indices, ex.values, y, margin)
        dropped = self.tracker.select(ex.indices, new_sig)
        if len(dropped):
            self.mu.array[dropped] = 0.0
        return margin


class FirstOrderModel(OnlineLearner):
    """Dense weight vector with a constant learning rate."""

    def __init__(self, eta: float = 0.2, budget: Optional[int] = None):
        self.eta = _check_hyperparam("eta", eta)
        self.budget = budget
        self.w = DenseVector(fill=0.0)

    @property
    def weights(self) -> DenseVector:
        return self.w

    def hyperparams(self) -> Dict[str, float]:
        return {"eta": self.eta}


class PetModel(FirstOrderModel):
    """Perceptron with truncation: gradient step on mistakes, keep top B.

    The B largest magnitudes, ties to the lower index, are kept by a
    :class:`TopBTracker` scoring by -|w| over the kept and the touched
    features, the same result as :func:`truncate` in O(m + B) per mistake.
    """

    algo = "pet"

    def __init__(self, budget: int, eta: float = 0.2):
        if budget is None or budget < 1:
            raise ValueError("pet requires a selection budget B >= 1")
        super().__init__(eta=eta, budget=int(budget))
        w = self.w
        self.tracker = TopBTracker(self.budget, lambda ix: -np.abs(w.array[ix]))

    def update(self, ex: SparseExample) -> float:
        margin = self._grown_margin(ex)
        y = ex.label
        if (1 if margin >= 0.0 else -1) != y:
            a = self.w.array
            a[ex.indices] += self.eta * y * ex.values
            dropped = self.tracker.select(ex.indices)
            if len(dropped):
                a[dropped] = 0.0
        return margin


class FofsModel(FirstOrderModel):
    """First-order feature selection via regularised updates and projection.

    On a mistake the whole vector is decayed by (1 - lambda * eta), the
    gradient step is added, the result is projected onto the L2 ball of
    radius 1/sqrt(lambda), and finally truncated to the budget. The decay
    and projection touch every coordinate, so the update is O(d) by design.
    """

    algo = "fofs"

    def __init__(self, budget: int, eta: float = 0.2, lam: float = 0.01):
        if budget is None or budget < 1:
            raise ValueError("fofs requires a selection budget B >= 1")
        lam = _check_hyperparam("lambda", lam)
        super().__init__(eta=eta, budget=int(budget))
        self.lam = lam

    def hyperparams(self) -> Dict[str, float]:
        return {"eta": self.eta, "lambda": self.lam}

    def update(self, ex: SparseExample) -> float:
        margin = self._grown_margin(ex)
        y = ex.label
        if (1 if margin >= 0.0 else -1) != y:
            a = self.w.array
            a *= 1.0 - self.lam * self.eta
            a[ex.indices] += self.eta * y * ex.values
            radius = 1.0 / math.sqrt(self.lam)
            norm = float(np.linalg.norm(a))
            if norm > radius:
                a *= radius / norm
            truncate(self.w, self.budget)
        return margin


class OgdModel(FirstOrderModel):
    """Online gradient descent on the hinge loss with an eta/sqrt(t) step."""

    algo = "ogd"

    def __init__(self, eta: float = 0.2):
        super().__init__(eta=eta, budget=None)
        self.t = 0

    def hyperparams(self) -> Dict[str, float]:
        return {"eta": self.eta, "t": self.t}

    def update(self, ex: SparseExample) -> float:
        self.t += 1
        margin = self._grown_margin(ex)
        y = ex.label
        if y * margin < 1.0 and len(ex.indices):
            step = self.eta / math.sqrt(self.t)
            self.w.array[ex.indices] += step * y * ex.values
        return margin


def make_learner(
    algo: str,
    budget: Optional[int] = None,
    *,
    gamma: float = 1.0,
    eta: float = 0.2,
    lam: float = 0.01,
) -> OnlineLearner:
    """Construct a learner by name; budgeted algorithms require ``budget``.

    gamma, eta and lambda are checked whichever algorithm reads them, so a
    bad value is rejected even when ``algo`` ignores it.
    """
    for name, value in (("gamma", gamma), ("eta", eta), ("lambda", lam)):
        _check_hyperparam(name, value)
    if algo in BUDGETED and (budget is None or budget < 1):
        raise ValueError(f"{algo} requires a selection budget B >= 1")
    if algo == "sofs":
        return SofsModel(budget, gamma=gamma)
    if algo == "arow":
        return ArowModel(gamma=gamma)
    if algo == "pet":
        return PetModel(budget, eta=eta)
    if algo == "fofs":
        return FofsModel(budget, eta=eta, lam=lam)
    if algo == "ogd":
        return OgdModel(eta=eta)
    raise ValueError(f"unknown algorithm {algo!r}; expected one of {', '.join(ALGOS)}")


def save_model(model: OnlineLearner, path) -> None:
    """Write a model as text: a header line, then one line per coordinate.

    Header: ``OFSMODEL v1 <algo> <d> <B> key=value ...`` with B = 0 for
    learners without a budget. Second-order models store ``idx mu sigma``
    for every touched coordinate, first-order models ``idx w`` for every
    nonzero one. Floats are written with repr so a reload reproduces
    predictions bit for bit.
    """
    params = " ".join(f"{k}={v!r}" for k, v in model.hyperparams().items())
    budget = model.budget or 0
    d = len(model.weights)
    lines = [f"{MODEL_MAGIC} {MODEL_VERSION} {model.algo} {d} {budget} {params}".rstrip()]
    if isinstance(model, _SecondOrder):
        mu = model.mu.array
        sig = model.sigma.array
        for j in np.flatnonzero((mu != 0.0) | (sig != 1.0)).tolist():
            lines.append(f"{j} {float(mu[j])!r} {float(sig[j])!r}")
    else:
        w = model.weights.array
        for j in np.flatnonzero(w).tolist():
            lines.append(f"{j} {float(w[j])!r}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _load_header(path, header: List[str]) -> OnlineLearner:
    """Build the learner a model header describes, checking every field."""

    def bad(what: str) -> ValueError:
        return ValueError(f"{path}: line 1: {what}")

    def count(name: str, tok: str) -> int:
        if not (tok.isascii() and tok.isdigit()):
            raise bad(f"{name} must be an integer >= 0, got {tok!r}")
        return int(tok)

    if len(header) < 5 or header[0] != MODEL_MAGIC:
        raise bad("not a model file")
    if header[1] != MODEL_VERSION:
        raise bad(f"unsupported model version {header[1]!r}")
    algo = header[2]
    if algo not in ALGOS:
        raise bad(f"unknown algorithm {algo!r}")
    d = count("d", header[3])
    budget = count("B", header[4])
    if algo in BUDGETED and budget < 1:
        raise bad(f"{algo} needs B >= 1, got {budget}")
    if algo not in BUDGETED and budget != 0:
        raise bad(f"{algo} has no budget, so B must be 0, got {budget}")
    values: Dict[str, str] = {}
    for tok in header[5:]:
        key, eq, val = tok.partition("=")
        if not eq:
            raise bad(f"expected key=value, got {tok!r}")
        if key in values:
            raise bad(f"duplicate key {key!r}")
        values[key] = val
    expected = list(make_learner(algo, budget=budget or None).hyperparams())
    if sorted(values) != sorted(expected):
        raise bad(f"{algo} keys must be {', '.join(expected)}, got {', '.join(values) or 'none'}")
    t = count("t", values.pop("t")) if "t" in values else 0
    kwargs: Dict[str, float] = {}
    for key, val in values.items():
        try:
            kwargs["lam" if key == "lambda" else key] = float(val)
        except ValueError:
            raise bad(f"{key} must be a number, got {val!r}") from None
    try:
        model = make_learner(algo, budget=budget or None, **kwargs)
    except ValueError as err:
        raise bad(str(err)) from None
    model._ensure(d)
    if isinstance(model, OgdModel):
        model.t = t
    return model


def load_model(path) -> OnlineLearner:
    """Rebuild a learner saved by :func:`save_model`.

    Every header field is checked: d and B are integers >= 0 with B >= 1
    exactly for budgeted algorithms, the keys are exactly those the
    learner's ``hyperparams`` writes, ``t`` is an integer >= 0, and the
    hyperparameters pass the learner's own checks. A body line with the
    wrong number of fields, an index outside [0, d), a non-finite weight
    or mean, or a covariance outside (0, 1] is rejected too. Each failure
    raises ``ValueError`` naming the file and the line.
    """
    with open(path, "r", encoding="ascii") as fh:
        model = _load_header(path, fh.readline().split())
        d = len(model.weights)
        second = isinstance(model, _SecondOrder)
        width = 3 if second else 2
        line_nos: List[int] = []
        idx: List[int] = []
        weights: List[float] = []
        sigmas: List[float] = []
        for line_no, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            try:
                if len(parts) != width:
                    raise ValueError
                j = int(parts[0])
                weights.append(float(parts[1]))
                if second:
                    sigmas.append(float(parts[2]))
            except ValueError:
                raise ValueError(f"{path}: line {line_no}: expected {width} numbers, got {line.strip()!r}") from None
            if not 0 <= j < d:
                raise ValueError(f"{path}: line {line_no}: index {j} outside [0, {d})")
            line_nos.append(line_no)
            idx.append(j)
    w_arr = np.asarray(weights, dtype=np.float64)
    s_arr = np.asarray(sigmas, dtype=np.float64)
    bad = ~np.isfinite(w_arr)
    if second:
        bad |= ~((s_arr > 0.0) & (s_arr <= 1.0))  # NaN fails both
    if bad.any():
        k = int(np.argmax(bad))
        if np.isfinite(w_arr[k]):
            what = f"covariance {float(s_arr[k])!r} outside (0, 1]"
        else:
            what = f"non-finite weight {float(w_arr[k])!r}"
        raise ValueError(f"{path}: line {line_nos[k]}: {what}")
    model.weights.array[idx] = w_arr
    if second:
        model.sigma.array[idx] = s_arr
    if isinstance(model, (SofsModel, PetModel)):
        # rebuild the kept set by the learner's own rule over the stored features
        w = model.weights.array
        stored = (w != 0.0) | (model.sigma.array != 1.0) if second else w != 0.0
        w[model.tracker.select(np.flatnonzero(stored))] = 0.0
    return model
