"""Online learners: budgeted second-order selection plus baselines.

All learners share one calling convention: ``update(example)`` consumes a
single labelled instance, mutates the model in place, and returns the raw
pre-update margin (weights dot features) so callers can count mistakes
without recomputing the dot product. ``predict`` never mutates.

A step that overflows leaves a non-finite weight or a zero covariance in
the state; training goes on, but :func:`save_model` refuses to write it
and :func:`check_savable` stops the sweep and cross-validation scoring it.

Learners
--------
sofs  second-order update on the touched coordinates, then keep only the
      B most confident (smallest covariance) features seen so far
arow  the same second-order update without any selection
pet   mistake-driven perceptron truncated to the B largest magnitudes
fofs  mistake-driven regularised gradient step, projection onto the L2
      ball of radius 1/sqrt(lambda), then truncation; O(d) per update for
      the dense shrink and projection, the truncation ranks only nonzeros
ogd   hinge-driven gradient descent with a decaying step, no selection

Each learner states its budget rule once; its hooks ``_listed`` and
``_impose_budget`` let the model-file code apply it without naming a class.
"""
from __future__ import annotations

import math
import warnings
from typing import Dict, List, Optional, Tuple

import numpy as np

from .core import DenseVector, SparseExample, sparse_dot, squared_hinge_slope
from .topb import TopBTracker, first_b

MODEL_MAGIC = "OFSMODEL"
MODEL_VERSION = "v1"

# make_learner keyword -> the hyperparameter's name in messages and model headers
_PARAM_NAMES = {"gamma": "gamma", "eta": "eta", "lam": "lambda"}
_KEYWORDS = {name: key for key, name in _PARAM_NAMES.items()}


def format_grid_point(params: Dict[str, float]) -> str:
    """``params``, keyed by :func:`make_learner` keyword, as ``name=value``
    pairs spelled as a model header spells them: ``eta=0.2 lambda=0.01``.
    Each value is ``repr(float(v))``, so distinct values print distinctly."""
    return " ".join(f"{_PARAM_NAMES[key]}={float(value)!r}" for key, value in params.items())


def _check_hyperparam(key: str, value: float) -> float:
    """Return ``value`` as a float, or raise ``ValueError`` if it is not a
    finite number > 0 (>= 0 for ``eta``: a learner that never moves is a
    useful degenerate grid point)."""
    zero_ok = key == "eta"
    if not (math.isfinite(value) and (value >= 0.0 if zero_ok else value > 0.0)):
        sign = "non-negative" if zero_ok else "positive"
        raise ValueError(f"{_PARAM_NAMES[key]} must be {sign} and finite, got {value}")
    return float(value)


def _check_budget(algo: str, budget: Optional[int]) -> int:
    """Return ``budget`` as an int, or raise ``ValueError`` unless it is >= 1."""
    if budget is None or budget < 1:
        raise ValueError(f"{algo} needs B >= 1, got {budget}")
    return int(budget)


def truncate(w: DenseVector, budget: int) -> DenseVector:
    """Zero all but the ``budget`` largest-magnitude entries of ``w``.

    Ties at the cutoff keep the lower index. Only the nonzero entries are
    ranked, at most B + m after a ``fofs`` update; when some are zeroed,
    every -0.0 becomes +0.0. Idempotent; returns ``w`` for chaining.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    a = w.array
    nz = np.flatnonzero(a)
    if len(nz) <= budget:
        return w
    keep, _ = first_b(nz, -np.abs(a[nz]), budget)
    a[nz[~keep]] = 0.0
    a += 0.0  # -0.0 + 0.0 is +0.0
    return w


class OnlineLearner:
    """Common prediction plumbing; subclasses implement ``update``."""

    algo = "?"
    reads: Tuple[str, ...] = ()  # the make_learner keywords the constructor takes
    counters: Tuple[str, ...] = ()  # integer attributes a model header writes after them
    budgeted = False  # whether the constructor takes a budget B first
    budget: Optional[int] = None
    weights: DenseVector  # the weights; the means for a second-order learner

    def predict(self, ex: SparseExample) -> int:
        return 1 if sparse_dot(self.weights, ex) >= 0.0 else -1

    def nonzero_count(self) -> int:
        return int(np.count_nonzero(self.weights.array))

    def selected_indices(self) -> frozenset:
        return frozenset(np.flatnonzero(self.weights.array).tolist())

    def hyperparams(self) -> Dict[str, float]:
        return {_PARAM_NAMES.get(key, key): getattr(self, key) for key in self.reads + self.counters}

    def _listed(self) -> np.ndarray:
        """Indices a model file lists even where every state vector holds its fill."""
        return np.zeros(0, dtype=np.int64)

    def _impose_budget(self, keys: np.ndarray) -> None:
        """Leave a loaded state as an update would; ``keys`` are the sorted indices its file listed."""

    def _grown_margin(self, ex: SparseExample) -> Tuple[float, np.ndarray]:
        """Margin and the weights ``wi`` at ``ex.indices``, after growing the
        state vectors to cover ``ex``. A step writes ``w[idx] = wi + delta``,
        the same values as ``w[idx] += delta`` without a second gather."""
        idx = ex.indices
        a = self.weights.array
        if len(idx) and idx[-1] >= len(a):
            self._ensure(int(idx[-1]) + 1)
            a = self.weights.array
        wi = a[idx]
        return float(wi.dot(ex.values)) + 0.0, wi  # + 0.0: see core.sparse_dot

    def _state(self) -> Tuple[DenseVector, ...]:
        """The per-coordinate state vectors, weights first: what
        ``_ensure`` grows and what a model file stores, one column each."""
        return (self.weights,)

    def _ensure(self, n: int) -> None:
        for vec in self._state():
            vec.ensure(n)


class _SecondOrder(OnlineLearner):
    """State shared by sofs and arow: means ``weights``, covariances ``sigma``.

    A covariance starts at 1 and shrinks only when its coordinate is
    touched. It stays in (0, 1] unless ``sigma * x**2`` overflows, giving 0.
    """

    reads = ("gamma",)

    def __init__(self, gamma: float = 1.0):
        self.gamma = _check_hyperparam("gamma", gamma)
        self.weights = DenseVector(fill=0.0)
        self.sigma = DenseVector(fill=1.0)

    def _state(self) -> Tuple[DenseVector, ...]:
        return (self.weights, self.sigma)

    def _arow_step(self, idx: np.ndarray, vals: np.ndarray, y: int, margin: float, wi: np.ndarray) -> np.ndarray:
        """Closed-form second-order update on the active coordinates.

        With ``slope`` the :func:`squared_hinge_slope` at ``margin`` and
        ``c = -slope / 2 / (sum(sigma * x^2) + gamma)``, which is ``(1 - y *
        margin) * y / (...)``, the step is ``mu += c * sigma * x`` and
        ``sigma <- sigma * gamma / (gamma + sigma * x^2)``. Caller gates on
        positive squared hinge loss, i.e. y * margin < 1, and passes the
        means ``wi`` at ``idx``. Returns the refreshed covariance values
        aligned with ``idx``.
        """
        gamma = self.gamma
        sig = self.sigma.array
        sx = sig[idx]
        sxv = sx * vals
        c = -0.5 * squared_hinge_slope(margin, y) / (float(sxv.dot(vals)) + gamma)
        self.weights.array[idx] = wi + c * sxv
        new_sig = sx * gamma / (gamma + sxv * vals)
        sig[idx] = new_sig
        return new_sig


class ArowModel(_SecondOrder):
    """Full-diagonal second-order learner; keeps every touched weight."""

    algo = "arow"

    def update(self, ex: SparseExample) -> float:
        margin, wi = self._grown_margin(ex)
        y = ex.label
        if y * margin < 1.0 and len(wi):
            self._arow_step(ex.indices, ex.values, y, margin, wi)
        return margin


class _KeepsTopB(OnlineLearner):
    """A budget kept by ``tracker``, a :class:`TopBTracker`: sofs and pet."""

    def _keep(self, idx: np.ndarray, scores: np.ndarray) -> None:
        """Reselect over the kept set and ``idx`` and zero the dropped weights."""
        dropped = self.tracker.select(idx, scores)
        if len(dropped):
            self.weights.array[dropped] = 0.0

    def _listed(self) -> np.ndarray:
        return np.array(self.tracker.indices(), dtype=np.int64)

    def _impose_budget(self, keys: np.ndarray) -> None:
        self._keep(keys, self.tracker.score(keys))


class SofsModel(_KeepsTopB, _SecondOrder):
    """Second-order learner that keeps only the B most confident features.

    After the closed-form update, a :class:`TopBTracker` keeps the B
    features with the smallest covariance, ties to the lower index, among
    those kept and those just touched, and the weights of all others are
    zeroed. A feature that later re-enters restarts from weight zero. At
    most ``budget`` weights are ever nonzero. An update costs O(m), plus
    O(B + m) when a touched outsider reaches the tracker's bound or a kept
    covariance rises above it.
    """

    algo = "sofs"
    budgeted = True

    def __init__(self, budget: int, gamma: float = 1.0):
        self.budget = _check_budget(self.algo, budget)
        super().__init__(gamma=gamma)
        sigma = self.sigma
        self.tracker = TopBTracker(self.budget, lambda ix: sigma.array[ix])

    def update(self, ex: SparseExample) -> float:
        y = ex.label
        margin, wi = self._grown_margin(ex)
        if y * margin < 1.0 and len(wi):
            self._keep(ex.indices, self._arow_step(ex.indices, ex.values, y, margin, wi))
        return margin


class FirstOrderModel(OnlineLearner):
    """Dense weight vector ``weights`` with a constant learning rate."""

    reads = ("eta",)

    def __init__(self, eta: float = 0.2):
        self.eta = _check_hyperparam("eta", eta)
        self.weights = DenseVector(fill=0.0)


class PetModel(_KeepsTopB, FirstOrderModel):
    """Perceptron with truncation: gradient step on mistakes, keep top B.

    The B largest magnitudes, ties to the lower index, are kept by a
    :class:`TopBTracker` scoring by -|w| over the kept and the touched
    features, the same result as :func:`truncate`. A mistake costs O(m),
    plus O(B + m) when a touched outsider reaches the tracker's bound or a
    kept magnitude falls below it.
    """

    algo = "pet"
    budgeted = True

    def __init__(self, budget: int, eta: float = 0.2):
        self.budget = _check_budget(self.algo, budget)
        super().__init__(eta=eta)
        w = self.weights
        self.tracker = TopBTracker(self.budget, lambda ix: -np.abs(w.array[ix]))

    def update(self, ex: SparseExample) -> float:
        margin, wi = self._grown_margin(ex)
        y = ex.label
        if (1 if margin >= 0.0 else -1) != y:
            new_w = wi + self.eta * y * ex.values
            self.weights.array[ex.indices] = new_w
            self._keep(ex.indices, -np.abs(new_w))
        return margin


class FofsModel(FirstOrderModel):
    """First-order feature selection via regularised updates and projection.

    On a mistake the whole vector is decayed by (1 - lambda * eta), a factor
    that must not be negative (0 is allowed), the gradient step is added,
    the result is projected onto the L2 ball of radius 1/sqrt(lambda), and
    finally truncated to the budget. The decay and projection touch every
    coordinate, so the update is O(d) by design; :func:`truncate` ranks only
    the at most B + m nonzero weights.
    """

    algo = "fofs"
    reads = ("eta", "lam")
    budgeted = True

    def __init__(self, budget: int, eta: float = 0.2, lam: float = 0.01):
        self.budget = _check_budget(self.algo, budget)
        super().__init__(eta=eta)
        self.lam = _check_hyperparam("lam", lam)
        if 1.0 - self.lam * self.eta < 0.0:  # the decay factor, computed as update computes it
            raise ValueError(f"fofs needs lambda * eta <= 1, got lambda={self.lam} and eta={self.eta}")

    def update(self, ex: SparseExample) -> float:
        # the decay below rescales every weight, so the gathered ones are stale
        margin, _ = self._grown_margin(ex)
        y = ex.label
        if (1 if margin >= 0.0 else -1) != y:
            a = self.weights.array
            a *= 1.0 - self.lam * self.eta
            a[ex.indices] += self.eta * y * ex.values
            radius = 1.0 / math.sqrt(self.lam)
            norm = float(np.linalg.norm(a))
            if norm > radius:
                a *= radius / norm
            truncate(self.weights, self.budget)
        return margin

    def _impose_budget(self, keys: np.ndarray) -> None:
        truncate(self.weights, self.budget)


class OgdModel(FirstOrderModel):
    """Online gradient descent on the hinge loss with an eta/sqrt(t) step."""

    algo = "ogd"
    counters = ("t",)

    def __init__(self, eta: float = 0.2):
        super().__init__(eta=eta)
        self.t = 0

    def update(self, ex: SparseExample) -> float:
        self.t += 1
        margin, wi = self._grown_margin(ex)
        y = ex.label
        if y * margin < 1.0 and len(wi):
            step = self.eta / math.sqrt(self.t)
            self.weights.array[ex.indices] = wi + step * y * ex.values
        return margin


LEARNERS = {cls.algo: cls for cls in (SofsModel, PetModel, FofsModel, OgdModel, ArowModel)}
ALGOS = tuple(LEARNERS)
BUDGETED = frozenset(algo for algo, cls in LEARNERS.items() if cls.budgeted)


def learner_class(algo: str) -> type:
    """The learner class named ``algo``; ``ValueError`` for an unknown name."""
    if algo not in LEARNERS:
        raise ValueError(f"unknown algorithm {algo!r}; expected one of {', '.join(ALGOS)}")
    return LEARNERS[algo]


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
    given = {"gamma": gamma, "eta": eta, "lam": lam}
    for key, value in given.items():
        _check_hyperparam(key, value)
    cls = learner_class(algo)
    kwargs = {key: given[key] for key in cls.reads}
    return cls(budget, **kwargs) if cls.budgeted else cls(**kwargs)


def _values_ok(w: np.ndarray, *covariances: np.ndarray) -> np.ndarray:
    """Per model body row, the value rules :func:`check_savable` and
    :func:`load_model` share: a finite weight, each covariance in (0, 1]."""
    ok = np.isfinite(w)
    for s in covariances:
        ok &= (s > 0.0) & (s <= 1.0)  # NaN fails too
    return ok


def check_savable(model: OnlineLearner, where: str) -> None:
    """Raise ``ValueError`` naming ``where`` and the first coordinate of
    ``model``'s state that breaks :func:`_values_ok`, if there is one."""
    state = [vec.array for vec in model._state()]
    ok = _values_ok(*state)
    if not ok.all():
        k = int(np.argmin(ok))
        held = " and ".join(f"{name} {float(v[k])!r}" for name, v in zip(("weight", "covariance"), state))
        raise ValueError(f"{where}: coordinate {k} holds {held}, which load_model would reject")


def save_model(model: OnlineLearner, path) -> None:
    """Write a model as text: a header line, then one line per coordinate.

    Header: ``OFSMODEL v1 <algo> <d> <B> key=value ...`` with B = 0 for
    learners without a budget. Each body line is ``idx`` followed by the
    coordinate's value in every state vector: ``idx weight sigma`` for
    second-order models, ``idx weight`` for first-order ones. A coordinate
    is stored where any state vector differs from its fill (a nonzero
    weight, a covariance below 1), and so is every index the learner's
    ``_listed()`` names, even one whose state equals an untouched one.
    Floats are written with repr so a reload reproduces predictions bit
    for bit. A state :func:`load_model` would reject raises ``ValueError``,
    naming the first bad coordinate, before ``path`` is opened.
    """
    check_savable(model, f"cannot save {path}")
    params = " ".join(f"{k}={v!r}" for k, v in model.hyperparams().items())
    budget = model.budget or 0
    d = len(model.weights)
    lines = [f"{MODEL_MAGIC} {MODEL_VERSION} {model.algo} {d} {budget} {params}".rstrip()]
    state = model._state()
    stored = np.logical_or.reduce([vec.array != vec.fill for vec in state])
    stored[model._listed()] = True
    j = np.flatnonzero(stored)
    values = [vec.array[j] for vec in state]
    columns = [j.tolist()] + [v.tolist() for v in values]
    lines += map(" ".join, zip(*(map(repr, column) for column in columns)))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _load_header(header: List[str]) -> OnlineLearner:
    """Build the learner a model header describes, checking every field;
    ``ValueError`` says what is wrong, and :func:`load_model` adds where."""

    def count(name: str, tok: str) -> int:
        if not (tok.isascii() and tok.isdigit()):
            raise ValueError(f"{name} must be an integer >= 0, got {tok!r}")
        return int(tok)

    if len(header) < 5 or header[0] != MODEL_MAGIC:
        raise ValueError("not a model file")
    if header[1] != MODEL_VERSION:
        raise ValueError(f"unsupported model version {header[1]!r}")
    algo = header[2]
    if algo not in ALGOS:
        raise ValueError(f"unknown algorithm {algo!r}")
    d = count("d", header[3])
    budget = count("B", header[4])
    expected = list(make_learner(algo, budget=budget).hyperparams())  # checks B >= 1 for a budgeted learner
    if algo not in BUDGETED and budget != 0:
        raise ValueError(f"{algo} has no budget, so B must be 0, got {budget}")
    values: Dict[str, str] = {}
    for tok in header[5:]:
        key, eq, val = tok.partition("=")
        if not eq:
            raise ValueError(f"expected key=value, got {tok!r}")
        if key in values:
            raise ValueError(f"duplicate key {key!r}")
        values[key] = val
    if sorted(values) != sorted(expected):
        raise ValueError(f"{algo} keys must be {', '.join(expected)}, got {', '.join(values) or 'none'}")
    counts = {name: count(name, values.pop(name)) for name in learner_class(algo).counters}
    kwargs: Dict[str, float] = {}
    for name, val in values.items():
        try:
            kwargs[_KEYWORDS[name]] = float(val)
        except ValueError:
            raise ValueError(f"{name} must be a number, got {val!r}") from None
    model = make_learner(algo, budget=budget, **kwargs)
    model._ensure(d)
    for name, value in counts.items():
        setattr(model, name, value)
    return model


def _read_body(fh, d: int, width: int):
    """The rest of ``fh`` as model body rows of ``width`` fields, in one
    ``np.loadtxt`` pass.

    Returns the indices, their sorted unique values, then one column per
    state vector (the weights, then any covariances), or None if numpy
    cannot read the body or a row fails the checks of :func:`_scan_body`,
    which then reports the first bad line. numpy converts floats with the same
    routine as ``float`` and accepts a subset of the spellings ``int`` and
    ``float`` accept, so a body it reads holds the values the scan would.
    """
    dtype = np.dtype([("j", np.int64)] + [(name, np.float64) for name in ("w", "s")[: width - 1]])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns on a body with no rows
            rows = np.loadtxt(fh, dtype=dtype, comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    j, *values = (rows[name] for name in dtype.names)
    ok = ((j >= 0) & (j < d) & _values_ok(*values)).all()
    keys = np.sort(j)  # np.unique hashes on numpy 2.x and costs over ten times as much
    if not ok or (keys[1:] == keys[:-1]).any():
        return None
    return (j, keys, *values)


def _scan_body(path, d: int, width: int):
    """The body of the model file at ``path`` read line by line, as
    :func:`_read_body` returns it; raises ``ValueError`` naming the first
    bad line. Each line is checked as it is read: its field count, then
    its index in [0, d), then that the index is not listed before, then a
    finite weight, then each covariance in (0, 1]. Slower than the bulk
    read, so it only runs when that fails. It opens the file afresh, so
    even a decoding error reads as it would without the bulk pass."""
    idx: List[int] = []
    rows: List[List[float]] = []
    seen = set()
    with open(path, "r", encoding="ascii") as fh:
        fh.readline()
        for line_no, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            where = f"{path}: line {line_no}"
            try:
                if len(parts) != width:
                    raise ValueError
                j = int(parts[0])
                w, *covariances = values = [float(p) for p in parts[1:]]
            except ValueError:
                raise ValueError(f"{where}: expected {width} numbers, got {line.strip()!r}") from None
            if not 0 <= j < d:
                raise ValueError(f"{where}: index {j} outside [0, {d})")
            if j in seen:
                raise ValueError(f"{where}: index {j} listed twice")
            if not math.isfinite(w):
                raise ValueError(f"{where}: non-finite weight {w!r}")
            for s in covariances:
                if not 0.0 < s <= 1.0:  # NaN fails too
                    raise ValueError(f"{where}: covariance {s!r} outside (0, 1]")
            seen.add(j)
            idx.append(j)
            rows.append(values)
    j_arr = np.asarray(idx, dtype=np.int64)
    columns = np.asarray(rows, dtype=np.float64).reshape(len(idx), width - 1).T
    return (j_arr, np.sort(j_arr), *columns)


def load_model(path) -> OnlineLearner:
    """Rebuild a learner saved by :func:`save_model`.

    Every header field is checked: d and B are integers >= 0 with B >= 1
    exactly for budgeted algorithms, the keys are exactly those the
    learner's ``hyperparams`` writes, each counter (``ogd``'s ``t``) is an
    integer >= 0, and the hyperparameters pass the learner's own checks. A
    body line with the wrong number of fields, an index outside [0, d) or
    listed twice, a non-finite weight or mean, or a covariance outside
    (0, 1] is rejected too, each rule applied in that order. Each failure
    raises ``ValueError`` naming the file and the first line that breaks a
    rule. The learner's ``_impose_budget`` then applies its budget rule
    over the listed indices: ``sofs`` and ``pet`` rebuild the kept set with
    the select-and-zero step an update runs, and ``fofs`` truncates.
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        try:
            model = _load_header(header)
        except ValueError as err:
            raise ValueError(f"{path}: line 1: {err}") from None
        d = len(model.weights)
        state = model._state()
        width = 1 + len(state)  # the index, then one field per state vector
        body = _read_body(fh, d, width)
    if body is None:
        body = _scan_body(path, d, width)
    j, keys, *columns = body
    for vec, column in zip(state, columns):
        vec.array[j] = column
    model._impose_budget(keys)
    return model
