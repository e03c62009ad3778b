"""Dataset ingestion (libsvm text, plain or gzip) and synthetic streams."""
from __future__ import annotations

import gzip
import math
import zlib
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional

import numpy as np

from .core import SparseExample

_LABEL_MAP = {"+1": 1, "1": 1, "-1": -1, "0": -1}
_INDEX_LIMIT = 2**63  # 1-based indices below it fit int64 once shifted to 0-based


class LibsvmFormatError(ValueError):
    """Malformed libsvm input; carries the 1-based source line number."""

    def __init__(self, message: str, line_no: int = 0):
        super().__init__(f"line {line_no}: {message}" if line_no else message)
        self.line_no = line_no


def parse_libsvm_line(line: str, line_no: int = 0) -> Optional[SparseExample]:
    """Parse one ``<label> <idx>:<val> ...`` line.

    Labels map {1, +1} to +1 and {0, -1} to -1. Feature indices are 1-based
    and strictly ascending on disk and are shifted to 0-based; zero-valued
    entries are dropped. Blank lines yield None. Anything else, including
    an index >= 2**63 or a NaN or infinite value, raises
    :class:`LibsvmFormatError` pointing at the offending token.
    """
    tokens = line.split()
    if not tokens:
        return None
    label = _LABEL_MAP.get(tokens[0])
    if label is None:
        raise LibsvmFormatError(f"unrecognised label {tokens[0]!r}", line_no)
    idx: List[int] = []
    vals: List[float] = []
    last = 0
    for pos, tok in enumerate(tokens[1:], start=2):
        part = tok.partition(":")
        try:
            i = int(part[0])
            v = float(part[2])
        except ValueError:
            raise LibsvmFormatError(f"malformed feature at token {pos}: {tok!r}", line_no) from None
        if i < 1:
            raise LibsvmFormatError(f"feature index must be >= 1, got {i} at token {pos}", line_no)
        if i <= last:
            raise LibsvmFormatError(
                f"feature indices must be strictly ascending, got {i} after {last} at token {pos}",
                line_no,
            )
        last = i
        if v != 0.0:
            idx.append(i - 1)
            vals.append(v)
    if last >= _INDEX_LIMIT:  # indices ascend, so the last is the largest
        for pos, tok in enumerate(tokens[1:], start=2):
            if int(tok.partition(":")[0]) >= _INDEX_LIMIT:
                raise LibsvmFormatError(f"feature index must be < 2**63 at token {pos}: {tok!r}", line_no)
    # any NaN or infinity makes the sum non-finite; so can overflow, hence the rescan
    if not math.isfinite(sum(vals)):
        for pos, tok in enumerate(tokens[1:], start=2):
            if not math.isfinite(float(tok.partition(":")[2])):
                raise LibsvmFormatError(f"non-finite value at token {pos}: {tok!r}", line_no)
    return SparseExample(label, np.asarray(idx, dtype=np.int64), np.asarray(vals, dtype=np.float64))


def _open_text(path, mode: str = "rt", encoding: str = "ascii"):
    opener = gzip.open if str(path).endswith(".gz") else open
    return opener(path, mode, encoding=encoding)


def read_libsvm(path) -> Iterator[SparseExample]:
    """Yield examples from a libsvm file in order; gzip when path ends .gz.

    An error in the file's content names the file: a malformed line, a
    non-ASCII byte (with its line) or a truncated or corrupt gzip.
    """
    try:
        with _open_text(path) as fh:
            try:
                for line_no, line in enumerate(fh, start=1):
                    ex = parse_libsvm_line(line, line_no)
                    if ex is not None:
                        yield ex
            except UnicodeDecodeError:
                _raise_first_bad_line(path)
                raise
    except (LibsvmFormatError, EOFError, zlib.error, gzip.BadGzipFile) as err:
        err.args = (f"{path}: {err}",)  # keeps the type and the line number
        raise


def _raise_first_bad_line(path) -> None:
    """Raise :class:`LibsvmFormatError` for the first line that is not ASCII
    or does not parse; only called once the ASCII read failed to decode."""
    with _open_text(path, encoding="latin-1") as fh:  # a character per byte, lines split as in ASCII
        for line_no, line in enumerate(fh, start=1):
            if not line.isascii():
                col = next(i for i, ch in enumerate(line) if ch > "\x7f")
                raise LibsvmFormatError(f"non-ASCII byte {ord(line[col]):#04x} at column {col + 1}", line_no)
            parse_libsvm_line(line, line_no)


def write_libsvm(examples: Iterable[SparseExample], path) -> None:
    """Write examples as libsvm text (1-based indices, repr floats)."""
    with _open_text(path, "wt") as fh:
        for ex in examples:
            feats = " ".join(f"{i + 1}:{v!r}" for i, v in ex.pairs())
            fh.write(f"{ex.label:+d} {feats}".rstrip() + "\n")


class DatasetStream:
    """Replays a stream: every iteration calls ``factory`` for a fresh iterator.

    A stream is any iterable of :class:`SparseExample`. This wrapper makes a
    synthetic one re-readable, giving the identical sequence each time.
    """

    def __init__(self, factory: Callable[[], Iterator[SparseExample]]):
        self._factory = factory

    def __iter__(self) -> Iterator[SparseExample]:
        return self._factory()


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape of a synthetic dataset.

    ``idim`` informative coordinates appear in every instance; ``ndim``
    noise coordinates are resampled per instance from outside the
    informative set. Labels are a deterministic function of the informative
    part, so the stream is separable there by construction.
    """

    n_train: int
    n_test: int
    dim: int
    idim: int
    ndim: int
    seed: int = 0

    def __post_init__(self):
        if self.n_train < 1 or self.n_test < 1:
            raise ValueError("n_train and n_test must be positive")
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if self.idim < 1:
            raise ValueError("idim must be positive")
        if self.ndim < 0:
            raise ValueError("ndim must be non-negative")
        if self.idim + self.ndim > self.dim:
            raise ValueError(
                f"idim + ndim = {self.idim + self.ndim} exceeds dim = {self.dim}"
            )

    @property
    def nnz_per_example(self) -> int:
        return self.idim + self.ndim


_CHUNK = 256


class SyntheticGenerator:
    """Seeded generator for sparse, linearly separable streams.

    One root seed fixes the informative index set and the ground-truth
    weights (uniform on [0, 1)); train and test streams then use derived
    seeds so they can be re-iterated independently and reproducibly.
    Feature values are standard normal. The label is the sign of the
    ground-truth dot product over the informative coordinates only, with
    sign(0) mapping to +1.
    """

    def __init__(self, spec: SyntheticSpec):
        self.spec = spec
        root = np.random.default_rng([spec.seed, 0])
        self.informative = np.sort(root.choice(spec.dim, size=spec.idim, replace=False)).astype(np.int64)
        self.w_star = root.uniform(0.0, 1.0, size=spec.idim)
        # complement remap table: entry i says how many informative indices
        # sit at or below the i-th gap, see _stream
        self._gaps = self.informative - np.arange(spec.idim, dtype=np.int64)

    def train_stream(self) -> DatasetStream:
        return DatasetStream(lambda: self._stream(1, self.spec.n_train))

    def test_stream(self) -> DatasetStream:
        return DatasetStream(lambda: self._stream(2, self.spec.n_test))

    def _stream(self, key: int, n: int) -> Iterator[SparseExample]:
        """Build each chunk of rows in one (c, idim + ndim) index/value pair.

        Rows are read-only views into their chunk's pair, indices sorted.
        The complement rank v maps to index v + shift(v), where shift(v)
        counts the informative indices below it; the map is strictly
        increasing, so the sorted ranks of a row give its sorted noise
        indices, and noise element t lands at position t + shift. The
        informative coordinates fill the remaining slots in order.
        """
        spec = self.spec
        rng = np.random.default_rng([spec.seed, key])
        idim, ndim = spec.idim, spec.ndim
        width = idim + ndim
        slots = np.arange(ndim, dtype=np.int64)
        done = 0
        # each temporary is updated in place and freed at its last use, so a
        # chunk adds little to peak memory beyond the rows it yields
        while done < n:
            c = min(_CHUNK, n - done)
            inf_vals = rng.standard_normal((c, idim))
            ranks, order = self._noise_ranks(rng, c)
            noise_vals = rng.standard_normal((c, ndim)).ravel()[order]
            del order
            labels = np.where(inf_vals @ self.w_star >= 0.0, 1, -1).tolist()
            pos = np.searchsorted(self._gaps, ranks, side="right")
            ranks += pos  # now the noise indices
            pos += slots
            pos += np.arange(0, c * width, width, dtype=np.int64)[:, None]  # flat, in the chunk
            idx = np.empty((c, width), dtype=np.int64)
            vals = np.empty((c, width), dtype=np.float64)
            idx.ravel()[pos] = ranks
            vals.ravel()[pos] = noise_vals
            del ranks, noise_vals
            free = np.ones(c * width, dtype=bool)
            free[pos] = False
            del pos
            inf_pos = np.flatnonzero(free).reshape(c, idim)
            del free
            idx.ravel()[inf_pos] = self.informative
            vals.ravel()[inf_pos] = inf_vals
            del inf_pos, inf_vals
            # rows share the chunk's buffers, so a write to one would reach its neighbours
            idx.flags.writeable = False
            vals.flags.writeable = False
            for label, row_idx, row_vals in zip(labels, idx, vals):
                yield SparseExample(label, row_idx, row_vals)
            done += c

    def _noise_ranks(self, rng: np.random.Generator, c: int):
        """Per-row noise coordinates as complement ranks, unique and uniform.

        Returns the (c, ndim) ranks sorted within each row, and the flat
        positions in a (c, ndim) matrix that sort each row the same way.
        """
        spec = self.spec
        ndim = spec.ndim
        if ndim == 0:
            empty = np.empty((c, 0), dtype=np.int64)
            return empty, empty
        m = spec.dim - spec.idim  # size of the complement
        # collisions are rare when the complement dwarfs the draw count;
        # rows conditioned on being duplicate-free are uniform subsets
        rejection = m >= ndim * (ndim - 1)
        if rejection:
            ranks = rng.integers(0, m, size=(c, ndim))
        else:
            ranks = np.stack([rng.permutation(m)[:ndim] for _ in range(c)])
        order = np.argsort(ranks, axis=1)
        order += np.arange(0, c * ndim, ndim, dtype=np.int64)[:, None]
        ranks = ranks.ravel()[order]
        if rejection:
            for r in np.flatnonzero((ranks[:, 1:] == ranks[:, :-1]).any(axis=1)).tolist():
                while True:
                    row = rng.integers(0, m, size=ndim)
                    row_order = np.argsort(row)
                    row = row[row_order]
                    if (row[1:] != row[:-1]).all():
                        break
                order[r] = row_order + r * ndim
                ranks[r] = row
        return ranks, order


def generate_synthetic(spec: SyntheticSpec):
    """Build (train_stream, test_stream, informative_indices) for ``spec``."""
    gen = SyntheticGenerator(spec)
    return gen.train_stream(), gen.test_stream(), frozenset(gen.informative.tolist())
