import gzip
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ofs.core import SparseExample
from ofs.data import (
    DatasetStream,
    LibsvmFormatError,
    SyntheticSpec,
    generate_synthetic,
    parse_libsvm_line,
    read_libsvm,
    write_libsvm,
)


class TestParseLine:
    def test_basic(self):
        ex = parse_libsvm_line("+1 3:0.5 7:-1.2")
        assert ex.label == 1
        assert list(ex.pairs()) == [(2, 0.5), (6, -1.2)]

    def test_label_conventions(self):
        assert parse_libsvm_line("1 1:1").label == 1
        assert parse_libsvm_line("+1 1:1").label == 1
        assert parse_libsvm_line("-1 1:1").label == -1
        assert parse_libsvm_line("0 1:1").label == -1
        assert list(parse_libsvm_line("0 1:1").pairs()) == [(0, 1.0)]

    def test_blank_line_is_none(self):
        assert parse_libsvm_line("") is None
        assert parse_libsvm_line("   \n") is None

    def test_label_only(self):
        ex = parse_libsvm_line("+1")
        assert ex.label == 1
        assert ex.nnz == 0

    def test_zero_values_dropped(self):
        ex = parse_libsvm_line("+1 2:0.0 5:1.0")
        assert list(ex.pairs()) == [(4, 1.0)]

    def test_unknown_label(self):
        with pytest.raises(LibsvmFormatError):
            parse_libsvm_line("2 1:1")

    def test_malformed_value_reports_token_and_line(self):
        with pytest.raises(LibsvmFormatError) as info:
            parse_libsvm_line("+1 5:abc", line_no=7)
        assert "token 2" in str(info.value)
        assert "line 7" in str(info.value)
        assert info.value.line_no == 7

    def test_malformed_pair_without_colon(self):
        with pytest.raises(LibsvmFormatError):
            parse_libsvm_line("+1 nonsense")

    def test_index_zero_rejected(self):
        with pytest.raises(LibsvmFormatError):
            parse_libsvm_line("+1 0:1.0")

    def test_non_ascending_rejected(self):
        with pytest.raises(LibsvmFormatError):
            parse_libsvm_line("+1 5:1 3:1")
        with pytest.raises(LibsvmFormatError):
            parse_libsvm_line("+1 5:1 5:2")


    @pytest.mark.parametrize("tok,pos", [("1:nan", 2), ("2:inf", 3), ("3:-inf", 4), ("4:1e999", 5)])
    def test_non_finite_value_rejected(self, tok, pos):
        body = ["1:0.5", "2:1", "3:2", "4:3"]
        body[pos - 2] = tok
        with pytest.raises(LibsvmFormatError) as info:
            parse_libsvm_line("+1 " + " ".join(body), line_no=4)
        assert f"token {pos}: {tok!r}" in str(info.value)
        assert "line 4" in str(info.value)

    def test_finite_values_overflowing_a_sum_accepted(self):
        ex = parse_libsvm_line("+1 1:1e308 2:1e308")
        assert list(ex.pairs()) == [(0, 1e308), (1, 1e308)]


@st.composite
def libsvm_lines(draw):
    """Lines shaped like libsvm, with the spellings a file may carry."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    value = st.one_of(
        finite.map(repr),
        finite.map(lambda v: f"{v:g}"),
        st.integers(-(10**6), 10**6).map(str),
        st.sampled_from(["0", "-0", "+1.5", "1e-320", "1E3", ".5", "5.", "1_0", "nan", "-inf", "x", ""]),
    )
    label = draw(st.sampled_from(["1", "+1", "-1", "0", "2", "+0"]))
    idx = draw(st.lists(st.integers(-1, 2**62), max_size=10))
    if draw(st.integers(0, 3)):  # mostly ascending, so most lines parse
        idx = sorted(set(idx))
    sep = draw(st.sampled_from([" ", "\t", "  "]))
    feats = [f"{i}:{draw(value)}" for i in idx]
    return sep.join([label] + feats) + draw(st.sampled_from(["", "\n", " \r\n"]))


class TestReadWrite:
    def roundtrip(self, path, examples):
        write_libsvm(examples, path)
        return list(read_libsvm(path))

    def random_examples(self, n=50, d=80, seed=0):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(n):
            k = int(rng.integers(1, 10))
            idx = np.sort(rng.choice(d, size=k, replace=False)).astype(np.int64)
            vals = rng.standard_normal(k)
            out.append(SparseExample(1 if rng.random() < 0.5 else -1, idx, vals))
        return out

    def test_round_trip_plain(self, tmp_path):
        examples = self.random_examples()
        got = self.roundtrip(tmp_path / "d.svm", examples)
        assert len(got) == len(examples)
        for a, b in zip(examples, got):
            assert a.label == b.label
            assert a.indices.tolist() == b.indices.tolist()
            assert a.values.tolist() == b.values.tolist()  # repr round-trips exactly

    def test_round_trip_gzip(self, tmp_path):
        examples = self.random_examples(seed=1)
        got = self.roundtrip(tmp_path / "d.svm.gz", examples)
        assert len(got) == len(examples)
        for a, b in zip(examples, got):
            assert a.values.tolist() == b.values.tolist()
        with gzip.open(tmp_path / "d.svm.gz", "rt") as fh:  # really gzip bytes
            assert fh.readline().split()[0] in ("+1", "-1")

    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(st.one_of(st.text(max_size=30), libsvm_lines()), min_size=1, max_size=8))
    def test_any_accepted_line_round_trips(self, lines):
        accepted = []
        for line in lines:
            try:
                ex = parse_libsvm_line(line)
            except LibsvmFormatError:
                continue
            if ex is not None:
                accepted.append(ex)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "round.svm"
            write_libsvm(accepted, path)
            back = list(read_libsvm(path))
        assert len(back) == len(accepted)
        for got, want in zip(back, accepted):
            assert got.label == want.label
            assert np.array_equal(got.indices, want.indices)
            assert got.values.tobytes() == want.values.tobytes()

    def test_read_reports_line_numbers(self, tmp_path):
        path = tmp_path / "bad.svm"
        path.write_text("+1 1:1.0\n\n+1 3:oops\n")
        with pytest.raises(LibsvmFormatError) as info:
            list(read_libsvm(path))
        assert info.value.line_no == 3

    def test_stream_is_reiterable(self, tmp_path):
        path = tmp_path / "d.svm"
        write_libsvm(self.random_examples(n=10, seed=2), path)
        stream = DatasetStream.from_file(path)
        first = [(e.label, e.indices.tolist()) for e in stream]
        second = [(e.label, e.indices.tolist()) for e in stream]
        assert first == second
        assert stream.path == str(path)

    def test_from_examples_materializes(self):
        examples = self.random_examples(n=5, seed=3)
        stream = DatasetStream.from_examples(iter(examples), dim=80)
        assert len(list(stream)) == 5
        assert len(list(stream)) == 5  # consuming twice works
        assert stream.dim == 80


class TestSyntheticSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_train=0, n_test=1, dim=10, idim=2, ndim=2)
        with pytest.raises(ValueError):
            SyntheticSpec(n_train=1, n_test=1, dim=10, idim=0, ndim=2)
        with pytest.raises(ValueError):
            SyntheticSpec(n_train=1, n_test=1, dim=10, idim=8, ndim=3)

    def test_nnz(self):
        spec = SyntheticSpec(n_train=1, n_test=1, dim=10, idim=2, ndim=3)
        assert spec.nnz_per_example == 5


class TestGenerateSynthetic:
    SPEC = SyntheticSpec(n_train=60, n_test=20, dim=300, idim=12, ndim=25, seed=5)

    def test_structure(self):
        train, test, informative = generate_synthetic(self.SPEC)
        assert len(informative) == 12
        rows = list(train)
        assert len(rows) == 60
        assert len(list(test)) == 20
        for ex in rows:
            assert ex.nnz == self.SPEC.nnz_per_example
            idx = ex.indices.tolist()
            assert idx == sorted(idx)
            assert len(set(idx)) == len(idx)
            present = set(idx)
            assert informative <= present  # informative block in every row
            assert len(present - informative) == 25
            assert all(0 <= j < 300 for j in idx)

    def test_noise_avoids_informative(self):
        train, _, informative = generate_synthetic(self.SPEC)
        for ex in train:
            noise = set(ex.indices.tolist()) - informative
            assert not (noise & informative)

    def test_deterministic_across_generations(self):
        a_train, a_test, a_inf = generate_synthetic(self.SPEC)
        b_train, b_test, b_inf = generate_synthetic(self.SPEC)
        assert a_inf == b_inf
        for sa, sb in ((a_train, b_train), (a_test, b_test)):
            for ea, eb in zip(sa, sb):
                assert ea.label == eb.label
                assert ea.indices.tolist() == eb.indices.tolist()
                assert ea.values.tolist() == eb.values.tolist()

    def test_reiteration_identical(self):
        train, _, _ = generate_synthetic(self.SPEC)
        first = [(e.label, e.values.tolist()) for e in train]
        second = [(e.label, e.values.tolist()) for e in train]
        assert first == second

    def test_seeds_differ(self):
        spec2 = SyntheticSpec(n_train=60, n_test=20, dim=300, idim=12, ndim=25, seed=6)
        _, _, inf_a = generate_synthetic(self.SPEC)
        _, _, inf_b = generate_synthetic(spec2)
        a = [e.values.tolist() for e in generate_synthetic(self.SPEC)[0]]
        b = [e.values.tolist() for e in generate_synthetic(spec2)[0]]
        assert a != b or inf_a != inf_b

    def test_labels_from_informative_subspace(self):
        # recompute the label from the generator's own ground truth
        from ofs.data import SyntheticGenerator

        gen = SyntheticGenerator(self.SPEC)
        S = gen.informative
        lookup = {int(j): k for k, j in enumerate(S)}
        for ex in gen.train_stream():
            dot = sum(
                gen.w_star[lookup[int(j)]] * v
                for j, v in ex.pairs()
                if int(j) in lookup
            )
            assert ex.label == (1 if dot >= 0.0 else -1)

    def test_train_and_test_streams_differ(self):
        train, test, _ = generate_synthetic(self.SPEC)
        a = [e.values.tolist() for e in train][:20]
        b = [e.values.tolist() for e in test]
        assert a != b

    def test_permutation_sampling_path(self):
        # complement barely larger than the draw forces the dense path
        spec = SyntheticSpec(n_train=30, n_test=1, dim=40, idim=4, ndim=30, seed=8)
        train, _, informative = generate_synthetic(spec)
        for ex in train:
            noise = set(ex.indices.tolist()) - informative
            assert len(noise) == 30
            assert not (noise & informative)

    def test_ndim_zero(self):
        spec = SyntheticSpec(n_train=10, n_test=1, dim=50, idim=5, ndim=0, seed=9)
        train, _, informative = generate_synthetic(spec)
        for ex in train:
            assert set(ex.indices.tolist()) == informative
