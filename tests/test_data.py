import gzip
import hashlib
import itertools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from ofs.core import SparseExample
from ofs.data import (
    LibsvmFormatError,
    SyntheticGenerator,
    SyntheticSpec,
    generate_synthetic,
    parse_libsvm_line,
    read_libsvm,
    write_libsvm,
)

from helpers import PlainSyntheticGenerator


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
        assert len(ex.indices) == 0

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

    def test_index_beyond_int64_rejected(self):
        assert parse_libsvm_line(f"+1 3:1 {2**63 - 1}:2").indices.tolist() == [2, 2**63 - 2]
        # a zero value is dropped, but its index is still checked
        for tok in (f"{2**63}:2", f"{2**63}:0", "99999999999999999999999:1"):
            with pytest.raises(LibsvmFormatError) as info:
                parse_libsvm_line(f"+1 3:1 {tok}", 4)
            assert str(info.value) == f"line 4: feature index must be < 2**63 at token 3: {tok!r}"

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
    idx = draw(st.lists(st.one_of(st.integers(-1, 2**62), st.integers(2**63 - 2, 2**70)), max_size=10))
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
        assert str(info.value) == f"{path}: line 3: malformed feature at token 2: '3:oops'"

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("suffix", [".svm", ".svm.gz"])
    def test_non_ascii_byte_names_file_and_line(self, tmp_path, newline, suffix):
        # past the first read chunk, so lines before it were parsed and yielded;
        # the malformed line after it is not the first bad line
        raw = newline.join(["+1 1:1"] * 3000 + ["-1 2:1 3:\xe2", "+1 oops"]).encode("latin-1")
        path = tmp_path / f"bad{suffix}"
        path.write_bytes(gzip.compress(raw) if suffix.endswith(".gz") else raw)
        read = []
        with pytest.raises(LibsvmFormatError) as info:
            read.extend(read_libsvm(path))
        assert info.value.line_no == 3001
        assert str(info.value) == f"{path}: line 3001: non-ASCII byte 0xe2 at column 10"
        assert 0 < len(read) < 3000


class TestSyntheticSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_train=0, n_test=1, dim=10, idim=2, ndim=2)
        with pytest.raises(ValueError):
            SyntheticSpec(n_train=1, n_test=1, dim=10, idim=0, ndim=2)
        with pytest.raises(ValueError):
            SyntheticSpec(n_train=1, n_test=1, dim=10, idim=8, ndim=3)


class TestGenerateSynthetic:
    SPEC = SyntheticSpec(n_train=60, n_test=20, dim=300, idim=12, ndim=25, seed=5)

    def test_structure(self):
        train, test, informative = generate_synthetic(self.SPEC)
        assert len(informative) == 12
        rows = list(train)
        assert len(rows) == 60
        assert len(list(test)) == 20
        for ex in rows:
            assert len(ex.indices) == self.SPEC.idim + self.SPEC.ndim
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


@st.composite
def synthetic_specs(draw):
    dim = draw(st.integers(1, 5_000), label="dim")
    idim = draw(st.integers(1, dim), label="idim")
    m = dim - idim
    # a draw well below sqrt(m) takes the rejection path, often with
    # redraws near it; a larger one takes the permutation path
    ndim = draw(st.one_of(st.integers(0, min(m, math.isqrt(m) + 1)), st.integers(0, m)), label="ndim")
    return SyntheticSpec(
        n_train=draw(st.integers(1, 700), label="n_train"),
        n_test=draw(st.integers(1, 700), label="n_test"),
        dim=dim,
        idim=idim,
        ndim=ndim,
        seed=draw(st.integers(0, 2**32 - 1), label="seed"),
    )


def _stream_digests(spec: SyntheticSpec, rows: int = 300) -> dict:
    """sha256 of the labels, indices and values of the first rows of each stream."""
    h = {k: hashlib.sha256() for k in ("labels", "indices", "values")}
    for stream in generate_synthetic(spec)[:2]:
        for ex in itertools.islice(stream, rows):
            h["labels"].update(np.int64(ex.label).tobytes())
            h["indices"].update(ex.indices.tobytes())
            h["values"].update(ex.values.tobytes())
    return {k: v.hexdigest() for k, v in h.items()}


class TestGeneratorStreams:
    @settings(max_examples=80, deadline=None)
    @given(spec=synthetic_specs())
    # the rejection path with many redraws (about 44% of rows collide)
    @example(spec=SyntheticSpec(n_train=600, n_test=300, dim=400, idim=10, ndim=19, seed=3))
    @example(spec=SyntheticSpec(n_train=257, n_test=5, dim=40, idim=4, ndim=30, seed=8))
    @example(spec=SyntheticSpec(n_train=300, n_test=1, dim=50, idim=5, ndim=0, seed=9))
    @example(spec=SyntheticSpec(n_train=3, n_test=300, dim=60, idim=60, ndim=0, seed=1))
    def test_equals_plain_form(self, spec):
        # every row, in both streams, matches the per-row concatenate and
        # stable sort byte for byte
        m = spec.dim - spec.idim
        event("no noise" if spec.ndim == 0 else "rejection" if m >= spec.ndim * (spec.ndim - 1) else "permutation")
        gen = SyntheticGenerator(spec)
        plain = PlainSyntheticGenerator(spec)
        for got, want in ((gen.train_stream(), plain.train_stream()), (gen.test_stream(), plain.test_stream())):
            n = 0
            for a, b in itertools.zip_longest(got, want):
                assert a is not None and b is not None, f"stream lengths differ at row {n}"
                assert a.label == b.label
                for x, y in ((a.indices, b.indices), (a.values, b.values)):
                    assert x.dtype == y.dtype
                    assert x.flags.c_contiguous and y.flags.c_contiguous
                    assert x.tobytes() == y.tobytes()
                n += 1

    # digests of the first 300 rows of each stream, taken from the per-row
    # generator; a change to any stream fails here even if the plain-form
    # twin changes with it
    PINNED = {
        "small-m": (
            SyntheticSpec(n_train=10_000, n_test=2_000, dim=3_000, idim=10, ndim=2, seed=1),
            "b69914399713414467097f526ff7a678c69f8f47fcdaf3d0890fb78077a43427",
            "3f21fc32dd3cd7098e0216c515bf05b43cab8ed12ad64d1b01a2591320190b00",
            "3a0efd5b0a3e42a8f46a3ce33e17c155c79b5214b6d723dd067a76229ca27ca2",
        ),
        "ultra-hd": (
            SyntheticSpec(n_train=600, n_test=2_000, dim=1_000_000, idim=500, ndim=500, seed=1),
            "0d815b02842ad7d2b0edecd98d4878eec65b6c7ee0351d761cd176a709585454",
            "30bbebf90f74cf14e008dbc679b7d37f3b08cfd0ca38d13429c94fe162e6aa6a",
            "32d003d236ad22a7b88fe4235414964f90190877754ecfea72778ca5065efb88",
        ),
        "file-cli": (
            SyntheticSpec(n_train=400, n_test=300, dim=10_000, idim=20, ndim=80, seed=1),
            "9c9ce069ba9cef37834cdca351ee8db7ff8436878dc61612fd3928d35fa04e4c",
            "8a088ae4d48104f5ce20fe1a5650a9740b75c2ed3fbd04d277b2936b8eddfa38",
            "7975b2b799deb372db491a8eef54adee14786bd04399c4bf24b38e547839d6c0",
        ),
        "acceptance-06": (
            SyntheticSpec(n_train=10_000, n_test=1_000, dim=2_000, idim=100, ndim=200, seed=0),
            "4c4c65e7301f7df1a75df61a7ac844a8073454c616776f956b7f1d79187ff145",
            "226a2feb78660e57806cd33c91936897fd4d262b2e52936f1093f5dec47a4c71",
            "b45fa36d1b63d5f4db088d54df0ba7329830f4ac218bd60f55fd872480a4200c",
        ),
        "acceptance-07": (
            SyntheticSpec(n_train=100_000, n_test=10_000, dim=1_000_000, idim=500, ndim=500, seed=7),
            "a792213557a96b655b019ada7b5dc42c5bc0eddb49951c6bee7c90eb7dddacbd",
            "d41129fa43323e87a9a7be788f6ab6dd85418adc3254aba932774a282b1c1aba",
            "f4629fc43dc597ec05c6e812ef98d0a13a74879060a6dc2fb9ff28791ca9fefd",
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_streams_pinned(self, name):
        spec, labels, indices, values = self.PINNED[name]
        assert _stream_digests(spec) == {"labels": labels, "indices": indices, "values": values}

    def test_rows_are_read_only(self):
        # rows are views into one buffer per chunk; a write must not reach a neighbour
        train, test, _ = generate_synthetic(SyntheticSpec(n_train=5, n_test=300, dim=100, idim=5, ndim=10, seed=2))
        for ex in (next(iter(train)), list(test)[-1]):
            with pytest.raises(ValueError):
                ex.values[0] = 1.0
            with pytest.raises(ValueError):
                ex.indices[0] = 0
