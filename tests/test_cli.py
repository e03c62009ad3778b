import errno
import gzip
import io
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from ofs import data, learners, pipeline
from ofs.cli import main
from ofs.data import read_libsvm


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def small_inputs(tmp_path):
    """Two small libsvm files, every line distinct, and an ``ogd`` model."""
    paths = {"data": tmp_path / "d.svm", "test": tmp_path / "t.svm", "model": tmp_path / "d.model"}
    for name, n, offset in (("data", 12, 0), ("test", 8, 100)):
        rows = [f"{'+1' if i % 2 else '-1'} {i % 5 + 1}:{offset + i}.5 {i % 5 + 7}:0.25\n" for i in range(n)]
        paths[name].write_text("".join(rows))
    learners.save_model(learners.make_learner("ogd"), paths["model"])
    return {name: str(path) for name, path in paths.items()}


def with_paths(line, paths):
    """Split ``line`` into argv, replacing each upper-case word with its path."""
    return [paths[arg.lower()] if arg.isalpha() and arg.isupper() else arg for arg in line.split()]


@pytest.fixture()
def spy(monkeypatch):
    """Names of the input reader and the pipeline entry points, as they are called."""
    calls = []
    for owner, name in ((data, "read_libsvm"), (pipeline, "train_stream"), (pipeline, "benchmark_sweep")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _name=name, _real=real, **k: calls.append(_name) or _real(*a, **k))
    return calls


@pytest.fixture()
def dataset(tmp_path):
    code = main(
        [
            "generate",
            "--dim", "400",
            "--idim", "25",
            "--ndim", "50",
            "--train", "1500",
            "--test", "400",
            "--seed", "3",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    return tmp_path


class TestUsageErrors:
    def test_no_command(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_algo(self):
        with pytest.raises(SystemExit) as info:
            main(["train", "--algo", "svm", "--data", "x", "--model", "y"])
        assert info.value.code == 2

    def test_budget_required_for_sofs(self, tmp_path):
        data = tmp_path / "d.svm"
        data.write_text("+1 1:1\n")
        with pytest.raises(SystemExit) as info:
            main(["train", "--algo", "sofs", "--data", str(data), "--model", str(tmp_path / "m")])
        assert info.value.code == 2

    def test_missing_data_file(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(
                [
                    "train",
                    "--algo", "ogd",
                    "--data", str(tmp_path / "absent.svm"),
                    "--model", str(tmp_path / "m"),
                ]
            )
        assert info.value.code == 2

    def test_missing_model_file(self, tmp_path):
        data = tmp_path / "d.svm"
        data.write_text("+1 1:1\n")
        with pytest.raises(SystemExit) as info:
            main(["eval", "--model", str(tmp_path / "absent"), "--data", str(data)])
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "command,flag",
        [("train", "--threads"), ("train", "--queue-cap"), ("sweep", "--threads")],
    )
    def test_thread_flags_gone(self, tmp_path, command, flag):
        data = tmp_path / "d.svm"
        data.write_text("+1 1:1\n")
        if command == "train":
            argv = ["train", "--algo", "ogd", "--data", str(data), "--model", str(tmp_path / "m")]
        else:
            argv = ["sweep", "--algos", "ogd", "--B", "1", "--train", str(data), "--test", str(data)]
        with pytest.raises(SystemExit) as info:
            main(argv + [flag, "1"])
        assert info.value.code == 2

    def test_sweep_budget_validation(self, tmp_path):
        data = tmp_path / "d.svm"
        data.write_text("+1 1:1\n")
        with pytest.raises(SystemExit) as info:
            main(
                [
                    "sweep",
                    "--algos", "sofs",
                    "--B", "0",
                    "--train", str(data),
                    "--test", str(data),
                ]
            )
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "line,message",
        [
            ("sweep --algos sofs --B x --train DATA --test DATA", "argument --B: expected a comma list of int values"),
            ("cv --algo arow --gammas 1,x --data DATA", "argument --gammas: expected a comma list of float values"),
            ("cv --algo arow --data absent.svm", "argument --data: no such file: absent.svm"),
            ("sweep --algos , --B 1 --train DATA --test DATA", "argument --algos: expected a comma list of str values"),
            ("cv --algo arow --gammas , --data DATA", "argument --gammas: expected a comma list of float values"),
        ],
        ids=["sweep-B", "cv-gammas", "missing-data", "sweep-algos-empty", "cv-gammas-empty"],
    )
    def test_bad_argument_is_a_clean_usage_error(self, tmp_path, line, message):
        data = tmp_path / "d.svm"
        data.write_text("+1 1:1\n")
        argv = [str(data) if arg == "DATA" else arg for arg in line.split()]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "ofs.cli", *argv], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert message in proc.stderr


    @pytest.mark.parametrize(
        "line,flag",
        [
            ("train --algo ogd --data DATA --model OUT", "--model"),
            ("predict --model MODEL --data DATA --out OUT", "--out"),
            ("sweep --algos ogd --B 1 --train DATA --test TEST --csv OUT", "--csv"),
        ],
        ids=["train", "predict", "sweep"],
    )
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unusable_output_path_fails_before_any_input(self, tmp_path, capsys, spy, line, flag, where):
        paths = small_inputs(tmp_path)
        paths["out"] = str(tmp_path / "absent" / "out") if where == "missing-directory" else str(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(with_paths(line, paths))
        out, err = capsys.readouterr()
        assert info.value.code == 2
        assert out == ""
        if where == "missing-directory":
            assert f"argument {flag}: no such directory: {tmp_path / 'absent'}" in err
        else:
            assert f"argument {flag}: is a directory: {tmp_path}" in err
        assert spy == []

    @pytest.mark.parametrize("where", ["file", "under-file"])
    def test_generate_out_that_is_not_a_directory_fails_before_generating(self, tmp_path, capsys, monkeypatch, where):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        generated = []
        monkeypatch.setattr(data, "generate_synthetic", lambda *a, **k: generated.append(a))
        out = taken if where == "file" else taken / "sub"
        with pytest.raises(SystemExit) as info:
            main(["generate", "--dim", "10", "--idim", "2", "--ndim", "2", "--train", "3", "--test", "3", "--out", str(out)])
        stdout, err = capsys.readouterr()
        assert info.value.code == 2
        assert stdout == ""
        assert f"argument --out: not a directory: {taken}" in err
        assert generated == []
        assert taken.read_text() == "kept\n"

    @pytest.mark.parametrize(
        "line,flag",
        [
            ("train --algo ogd --data DIR --model OUT", "--data"),
            ("predict --model MODEL --data DIR", "--data"),
            ("predict --model DIR --data DATA", "--model"),
            ("eval --model MODEL --data DIR", "--data"),
            ("eval --model DIR --data DATA", "--model"),
            ("eval --model MODEL --data DATA --recovery DIR", "--recovery"),
            ("sweep --algos ogd --B 1 --train DIR --test TEST", "--train"),
            ("sweep --algos ogd --B 1 --train DATA --test DIR", "--test"),
            ("cv --algo ogd --data DIR", "--data"),
        ],
        ids=[
            "train-data", "predict-data", "predict-model", "eval-data", "eval-model",
            "eval-recovery", "sweep-train", "sweep-test", "cv-data",
        ],
    )
    def test_directory_input_is_a_usage_error(self, tmp_path, capsys, spy, line, flag):
        paths = small_inputs(tmp_path)
        paths.update(dir=str(tmp_path), out=str(tmp_path / "out"))
        with pytest.raises(SystemExit) as info:
            main(with_paths(line, paths))
        out, err = capsys.readouterr()
        assert info.value.code == 2
        assert out == ""
        assert f"argument {flag}: is a directory: {tmp_path}" in err
        assert spy == []


class TestAnyBudget:
    @pytest.mark.parametrize("algo", ["sofs", "pet"])
    def test_budget_beyond_memory_trains_and_evaluates(self, tmp_path, algo):
        # the tracker holds only the features it keeps, never one slot per unit of B
        data = tmp_path / "d.svm"
        data.write_text("+1 1:1 3:0.5\n-1 2:1\n")
        model = tmp_path / "m.model"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
        for argv in (
            ["train", "--algo", algo, "--B", "10000000000000", "--data", str(data), "--model", str(model)],
            ["eval", "--model", str(model), "--data", str(data)],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "ofs.cli", *argv], capture_output=True, text=True, env=env, timeout=120
            )
            assert proc.returncode == 0, proc.stderr
            assert "Traceback" not in proc.stderr
        assert model.read_text().split()[4] == "10000000000000"
        assert proc.stdout.startswith("accuracy ")


def _limit_address_space():
    # a failed allocation then raises MemoryError at once, whatever the host's RAM
    resource.setrlimit(resource.RLIMIT_AS, (4 * 2**30, 4 * 2**30))


class TestDimensionBeyondMemory:
    @pytest.mark.parametrize(
        "command,text",
        [("train", "+1 10000000000000:1\n"), ("eval", "OFSMODEL v1 ogd 10000000000000 0 eta=0.2 t=0\n")],
        ids=["train", "eval"],
    )
    def test_allocation_failure_is_a_data_error(self, tmp_path, command, text):
        given = tmp_path / "given"
        given.write_text(text)
        data = tmp_path / "d.svm"
        data.write_text("+1 1:1\n")
        if command == "train":
            argv = ["train", "--algo", "ogd", "--data", str(given), "--model", str(tmp_path / "m")]
        else:
            argv = ["eval", "--model", str(given), "--data", str(data)]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "ofs.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
            preexec_fn=_limit_address_space,
        )
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("ofs: ") and "allocate" in proc.stderr
        assert proc.stdout == ""


class TestOneReader:
    @pytest.mark.parametrize(
        "line,inputs",
        [
            ("train --algo ogd --data DATA --model OUT", ["data"]),
            ("eval --model MODEL --data TEST", ["test"]),
            ("predict --model MODEL --data TEST", ["test"]),
            ("cv --algo ogd --data DATA --folds 3", ["data"]),
            ("sweep --algos ogd,arow --B 1 --train DATA --test TEST --repeats 2", ["data", "test"]),
        ],
        ids=["train", "eval", "predict", "cv", "sweep"],
    )
    def test_each_input_line_parsed_once(self, tmp_path, capsys, monkeypatch, spy, line, inputs):
        paths = small_inputs(tmp_path)
        paths["out"] = str(tmp_path / "out")
        parse = data.parse_libsvm_line
        parsed = []
        monkeypatch.setattr(data, "parse_libsvm_line", lambda text, *a: parsed.append(text) or parse(text, *a))
        code, _, _ = run(capsys, *with_paths(line, paths))
        assert code == 0
        want = [row for name in inputs for row in Path(paths[name]).read_text().splitlines(keepends=True)]
        assert sorted(parsed) == sorted(want)
        assert spy.count("read_libsvm") == len(inputs)

    def test_predict_reads_a_pipe(self, tmp_path):
        # only a directory is refused; a non-regular file such as a pipe is read
        paths = small_inputs(tmp_path)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "ofs.cli", "predict", "--model", paths["model"], "--data", "/dev/stdin"],
            input=Path(paths["test"]).read_text(),
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["+1"] * 8  # zero weights predict +1 everywhere


class TestDataErrors:
    def test_malformed_line_exits_one(self, tmp_path, capsys):
        data = tmp_path / "bad.svm"
        data.write_text("+1 1:1.0\n+1 2:zzz\n")
        code, _, err = run(
            capsys,
            "train",
            "--algo", "ogd",
            "--data", str(data),
            "--model", str(tmp_path / "m"),
        )
        assert code == 1
        assert "line 2" in err

    def test_non_finite_value_exits_one(self, tmp_path, capsys):
        data = tmp_path / "nan.svm"
        data.write_text("+1 1:1.0\n-1 1:nan 2:inf 3:-inf\n")
        code, _, err = run(
            capsys,
            "train",
            "--algo", "sofs",
            "--B", "2",
            "--data", str(data),
            "--model", str(tmp_path / "m"),
        )
        assert code == 1
        assert err.startswith("ofs: ")
        assert "line 2" in err and "'1:nan'" in err

    def test_empty_eval_exits_one(self, tmp_path, capsys):
        data = tmp_path / "d.svm"
        data.write_text("+1 1:1\n")
        model = tmp_path / "m"
        assert run(capsys, "train", "--algo", "ogd", "--data", str(data), "--model", str(model))[0] == 0
        empty = tmp_path / "empty.svm"
        empty.write_text("")
        code, _, err = run(capsys, "eval", "--model", str(model), "--data", str(empty))
        assert code == 1
        assert "empty" in err

    @pytest.mark.parametrize("algo,flag", [("sofs", "--gamma"), ("ogd", "--eta"), ("fofs", "--lambda")])
    def test_non_finite_hyperparameter_exits_one(self, tmp_path, capsys, algo, flag):
        data = tmp_path / "d.svm"
        data.write_text("+1 1:1\n")
        model = tmp_path / "m"
        code, _, err = run(
            capsys, "train", "--algo", algo, "--B", "1",
            "--data", str(data), "--model", str(model), flag, "nan",
        )
        assert code == 1
        assert "nan" in err
        assert not model.exists()

    @pytest.mark.parametrize(
        "text,argv,held",
        [
            pytest.param("-1 1:2\n+1 2:1.0\n", ["--algo", "ogd", "--eta", "1e308"], "weight -inf", id="ogd"),
            pytest.param(
                "+1 1:1e200\n-1 2:1.0\n", ["--algo", "sofs", "--B", "2"], "weight 0.0 and covariance 0.0", id="sofs"
            ),
            pytest.param("+1 1:1e200\n-1 2:1.0\n", ["--algo", "arow"], "weight 0.0 and covariance 0.0", id="arow"),
        ],
    )
    def test_model_that_eval_would_reject_exits_one(self, tmp_path, capsys, text, argv, held):
        # a step overflows: ogd's weight to -inf, sofs' and arow's covariance to 0
        data = tmp_path / "d.svm"
        data.write_text(text)
        model = tmp_path / "m"
        code, out, err = run(capsys, "train", *argv, "--data", str(data), "--model", str(model))
        assert code == 1
        assert err == f"ofs: cannot save {model}: coordinate 0 holds {held}, which load_model would reject\n"
        assert out == ""
        assert not model.exists()

    @pytest.mark.parametrize(
        "line,where",
        [
            pytest.param(
                "sweep --algos ogd --B 1 --eta 1e308 --train DATA --test DATA --repeats 1 --csv CSV",
                "sweep ogd B=0 seed=0",
                id="sweep",
            ),
            pytest.param("cv --algo ogd --etas 1e308 --data DATA --folds 2", "cv ogd eta=1e+308 fold 2", id="cv"),
        ],
    )
    def test_overflowed_state_is_not_scored(self, tmp_path, capsys, line, where):
        # ogd's weight overflows to inf: the run is refused, not scored
        paths = {"data": str(tmp_path / "d.svm"), "csv": str(tmp_path / "r.csv")}
        (tmp_path / "d.svm").write_text("+1 1:2\n-1 2:1.0\n")
        code, out, err = run(capsys, *with_paths(line, paths))
        assert code == 1
        assert err == f"ofs: {where}: coordinate 0 holds weight inf, which load_model would reject\n"
        assert out == ""
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("command", ["train", "sweep", "cv"])
    def test_fofs_negative_shrink_exits_one(self, tmp_path, capsys, command, spy):
        data = tmp_path / "d.svm"
        data.write_text("-1 2:1\n-1 3:1\n")
        model = tmp_path / "m"
        argv = {
            "train": ["train", "--algo", "fofs", "--B", "5", "--data", str(data), "--model", str(model),
                      "--eta", "1", "--lambda", "3"],
            "sweep": ["sweep", "--algos", "fofs", "--B", "5", "--train", str(data), "--test", str(data),
                      "--eta", "1", "--lambda", "3"],
            "cv": ["cv", "--algo", "fofs", "--B", "5", "--data", str(data), "--etas", "1", "--lambdas", "3",
                   "--folds", "2"],
        }[command]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert err == "ofs: fofs needs lambda * eta <= 1, got lambda=3.0 and eta=1.0\n"
        assert out == ""
        assert not model.exists()
        assert "train_stream" not in spy

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_unread_hyperparameter_exits_one(self, tmp_path, capsys, command):
        # ogd reads neither gamma nor lambda; both are checked all the same
        data = tmp_path / "d.svm"
        data.write_text("+1 1:1\n-1 2:1\n")
        model = tmp_path / "m"
        if command == "train":
            argv = ["train", "--algo", "ogd", "--data", str(data), "--model", str(model)]
        else:
            argv = ["sweep", "--algos", "ogd", "--B", "1", "--train", str(data), "--test", str(data), "--repeats", "1"]
        code, out, err = run(capsys, *argv, "--gamma", "nan", "--lambda", "-3")
        assert code == 1
        assert err == "ofs: gamma must be positive and finite, got nan\n"
        assert out == ""
        assert not model.exists()

    def test_index_beyond_int64_exits_one(self, tmp_path, capsys):
        data = tmp_path / "big.svm"
        data.write_text("1 99999999999999999999999:1\n")
        model = tmp_path / "m"
        code, out, err = run(capsys, "train", "--algo", "ogd", "--data", str(data), "--model", str(model))
        assert code == 1
        assert err == f"ofs: {data}: line 1: feature index must be < 2**63 at token 2: '99999999999999999999999:1'\n"
        assert out == ""
        assert not model.exists()

    @pytest.mark.parametrize(
        "content,message",
        [
            pytest.param(b"+1 1:1\n+1 2:zz\n", "line 2: malformed feature at token 2: '2:zz'", id="malformed"),
            pytest.param(b"+1 1:1\n-1 2:1 3:\xe2\x80\x94\n", "line 2: non-ASCII byte 0xe2 at column 10", id="non-ascii"),
            pytest.param(
                b"+1 1:1\n-1 2:x\n+1 3:\xe2\n", "line 2: malformed feature at token 2: '2:x'", id="malformed-then-non-ascii"
            ),
        ],
    )
    def test_sweep_names_the_bad_file(self, tmp_path, capsys, content, message):
        good, bad = tmp_path / "ok.svm", tmp_path / "bad.svm"
        good.write_text("+1 1:1\n-1 2:1\n")
        bad.write_bytes(content)
        code, out, err = run(
            capsys, "sweep", "--algos", "ogd", "--B", "1", "--train", str(good), "--test", str(bad), "--repeats", "1"
        )
        assert code == 1
        assert err == f"ofs: {bad}: {message}\n"
        assert out == ""

    def test_unread_cv_grid_value_exits_one(self, tmp_path, capsys):
        # ogd reads only the eta grid; the gamma and lambda grids are checked too
        data = tmp_path / "d.svm"
        data.write_text("+1 1:1\n-1 2:1\n+1 1:1\n-1 2:1\n")
        code, out, err = run(
            capsys, "cv", "--algo", "ogd", "--data", str(data), "--gammas", "nan", "--lambdas", "-3", "--folds", "2"
        )
        assert code == 1
        assert err == "ofs: gamma must be positive and finite, got nan\n"
        assert out == ""

    def test_corrupt_model_header_exits_one(self, tmp_path, capsys):
        data = tmp_path / "d.svm"
        data.write_text("+1 1:1\n")
        model = tmp_path / "m"
        model.write_text("OFSMODEL v1 ogd -5 0 eta=0.2 t=1\n")
        code, _, err = run(capsys, "eval", "--model", str(model), "--data", str(data))
        assert code == 1
        assert err == f"ofs: {model}: line 1: d must be an integer >= 0, got '-5'\n"

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_corrupt_model_exits_one(self, tmp_path, capsys, command):
        data = tmp_path / "d.svm"
        data.write_text("+1 1:1\n")
        model = tmp_path / "m"
        model.write_text("OFSMODEL v1 ogd 4 0 eta=0.2 t=1\n-1 0.5\n")
        code, _, err = run(capsys, command, "--model", str(model), "--data", str(data))
        assert code == 1
        assert err == f"ofs: {model}: line 2: index -1 outside [0, 4)\n"


    def test_model_index_listed_twice_exits_one(self, tmp_path, capsys):
        data = tmp_path / "d.svm"
        data.write_text("+1 1:1\n")
        model = tmp_path / "m"
        model.write_text("OFSMODEL v1 sofs 4 2 gamma=1.0\n1 0.5 0.5\n1 -0.5 0.25\n")
        code, out, err = run(capsys, "eval", "--model", str(model), "--data", str(data))
        assert code == 1
        assert err == f"ofs: {model}: line 3: index 1 listed twice\n"
        assert out == ""

    @pytest.mark.parametrize(
        "text,message",
        [
            pytest.param("0\n3\n", "line 1: expected an index >= 1, got '0'", id="zero"),
            pytest.param("# truth\n3\nx\n", "line 3: expected an index >= 1, got 'x'", id="x"),
            pytest.param("2\n-4\n", "line 2: expected an index >= 1, got '-4'", id="negative"),
        ],
    )
    def test_bad_truth_file_exits_one_before_eval(self, tmp_path, capsys, text, message):
        data = tmp_path / "d.svm"
        data.write_text("+1 1:1\n")
        model = tmp_path / "m"
        model.write_text("OFSMODEL v1 ogd 4 0 eta=0.2 t=1\n1 0.5\n")
        truth = tmp_path / "truth.txt"
        truth.write_text(text)
        code, out, err = run(capsys, "eval", "--model", str(model), "--data", str(data), "--recovery", str(truth))
        assert code == 1
        assert err == f"ofs: {truth}: {message}\n"
        assert out == ""

class TestCorruptGzip:
    @pytest.mark.parametrize(
        "line",
        [
            "train --algo ogd --data GZ --model OUT",
            "eval --model MODEL --data GZ",
            "predict --model MODEL --data GZ",
            "cv --algo ogd --data GZ --folds 3",
            "sweep --algos ogd --B 1 --train DATA --test GZ --repeats 1",
        ],
        ids=["train", "eval", "predict", "cv", "sweep"],
    )
    def test_truncated_gzip_exits_one(self, tmp_path, capsys, line):
        paths = small_inputs(tmp_path)
        packed = gzip.compress(Path(paths["data"]).read_bytes())
        gz = tmp_path / "d.svm.gz"
        gz.write_bytes(packed[: len(packed) // 2])
        paths.update(gz=str(gz), out=str(tmp_path / "out"))
        code, _, err = run(capsys, *with_paths(line, paths))
        assert code == 1
        assert err.startswith(f"ofs: {gz}: ") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_corrupt_deflate_stream_exits_one(self, tmp_path, capsys):
        gz = tmp_path / "d.svm.gz"
        gz.write_bytes(b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff\x07")  # a gzip header, then an invalid block type
        model = tmp_path / "m"
        code, out, err = run(capsys, "train", "--algo", "ogd", "--data", str(gz), "--model", str(model))
        assert code == 1
        assert err.startswith(f"ofs: {gz}: ") and "invalid block type" in err and "Traceback" not in err
        assert out == ""
        assert not model.exists()


class TestGenerate:
    def test_writes_three_files(self, dataset):
        assert (dataset / "train.svm").exists()
        assert (dataset / "test.svm").exists()
        assert (dataset / "informative.txt").exists()
        rows = list(read_libsvm(dataset / "train.svm"))
        assert len(rows) == 1500
        assert all(len(r.indices) == 75 for r in rows)

    def test_truth_file_is_one_based(self, dataset):
        lines = (dataset / "informative.txt").read_text().splitlines()
        assert lines[0].startswith("#")
        indices = [int(s) for s in lines[1:]]
        assert len(indices) == 25
        assert min(indices) >= 1
        assert max(indices) <= 400

    def test_gz_variant(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "generate",
            "--dim", "100",
            "--idim", "5",
            "--ndim", "10",
            "--train", "50",
            "--test", "10",
            "--out", str(tmp_path),
            "--gz",
        )
        assert code == 0
        assert (tmp_path / "train.svm.gz").exists()
        assert len(list(read_libsvm(tmp_path / "train.svm.gz"))) == 50

    def test_creates_missing_directories(self, tmp_path, capsys):
        out = tmp_path / "a" / "b"
        code, _, _ = run(
            capsys,
            "generate", "--dim", "100", "--idim", "5", "--ndim", "10", "--train", "5", "--test", "5", "--out", str(out),
        )
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["informative.txt", "test.svm", "train.svm"]

    def test_invalid_spec_exits_one(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "generate",
            "--dim", "10",
            "--idim", "8",
            "--ndim", "8",
            "--train", "5",
            "--test", "5",
            "--out", str(tmp_path),
        )
        assert code == 1
        assert "exceeds" in err


class TestTrainEvalPredict:
    def test_full_flow(self, dataset, capsys):
        model = dataset / "sofs.model"
        code, out, _ = run(
            capsys,
            "train",
            "--algo", "sofs",
            "--B", "25",
            "--data", str(dataset / "train.svm"),
            "--model", str(model),
        )
        assert code == 0
        assert "trained sofs on 1500 examples" in out
        assert model.exists()

        code, out, _ = run(
            capsys,
            "eval",
            "--model", str(model),
            "--data", str(dataset / "test.svm"),
            "--recovery", str(dataset / "informative.txt"),
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("accuracy 0.")
        assert lines[1].startswith("recovery ")
        accuracy = float(lines[0].split()[1])
        assert accuracy > 0.7  # learnable synthetic set

    def test_predict_matches_eval(self, dataset, capsys):
        model = dataset / "m.model"
        run(
            capsys,
            "train",
            "--algo", "pet",
            "--B", "25",
            "--data", str(dataset / "train.svm"),
            "--model", str(model),
        )
        out_file = dataset / "preds.txt"
        code, _, _ = run(
            capsys,
            "predict",
            "--model", str(model),
            "--data", str(dataset / "test.svm"),
            "--out", str(out_file),
        )
        assert code == 0
        preds = out_file.read_text().split()
        assert len(preds) == 400
        assert set(preds) <= {"+1", "-1"}

        labels = [f"{x.label:+d}" for x in read_libsvm(dataset / "test.svm")]
        agree = sum(1 for p, y in zip(preds, labels) if p == y) / len(labels)
        code, out, _ = run(capsys, "eval", "--model", str(model), "--data", str(dataset / "test.svm"))
        assert float(out.split()[1]) == pytest.approx(agree)

    def test_predict_to_stdout(self, dataset, capsys):
        model = dataset / "m2.model"
        run(
            capsys,
            "train",
            "--algo", "ogd",
            "--data", str(dataset / "train.svm"),
            "--model", str(model),
        )
        code, out, _ = run(capsys, "predict", "--model", str(model), "--data", str(dataset / "test.svm"))
        assert code == 0
        assert len(out.split()) == 400


class TestSweepCommand:
    def test_csv_rows(self, dataset, capsys):
        csv = dataset / "out.csv"
        code, out, _ = run(
            capsys,
            "sweep",
            "--algos", "sofs,pet",
            "--B", "10,25",
            "--train", str(dataset / "train.svm"),
            "--test", str(dataset / "test.svm"),
            "--repeats", "2",
            "--csv", str(csv),
            "--dim", "400",
        )
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "algo,B,seed,accuracy,mistakes,sparsity_pct,train_s,total_s"
        assert len(lines) == 1 + 2 * 2 * 2
        assert "sofs" in out  # table printed to stdout

    def test_unknown_algo_in_list(self, dataset, capsys):
        code, _, err = run(
            capsys,
            "sweep",
            "--algos", "sofs,bogus",
            "--B", "10",
            "--train", str(dataset / "train.svm"),
            "--test", str(dataset / "test.svm"),
        )
        assert code == 1
        assert "bogus" in err

    @pytest.mark.parametrize("dim", ["0", "-5"])
    def test_dim_below_one_exits_one(self, tmp_path, capsys, dim):
        paths = small_inputs(tmp_path)
        code, out, err = run(
            capsys, *with_paths(f"sweep --algos ogd --B 1 --train DATA --test TEST --repeats 1 --dim {dim}", paths)
        )
        assert code == 1
        assert err == "ofs: dim must be >= 1\n"
        assert out == ""

    def test_max_in_memory_accepted_and_ignored(self, tmp_path, capsys):
        paths = small_inputs(tmp_path)
        rows = []
        for extra in ("", " --max-in-memory 200", " --max-in-memory -1"):
            line = "sweep --algos ogd,pet --B 2 --train DATA --test TEST --repeats 2 --csv OUT" + extra
            code, _, err = run(capsys, *with_paths(line, {**paths, "out": str(tmp_path / "out.csv")}))
            assert code == 0, err
            rows.append([row.split(",")[:6] for row in (tmp_path / "out.csv").read_text().splitlines()])
        assert len(rows[0]) == 1 + 2 * 2
        assert rows[1] == rows[2] == rows[0]

    def test_max_in_memory_not_in_help(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert "--train" in out and "max-in-memory" not in out

    def test_failed_cache_write_exits_one_and_leaves_no_directory(self, tmp_path, capsys, monkeypatch):
        paths = small_inputs(tmp_path)
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))

        class FullDisk(io.FileIO):
            def write(self, b):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), self.name)

        monkeypatch.setattr(pipeline, "open", FullDisk, raising=False)
        code, out, err = run(capsys, *with_paths("sweep --algos ogd --B 1 --train DATA --test TEST --repeats 1", paths))
        assert code == 1
        assert err.startswith(f"ofs: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: ")
        assert err.endswith("train.idx'\n")
        assert out == ""
        assert os.listdir(scratch) == []


class TestCvCommand:
    def test_reports_grid_and_best(self, dataset, capsys):
        code, out, _ = run(
            capsys,
            "cv",
            "--algo", "sofs",
            "--B", "25",
            "--data", str(dataset / "train.svm"),
            "--gammas", "0.25,1.0",
            "--folds", "3",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("gamma=0.25: ")
        assert lines[1].startswith("gamma=1.0: ")
        assert lines[2].startswith("best: gamma=")

    def test_eta_zero_grid_point_runs(self, dataset, capsys):
        code, out, _ = run(
            capsys,
            "cv",
            "--algo", "ogd",
            "--data", str(dataset / "train.svm"),
            "--etas", "0.0,0.2",
            "--folds", "3",
        )
        assert code == 0
        assert "best: eta=0.2" in out

    def test_close_grid_values_print_apart(self, tmp_path, capsys):
        paths = small_inputs(tmp_path)
        line = "cv --algo ogd --etas 0.12345678,0.12345679 --folds 2 --data DATA"
        code, out, err = run(capsys, *with_paths(line, paths))
        assert code == 0, err
        lines = out.splitlines()
        assert [row.partition(": ")[0] for row in lines[:2]] == ["eta=0.12345678", "eta=0.12345679"]
        assert lines[2] == "best: eta=0.12345678"

    def test_lambda_printed_under_its_flag_name(self, tmp_path, capsys):
        paths = small_inputs(tmp_path)
        code, out, err = run(capsys, *with_paths("cv --algo fofs --B 2 --lambdas 0.5 --folds 2 --data DATA", paths))
        assert code == 0, err
        lines = out.splitlines()
        assert lines[0].startswith("eta=0.2 lambda=0.5: ")
        assert lines[1] == "best: eta=0.2 lambda=0.5"

    @pytest.mark.parametrize("malformed", [False, True])
    def test_leaves_no_directory(self, tmp_path, capsys, monkeypatch, malformed):
        paths = small_inputs(tmp_path)
        if malformed:
            with open(paths["data"], "a", encoding="ascii") as fh:
                fh.write("+1 3:oops\n")
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        code, out, err = run(capsys, *with_paths("cv --algo ogd --etas 0.1,0.2 --folds 3 --data DATA", paths))
        if malformed:
            assert code == 1
            assert err.startswith(f"ofs: {paths['data']}: line 13: ")
            assert out == ""
        else:
            assert code == 0, err
            assert out.splitlines()[-1].startswith("best: eta=")
        assert os.listdir(scratch) == []

    def test_failed_cache_write_exits_one_and_leaves_no_directory(self, tmp_path, capsys, monkeypatch):
        paths = small_inputs(tmp_path)
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))

        class FullDisk(io.FileIO):
            def write(self, b):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), self.name)

        monkeypatch.setattr(pipeline, "open", FullDisk, raising=False)
        code, out, err = run(capsys, *with_paths("cv --algo ogd --folds 2 --data DATA", paths))
        assert code == 1
        assert err.startswith(f"ofs: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: ")
        assert err.endswith("cv.idx'\n")
        assert out == ""
        assert os.listdir(scratch) == []
