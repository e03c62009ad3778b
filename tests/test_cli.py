import pytest

from ofs.cli import main
from ofs.data import read_libsvm


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


class TestGenerate:
    def test_writes_three_files(self, dataset):
        assert (dataset / "train.svm").exists()
        assert (dataset / "test.svm").exists()
        assert (dataset / "informative.txt").exists()
        rows = list(read_libsvm(dataset / "train.svm"))
        assert len(rows) == 1500
        assert all(r.nnz == 75 for r in rows)

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
        assert lines[1].startswith("gamma=1: ")
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
