"""End-to-end command-line behavior."""
import json
from pathlib import Path

import pytest

from sparseborn.cli import main

ZOO = str(Path(__file__).resolve().parent.parent / "data" / "zoo.csv")
CSV = "class,hair,legs\nMammal,1,4\nMammal,1,4\nBird,0,2\nBird,0,2\nFish,0,0\n"


@pytest.fixture
def zoo_csv(tmp_path):
    path = tmp_path / "animals.csv"
    path.write_text(CSV)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_train_predict_round_trip(zoo_csv, tmp_path, capsys):
    model = str(tmp_path / "model.json")
    code, out, err = run(
        capsys, "train", "--data", zoo_csv, "--targets", "class", "--model", model
    )
    assert code == 0, err
    assert "3 target classes" in out
    queries = tmp_path / "queries.csv"
    queries.write_text("class,hair,legs\n,1,4\n,9,9\n")
    out_path = tmp_path / "pred.tsv"
    code, _, err = run(
        capsys,
        "predict", "--data", str(queries), "--targets", "class",
        "--model", model, "--out", str(out_path), "--top-k", "3",
    )
    assert code == 0, err
    lines = out_path.read_text().strip().split("\n")
    header = lines[0].split("\t")
    assert header == [
        "record", "fallback_depth",
        "label_1", "prob_1", "label_2", "prob_2", "label_3", "prob_3",
    ]
    first = lines[1].split("\t")
    assert first[2] == "Mammal" and first[1] == "0"
    # the all-unseen record falls back to the class prior
    second = lines[2].split("\t")
    assert second[1] == "1"  # terminal fallback depth for the matrix policy
    assert second[2] == "Mammal"  # argmax of the prior (ties broken by index)


def test_train_is_byte_identical(zoo_csv, tmp_path, capsys):
    m1, m2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for m in (m1, m2):
        code, _, err = run(
            capsys, "train", "--data", zoo_csv, "--targets", "class", "--model", m
        )
        assert code == 0, err
    assert Path(m1).read_bytes() == Path(m2).read_bytes()


def test_train_empty_inputs_fail(tmp_path, capsys):
    model = str(tmp_path / "model.json")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code, _, err = run(capsys, "train", "--data", str(empty), "--targets", "class", "--model", model)
    assert code != 0
    assert err.startswith("error:")
    header_only = tmp_path / "header.csv"
    header_only.write_text("class,x\n")
    code, _, err = run(
        capsys, "train", "--data", str(header_only), "--targets", "class", "--model", model
    )
    assert code != 0
    assert "empty training set" in err


def test_train_unreadable_input(tmp_path, capsys):
    code, _, err = run(
        capsys, "train", "--data", str(tmp_path / "missing.csv"),
        "--targets", "class", "--model", str(tmp_path / "m.json"),
    )
    assert code != 0 and err.startswith("error:")


def test_explain_global_and_errors(zoo_csv, tmp_path, capsys):
    model = str(tmp_path / "model.json")
    run(capsys, "train", "--data", zoo_csv, "--targets", "class", "--model", model)
    out_path = tmp_path / "explain.tsv"
    code, _, err = run(
        capsys, "explain", "--model", model, "--targets", "Mammal",
        "--out", str(out_path),
    )
    assert code == 0, err
    lines = out_path.read_text().strip().split("\n")
    assert lines[0].split("\t") == ["target", "feature", "score", "share", "angle"]
    assert any("hair=1" in line for line in lines[1:])
    code, _, err = run(capsys, "explain", "--model", model, "--targets", "Dragon")
    assert code != 0
    assert "Mammal" in err  # lists valid targets


def test_archive_with_non_string_labels_fails_with_one_error_line(zoo_csv, tmp_path, capsys):
    model = tmp_path / "model.json"
    run(capsys, "train", "--data", zoo_csv, "--targets", "class", "--model", str(model))
    payload = json.loads(model.read_text())
    payload["target_dims"][0]["values"] = list(range(len(payload["target_dims"][0]["values"])))
    model.write_text(json.dumps(payload))
    queries = tmp_path / "queries.csv"
    queries.write_text("class,hair,legs\n,1,4\n")
    for argv in (
        ["predict", "--data", str(queries), "--targets", "class", "--out", str(tmp_path / "p.tsv")],
        ["explain", "--targets", "1"],
    ):
        code, _, err = run(capsys, *argv, "--model", str(model))
        assert code == 1
        assert err.startswith("error: malformed model archive") and err.count("\n") == 1, err


def test_explain_local_and_aggregate(zoo_csv, tmp_path, capsys):
    model = str(tmp_path / "model.json")
    run(capsys, "train", "--data", zoo_csv, "--targets", "class", "--model", model)
    queries = tmp_path / "q.csv"
    queries.write_text("class,hair,legs\n,1,4\n")
    code, out, err = run(
        capsys, "explain", "--model", model, "--explain-mode", "local",
        "--data", str(queries), "--targets", "class",
    )
    assert code == 0, err
    assert "hair=1" in out
    empty = tmp_path / "none.csv"
    empty.write_text("class,hair,legs\n")
    code, out, err = run(
        capsys, "explain", "--model", model, "--explain-mode", "aggregate",
        "--data", str(empty), "--targets", "class",
    )
    assert code == 0, err
    assert out.strip().split("\n")[0].startswith("target")


def test_learn_policy_matrix_chain(zoo_csv, tmp_path, capsys):
    model = str(tmp_path / "model.json")
    run(capsys, "train", "--data", zoo_csv, "--targets", "class", "--model", model)
    report = tmp_path / "report.txt"
    code, out, err = run(
        capsys, "learn-policy", "--model", model, "--data", zoo_csv,
        "--targets", "class", "--report", str(report),
    )
    assert code == 0, err
    assert "[[0], []]" in out
    text = report.read_text()
    assert "p=2.0" in text and "{0}" in text
    payload = json.loads(Path(model).read_text())
    assert payload["policy"] == [[0], []]


def test_learn_policy_rejects_unlabeled(zoo_csv, tmp_path, capsys):
    model = str(tmp_path / "model.json")
    run(capsys, "train", "--data", zoo_csv, "--targets", "class", "--model", model)
    unlabeled = tmp_path / "u.jsonl"
    unlabeled.write_text(json.dumps({"tokens": ["hair=1"]}) + "\n")
    code, _, err = run(
        capsys, "learn-policy", "--model", model, "--data", str(unlabeled)
    )
    assert code != 0 and "label" in err


def test_learn_policy_loss_p_propagates(zoo_csv, tmp_path, capsys):
    model = str(tmp_path / "model.json")
    run(capsys, "train", "--data", zoo_csv, "--targets", "class", "--model", model)
    code, out, err = run(
        capsys, "learn-policy", "--model", model, "--data", zoo_csv,
        "--targets", "class", "--loss-p", "1.5",
    )
    assert code == 0, err
    assert "p=1.5" in out


def test_evaluate_repeated_split(zoo_csv, capsys):
    code, out, err = run(
        capsys, "evaluate", "--data", zoo_csv, "--targets", "class",
        "--runs", "4", "--test-fraction", "0.4", "--seed", "3",
    )
    assert code == 0, err
    assert "quantum" in out and "classic" in out and "pairwise" in out


def test_evaluate_holdout(zoo_csv, tmp_path, capsys):
    code, out, err = run(
        capsys, "evaluate", "--train", zoo_csv, "--test", zoo_csv,
        "--targets", "class",
    )
    assert code == 0, err
    assert "accuracy" in out and "train_seconds" in out


def test_evaluate_invalid_runs(zoo_csv, capsys):
    code, _, err = run(
        capsys, "evaluate", "--data", zoo_csv, "--targets", "class", "--runs", "0"
    )
    assert code != 0 and err.startswith("error:")


def test_invalid_arguments_fail_with_one_line_error(zoo_csv, tmp_path, capsys):
    model = str(tmp_path / "model.json")
    run(capsys, "train", "--data", zoo_csv, "--targets", "class", "--model", model)
    for argv in (
        ["predict", "--data", zoo_csv, "--targets", "class", "--model", model, "--top-k", "0"],
        ["train", "--data", zoo_csv, "--targets", "class", "--model", model, "--h", "-1"],
        ["explain", "--model", model, "--explain-mode", "discriminative", "--top-k", "0"],
        ["explain", "--model", model, "--explain-mode", "local"],
        ["explain", "--model", model, "--explain-mode", "aggregate"],
        ["learn-policy", "--model", model, "--data", zoo_csv, "--targets", "class", "--loss-p", "inf"],
        ["predict", "--data", zoo_csv, "--targets", "class", "--model", model, "--delimiter", ""],
        ["predict", "--data", zoo_csv, "--targets", "class", "--model", model, "--delimiter", ";;"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 1 and err.startswith("error:") and err.count("\n") == 1, (argv, err)


def test_explain_modes_name_their_missing_input(zoo_csv, tmp_path, capsys):
    model = str(tmp_path / "model.json")
    run(capsys, "train", "--data", zoo_csv, "--targets", "class", "--model", model)
    for mode, missing in (("global", "--targets"), ("local", "--data"), ("aggregate", "--data")):
        code, out, err = run(capsys, "explain", "--model", model, "--explain-mode", mode)
        assert (code, out) == (1, "")
        assert err == f"error: {mode} explanation needs {missing}\n"


def test_explain_rejects_top_k_below_one(zoo_csv, tmp_path, capsys):
    model = str(tmp_path / "model.json")
    run(capsys, "train", "--data", zoo_csv, "--targets", "class", "--model", model)
    queries = tmp_path / "q.csv"
    queries.write_text("class,hair,legs\n,1,4\n")
    data = ["--data", str(queries), "--targets", "class"]
    for k in ("0", "-1"):
        for argv in (
            ["--targets", "Mammal"],
            ["--explain-mode", "local", *data],
            ["--explain-mode", "aggregate", *data],
        ):
            code, out, err = run(capsys, "explain", "--model", model, "--top-k", k, *argv)
            assert code == 1 and out == "", (k, argv)
            assert err == "error: k must be >= 1\n", (k, argv)


def test_failed_run_leaves_existing_out_file_untouched(zoo_csv, tmp_path, capsys):
    model = str(tmp_path / "model.json")
    run(capsys, "train", "--data", zoo_csv, "--targets", "class", "--model", model)
    out_path = tmp_path / "keep.tsv"
    out_path.write_bytes(b"keep\n")
    for argv in (
        ["explain", "--model", model, "--targets", "Nope"],
        ["explain", "--model", model, "--explain-mode", "local"],
        ["evaluate", "--train", zoo_csv, "--targets", "class"],
        ["evaluate", "--data", zoo_csv, "--targets", "class", "--runs", "0"],
        ["predict", "--data", zoo_csv, "--targets", "class", "--model", model, "--top-k", "0"],
    ):
        code, out, err = run(capsys, *argv, "--out", str(out_path))
        assert (code, out) == (1, "") and err.startswith("error:"), argv
        assert out_path.read_bytes() == b"keep\n", argv


def test_learn_policy_unwritable_report_leaves_model_untouched(tmp_path, capsys):
    # in tensor mode the learned policy differs from the default one the archive holds
    data = ["--data", ZOO, "--targets", "type", "--drop-columns", "animal_name", "--mode", "tensor"]
    model = tmp_path / "model.json"
    run(capsys, "train", *data, "--model", str(model))
    before = model.read_bytes()
    code, out, err = run(
        capsys, "learn-policy", *data, "--model", str(model),
        "--report", str(tmp_path / "missing" / "report.txt"),
    )
    assert (code, out) == (1, "") and err.startswith("error:") and err.count("\n") == 1
    assert model.read_bytes() == before


@pytest.mark.parametrize("command", [
    ["predict", "--data", "q.csv", "--model", "m.json"],
    ["explain", "--model", "m.json"],
    ["learn-policy", "--model", "m.json", "--data", "q.csv"],
])
def test_normalize_is_only_for_commands_that_fit(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([*command, "--normalize"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --normalize" in capsys.readouterr().err
