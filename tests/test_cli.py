import json
import re

import pytest

from motionscope.benchmark import HEADER
from motionscope.cli import main
from motionscope.config import TrainConfig

OUTPUTS = ("report.csv", "model.bin", "bank.json")


def test_gen_train_eval_report(tmp_path, capsys):
    train, val, runs = tmp_path / "train", tmp_path / "val", tmp_path / "runs"
    assert main(["gen", "--seeds", "0..2", "--out", str(train)]) == 0
    assert main(["gen", "--seeds", "10..11", "--out", str(val)]) == 0
    config = tmp_path / "config.json"
    TrainConfig(steps=4, eval_every=2, train_dir=str(train), val_dir=str(val)).to_json(config)

    for run in ("a", "b"):
        assert main(["train", "--config", str(config), "--out", str(runs / run)]) == 0
    for name in OUTPUTS:
        assert (runs / "a" / name).read_bytes() == (runs / "b" / name).read_bytes(), name
    assert len((runs / "a" / "report.csv").read_text().splitlines()) == 1 + 2

    capsys.readouterr()
    assert main(["eval", "--model", str(runs / "a" / "model.bin"), "--data", str(val)]) == 0
    summary = json.loads((runs / "a" / "summary.json").read_text())
    assert f"J={summary['j']:.4f} F={summary['f']:.4f}" in capsys.readouterr().out

    report = tmp_path / "report.csv"
    assert main(["report", "--runs", str(runs), "--csv", str(report)]) == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "run,j,f,jf,ident_acc,probe_acc,separation_margin"
    assert [line.split(",")[0] for line in lines[1:]] == ["a", "b"]


def test_config_json_roundtrip_and_validation(tmp_path):
    cfg = TrainConfig(steps=7, grid_height=24, query_variant="ds_no_query", train_dir="x")
    cfg.to_json(tmp_path / "config.json")
    assert TrainConfig.from_json(tmp_path / "config.json") == cfg
    with pytest.raises(ValueError, match="n_negatives"):
        cfg.replace(n_negatives=-1)


def test_config_with_unknown_keys_rejected(tmp_path):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"steps": 3, "hmp_enabled": False, "decouple_sentence": True}))
    with pytest.raises(ValueError) as exc:
        TrainConfig.from_json(path)
    assert str(path) in str(exc.value)
    assert "decouple_sentence" in str(exc.value) and "hmp_enabled" in str(exc.value)


def test_config_with_recipe_keys_rejected(tmp_path):
    """A config file of an earlier version, which set the training recipe,
    could turn trajectory linking off, set the model's width (even to its
    one value, 32) or the scene features' width apart from it, or set the
    model's HMP depth, is rejected with every removed key named, not read
    with them ignored."""
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"steps": 3, "tau": 0.07, "contrastive_enabled": False,
                                "hungarian_enabled": True, "channels": 32, "img_channels": 32,
                                "hmp_blocks": 3}))
    with pytest.raises(ValueError) as exc:
        TrainConfig.from_json(path)
    assert str(path) in str(exc.value)
    assert ("'channels', 'contrastive_enabled', 'hmp_blocks', 'hungarian_enabled', "
            "'img_channels', 'tau'" in str(exc.value))
    assert "fixed in the code" in str(exc.value)
    assert "always linked" in str(exc.value)
    assert "width (channels) is the scenes' feature width, 32, fixed in benchmark.py" \
        in str(exc.value)
    assert "query counts and HMP depth are fixed" in str(exc.value)


@pytest.mark.parametrize("config, key", [({"steps": 4, "img_channels": 32}, "img_channels"),
                                         ({"steps": 4, "channels": 8}, "channels"),
                                         ({"steps": 4, "n_static_queries": 8}, "n_static_queries"),
                                         ({"steps": 4, "n_motion_queries": 4}, "n_motion_queries"),
                                         ({"steps": 4, "hmp_blocks": 3}, "hmp_blocks")],
                         ids=["img_channels", "channels-8", "n_static_queries",
                              "n_motion_queries", "hmp_blocks"])
def test_train_rejects_a_feature_width_config_in_one_line(tmp_path, capsys, config, key):
    """A config that sets the model's fixed width (`channels`), the feature
    width apart from it (`img_channels`), or one of the model's fixed query
    counts and HMP depth makes `train` exit with one stderr line naming the
    key."""
    data = tmp_path / "scenes"
    assert main(["gen", "--seeds", "0", "--out", str(data)]) == 0
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run"),
                 "--data", str(data), "--val-data", str(data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("motionscope train: ") and key in err
    assert err.count("\n") == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key, value, expected", [
    ("steps", "10", "int"),
    ("steps", True, "int"),  # bool is an int subclass, but not a count
    ("learning_rate", "0.1", "float"),
    ("query_variant", 3, "str"),
])
def test_config_field_of_wrong_type_rejected(tmp_path, key, value, expected):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: value}))
    with pytest.raises(ValueError) as exc:
        TrainConfig.from_json(path)
    assert str(path) in str(exc.value)
    assert f"{key} must be of type {expected}" in str(exc.value)


def test_config_int_accepted_for_float_field(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"learning_rate": 1}))
    assert TrainConfig.from_json(path).learning_rate == 1


def test_unreadable_config_names_the_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"steps": 3,')
    with pytest.raises(ValueError, match=f"{re.escape(str(path))} is not readable JSON"):
        TrainConfig.from_json(path)


def test_config_top_level_must_be_an_object(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps([1]))
    with pytest.raises(ValueError) as exc:
        TrainConfig.from_json(path)
    assert str(path) in str(exc.value) and "JSON object" in str(exc.value)
    assert "unknown config keys" not in str(exc.value)


def test_report_names_a_summary_that_is_not_an_object(tmp_path, capsys):
    summary = tmp_path / "runs" / "a" / "summary.json"
    summary.parent.mkdir(parents=True)
    summary.write_text(json.dumps([1, 2]))
    assert main(["report", "--runs", str(tmp_path / "runs"),
                 "--csv", str(tmp_path / "report.csv")]) == 2
    assert capsys.readouterr().err == (
        f"motionscope report: {summary} must be a JSON object, got list\n")


def test_report_without_summaries_is_one_line_and_exit_2(tmp_path, capsys):
    runs = tmp_path / "runs"
    (runs / "a").mkdir(parents=True)
    assert main(["report", "--runs", str(runs), "--csv", str(tmp_path / "report.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"motionscope report: {runs} ")
    assert err.count("\n") == 1
    assert not (tmp_path / "report.csv").exists()


def test_train_names_a_missing_data_directory(tmp_path, capsys):
    config = tmp_path / "config.json"
    TrainConfig(steps=2, eval_every=1).to_json(config)
    typo = tmp_path / "typo"
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "run"),
                 "--data", str(typo), "--val-data", str(typo)]) == 2
    assert capsys.readouterr().err == (
        f"motionscope train: scene directory {typo} does not exist\n")


def test_eval_names_an_edited_scene_in_one_line(tmp_path, capsys):
    """A scene file whose stored digest was edited is not what its seed
    generates: evaluation fails with one line naming the file, not a
    traceback."""
    data = tmp_path / "val"
    assert main(["gen", "--seeds", "1000", "--out", str(data)]) == 0
    path = data / "1000.bin"
    raw = bytearray(path.read_bytes())
    raw[HEADER.size - 1] ^= 1  # the digest's last byte
    path.write_bytes(raw)
    TrainConfig().to_json(tmp_path / "config.json")
    capsys.readouterr()
    # the scenes are read before the model, which does not exist
    assert main(["eval", "--model", str(tmp_path / "model.bin"), "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"motionscope eval: {path}: the objects and expressions that seed 1000 ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", [["train"], ["ablate", "--axis", "nn", "--seeds", "1"]],
                         ids=["train", "ablate"])
def test_diverged_run_ends_in_one_line(tmp_path, capsys, command):
    """At a learning rate of 1e10 the run's forward meets an invalid division
    at step 7 (see test_trainer.test_overflowing_run_raises_training_diverged;
    in `ablate`, in its first variant): the command exits 2 with one stderr
    line naming the step, and numpy warns of nothing first."""
    train, val = tmp_path / "train", tmp_path / "val"
    assert main(["gen", "--seeds", "0..7", "--out", str(train)]) == 0
    assert main(["gen", "--seeds", "1000", "--out", str(val)]) == 0
    config = tmp_path / "config.json"
    TrainConfig(learning_rate=1e10, steps=200, eval_every=100).to_json(config)
    capsys.readouterr()
    code = main([*command, "--out", str(tmp_path / "run"), "--config", str(config),
                 "--data", str(train), "--val-data", str(val)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"motionscope {command[0]}: training diverged at step 7: a value overflowed or "
        f"turned non-finite\n")
    assert not (tmp_path / "run").exists()


def test_run_config_names_the_data_directories_of_the_flags(tmp_path):
    train, val = tmp_path / "train", tmp_path / "val"
    assert main(["gen", "--seeds", "0..1", "--out", str(train)]) == 0
    assert main(["gen", "--seeds", "10", "--out", str(val)]) == 0
    config = tmp_path / "config.json"
    TrainConfig(steps=1, eval_every=1).to_json(config)
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "run"),
                 "--data", str(train), "--val-data", str(val)]) == 0
    written = TrainConfig.from_json(tmp_path / "run" / "config.json")
    assert (written.train_dir, written.val_dir) == (str(train), str(val))


@pytest.mark.parametrize("args, value", [
    (["gen", "--seeds", "5..3"], "'5..3'"),
    (["gen", "--seeds", "x"], "'x'"),
    (["ablate", "--axis", "nh", "--seeds", "0"], "'0'"),
    (["ablate", "--axis", "nh", "--steps", "0"], "'0'"),
], ids=["empty-seed-range", "seed-not-an-integer", "zero-run-seeds", "zero-steps"])
def test_bad_integer_argument_is_a_usage_error(tmp_path, capsys, args, value):
    with pytest.raises(SystemExit) as exc:
        main([*args, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert value in capsys.readouterr().err


def test_unknown_ablation_axis_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ablate", "--axis", "hungarian"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "'hungarian'" in err and "'components', 'input-query', 'nh', 'nn'" in err
