import csv
import json
import warnings

import numpy as np
import pytest

import otface.cli
import otface.config
import otface.trainer
from otface.backbone import BackboneConfig, embed, init_params
from otface.cli import main
from otface.data import DatasetManifest, load_checkpoint, load_dataset, save_checkpoint
from otface.evaluation import kfold_accuracy, make_pairs, pair_scores


def run_cli(*argv):
    return main(list(argv))


def gen_dataset(tmp_path, classes=2, per_class=6, hardness=0.5, holdout=3):
    out = tmp_path / "data"
    assert run_cli(
        "gen-data", "--out", str(out), "--classes", str(classes),
        "--per-class", str(per_class), "--hardness", str(hardness),
        "--seed", "4", "--size", "8", "--holdout", str(holdout),
    ) == 0
    return out


TINY_TRAIN_ARGS = [
    "--set", "backbone.input_size=8",
    "--set", "backbone.stage_channels=[4,6]",
    "--set", "backbone.embedding_dim=5",
    "--set", "backbone.tap_stage=1",
    "--set", "trainer.batch_size=4",
    "--set", "trainer.sampler_p=2",
    "--set", "trainer.sampler_k=2",
    "--set", "trainer.lr=0.05",
    "--set", "sinkhorn.epsilon=0.1",
    "--set", "sinkhorn.unroll_iters=10",
]


def train_run(tmp_path, data_dir, name, epochs=1, extra=()):
    out = tmp_path / name
    args = ["train", "--out", str(out),
            "--set", f"data.manifest={data_dir}",
            "--set", f"trainer.epochs={epochs}",
            "--set", "trainer.lr_milestones=[]"] + TINY_TRAIN_ARGS + list(extra)
    assert run_cli(*args) == 0
    return out


def test_train_writes_metrics_checkpoint_and_config(tmp_path):
    data = gen_dataset(tmp_path)
    out = train_run(tmp_path, data, "run", epochs=2)
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == "epoch,margin_loss,ot_loss,total,hard_groups,lr"
    assert len(lines) == 3  # header + one row per epoch
    assert (out / "checkpoint.npz").exists()
    cfg = json.loads((out / "config.json").read_text())
    assert cfg["trainer"]["epochs"] == 2


def test_metrics_rows_reconstruct_exact_floats(tmp_path):
    data = gen_dataset(tmp_path)
    out = train_run(tmp_path, data, "run")
    header, row = (out / "metrics.csv").read_text().splitlines()
    fields = row.split(",")
    total = float(fields[3])
    assert total == float(fields[1]) + float(fields[2])


def test_same_seed_runs_are_byte_identical(tmp_path):
    data = gen_dataset(tmp_path)
    out1 = train_run(tmp_path, data, "r1", epochs=2,
                     extra=["--set", "trainer.seed=5"])
    out2 = train_run(tmp_path, data, "r2", epochs=2,
                     extra=["--set", "trainer.seed=5"])
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()


def test_eval_reports_accuracy_in_unit_range(tmp_path, capsys):
    data = gen_dataset(tmp_path, classes=3, per_class=6, holdout=4)
    out = train_run(tmp_path, data, "run")
    report_dir = tmp_path / "report"
    assert run_cli(
        "eval", "--checkpoint", str(out / "checkpoint.npz"),
        "--manifest", str(data), "--out", str(report_dir),
        "--set", "backbone.input_size=8",
        "--set", "backbone.stage_channels=[4,6]",
        "--set", "backbone.embedding_dim=5",
        "--set", "backbone.tap_stage=1",
        "--set", "eval.folds=3", "--set", "eval.pairs_per_fold=4",
    ) == 0
    doc = json.loads((report_dir / "report.json").read_text())
    assert 0.0 <= doc["mean_accuracy"] <= 1.0
    assert len(doc["fold_accuracies"]) == 3
    roc = (report_dir / "roc.csv").read_text().splitlines()
    assert roc[0] == "far,tar"
    fars = [float(line.split(",")[0]) for line in roc[1:]]
    assert fars == sorted(fars)


def test_eval_rejects_foreign_checkpoint(tmp_path, capsys):
    data = gen_dataset(tmp_path)
    foreign = tmp_path / "foreign.npz"
    np.savez(foreign, weights=np.ones(3))
    assert run_cli("eval", "--checkpoint", str(foreign), "--manifest", str(data),
                   "--out", str(tmp_path / "report")) == 2
    assert "foreign.npz" in capsys.readouterr().err


TINY_EVAL_ARGS = [
    "--set", "backbone.input_size=8",
    "--set", "backbone.stage_channels=[4,6]",
    "--set", "backbone.embedding_dim=5",
    "--set", "backbone.tap_stage=1",
    "--set", "eval.folds=3", "--set", "eval.pairs_per_fold=4",
]


def tiny_checkpoint(tmp_path, stage_channels=(4, 6)):
    """A checkpoint with the parameters `TINY_EVAL_ARGS` describe."""
    bb = BackboneConfig(input_size=8, stage_channels=stage_channels,
                        embedding_dim=5, tap_stage=1)
    params = init_params(bb, np.random.default_rng(3))
    path = tmp_path / "tiny.npz"
    save_checkpoint(path, params)
    return path, params, bb


@pytest.mark.parametrize("content", [None, b"", b"not a checkpoint\n"],
                         ids=["missing", "empty", "text"])
def test_eval_rejects_unreadable_checkpoint_naming_the_path(tmp_path, capsys, content):
    data = gen_dataset(tmp_path)
    path = tmp_path / "unreadable.npz"
    if content is not None:
        path.write_bytes(content)
    assert run_cli("eval", "--checkpoint", str(path), "--manifest", str(data),
                   "--out", str(tmp_path / "report"), *TINY_EVAL_ARGS) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


def test_eval_rejects_checkpoint_with_non_finite_parameter(tmp_path, capsys):
    data = gen_dataset(tmp_path)
    bb = BackboneConfig(input_size=8, stage_channels=(4, 6), embedding_dim=5,
                        tap_stage=1)
    params = init_params(bb, np.random.default_rng(3))
    params["proj.bias"].data[0] = np.nan
    path = tmp_path / "nan.npz"
    save_checkpoint(path, params)
    assert run_cli("eval", "--checkpoint", str(path), "--manifest", str(data),
                   "--out", str(tmp_path / "report"), *TINY_EVAL_ARGS) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and "proj.bias" in err
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("stages, override, key, detail", [
    ((4, 6), ["--set", "backbone.stage_channels=[4,6,6]"], "stage2.weight",
     "checkpoint missing"),
    ((4, 6), ["--set", "backbone.embedding_dim=7"], "proj.weight",
     "checkpoint (6, 5), config (6, 7)"),
    ((4, 6, 6), [], "stage2.bias", "checkpoint (6,), config unexpected"),
], ids=["missing_stage", "wrong_shape", "unexpected_stage"])
def test_eval_rejects_checkpoint_that_does_not_match_the_backbone(
        tmp_path, capsys, stages, override, key, detail):
    data = gen_dataset(tmp_path)
    path, _, _ = tiny_checkpoint(tmp_path, stages)
    assert run_cli("eval", "--checkpoint", str(path), "--manifest", str(data),
                   "--out", str(tmp_path / "report"), *TINY_EVAL_ARGS,
                   *override) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert key in err and detail in err
    assert not (tmp_path / "report").exists()


def test_eval_with_matching_checkpoint_reports_its_embeddings(tmp_path):
    data = gen_dataset(tmp_path, classes=3, per_class=6, holdout=4)
    path, params, bb = tiny_checkpoint(tmp_path)
    assert run_cli("eval", "--checkpoint", str(path), "--manifest", str(data),
                   "--out", str(tmp_path / "report"), *TINY_EVAL_ARGS) == 0
    doc = json.loads((tmp_path / "report" / "report.json").read_text())
    images, labels = load_dataset(DatasetManifest.load(data), split="test")
    pairs = make_pairs(labels, 4, 3, otface.config.DEFAULTS["eval"]["pair_seed"])
    report = kfold_accuracy(pairs, pair_scores(embed(images, params, bb), pairs), k=3)
    assert doc["fold_accuracies"] == report.fold_accuracies
    assert doc["thresholds"] == report.thresholds
    assert doc["mean_accuracy"] == report.mean_accuracy


BAD_EVAL_SETS = [
    (["trainer.epochs=7"], "trainer.epochs"),
    (["mining.enabled=false"], "mining.enabled"),
    (["eval.folds=1"], "eval.folds"),
    (["eval.pairs_per_fold=-1"], "eval.pairs_per_fold"),
    (["eval.pairs_per_fold=0"], "eval.pairs_per_fold"),
    (["eval.pair_seed=-1"], "eval.pair_seed"),
    (["eval.far_targets=[2.0,-0.1]"], "eval.far_targets"),
    (["eval.far_targets=[0.1,0]"], "eval.far_targets"),
]


@pytest.mark.parametrize("sets,key", BAD_EVAL_SETS,
                         ids=[sets[0] for sets, _ in BAD_EVAL_SETS])
def test_eval_rejects_bad_or_unread_keys_naming_the_key(tmp_path, capsys, sets, key):
    data = gen_dataset(tmp_path, classes=3, per_class=6, holdout=4)
    path, _, _ = tiny_checkpoint(tmp_path)
    assert run_cli("eval", "--checkpoint", str(path), "--manifest", str(data),
                   "--out", str(tmp_path / "report"), *TINY_EVAL_ARGS,
                   *[arg for item in sets for arg in ("--set", item)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not (tmp_path / "report").exists()


def test_eval_accepts_the_config_file_that_train_writes(tmp_path):
    # config.json holds every section, not only those eval reads
    data = gen_dataset(tmp_path, classes=3, per_class=6, holdout=4)
    out = train_run(tmp_path, data, "run")
    assert run_cli("eval", "--checkpoint", str(out / "checkpoint.npz"),
                   "--config", str(out / "config.json"), "--out",
                   str(tmp_path / "report"), "--set", "eval.folds=3",
                   "--set", "eval.pairs_per_fold=4") == 0
    doc = json.loads((tmp_path / "report" / "report.json").read_text())
    assert len(doc["fold_accuracies"]) == 3


RUN_16_BACKBONE = ["--set", "backbone.input_size=16", "--set", "backbone.stage_channels=[4,6]",
                   "--set", "backbone.embedding_dim=5", "--set", "backbone.tap_stage=1"]
EVAL_FOLDS = ["--set", "eval.folds=3", "--set", "eval.pairs_per_fold=4"]


def run_16(tmp_path):
    """A trained 16x16 run directory and its dataset."""
    data = tmp_path / "data16"
    assert run_cli("gen-data", "--out", str(data), "--classes", "3", "--per-class", "6",
                   "--seed", "4", "--size", "16", "--holdout", "4") == 0
    out = tmp_path / "run16"
    assert run_cli("train", "--out", str(out), "--set", f"data.manifest={data}",
                   "--set", "trainer.epochs=1", "--set", "trainer.lr_milestones=[]",
                   *TINY_TRAIN_ARGS, *RUN_16_BACKBONE) == 0
    return out, data


def test_eval_reads_the_backbone_of_the_run_beside_the_checkpoint(tmp_path, capsys):
    out, data = run_16(tmp_path)
    reports = []
    for name, extra in (("beside", []), ("explicit", RUN_16_BACKBONE)):
        assert run_cli("eval", "--checkpoint", str(out / "checkpoint.npz"),
                       "--manifest", str(data), "--out", str(tmp_path / name),
                       *EVAL_FOLDS, *extra) == 0
        reports.append((tmp_path / name / "report.json").read_text())
    assert reports[0] == reports[1]
    # --set still overrides the run's backbone, and a mismatch is still rejected
    assert run_cli("eval", "--checkpoint", str(out / "checkpoint.npz"),
                   "--manifest", str(data), "--out", str(tmp_path / "bad"),
                   *EVAL_FOLDS, "--set", "backbone.embedding_dim=7") == 2
    assert "proj.weight" in capsys.readouterr().err


def test_eval_without_a_run_config_uses_the_defaults(tmp_path, capsys):
    out, data = run_16(tmp_path)
    alone = tmp_path / "alone"
    alone.mkdir()
    (alone / "checkpoint.npz").write_bytes((out / "checkpoint.npz").read_bytes())
    args = ["eval", "--checkpoint", str(alone / "checkpoint.npz"), "--manifest", str(data),
            "--out", str(tmp_path / "report"), *EVAL_FOLDS]
    assert run_cli(*args) == 2
    assert "does not match the backbone config" in capsys.readouterr().err
    assert run_cli(*args, *RUN_16_BACKBONE) == 0


def test_eval_rejects_a_malformed_run_config_naming_it(tmp_path, capsys):
    out, data = run_16(tmp_path)
    (out / "config.json").write_text('{"backbone": ')
    assert run_cli("eval", "--checkpoint", str(out / "checkpoint.npz"),
                   "--manifest", str(data), "--out", str(tmp_path / "report"),
                   *EVAL_FOLDS, *RUN_16_BACKBONE) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out / "config.json") in err


def test_ot_solve_two_atom_case(tmp_path, capsys):
    cost = tmp_path / "cost.csv"
    cost.write_text("0,1\n1,0\n")
    assert run_cli("ot", "solve", "--cost", str(cost),
                   "--epsilon", "0.01") == 0
    out = capsys.readouterr().out
    lines = dict(line.split(": ") for line in out.strip().splitlines())
    assert float(lines["value"]) < 1e-3
    assert lines["converged"] == "True"
    assert float(lines["marginal_violation"]) <= 1e-6


def test_ot_solve_converges_where_the_kernel_underflows(tmp_path, capsys):
    cost = tmp_path / "cost.csv"
    np.savetxt(cost, np.random.default_rng(5).uniform(0.0, 2.0, size=(4, 4)),
               delimiter=",")
    assert run_cli("ot", "solve", "--cost", str(cost), "--epsilon", "1e-4") == 0
    out = capsys.readouterr().out
    lines = dict(line.split(": ") for line in out.strip().splitlines())
    assert lines["converged"] == "True"
    assert float(lines["marginal_violation"]) <= 1e-6


@pytest.mark.parametrize("epsilon", ["nan", "inf"])
def test_ot_solve_rejects_non_finite_epsilon(tmp_path, capsys, epsilon):
    cost = tmp_path / "cost.csv"
    cost.write_text("0,1\n1,0\n")
    assert run_cli("ot", "solve", "--cost", str(cost), "--epsilon", epsilon) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: epsilon must be positive and finite")
    assert captured.out == ""


def test_non_finite_pixel_is_rejected_naming_the_file(tmp_path, capsys):
    data = gen_dataset(tmp_path, holdout=0)  # eval then reads every sample
    bad = DatasetManifest.load(data).samples[3].file
    pixels = np.frombuffer((data / bad).read_bytes(), dtype="<f4").copy()
    pixels[5] = np.nan
    (data / bad).write_bytes(pixels.tobytes())
    path, _, _ = tiny_checkpoint(tmp_path)
    for argv in (("train", "--out", str(tmp_path / "run"), "--set", f"data.manifest={data}",
                  *TINY_TRAIN_ARGS),
                 ("eval", "--checkpoint", str(path), "--manifest", str(data),
                  "--out", str(tmp_path / "report"), *TINY_EVAL_ARGS)):
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == f"error: image {bad} has a NaN or infinite pixel\n"
    assert not (tmp_path / "run" / "metrics.csv").exists()
    assert not (tmp_path / "report").exists()


def _hard_groups(run_dir):
    with open(run_dir / "metrics.csv") as f:
        return [int(row["hard_groups"]) for row in csv.DictReader(f)]


@pytest.mark.parametrize("source", ["file", "set"])
@pytest.mark.parametrize("key, value, attr", [("enabled", False, "mining_enabled"),
                                              ("cap_per_anchor", 1, "cap_per_anchor")])
def test_mining_keys_reach_the_trainer_and_change_hard_groups(
        tmp_path, monkeypatch, key, value, attr, source):
    built = []
    build = otface.cli._build_trainer
    monkeypatch.setattr(otface.cli, "_build_trainer",
                        lambda *args: built.append(build(*args)) or built[-1])
    data = gen_dataset(tmp_path, per_class=10)
    default = train_run(tmp_path, data, "default", epochs=2)
    if source == "file":
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mining": {key: value}}))
        extra = ["--config", str(path)]
    else:
        extra = ["--set", f"mining.{key}={json.dumps(value)}"]
    changed = train_run(tmp_path, data, "changed", epochs=2, extra=extra)
    assert (built[0].mining_enabled, built[0].cap_per_anchor) == (True, None)
    assert getattr(built[1], attr) == value
    before, after = _hard_groups(default), _hard_groups(changed)
    assert sum(after) < sum(before)
    if key == "enabled":
        assert after == [0, 0]


def test_mine_subcommand_prints_groups(tmp_path, capsys):
    emb = tmp_path / "emb.csv"
    labels = tmp_path / "labels.csv"
    np.savetxt(emb, np.array([
        [1.0, 0.0], [0.0, 1.0], [0.9, 0.1], [-1.0, -1.0],
    ]), delimiter=",")
    np.savetxt(labels, np.array([0, 0, 1, 1]), fmt="%d", delimiter=",")
    assert run_cli("mine", "--embeddings", str(emb), "--labels", str(labels)) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "anchor,positive,negative"
    assert "0,1,2" in out[1:]


def test_mine_rejects_embedding_row_with_nan(tmp_path, capsys):
    emb = tmp_path / "emb.csv"
    labels = tmp_path / "labels.csv"
    emb.write_text("1,0\n0,1\nnan,0.1\n-1,-1\n")
    labels.write_text("0\n0\n1\n1\n")
    assert run_cli("mine", "--embeddings", str(emb), "--labels", str(labels)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "embedding 2" in err


@pytest.mark.parametrize("case", ["fractional_label", "bad_cost_cell", "missing_embeddings",
                                  "empty_embeddings", "empty_cost"])
def test_unreadable_csv_exits_2_naming_the_file(tmp_path, capsys, case):
    emb, labels, cost = tmp_path / "emb.csv", tmp_path / "labels.csv", tmp_path / "cost.csv"
    emb.write_text("1,0\n0,1\n0.9,0.1\n")
    labels.write_text("0,0,1\n")
    cost.write_text("0,1\n1,0\n")
    if case == "fractional_label":
        labels.write_text("0,0.5,1\n")
        bad, argv = labels, ("mine", "--embeddings", str(emb), "--labels", str(labels))
    elif case == "bad_cost_cell":
        cost.write_text("0,x\n1,0\n")
        bad, argv = cost, ("ot", "solve", "--cost", str(cost), "--epsilon", "0.1")
    elif case == "missing_embeddings":
        emb.unlink()
        bad, argv = emb, ("mine", "--embeddings", str(emb), "--labels", str(labels))
    elif case == "empty_embeddings":
        emb.write_text("")
        bad, argv = emb, ("mine", "--embeddings", str(emb), "--labels", str(labels))
    else:
        cost.write_text("")
        bad, argv = cost, ("ot", "solve", "--cost", str(cost), "--epsilon", "0.1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an empty file must not warn either
        assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err
    assert "Traceback" not in err
    if case.startswith("empty"):
        assert err == f"error: cannot read {bad}: no data\n"


def test_unknown_config_key_exits_nonzero(tmp_path, capsys):
    data = gen_dataset(tmp_path)
    code = run_cli("train", "--out", str(tmp_path / "x"),
                   "--set", f"data.manifest={data}",
                   "--set", "trainer.epohcs=1")
    assert code == 2
    assert "trainer.epohcs" in capsys.readouterr().err


BAD_VALUES = [
    ({"mining": {"enabled": "no"}}, [], "mining.enabled"),
    ({"sinkhorn": {"include_entropy": False}}, [], "sinkhorn.include_entropy"),  # unknown key
    ({"trainer": {"epochs": "3"}}, [], "trainer.epochs"),
    ({"backbone": {"stage_channels": 16}}, [], "backbone.stage_channels"),
    ({}, ["trainer.epochs=abc"], "trainer.epochs"),
    ({}, ["trainer.lr_milestones=[1"], "trainer.lr_milestones"),
    ({}, ["trainer.checkpoint_every=-1"], "trainer.checkpoint_every"),
    ({}, ["trainer.batch_size=64"], "batch_size"),
    ({}, ["trainer.seed=-1"], "seed"),
    ({}, ["mining.enabled=false", "loss.hinge_margin=-1"], "loss.hinge_margin"),
    ({}, ["mining.enabled=false", "mining.cap_per_anchor=0"], "mining.cap_per_anchor"),
    ({}, ["loss.lambda_ot=-5"], "loss.lambda_ot"),
    ({"loss": {"lambda_ot": float("nan")}}, [], "loss.lambda_ot"),
    ({}, ["sinkhorn.epsilon=Infinity"], "sinkhorn.epsilon"),
    ({}, ["backbone.kernel_size=-1"], "kernel_size"),
    ({}, ["backbone.in_channels=0"], "in_channels"),
    ({}, ["backbone.embedding_dim=0"], "embedding_dim"),
    ({}, ["backbone.stage_channels=[4,0]"], "stage_channels"),
    # training never reads `eval`
    ({}, ["eval.folds=1"], "eval.folds"),
    ({}, ["eval.far_targets=[5.0]"], "eval.far_targets"),
]


@pytest.mark.parametrize("doc,sets,key", BAD_VALUES, ids=[
    ("file-" if doc else "set-") + key for doc, _, key in BAD_VALUES])
def test_train_rejects_bad_config_values_naming_the_key(tmp_path, capsys, doc, sets, key):
    data = gen_dataset(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    code = run_cli("train", "--out", str(tmp_path / "run"), "--config", str(path),
                   "--set", f"data.manifest={data}", "--set", "trainer.epochs=1",
                   "--set", "trainer.lr_milestones=[]", *TINY_TRAIN_ARGS,
                   *[arg for item in sets for arg in ("--set", item)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not (tmp_path / "run" / "metrics.csv").exists()


def test_train_takes_a_config_file_with_an_eval_section(tmp_path):
    # a `--set eval.*` key is rejected (BAD_VALUES), a config file is taken whole
    data = gen_dataset(tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"eval": {"folds": 3}}))
    out = train_run(tmp_path, data, "run", extra=["--config", str(path)])
    assert json.loads((out / "config.json").read_text())["eval"]["folds"] == 3


def test_train_without_manifest_exits_nonzero(tmp_path, capsys):
    assert run_cli("train", "--out", str(tmp_path / "x")) == 2
    assert "data.manifest" in capsys.readouterr().err


def test_data_manifest_picks_the_dataset_trained_on(tmp_path, capsys):
    # the margin head has one column per class of the dataset trained on
    data3 = gen_dataset(tmp_path / "three", classes=3)
    data4 = gen_dataset(tmp_path / "four", classes=4)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"data": {"manifest": str(data3)}}))
    base = ["--set", "trainer.epochs=1", "--set", "trainer.lr_milestones=[]", *TINY_TRAIN_ARGS]
    for name, argv, classes in (
            ("file", ["--config", str(path)], 3),
            ("set", ["--config", str(path), "--set", f"data.manifest={data4}"], 4)):
        assert run_cli("train", "--out", str(tmp_path / name), *argv, *base) == 0
        params = load_checkpoint(tmp_path / name / "checkpoint.npz")[0]
        assert params["classifier.weight"].shape == (5, classes)
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_cli("train", "--out", str(tmp_path / "none"),
                   "--set", f"data.manifest={empty}", *base) == 2
    assert capsys.readouterr().err == f"error: no manifest.json under {empty}\n"


def test_negative_env_seed_exits_with_an_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OTFACE_SEED", "-1")
    assert run_cli("train", "--out", str(tmp_path / "run")) == 2
    assert capsys.readouterr().err == "error: OTFACE_SEED must be an integer >= 0, got '-1'\n"


# A plain-iteration budget beyond the int64 range, which a budget array
# could not hold, caps nothing the solver ever reaches.
def test_ot_solve_runs_with_a_budget_beyond_int64(tmp_path, capsys):
    cost = tmp_path / "c.csv"
    cost.write_text("0.0,1.0,0.5\n0.7,0.0,0.2\n0.3,0.9,0.0\n")
    assert run_cli("ot", "solve", "--cost", str(cost), "--epsilon", "0.1",
                   "--max-iters", str(10 ** 21)) == 0
    assert "converged: True" in capsys.readouterr().out


def test_train_runs_with_a_budget_beyond_int64(tmp_path):
    data = gen_dataset(tmp_path)
    out = train_run(tmp_path, data, "run",
                    extra=["--set", f"sinkhorn.unroll_iters={10 ** 21}"])
    header, row = (out / "metrics.csv").read_text().splitlines()
    assert int(row.split(",")[4]) > 0  # hard groups, so the OT term ran


# A budget beyond float range is rejected naming its key: the check compares
# the integer with the largest float instead of converting it.
def test_ot_solve_rejects_a_budget_beyond_float_range(tmp_path, capsys):
    cost = tmp_path / "c.csv"
    cost.write_text("0.0,1.0\n1.0,0.0\n")
    assert run_cli("ot", "solve", "--cost", str(cost), "--epsilon", "0.1",
                   "--max-iters", str(10 ** 400)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: max_iters must be positive and finite")
    assert captured.out == ""


# 5000 digits pass Python's limit on int parsing: json raises ValueError
@pytest.mark.parametrize("source,digits,error", [
    ("set", 401, "error: unroll_iters must be positive and finite"),
    ("set", 5000, "error: --set sinkhorn.unroll_iters: "),
    ("file", 5000, "error: malformed config "),
], ids=["set-401-digits", "set-5000-digits", "file-5000-digits"])
def test_train_rejects_a_budget_beyond_float_range(tmp_path, capsys, source, digits, error):
    data = gen_dataset(tmp_path)
    capsys.readouterr()
    budget = "1" + "0" * (digits - 1)
    if source == "set":
        extra = ["--set", f"sinkhorn.unroll_iters={budget}"]
    else:
        config = tmp_path / "config.json"
        config.write_text(f'{{"sinkhorn": {{"unroll_iters": {budget}}}}}')
        extra = ["--config", str(config)]
    assert run_cli("train", "--out", str(tmp_path / "run"), "--set", f"data.manifest={data}",
                   *TINY_TRAIN_ARGS, *extra) == 2
    assert capsys.readouterr().err.startswith(error)


def test_checkpoint_every_writes_intermediate_checkpoints(tmp_path):
    data = gen_dataset(tmp_path)
    out = train_run(tmp_path, data, "run", epochs=2,
                    extra=["--set", "trainer.checkpoint_every=1"])
    assert (out / "checkpoint_epoch1.npz").exists()
    assert (out / "checkpoint_epoch2.npz").exists()


def test_non_finite_loss_exits_with_error_naming_epoch_and_batch(
        tmp_path, capsys, monkeypatch):
    real_loss = otface.trainer.otface_loss
    calls = []

    def inf_on_second_batch(*args, **kwargs):
        breakdown = real_loss(*args, **kwargs)
        calls.append(None)
        if len(calls) == 2:
            with np.errstate(over="ignore"):  # Tensor() itself rejects inf
                breakdown.margin_loss = breakdown.margin_loss * 1e308 * 1e308
        return breakdown

    monkeypatch.setattr(otface.trainer, "otface_loss", inf_on_second_batch)
    data = gen_dataset(tmp_path, per_class=10)
    code = run_cli("train", "--out", str(tmp_path / "run"),
                   "--set", f"data.manifest={data}",
                   "--set", "trainer.epochs=1",
                   "--set", "trainer.lr_milestones=[]", *TINY_TRAIN_ARGS)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite margin loss (inf) in epoch 0, batch 1")
