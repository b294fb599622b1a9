import json

import numpy as np
import pytest

import otface.config
import otface.trainer
from otface.backbone import BackboneConfig, embed, init_params
from otface.cli import main
from otface.data import DatasetManifest, load_dataset, save_checkpoint
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


def test_unknown_config_key_exits_nonzero(tmp_path, capsys):
    data = gen_dataset(tmp_path)
    code = run_cli("train", "--out", str(tmp_path / "x"),
                   "--set", f"data.manifest={data}",
                   "--set", "trainer.epohcs=1")
    assert code == 2
    assert "trainer.epohcs" in capsys.readouterr().err


def test_train_without_manifest_exits_nonzero(tmp_path, capsys):
    assert run_cli("train", "--out", str(tmp_path / "x")) == 2
    assert "data.manifest" in capsys.readouterr().err


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
