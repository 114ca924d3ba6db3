import ast
import inspect
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from scanpath import cli
from scanpath.cli import RunConfig, load_run_config, main, metric_config
from scanpath.core import GazePoint, GridSpec, Scanpath, gaussian_map
from scanpath.data_io import (load_scanpath_dataset, preprocess, read_checkpoint, read_feature_tensor, read_pgm,
                              save_scanpath_csv, write_checkpoint, write_feature_tensor, write_pgm)
from scanpath.errors import DataError, ParameterError
from scanpath.losses import LossConfig
from scanpath.metrics import METRIC_ORDER, MetricConfig, human_baseline, write_report_csv
from scanpath.model import ModelConfig
from scanpath.training import TrainConfig


def write_cfg(path, **over):
    base = dict(
        grid_width=16, grid_height=16, sigma=1.0, layers=1, hidden_channels=3,
        kernel_size=3, feature_channels=2, feature_source="trainable",
        th=0.7, n_fixations=4, gamma=0.3, lambda_base=0.01, lambda_slope=0.01,
        lr=1e-3, max_steps=4, checkpoint_every=0, seed=1,
        image_width=16, image_height=16,
    )
    base.update(over)
    path.write_text("".join(f"{k}={v}\n" for k, v in base.items()))
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic data, a run config and a briefly trained checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["synth", "--config", str(write_cfg(root / "synth.cfg")), "--out", str(data),
                 "--images", "2", "--observers", "3", "--rois", "1", "--seed", "3"]) == 0
    cfg = write_cfg(root / "run.cfg", dataset_csv=str(data / "dataset.csv"), images_dir=str(data))
    run = root / "train"
    assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
    return dict(root=root, data=data, cfg=cfg, ckpt=run / "checkpoint_final.spck", train_out=run)


def test_synth_outputs_and_reproducibility(tmp_path, workspace):
    cfg = write_cfg(tmp_path / "s.cfg")
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["synth", "--config", str(cfg), "--out", str(out),
                     "--images", "2", "--observers", "2", "--rois", "1", "--seed", "9"]) == 0
    assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()
    assert (a / "synth000.pgm").read_bytes() == (b / "synth000.pgm").read_bytes()
    ds = load_scanpath_dataset(a / "dataset.csv", images_dir=a)
    assert len(ds.scanpaths) == 4
    assert all(s.n == 8 for s in ds.scanpaths)


def test_train_outputs(workspace):
    run = workspace["train_out"]
    assert (run / "loss_log.csv").exists()
    assert (run / "checkpoint_final.spck").exists()
    assert (run / "config.txt").exists()
    manifest = (run / "manifest.txt").read_text()
    assert "command=train" in manifest
    assert "package_version=" in manifest
    lines = (run / "loss_log.csv").read_text().splitlines()
    assert lines[0] == "step,loss"
    assert len(lines) == 5  # 4 steps


def test_config_echo_contains_every_key(workspace):
    echoed = (workspace["train_out"] / "config.txt").read_text()
    for key in ("grid_width", "lambda_slope", "tde_k", "dataset_csv", "teacher_forcing"):
        assert f"{key}=" in echoed


def test_predict_deterministic_and_closes_format_loop(workspace, tmp_path):
    cfg, ckpt = workspace["cfg"], workspace["ckpt"]
    outs = []
    for name in ("p1", "p2"):
        out = tmp_path / name
        assert main(["predict", "--config", str(cfg), "--out", str(out),
                     "--checkpoint", str(ckpt), "--count", "3", "--seed", "11"]) == 0
        outs.append(out / "predicted.csv")
    assert outs[0].read_bytes() == outs[1].read_bytes()

    ds = load_scanpath_dataset(outs[0])
    assert len(ds.scanpaths) == 2 * 3  # images x count, zero row loss
    assert all(s.n == 4 for s in ds.scanpaths)

    ev = tmp_path / "ev"
    truth = workspace["data"] / "dataset.csv"
    assert main(["evaluate", "--config", str(cfg), "--out", str(ev),
                 "--predicted", str(outs[0]), "--truth", str(truth)]) == 0
    lines = (ev / "report.csv").read_text().splitlines()
    assert lines[0] == "metric,mean,std,direction"
    assert [ln.split(",")[0] for ln in lines[1:]] == list(METRIC_ORDER)


def test_evaluate_identity_best_rows(tmp_path, workspace):
    # one scanpath per image: predicted == truth pairs each path with itself
    data = workspace["data"]
    full = load_scanpath_dataset(data / "dataset.csv", images_dir=data)
    from scanpath.data_io import save_scanpath_csv

    singles = {}
    for s in full.scanpaths:
        singles.setdefault(s.image_id, s)
    csv = tmp_path / "single.csv"
    save_scanpath_csv(list(singles.values()), csv)

    out = tmp_path / "ev"
    assert main(["evaluate", "--config", str(workspace["cfg"]), "--out", str(out),
                 "--predicted", str(csv), "--truth", str(csv)]) == 0
    rows = {ln.split(",")[0]: ln.split(",") for ln in (out / "report.csv").read_text().splitlines()[1:]}
    assert float(rows["LEV"][1]) == 0.0
    assert float(rows["SCAM"][1]) == pytest.approx(1.0)
    assert float(rows["HAU"][1]) == 0.0
    assert float(rows["FRE"][1]) == 0.0
    assert float(rows["fDTW"][1]) == 0.0
    assert float(rows["TDE"][1]) == 0.0


def test_evaluate_with_baselines(tmp_path, workspace):
    data, cfg = workspace["data"], workspace["cfg"]
    truth = data / "dataset.csv"
    out = tmp_path / "ev"
    assert main(["evaluate", "--config", str(cfg), "--out", str(out),
                 "--predicted", str(truth), "--truth", str(truth), "--baselines"]) == 0
    assert (out / "human_baseline.csv").exists()
    assert (out / "random_baseline.csv").exists()
    lines = (out / "random_baseline.csv").read_text().splitlines()
    assert len(lines) == 11


def test_evaluate_baselines_write_model_spread_over_images_with_two_predicted_paths(tmp_path, workspace, capsys):
    data, cfg = workspace["data"], workspace["cfg"]
    truth = load_scanpath_dataset(data / "dataset.csv").scanpaths
    # one image keeps all its paths, the other keeps one: only the first takes part in the spread
    lone = truth[-1].image_id
    predicted = [s for s in truth if s.image_id != lone] + [next(s for s in truth if s.image_id == lone)]
    csv = tmp_path / "pred.csv"
    save_scanpath_csv(predicted, csv)
    out = tmp_path / "ev"
    assert main(["evaluate", "--config", str(cfg), "--out", str(out),
                 "--predicted", str(csv), "--truth", str(data / "dataset.csv"), "--baselines"]) == 0
    assert "model_spread" not in capsys.readouterr().err
    predicted = load_scanpath_dataset(csv).scanpaths
    mcfg = metric_config(load_run_config(cfg)).resolved(predicted, truth)
    want = tmp_path / "want.csv"
    write_report_csv(human_baseline([s for s in predicted if s.image_id != lone], mcfg), want)
    assert (out / "model_spread.csv").read_bytes() == want.read_bytes()


def test_evaluate_baselines_without_two_predicted_paths_on_an_image_write_no_model_spread(
        tmp_path, workspace, capsys):
    data, cfg = workspace["data"], workspace["cfg"]
    singles = {}
    for s in load_scanpath_dataset(data / "dataset.csv").scanpaths:
        singles.setdefault(s.image_id, s)
    csv = tmp_path / "single.csv"
    save_scanpath_csv(list(singles.values()), csv)
    out = tmp_path / "ev"
    assert main(["evaluate", "--config", str(cfg), "--out", str(out),
                 "--predicted", str(csv), "--truth", str(data / "dataset.csv"), "--baselines"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "model_spread.csv not written" in err[0]
    assert not (out / "model_spread.csv").exists()
    assert (out / "human_baseline.csv").exists() and (out / "random_baseline.csv").exists()


def test_run_config_defaults_match_the_configs_they_feed():
    # RunConfig takes these defaults from the config classes
    run = {f.name: f.default for f in fields(RunConfig)}
    checked = set()
    for cls in (ModelConfig, LossConfig, TrainConfig, MetricConfig):
        for f in fields(cls):
            if f.name in run:
                assert run[f.name] == f.default, f"{cls.__name__}.{f.name}"
                checked.add(f.name)
    assert run["min_scanpath_len"] == inspect.signature(preprocess).parameters["min_len"].default
    # the keys no config class holds: the grid (ModelConfig.grid has no default), the filter and the paths
    assert set(run) - checked == {"grid_width", "grid_height", "min_scanpath_len", "dataset_csv", "images_dir",
                                  "features_dir"}


def test_metric_config_zero_infers_and_rejects_other_nonpositive():
    cfg = metric_config(RunConfig())
    assert (cfg.image_width, cfg.image_height, cfg.recurrence_radius) == (0.0, 0.0, 0.0)
    for bad in ({"image_width": -3}, {"image_height": -1}, {"recurrence_radius": -2.0},
                {"recurrence_radius": math.nan}, {"recurrence_radius": math.inf}):
        with pytest.raises(ParameterError):
            metric_config(RunConfig(**bad))


def _non_default(f):
    """A value of f's type other than its default: fractional floats, False, path-like strings."""
    if f.type == "bool":
        return not f.default
    if f.type == "str":
        return f"runs/{f.name} dir/x.csv"
    return f.default + (1 if f.type == "int" else 0.123456789)


# RunConfig's key order before the schema was derived from the config classes
PARENT_KEY_ORDER = (
    "grid_width", "grid_height", "sigma", "layers", "hidden_channels", "kernel_size", "feature_channels",
    "feature_source", "th", "threshold_mode", "n_fixations", "gamma", "lambda_base", "lambda_slope", "lr",
    "max_steps", "checkpoint_every", "seed", "teacher_forcing", "min_scanpath_len", "bin_cols", "bin_rows",
    "recurrence_radius", "min_line", "tde_k", "image_width", "image_height", "dataset_csv", "images_dir",
    "features_dir",
)


def test_config_echo_round_trips_every_non_default_value(tmp_path):
    rc = RunConfig(**{f.name: _non_default(f) for f in fields(RunConfig)})
    assert all(getattr(rc, f.name) != f.default for f in fields(RunConfig))
    assert rc.teacher_forcing is False and rc.lr % 1 != 0 and rc.images_dir.startswith("runs/")
    cli.write_run_config(rc, tmp_path / "config.txt")
    lines = (tmp_path / "config.txt").read_text(encoding="utf-8").splitlines()
    assert [line.split("=", 1)[0] for line in lines] == [f.name for f in fields(RunConfig)]
    assert load_run_config(tmp_path / "config.txt") == rc
    # a config.txt written in the old key order reads to the same values
    by_key = dict(line.split("=", 1) for line in lines)
    assert set(PARENT_KEY_ORDER) == set(by_key)
    (tmp_path / "old.txt").write_text("".join(f"{k}={by_key[k]}\n" for k in PARENT_KEY_ORDER), encoding="utf-8")
    assert load_run_config(tmp_path / "old.txt") == rc


def test_float_image_size_in_a_config_is_read_as_a_float(tmp_path, workspace):
    cfg = write_cfg(tmp_path / "f.cfg", image_width=16.0, image_height=12.5)
    rc = load_run_config(cfg)
    mcfg = metric_config(rc)
    assert (rc.image_width, rc.image_height) == (mcfg.image_width, mcfg.image_height) == (16.0, 12.5)
    truth = str(workspace["data"] / "dataset.csv")
    out = tmp_path / "eval"
    assert main(["evaluate", "--config", str(cfg), "--out", str(out), "--predicted", truth, "--truth", truth]) == 0
    assert "image_width=16.0\nimage_height=12.5\n" in (out / "config.txt").read_text()


def test_readme_config_loads(tmp_path):
    """The walkthrough's config names only keys the schema has, with values it parses."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("cat > run.cfg <<EOF\n", 1)[1].split("\nEOF\n", 1)[0]
    (tmp_path / "run.cfg").write_text(block + "\n", encoding="utf-8")
    rc = load_run_config(tmp_path / "run.cfg")
    assert (rc.seed, rc.lr, rc.image_width, rc.dataset_csv) == (7, 0.001, 32.0, "data/dataset.csv")


def test_train_config_carries_every_train_scalar():
    scalars = {"lr": 0.25, "max_steps": 7, "checkpoint_every": 3, "seed": 5, "teacher_forcing": False}
    assert set(scalars) == {f.name for f in fields(TrainConfig)} - {"model", "loss"}
    rc = RunConfig(**scalars, sigma=1.5, gamma=0.3)
    cfg = cli.train_config(rc)
    assert {name: getattr(cfg, name) for name in scalars} == scalars
    assert cfg.model == cli.model_config(rc) and cfg.loss == cli.loss_config(rc)
    assert cfg.model.sigma == cfg.loss.sigma == 1.5 and cfg.loss.gamma == 0.3


# per unusable checkpoint to resume from: the stderr it must give
BAD_RESUME_ERRORS = {
    "missing": "No such file",
    "mismatched": "hidden_channels: checkpoint 3 != config 4",
    "no_optimizer_state": "no optimizer/rng state",
    "bad_rng_has_uint32": "rng_has_uint32 is 2, not 0 or 1",
}


@pytest.mark.parametrize("case", list(BAD_RESUME_ERRORS))
def test_train_resume_checks_the_checkpoint_before_any_output(tmp_path, workspace, case, capsys):
    cfg, ckpt = workspace["cfg"], str(workspace["ckpt"])
    if case == "missing":
        ckpt = str(tmp_path / "nope.spck")
    elif case == "mismatched":
        cfg = write_cfg(tmp_path / "other.cfg", hidden_channels=4, dataset_csv=str(workspace["data"] / "dataset.csv"),
                        images_dir=str(workspace["data"]))
    elif case == "no_optimizer_state":
        full = read_checkpoint(ckpt)
        ckpt = str(tmp_path / "weights_only.spck")
        write_checkpoint(ckpt, replace(full, tensors={k: v for k, v in full.tensors.items()
                                                      if not k.startswith("adam.")}))
    else:
        full = read_checkpoint(ckpt)
        ckpt = str(tmp_path / "bad_rng.spck")
        write_checkpoint(ckpt, replace(full, hyper={**full.hyper, "rng_has_uint32": "2"}))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--out", str(out), "--resume", ckpt]) == 2
    assert BAD_RESUME_ERRORS[case] in capsys.readouterr().err
    assert not out.exists()


def test_train_with_no_scanpath_left_after_preprocessing_exits_2_before_any_output(tmp_path, workspace, capsys):
    csv = tmp_path / "short.csv"
    image_id = load_scanpath_dataset(workspace["data"] / "dataset.csv").images[0].image_id
    csv.write_text(f"image_id,observer_id,fix_index,x,y\n{image_id},obs,0,1.0,2.0\n{image_id},obs,1,3.0,4.0\n")
    cfg = write_cfg(tmp_path / "short.cfg", min_scanpath_len=4, dataset_csv=str(csv),
                    images_dir=str(workspace["data"]))
    out = tmp_path / "out"
    capsys.readouterr()
    with pytest.warns(UserWarning, match="has no scanpath of length >= 4"):
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    assert "training needs at least one prepared image" in capsys.readouterr().err
    assert not out.exists()


def test_train_resume_continues_from_the_checkpoint(tmp_path, workspace):
    cfg = write_cfg(tmp_path / "more.cfg", max_steps=6, dataset_csv=str(workspace["data"] / "dataset.csv"),
                    images_dir=str(workspace["data"]))
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--out", str(out), "--resume", str(workspace["ckpt"])]) == 0
    rows = (out / "loss_log.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows] == ["step", "5", "6"]


def test_bad_train_scalar_is_a_usage_error_before_any_output(tmp_path, workspace, capsys):
    cfg = write_cfg(tmp_path / "lr.cfg", lr=0.0, dataset_csv=str(workspace["data"] / "dataset.csv"),
                    images_dir=str(workspace["data"]))
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    assert "learning rate must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_exit_codes_for_bad_config_and_truth(tmp_path, workspace):
    truth = workspace["data"] / "dataset.csv"
    args = ["--predicted", str(truth), "--truth", str(truth)]
    negative = write_cfg(tmp_path / "neg.cfg", image_width=-3)
    assert main(["evaluate", "--config", str(negative), "--out", str(tmp_path / "a"), *args]) == 1
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(truth.read_bytes().replace(b"obs00", b"obs\xe900"))
    assert main(["evaluate", "--config", str(workspace["cfg"]), "--out", str(tmp_path / "b"),
                 "--predicted", str(truth), "--truth", str(latin1)]) == 2


# per bad evaluate input: the stderr it must give
BAD_EVALUATE_ERRORS = {
    "missing_predicted": "No such file or directory",
    "empty_predicted": "no scanpaths",
    "empty_truth": "no scanpaths",
    "image_without_truth": "no ground truth for image 'elsewhere'",
    "subpixel_truth_with_baselines": "grid must contain at least 4 pixels",
}


@pytest.mark.parametrize("case", list(BAD_EVALUATE_ERRORS))
def test_bad_evaluate_input_exits_2_before_any_output(tmp_path, workspace, case, capsys):
    truth = load_scanpath_dataset(workspace["data"] / "dataset.csv").scanpaths
    predicted, cfg, extra = tmp_path / "pred.csv", workspace["cfg"], []
    if case == "image_without_truth":
        truth = truth + [replace(truth[0], image_id="elsewhere")]
    elif case == "subpixel_truth_with_baselines":  # the inferred image size is 1 x 1
        truth = [replace(s, points=tuple(replace(p, x=p.x / 32, y=p.y / 32) for p in s.points)) for s in truth]
        cfg, extra = write_cfg(tmp_path / "infer.cfg", image_width=0, image_height=0), ["--baselines"]
    save_scanpath_csv([] if case == "empty_predicted" else truth, predicted)
    save_scanpath_csv([] if case == "empty_truth" else [s for s in truth if s.image_id != "elsewhere"],
                      tmp_path / "truth.csv")
    if case == "missing_predicted":
        predicted = tmp_path / "missing.csv"
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg), "--out", str(out), "--predicted", str(predicted),
                 "--truth", str(tmp_path / "truth.csv"), *extra]) == 2
    assert BAD_EVALUATE_ERRORS[case] in capsys.readouterr().err
    assert not out.exists()


def test_complete_contract_and_errors(tmp_path, workspace):
    cfg, ckpt, data = workspace["cfg"], workspace["ckpt"], workspace["data"]
    out = tmp_path / "comp"
    assert main(["complete", "--config", str(cfg), "--out", str(out),
                 "--checkpoint", str(ckpt), "--prefix-len", "2", "--repeats", "2", "--seed", "4"]) == 0
    out2 = tmp_path / "comp2"
    assert main(["complete", "--config", str(cfg), "--out", str(out2),
                 "--checkpoint", str(ckpt), "--prefix-len", "2", "--repeats", "2", "--seed", "4"]) == 0
    assert (out / "completions.csv").read_bytes() == (out2 / "completions.csv").read_bytes()
    ds = load_scanpath_dataset(out / "completions.csv")
    assert len(ds.scanpaths) == 6 * 2  # every ground-truth path, twice
    assert all(s.n == 4 for s in ds.scanpaths)
    truth = load_scanpath_dataset(data / "dataset.csv", images_dir=data)
    by_obs = {(s.image_id, s.observer_id.split("_c")[0]): s for s in truth.scanpaths}
    for s in ds.scanpaths:
        src = by_obs[(s.image_id, s.observer_id.split("_c")[0])]
        got = s.coords()[:2]
        want = src.coords()[:2]
        assert np.allclose(got, want, atol=1e-6)

    # prefix length N is a usage error
    assert main(["complete", "--config", str(cfg), "--out", str(tmp_path / "x"),
                 "--checkpoint", str(ckpt), "--prefix-len", "4"]) == 1


def test_complete_writes_the_given_prefix_verbatim(tmp_path, workspace):
    # 48 x 40 native images on the 16 x 16 grid: the given points must not pass through the grid and back
    data = tmp_path / "data"
    data.mkdir()
    rng = np.random.default_rng(5)
    paths = []
    for image_id in ("synth000", "synth001"):
        write_pgm(data / f"{image_id}.pgm", rng.integers(0, 256, (40, 48), dtype=np.uint8))
        for o in range(3):
            xy = rng.uniform(0.0, [48.0, 40.0], (6, 2))
            paths.append(Scanpath(tuple(GazePoint(float(x), float(y), i) for i, (x, y) in enumerate(xy)),
                                  image_id, f"obs{o}"))
    save_scanpath_csv(paths, data / "dataset.csv")
    cfg = write_cfg(tmp_path / "c.cfg", dataset_csv=str(data / "dataset.csv"), images_dir=str(data),
                    image_width=48, image_height=40)
    out = tmp_path / "comp"
    assert main(["complete", "--config", str(cfg), "--out", str(out), "--checkpoint", str(workspace["ckpt"]),
                 "--prefix-len", "3", "--repeats", "2", "--seed", "4"]) == 0
    truth = {(s.image_id, s.observer_id): s for s in load_scanpath_dataset(data / "dataset.csv").scanpaths}
    done = load_scanpath_dataset(out / "completions.csv").scanpaths
    assert len(done) == 6 * 2
    for s in done:
        assert s.points[:3] == truth[(s.image_id, s.observer_id.rsplit("_c", 1)[0])].points[:3]
        assert [p.index for p in s.points] == [0, 1, 2, 3]
        assert 0.0 <= s.points[3].x <= 47.0 and 0.0 <= s.points[3].y <= 39.0


def test_saliency_single_fixation_matches_gaussian(tmp_path):
    cfg = write_cfg(tmp_path / "s.cfg", images_dir=str(tmp_path))
    write_pgm(tmp_path / "imgX.pgm", np.zeros((16, 16), dtype=np.uint8))
    csv = tmp_path / "one.csv"
    csv.write_text("image_id,observer_id,fix_index,x,y\nimgX,o,0,5.0,7.0\n")
    out = tmp_path / "sal"
    assert main(["saliency", "--config", str(cfg), "--out", str(out), "--scanpaths", str(csv)]) == 0
    img = read_pgm(out / "imgX.pgm")
    g = gaussian_map(GazePoint(5.0, 7.0), GridSpec(16, 16), 1.0).values
    expected = np.round(g / g.max() * 255.0).astype(np.uint8)
    assert np.array_equal(img, expected)
    assert img[7, 5] == 255


def test_saliency_two_fixations_two_equal_peaks(tmp_path):
    cfg = write_cfg(tmp_path / "s.cfg", images_dir=str(tmp_path))
    write_pgm(tmp_path / "imgY.pgm", np.zeros((16, 16), dtype=np.uint8))
    csv = tmp_path / "two.csv"
    csv.write_text(
        "image_id,observer_id,fix_index,x,y\nimgY,o,0,3.0,3.0\nimgY,o,1,12.0,12.0\n"
    )
    out = tmp_path / "sal"
    assert main(["saliency", "--config", str(cfg), "--out", str(out), "--scanpaths", str(csv)]) == 0
    img = read_pgm(out / "imgY.pgm")
    assert img[3, 3] == 255
    assert img[12, 12] == 255


def test_exit_codes(tmp_path, workspace, capsys):
    cfg = workspace["cfg"]
    # usage: missing required flag
    assert main(["predict", "--config", str(cfg)]) == 1
    # data: unknown config key
    bad = tmp_path / "bad.cfg"
    bad.write_text("grid_width=16\nbogus_key=1\n")
    assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    # data: a config that is not UTF-8
    bad.write_bytes(b"grid_width=16\ndataset_csv=\xe9.csv\n")
    assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    # data: nonexistent checkpoint
    assert main(["predict", "--config", str(cfg), "--out", str(tmp_path / "o2"),
                 "--checkpoint", str(tmp_path / "nope.spck"), "--count", "1"]) == 2
    # data: checkpoint/config mismatch
    other = write_cfg(tmp_path / "other.cfg", hidden_channels=5,
                      dataset_csv=str(workspace["data"] / "dataset.csv"),
                      images_dir=str(workspace["data"]))
    assert main(["predict", "--config", str(other), "--out", str(tmp_path / "o3"),
                 "--checkpoint", str(workspace["ckpt"]), "--count", "1"]) == 2
    # data: malformed checkpoint trailer
    ckpt = read_checkpoint(workspace["ckpt"])
    write_checkpoint(tmp_path / "bad.spck", replace(ckpt, hyper={**ckpt.hyper, "step": "x"}))
    capsys.readouterr()
    assert main(["predict", "--config", str(cfg), "--out", str(tmp_path / "o4"),
                 "--checkpoint", str(tmp_path / "bad.spck"), "--count", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["train", "predict", "synth"])
@pytest.mark.parametrize("where", ["flag", "config"])
def test_negative_seed_is_a_usage_error_before_any_output(tmp_path, workspace, command, where):
    cfg = workspace["cfg"]
    if where == "config":
        cfg = tmp_path / "neg.cfg"
        cfg.write_text(workspace["cfg"].read_text().replace("\nseed=1\n", "\nseed=-1\n"))
    out = tmp_path / "out"
    extra = {"train": [], "predict": ["--checkpoint", str(workspace["ckpt"]), "--count", "1"],
             "synth": ["--images", "1", "--observers", "1"]}[command]
    seed = ["--seed", "-1"] if where == "flag" else []
    assert main([command, "--config", str(cfg), "--out", str(out), *seed, *extra]) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [["predict", "--count", "0"], ["predict", "--count", "-3"],
                                  ["complete", "--prefix-len", "2", "--repeats", "0"],
                                  ["complete", "--prefix-len", "2", "--repeats", "-3"]])
def test_counts_below_one_are_usage_errors_before_any_output(tmp_path, workspace, argv, capsys):
    out = tmp_path / "out"
    assert main([argv[0], "--config", str(workspace["cfg"]), "--out", str(out),
                 "--checkpoint", str(workspace["ckpt"]), *argv[1:]]) == 1
    assert "must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--images", "--observers", "--rois"])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_synth_counts_below_one_are_usage_errors_before_any_output(tmp_path, flag, value, capsys):
    out = tmp_path / "out"
    assert main(["synth", "--config", str(write_cfg(tmp_path / "s.cfg")), "--out", str(out), flag, value]) == 1
    assert f"{flag} must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,over,error", [
    ("synth", {"grid_width": 1, "grid_height": 2}, "grid must contain at least 4 pixels"),
    ("saliency", {"grid_width": 1, "grid_height": 2}, "grid must contain at least 4 pixels"),
    ("saliency", {"sigma": 0}, "sigma must be positive and finite"),
])
def test_bad_grid_or_sigma_is_a_usage_error_before_any_output(tmp_path, workspace, command, over, error, capsys):
    cfg = write_cfg(tmp_path / "bad.cfg", dataset_csv=str(workspace["data"] / "dataset.csv"), **over)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert error in capsys.readouterr().err
    assert not out.exists()


def test_repeated_config_key_is_a_data_error_naming_both_lines(tmp_path, capsys):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text("seed=1\nlr=0.1\n# seed=3\nseed=2\nlr=0.2\n")
    with pytest.raises(DataError, match="dup.cfg:4: config key 'seed' already set on line 1"):
        load_run_config(cfg)
    out = tmp_path / "out"
    assert main(["synth", "--config", str(cfg), "--out", str(out), "--images", "1", "--observers", "1"]) == 2
    assert "dup.cfg:4: config key 'seed' already set on line 1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_never_refers_to_gaze_point():
    """The CLI writes only points that came from the model or from data_io's native<->grid mapping."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    assert "GazePoint" not in names


def test_file_system_errors_exit_2(tmp_path, workspace, capsys):
    cfg, ckpt = str(workspace["cfg"]), str(workspace["ckpt"])
    directory = tmp_path / "dir.spck"
    directory.mkdir()
    assert main(["predict", "--config", cfg, "--out", str(tmp_path / "p"),
                 "--checkpoint", str(directory), "--count", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    taken = tmp_path / "taken"
    taken.write_text("keep me")
    assert main(["predict", "--config", cfg, "--out", str(taken), "--checkpoint", ckpt, "--count", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert taken.read_text() == "keep me"


def test_th_sweep_flag(tmp_path, workspace):
    cfg, ckpt = workspace["cfg"], workspace["ckpt"]
    for th in ("0.7", "0.35"):
        out = tmp_path / f"th{th}"
        assert main(["predict", "--config", str(cfg), "--out", str(out),
                     "--checkpoint", str(ckpt), "--count", "2", "--seed", "5", "--th", th]) == 0
        echoed = (out / "config.txt").read_text()
        assert f"th={float(th)}" in echoed


def write_features(directory, shape):
    directory.mkdir()
    rng = np.random.default_rng(0)
    for image_id in ("synth000", "synth001"):
        write_feature_tensor(directory / f"{image_id}.ftns", rng.standard_normal(shape))
    return str(directory)


def precomputed_cfg(path, workspace, features_dir):
    return str(write_cfg(path, dataset_csv=str(workspace["data"] / "dataset.csv"),
                         feature_source="precomputed", features_dir=features_dir))


def test_precomputed_features_train_predict_complete(tmp_path, workspace):
    cfg = precomputed_cfg(tmp_path / "pc.cfg", workspace, write_features(tmp_path / "f", (2, 16, 16)))
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "t")]) == 0
    ckpt = str(tmp_path / "t" / "checkpoint_final.spck")
    assert main(["predict", "--config", cfg, "--out", str(tmp_path / "p"), "--checkpoint", ckpt,
                 "--count", "2"]) == 0
    assert len(load_scanpath_dataset(tmp_path / "p" / "predicted.csv").scanpaths) == 2 * 2
    assert main(["complete", "--config", cfg, "--out", str(tmp_path / "c"), "--checkpoint", ckpt,
                 "--prefix-len", "2", "--repeats", "1"]) == 0
    assert len(load_scanpath_dataset(tmp_path / "c" / "completions.csv").scanpaths) == 2 * 3

    (tmp_path / "empty").mkdir()
    bad = {"no_dir": "", "no_file": str(tmp_path / "empty"),
           "shape": write_features(tmp_path / "w", (3, 16, 16))}
    for name, features_dir in bad.items():
        bad_cfg = precomputed_cfg(tmp_path / f"{name}.cfg", workspace, features_dir)
        assert main(["predict", "--config", bad_cfg, "--out", str(tmp_path / f"p_{name}"),
                     "--checkpoint", ckpt, "--count", "1"]) == 2, name
        assert main(["complete", "--config", bad_cfg, "--out", str(tmp_path / f"c_{name}"),
                     "--checkpoint", ckpt, "--prefix-len", "2", "--repeats", "1"]) == 2, name


@pytest.mark.parametrize("case", ["no_images_dir", "no_features_dir", "no_feature_file", "feature_shape"])
def test_train_rejects_bad_feature_input_before_any_checkpoint(tmp_path, workspace, case):
    if case == "no_images_dir":
        cfg = str(write_cfg(tmp_path / "t.cfg", dataset_csv=str(workspace["data"] / "dataset.csv")))
    else:
        (tmp_path / "empty").mkdir()
        features_dir = {"no_features_dir": "", "no_feature_file": str(tmp_path / "empty"),
                        "feature_shape": write_features(tmp_path / "w", (2, 8, 8))}[case]
        cfg = precomputed_cfg(tmp_path / "t.cfg", workspace, features_dir)
    out = tmp_path / "out"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 2
    assert not list(out.glob("*.spck"))


@pytest.fixture(scope="module")
def precomputed_ckpt(tmp_path_factory, workspace):
    """A checkpoint trained under feature_source=precomputed."""
    root = tmp_path_factory.mktemp("precomputed")
    cfg = precomputed_cfg(root / "pc.cfg", workspace, write_features(root / "f", (2, 16, 16)))
    assert main(["train", "--config", cfg, "--out", str(root / "t")]) == 0
    return str(root / "t" / "checkpoint_final.spck")


# per broken per-image input: the stderr it must give
BAD_INPUT_ERRORS = {
    "no_images_dir": "feature_source=trainable needs image pixels",
    "no_features_dir": "feature_source=precomputed needs features_dir",
    "no_feature_file": "missing feature file",
    "malformed_feature_file": "truncated dimension list",
    "feature_shape": "feature tensor shape (3, 16, 16)",
}


@pytest.mark.parametrize("case", list(BAD_INPUT_ERRORS))
def test_bad_per_image_input_exits_2_before_any_output(tmp_path, workspace, precomputed_ckpt, case, capsys):
    ckpt = precomputed_ckpt
    if case == "no_images_dir":
        ckpt = str(workspace["ckpt"])
        cfg = str(write_cfg(tmp_path / "bad.cfg", dataset_csv=str(workspace["data"] / "dataset.csv")))
    else:
        features = tmp_path / "f"
        if case == "feature_shape":
            write_features(features, (3, 16, 16))
        elif case != "no_features_dir":
            features.mkdir()
        if case == "malformed_feature_file":
            for image_id in ("synth000", "synth001"):
                (features / f"{image_id}.ftns").write_bytes(b"FTNS\x03\x00\x00\x00")
        cfg = precomputed_cfg(tmp_path / "bad.cfg", workspace, "" if case == "no_features_dir" else str(features))
    runs = {"predict": ["--checkpoint", ckpt, "--count", "1"],
            "complete": ["--checkpoint", ckpt, "--prefix-len", "2", "--repeats", "1"]}
    runs["train"] = []
    capsys.readouterr()
    for command, extra in runs.items():
        out = tmp_path / f"out_{command}"
        assert main([command, "--config", cfg, "--out", str(out), *extra]) == 2, command
        assert BAD_INPUT_ERRORS[case] in capsys.readouterr().err, command
        assert not out.exists(), command


def test_predict_samples_with_the_configs_threshold_mode(tmp_path, workspace):
    # an absolute cut of 0.5 lies above every map's maximum, so each point falls back to its map's argmax
    cfg = write_cfg(tmp_path / "abs.cfg", dataset_csv=str(workspace["data"] / "dataset.csv"),
                    images_dir=str(workspace["data"]), threshold_mode="absolute", th=0.5)
    out = tmp_path / "p"
    assert main(["predict", "--config", str(cfg), "--out", str(out), "--checkpoint", str(workspace["ckpt"]),
                 "--count", "3", "--seed", "2", "--dump-tspm"]) == 0
    paths = load_scanpath_dataset(out / "predicted.csv").scanpaths
    assert len(paths) == 2 * 3
    for s in paths:
        stack = read_feature_tensor(out / "tspm" / f"{s.image_id}_{s.observer_id[len('model'):]}.ftns")
        assert stack.shape == (4, 16, 16) and stack.max() < 0.5
        rows, cols = np.unravel_index(stack.reshape(4, -1).argmax(axis=1), (16, 16))
        assert s.coords().tolist() == np.column_stack([cols, rows]).astype(float).tolist()


def test_saliency_and_evaluate_read_no_per_image_input(tmp_path, workspace):
    cfg = precomputed_cfg(tmp_path / "pc.cfg", workspace, "")  # neither images_dir nor features_dir
    truth = str(workspace["data"] / "dataset.csv")
    assert main(["saliency", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
    assert main(["evaluate", "--config", cfg, "--out", str(tmp_path / "e"), "--predicted", truth,
                 "--truth", truth]) == 0


def manifest_inputs(out):
    return [line for line in (out / "manifest.txt").read_text().splitlines() if line.startswith("input_")]


def test_every_commands_manifest_lists_its_inputs_config_first(tmp_path, workspace):
    cfg, ckpt, data = str(workspace["cfg"]), str(workspace["ckpt"]), workspace["data"]
    csv = str(data / "dataset.csv")
    copy = tmp_path / "copy.csv"
    copy.write_bytes(Path(csv).read_bytes())
    assert manifest_inputs(data) == [f"input_config={workspace['root'] / 'synth.cfg'}"]
    assert manifest_inputs(workspace["train_out"]) == [f"input_config={cfg}", f"input_dataset={csv}"]
    runs = {  # per command: its flags past --config and --out, then the input lines past input_config
        "predict": (["--checkpoint", ckpt, "--count", "1"], [f"input_checkpoint={ckpt}", f"input_dataset={csv}"]),
        "complete": (["--checkpoint", ckpt, "--prefix-len", "2", "--repeats", "1", "--dataset", str(copy)],
                     [f"input_checkpoint={ckpt}", f"input_dataset={copy}"]),
        "evaluate": (["--predicted", str(copy), "--truth", csv], [f"input_predicted={copy}", f"input_truth={csv}"]),
        "saliency": ([], [f"input_scanpaths={csv}"]),
    }
    for command, (extra, inputs) in runs.items():
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out), *extra]) == 0, command
        assert manifest_inputs(out) == [f"input_config={cfg}", *inputs], command
    out = tmp_path / "saliency_of_copy"
    assert main(["saliency", "--config", cfg, "--out", str(out), "--scanpaths", str(copy)]) == 0
    assert manifest_inputs(out) == [f"input_config={cfg}", f"input_scanpaths={copy}"]
    out = tmp_path / "resumed"
    assert main(["train", "--config", cfg, "--out", str(out), "--resume", ckpt]) == 0
    assert manifest_inputs(out) == [f"input_config={cfg}", f"input_dataset={csv}", f"input_resume={ckpt}"]


def test_manifest_names_the_blas_build_and_its_thread_variables(tmp_path, workspace, monkeypatch):
    cfg = str(workspace["cfg"])
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    for build in (f"{blas['name']} {blas['version']}", "unknown"):
        if build == "unknown":  # as with a numpy that records no build configuration
            monkeypatch.delattr(np.__config__, "CONFIG")
        out = tmp_path / build.replace(" ", "_")
        assert main(["saliency", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "manifest.txt").read_text().splitlines()
        at = lines.index(f"numpy_version={np.__version__}")
        assert lines[at + 1:at + 3] == [f"blas={build}",
                                        "blas_threads=OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS= MKL_NUM_THREADS="]
        assert lines[at + 3].startswith("argv=") and lines[at + 4] == f"input_config={cfg}"


def test_main_alone_loads_the_run_config_and_no_command_returns_a_value():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    loaders = [fn.name for fn in functions for node in ast.walk(fn)
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "load_run_config"]
    assert loaders == ["main"]
    commands = [fn for fn in functions if fn.name.startswith("cmd_")]
    assert sorted(fn.name for fn in commands) == [f"cmd_{name}" for name in sorted(
        ("train", "predict", "complete", "evaluate", "saliency", "synth"))]
    for fn in commands:
        assert [a.arg for a in fn.args.args] == ["args", "rc"], fn.name
        assert not [node for node in ast.walk(fn) if isinstance(node, ast.Return) and node.value is not None], fn.name


def test_an_image_id_that_would_leave_the_output_directory_exits_2_before_any_output(tmp_path, capsys):
    csv = tmp_path / "in.csv"
    csv.write_text("image_id,observer_id,fix_index,x,y\n../escaped,obs,0,1.0,2.0\n")
    out = tmp_path / "out"
    assert main(["saliency", "--config", str(write_cfg(tmp_path / "s.cfg")), "--out", str(out),
                 "--scanpaths", str(csv)]) == 2
    assert f"{csv}:2: image id '../escaped'" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "escaped.pgm").exists()


def test_a_nonfinite_checkpoint_exits_2_before_any_output(tmp_path, workspace, capsys):
    ckpt = read_checkpoint(workspace["ckpt"])
    ckpt.tensors["head.kernel"] = np.full_like(ckpt.tensors["head.kernel"], np.nan)
    bad = str(tmp_path / "nan.spck")
    write_checkpoint(bad, ckpt)
    runs = {"predict": ["--checkpoint", bad, "--count", "1"],
            "complete": ["--checkpoint", bad, "--prefix-len", "2", "--repeats", "1"],
            "train": ["--resume", bad]}
    capsys.readouterr()
    for command, extra in runs.items():
        out = tmp_path / f"out_{command}"
        assert main([command, "--config", str(workspace["cfg"]), "--out", str(out), *extra]) == 2, command
        assert "checkpoint tensor 'head.kernel' holds NaN or inf" in capsys.readouterr().err, command
        assert not out.exists(), command


def test_a_nonfinite_feature_tensor_exits_2_before_any_output(tmp_path, workspace, precomputed_ckpt, capsys):
    features = tmp_path / "f"
    write_features(features, (2, 16, 16))
    arr = read_feature_tensor(features / "synth001.ftns")
    arr[1, 4, 7] = np.nan
    write_feature_tensor(features / "synth001.ftns", arr)
    cfg = precomputed_cfg(tmp_path / "nan.cfg", workspace, str(features))
    runs = {"train": [], "predict": ["--checkpoint", precomputed_ckpt, "--count", "1"],
            "complete": ["--checkpoint", precomputed_ckpt, "--prefix-len", "2", "--repeats", "1"]}
    capsys.readouterr()
    for command, extra in runs.items():
        out = tmp_path / f"out_{command}"
        assert main([command, "--config", cfg, "--out", str(out), *extra]) == 2, command
        assert "precomputed feature tensor holds NaN or inf" in capsys.readouterr().err, command
        assert not out.exists(), command
