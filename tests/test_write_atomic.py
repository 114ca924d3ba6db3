"""Every artifact goes through data_io.write_atomic: a failed write leaves the previous file as it was."""

import ast
import os
import stat
from argparse import Namespace
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import scanpath
from scanpath.cli import RunConfig, _prepare_out, main, write_run_config
from scanpath.core import GazePoint, Scanpath
from scanpath.data_io import (Checkpoint, save_scanpath_csv, write_atomic, write_checkpoint, write_feature_tensor,
                              write_pgm)
from scanpath.metrics import METRIC_ORDER, MetricReport, write_report_csv
from scanpath.training import train
from test_cli import write_cfg
from test_training import toy_setup

PREVIOUS = b"previous contents\n"


def train_no_steps(out):
    prepared, cfg = toy_setup()
    train(prepared, replace(cfg, max_steps=0), out)


PATH = Scanpath((GazePoint(1.0, 2.0, 0), GazePoint(3.0, 4.0, 1)), "img", "obs")
CHECKPOINT = Checkpoint({"w": np.ones(2)}, {"step": "1"})
REPORT = MetricReport({m: 1.0 for m in METRIC_ORDER}, {m: 0.0 for m in METRIC_ORDER}, {m: 1 for m in METRIC_ORDER})

# target file name -> a call that writes it into a directory
WRITERS = {
    "save_scanpath_csv": ("s.csv", lambda d: save_scanpath_csv([PATH], d / "s.csv")),
    "write_pgm": ("i.pgm", lambda d: write_pgm(d / "i.pgm", np.arange(6, dtype=np.uint8).reshape(2, 3))),
    "write_feature_tensor": ("t.ftns", lambda d: write_feature_tensor(d / "t.ftns", np.ones((2, 2)))),
    "write_checkpoint": ("m.spck", lambda d: write_checkpoint(d / "m.spck", CHECKPOINT)),
    "write_report_csv": ("report.csv", lambda d: write_report_csv(REPORT, d / "report.csv")),
    "write_run_config": ("config.txt", lambda d: write_run_config(RunConfig(), d / "config.txt")),
    "manifest": ("manifest.txt", lambda d: _prepare_out(Namespace(out=str(d), command="synth", raw_argv=["synth"],
                                                                  config="run.cfg"), RunConfig(), {})),
    "loss_log": ("loss_log.csv", train_no_steps),
}


def fail_on(target: Path, where: str, monkeypatch):
    """Make the fsync of target's temp file, or its rename onto target, raise OSError; other files pass."""
    tmp = target.with_name(target.name + ".tmp")
    if where == "fsync":
        real = os.fsync

        def fsync(fd):
            if tmp.exists() and os.fstat(fd).st_ino == tmp.stat().st_ino:
                raise OSError("disk full")
            real(fd)

        monkeypatch.setattr(os, "fsync", fsync)
    else:
        real = os.replace

        def rename(src, dst):
            if Path(dst) == target:
                raise OSError("disk full")
            real(src, dst)

        monkeypatch.setattr(os, "replace", rename)


@pytest.mark.parametrize("where", ["fsync", "replace"])
@pytest.mark.parametrize("writer", list(WRITERS))
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, writer, where):
    name, write = WRITERS[writer]
    target = tmp_path / name
    target.write_bytes(PREVIOUS)
    with monkeypatch.context() as m:
        fail_on(target, where, m)
        with pytest.raises(OSError, match="disk full"):
            write(tmp_path)
    assert target.read_bytes() == PREVIOUS
    assert not target.with_name(name + ".tmp").exists()
    write(tmp_path)  # the same call without the fault replaces the file
    assert target.read_bytes() != PREVIOUS
    assert not target.with_name(name + ".tmp").exists()


def test_write_atomic_mode_and_failing_chunks(tmp_path):
    plain, atomic = tmp_path / "plain", tmp_path / "atomic"
    with open(plain, "wb") as fh:
        fh.write(b"x")
    write_atomic(atomic, [b"a", b"", b"bc"])
    assert atomic.read_bytes() == b"abc"
    assert stat.S_IMODE(atomic.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)

    def chunks():
        yield b"partial"
        raise ValueError("encoder failed")

    with pytest.raises(ValueError, match="encoder failed"):
        write_atomic(atomic, chunks())
    assert atomic.read_bytes() == b"abc"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["atomic", "plain"]


def write_opens(tree: ast.AST) -> list[tuple[str, str]]:
    """(enclosing function, mode or method) of each call in tree that may open a file for writing."""
    found = []

    class Visitor(ast.NodeVisitor):
        def __init__(self):
            self.scope = ["<module>"]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        def visit_Call(self, node):
            func = node.func
            attr = func.attr if isinstance(func, ast.Attribute) else None
            if attr in ("write_text", "write_bytes"):
                found.append((self.scope[-1], attr))
            elif attr == "open" and isinstance(func.value, ast.Name) and func.value.id == "os":
                flags = next((kw.value for kw in node.keywords if kw.arg == "flags"),
                             node.args[1] if len(node.args) > 1 else None)
                if flags is None or ast.unparse(flags) != "os.O_RDONLY":
                    found.append((self.scope[-1], "os.open"))
            elif attr == "open" or (isinstance(func, ast.Name) and func.id == "open"):
                args = node.args if attr else node.args[1:]  # Path.open takes the mode first
                mode = next((kw.value for kw in node.keywords if kw.arg == "mode"), args[0] if args else None)
                if mode is not None:
                    text = mode.value if isinstance(mode, ast.Constant) and isinstance(mode.value, str) else "?"
                    if text == "?" or set(text) & set("wxa+"):
                        found.append((self.scope[-1], text))
            self.generic_visit(node)

    Visitor().visit(tree)
    return found


def test_one_byte_path():
    """Only write_atomic and the streamed loss log open files for writing in src/scanpath."""
    found = []
    for path in sorted(Path(scanpath.__file__).parent.glob("*.py")):
        found += [(path.stem, *hit) for hit in write_opens(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == [("data_io", "write_atomic", "wb"), ("training", "train", "a")]


def test_write_opens_sees_every_spelling():
    tree = ast.parse("def f(p, m):\n open(p, 'w'); open(p, mode='xb'); p.open('a'); open(p, m)\n"
                     " p.write_text('x'); p.write_bytes(b''); open(p); open(p, 'rb'); p.read_bytes()\n"
                     " os.open(p, os.O_WRONLY | os.O_CREAT); os.open(p, m); os.open(p, os.O_RDONLY)\n")
    assert write_opens(tree) == [("f", "w"), ("f", "xb"), ("f", "a"), ("f", "?"), ("f", "write_text"),
                                 ("f", "write_bytes"), ("f", "os.open"), ("f", "os.open")]


def test_write_atomic_fsyncs_the_directory_after_the_file(tmp_path, monkeypatch):
    synced = []
    real = os.fsync

    def fsync(fd):
        synced.append(os.fstat(fd).st_ino)
        real(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    for writer, (name, write) in WRITERS.items():
        directory = tmp_path / writer
        directory.mkdir()
        synced.clear()
        write(directory)
        after_target = synced[synced.index((directory / name).stat().st_ino) + 1:]
        assert after_target[:1] == [directory.stat().st_ino], writer


def test_failed_directory_fsync_raises_and_leaves_no_temp_file(tmp_path, monkeypatch, capsys):
    real = os.fsync

    def fsync(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            raise OSError("directory fsync failed")
        real(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    with pytest.raises(OSError, match="directory fsync failed"):
        write_atomic(tmp_path / "a", [b"abc"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a"]

    cfg = write_cfg(tmp_path / "synth.cfg")
    out = tmp_path / "synth"
    assert main(["synth", "--config", str(cfg), "--out", str(out), "--images", "1", "--observers", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(out.glob("*.tmp"))
