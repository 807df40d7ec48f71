"""The write seam: each call lands exactly ``text.encode("utf-8")`` through one descriptor."""

import errno
import os

import pytest

import teammem.disk as disk
from teammem.harness import SimConfig, run_sim

TEXT = 'ünïcode {"k":1}\r\nline two\n' * 3

needs_fd_listing = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="counts descriptors through /proc/self/fd"
)


def open_descriptors():
    return len(os.listdir("/proc/self/fd"))


def patch_write(monkeypatch, chunk=None, budget=None):
    """Make the ``os.write`` that :mod:`teammem.disk` calls take at most ``chunk``
    bytes a call, and raise ``ENOSPC`` once ``budget`` bytes have landed."""
    real = os.write
    left = [budget]

    def write(fd, data):
        if left[0] == 0:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        if chunk is not None:
            data = data[:chunk]
        if left[0] is not None:
            data = data[: left[0]]
            left[0] -= len(data)
        return real(fd, data)

    monkeypatch.setattr(disk.os, "write", write)


def test_short_writes_still_land_the_whole_text(tmp_path, monkeypatch):
    patch_write(monkeypatch, chunk=7)
    log, doc = tmp_path / "log.jsonl", tmp_path / "doc.json"
    disk.append(log, TEXT)
    disk.append(log, TEXT)
    disk.replace(doc, TEXT)
    assert log.read_bytes() == 2 * TEXT.encode("utf-8")
    assert doc.read_bytes() == TEXT.encode("utf-8")
    assert sorted(os.listdir(tmp_path)) == ["doc.json", "log.jsonl"]


@pytest.mark.parametrize("op", ["append", "replace"])
def test_a_missing_parent_directory_is_made(tmp_path, op):
    path = tmp_path / "owner" / "nested" / "file"
    getattr(disk, op)(path, TEXT)
    getattr(disk, op)(path, TEXT)
    assert path.read_bytes() == TEXT.encode("utf-8") * (2 if op == "append" else 1)


@needs_fd_listing
@pytest.mark.parametrize("budget", [0, 5])
def test_a_failed_replace_leaves_the_target_and_no_temp_file(tmp_path, monkeypatch, budget):
    path = tmp_path / "doc.json"
    disk.replace(path, "old\n")
    before = open_descriptors()
    patch_write(monkeypatch, budget=budget)
    with pytest.raises(OSError) as raised:
        disk.replace(path, TEXT)
    assert raised.value.errno == errno.ENOSPC
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["doc.json"]
    assert open_descriptors() == before


def test_a_failed_rename_leaves_no_temp_file(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(OSError):
        disk.replace(target, TEXT)
    assert os.listdir(tmp_path) == ["taken"]


@needs_fd_listing
def test_a_failed_append_closes_its_descriptor(tmp_path, monkeypatch):
    path = tmp_path / "log.jsonl"
    disk.append(path, "one\n")
    before = open_descriptors()
    patch_write(monkeypatch, budget=5)
    with pytest.raises(OSError) as raised:
        disk.append(path, "two lines\n")
    assert raised.value.errno == errno.ENOSPC
    # what landed stays: a torn last line, as a killed process leaves
    assert path.read_bytes() == b"one\ntwo l"
    assert open_descriptors() == before


@needs_fd_listing
@pytest.mark.parametrize("topology", ["local", "shared", "hybrid"])
def test_a_run_leaves_no_descriptor_open(tmp_path, topology):
    before = open_descriptors()
    run_sim(SimConfig(topology=topology, team_size=3, n_tasks=60, seed=1), tmp_path / "run")
    assert open_descriptors() == before
