"""IoSeam: durable atomic writes, fault hook points, worker triggers."""

import errno
import os

import pytest

from repro.chaos import Fault, FaultPlan, IoSeam, WorkerFaults, default_seam


def _fault(site="checkpoint.shard", action="enospc", **kwargs):
    return Fault(site=site, action=action, **kwargs)


class TestDurableWrite:
    def test_write_replaces_atomically(self, tmp_path):
        target = tmp_path / "data.csv"
        target.write_text("old")
        IoSeam().write_text(target, "new", site="checkpoint.shard")
        assert target.read_text() == "new"
        assert list(tmp_path.glob("*.tmp.*")) == []

    def test_temp_name_is_process_unique(self, tmp_path):
        # Two processes writing the same path must not share a temp
        # file; the pid suffix is what prevents them trampling each
        # other before the atomic rename.
        seam = IoSeam(faults=[_fault(action="pause", pause_s=0.0)])
        target = tmp_path / "x"
        seam.write_text(target, "v", site="checkpoint.shard")
        tmp = target.with_name(f"{target.name}.tmp.{os.getpid()}")
        assert str(os.getpid()) in tmp.name

    @pytest.mark.parametrize("action,code", [
        ("enospc", errno.ENOSPC), ("eio", errno.EIO),
    ])
    def test_mid_write_error_leaves_old_file_and_no_temp(
        self, action, code, tmp_path
    ):
        target = tmp_path / "data.csv"
        target.write_text("old")
        seam = IoSeam(faults=[_fault(action=action)])
        with pytest.raises(OSError) as excinfo:
            seam.write_text(target, "new", site="checkpoint.shard")
        assert excinfo.value.errno == code
        assert target.read_text() == "old"
        assert list(tmp_path.glob("*.tmp.*")) == []

    @pytest.mark.parametrize("write", [
        lambda seam, target: seam.write_text(
            target, "v", site="checkpoint.shard"
        ),
        lambda seam, target: seam.write_chunks(
            target, iter(["v"]), site="checkpoint.shard"
        ),
    ], ids=["write_text", "write_chunks"])
    def test_failed_rename_leaves_no_temp(self, write, tmp_path):
        # The target is a directory, so the payload writes fine and the
        # rename over it is what raises.
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(OSError):
            write(IoSeam(), target)
        assert target.is_dir()
        assert list(tmp_path.glob("*.tmp.*")) == []

    def test_pre_error_fires_before_any_write(self, tmp_path):
        target = tmp_path / "fresh"
        seam = IoSeam(faults=[_fault(point="pre")])
        with pytest.raises(OSError):
            seam.write_text(target, "v", site="checkpoint.shard")
        assert not target.exists()

    def test_truncate_damages_file_after_rename(self, tmp_path):
        target = tmp_path / "data.csv"
        payload = "header\n" + "row\n" * 50
        seam = IoSeam(faults=[_fault(action="truncate", keep_bytes=16)])
        seam.write_text(target, payload, site="checkpoint.shard")
        assert target.stat().st_size == 16
        assert target.read_text() == payload[:16]

    def test_times_budget_limits_firing(self, tmp_path):
        seam = IoSeam(faults=[_fault(times=2)])
        for attempt in range(2):
            with pytest.raises(OSError):
                seam.write_text(
                    tmp_path / "f", str(attempt), site="checkpoint.shard"
                )
        seam.write_text(tmp_path / "f", "third", site="checkpoint.shard")
        assert (tmp_path / "f").read_text() == "third"

    def test_faults_only_fire_at_their_site(self, tmp_path):
        seam = IoSeam(faults=[_fault(site="cache.csv")])
        seam.write_text(tmp_path / "j", "ok", site="checkpoint.shard")
        with pytest.raises(OSError):
            seam.write_text(tmp_path / "c", "boom", site="cache.csv")

    def test_pause_uses_injected_sleep(self, tmp_path):
        slept = []
        seam = IoSeam(
            faults=[_fault(action="pause", pause_s=0.5)],
            sleep=slept.append,
        )
        seam.write_text(tmp_path / "f", "v", site="checkpoint.shard")
        assert slept == [0.5]
        assert (tmp_path / "f").read_text() == "v"

    def test_from_plan_takes_only_write_faults(self):
        plan = FaultPlan(faults=(
            _fault(),
            Fault(site="worker.play", action="hang"),
            Fault(site="signal", action="sigint"),
        ))
        seam = IoSeam.from_plan(plan)
        assert len(seam._faults) == 1
        assert IoSeam.from_plan(None)._faults == ()

    def test_default_seam_is_shared_and_faultless(self):
        assert default_seam() is default_seam()
        assert default_seam()._faults == ()


class TestWorkerFaults:
    def test_fires_on_matching_shard_and_play(self):
        plan = FaultPlan(faults=(
            Fault(site="worker.play", action="raise", shard=1,
                  after_plays=3),
        ))
        injected = WorkerFaults(plan, shard_id=1, attempt=1)
        injected.on_play_done(1)
        injected.on_play_done(2)
        with pytest.raises(RuntimeError, match="injected fault"):
            injected.on_play_done(3)

    def test_other_shards_and_later_attempts_untouched(self):
        plan = FaultPlan(faults=(
            Fault(site="worker.play", action="raise", shard=1),
        ))
        WorkerFaults(plan, shard_id=0, attempt=1).on_play_done(1)
        WorkerFaults(plan, shard_id=1, attempt=2).on_play_done(1)

    def test_attempts_budget_keeps_firing_until_exceeded(self):
        plan = FaultPlan(faults=(
            Fault(site="worker.play", action="raise", shard=0, attempts=2),
        ))
        for attempt in (1, 2):
            with pytest.raises(RuntimeError):
                WorkerFaults(plan, 0, attempt).on_play_done(1)
        WorkerFaults(plan, 0, 3).on_play_done(1)

    def test_hang_sleeps_for_hang_s(self):
        slept = []
        plan = FaultPlan(faults=(
            Fault(site="worker.play", action="hang", hang_s=42.0),
        ))
        injected = WorkerFaults(plan, 0, 1, sleep=slept.append)
        injected.on_play_done(1)
        assert slept == [42.0]


class TestWriteChunks:
    def test_streamed_write_equals_whole_write(self, tmp_path):
        whole, streamed = tmp_path / "whole", tmp_path / "streamed"
        IoSeam().write_text(whole, "abcdefgh", site="cache.csv")
        written = IoSeam().write_chunks(
            streamed, iter(["abc", "", "defg", "h"]), site="cache.csv"
        )
        assert streamed.read_bytes() == whole.read_bytes()
        assert written == 8
        assert list(tmp_path.glob("*.tmp.*")) == []

    def test_replaces_atomically(self, tmp_path):
        target = tmp_path / "data.csv"
        target.write_text("old")
        IoSeam().write_chunks(target, iter(["new"]), site="cache.csv")
        assert target.read_text() == "new"

    def test_mid_fault_leaves_old_file_and_no_temp(self, tmp_path):
        target = tmp_path / "data.csv"
        target.write_text("old")
        seam = IoSeam(faults=[_fault(site="cache.csv")])
        with pytest.raises(OSError):
            seam.write_chunks(target, iter(["n", "ew"]), site="cache.csv")
        assert target.read_text() == "old"
        assert list(tmp_path.glob("*.tmp.*")) == []
