"""Tests for the machine builder and client metadata operations."""

import pytest

from repro.config import MachineConfig, PFSConfig
from repro.hardware import MeshMessage
from repro.machine import Machine, SimulationStalled
from repro.pfs import IOMode, StripeAttributes
from repro.pfs.client import PFSClientError
from repro.pfs.mount import PFSMountError

KB = 1024
MB = 1024 * 1024


class TestMachineConstruction:
    def test_default_is_papers_testbed(self):
        machine = Machine()
        assert len(machine.compute_nodes) == 8
        assert len(machine.io_nodes) == 8
        assert len(machine.clients) == 8
        assert len(machine.servers) == 8
        assert machine.config.block_size == 64 * KB

    def test_node_ids_unique(self):
        machine = Machine(MachineConfig(n_compute=4, n_io=3))
        ids = [n.node_id for n in machine.compute_nodes + machine.io_nodes]
        ids.append(machine.service_node.node_id)
        assert len(set(ids)) == len(ids)

    def test_mesh_covers_all_nodes(self):
        machine = Machine(MachineConfig(n_compute=5, n_io=2))
        for node in machine.compute_nodes + machine.io_nodes:
            assert machine.mesh.contains(node.position)
        assert machine.mesh.contains(machine.service_node.position)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MachineConfig(n_compute=0)
        with pytest.raises(ValueError):
            MachineConfig(n_io=0)
        with pytest.raises(ValueError):
            MachineConfig(block_size=0)


class TestMounts:
    def test_mount_default_attrs(self):
        machine = Machine(MachineConfig(n_compute=2, n_io=4))
        mount = machine.mount("/pfs", PFSConfig(stripe_unit=16 * KB))
        assert mount.default_attrs.stripe_unit == 16 * KB
        assert mount.default_attrs.stripe_factor == 4  # all I/O nodes

    def test_duplicate_mount_rejected(self):
        machine = Machine(MachineConfig(n_compute=2, n_io=2))
        machine.mount("/pfs")
        with pytest.raises(ValueError):
            machine.mount("/pfs")

    def test_stripe_factor_exceeding_io_nodes_rejected(self):
        machine = Machine(MachineConfig(n_compute=2, n_io=2))
        with pytest.raises(ValueError):
            machine.mount("/pfs", PFSConfig(stripe_factor=4))

    def test_multiple_mounts_different_attrs(self):
        machine = Machine(MachineConfig(n_compute=2, n_io=4))
        small = machine.mount("/small", PFSConfig(stripe_unit=16 * KB))
        big = machine.mount("/big", PFSConfig(stripe_unit=1024 * KB, buffered=True))
        assert small.fastpath and not big.fastpath
        assert small.default_attrs.stripe_unit != big.default_attrs.stripe_unit


class TestFileAdministration:
    def make(self):
        machine = Machine(MachineConfig(n_compute=2, n_io=4))
        mount = machine.mount("/pfs")
        return machine, mount

    def test_create_file_sizes_stripe_files(self):
        machine, mount = self.make()
        pfs_file = machine.create_file(mount, "data", 640 * KB)  # 10 units
        total = 0
        for io_index in pfs_file.attrs.stripe_group:
            inode = machine.ufses[io_index].inode(pfs_file.file_id)
            total += inode.size_bytes
        assert total == 640 * KB

    def test_create_with_custom_attrs(self):
        machine, mount = self.make()
        attrs = StripeAttributes(stripe_unit=16 * KB, stripe_group=(1, 3))
        pfs_file = machine.create_file(mount, "data", 64 * KB, attrs=attrs)
        assert pfs_file.attrs.stripe_factor == 2
        assert machine.ufses[1].exists(pfs_file.file_id)
        assert machine.ufses[3].exists(pfs_file.file_id)
        assert not machine.ufses[0].exists(pfs_file.file_id)

    def test_rotation_spreads_first_units(self):
        machine, mount = self.make()
        rotations = set()
        for k in range(4):
            f = machine.create_file(mount, f"f{k}", 64 * KB, rotate=True)
            rotations.add(f.attrs.rotation)
        assert len(rotations) > 1

    def test_remove_file_cleans_everything(self):
        machine, mount = self.make()
        pfs_file = machine.create_file(mount, "data", 640 * KB)
        machine.remove_file(mount, "data")
        assert not mount.exists("data")
        for io_index in range(4):
            assert not machine.ufses[io_index].exists(pfs_file.file_id)

    def test_duplicate_create_rejected(self):
        machine, mount = self.make()
        machine.create_file(mount, "data", 64 * KB)
        with pytest.raises(PFSMountError):
            machine.create_file(mount, "data", 64 * KB)


class TestVerify:
    def test_fresh_machine_is_clean(self):
        machine = Machine(MachineConfig(n_compute=2, n_io=2))
        assert machine.verify() == []

    def test_clean_after_workload(self):
        from repro.core import OneRequestAhead, Prefetcher
        from repro.workloads import CollectiveReadWorkload

        machine = Machine(MachineConfig(n_compute=4, n_io=4))
        mount = machine.mount("/pfs")
        machine.create_file(mount, "data", 4 * MB)
        CollectiveReadWorkload(
            machine,
            mount,
            "data",
            request_size=64 * KB,
            compute_delay=0.02,
            prefetcher_factory=lambda r: Prefetcher(OneRequestAhead()),
        ).run()
        assert machine.verify() == []

    def test_detects_allocator_corruption(self):
        machine = Machine(MachineConfig(n_compute=1, n_io=1))
        mount = machine.mount("/pfs", PFSConfig(stripe_factor=1))
        machine.create_file(mount, "data", 64 * KB)
        # Corrupt: leak blocks by discarding a free extent.
        machine.ufses[0].allocator._free.pop()
        problems = machine.verify()
        assert any("allocated" in p for p in problems)
        with pytest.raises(AssertionError):
            machine.verify(strict=True)

    def test_detects_unregistered_file(self):
        machine = Machine(MachineConfig(n_compute=1, n_io=1))
        mount = machine.mount("/pfs", PFSConfig(stripe_factor=1))
        pfs_file = machine.create_file(mount, "data", 64 * KB)
        machine.coordinator.unregister_file(pfs_file)
        problems = machine.verify()
        assert any("coordinator" in p for p in problems)

    def test_detects_oversized_stripe_files(self):
        machine = Machine(MachineConfig(n_compute=1, n_io=1))
        mount = machine.mount("/pfs", PFSConfig(stripe_factor=1))
        pfs_file = machine.create_file(mount, "data", 64 * KB)
        pfs_file.size_bytes = 1  # metadata now lies
        problems = machine.verify()
        assert any("logical size" in p for p in problems)


class TestStallDetection:
    def _leak_first_link(self, machine, src, dst):
        """Spawn a process that takes the first link of the src->dst route
        and exits without releasing it."""
        link = machine.mesh._link(machine.mesh.route(src, dst)[0])

        def leaker():
            yield link.request()

        machine.spawn(leaker(), name="leaker")

    def test_leaked_mesh_link_raises_naming_blocked_process(self):
        machine = Machine(MachineConfig(n_compute=2, n_io=2))
        src = machine.compute_nodes[0].position
        dst = machine.io_nodes[0].position
        self._leak_first_link(machine, src, dst)

        def sender():
            yield machine.env.timeout(1e-3)
            yield from machine.mesh.send(MeshMessage(src, dst, 4096))

        machine.spawn(sender(), name="sender")
        with pytest.raises(SimulationStalled, match="'sender'") as info:
            machine.run()
        assert [p.name for p in info.value.processes] == ["sender"]

    def test_finished_run_and_bounded_run_do_not_raise(self):
        machine = Machine(MachineConfig(n_compute=2, n_io=2))

        def sleeper(delay):
            yield machine.env.timeout(delay)

        machine.spawn(sleeper(1.0), name="short")
        machine.spawn(sleeper(5.0), name="long")
        machine.run(until=2.0)  # "long" is alive, but the run was bounded
        machine.run()
        assert machine.env.now == 5.0


class TestDescribe:
    def test_mentions_key_configuration(self):
        machine = Machine(MachineConfig(n_compute=8, n_io=8))
        machine.mount("/pfs")
        text = machine.describe()
        assert "8 compute + 8 I/O" in text
        assert "64KB" in text
        assert "RAID-3 4+1" in text
        assert "/pfs" in text

    def test_reflects_write_back(self):
        machine = Machine(MachineConfig(n_compute=1, n_io=1, write_back=True))
        assert "write-back" in machine.describe()


class TestUtilization:
    def test_empty_machine_reports_nothing(self):
        machine = Machine(MachineConfig(n_compute=1, n_io=1))
        assert machine.utilization_report() == {}
        assert machine.bottleneck() is None

    def test_io_bound_workload_bottlenecks_on_storage(self):
        from repro.workloads import CollectiveReadWorkload

        machine = Machine(MachineConfig(n_compute=4, n_io=2))
        mount = machine.mount("/pfs")
        machine.create_file(mount, "data", 8 * MB)
        CollectiveReadWorkload(machine, mount, "data", request_size=64 * KB).run()
        report = machine.utilization_report()
        assert all(0.0 <= report[k] <= 1.0 for k in sorted(report))
        # The storage path is the busiest component class.
        assert machine.bottleneck().startswith(("raid", "scsi", "msgproc"))
        # Disks did real work.
        assert report["raid0"] > 0.3

    def test_compute_bound_workload_bottlenecks_on_cpu(self):
        from repro.workloads import CollectiveReadWorkload

        machine = Machine(MachineConfig(n_compute=2, n_io=2))
        mount = machine.mount("/pfs")
        machine.create_file(mount, "data", 1 * MB)
        CollectiveReadWorkload(
            machine, mount, "data", request_size=64 * KB,
            compute_delay=1.0, rounds=4,
        ).run()
        assert machine.bottleneck().startswith("cpu")


class TestClientMetadataOps:
    def make(self):
        machine = Machine(MachineConfig(n_compute=2, n_io=2))
        mount = machine.mount("/pfs")
        machine.create_file(mount, "data", 256 * KB)
        return machine, mount

    def test_stat_returns_size(self):
        machine, mount = self.make()

        def proc():
            return (yield from machine.clients[0].stat(mount, "data"))

        p = machine.spawn(proc())
        machine.run()
        assert p.value == 256 * KB

    def test_unlink_removes_file(self):
        machine, mount = self.make()

        def proc():
            yield from machine.clients[0].unlink(mount, "data")

        machine.spawn(proc())
        machine.run()
        assert not mount.exists("data")
        assert not machine.ufses[0].exists(mount.files.get("data", None) or 0)

    def test_unlink_with_open_handle_rejected(self):
        machine, mount = self.make()

        def proc():
            yield from machine.clients[0].open(mount, "data", IOMode.M_ASYNC, rank=0, nprocs=1)
            try:
                yield from machine.clients[0].unlink(mount, "data")
            except PFSClientError:
                return "rejected"

        p = machine.spawn(proc())
        machine.run()
        assert p.value == "rejected"

    def test_flush_writes_back_dirty_cache(self):
        machine = Machine(MachineConfig(n_compute=1, n_io=1))
        mount = machine.mount("/pfs", PFSConfig(buffered=True, stripe_factor=1))
        machine.create_file(mount, "data", 128 * KB)

        def proc():
            handle = yield from machine.clients[0].open(
                mount, "data", IOMode.M_ASYNC, rank=0, nprocs=1
            )
            from repro.ufs.data import LiteralData

            yield from handle.write(LiteralData(b"z" * (64 * KB)))
            yield from machine.clients[0].flush(mount, "data")

        machine.spawn(proc())
        machine.run()
        assert machine.caches[0].dirty_keys == []

    def test_truncate_shrinks_and_frees_blocks(self):
        machine, mount = self.make()
        pfs_file = mount.lookup("data")
        free_before = sum(u.allocator.free_blocks for u in machine.ufses)

        def proc():
            return (yield from machine.clients[0].truncate(mount, "data", 64 * KB))

        p = machine.spawn(proc())
        machine.run()
        assert p.value == 64 * KB
        assert pfs_file.size_bytes == 64 * KB
        free_after = sum(u.allocator.free_blocks for u in machine.ufses)
        assert free_after == free_before + 3  # 256KB -> 64KB frees 3 blocks
        assert machine.verify() == []

    def test_truncate_preserves_leading_content(self):
        machine, mount = self.make()
        pfs_file = mount.lookup("data")
        before = machine.ufses[0].content(pfs_file.file_id, 0, 64 * KB).to_bytes()

        def proc():
            yield from machine.clients[0].truncate(mount, "data", 64 * KB)

        machine.spawn(proc())
        machine.run()
        after = machine.ufses[0].content(pfs_file.file_id, 0, 64 * KB).to_bytes()
        assert before == after

    def test_truncate_then_read_clamps_at_new_eof(self):
        machine, mount = self.make()

        def proc():
            handle = yield from machine.clients[0].open(
                mount, "data", IOMode.M_ASYNC, rank=0, nprocs=1
            )
            yield from machine.clients[1].truncate(mount, "data", 100 * KB)
            yield from handle.lseek(64 * KB)
            data = yield from handle.read(64 * KB)
            return len(data)

        p = machine.spawn(proc())
        machine.run()
        assert p.value == 36 * KB

    def test_truncate_grow(self):
        machine, mount = self.make()
        pfs_file = mount.lookup("data")

        def proc():
            yield from machine.clients[0].truncate(mount, "data", 512 * KB)

        machine.spawn(proc())
        machine.run()
        assert pfs_file.size_bytes == 512 * KB
        total = sum(
            machine.ufses[i].inode(pfs_file.file_id).size_bytes for i in pfs_file.attrs.stripe_group
        )
        assert total == 512 * KB
        assert machine.verify() == []

    def test_stat_missing_file(self):
        machine, mount = self.make()

        def proc():
            yield from machine.clients[0].stat(mount, "missing")

        machine.spawn(proc())
        with pytest.raises(PFSMountError):
            machine.run()
