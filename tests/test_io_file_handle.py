"""The File handle: modes, pointers, views, size management, and the
release of closed handles."""

import gc
import weakref

import numpy as np
import pytest

from repro import datatypes as dt
from repro.errors import IOEngineError
from repro.fs import SimFileSystem
from repro.io import (
    File,
    MODE_APPEND,
    MODE_CREATE,
    MODE_DELETE_ON_CLOSE,
    MODE_EXCL,
    MODE_RDONLY,
    MODE_RDWR,
    MODE_WRONLY,
    SEEK_CUR,
    SEEK_END,
    SEEK_SET,
)
from repro.mpi import run_spmd
from tests.conftest import fill_pattern

ENGINES = ["listless", "list_based"]


def spmd(n, fn):
    return run_spmd(n, fn)


@pytest.fixture(params=ENGINES)
def engine(request):
    return request.param


class TestOpenModes:
    def test_create_and_write(self, engine):
        fs = SimFileSystem()

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                           engine=engine)
            fh.write_at(0, fill_pattern(16))
            fh.close()

        spmd(2, worker)
        assert fs.lookup("/f").size == 16

    def test_open_missing_without_create(self, engine):
        fs = SimFileSystem()

        def worker(comm):
            File.open(comm, fs, "/missing", MODE_RDWR, engine=engine)

        with pytest.raises(Exception):
            spmd(1, worker)

    def test_excl_on_existing(self, engine):
        fs = SimFileSystem()
        fs.create("/f")

        def worker(comm):
            File.open(comm, fs, "/f", MODE_CREATE | MODE_EXCL | MODE_RDWR,
                      engine=engine)

        with pytest.raises(Exception):
            spmd(1, worker)

    def test_rdonly_write_rejected(self, engine):
        fs = SimFileSystem()
        fs.create("/f")

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_RDONLY, engine=engine)
            with pytest.raises(IOEngineError):
                fh.write_at(0, np.zeros(4, np.uint8))
            fh.close()

        spmd(1, worker)

    def test_wronly_read_rejected(self, engine):
        fs = SimFileSystem()

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_WRONLY,
                           engine=engine)
            with pytest.raises(IOEngineError):
                fh.read_at(0, np.zeros(4, np.uint8))
            fh.close()

        spmd(1, worker)

    def test_two_access_modes_rejected(self, engine):
        fs = SimFileSystem()

        def worker(comm):
            File.open(comm, fs, "/f",
                      MODE_CREATE | MODE_RDONLY | MODE_RDWR, engine=engine)

        with pytest.raises(Exception):
            spmd(1, worker)

    def test_delete_on_close(self, engine):
        fs = SimFileSystem()

        def worker(comm):
            fh = File.open(
                comm, fs, "/tmpf",
                MODE_CREATE | MODE_RDWR | MODE_DELETE_ON_CLOSE,
                engine=engine,
            )
            fh.write_at(0, fill_pattern(4))
            fh.close()

        spmd(2, worker)
        assert not fs.exists("/tmpf")

    def test_append_positions_at_end(self, engine):
        fs = SimFileSystem()
        fs.create("/f").pwrite(0, fill_pattern(10))

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_RDWR | MODE_APPEND,
                           engine=engine)
            assert fh.tell() == 10
            fh.close()

        spmd(1, worker)

    def test_closed_handle_rejects_io(self, engine):
        fs = SimFileSystem()

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                           engine=engine)
            fh.close()
            with pytest.raises(IOEngineError):
                fh.write_at(0, np.zeros(1, np.uint8))

        spmd(1, worker)


class TestPointers:
    def test_individual_pointer_advances_in_etypes(self, engine):
        fs = SimFileSystem()

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                           engine=engine)
            fh.set_view(0, dt.DOUBLE, dt.DOUBLE)
            fh.write(np.arange(4, dtype=np.float64), 4, dt.DOUBLE)
            assert fh.tell() == 4
            fh.write(np.arange(2, dtype=np.float64), 2, dt.DOUBLE)
            assert fh.tell() == 6
            fh.seek(0)
            out = np.zeros(6, dtype=np.float64)
            fh.read(out, 6, dt.DOUBLE)
            assert list(out) == [0, 1, 2, 3, 0, 1]
            fh.close()

        spmd(1, worker)

    def test_seek_modes(self, engine):
        fs = SimFileSystem()

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                           engine=engine)
            fh.set_view(0, dt.INT, dt.INT)
            fh.write_at(0, np.zeros(10, dtype=np.int32), 10, dt.INT)
            fh.seek(4, SEEK_SET)
            assert fh.tell() == 4
            fh.seek(2, SEEK_CUR)
            assert fh.tell() == 6
            fh.seek(-1, SEEK_END)
            assert fh.tell() == 9
            with pytest.raises(IOEngineError):
                fh.seek(-100, SEEK_SET)
            fh.close()

        spmd(1, worker)

    def test_set_view_resets_pointer(self, engine):
        fs = SimFileSystem()

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                           engine=engine)
            fh.write(fill_pattern(8))
            assert fh.tell() == 8
            fh.set_view(0, dt.DOUBLE, dt.DOUBLE)
            assert fh.tell() == 0
            fh.close()

        spmd(1, worker)

    def test_shared_pointer_partitions_offsets(self, engine):
        fs = SimFileSystem()

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                           engine=engine)
            buf = np.full(4, comm.rank, dtype=np.uint8)
            fh.write_shared(buf)
            fh.close()

        spmd(4, worker)
        data = fs.lookup("/f").contents()
        assert data.size == 16
        # Each rank's 4-byte chunk lands at a distinct offset.
        chunks = sorted(data.reshape(4, 4)[:, 0].tolist())
        assert chunks == [0, 1, 2, 3]

    def test_seek_shared(self, engine):
        fs = SimFileSystem()

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                           engine=engine)
            fh.seek_shared(8)
            if comm.rank == 0:
                fh.write_shared(fill_pattern(4, 9))
            fh.close()

        spmd(2, worker)
        assert fs.lookup("/f").size == 12

    def test_get_byte_offset(self, engine):
        fs = SimFileSystem()

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                           engine=engine)
            ft = dt.vector(4, 1, 2, dt.DOUBLE)
            fh.set_view(16, dt.DOUBLE, ft)
            assert fh.get_byte_offset(0) == 16
            assert fh.get_byte_offset(1) == 32
            # etype 4 = start of the next filetype instance
            # (extent = (3*2+1)*8 = 56 bytes)
            assert fh.get_byte_offset(4) == 16 + 56
            fh.close()

        spmd(1, worker)


class TestSizeManagement:
    def test_get_set_size(self, engine):
        fs = SimFileSystem()

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                           engine=engine)
            fh.set_size(100)
            assert fh.get_size() == 100
            fh.set_size(10)
            assert fh.get_size() == 10
            fh.close()

        spmd(2, worker)

    def test_preallocate_never_shrinks(self, engine):
        fs = SimFileSystem()

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                           engine=engine)
            fh.set_size(100)
            fh.preallocate(50)
            assert fh.get_size() == 100
            fh.preallocate(200)
            assert fh.get_size() == 200
            fh.close()

        spmd(2, worker)

    def test_nonblocking_requests_complete(self, engine):
        fs = SimFileSystem()

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                           engine=engine)
            req = fh.iwrite_at(0, fill_pattern(8))
            assert req.test()
            req.wait()
            out = np.zeros(8, np.uint8)
            fh.iread_at(0, out).wait()
            assert (out == fill_pattern(8)).all()
            fh.close()

        spmd(1, worker)

    def test_access_must_be_whole_etypes(self, engine):
        fs = SimFileSystem()

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                           engine=engine)
            fh.set_view(0, dt.DOUBLE, dt.DOUBLE)
            with pytest.raises(IOEngineError):
                fh.write(np.zeros(3, np.uint8), 3, dt.BYTE)
            fh.close()

        spmd(1, worker)


class TestNonContiguousBuffers:
    """A read destination must be C-contiguous (a flat byte view of any
    other layout is a copy the read would fill and drop); a write source
    in another layout is copied once."""

    READS = ["read_at", "read_at_all", "iread_at", "read", "read_all",
             "read_shared", "read_ordered"]

    @pytest.mark.parametrize("method", READS)
    def test_read_into_strided_buffer_raises(self, engine, method):
        fs = SimFileSystem()

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                           engine=engine)
            fh.write_at(0, fill_pattern(64))
            buf = np.zeros((4, 32), np.uint8)[:, :4]
            args = (0, buf) if "_at" in method else (buf,)
            with pytest.raises(IOEngineError, match="not C-contiguous"):
                getattr(fh, method)(*args)
            assert (buf == 0).all()
            assert fh.get_position() == 0
            assert fh.get_position_shared() == 0
            fh.close()

        spmd(1, worker)

    def test_write_from_strided_buffer(self, engine):
        fs = SimFileSystem()

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                           engine=engine)
            fh.set_view(0, dt.BYTE, dt.vector(4, 4, 8, dt.BYTE))
            src = fill_pattern(128, seed=3).reshape(4, 32)[:, :4]
            fh.write_at(0, src)
            back = np.zeros((4, 4), np.uint8)
            fh.read_at(0, back)
            assert (back == src).all()
            fh.close()

        spmd(1, worker)


class TestBadUserBuffers:
    """A buffer too short for its layout, or a read-only read
    destination, raises ``IOEngineError`` before any lock is taken or
    byte moves — contiguous and non-contiguous memory alike."""

    @staticmethod
    def view_type():
        return dt.struct([1, 1, 1], [0, 0, 128],
                         [dt.LB, dt.vector(8, 8, 16, dt.BYTE), dt.UB])

    def run(self, engine, access):
        fs = SimFileSystem()
        before = fill_pattern(512, seed=9)
        box = {}

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                           engine=engine)
            fh.write_at(0, before)
            fh.set_view(0, dt.BYTE, self.view_type())
            with pytest.raises(IOEngineError) as exc:
                access(fh)
            box["msg"] = str(exc.value)
            assert fh.simfile.locks.held_by_me() == []
            fh.close()

        spmd(1, worker)
        assert (fs.lookup("/f").contents() == before).all()
        return box["msg"]

    def test_write_from_short_contiguous_buffer(self, engine):
        src = np.arange(10, dtype=np.uint8)
        msg = self.run(engine, lambda fh: fh.write_at(0, src, 64, dt.BYTE))
        assert "holds 10" in msg

    def test_write_from_short_noncontiguous_buffer(self, engine):
        mt = dt.vector(8, 8, 16, dt.BYTE)  # touches 120 bytes
        src = fill_pattern(119)
        msg = self.run(engine, lambda fh: fh.write_at(0, src, 1, mt))
        assert "[0, 120)" in msg and "holds 119" in msg

    def test_short_tiled_count(self, engine):
        # Blocks at 0 and 8, extent 12: the second instance ends at 24.
        mt = dt.vector(2, 4, 8, dt.BYTE)
        src = fill_pattern(23)
        msg = self.run(engine, lambda fh: fh.write_at(0, src, 2, mt))
        assert "[0, 24)" in msg and "holds 23" in msg

    def test_read_into_short_buffer(self, engine):
        out = np.zeros(63, np.uint8)
        self.run(engine, lambda fh: fh.read_at(0, out, 64, dt.BYTE))
        assert (out == 0).all()

    def test_read_into_readonly_contiguous_buffer(self, engine):
        out = np.zeros(64, np.uint8)
        out.setflags(write=False)
        msg = self.run(engine, lambda fh: fh.read_at(0, out))
        assert "read-only" in msg

    def test_read_into_readonly_noncontiguous_buffer(self, engine):
        out = np.zeros(128, np.uint8)
        out.setflags(write=False)
        mt = dt.vector(8, 8, 16, dt.BYTE)
        msg = self.run(engine, lambda fh: fh.read_at(0, out, 1, mt))
        assert "read-only" in msg

    def test_readonly_write_source_is_fine(self, engine):
        fs = SimFileSystem()
        src = fill_pattern(128, seed=4)
        src.setflags(write=False)
        mt = dt.vector(8, 8, 16, dt.BYTE)

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                           engine=engine)
            fh.set_view(0, dt.BYTE, self.view_type())
            fh.write_at(0, src, 1, mt)
            back = np.zeros(128, np.uint8)
            fh.read_at(0, back, 1, mt)
            keep = np.arange(128) % 16 < 8
            assert (back[keep] == src[keep]).all()
            fh.close()

        spmd(1, worker)


class TestCloseFreesHandle:
    """A closed handle is freed by refcounting alone: no reference cycle
    (handle ↔ engine, engine ↔ planner, engine ↔ executor codec) waits
    for the cycle collector.  Runs with ``gc`` disabled."""

    @staticmethod
    def _live_files():
        return sum(isinstance(o, File) for o in gc.get_objects())

    def test_closed_file_freed_without_gc(self, engine):
        fs = SimFileSystem()
        box = {}

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                           engine=engine)
            fh.set_view(0, dt.BYTE, dt.vector(16, 4, 8, dt.BYTE))
            fh.write_at(0, fill_pattern(64))
            fh.close()
            eng = fh.engine
            # Post-close reads of the engine's stats keep working.
            box["ops"] = eng.stats.snapshot()["executed_ops"]
            box["fh"], box["engine"] = weakref.ref(fh), weakref.ref(eng)
            del fh, eng
            box["dead"] = (box["fh"]() is None, box["engine"]() is None)
            box["baseline"] = self._live_files()
            for i in range(100):
                fh = File.open(comm, fs, f"/g{i % 4}",
                               MODE_CREATE | MODE_RDWR, engine=engine)
                fh.write_at(0, fill_pattern(16))
                fh.close()
                del fh
            box["after"] = self._live_files()

        gc.collect()
        gc.disable()
        try:
            spmd(1, worker)
        finally:
            gc.enable()
        assert box["ops"] > 0
        assert box["dead"] == (True, True)
        assert box["after"] == box["baseline"]

    def test_request_waited_after_close_raises(self, engine):
        """Closing releases the engine's planner and executor, so a
        request still outstanding at close fails with a typed error."""
        fs = SimFileSystem()

        def worker(comm):
            fh = File.open(comm, fs, "/f", MODE_CREATE | MODE_RDWR,
                           engine=engine)
            req = fh.iread_at(0, np.zeros(8, dtype=np.uint8))
            fh.close()
            with pytest.raises(IOEngineError, match="closed file handle"):
                req.wait()

        spmd(1, worker)
