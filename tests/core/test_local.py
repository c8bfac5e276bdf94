"""Tests for repro.core.local."""

import time
from pathlib import Path

import pytest

from repro.core.config import FdwConfig
from repro.core.local import LocalRunner, estimate_sequential_runtime_s
from repro.errors import ConfigError
from repro.osg.runtimes import RuntimeModel
from repro.seismo.mudpy_io import ProductArchive


@pytest.fixture(scope="module")
def tiny_config():
    return FdwConfig(
        n_waveforms=4, n_stations=3, mesh=(8, 5), chunk_a=2, chunk_c=2, name="local"
    )


@pytest.fixture(scope="module")
def run_result(tiny_config, tmp_path_factory):
    return LocalRunner().run(tiny_config, archive_dir=tmp_path_factory.mktemp("run") / "arch")


def test_produces_all_waveform_sets(run_result, tiny_config):
    assert run_result.n_waveform_sets == tiny_config.n_waveforms
    assert len(run_result.pgd_by_rupture) == tiny_config.n_waveforms


def test_phase_timings_recorded(run_result):
    # Archiving is a phase of its own, so total_seconds covers it.
    assert set(run_result.phase_seconds) == {"dist", "A", "B", "C", "archive"}
    assert all(t >= 0 for t in run_result.phase_seconds.values())
    assert run_result.total_seconds > 0


def test_pgds_positive(run_result):
    assert all(v > 0 for v in run_result.pgd_by_rupture.values())


def test_archiving(tmp_path, tiny_config):
    result = LocalRunner().run(tiny_config, archive_dir=tmp_path / "arch")
    archive = ProductArchive(tmp_path / "arch")
    assert sorted(archive.kinds()) == ["ruptures", "waveforms"]
    assert len(archive.find(kind="waveforms")) == tiny_config.n_waveforms
    assert len(archive.find(kind="ruptures")) == tiny_config.n_waveforms
    assert result.archive_root == archive.root
    # No temp files left behind.
    assert not list(archive.root.glob("_tmp_*"))


def test_archiving_clears_a_stale_spool(tmp_path, tiny_config):
    """A killed run leaves its spooled products behind; the next run
    into the same directory archives its own and removes the rest."""
    stale = tmp_path / "arch" / "_spool" / "other.000000.npz"
    stale.parent.mkdir(parents=True)
    stale.write_bytes(b"left by an interrupted run")
    LocalRunner().run(tiny_config, archive_dir=tmp_path / "arch")
    archive = ProductArchive(tmp_path / "arch")
    assert len(archive.find(kind="waveforms")) == tiny_config.n_waveforms
    assert not stale.parent.exists()


def test_deterministic_products(tiny_config):
    a = LocalRunner().run(tiny_config)
    b = LocalRunner().run(tiny_config)
    assert a.pgd_by_rupture == b.pgd_by_rupture


def test_worker_validation():
    with pytest.raises(ConfigError):
        LocalRunner(n_workers=0)


def test_estimate_uses_aws_per_item_costs():
    # 1,024 full-input waveforms on the 4-CPU AWS control: the measured
    # per-chunk costs (287 s / 16 ruptures, 144 s / 2 waveforms) plus
    # one GF build and one distance-matrix build, MPI-spread over 4
    # cores — about 6.9 hours.
    config = FdwConfig(n_waveforms=1024, n_stations=121)
    model = RuntimeModel()
    total = estimate_sequential_runtime_s(config, model)
    expected = (
        1024 * (287.0 / 16.0 + 144.0 / 2.0)
        + model.b_base_s
        + 121 * model.b_per_station_s
        + model.dist_base_s
    ) / 4.0
    assert total == pytest.approx(expected)
    assert 5.0 * 3600 < total < 9.0 * 3600


def test_estimate_scales_with_cpus():
    config = FdwConfig(n_waveforms=256, n_stations=121)
    one = estimate_sequential_runtime_s(config, n_cpus=1)
    four = estimate_sequential_runtime_s(config, n_cpus=4)
    assert one == pytest.approx(4.0 * four)
    with pytest.raises(ConfigError):
        estimate_sequential_runtime_s(config, n_cpus=0)


def test_estimate_counts_distance_build_once():
    recycled = FdwConfig(n_waveforms=64, recycle_distances=True)
    explicit = FdwConfig(n_waveforms=64, recycle_distances=False)
    model = RuntimeModel()
    assert estimate_sequential_runtime_s(recycled, model) == pytest.approx(
        estimate_sequential_runtime_s(explicit, model)
    )


def test_estimate_small_input_faster():
    model = RuntimeModel()
    full = estimate_sequential_runtime_s(FdwConfig(n_waveforms=2048, n_stations=121), model)
    small = estimate_sequential_runtime_s(FdwConfig(n_waveforms=2048, n_stations=2), model)
    # The waveform-synthesis term scales with the station list; the
    # rupture term does not, so the gap is large but bounded.
    assert full > 3 * small


# -- shared-memory pool path --------------------------------------------------


def test_pool_path_matches_sequential(tiny_config, run_result):
    with LocalRunner(n_workers=2) as runner:
        pooled = runner.run(tiny_config)
    assert pooled.n_waveform_sets == tiny_config.n_waveforms
    # Bit-identical products: same rupture ids, same PGD floats.
    assert pooled.pgd_by_rupture == run_result.pgd_by_rupture


def test_pool_path_archives(tmp_path, tiny_config):
    """Regression: the seed pool path silently dropped archive_dir."""
    with LocalRunner(n_workers=2) as runner:
        result = runner.run(tiny_config, archive_dir=tmp_path / "arch")
    archive = ProductArchive(tmp_path / "arch")
    assert len(archive.find(kind="waveforms")) == tiny_config.n_waveforms
    assert len(archive.find(kind="ruptures")) == tiny_config.n_waveforms
    assert result.archive_root == archive.root
    # No spool or temp files left behind.
    assert not list(archive.root.glob("_tmp_*"))
    assert not (archive.root / "_spool").exists()


def test_pool_archive_matches_sequential_archive(tmp_path, tiny_config):
    import numpy as np

    LocalRunner().run(tiny_config, archive_dir=tmp_path / "seq")
    with LocalRunner(n_workers=2) as runner:
        runner.run(tiny_config, archive_dir=tmp_path / "pool")
    seq_files = sorted((tmp_path / "seq").rglob("*.npz"))
    assert seq_files
    for seq_path in seq_files:
        pool_path = next((tmp_path / "pool").rglob(seq_path.name))
        with np.load(seq_path) as a, np.load(pool_path) as b:
            assert set(a.files) == set(b.files)
            for field in a.files:
                assert np.array_equal(a[field], b[field])


def test_archived_products_decode_to_synthesized_arrays(run_result, tiny_config):
    """Every archived product decodes to the bits synthesis produced.
    With the byte-identical archives of every execution path (below),
    this holds for pooled, checkpointed and resumed runs too."""
    import numpy as np

    from repro.core.local import _fakequakes_for
    from repro.seismo.waveforms import WaveformSet

    fq = _fakequakes_for(tiny_config)
    fq.phase_a_distances()
    ruptures = fq.phase_a_ruptures(0, tiny_config.n_waveforms)
    fq.phase_b_greens_functions()
    archive = ProductArchive(run_result.archive_root)
    for ws in fq.phase_c_waveforms(ruptures):
        back = WaveformSet.load(archive.path_of("waveforms", ws.rupture_id))
        assert back.data.dtype == ws.data.dtype
        assert back.data.tobytes() == ws.data.tobytes()


def test_pool_reuses_published_bank(tiny_config):
    with LocalRunner(n_workers=2) as runner:
        first = runner.run(tiny_config)
        assert len(runner._published) == 1
        second = runner.run(tiny_config)
        assert len(runner._published) == 1  # same key, no republish
        assert first.pgd_by_rupture == second.pgd_by_rupture
        # Warm cache: the second run's Phase B is a pure lookup.
        assert runner.gf_cache.stats.hits >= 1


def test_close_is_idempotent(tiny_config):
    runner = LocalRunner(n_workers=2)
    runner.run(tiny_config)
    runner.close()
    runner.close()


def test_close_releases_a_reused_runner(tiny_config):
    """Every close() releases what the runner holds: a runner run again
    after close() leaks neither its second pool nor its second set of
    shared-memory segments."""
    from multiprocessing import shared_memory

    runner = LocalRunner(n_workers=2)
    runner.run(tiny_config)
    runner.close()
    runner.run(tiny_config)
    names = [
        name
        for handle in runner._published.values()
        for name in (handle.statics_name, handle.travel_name)
    ]
    assert len(names) == 2
    runner.close()
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
    assert runner._state["pool"] is None


def test_runners_share_gf_cache(tiny_config):
    from repro.core.gfcache import GFCache

    cache = GFCache()
    LocalRunner(gf_cache=cache).run(tiny_config)
    assert cache.stats.misses == 1
    LocalRunner(gf_cache=cache).run(tiny_config)
    assert cache.stats.misses == 1  # second runner hits the shared cache
    assert cache.stats.memory_hits >= 1


# -- pooled Phase A -----------------------------------------------------------


@pytest.fixture(scope="module")
def pooled_a_config():
    """Enough A chunks (4) that n_workers=2 really fans out."""
    return FdwConfig(
        n_waveforms=8, n_stations=3, mesh=(8, 5), chunk_a=2, chunk_c=4, name="pool_a"
    )


def test_pooled_phase_a_matches_sequential(pooled_a_config):
    """Pooled Phase A must reproduce the sequential catalog rupture-for-
    rupture — same ids, slip and kinematics, hence identical archives."""
    import numpy as np

    from repro.core.local import _fakequakes_for, _run_a_chunk
    from repro.core.phases import chunk_bounds

    fq = _fakequakes_for(pooled_a_config)
    fq.phase_a_distances()
    reference = fq.phase_a_ruptures(0, pooled_a_config.n_waveforms)
    pooled = []
    for start, count in chunk_bounds(
        pooled_a_config.n_waveforms, pooled_a_config.chunk_a
    ):
        pooled.extend(_run_a_chunk((fq.params, start, count, None)))
    assert len(pooled) == len(reference)
    for a, b in zip(pooled, reference):
        assert a.rupture_id == b.rupture_id
        assert np.array_equal(a.subfault_indices, b.subfault_indices)
        assert np.array_equal(a.slip_m, b.slip_m)
        assert np.array_equal(a.rise_time_s, b.rise_time_s)
        assert np.array_equal(a.onset_time_s, b.onset_time_s)
        assert a.hypocenter_index == b.hypocenter_index


def test_pooled_run_matches_sequential_run(pooled_a_config):
    """End-to-end: a pooled run (A and C fan out over the pool) produces
    the sequential run's products."""
    sequential = LocalRunner().run(pooled_a_config)
    with LocalRunner(n_workers=2) as runner:
        pooled = runner.run(pooled_a_config)
    assert pooled.pgd_by_rupture == sequential.pgd_by_rupture


def test_pooled_a_rupt_archives_match(tmp_path, pooled_a_config):
    """The .rupt products (slip + kinematics serialized per subfault)
    are byte-identical between sequential and pooled Phase A."""
    LocalRunner().run(pooled_a_config, archive_dir=tmp_path / "seq")
    with LocalRunner(n_workers=2) as runner:
        runner.run(pooled_a_config, archive_dir=tmp_path / "pool")
    seq_files = sorted((tmp_path / "seq").rglob("*.rupt"))
    assert len(seq_files) == pooled_a_config.n_waveforms
    for seq_path in seq_files:
        pool_path = next((tmp_path / "pool").rglob(seq_path.name))
        assert pool_path.read_bytes() == seq_path.read_bytes()


def test_pooled_a_workers_share_disk_kl_store(tmp_path, pooled_a_config):
    """With a disk-backed KLCache, the pooled A phase persists bases the
    workers (and later runs) reuse."""
    from repro.seismo.klcache import KLCache

    cache = KLCache(cache_dir=tmp_path / "kl")
    with LocalRunner(n_workers=2, kl_cache=cache) as runner:
        first = runner.run(pooled_a_config)
        assert cache.disk_keys()  # workers populated the shared store
        second = runner.run(pooled_a_config)
    assert first.pgd_by_rupture == second.pgd_by_rupture


def test_parent_builds_distances_only_for_its_own_phase_a(pooled_a_config):
    """A pooled Phase A builds the distance matrices in the workers'
    sessions only; the parent would fork its copy into every worker. A
    sequential run builds them once, for all its chunks."""
    from unittest import mock

    from repro.seismo.distance import DistanceMatrices

    build = DistanceMatrices.from_geometry
    with mock.patch.object(DistanceMatrices, "from_geometry", wraps=build) as spy:
        with LocalRunner(n_workers=2) as runner:
            pooled = runner.run(pooled_a_config)
        assert spy.call_count == 0
        sequential = LocalRunner().run(pooled_a_config)
        assert spy.call_count == 1
    assert pooled.pgd_by_rupture == sequential.pgd_by_rupture
    assert set(pooled.phase_seconds) == set(sequential.phase_seconds)


def test_single_chunk_a_stays_in_parent(tmp_path):
    """One A chunk -> no fan-out; the parent's own KLCache serves it."""
    from repro.seismo.klcache import KLCache

    config = FdwConfig(
        n_waveforms=2, n_stations=3, mesh=(8, 5), chunk_a=2, chunk_c=2, name="one_a"
    )
    cache = KLCache(cache_dir=tmp_path / "kl")
    with LocalRunner(n_workers=2, kl_cache=cache) as runner:
        runner.run(config)
    assert cache.stats.misses >= 1  # parent-side cache was exercised


# -- what each process keeps ----------------------------------------------------


def test_sequential_run_ends_phase_a_before_phase_b(tiny_config):
    """A sequential run, by the runner or by ``run_sequential``, holds no
    distance matrices (nor their lag table or the rupture generator) once
    Phase A returns: a weakref taken when Phase A built them is dead when
    Phase B is entered."""
    import weakref
    from unittest import mock

    from repro.core.local import _fakequakes_for
    from repro.seismo.distance import DistanceMatrices
    from repro.seismo.fakequakes import FakeQuakes

    built, at_phase_b = [], []
    build = DistanceMatrices.from_geometry
    phase_b = FakeQuakes.phase_b_greens_functions

    def spy_build(geometry):
        distances = build(geometry)
        built.append(weakref.ref(distances))
        return distances

    def spy_phase_b(self, recycled=None):
        at_phase_b.append((len(built), [ref() is None for ref in built],
                           self._generator is None))
        return phase_b(self, recycled)

    with mock.patch.object(DistanceMatrices, "from_geometry", side_effect=spy_build), \
            mock.patch.object(FakeQuakes, "phase_b_greens_functions", spy_phase_b):
        LocalRunner().run(tiny_config)
        runner_calls = len(at_phase_b)
        _fakequakes_for(tiny_config).run_sequential()
    assert len(built) == 2 and runner_calls >= 1 and len(at_phase_b) > runner_calls
    for n_built, dead, no_generator in at_phase_b:
        assert n_built >= 1 and all(dead) and no_generator


#: Worker-side weakrefs to every session and attached bank a probe saw.
_SEEN: list = []


def _worker_probe(task):
    """Pool probe: what this worker keeps, reported once every worker
    has checked in, so each worker answers exactly one probe.

    Reports the session's configuration, whether it still holds Phase-A
    state, whether it holds a bank, and how many of the sessions and
    banks any probe in this worker saw are still alive.
    """
    import os
    import weakref

    from repro.core import local

    rendezvous, n_workers = task
    Path(rendezvous, str(os.getpid())).touch()
    deadline = time.monotonic() + 60
    while len(list(Path(rendezvous).iterdir())) < n_workers:
        if time.monotonic() > deadline:
            raise TimeoutError("not every pool worker took a probe")
        time.sleep(0.01)
    fq = local._SESSION
    bank = None if fq is None else fq._gf_bank
    for kind, obj in (("session", fq), ("bank", bank)):
        if obj is not None and not any(ref() is obj for _, ref in _SEEN):
            _SEEN.append((kind, weakref.ref(obj)))
    alive = [kind for kind, ref in _SEEN if ref() is not None]
    return (
        os.getpid(),
        None if fq is None else fq.params,
        fq is not None and fq._distances is None and fq._generator is None,
        int(bank is not None),
        alive.count("session"),
        alive.count("bank"),
    )


def test_pool_worker_keeps_one_session(tmp_path):
    """Over three distinct configurations on one pooled runner, each
    worker keeps at most one session and one attached bank, the ones it
    replaced are freed, and every archive equals the sequential one."""
    from repro.core.local import _fakequakes_for

    configs = [
        FdwConfig(n_waveforms=8, n_stations=n_stations, mesh=(8, 5), chunk_a=2,
                  chunk_c=2, name="session", seed=seed)
        for n_stations, seed in ((3, 1), (4, 2), (3, 3))
    ]
    with LocalRunner(n_workers=2) as runner:
        for i, config in enumerate(configs):
            runner.run(config, archive_dir=tmp_path / f"pooled{i}")
            rendezvous = tmp_path / f"probe{i}"
            rendezvous.mkdir()
            pool = runner._state["pool"]
            reports = list(pool.map(_worker_probe, [(str(rendezvous), 2)] * 2))
            assert len({pid for pid, *_ in reports}) == 2
            # Which worker ran which chunk is the pool's choice: a worker
            # may still hold an earlier configuration's session, or this
            # one's Phase-A state if it took no Phase-C chunk.
            params = _fakequakes_for(config).params
            assert params in {session_params for _, session_params, *_ in reports}
            for _pid, _params, _ended, attached, sessions, banks in reports:
                assert sessions <= 1 and banks <= 1 and attached <= 1
    for i, config in enumerate(configs):
        LocalRunner().run(config, archive_dir=tmp_path / f"sequential{i}")
        assert _archive_digest(tmp_path / f"pooled{i}") == _archive_digest(
            tmp_path / f"sequential{i}"
        )


def test_worker_ends_phase_a_at_its_phase_c_chunk(pooled_a_config, monkeypatch):
    """A worker's session keeps its distance matrices and generator
    between Phase-A chunks, holds a K-L cache only while a chunk runs,
    and drops its Phase-A state when it takes a Phase-C chunk, whose
    rows carry the sequential run's PGDs. The session attaches the bank
    at its first Phase-C chunk and keeps that one mapping."""
    from repro.core import local
    from repro.core.sharedbank import publish_shared_bank

    monkeypatch.setattr(local, "_SESSION", None)
    params = local._fakequakes_for(pooled_a_config).params
    ruptures = local._run_a_chunk((params, 0, 2, None))
    session = local._SESSION
    distances = session._distances
    ruptures += local._run_a_chunk((params, 2, 2, None))
    assert local._SESSION is session and session._distances is distances
    assert session.kl_cache is None and session._generator is not None
    fq = local._fakequakes_for(pooled_a_config)
    handle, segments = publish_shared_bank(fq.phase_b_greens_functions(), "phase-a-end")
    try:
        rows = local._run_c_chunk((handle, params, ruptures[:2], None))
        assert local._SESSION is session
        assert session._distances is None and session._generator is None
        bank = session._gf_bank
        assert not bank.statics.flags.writeable  # the shared-memory view
        rows += local._run_c_chunk((handle, params, ruptures[2:], None))
        assert session._gf_bank is bank
    finally:
        monkeypatch.setattr(local, "_SESSION", None)
        for shm in segments:
            shm.close()
            shm.unlink()
    sequential = LocalRunner().run(pooled_a_config)
    assert {rid: pgd for rid, pgd, *_ in rows} == {
        r.rupture_id: sequential.pgd_by_rupture[r.rupture_id] for r in ruptures
    }


# -- estimate_sequential_runtime_s validation ---------------------------------


class _FakeStationsConfig:
    """Duck-typed config: FdwConfig itself rejects n_stations < 1 at
    construction, so the estimator's own guard needs a stand-in."""

    def __init__(self, n_stations):
        self.n_stations = n_stations
        self.n_waveforms = 16
        self.n_subfaults = 450
        self.chunk_a = 16
        self.chunk_c = 2
        self.recycle_distances = True
        self.name = "fake"


@pytest.mark.parametrize("n_stations", [0, -3, None])
def test_estimate_rejects_nonpositive_stations(n_stations):
    with pytest.raises(ConfigError, match="n_stations"):
        estimate_sequential_runtime_s(_FakeStationsConfig(n_stations))


# -- retry path: flaky chunks are retried, products unchanged ------------------


def test_flaky_chunks_retried_to_identical_archive(tmp_path, tiny_config):
    """A retryable flake on one chunk per phase costs extra attempts and
    accounted backoff but changes no product byte."""
    from repro.faults import ChunkFlake, FaultPlan

    plain = LocalRunner().run(tiny_config, archive_dir=tmp_path / "plain")
    plan = FaultPlan(
        flakes=(ChunkFlake("A", 1, times=2), ChunkFlake("C", 0, times=1))
    )
    flaky = LocalRunner().run(
        tiny_config, archive_dir=tmp_path / "flaky", faults=plan
    )
    assert flaky.chunk_retries == {"A": 2, "C": 1}
    assert flaky.retry_backoff_s > 0.0
    assert flaky.pgd_by_rupture == plain.pgd_by_rupture
    plain_files = sorted(p.name for p in (tmp_path / "plain").rglob("*") if p.is_file())
    flaky_files = sorted(p.name for p in (tmp_path / "flaky").rglob("*") if p.is_file())
    assert plain_files == flaky_files
    for name in plain_files:
        a = next((tmp_path / "plain").rglob(name))
        b = next((tmp_path / "flaky").rglob(name))
        assert a.read_bytes() == b.read_bytes()


def test_chunk_retries_counted_once(tiny_config):
    """Each chunk retry is one ``repro_retry_attempts_total`` count; the
    runner adds no second counter of its own."""
    from repro import obs
    from repro.faults import ChunkFlake, FaultPlan

    plan = FaultPlan(flakes=(ChunkFlake("A", 1, times=2), ChunkFlake("C", 0)))
    with obs.observe() as session:
        flaky = LocalRunner().run(tiny_config, faults=plan)
    registry = session.registry
    assert registry.counter_total("repro_retry_attempts_total") == sum(
        flaky.chunk_retries.values()
    ) == 3
    assert "repro_local_chunk_retries_total" not in registry.names()
    assert "repro_local_retry_backoff_seconds_total" not in registry.names()


def test_pooled_flaky_chunks_match_sequential(tmp_path, tiny_config):
    """The pooled paths resubmit the flaked chunk to the pool and still
    produce the sequential archive."""
    from repro.faults import ChunkFlake, FaultPlan

    plain = LocalRunner().run(tiny_config)
    plan = FaultPlan(
        flakes=(ChunkFlake("A", 0, times=1), ChunkFlake("C", 1, times=1))
    )
    with LocalRunner(n_workers=2) as runner:
        flaky = runner.run(tiny_config, faults=plan)
    assert flaky.chunk_retries == {"A": 1, "C": 1}
    assert flaky.pgd_by_rupture == plain.pgd_by_rupture


def _touch_after(task):
    """Pool worker for the executor test: sleep, then leave a marker."""
    path, delay_s = task
    time.sleep(delay_s)
    Path(path).touch()
    return path


def test_retried_pool_attempt_never_outlives_its_phase(tmp_path):
    """A chunk attempt superseded by a retry must finish, or never start,
    before its phase returns: left running, it rewrites the chunk's
    products while the parent hashes and archives them (a flaky pooled
    run's manifest then differed from the sequential one)."""
    from repro.core.local import _ChunkExecutor
    from repro.faults import ChunkFlake, FaultPlan

    submitted = []

    def task(i):
        submitted.append(i)
        slow = submitted == [0]  # the attempt the flake supersedes
        return str(tmp_path / f"chunk{i}-{len(submitted)}"), 1.0 if slow else 0.0

    with LocalRunner(n_workers=2) as runner:
        chunks = _ChunkExecutor(runner, 0, None, FaultPlan(flakes=(ChunkFlake("A", 0),)))
        results = chunks.run(
            "A", chunks.restore("A", 2), inline=None, worker=_touch_after, task=task
        )
        finished = sorted(p.name for p in tmp_path.iterdir())
    assert results == [str(tmp_path / "chunk0-3"), str(tmp_path / "chunk1-2")]
    assert finished == ["chunk0-1", "chunk0-3", "chunk1-2"]


def test_flake_exhaustion_raises_transient_fault(tiny_config):
    """A chunk that flakes more times than the policy retries surfaces
    the typed retryable error instead of looping forever."""
    from repro.faults import ChunkFlake, FaultPlan, TransientFault
    from repro.resilience import RetryPolicy

    plan = FaultPlan(flakes=(ChunkFlake("A", 0, times=99),))
    runner = LocalRunner(retry_policy=RetryPolicy(max_attempts=2))
    with pytest.raises(TransientFault):
        runner.run(tiny_config, faults=plan)


def test_no_faults_reports_zero_retries(run_result):
    assert run_result.chunk_retries == {"A": 0, "C": 0}
    assert run_result.retry_backoff_s == 0.0


# -- one archive assembly step: identical bytes on every path -----------------


def _archive_digest(root):
    """sha256 over the sorted relative paths and bytes of every file."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def test_archive_digest_identical_on_every_path(tmp_path):
    """Sequential, pooled, checkpointed, flaky and crash+resumed runs of
    one seed assemble byte-identical archives, manifest included, and
    leave no spool, temp or checkpoint files behind."""
    from repro import obs
    from repro.faults import ChunkCrash, ChunkFlake, FaultInjected, FaultPlan

    config = FdwConfig(
        n_waveforms=6, n_stations=3, mesh=(8, 5), chunk_a=2, chunk_c=2,
        name="paths", seed=23,
    )
    LocalRunner().run(config, archive_dir=tmp_path / "sequential")
    with LocalRunner(n_workers=2) as runner:
        runner.run(config, archive_dir=tmp_path / "pooled")
        runner.run(config, archive_dir=tmp_path / "pooled-ckpt", checkpoint=True)
        pooled_flaky = runner.run(
            config, archive_dir=tmp_path / "pooled-flaky",
            faults=FaultPlan(flakes=(ChunkFlake("A", 1), ChunkFlake("C", 2, times=2))),
        )
    assert pooled_flaky.chunk_retries == {"A": 1, "C": 2}
    LocalRunner().run(config, archive_dir=tmp_path / "checkpointed", checkpoint=True)
    checkpointed_flaky = LocalRunner().run(
        config, archive_dir=tmp_path / "checkpointed-flaky", checkpoint=True,
        faults=FaultPlan(flakes=(ChunkFlake("A", 0), ChunkFlake("C", 1))),
    )
    assert checkpointed_flaky.chunk_retries == {"A": 1, "C": 1}
    with pytest.raises(FaultInjected):
        LocalRunner().run(
            config, archive_dir=tmp_path / "resumed", checkpoint=True,
            faults=FaultPlan(crashes=(ChunkCrash("C", 2),)),
        )
    with obs.observe() as session:
        resumed = LocalRunner().run(config, archive_dir=tmp_path / "resumed", resume=True)
    assert resumed.chunks_skipped["C"] == 2
    for phase in ("A", "C"):
        for outcome, counts in (("executed", resumed.chunks_executed),
                                ("skipped", resumed.chunks_skipped)):
            assert session.registry.counter_value(
                "repro_local_chunks_total", {"phase": phase, "outcome": outcome}
            ) == counts[phase]

    roots = [tmp_path / name for name in
             ("sequential", "pooled", "pooled-ckpt", "pooled-flaky", "checkpointed",
              "checkpointed-flaky", "resumed")]
    digests = {root.name: _archive_digest(root) for root in roots}
    assert len(set(digests.values())) == 1, digests
    for root in roots:
        assert sorted(p.name for p in root.iterdir()) == [
            "manifest.json", "ruptures", "waveforms",
        ], root.name


_BLAS_RUN = """
import hashlib, sys
from pathlib import Path
from repro.core.config import FdwConfig
from repro.core.gfcache import GFCache
from repro.core.local import LocalRunner
from repro.seismo.klcache import KLCache

work = Path(sys.argv[2])
config = FdwConfig(n_waveforms=12, n_stations=20, mesh=(30, 15), seed=11)
with LocalRunner(
    n_workers=int(sys.argv[1]),
    gf_cache=GFCache(work / "gf"),
    kl_cache=KLCache(cache_dir=work / "kl"),
) as runner:
    runner.run(config, archive_dir=work / "archive")
"""


def test_archive_independent_of_blas_threads(tmp_path):
    """The archive of one seed does not depend on the BLAS thread count.

    Each run is a fresh interpreter, because OpenBLAS reads
    ``OPENBLAS_NUM_THREADS`` once, at load. The K-L eigensolve used to
    run threaded, and its bases (hence slip, hence every product)
    differed in the last bits between one and two threads, for
    sequential and pooled runs alike.
    """
    import os
    import subprocess
    import sys

    from repro.seismo import spectra

    if spectra._openblas_threads() is None:
        pytest.skip("this scipy build bundles no OpenBLAS with thread controls")
    src = str(Path(__file__).resolve().parents[2] / "src")
    digests = {}
    for threads in ("1", "2"):
        for n_workers in ("1", "2"):
            work = tmp_path / f"t{threads}-w{n_workers}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p
            )
            env.pop("REPRO_GF_CACHE_DIR", None)
            env.pop("REPRO_KL_CACHE_DIR", None)
            subprocess.run(
                [sys.executable, "-c", _BLAS_RUN, n_workers, str(work)],
                env=env, check=True, timeout=300,
            )
            digests[threads, n_workers] = _archive_digest(work / "archive")
    assert len(set(digests.values())) == 1, digests


# -- Phase C: one record in flight ---------------------------------------------


def test_phase_c_spools_each_record_before_the_next(tiny_config, tmp_path):
    """A chunk's products are synthesized lazily and each is released
    once spooled, so no earlier record is alive while the next is built,
    and the rows match the batched products."""
    import weakref
    from unittest import mock

    import numpy as np

    from repro.core.local import _fakequakes_for, _spool_rows
    from repro.seismo.waveforms import WaveformSet, WaveformSynthesizer

    fq = _fakequakes_for(tiny_config)
    fq.phase_a_distances()
    ruptures = fq.phase_a_ruptures(0, tiny_config.n_waveforms)
    fq.phase_b_greens_functions()
    records: list[weakref.ref] = []
    alive_at_start: list[int] = []
    synthesize = WaveformSynthesizer._synthesize_one

    def spy(self, rupture, rng):
        alive_at_start.append(sum(ref() is not None for ref in records))
        ws = synthesize(self, rupture, rng)
        records.append(weakref.ref(ws))
        return ws

    with mock.patch.object(WaveformSynthesizer, "_synthesize_one", spy):
        rows = _spool_rows(fq.phase_c_waveforms(ruptures), tmp_path)
    assert alive_at_start == [0] * len(ruptures)

    batch = WaveformSynthesizer(fq.phase_b_greens_functions()).synthesize_batch(ruptures)
    for (rupture_id, pgd_max, _mw, path), ws in zip(rows, batch):
        assert rupture_id == ws.rupture_id
        assert pgd_max == float(ws.pgd_m().max())
        assert WaveformSet.load(path).data.tobytes() == ws.data.tobytes()
    assert np.all([Path(path).parent == tmp_path for *_, path in rows])


def test_phase_c_validates_the_whole_chunk_first(tiny_config):
    """A bad rupture anywhere in a chunk raises before any is synthesized."""
    import dataclasses
    from unittest import mock

    from repro.core.local import _fakequakes_for
    from repro.errors import WaveformError
    from repro.seismo.waveforms import WaveformSynthesizer

    fq = _fakequakes_for(tiny_config)
    ruptures = fq.phase_a_ruptures(0, 3)
    indices = ruptures[-1].subfault_indices.copy()
    indices[0] = fq.geometry.n_subfaults
    ruptures[-1] = dataclasses.replace(ruptures[-1], subfault_indices=indices)
    with mock.patch.object(WaveformSynthesizer, "_synthesize_one") as synthesize:
        with pytest.raises(WaveformError, match="outside GF bank"):
            fq.phase_c_waveforms(ruptures)
    synthesize.assert_not_called()
