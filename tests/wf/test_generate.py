"""WfChef-style generation: determinism, structure preservation, scaling."""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.errors import WfFormatError
from repro.wf import (
    WfFile,
    WfInstance,
    WfTask,
    dumps_instance,
    generate_instance,
    import_instance,
    load_instance,
    partition_instance,
)

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "fdw64_wfformat.json"


@pytest.fixture(scope="module")
def fdw_like() -> WfInstance:
    """A miniature FDW pattern: 3 A -> 1 B -> 6 C with shared + unique files."""
    shared = WfFile(name="gf_archive.mseed", size_bytes=100 * 1048576.0)
    a_tasks = [
        WfTask(
            name=f"A_{i}",
            category="A",
            runtime_s=150.0 + i,
            children=("B",),
            files=(WfFile(name=f"rupt_{i}.tar", size_bytes=5 * 1048576.0),),
        )
        for i in range(3)
    ]
    b = WfTask(
        name="B",
        category="B",
        runtime_s=700.0,
        parents=tuple(t.name for t in a_tasks),
        children=tuple(f"C_{i}" for i in range(6)),
    )
    c_tasks = [
        WfTask(
            name=f"C_{i}",
            category="C",
            runtime_s=60.0 + i,
            parents=("B",),
            files=(shared, WfFile(name=f"wave_{i}.tar", size_bytes=2 * 1048576.0)),
        )
        for i in range(6)
    ]
    return WfInstance(name="mini", tasks=tuple(a_tasks) + (b,) + tuple(c_tasks))


class TestGenerate:
    def test_same_seed_identical_instance(self, fdw_like):
        a = generate_instance(fdw_like, 40, seed=3)
        b = generate_instance(fdw_like, 40, seed=3)
        assert dumps_instance(a) == dumps_instance(b)

    def test_different_seed_different_instance(self, fdw_like):
        a = generate_instance(fdw_like, 40, seed=3)
        b = generate_instance(fdw_like, 40, seed=4)
        assert dumps_instance(a) != dumps_instance(b)

    def test_exact_task_count(self, fdw_like):
        for n in (10, 37, 64, 123):
            assert generate_instance(fdw_like, n, seed=0).n_tasks == n

    def test_singletons_stay_singletons(self, fdw_like):
        gen = generate_instance(fdw_like, 80, seed=1)
        by_cat = {
            cat: [t for t in gen.tasks if t.category == cat]
            for cat in gen.categories()
        }
        assert len(by_cat["B"]) == 1
        # scalable types grow roughly proportionally (3:6 -> 1:2)
        assert len(by_cat["A"]) > 3
        assert len(by_cat["C"]) > len(by_cat["A"])

    def test_all_to_all_fanin_preserved(self, fdw_like):
        gen = generate_instance(fdw_like, 50, seed=2)
        (b,) = [t for t in gen.tasks if t.category == "B"]
        n_a = sum(1 for t in gen.tasks if t.category == "A")
        assert len(b.parents) == n_a  # every A feeds the single B
        for t in gen.tasks:
            if t.category == "C":
                assert t.parents == (b.name,)

    def test_shared_files_keep_identity(self, fdw_like):
        gen = generate_instance(fdw_like, 50, seed=2)
        c_tasks = [t for t in gen.tasks if t.category == "C"]
        for t in c_tasks:
            names = [f.name for f in t.files]
            assert "gf_archive.mseed" in names  # shared file survives verbatim
            unique = [n for n in names if n != "gf_archive.mseed"]
            assert all(n.startswith(t.name) for n in unique)  # per-task files renamed

    def test_runtimes_resampled_from_source(self, fdw_like):
        gen = generate_instance(fdw_like, 60, seed=5)
        source_runtimes = {t.runtime_s for t in fdw_like.tasks}
        assert all(t.runtime_s in source_runtimes for t in gen.tasks)

    def test_generated_instance_is_importable(self, fdw_like):
        gen = generate_instance(fdw_like, 45, seed=6)
        imported = import_instance(gen)
        assert imported.n_tasks == 45
        imported.dag.validate()

    def test_levels_preserved(self, fdw_like):
        gen = generate_instance(fdw_like, 45, seed=7)
        assert max(gen.levels().values()) == max(fdw_like.levels().values())

    def test_too_few_tasks_rejected(self, fdw_like):
        with pytest.raises(WfFormatError, match="task types"):
            generate_instance(fdw_like, 2, seed=0)
        with pytest.raises(WfFormatError, match=">= 1"):
            generate_instance(fdw_like, 0, seed=0)

    def test_pure_chain_scales_every_stage(self):
        chain = WfInstance(
            name="chain",
            tasks=(
                WfTask(name="s0", category="extract", runtime_s=5.0, children=("s1",)),
                WfTask(
                    name="s1", category="transform", runtime_s=7.0,
                    parents=("s0",), children=("s2",),
                ),
                WfTask(name="s2", category="load", runtime_s=3.0, parents=("s1",)),
            ),
        )
        gen = generate_instance(chain, 30, seed=0)
        assert gen.n_tasks == 30
        counts = {c: sum(1 for t in gen.tasks if t.category == c) for c in gen.categories()}
        assert all(n == 10 for n in counts.values())


class TestPartition:
    def test_partition_counts_split_evenly(self, fdw_like):
        parts = partition_instance(fdw_like, 2, seed=0)
        assert [p.n_tasks for p in parts] == [5, 5]
        assert [p.name for p in parts] == ["mini_p00", "mini_p01"]

    def test_partition_one_returns_source(self, fdw_like):
        assert partition_instance(fdw_like, 1) == [fdw_like]

    def test_partition_deterministic(self, fdw_like):
        a = partition_instance(fdw_like, 2, seed=9)
        b = partition_instance(fdw_like, 2, seed=9)
        assert [dumps_instance(x) for x in a] == [dumps_instance(y) for y in b]

    def test_partition_parts_pinned(self):
        """A seeded 2.5k-task split of the bundled example, byte for byte.

        The digests predate the one-pass type count, so they also pin
        that the rewrite changed no part.
        """
        source = generate_instance(load_instance(EXAMPLE), 2500, seed=5)
        parts = partition_instance(source, 4, seed=11)
        assert [p.n_tasks for p in parts] == [625] * 4
        assert [hashlib.sha256(dumps_instance(p).encode()).hexdigest() for p in parts] == [
            "b50da80f4d25b1eaad59e11a6418223b20c7dbcace62b4f419004a746f8e514d",
            "f36210646f703e54cc48257b9afc6db36f2ad89c02472a8981df1a670150ed85",
            "91b25db000563aa30edd31ac0a466e39fdcc0a7ae1aa73392123f2c609144244",
            "3d4bc91c0a4c5c094b992c9a2accfa4fa8e14339911e2b156cad1eded490e6c1",
        ]

    def test_partition_never_looks_tasks_up_by_name(self, fdw_like, monkeypatch):
        """``WfInstance.task`` scans every task, so calling it once per
        task made splitting quadratic in the instance size."""

        def no_lookup(self, name):
            raise AssertionError(f"partition_instance looked up {name!r} by name")

        monkeypatch.setattr(WfInstance, "task", no_lookup)
        parts = partition_instance(fdw_like, 2, seed=0)
        assert [p.n_tasks for p in parts] == [5, 5]
        with pytest.raises(WfFormatError, match="at least"):
            partition_instance(fdw_like, 5, seed=0)

    def test_partition_too_small_rejected(self, fdw_like):
        with pytest.raises(WfFormatError, match="at least"):
            partition_instance(fdw_like, 5, seed=0)
        with pytest.raises(WfFormatError, match=">= 1"):
            partition_instance(fdw_like, 0)
