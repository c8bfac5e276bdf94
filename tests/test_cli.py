"""Tests for repro.cli."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def config_path(tmp_path):
    """A tiny configuration created through the CLI itself."""
    path = tmp_path / "demo.cfg"
    assert main(["init", str(path), "--waveforms", "16", "--stations", "3"]) == 0
    # Shrink the mesh for test speed.
    text = path.read_text().replace("mesh = 30x15", "mesh = 8x5")
    path.write_text(text)
    return path


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_init_writes_readable_config(tmp_path):
    from repro.core.config import FdwConfig

    path = tmp_path / "x.cfg"
    assert main(["init", str(path), "--waveforms", "99"]) == 0
    config = FdwConfig.read(path)
    assert config.n_waveforms == 99
    assert config.name == "x"


def test_run_osg(config_path, capsys):
    assert main(["run", str(config_path), "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "jobs/min" in out
    assert "completed" in out


def test_run_partitioned(config_path, capsys):
    assert main(["run", str(config_path), "--dagmans", "2", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "batch makespan" in out
    assert out.count("=== DAGMan") == 2


def test_run_local(config_path, capsys):
    assert main(["run", str(config_path), "--local"]) == 0
    out = capsys.readouterr().out
    assert "local run: 16 waveform sets" in out
    assert "phase C" in out


def test_trace_and_burst(config_path, tmp_path, capsys):
    out_dir = tmp_path / "traces"
    assert main(["trace", str(config_path), "-o", str(out_dir), "--seed", "2"]) == 0
    batch_csv = out_dir / "demo_batch.csv"
    jobs_csv = out_dir / "demo_jobs.csv"
    assert batch_csv.exists() and jobs_csv.exists()

    omega_csv = tmp_path / "omega.csv"
    assert (
        main(
            [
                "burst",
                str(batch_csv),
                str(jobs_csv),
                "--probe",
                "5",
                "--threshold",
                "1.0",
                "--csv",
                str(omega_csv),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "VDC bursting simulation" in out
    assert omega_csv.exists()


def test_dagfile(config_path, tmp_path, capsys):
    out_dir = tmp_path / "dag"
    assert main(["dagfile", str(config_path), "-o", str(out_dir)]) == 0
    assert (out_dir / "demo.dag").exists()
    subs = list(out_dir.glob("*.sub"))
    assert len(subs) >= 3  # A jobs + B + C jobs


def test_run_local_checkpoint_and_resume(config_path, tmp_path, capsys):
    arch = tmp_path / "arch"
    args = ["run", str(config_path), "--local", "--archive-dir", str(arch)]
    assert main(args + ["--checkpoint"]) == 0
    assert (arch / "manifest.json").exists()
    assert not (arch / "_checkpoint").exists()  # finalized
    assert main(args + ["--resume"]) == 0
    out = capsys.readouterr().out
    assert "chunks" in out and "resumed" in out
    assert "phase archive" in out


def test_recover_resubmits_remainder(config_path, tmp_path, capsys):
    from repro.core.config import FdwConfig
    from repro.core.workflow import build_fdw_dag

    config = FdwConfig.read(config_path)
    dag = build_fdw_dag(config)
    # The A jobs plus the B job form a consistent DONE prefix.
    done = [n for n in dag.node_names if "_A_" in n or "_B" in n]
    rescue = tmp_path / "demo.dag.rescue001"
    rescue.write_text(
        "# Rescue DAG for demo, attempt 1\n"
        + "".join(f"DONE {n}\n" for n in done)
    )
    assert main(["recover", str(config_path), str(rescue), "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert f"rescued {len(done)} completed node(s)" in out
    assert f"resubmitting the remaining {len(dag) - len(done)}" in out


def test_error_paths_exit_nonzero(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.cfg")]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["burst", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]) == 1


class TestWfCommands:
    def test_wf_export_import_round_trip(self, config_path, tmp_path, capsys):
        instance_json = tmp_path / "run.json"
        assert main(
            ["wf", "export", str(config_path), "-o", str(instance_json), "--seed", "3"]
        ) == 0
        assert instance_json.exists()
        reexport = tmp_path / "rt.json"
        assert main(
            ["wf", "import", str(instance_json), "--reexport", str(reexport)]
        ) == 0
        assert reexport.read_text() == instance_json.read_text()
        out = capsys.readouterr().out
        assert "tasks" in out and "categories" in out

    def test_wf_generate_deterministic(self, config_path, tmp_path):
        instance_json = tmp_path / "run.json"
        assert main(
            ["wf", "export", str(config_path), "-o", str(instance_json)]
        ) == 0
        gen_a = tmp_path / "gen_a.json"
        gen_b = tmp_path / "gen_b.json"
        for out in (gen_a, gen_b):
            assert main(
                ["wf", "generate", str(instance_json),
                 "-n", "40", "--seed", "9", "-o", str(out)]
            ) == 0
        assert gen_a.read_text() == gen_b.read_text()

    def test_wf_replay_with_burst_and_traces(self, config_path, tmp_path, capsys):
        instance_json = tmp_path / "run.json"
        assert main(
            ["wf", "export", str(config_path), "-o", str(instance_json)]
        ) == 0
        trace_dir = tmp_path / "traces"
        assert main(
            ["wf", "replay", str(instance_json), "--dagmans", "2",
             "--burst", "--trace-dir", str(trace_dir), "--seed", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "replay makespan" in out
        assert out.count("=== VDC bursting simulation") == 2
        assert len(list(trace_dir.glob("*_batch.csv"))) == 2
        assert len(list(trace_dir.glob("*_jobs.csv"))) == 2

    def test_wf_import_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not valid json")
        assert main(["wf", "import", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


def test_run_local_gf_dtype_override(config_path, capsys):
    assert main(["run", str(config_path), "--local", "--gf-dtype", "float32"]) == 0
    out = capsys.readouterr().out
    assert "local run: 16 waveform sets" in out


def test_gf_dtype_choices_enforced(config_path):
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["run", str(config_path), "--gf-dtype", "float16"]
        )


def test_serve_demo(capsys):
    assert (
        main(
            [
                "serve",
                "--tenants",
                "3",
                "--submissions",
                "12",
                "--distinct",
                "2",
                "--seed",
                "5",
                "--workers",
                "2",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "portal service demo (seed 5, backend 'sim')" in out
    assert "coalescing hit rate" in out
    assert "queue wait p50" in out
    assert "executions started per tenant:" in out


def test_serve_deterministic(capsys):
    args = ["serve", "--tenants", "2", "--submissions", "8", "--seed", "1"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_serve_backend_choices_enforced():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["serve", "--backend", "cloud"])
