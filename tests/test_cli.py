"""Tests for repro.cli."""

import hashlib
from pathlib import Path

import pytest

from repro.cli import build_parser, main

EXAMPLE_INSTANCE = Path(__file__).resolve().parents[1] / "examples" / "fdw64_wfformat.json"


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


def _sha256s(directory):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
    }


def test_trace_csvs_pinned(config_path, tmp_path):
    """`repro trace` output, byte for byte: the CSV pair is the bursting
    simulator's input format, so its bytes are part of the interface."""
    out_dir = tmp_path / "traces"
    assert main(["trace", str(config_path), "-o", str(out_dir), "--seed", "2"]) == 0
    assert _sha256s(out_dir) == {
        "demo_batch.csv": "5ad2895e10227ed77576857305216c31555d253a2756c5710349d29d91adf204",
        "demo_jobs.csv": "085eac3718463722451e88aada50db8570a9a516315a6ce26fe0bf002c38f7bb",
    }


def test_wf_replay_trace_csvs_pinned(tmp_path):
    """`repro wf replay --trace-dir` writes the same format through the
    same writer as `repro trace`."""
    out_dir = tmp_path / "traces"
    assert main(
        ["wf", "replay", str(EXAMPLE_INSTANCE), "--trace-dir", str(out_dir),
         "--seed", "0"]
    ) == 0
    assert _sha256s(out_dir) == {
        "fdw64_batch.csv": "798d460f43ae1df9e1dca6c6d39e683d018f4b7e08821aa7130748cfd46ab9f7",
        "fdw64_jobs.csv": "adeecb37dc17ed8d3bcf8b5a3a2ac0e0fbd95e4f12461193eed9995a3256e834",
    }


def test_figures_csvs_pinned(tmp_path):
    """`repro figures` output, byte for byte, at a small scale: the CSVs
    hold the paper-figure numbers, so no refactor of the pool, the
    monitor or the DAG substrate may move them."""
    out_dir = tmp_path / "figures"
    assert main(["figures", "-o", str(out_dir), "--scale", "0.01"]) == 0
    assert _sha256s(out_dir) == {
        "fig2_quantities.csv": "2e4913cd9ef1e33f33f70280c41c5d22194f9fb7a036d9d6ee4d1888b8e474be",
        "fig3_concurrent_dagmans.csv": "f868be4c09fc333d200648264b78461727e31f16cd6b959e6ae33b8bffee7ccf",
        "fig4_k1_exec_sorted_s.csv": "a083cfaf13bc5f6ab84947699d41e4ef1c5c5b6431ba5ed4a01cd4183013b915",
        "fig4_k1_instant_throughput_jpm.csv": "ceff3434231ee0556268f015cd41067912d2ed9f8052e66c5667a5e1b4ba7a36",
        "fig4_k1_running_jobs.csv": "7b80df4044f2c31aa52fa3e312b2fe24764e14681aa12ccc7a6382b248bad517",
        "fig4_k1_wait_sorted_s.csv": "e73657cecb2c268efca1379569c26129e96d7138ea7931a15e1b6bb61872960b",
        "fig4_k4_exec_sorted_s.csv": "d91e98dee9aa1e73ce0097068dc1bba9152cf0a83bb2c1e08d39abc8858d8db1",
        "fig4_k4_instant_throughput_jpm.csv": "5da81a7f4dbc66579f11d4408212fdabdf3b0288b0870c37c2ab97b6734598bd",
        "fig4_k4_running_jobs.csv": "4bd55865f85240b99c9bd8d0844f2192004c9955eb8258169b968aaafecb6c68",
        "fig4_k4_wait_sorted_s.csv": "6271c04cb1e59ab07b9e5326eea314617415357f02e52f0592e6f86010f6deab",
        "fig5_bursting.csv": "be83afaccb3c1a482e4e0720599e29ebdad28e09b21be6406968f7a7403295f8",
    }


def test_burst_malformed_job_count_is_an_error(tmp_path, capsys):
    """A batch header whose n_jobs is not an integer is a trace error
    naming the file, not a traceback."""
    batch = tmp_path / "bad_batch.csv"
    jobs = tmp_path / "bad_jobs.csv"
    batch.write_text("dagman,submit_s,first_execute_s,end_s,n_jobs\nd,0,1,10,one\n")
    jobs.write_text("node,phase,submit_s,start_s,end_s\nx,A,0,1,2\n")
    assert main(["burst", str(batch), str(jobs)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "bad_batch.csv" in err


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


def test_run_local_malformed_manifest_is_an_error(config_path, tmp_path, capsys):
    arch = tmp_path / "arch"
    arch.mkdir()
    (arch / "manifest.json").write_text('{"archive": "x"}')
    assert main(["run", str(config_path), "--local", "--archive-dir", str(arch)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "manifest.json" in err


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
