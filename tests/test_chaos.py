"""Tests for repro.chaos (seeded chaos campaigns)."""

import pytest

from repro.chaos import ChaosConfig, ChaosReport, archive_bytes, run_chaos_campaign
from repro.core.config import FdwConfig
from repro.core.submit_osg import run_fdw_batch
from repro.faults import TransferFaults


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """One full three-stage campaign, shared by the assertions below."""
    workdir = tmp_path_factory.mktemp("chaos")
    return run_chaos_campaign(workdir, ChaosConfig(seed=7)), workdir


def test_campaign_archive_bit_identical(campaign):
    """Acceptance: corruption + flakes + transfer faults + an outage
    window, and the final archive still matches the fault-free run."""
    report, _ = campaign
    assert report.bit_identical
    assert report.n_products > 0


def test_campaign_quarantined_evidence_preserved(campaign):
    report, workdir = campaign
    # The storm corrupted a checkpoint chunk, a checkpointed product, a
    # GF bank, a K-L basis, and the VDC's cached bank copy — all
    # quarantined, none deleted. The torn product takes its C chunk's
    # record with it.
    assert len(report.quarantined) >= 4
    kinds = "\n".join(report.quarantined)
    assert "A_" in kinds and "gf_" in kinds and "kl_" in kinds
    products = [
        rel for rel in report.quarantined
        if rel.startswith("chaos/_quarantine/") and rel.endswith(".npz")
    ]
    assert products and "chaos/_quarantine/C_" in kinds
    for rel in report.quarantined:
        assert (workdir / rel).exists()


def test_campaign_retries_and_backoff_accounted(campaign):
    report, _ = campaign
    assert sum(report.chunk_retries.values()) >= 1  # the injected flakes
    assert report.retry_backoff_s > 0.0
    assert report.n_transfer_faults >= 1
    assert report.n_transfer_retries >= report.n_degraded_transfers
    assert report.pool_makespan_faulted_s >= report.pool_makespan_s


def test_campaign_breaker_lifecycle(campaign):
    report, _ = campaign
    snaps = {s["name"]: s for s in report.breaker_snapshots}
    assert set(snaps) == {"gateway", "origin", "mirror"}
    origin = snaps["origin"]
    assert origin["n_opens"] >= 1  # the outage tripped it
    assert origin["n_rejected"] >= 1  # fail-fast while open
    assert origin["state"] == "closed"  # and the probe healed it
    assert report.n_failovers >= 1  # mirror served the dark window
    assert report.n_rebuilds == 1  # the corrupted bytes were rebuilt


def test_campaign_summary_renders(campaign):
    report, _ = campaign
    text = report.summary()
    assert "BIT-IDENTICAL" in text
    assert "failover" in text and "breaker origin" in text


def test_report_summary_diverged_verdict():
    assert "DIVERGED" in ChaosReport(seed=0, bit_identical=False, n_products=0).summary()


# -- helpers ------------------------------------------------------------------


def test_archive_bytes_excludes_operational_dirs(tmp_path):
    (tmp_path / "waveforms").mkdir()
    (tmp_path / "waveforms" / "w.npz").write_bytes(b"data")
    (tmp_path / "_checkpoint").mkdir()
    (tmp_path / "_checkpoint" / "manifest.json").write_bytes(b"state")
    (tmp_path / "_quarantine").mkdir()
    (tmp_path / "_quarantine" / "bad.pkl").write_bytes(b"evidence")
    assert archive_bytes(tmp_path) == {"waveforms/w.npz": b"data"}


# -- satellite (d): determinism under injected transfer faults ----------------


def _faulted_batch(seed):
    config = FdwConfig(
        n_waveforms=4, n_stations=3, mesh=(8, 5), chunk_a=2, chunk_c=2, name="det"
    )
    faults = TransferFaults(failure_prob=0.2, slow_prob=0.1, seed=seed)
    result = run_fdw_batch(config, seed=seed, transfer_faults=faults)
    return result, faults


def test_same_seed_same_products_under_transfer_faults():
    """Two runs with the same seed see the same fault draws, the same
    retry schedules, and finish at the identical makespan."""
    a, fa = _faulted_batch(11)
    b, fb = _faulted_batch(11)
    assert fa.n_failures == fb.n_failures and fa.n_failures >= 1
    assert fa.n_slow == fb.n_slow
    assert a.batch_makespan_s() == b.batch_makespan_s()
    assert a.runtime_s("det") == b.runtime_s("det")
    assert {n: log.render() for n, log in a.user_logs.items()} == {
        n: log.render() for n, log in b.user_logs.items()
    }
