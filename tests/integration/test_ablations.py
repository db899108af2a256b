"""Ablations from paper Sec. 3: the design changes between the original
ST-TCP prototype and the demonstrated one, on the runs of the
``ablation_dual_hb`` and ``ablation_architecture`` experiments.

A2 (dual HB links): with a UDP-only heartbeat, a backup NIC failure makes
the *backup* believe the *primary* died — it wrongly powers the primary
down and takes over.  The dual-link design diagnoses it correctly.

A1 (state exchange over HB instead of tapping primary→client traffic):
with mirroring on and an 80 us per-frame CPU cost, the backup falls
behind and is eventually suspected as failed.
"""


class TestDualHbAblation:
    def test_dual_links_diagnose_backup_nic_correctly(self, experiment):
        run = experiment("ablation_dual_hb")["dual"]
        tb, client = run.testbed, run.client
        assert tb.pair.backup.takeover_at is None
        assert tb.pair.primary.mode == "non-fault-tolerant"
        assert tb.power_strip.was_powered_down("backup")
        assert not tb.power_strip.was_powered_down("primary")
        assert client.received == client.total_bytes

    # This run DEMONSTRATES a split brain; the invariant oracle (rightly)
    # flags sttcp.single-active, so tests/conftest.py exempts it.
    def test_single_link_misdiagnoses_backup_nic(self, experiment):
        """The paper's motivating bug: 'if the backup NIC failed, the
        backup would ... conclude that the primary has failed ... shut
        down the primary and attempt to take over'."""
        tb = experiment("ablation_dual_hb")["single"].testbed
        # The deaf backup saw total HB silence and "took over".
        assert tb.pair.backup.takeover_at is not None
        assert tb.power_strip.was_powered_down("primary")
        # With a dead NIC its takeover serves nobody: the incorrect
        # decision killed a healthy primary.


class TestOldArchitectureAblation:
    def test_new_architecture_survives_cpu_constrained_backup(
            self, experiment):
        """Without mirroring, the same CPU keeps up: the pair stays FT."""
        run = experiment("ablation_architecture")["new"]
        tb, client = run.testbed, run.client
        assert client.received == client.total_bytes
        assert tb.pair.primary.mode == "fault-tolerant"
        assert tb.pair.backup.mode == "fault-tolerant"

    def test_old_architecture_overloads_backup(self, experiment):
        """With primary->client traffic mirrored to the backup, the
        CPU-constrained backup lags ever further behind — the Sec. 3
        'backup starts lagging behind the primary' problem.  Depending on
        which detector races ahead, the overload manifests as the primary
        declaring the backup failed (app lag) or the starved backup
        mistaking the delayed heartbeats for a primary crash; either way
        the pair degrades out of fault-tolerant operation."""
        tb = experiment("ablation_architecture")["old"].testbed
        degraded = (tb.pair.primary.mode != "fault-tolerant"
                    or tb.pair.backup.mode != "fault-tolerant")
        assert degraded
        # The backup processed far more frames than the primary handled.
        assert tb.backup.cpu.jobs_run > tb.primary.ip.packets_received
