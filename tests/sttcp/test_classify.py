"""Table 1's decision tree, checked on every point of a small scope.

``classify`` is small enough to enumerate, so it is (the small-scope
method of "Evaluating SCTP using Uppaal", PAPERS.md).  The space:

* each HB link (IP, serial) fresh or stale;
* the peer's heartbeats fresh or not;
* gateway-ping asymmetry or not;
* 0-2 connections, each with a NIC answer (none, rx, ack), an app answer
  (none, read, write) and a FIN answer (none, matured);
* both roles — the backup's connections have no ack tracker and take
  their ``fin_verdict`` from ``ManagedBackupConn`` itself.

Fake connections log every call, so the test holds the contract of
docs/paper-mapping.md ("Table 1 contract") on the answer *and* on which
questions were asked: ``LagTracker.verdict`` fires ``detect.verdict``
and re-arms its edge trigger, so a tracker asked out of turn would change
the run.  Heartbeat lateness is not a detector input yet; when it becomes
one (ROADMAP item 1), each link's "late" state joins this space.
"""

import itertools

from repro.sttcp.backup import ManagedBackupConn
from repro.sttcp.detector import Verdict, classify
from repro.sttcp.engine import _RESPONSES

EVIDENCE = 123_456_789
ROLES = {"primary": ("rx", "ack"), "backup": ("rx",)}


class FakeTracker:
    def __init__(self, log, name, answer):
        self.log, self.name, self.answer = log, name, answer

    def verdict(self, evidence_ns):
        assert evidence_ns == EVIDENCE
        self.log.append(self.name)
        return self.answer


class FakeConn:
    def __init__(self, log, index, role, nic, app, fin):
        self.log, self.index, self.role, self.fin = log, index, role, fin
        self.key = ("conn", index)
        self.nic_trackers = tuple(
            FakeTracker(log, (index, f"nic-{n}"),
                        f"{index}:nic-{n}" if nic == n else None)
            for n in ROLES[role])
        self.app_trackers = tuple(
            FakeTracker(log, (index, f"app-{n}"),
                        f"{index}:app-{n}" if app == n else None)
            for n in ("read", "write"))

    def refresh_nic(self):
        self.log.append((self.index, "refresh-nic"))

    def refresh_app(self):
        self.log.append((self.index, "refresh-app"))

    def fin_verdict(self):
        self.log.append((self.index, "fin"))
        if self.role == "backup":
            return ManagedBackupConn.fin_verdict(self)
        return f"{self.index}:fin" if self.fin == "matured" else None


def _points():
    per_conn = list(itertools.product(("none", "rx", "ack"),
                                      ("none", "read", "write"),
                                      ("none", "matured")))
    for role, nics in ROLES.items():
        answers = [a for a in per_conn if a[0] == "none" or a[0] in nics]
        conn_sets = [combo for n in range(3)
                     for combo in itertools.product(answers, repeat=n)]
        for ip_up, serial_up, fresh, ping, conns in itertools.product(
                (True, False), (True, False), (True, False), (True, False),
                conn_sets):
            yield role, ip_up, serial_up, fresh, ping, conns


def _first(conns, pick):
    """(index, answer) of the first connection with a non-"none" answer."""
    for index, answers in enumerate(conns):
        if pick(answers) != "none":
            return index, pick(answers)
    return None


def test_every_point_obeys_the_contract():
    detectors = set()
    count = 0
    for role, ip_up, serial_up, fresh, ping, answers in _points():
        count += 1
        log = []
        conns = [FakeConn(log, i, role, *a) for i, a in enumerate(answers)]
        verdict = classify(ip_up, serial_up, fresh, ping, EVIDENCE, conns)
        point = (role, ip_up, serial_up, fresh, ping, answers, verdict, log)
        if verdict is not None:
            detectors.add(verdict.detector)
            assert isinstance(verdict, Verdict), point

        if not ip_up and not serial_up:
            # Row 1: HB silence on both links; no connection is asked.
            assert verdict == ("hb-silence", None,
                               "HB failure on both links"), point
            assert log == [], point
            continue

        if not ip_up:
            # Row 4: the first NIC answer in connection order, then pings.
            assert all(call[1] in ("refresh-nic", "nic-rx", "nic-ack")
                       for call in log), point
            first = _first(answers, lambda a: a[0])
            if first is not None:
                index, which = first
                assert verdict == ("nic-lag", ("conn", index),
                                   f"{index}:nic-{which}"), point
                assert log[-1] == (index, f"nic-{which}"), point
            elif ping:
                assert verdict == ("ping-asymmetry", None,
                                   "gateway pings failing, ours succeed"), \
                    point
            else:
                assert verdict is None, point
            asked = first[0] + 1 if first else len(answers)
            expected = []
            for i in range(asked):
                expected.append((i, "refresh-nic"))
                for n in ROLES[role]:
                    expected.append((i, f"nic-{n}"))
                    if first == (i, n):
                        break
            assert log == expected, point
            continue

        if not fresh:
            # Stale counters are the crash detector's evidence.
            assert verdict is None and log == [], point
            continue

        # Rows 2 and 3: per connection, app lag, then the FIN rule.
        assert all(call[1] in ("refresh-app", "app-read", "app-write", "fin")
                   for call in log), point
        expected, want = [], None
        for i, (_nic, app, fin) in enumerate(answers):
            expected.append((i, "refresh-app"))
            expected.append((i, "app-read"))
            if app == "read":
                want = ("app-lag", ("conn", i), f"{i}:app-read")
                break
            expected.append((i, "app-write"))
            if app == "write":
                want = ("app-lag", ("conn", i), f"{i}:app-write")
                break
            expected.append((i, "fin"))
            if role == "primary" and fin == "matured":
                want = ("fin-disagreement", ("conn", i), f"{i}:fin")
                break
        assert verdict == want, point
        assert log == expected, point

    assert count > 7_000
    # Every detector classify can name has exactly one engine response.
    assert detectors == set(_RESPONSES)


def test_the_backup_never_reports_fin_disagreement():
    verdicts = set()
    for role, ip_up, serial_up, fresh, ping, answers in _points():
        if role != "backup":
            continue
        conns = [FakeConn([], i, role, *a) for i, a in enumerate(answers)]
        verdict = classify(ip_up, serial_up, fresh, ping, EVIDENCE, conns)
        verdicts.add(verdict and verdict.detector)
    assert "fin-disagreement" not in verdicts
    assert {"hb-silence", "nic-lag", "ping-asymmetry", "app-lag",
            None} == verdicts
