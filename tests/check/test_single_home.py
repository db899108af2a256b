"""One home per protocol: the ownership gate.

Two mechanisms sit under every frame on the wire — how an event enters
the scheduler's queue, and what a recycle pool's ``_claims`` count means.
Each used to be hand-copied into its callers ("inlined, keep in sync"),
and the copies drifted: the scheduler insert in ``Cable.transmit`` lost
``Simulator.post``'s past-time check.  These tests statically scan
``src/`` (the way ``tests/obs/test_registry_sync.py`` does for probe
names) and fail when a module other than the owner names the owner's
private state, so a new copy cannot land by accident.  There is no
allow-list: a cross-module copy needs a measured reason in
docs/performance.md's inlining ledger and a change to this file.
"""

import ast
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
PACKAGE = REPO / "src" / "repro"

#: name -> (pattern, the only modules that may match it)
PROTOCOLS = {
    "scheduler queue internals": (
        re.compile(r"\b(?:_heap|_cancelled_in_queue)\b"
                   r"|\bheap(?:push|pop|ify)\b"
                   # _seq also names ICMP and heartbeat fields, so only
                   # the simulator's is matched.
                   r"|\bsim\._seq\b"),
        {"sim/core.py"}),
    # A fired handle goes back into the queue through Simulator.rearm,
    # which gives it its seq; a timer that rewrote these fields itself
    # would queue nothing.
    "event handle re-arming": (
        re.compile(r"\bhandle\w*\.(?:time|_fired)\s*=(?!=)"),
        {"sim/core.py"}),
    "pool claim counts": (
        re.compile(r"\b_claims\b"),
        {"net/pool.py", "tcp/segment.py", "net/frame.py", "net/packet.py"}),
    "pool free lists": (
        re.compile(r"\b(?:FRAME_POOL|PACKET_POOL|SEGMENT_POOL)\b"),
        {"net/pool.py", "tcp/segment.py"}),
}

#: ``x < 64  # == COMPACT_MIN_QUEUE``: a literal standing in for a constant.
_LITERAL_FOR_CONSTANT = re.compile(r"#\s*==\s*([A-Z][A-Z0-9_]{2,})\b")


def _sources():
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path.relative_to(PACKAGE).as_posix(), \
            path.read_text(encoding="utf-8")


def _where(module, text, match):
    line = text.count("\n", 0, match.start()) + 1
    return f"{module}:{line}"


def test_each_protocol_is_named_only_by_its_owner():
    strays = {}
    seen_at_home = set()
    for module, text in _sources():
        for protocol, (pattern, homes) in PROTOCOLS.items():
            hits = [_where(module, text, m) for m in pattern.finditer(text)]
            if not hits:
                continue
            if module in homes:
                seen_at_home.add(protocol)
            else:
                strays.setdefault(protocol, []).extend(hits)
    assert seen_at_home == set(PROTOCOLS), (
        f"scan found nothing in the owning modules for "
        f"{set(PROTOCOLS) - seen_at_home} — pattern or layout changed?")
    assert not strays, (
        f"private state named outside its owning module (call the owner's "
        f"function instead: sim.post / sim.rearm / pool.retain / "
        f"release_* / demote_* / acquire_*): {strays}")


def test_the_tick_end_phase_and_the_receive_batch_stay_deleted():
    """``Simulator.run`` is pop-and-call: there is no second phase per
    instant for a layer to defer work into, and the one layer that did —
    the per-connection receive batch, which coalesced duplicate acks —
    processes each segment as it arrives (tests/tcp/test_same_instant.py).
    """
    gone = re.compile(r"\b(?:at_tick_end|_run_tick_end|_tick_end|_rx_pending"
                      r"|_in_batch|_flush_rx_batch|segment_batch_arrived)\b")
    strays = [f"{_where(module, text, m)} ({m.group(0)})"
              for module, text in _sources() for m in gone.finditer(text)]
    assert not strays, f"deleted mechanism named under src/: {strays}"


def test_sttcp_holds_the_gate_through_ext_and_never_swaps_transmit():
    """The backup keeps a replica quiet through the one declared hook,
    the ``gated`` flag of ``TcpConnection.ext`` — not by overwriting
    ``conn.transmit`` on a live connection, which is how a pooled RST once
    lost its claim — and the closure and saved attribute of the swap stay
    deleted."""
    swap = re.compile(r"\.transmit\s*=(?!=)")
    gone = re.compile(r"\b(?:_suppressor|original_transmit)\b")
    assert swap.search("conn.transmit = quiet")
    strays = [f"{_where(module, text, m)} ({m.group(0)})"
              for module, text in _sources()
              for m in (*gone.finditer(text),
                        *(swap.finditer(text)
                          if module.startswith("sttcp/") else ()))]
    assert not strays, f"output is held by ext.gated, not by: {strays}"
    backup = (PACKAGE / "sttcp" / "backup.py").read_text(encoding="utf-8")
    assert "gated" in backup


#: Last identifiers of expressions that name a TcpConnection, TcpStack or
#: Socket in src/repro/sttcp/ (``mc.conn``, ``self.host.tcp``, ``socket``).
_TCP_OBJECTS = {"conn", "connection", "tcp", "socket", "sock"}


def _tcp_attribute_writes(text):
    """(line, attribute) for each assignment to an attribute of a TCP
    object, by the names above."""
    writes = []
    for node in ast.walk(ast.parse(text)):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(
                       node, (ast.AugAssign, ast.AnnAssign)) else [])
        for target in targets:
            if not isinstance(target, ast.Attribute):
                continue
            owner = target.value
            name = getattr(owner, "attr", getattr(owner, "id", None))
            if name in _TCP_OBJECTS:
                writes.append((target.lineno, target.attr))
    return writes


def test_sttcp_reaches_tcp_through_one_extension():
    """Paper Secs. 2, 4.2.2 and 4.3 change TCP in five places (output
    gate, in-order tap, future-ack acceptance, FIN/RST gate, stack filter
    and accept notice); all of them are hooks of one ``TcpExtension``,
    reached through ``TcpConnection.ext`` and ``TcpStack.ext``.  The seven
    assignable hooks they replace stay deleted from src/ and tests/, the
    TCP layer names no ST-TCP state, the engines assign nothing on a TCP
    object but ``.ext``, and a connection's wire is fixed at
    construction."""
    from repro.sim.world import World
    from repro.tcp.connection import TcpConnection
    from repro.tcp.stack import TcpStack

    assert not [f"{_where(module, text, m)}" for module, text in _sources()
                if module.startswith("tcp/")
                for m in re.finditer(r"stt_", text)]

    hooks = ["output" + "_gate", "inorder" + "_tap",
             "stt_tolerate" + "_future_acks", "_future" + "_ack_off",
             "segment" + "_filter", "on_connection" + "_accepted",
             "close" + "_interceptor", "abort" + "_interceptor"]
    named = re.compile(r"\b(?:" + "|".join(hooks) + r")\b")
    assert named.search("conn." + hooks[0] + " = None")
    strays = []
    for root in (REPO / "src", REPO / "tests"):
        for path in sorted(root.rglob("*")):
            if path.suffix not in (".py", ".json", ".md"):
                continue
            text = path.read_text(encoding="utf-8")
            strays += [f"{_where(path.relative_to(REPO).as_posix(), text, m)}"
                       f" ({m.group(0)})" for m in named.finditer(text)]
    assert not strays, f"a deleted ST-TCP hook is named: {strays}"

    assert _tcp_attribute_writes("mc.conn." + hooks[0] + " = None\n"
                                 "self.host.tcp.ext = self\n") == [
        (1, hooks[0]), (2, "ext")]
    writes = [f"sttcp/{path.name}:{line} (.{attr})"
              for path in sorted((PACKAGE / "sttcp").glob("*.py"))
              for line, attr in _tcp_attribute_writes(
                  path.read_text(encoding="utf-8"))
              if attr != "ext"]
    assert not writes, f"ST-TCP sets TCP state outside .ext: {writes}"

    conn = TcpConnection(World(seed=1), "c", None, 1, None, 2)
    with pytest.raises(AttributeError):
        conn.transmit = lambda segment: None
    assert conn.ext is None
    assert not set(hooks) & {*TcpConnection.__slots__, *TcpStack.__slots__}


def test_the_wire_is_impaired_through_its_hook_and_never_stubbed():
    """Per-frame drops, duplicates and delays go through the one declared
    hook, ``Cable.impair`` — not by assigning ``transmit`` on a live
    cable, which production code then had to detect (``"transmit" in
    cable.__dict__``), carry an instance dict for, and demote pooled
    frames around.  The fabric classes are slots-only, and the NIC gate
    nothing ever set stays deleted."""
    gone = re.compile(r'__dict__|"transmit" in|power_gate|demote_frame')
    strays = [f"{_where(module, text, m)} ({m.group(0)})"
              for module, text in _sources() for m in gone.finditer(text)]
    assert not strays, f"stub accommodation named under src/: {strays}"
    stub = re.compile(r"cable\w*\.transmit\s*=(?!=)")
    assert stub.search("b_cable" + ".transmit = drop_everything")
    stubs = []
    for path in sorted((REPO / "tests").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        stubs += [_where(path.relative_to(REPO).as_posix(), text, m)
                  for m in stub.finditer(text)]
    assert not stubs, f"set cable.impair instead of stubbing transmit: {stubs}"
    cable = (PACKAGE / "net" / "cable.py").read_text(encoding="utf-8")
    assert "def impair" in cable


def test_components_report_through_the_bus_and_the_log_stays_deleted():
    """One emit path: a component fires a registered probe, and the
    milestone list ``World.trace`` is a subscriber like any other.  The
    second path — ``TraceLog.record`` from 33 call sites, the bus's
    mirror sink and filter listener, ``ProbeBus.enabled`` — stays
    deleted, and so does the option that was threaded through seven
    modules to carry one value: only ``World`` takes ``trace_categories``
    (the frozen benchmark drivers pass it), from one call in the builder.
    """
    # ``trace.record(``, not any ``.record(``: the stream logger's
    # LoggedConnection.record(segment) is not a log.
    gone = re.compile(r"\btrace\.record\(|\bTrace(?:Log|Record)\b|\b_trace\("
                      r"|\bon_filter_change\b|\.enabled\(")
    for sample in ("self.world.trace" + ".record(", "self._trace" + '("x")',
                   "Trace" + "Log", "bus.enabled" + '("hb.send")'):
        assert gone.search(sample), sample
    strays = [f"{_where(module, text, m)} ({m.group(0)})"
              for module, text in _sources() for m in gone.finditer(text)]
    assert not strays, f"second emit path named under src/: {strays}"
    assert not (PACKAGE / "sim" / "trace.py").exists()

    option = {module: text.count("trace_categories")
              for module, text in _sources() if "trace_categories" in text}
    assert set(option) == {"sim/world.py", "scenarios/builder.py"}, option
    assert option["scenarios/builder.py"] == 1, "one call, no parameter"

    two_args = []
    for path in sorted((*PACKAGE.rglob("*.py"),
                        *(REPO / "tests").rglob("*.py"))):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id",
                                getattr(node.func, "attr", "")) == "ProbeBus"
                    and len(node.args) + len(node.keywords) != 1):
                two_args.append(f"{path.relative_to(REPO)}:{node.lineno}")
    assert not two_args, f"ProbeBus takes the clock only: {two_args}"


def test_a_count_a_layer_keeps_is_not_fired_again():
    """``nic.tx``, ``nic.rx``, ``eth.forward`` and ``eth.flood`` used to
    be probes fired beside the very increments they repeated; they are
    the NICs' and switches' own counters now, declared once in each
    class's ``COUNTED`` and read by an ObsSession.  So are
    ``tcp.segment_rx`` and ``sttcp.suppress`` with their two ``*_total``
    keys: they were probes fired beside ``TcpConnection.segments_received``
    and ``ManagedBackupConn.suppressed_segments``, and are now run-long
    totals declared in ``World.COUNTED``.  Under sim/, net/, tcp/ and
    sttcp/ the eight names appear only as keys of those declarations, and
    the registry has none of them.  ``tcp.segment_tx`` is fired from
    ``_fire_segment_tx`` alone, with the live connection instead of a
    computed sender-state snapshot."""
    from repro.obs.registry import PROBES

    counted_keys = {"nic.tx", "nic.rx", "eth.forward", "eth.flood",
                    "tcp.segment_rx", "tcp.segments_received_total",
                    "sttcp.suppress", "sttcp.suppressed_segments_total"}
    names = re.compile(r"\b(?:nic\.tx|nic\.rx|eth\.forward|eth\.flood"
                       r"|tcp\.segment_rx|tcp\.segments_received_total"
                       r"|sttcp\.suppress|sttcp\.suppressed_segments_total)"
                       r"\b")
    assert not counted_keys & set(PROBES)
    declared, strays = set(), []
    for module, text in _sources():
        if not module.startswith(("sim/", "net/", "tcp/", "sttcp/")):
            continue
        counted_lines = set()
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.Assign)
                    and [getattr(t, "id", None) for t in node.targets]
                    == ["COUNTED"]):
                counted_lines.update(range(node.lineno, node.end_lineno + 1))
        for match in names.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            if line in counted_lines:
                declared.add(match.group(0))
            else:
                strays.append(f"{module}:{line} ({match.group(0)})")
    assert not strays, f"a layer counter fired or named as a probe: {strays}"
    assert declared == counted_keys

    fires = []
    for module, text in _sources():
        tree = ast.parse(text)
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "attr", "") == "fire"
                        and node.args
                        and getattr(node.args[0], "value", None)
                        == "tcp.segment_tx"):
                    fires.append((module, func.name,
                                  sorted(k.arg for k in node.keywords)))
    assert fires == [("tcp/connection.py", "_fire_segment_tx",
                      ["ack", "conn", "flags", "len", "seq", "win"])], fires
    gone = [f"{_where(module, text, m)}" for module, text in _sources()
            for m in re.finditer(r"\b_cc_extra\b", text)]
    assert not gone, f"the cc name comes from conn.cc.name: {gone}"


def test_no_literal_stands_in_for_another_modules_constant():
    """A ``# == NAME`` comment marks a literal kept equal to a constant by
    hand.  The last ones (the wheel geometry inside ``sim/core.py``) went
    with the wheel, so none is owned any more: a new one, in any module,
    must use the name."""
    assert _LITERAL_FOR_CONSTANT.search("if n < 64:  # == COMPACT_MIN_QUEUE")
    strays = [f"{_where(module, text, m)} ({m.group(1)})"
              for module, text in _sources()
              for m in _LITERAL_FOR_CONSTANT.finditer(text)]
    assert not strays, f"literal-with-comment copies of a constant: {strays}"


def test_scheduler_has_no_hand_synced_copies():
    core = (PACKAGE / "sim" / "core.py").read_text(encoding="utf-8")
    assert "keep in sync" not in core


def test_table_one_is_decided_in_one_place():
    """Paper Table 1's decision tree — crash, then NIC, then app lag — is
    ``detector.classify``, and the engine base turns its verdict into an
    event and a recovery.  The roles keep only their recovery action and
    housekeeping: the link checks, the ping criterion, the trackers and
    the crash/NIC events are not named in ``primary.py`` or ``backup.py``,
    and the per-role copies of the tree stay deleted everywhere."""
    in_roles = re.compile(r"check_links\(|peer_nic_failed\(|LagTracker\("
                          r"|EventKind\.PEER_CRASH_DETECTED"
                          r"|EventKind\.NIC_FAILURE_DETECTED|peer_hb_fresh\(")
    gone = re.compile(r"\b(?:_diagnose_backup_nic|_diagnose_primary_nic"
                      r"|_check_backup_app_failure|_check_primary_app_failure"
                      r"|app_failure_verdict|nic_failure_verdict)\b"
                      r"|\bupdate_trackers_from_")
    assert in_roles.search("self." + "check_links()")
    assert gone.search("mc.update_trackers_from_" + "backup(p)")
    strays = [f"{_where(module, text, m)} ({m.group(0)})"
              for module, text in _sources()
              for m in (*gone.finditer(text),
                        *(in_roles.finditer(text)
                          if module in ("sttcp/primary.py", "sttcp/backup.py")
                          else ()))]
    assert not strays, f"a second copy of the Table-1 tree: {strays}"
    detector = (PACKAGE / "sttcp" / "detector.py").read_text(encoding="utf-8")
    engine = (PACKAGE / "sttcp" / "engine.py").read_text(encoding="utf-8")
    assert "def classify(" in detector and "classify(" in engine


def test_the_peer_is_reached_over_one_channel():
    """Paper Sec. 3 gives the two servers one channel over two diverse
    links.  ``HeartbeatService`` is that channel: it sends and dispatches
    the control messages (ISN, FIN notices, missed-byte fetches) and owns
    the serial port's handler.  The second transport, the engine's
    serial-line demultiplexer and the service's serial entry point stay
    deleted; only the config and the service name the two UDP ports; and
    a connection is declared unrecoverable from one place, once."""
    gone = re.compile(r"\b(?:ControlChannel|deliver_from_serial"
                      r"|_on_serial_message)\b")
    strays = [f"{_where(module, text, m)} ({m.group(0)})"
              for module, text in _sources() for m in gone.finditer(text)]
    assert not strays, f"a second transport to the peer: {strays}"

    ports = re.compile(r"\b(?:hb_udp_port|control_udp_port)\b")
    named = {module for module, text in _sources() if ports.search(text)}
    assert named == {"sttcp/config.py", "sttcp/heartbeat.py"}, named

    declared = [_where(module, text, m) for module, text in _sources()
                if module.startswith("sttcp/")
                for m in re.finditer(r"\bEventKind\.UNRECOVERABLE\b", text)]
    assert len(declared) == 1, declared
