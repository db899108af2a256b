"""ST-TCP: Server fault-Tolerant TCP — the paper's contribution.

Public surface::

    from repro.sttcp import (
        SttcpConfig, SttcpPair, PrimaryEngine, BackupEngine,
        Heartbeat, ConnProgress, EventKind,
    )

See DESIGN.md for the architecture and the mapping from paper sections to
modules.
"""

from repro.sttcp.backup import BackupEngine, ManagedBackupConn
from repro.sttcp.config import SttcpConfig
from repro.sttcp.control import (
    AppFailureNotice,
    ConnClosed,
    ConnInit,
    FetchReply,
    FetchRequest,
)
from repro.sttcp.detector import LagTracker, PingScoreboard
from repro.sttcp.engine import (
    MODE_ACTIVE,
    MODE_FT,
    MODE_NON_FT,
    MODE_STOPPED,
    SttcpEngine,
)
from repro.sttcp.events import EngineEvent, EngineEventLog, EventKind
from repro.sttcp.heartbeat import LINK_IP, LINK_SERIAL, HeartbeatService
from repro.sttcp.logger import LOGGER_UDP_PORT, LoggedConnection, StreamLogger
from repro.sttcp.manager import SttcpPair
from repro.sttcp.primary import ManagedPrimaryConn, PrimaryEngine
from repro.sttcp.state import (
    ROLE_BACKUP,
    ROLE_PRIMARY,
    ConnKey,
    ConnProgress,
    Heartbeat,
)

__all__ = [
    "AppFailureNotice",
    "BackupEngine",
    "ConnClosed",
    "ConnInit",
    "ConnKey",
    "ConnProgress",
    "EngineEvent",
    "EngineEventLog",
    "EventKind",
    "FetchReply",
    "FetchRequest",
    "Heartbeat",
    "HeartbeatService",
    "LINK_IP",
    "LINK_SERIAL",
    "LOGGER_UDP_PORT",
    "LoggedConnection",
    "LagTracker",
    "MODE_ACTIVE",
    "MODE_FT",
    "MODE_NON_FT",
    "MODE_STOPPED",
    "ManagedBackupConn",
    "ManagedPrimaryConn",
    "PingScoreboard",
    "PrimaryEngine",
    "ROLE_BACKUP",
    "ROLE_PRIMARY",
    "SttcpConfig",
    "SttcpEngine",
    "SttcpPair",
    "StreamLogger",
]
