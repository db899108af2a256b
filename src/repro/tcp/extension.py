"""The one way ST-TCP changes what TCP does (paper Secs. 2, 4.2.2, 4.3).

``TcpConnection.ext`` and ``TcpStack.ext`` are ``None`` unless an
extension is loaded.  A hook TCP would call per segment is declared by a
flag, so where it is unused TCP pays an attribute test, not a call; an
extension that sets the flag defines the method.
"""

from __future__ import annotations

__all__ = ["TcpExtension"]


class TcpExtension:
    """Hooks with no-op defaults; an extension overrides what it uses."""

    # --- per connection (conn.ext) ---
    #: Output gate: every segment the connection would send goes to
    #: :meth:`hold`; sender state advances as if it had left.
    gated = False
    #: Newly in-order peer bytes go to ``tap(offset, data)``.
    taps = False
    #: Highest ack past the send buffer's end :meth:`accept_future_ack`
    #: took; ``write()`` applies it.
    future_ack_off = 0

    def hold(self, length: int, flags: int) -> None:
        """A segment (payload length, flags) stayed behind the gate."""

    def accept_future_ack(self, ack_off: int) -> bool:
        """An ack past all the application wrote: True takes it."""
        return False

    def intercept_close(self, socket) -> bool:
        """``socket.close()``: True consumes the FIN."""
        return False

    def intercept_abort(self, socket) -> bool:
        """``socket.abort()``: True consumes the RST."""
        return False

    # --- per stack (stack.ext) ---
    #: Inbound segments go to ``filter_segment(segment, src_ip, dst_ip)``
    #: before demux; True consumes one.
    filters = False

    def accepted(self, conn, socket, listener) -> None:
        """A listener accepted ``conn``; its SYN is fed next."""
