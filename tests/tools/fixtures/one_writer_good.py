"""Fixture: only ``_send`` writes; routes return what to send."""


class Handler:
    def _resolve(self, method):
        return self._status, ()

    def _send(self, status, body):
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self._headers_buffer.append(b"\r\n")
        self.connection.sendmsg([b"".join(self._headers_buffer), body])

    def _status(self):
        return 200, b"{}"


class Client:
    """No routing table: writes anywhere are out of the rule's scope."""

    def push(self, body):
        self.connection.sendall(body)
