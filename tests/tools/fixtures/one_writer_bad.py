"""Fixture: a routed handler that writes a response outside ``_send``."""


class Handler:
    def _resolve(self, method):
        return self._status, ()

    def _send(self, status, body):
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _status(self):
        # BAD: a second write path, with no disconnect rule or byte count.
        self.send_response(200)
        self.end_headers()
        self.wfile.write(b"{}")

    def _stream(self, chunks):
        for chunk in chunks:
            self.connection.sendall(chunk)  # BAD: a raw socket write
