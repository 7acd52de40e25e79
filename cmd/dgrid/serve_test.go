package main

import (
	"net/http"
	"testing"
)

// TestNewHTTPServerTimeouts: the daemon bounds how long a client may
// take over its headers and how long an idle connection lives, but sets
// no read or write deadline that would cut a request body or a long SSE
// stream.
func TestNewHTTPServerTimeouts(t *testing.T) {
	h := http.NotFoundHandler()
	srv := newHTTPServer("127.0.0.1:0", h)
	if srv.Addr != "127.0.0.1:0" || srv.Handler == nil {
		t.Fatalf("addr/handler not applied: %q %v", srv.Addr, srv.Handler)
	}
	if srv.ReadHeaderTimeout != serveReadHeaderTimeout || serveReadHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want %v (> 0)", srv.ReadHeaderTimeout, serveReadHeaderTimeout)
	}
	if srv.IdleTimeout != serveIdleTimeout || serveIdleTimeout <= 0 {
		t.Fatalf("IdleTimeout = %v, want %v (> 0)", srv.IdleTimeout, serveIdleTimeout)
	}
	if srv.WriteTimeout != 0 || srv.ReadTimeout != 0 {
		t.Fatalf("WriteTimeout = %v, ReadTimeout = %v; both must be 0", srv.WriteTimeout, srv.ReadTimeout)
	}
}
