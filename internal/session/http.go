package session

import (
	"net/http"
	"time"
)

// Bounds for the HTTP servers beside the grid protocol: the metrics/pprof
// endpoint and the Web-services gateway.
const (
	// httpReadTimeout bounds reading one whole request, body included;
	// gateway requests are small XML envelopes.
	httpReadTimeout = 30 * time.Second
	// httpIdleTimeout bounds how long a keep-alive connection may sit
	// between requests.
	httpIdleTimeout = 2 * time.Minute
)

// NewHTTPServer returns an http.Server for h whose every read is bounded,
// so a client that connects and sends one byte a minute is cut off: the
// request header must arrive within the session handshake bound, the whole
// request within httpReadTimeout, and an idle keep-alive connection is
// closed after httpIdleTimeout.
//
// WriteTimeout stays unset: /debug/pprof/profile?seconds=N streams its
// answer for N seconds, and a write bound would cut every profile longer
// than it.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: time.Duration(handshakeTimeout.Load()),
		ReadTimeout:       httpReadTimeout,
		IdleTimeout:       httpIdleTimeout,
	}
}
