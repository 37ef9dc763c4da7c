package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// loopback is one HTTP tier served on a loopback TCP listener.
type loopback struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

// serveLoopback serves h on 127.0.0.1 with the timeouts the malevade serve
// and gateway commands use.
func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &loopback{
		srv: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       time.Minute,
			WriteTimeout:      5 * time.Minute,
			IdleTimeout:       2 * time.Minute,
		},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // always ErrServerClosed: close stops it
	}()
	return l, nil
}

// close shuts the listener and every connection, and waits for the serving
// goroutine to end.
func (l *loopback) close() {
	_ = l.srv.Close() // nothing to report: the tier is being torn down
	<-l.done
}

// newTransport returns a connection pool with the client SDK's default
// settings. Each tier gets its own, as separate processes would.
func newTransport() *http.Transport {
	return &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     90 * time.Second,
	}
}

// tracedClient is an http.Client over next whose round trips are recorded
// as boundary name, nested in parent.
func tracedClient(t *tracer, name, parent string, next http.RoundTripper) *http.Client {
	return &http.Client{Transport: &traceTransport{t: t, name: name, parent: parent, next: next}}
}

// scrapeURL fetches a /metrics exposition.
func scrapeURL(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, errors.New("metrics scrape: " + resp.Status)
	}
	return raw, nil
}
