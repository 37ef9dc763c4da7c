package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The slowloris regression: before httpserve.go the daemon's http.Server
// had no timeouts at all, so a peer could open a connection, dribble one
// header byte a minute, and hold a goroutine + fd forever. The hardened
// construction must cut such a connection off at the header-read deadline.
func TestHardenedServerClosesSlowloris(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	timeouts := &httpTimeouts{read: 150 * time.Millisecond, write: time.Second, idle: time.Second}
	srv := hardenedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}), timeouts)
	if srv.ReadHeaderTimeout != 150*time.Millisecond {
		t.Fatalf("ReadHeaderTimeout = %v, want clamped to read timeout 150ms", srv.ReadHeaderTimeout)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send a partial request line and then stall, like a slowloris client.
	if _, err := conn.Write([]byte("POST /v1/label HTTP/1.1\r\nHost: x\r\nX-Slow: ")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 512)
	start := time.Now()
	for {
		_, err := conn.Read(buf)
		if err != nil {
			break // server closed (or answered 408 then closed) — either ends the hold
		}
	}
	if held := time.Since(start); held > 3*time.Second {
		t.Fatalf("stalled connection held for %v; hardened server should cut it at the header deadline", held)
	}
}

// A default-constructed http.Server (the old bug) never applies deadlines;
// guard that the flag defaults keep every deadline non-zero so a future
// refactor can't silently revert the hardening.
func TestHTTPTimeoutFlagDefaultsAreFinite(t *testing.T) {
	t.Parallel()
	fs := newTestFlagSet()
	timeouts := httpTimeoutFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if timeouts.read <= 0 || timeouts.write <= 0 || timeouts.idle <= 0 || timeouts.drain <= 0 {
		t.Fatalf("timeout flag defaults must be positive, got %+v", timeouts)
	}
	srv := hardenedServer(http.NotFoundHandler(), timeouts)
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.WriteTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("hardened server must set every deadline, got %+v", srv)
	}
}

// runHTTP must bind before serving so `-addr :0` learns the real port: the
// banner's address has to be dialable. SIGTERM then drains it cleanly. The
// banner callback itself dials the address and sends the SIGTERM, the
// earliest moment a supervisor that reads the banner could: runHTTP must
// already be handling the signal by then, or it kills the test binary.
func TestRunHTTPBindsPortZero(t *testing.T) {
	timeouts := &httpTimeouts{read: time.Second, write: time.Second, idle: time.Second, drain: time.Second}
	var bound string
	var status int
	var dialErr, killErr error
	banner := func(addr string) {
		bound = addr
		resp, err := http.Get("http://" + addr + "/")
		if err != nil {
			dialErr = err
		} else {
			status = resp.StatusCode
			resp.Body.Close()
		}
		// Delivered process-wide, caught by runHTTP's Notify (this test
		// must not run in parallel with another runHTTP loop).
		killErr = syscall.Kill(os.Getpid(), syscall.SIGTERM)
	}
	errCh := make(chan error, 1)
	go func() {
		errCh <- runHTTP("test", "127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, "pong")
		}), timeouts, nil, nil, banner)
	}()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("drain after SIGTERM: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("runHTTP did not drain after SIGTERM")
	}
	if bound == "" {
		t.Fatal("runHTTP never announced a bound address")
	}
	if strings.HasSuffix(bound, ":0") {
		t.Fatalf("banner got %q; want the kernel-assigned port, not :0", bound)
	}
	if dialErr != nil {
		t.Fatalf("dialing the announced address: %v", dialErr)
	}
	if status != http.StatusOK {
		t.Fatalf("status %d from announced address", status)
	}
	if killErr != nil {
		t.Fatal(killErr)
	}
}

// cmdGateway refuses to start with no replicas and surfaces fleet-file
// problems as errors rather than serving an empty fleet.
func TestCmdGatewayFlagValidation(t *testing.T) {
	t.Parallel()
	if err := run([]string{"gateway", "-addr", "127.0.0.1:0"}); err == nil {
		t.Fatal("expected an error with no replicas configured")
	}
	if err := run([]string{"gateway", "-fleet", "/nonexistent/fleet.json"}); err == nil {
		t.Fatal("expected an error for a missing fleet file")
	}
	if err := run([]string{"gateway", "-replica", "   "}); err == nil {
		t.Fatal("expected an error for a blank replica URL")
	}
}

func newTestFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}
