package main

// The serve and gateway commands share one hardened HTTP serving loop.
// Defaults close the classic slow-client holes — a slowloris peer that
// dribbles header bytes forever, a reader that never drains the response —
// while staying generous enough for big campaign submissions, and the
// listener is bound before the loop starts so `-addr :0` (tests, parallel
// fleets on one host) reports the port the kernel actually picked.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"malevade/internal/obs"
)

// httpTimeouts carries the shared -read-timeout/-write-timeout/
// -idle-timeout/-drain flags.
type httpTimeouts struct {
	read, write, idle, drain time.Duration
}

// httpTimeoutFlags registers the shared serving-timeout flags on fs.
func httpTimeoutFlags(fs *flag.FlagSet) *httpTimeouts {
	t := &httpTimeouts{}
	fs.DurationVar(&t.read, "read-timeout", time.Minute,
		"max time to read one request, headers and body (0 disables; slow-client guard)")
	fs.DurationVar(&t.write, "write-timeout", 5*time.Minute,
		"max time to write one response (0 disables)")
	fs.DurationVar(&t.idle, "idle-timeout", 2*time.Minute,
		"how long an idle keep-alive connection is kept open (0 disables)")
	fs.DurationVar(&t.drain, "drain", 10*time.Second, "graceful-shutdown drain timeout")
	return t
}

// hardenedServer builds the http.Server both daemons serve through. The
// header read gets its own, tighter deadline (at most 10s, never longer
// than the full read timeout): header bytes are the slowloris vector and
// no legitimate client needs a minute to finish them.
func hardenedServer(handler http.Handler, t *httpTimeouts) *http.Server {
	headerTimeout := 10 * time.Second
	if t.read > 0 && t.read < headerTimeout {
		headerTimeout = t.read
	}
	return &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: headerTimeout,
		ReadTimeout:       t.read,
		WriteTimeout:      t.write,
		IdleTimeout:       t.idle,
	}
}

// runHTTP is the shared serving loop: bind addr (":0" works — the banner
// receives the bound address), serve handler on a hardened http.Server,
// then block handling signals: SIGHUP invokes onHUP (ignored when nil),
// SIGTERM/SIGINT drain within t.drain and return nil. The signal handler
// is installed before the banner announces the address, so a signal sent
// by whoever reads the banner is always drained, never fatal.
func runHTTP(name, addr string, handler http.Handler, t *httpTimeouts, log *slog.Logger, onHUP func(), banner func(bound string)) error {
	log = obs.Or(log)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("%s: listen %s: %w", name, addr, err)
	}
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGHUP, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigCh)
	httpSrv := hardenedServer(handler, t)
	errCh := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()
	if banner != nil {
		banner(ln.Addr().String())
	}
	for {
		select {
		case err := <-errCh:
			return fmt.Errorf("%s: %w", name, err)
		case sig := <-sigCh:
			if sig == syscall.SIGHUP {
				if onHUP != nil {
					onHUP()
				}
				continue
			}
			log.Info("draining", "command", name, "signal", sig.String(),
				"timeout", t.drain.String())
			ctx, cancel := context.WithTimeout(context.Background(), t.drain)
			err := httpSrv.Shutdown(ctx)
			cancel()
			if err != nil {
				return fmt.Errorf("%s: shutdown: %w", name, err)
			}
			return nil
		}
	}
}

// obsFlags carries the shared observability flags: structured-log level
// and format, plus the optional pprof debug listener. The debug listener
// binds its own address and never joins the public mux — profiling
// endpoints must not be reachable by scoring clients.
type obsFlags struct {
	logLevel, logFormat, debugAddr string
}

// observabilityFlags registers -log-level/-log-format/-debug-addr on fs.
func observabilityFlags(fs *flag.FlagSet) *obsFlags {
	o := &obsFlags{}
	fs.StringVar(&o.logLevel, "log-level", "info",
		"structured log level: debug, info, warn, or error")
	fs.StringVar(&o.logFormat, "log-format", "text",
		"structured log format: text or json")
	fs.StringVar(&o.debugAddr, "debug-addr", "",
		"optional net/http/pprof listen address (e.g. 127.0.0.1:6060); off by default, never on the public address")
	return o
}

// logger builds the process logger from the parsed flags.
func (o *obsFlags) logger() (*slog.Logger, error) {
	return obs.NewLogger(os.Stderr, o.logLevel, o.logFormat)
}

// startDebug starts the pprof listener when -debug-addr was given. The
// returned stop function closes it; both are no-ops without the flag.
func (o *obsFlags) startDebug(log *slog.Logger) (func(), error) {
	if o.debugAddr == "" {
		return func() {}, nil
	}
	ln, err := net.Listen("tcp", o.debugAddr)
	if err != nil {
		return nil, fmt.Errorf("debug listener: listen %s: %w", o.debugAddr, err)
	}
	srv := &http.Server{Handler: obs.DebugHandler(), ReadHeaderTimeout: 10 * time.Second}
	go srv.Serve(ln)
	log.Info("pprof debug listener up", "addr", ln.Addr().String())
	return func() { srv.Close() }, nil
}

// stringList is a repeatable string flag (e.g. -replica A -replica B).
type stringList []string

func (l *stringList) String() string { return strings.Join(*l, ",") }

// Set appends one value; repeat the flag to accumulate.
func (l *stringList) Set(v string) error {
	*l = append(*l, v)
	return nil
}
