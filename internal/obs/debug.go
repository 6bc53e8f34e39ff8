package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// DebugServer is the one debug HTTP endpoint a daemon exposes (-debug-addr):
// /metrics (Prometheus text format over every attached registry — the one
// exposition of every number the daemon keeps, read back with ParseText),
// /tracez (the tracer's two rings: sampled trees and slow requests), and
// /debug/pprof/* (the net/http/pprof handlers, mounted on this server's own
// mux rather than a bare http.ListenAndServe goroutine — so profiling shares
// the lifecycle, the listener closes on Shutdown, and a serve error surfaces
// on Done instead of being logged and lost).
type DebugServer struct {
	regs   []*Registry
	tracer *Tracer

	ln   net.Listener
	srv  *http.Server
	done chan error
}

// NewDebugServer builds a debug server for addr serving the given
// registries (scraped in order) and the node's tracer. Call Start to bind
// and serve.
func NewDebugServer(addr string, regs []*Registry, tracer *Tracer) *DebugServer {
	d := &DebugServer{regs: regs, tracer: tracer, done: make(chan error, 1)}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", d.handleMetrics)
	mux.HandleFunc("/tracez", d.handleTracez)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	d.srv = &http.Server{
		Addr:              addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
	return d
}

// Start binds the address and serves in the background. A failed bind is
// returned here; a later serve failure is delivered on Done.
func (d *DebugServer) Start() error {
	ln, err := net.Listen("tcp", d.srv.Addr)
	if err != nil {
		return fmt.Errorf("obs: debug server listen %s: %w", d.srv.Addr, err)
	}
	d.ln = ln
	go func() {
		err := d.srv.Serve(ln)
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		d.done <- err
	}()
	return nil
}

// Addr reports the bound address (useful with ":0" in tests). Empty before
// Start.
func (d *DebugServer) Addr() string {
	if d.ln == nil {
		return ""
	}
	return d.ln.Addr().String()
}

// Done delivers the serve loop's terminal error: nil after a clean
// Shutdown, or the failure that killed the listener.
func (d *DebugServer) Done() <-chan error { return d.done }

// Shutdown gracefully stops the server: no new connections, in-flight
// requests drain until ctx expires.
func (d *DebugServer) Shutdown(ctx context.Context) error {
	return d.srv.Shutdown(ctx)
}

func (d *DebugServer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	for _, r := range d.regs {
		if err := r.WriteProm(w); err != nil {
			return
		}
	}
}

// TracezBody is the /tracez JSON shape: the samples of both retention
// classes, newest first, and the threshold that makes a request slow.
type TracezBody struct {
	Recent        []TraceSample `json:"recent"`
	SlowThreshold time.Duration `json:"slow_threshold_ns"`
	Slow          []TraceSample `json:"slow"`
}

// handleTracez serves the tracer's rings: every recent sample, or — with
// ?trace=<id> — only that trace's samples, from whichever ring holds them.
// `memo trace` scrapes this from every node and merges the timelines.
func (d *DebugServer) handleTracez(w http.ResponseWriter, req *http.Request) {
	var id uint64
	if s := req.URL.Query().Get("trace"); s != "" {
		var err error
		if id, err = strconv.ParseUint(s, 0, 64); err != nil {
			http.Error(w, "tracez: bad trace id: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	writeJSON(w, TracezBody{
		Recent:        d.tracer.Sampled.Get(id),
		SlowThreshold: d.tracer.Threshold(),
		Slow:          d.tracer.Slow.Get(id),
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
