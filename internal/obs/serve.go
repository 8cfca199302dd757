package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"
)

// Server exposes live telemetry for a running simulation or sweep over
// HTTP:
//
//	/metrics        counters, gauges and histograms in Prometheus text format
//	/progress       a JSON snapshot from the pluggable progress provider
//	/probes         probe ring-buffer snapshots as JSONL
//	/debug/pprof/*  the standard Go profiling endpoints
//
// Every endpoint reads only the observer's lock- or atomic-guarded state,
// so serving concurrent scrapes never perturbs the simulation: a run with
// the server enabled is bit-identical to one without it. The server is
// opt-in — commands start one only when asked (-serve).
type Server struct {
	obs *NetObserver
	mux *http.ServeMux

	mu       sync.Mutex
	progress func() any

	ln  net.Listener
	srv *http.Server

	// Test overrides (0: the production defaults). Tests shrink these to
	// observe timeout enforcement without multi-second waits.
	readTimeout  time.Duration
	writeTimeout time.Duration
}

// NewServer wraps an observer (which may have any subset of facilities
// attached; absent ones simply export nothing).
func NewServer(o *NetObserver) *Server {
	s := &Server{obs: o, mux: http.NewServeMux()}
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/progress", s.handleProgress)
	s.mux.HandleFunc("/probes", s.handleProbes)
	// Mount pprof explicitly on this private mux; the package's implicit
	// registration on http.DefaultServeMux is never served.
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handle registers an additional handler on the server's mux, letting
// embedders ride on the telemetry port. Call before Start; duplicate
// patterns panic, as in net/http.ServeMux.
func (s *Server) Handle(pattern string, h http.Handler) { s.mux.Handle(pattern, h) }

// SetProgress installs the /progress provider: a function returning any
// JSON-marshalable snapshot of live run state (sweep job states, sim
// clock, ETA). Without one, /progress answers 404. Safe to call while the
// server runs.
func (s *Server) SetProgress(fn func() any) {
	s.mu.Lock()
	s.progress = fn
	s.mu.Unlock()
}

// Start binds addr (host:port; port 0 picks a free one) and serves in a
// background goroutine. It returns the bound address, so callers using
// port 0 can report where the server landed.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: telemetry listen %s: %w", addr, err)
	}
	s.ln = ln
	// ReadTimeout/WriteTimeout bound a whole request/response exchange, not
	// just the header: without them a scraper that stops reading mid-body
	// holds its connection in-flight and pins Shutdown to its full
	// deadline. Telemetry responses are small, so generous bounds still cut
	// a stalled scrape off long before a graceful drain would give up.
	rt, wt := 10*time.Second, 30*time.Second
	if s.readTimeout > 0 {
		rt = s.readTimeout
	}
	if s.writeTimeout > 0 {
		wt = s.writeTimeout
	}
	ht := 5 * time.Second
	if ht > rt {
		ht = rt
	}
	s.srv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: ht,
		ReadTimeout:       rt,
		WriteTimeout:      wt,
	}
	go func() { _ = s.srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Close stops the server immediately (in-flight scrapes are dropped; the
// simulation owns shutdown timing, not the scraper).
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// Shutdown drains the server gracefully: it stops accepting new
// connections, waits up to d for in-flight requests (a /progress or
// /metrics scrape) to finish, then force-closes whatever remains.
// Interrupted runs call this from their signal handlers so live scrapes
// complete before the process exits.
// Safe to call when the server was never started, and after Close.
func (s *Server) Shutdown(d time.Duration) error {
	if s.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		_ = s.srv.Close()
		return fmt.Errorf("obs: telemetry shutdown: %w", err)
	}
	return nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = WritePrometheus(w, s.obs)
}

func (s *Server) handleProgress(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	fn := s.progress
	s.mu.Unlock()
	if fn == nil {
		http.Error(w, "no progress provider attached", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(fn()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleProbes(w http.ResponseWriter, _ *http.Request) {
	if s.obs == nil || s.obs.Probes == nil {
		http.Error(w, "no probe set attached", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = s.obs.Probes.WriteJSONL(w)
}

// promName rewrites a dotted instrument name ("port.n0-n2.tx_bytes") into
// a legal Prometheus metric name under the ecndelay_ namespace.
func promName(name string) string {
	out := make([]byte, 0, len(name)+len("ecndelay_"))
	out = append(out, "ecndelay_"...)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// WritePrometheus renders the observer's counters, gauges, histograms and
// probe overflow counters in the Prometheus text exposition format. It
// reads only atomic and mutex-guarded state, so it is safe against a
// concurrently recording run.
func WritePrometheus(w io.Writer, o *NetObserver) error {
	bw := bufio.NewWriter(w)
	if o == nil {
		return bw.Flush()
	}
	if o.Metrics != nil {
		for _, m := range o.Metrics.Snapshot() {
			name := promName(m.Name)
			typ := "counter"
			if m.Gauge {
				typ = "gauge"
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n%s %d\n", name, typ, name, m.Value)
		}
	}
	if o.Hists != nil {
		for _, h := range o.Hists.Hists() {
			name := promName(h.Name())
			fmt.Fprintf(bw, "# TYPE %s histogram\n", name)
			var cum int64
			h.ForEachBucket(func(upper float64, count int64) {
				cum += count
				fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", name, strconv.FormatFloat(upper, 'g', -1, 64), cum)
			})
			// Mid-run, Record bumps a bucket before the total, so the
			// atomic count can trail the bucket sum for an instant; clamp
			// so the exposition stays cumulative-monotone.
			total := h.Count()
			if total < cum {
				total = cum
			}
			fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", name, total)
			fmt.Fprintf(bw, "%s_sum %s\n", name, strconv.FormatFloat(h.Sum(), 'g', -1, 64))
			fmt.Fprintf(bw, "%s_count %d\n", name, total)
		}
	}
	if o.Probes != nil {
		probes := o.Probes.Probes()
		wroteType := false
		for _, p := range probes {
			d := p.Dropped()
			if d == 0 {
				continue
			}
			if !wroteType {
				fmt.Fprint(bw, "# TYPE ecndelay_probe_dropped_total counter\n")
				wroteType = true
			}
			fmt.Fprintf(bw, "ecndelay_probe_dropped_total{probe=%q} %d\n", p.Name(), d)
		}
	}
	return bw.Flush()
}
