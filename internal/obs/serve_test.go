package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// httpGet fetches a URL and returns its body, failing the test on any
// transport or read error.
func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9eE+.i-]+(nf)?$`)

// checkPrometheusText validates the exposition body line by line: every
// line is a comment or "name[{labels}] value" with a parseable value, and
// histogram bucket lines are cumulative-monotone per series.
func checkPrometheusText(t *testing.T, body string) (lines int) {
	t.Helper()
	lastCum := map[string]int64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "# ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("bad exposition line: %q", line)
		}
		lines++
		sp := strings.LastIndexByte(line, ' ')
		name, val := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		if i := strings.Index(name, "_bucket{"); i >= 0 {
			series := name[:i]
			cum, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				t.Fatalf("bucket count not an integer: %q", line)
			}
			if cum < lastCum[series] {
				t.Fatalf("bucket counts not cumulative for %s: %d after %d", series, cum, lastCum[series])
			}
			lastCum[series] = cum
		}
	}
	return lines
}

// TestServerEndpoints exercises every endpoint against a live, concurrently
// recording observer — under -race this pins the scrape path as data-race
// free and the exposition as well-formed mid-run.
func TestServerEndpoints(t *testing.T) {
	o := Full()
	o.Metrics.PortCounters("port.n0-n1").TxBytes.Add(7)
	o.Metrics.Gauge("sweep.jobs_running").Set(3)
	p := o.Probes.NewProbe("queue_bytes", 4)
	for i := 0; i < 9; i++ { // wraps: 5 dropped
		p.Record(float64(i), float64(i))
	}

	srv := NewServer(o)
	srv.SetProgress(func() any {
		return map[string]any{"done": 2, "total": 10}
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Hammer the histogram while scraping.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := o.Hist("timely.rtt_s")
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				h.Record(50e-6 + float64(i%100)*1e-6)
			}
		}
	}()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, string(b)
	}

	for i := 0; i < 5; i++ {
		code, body := get("/metrics")
		if code != http.StatusOK {
			t.Fatalf("/metrics status %d", code)
		}
		if n := checkPrometheusText(t, body); n == 0 {
			t.Fatal("/metrics exported nothing")
		}
		if !strings.Contains(body, "ecndelay_port_n0_n1_tx_bytes 7") {
			t.Errorf("missing counter:\n%s", body)
		}
		if !strings.Contains(body, `ecndelay_probe_dropped_total{probe="queue_bytes"} 5`) {
			t.Errorf("missing probe drop counter:\n%s", body)
		}
		if i > 0 && !strings.Contains(body, "ecndelay_timely_rtt_s_count") {
			t.Errorf("missing histogram series:\n%s", body)
		}
	}
	close(stop)
	wg.Wait()

	code, body := get("/progress")
	if code != http.StatusOK {
		t.Fatalf("/progress status %d", code)
	}
	var prog map[string]any
	if err := json.Unmarshal([]byte(body), &prog); err != nil {
		t.Fatalf("/progress not JSON: %v\n%s", err, body)
	}
	if prog["total"] != float64(10) {
		t.Errorf("progress = %v", prog)
	}

	code, body = get("/probes")
	if code != http.StatusOK {
		t.Fatalf("/probes status %d", code)
	}
	if !strings.Contains(body, `{"probe":"queue_bytes","t":`) ||
		!strings.Contains(body, `{"probe":"queue_bytes","dropped":5}`) {
		t.Errorf("unexpected /probes body:\n%s", body)
	}

	code, _ = get("/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status %d", code)
	}
}

// TestServerWithoutFacilities checks the degraded paths: no progress
// provider, no probe set, nil observer.
func TestServerWithoutFacilities(t *testing.T) {
	srv := NewServer(&NetObserver{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for path, want := range map[string]int{
		"/metrics":  http.StatusOK,
		"/progress": http.StatusNotFound,
		"/probes":   http.StatusNotFound,
	} {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s status %d, want %d", path, resp.StatusCode, want)
		}
	}
	var sb strings.Builder
	if err := WritePrometheus(&sb, nil); err != nil || sb.Len() != 0 {
		t.Errorf("nil observer must export nothing: %q err=%v", sb.String(), err)
	}
}

// TestServerHandleMountsExtraRoutes proves embedders can ride on the
// telemetry mux.
func TestServerHandleMountsExtraRoutes(t *testing.T) {
	srv := NewServer(nil)
	srv.Handle("/fleet/ping", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "pong")
	}))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	body := httpGet(t, "http://"+addr+"/fleet/ping")
	if body != "pong" {
		t.Fatalf("extra route answered %q", body)
	}
	// Built-in routes still serve.
	if _, err := http.Get("http://" + addr + "/metrics"); err != nil {
		t.Fatal(err)
	}
}

// TestServerShutdownDrainsInFlight: a request already being served must
// complete during Shutdown, and the deadline must bound a handler that
// never finishes.
func TestServerShutdownDrainsInFlight(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	srv := NewServer(nil)
	srv.Handle("/slow", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		close(started)
		<-release
		fmt.Fprint(w, "done")
	}))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	got := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/slow")
		if err != nil {
			got <- "error: " + err.Error()
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		got <- string(b)
	}()
	<-started
	// Release the handler shortly after shutdown begins: the in-flight
	// request must still be answered.
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(release)
	}()
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("graceful shutdown failed: %v", err)
	}
	if body := <-got; body != "done" {
		t.Fatalf("in-flight request dropped during shutdown: %q", body)
	}
	// After shutdown, new connections are refused.
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("server still accepting connections after Shutdown")
	}
}

func TestServerShutdownDeadlineBoundsHungHandler(t *testing.T) {
	started := make(chan struct{})
	hang := make(chan struct{})
	defer close(hang)
	srv := NewServer(nil)
	srv.Handle("/hang", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		close(started)
		<-hang
	}))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		resp, err := http.Get("http://" + addr + "/hang")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started
	t0 := time.Now()
	err = srv.Shutdown(100 * time.Millisecond)
	if err == nil {
		t.Fatal("shutdown reported success despite a hung handler")
	}
	if d := time.Since(t0); d > 3*time.Second {
		t.Fatalf("shutdown took %v, deadline not enforced", d)
	}
}

func TestServerShutdownWithoutStartIsNoop(t *testing.T) {
	if err := NewServer(nil).Shutdown(time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestServerTimeoutsConfigured pins the production hardening: the HTTP
// server must bound the whole exchange, not just the header, or a
// scraper that stops reading mid-body holds its connection in-flight
// until the process dies.
func TestServerTimeoutsConfigured(t *testing.T) {
	srv := NewServer(nil)
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.srv.ReadTimeout != 10*time.Second {
		t.Errorf("ReadTimeout = %v, want 10s", srv.srv.ReadTimeout)
	}
	if srv.srv.WriteTimeout != 30*time.Second {
		t.Errorf("WriteTimeout = %v, want 30s", srv.srv.WriteTimeout)
	}
	if srv.srv.ReadHeaderTimeout != 5*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 5s", srv.srv.ReadHeaderTimeout)
	}
}

// TestServerCutsStalledReader: a client that requests a large body and
// then never reads must be cut off by the write timeout — the handler's
// blocked Write fails — instead of pinning the connection (and any later
// graceful Shutdown) forever. Timeouts are shrunk so the test observes
// the cut in milliseconds rather than the production 30s.
func TestServerCutsStalledReader(t *testing.T) {
	srv := NewServer(nil)
	srv.readTimeout = 200 * time.Millisecond
	srv.writeTimeout = 200 * time.Millisecond
	writeErr := make(chan error, 1)
	srv.Handle("/big", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		chunk := make([]byte, 1<<20)
		for i := 0; i < 1024; i++ { // far beyond any socket buffer
			if _, err := w.Write(chunk); err != nil {
				writeErr <- err
				return
			}
		}
		writeErr <- nil
	}))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "GET /big HTTP/1.1\r\nHost: %s\r\n\r\n", addr); err != nil {
		t.Fatal(err)
	}
	// Never read: the response backs up into the socket buffers and the
	// handler's Write blocks until the write deadline fires.
	select {
	case err := <-writeErr:
		if err == nil {
			t.Fatal("handler drained 1 GiB into a non-reading client; write timeout not enforced")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stalled reader still pinned the handler after 10s; write timeout not enforced")
	}
	// With the stalled connection dead, a graceful drain is prompt.
	t0 := time.Now()
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown after stalled reader: %v", err)
	}
	if d := time.Since(t0); d > 3*time.Second {
		t.Fatalf("shutdown took %v despite the stalled reader being cut", d)
	}
}
