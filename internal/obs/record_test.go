package obs

import (
	"errors"
	"io"
	"testing"
)

// failWriter fails every write after the first ok bytes and records
// whether anyone closed it.
type failWriter struct {
	ok     int
	closed bool
}

var errDiskFull = errors.New("disk full")

func (w *failWriter) Write(p []byte) (int, error) {
	if len(p) <= w.ok {
		w.ok -= len(p)
		return len(p), nil
	}
	n := w.ok
	w.ok = 0
	return n, errDiskFull
}

func (w *failWriter) Close() error {
	w.closed = true
	return nil
}

// Every export runs through the record writer: each returns the first
// write error, even when it strikes inside the buffer's final flush, and
// none closes the writer it is handed, closable or not.
func TestExportsKeepFirstErrorAndLeaveWriterOpen(t *testing.T) {
	hs := NewHistSet()
	hs.SetHeader(Header{Schema: "hist", Version: 1})
	hs.Hist("rtt_s").Record(1e-5)
	ps := NewProbeSet()
	ps.NewProbe("queue_bytes", 4).Record(1e-4, 3000)
	reg := NewRegistry()
	reg.Counter("port.n0-n1.tx_bytes").Add(1500)
	for _, c := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"trace", func(w io.Writer) error {
			s := NewJSONLSink(w, &Header{Schema: "trace", Version: 1})
			NewTracer(s).Emit(Event{Type: Enqueue})
			return s.Close()
		}},
		{"audit", func(w io.Writer) error {
			s := NewAuditJSONLSink(w, 0)
			NewAuditTrail(s).Emit(Decision{Type: DecRateCut})
			return s.Close()
		}},
		{"probe", ps.WriteJSONL},
		{"hist-jsonl", hs.WriteJSONL},
		{"hist-tsv", hs.WriteTSV},
		{"metrics", reg.WriteTSV},
	} {
		for _, ok := range []int{0, 10} {
			w := &failWriter{ok: ok}
			if err := c.write(w); !errors.Is(err, errDiskFull) {
				t.Errorf("%s, failing after %d bytes: error %v, want %v", c.name, ok, err, errDiskFull)
			}
			if w.closed {
				t.Errorf("%s closed the writer it was handed", c.name)
			}
		}
	}
}
