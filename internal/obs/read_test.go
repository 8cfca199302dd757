package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ecndelay/internal/des"
	"ecndelay/internal/fixedpoint"
)

// sameBits reports whether two values hold equal fields, floats compared
// by Float64bits (so -0 and 0, or two NaN payloads, differ).
func sameBits(a, b any) bool {
	return reflect.DeepEqual(bitsOf(reflect.ValueOf(a)), bitsOf(reflect.ValueOf(b)))
}

// bitsOf flattens a value into its fields, floats as their bit patterns.
func bitsOf(v reflect.Value) []any {
	switch v.Kind() {
	case reflect.Float64:
		return []any{math.Float64bits(v.Float())}
	case reflect.Pointer:
		if v.IsNil() {
			return []any{nil}
		}
		return append([]any{"ptr"}, bitsOf(v.Elem())...)
	case reflect.Struct:
		var out []any
		for i := 0; i < v.NumField(); i++ {
			out = append(out, bitsOf(v.Field(i))...)
		}
		return out
	case reflect.Array, reflect.Slice:
		out := []any{v.Len()}
		for i := 0; i < v.Len(); i++ {
			out = append(out, bitsOf(v.Index(i))...)
		}
		return out
	default:
		return []any{v.Interface()}
	}
}

// writeTemp writes a file through write and returns its path.
func writeTemp(t *testing.T, name string, write func(io.Writer) error) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := write(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return path
}

// An audit export reads back as the header it was given and the
// decisions it sorted, bit for bit, for every decision type, with and
// without an operating point.
func TestReadAuditRoundTrip(t *testing.T) {
	op := &fixedpoint.DCQCNParams{N: 7, C: 25e9 / 8 / 1000, RAI: 5000, Tau: 50e-6, TauPrime: 55e-6,
		T: 55e-6, B: 1e4, F: 5, Kmin: 5, Kmax: 200, Pmax: 0.01, G: 1.0 / 256, TauStar: 4e-6}
	var decs []Decision
	for typ := DecisionType(0); typ < numDecisionTypes; typ++ {
		x := float64(typ) + 1
		decs = append(decs, Decision{
			T: des.Time(1000 * x), Type: typ, Node: int32(typ), Peer: -1, Flow: int32(typ) - 3,
			Seq: uint64(typ), Episode: uint64(typ) * 7, OldRate: 1e9 / x, NewRate: 5e8 / 3 * x,
			Target: math.Pi * x, Alpha: 1 / (x * 3), RTT: x * 1.1e-6, Grad: -0.1 * x, QBytes: int64(typ) * 1000,
		})
	}
	decs[0].Grad = math.Copysign(0, -1)
	for _, c := range []struct {
		name string
		hdr  *Header
	}{
		{"with-op", &Header{Schema: "audit", Version: 1, Seed: -3, Proto: "dcqcn", Flags: `n=7 x="q"`, Op: op}},
		{"no-op", &Header{Schema: "audit", Version: 1, Seed: 9, Proto: "timely"}},
		{"no-header", nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := writeTemp(t, "audit.jsonl", func(f io.Writer) error {
				s := NewAuditJSONLSink(f, 0)
				if c.hdr != nil {
					s.SetHeader(*c.hdr)
				}
				for i := len(decs) - 1; i >= 0; i-- {
					s.Record(decs[i])
				}
				return s.Close()
			})
			hdr, got, err := ReadAudit(path)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(hdr, c.hdr) {
				t.Errorf("header = %+v, want %+v", hdr, c.hdr)
			}
			if !sameBits(got, decs) {
				t.Errorf("decisions differ:\n got %+v\nwant %+v", got, decs)
			}
		})
	}
}

// The operating point is one object after the flags, its keys in
// DCQCNParams order, and a point JSON cannot carry is left out; a header
// without one keeps the old bytes (pinned by TestAuditHeaderEncoding).
func TestHeaderOpEncoding(t *testing.T) {
	h := Header{Schema: "probe", Version: 1, Seed: 1, Proto: "dcqcn", Flags: "n=2",
		Op: &fixedpoint.DCQCNParams{N: 2, C: 1.25e6, RAI: 5000, Tau: 5e-05, TauPrime: 5.5e-05, T: 5.5e-05,
			B: 10000, F: 5, Kmin: 5, Kmax: 200, Pmax: 0.01, G: 0.00390625, TauStar: 4e-06}}
	want := `{"schema":"probe","v":1,"seed":1,"proto":"dcqcn","flags":"n=2","op":{"N":2,"C":1250000,` +
		`"RAI":5000,"Tau":0.00005,"TauPrime":0.000055,"T":0.000055,"B":10000,"F":5,"Kmin":5,"Kmax":200,` +
		`"Pmax":0.01,"G":0.00390625,"TauStar":0.000004}}` + "\n"
	if got := string(h.appendJSONL(nil)); got != want {
		t.Errorf("header encoded as\n%s\nwant\n%s", got, want)
	}
	h.Op.C = math.NaN()
	if got, want := string(h.appendJSONL(nil)), `{"schema":"probe","v":1,"seed":1,"proto":"dcqcn","flags":"n=2"}`+"\n"; got != want {
		t.Errorf("a non-finite point encoded as %q, want it left out: %q", got, want)
	}
}

// A histogram export reads back as its header and every histogram's
// Summary, all five quantile columns included, skipping probe records.
func TestReadHistsRoundTrip(t *testing.T) {
	hs := NewHistSet()
	for i := 1; i <= 1000; i++ {
		hs.Hist("b.rtt_s").Record(1e-6 * math.Exp(float64(i)/50))
	}
	hs.Hist("a.one").Record(3)
	hs.Hist("c.empty")
	head := &Header{Schema: "hist", Version: 1, Seed: 1, Flags: "n=2"}
	hs.SetHeader(*head)
	var buf bytes.Buffer
	if err := hs.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(`{"probe":"queue_bytes","dropped":12}` + "\n")
	path := writeTemp(t, "hist.jsonl", func(f io.Writer) error { _, err := f.Write(buf.Bytes()); return err })
	hdr, got, err := ReadHists(path)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(hdr, head) {
		t.Errorf("header = %+v, want %+v", hdr, head)
	}
	var want []HistSummary
	for _, h := range hs.Hists() {
		want = append(want, h.Summary())
	}
	if !sameBits(got, want) {
		t.Errorf("summaries differ:\n got %+v\nwant %+v", got, want)
	}
	for i, q := range want[1].Quantiles {
		if q == 0 || (i > 0 && q == want[1].Quantiles[i-1]) {
			t.Fatalf("quantile column %d does not tell the columns apart: %v", i, want[1].Quantiles)
		}
	}
}

// A probe export reads back as its header and each series in name order
// with its samples, and a wrapped ring's dropped trailer as its count.
func TestReadProbesRoundTrip(t *testing.T) {
	ps := NewProbeSet()
	head := &Header{Schema: "probe", Version: 1, Seed: 2, Proto: "dcqcn"}
	ps.SetHeader(*head)
	wrapped := ps.NewProbe("b.wrapped", 3)
	whole := ps.NewProbe("a.whole", 8)
	for i := 0; i < 5; i++ {
		wrapped.Record(float64(i)*1e-4, float64(i)/3)
		whole.Record(float64(i)*1.1e-4, math.Exp(float64(i)))
	}
	path := writeTemp(t, "probe.jsonl", ps.WriteJSONL)
	type series struct {
		name    string
		samples []Sample
		dropped int64
	}
	var got []series
	hdr, err := ReadProbes(path, func(name string, s []Sample, dropped int64) {
		got = append(got, series{name, s, dropped})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(hdr, head) {
		t.Errorf("header = %+v, want %+v", hdr, head)
	}
	want := []series{
		{"a.whole", whole.Samples(), 0},
		{"b.wrapped", wrapped.Samples(), 2},
	}
	if len(got) != len(want) {
		t.Fatalf("read %d series, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].name != want[i].name || got[i].dropped != want[i].dropped || !sameBits(got[i].samples, want[i].samples) {
			t.Errorf("series %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// Every reader names the file and line of a record it cannot decode.
func TestReadMalformedLine(t *testing.T) {
	for _, c := range []struct {
		name, body string
		read       func(string) error
	}{
		{"audit", `{"schema":"audit","v":1}` + "\n{not json\n", func(p string) error { _, _, err := ReadAudit(p); return err }},
		{"audit-type", "\n" + `{"t_ns":1,"dec":"bogus"}` + "\n", func(p string) error { _, _, err := ReadAudit(p); return err }},
		{"hist", "{not json\n", func(p string) error { _, _, err := ReadHists(p); return err }},
		{"probe", `{"probe":"q","t":"x"}` + "\n", func(p string) error {
			_, err := ReadProbes(p, func(string, []Sample, int64) {})
			return err
		}},
	} {
		path := writeTemp(t, "bad.jsonl", func(f io.Writer) error { _, err := io.WriteString(f, c.body); return err })
		line := strings.Count(strings.TrimRight(c.body, "\n"), "\n") + 1
		want := fmt.Sprintf("%s:%d:", path, line)
		if err := c.read(path); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one naming %s", c.name, err, want)
		}
	}
}

// Attribute's bookkeeping on a hand-built stream: two episodes, cuts
// attributed to the first, the second orphaned, one cut unattributed.
func TestAttribute(t *testing.T) {
	decs := []Decision{
		{T: 100, Type: DecMarkOpen, Episode: 7},
		{T: 150, Type: DecMarkOpen, Episode: 9},
		{T: 300, Type: DecRateCut, Episode: 7, RTT: 90e-6},
		{T: 400, Type: DecRateCut, Episode: 7, RTT: 80e-6},
		{T: 450, Type: DecAdditiveInc, Episode: 9},
		{T: 500, Type: DecRateCut, RTT: 1}, // unattributed
	}
	got := Attribute(decs)
	want := Attribution{Cuts: 3, Attributed: 2, Episodes: 2, Orphans: 1,
		MarkCut: []float64{90e-6, 80e-6},
		OpenCut: []float64{(300 - 100) * 1e-9}, // the episode's first cut only
	}
	if !sameBits(got, want) {
		t.Errorf("Attribute = %+v, want %+v", got, want)
	}
	if empty := Attribute(nil); !sameBits(empty, Attribution{}) {
		t.Errorf("Attribute(nil) = %+v, want zero", empty)
	}
}
