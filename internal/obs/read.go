package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// The readers below decode the JSONL exports this package writes, so every
// record format has its encoder and its decoder in one place. Each returns
// the file's header — its first record when that carries a "schema" key,
// else nil — and skips foreign records (lines without the record's key);
// a line that is not JSON, or not the record its key claims, is an error
// naming the file and the line. Floats decode to the same bits they were
// written from: the writers use the shortest round-trip form.

// readJSONL returns the header of the file at path and calls fn on every
// other non-blank line.
func readJSONL(path string, fn func(line []byte) error) (*Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var hdr *Header
	first := true
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if first {
			first = false
			var h Header
			if json.Unmarshal(line, &h) == nil && h.Schema != "" {
				hdr = &h
				continue
			}
		}
		if err := fn(line); err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, n, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return hdr, nil
}

// decisionTypeByName inverts decisionTypeNames.
var decisionTypeByName = func() map[string]DecisionType {
	m := make(map[string]DecisionType, numDecisionTypes)
	for i, name := range decisionTypeNames {
		m[name] = DecisionType(i)
	}
	return m
}()

// ReadAudit reads an audit export (AuditJSONLSink): its header and its
// decisions in file order.
func ReadAudit(path string) (*Header, []Decision, error) {
	var decs []Decision
	hdr, err := readJSONL(path, func(line []byte) error {
		var r struct {
			Decision
			Dec string `json:"dec"`
		}
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		if r.Dec == "" {
			return nil
		}
		typ, ok := decisionTypeByName[r.Dec]
		if !ok {
			return fmt.Errorf("unknown decision type %q", r.Dec)
		}
		r.Decision.Type = typ
		decs = append(decs, r.Decision)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return hdr, decs, nil
}

// ReadHists reads a histogram JSONL export (HistSet.WriteJSONL): its
// header and one summary per row, in file order. A quantile column the
// row lacks reads as zero.
func ReadHists(path string) (*Header, []HistSummary, error) {
	var out []HistSummary
	hdr, err := readJSONL(path, func(line []byte) error {
		var r struct {
			Hist  string  `json:"hist"`
			Count int64   `json:"count"`
			Min   float64 `json:"min"`
			Max   float64 `json:"max"`
			P50   float64 `json:"p50"`
			P90   float64 `json:"p90"`
			P95   float64 `json:"p95"`
			P99   float64 `json:"p99"`
			P999  float64 `json:"p999"`
		}
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		if r.Hist != "" {
			out = append(out, HistSummary{Name: r.Hist, Count: r.Count, Min: r.Min, Max: r.Max,
				Quantiles: [len(HistQuantiles)]float64{r.P50, r.P90, r.P95, r.P99, r.P999}})
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return hdr, out, nil
}

// ReadProbes reads a probe JSONL export (ProbeSet.WriteJSONL), returns its
// header and calls series once per probe name, in the order the names
// first appear, with that name's samples in file order and the overwrite
// count its dropped trailer carries (0 without one).
func ReadProbes(path string, series func(name string, samples []Sample, dropped int64)) (*Header, error) {
	var names []string
	samples := make(map[string][]Sample)
	dropped := make(map[string]int64)
	hdr, err := readJSONL(path, func(line []byte) error {
		var r struct {
			Probe   string   `json:"probe"`
			T       *float64 `json:"t"`
			V       float64  `json:"v"`
			Dropped *int64   `json:"dropped"`
		}
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		if r.Probe == "" || (r.T == nil && r.Dropped == nil) {
			return nil
		}
		if _, seen := samples[r.Probe]; !seen {
			names = append(names, r.Probe)
			samples[r.Probe] = nil
		}
		if r.T != nil {
			samples[r.Probe] = append(samples[r.Probe], Sample{T: *r.T, V: r.V})
		} else {
			dropped[r.Probe] += *r.Dropped
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		series(name, samples[name], dropped[name])
	}
	return hdr, nil
}
