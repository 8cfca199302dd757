package exp

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"testing"
)

// runnerDigests pins every runner's Quick-scale, seed-1 metrics to the
// bit: each value is metricsDigest of the runner's Report.Metrics. The
// tests that already run a runner at Quick, seed 1 check its entry
// (mustRun, TestClosRunnersQuick, TestAuditLoopAttribution), and
// TestUncoveredRunnerDigests runs the rest once.
//
// After an intended change to a runner's output, run
//
//	go test ./internal/exp -run 'Quick|Runners|Digest|AuditLoop'
//
// and replace the entry with the digest the failure reports.
var runnerDigests = map[string]uint64{
	"auditloop":   0x7a9a0ee8ebe7a559,
	"closincast":  0xd4b078e5847b0330,
	"closload":    0x175cfb4454d4e31f,
	"closshuffle": 0x0e23906e53661464,
	"crossval":    0x7e0686acdd1916ef,
	"eq14":        0xc314318723b9f645,
	"extmultihop": 0x8494346466d201bf,
	"extpfc":      0x2311f8f2ca1fd061,
	"extpi":       0x261d8ad9d22b3796,
	"faultcnp":    0x25959edd9040e0c0,
	"faultloss":   0x04916b289e5d0f6c,
	"fig10":       0xe7a37ff28f81c221,
	"fig11":       0xcb6b57febfaa5ce7,
	"fig12":       0xa53734a09ceb3107,
	"fig14":       0x2c5402ce0d94cc4e,
	"fig15":       0x0ea2a21e6c6caf38,
	"fig16":       0x01adb9e9840c2066,
	"fig17":       0xecb34dddf1a92ae1,
	"fig18":       0x628ba9b3901b5430,
	"fig19":       0xa6be9559856f9a68,
	"fig2":        0x656f1d2615f5ab23,
	"fig20":       0xf03b8e5c801ce537,
	"fig21":       0xcbf29ce484222325,
	"fig3":        0xb63194ead8add335,
	"fig4":        0x705d81134118d695,
	"fig5":        0xdc2af17da16787a5,
	"fig8":        0x66c637fa755c7fec,
	"fig9":        0x8948715035191c83,
	"hybridbg":    0x7eb21ac5275a6cc7,
	"hybridwarm":  0x593fc82529c69f39,
	"params":      0xcbf29ce484222325,
	"thm2":        0x790f72d802a3aacc,
	"thm6":        0xb28dd2975914919e,
}

// metricsDigest is the FNV-64a hash of the metric names in sorted order,
// each followed by a zero byte and the little-endian Float64bits of its
// value.
func metricsDigest(m map[string]float64) uint64 {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	h := fnv.New64a()
	var b [8]byte
	for _, k := range names {
		h.Write([]byte(k))
		h.Write([]byte{0})
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(m[k]))
		h.Write(b[:])
	}
	return h.Sum64()
}

// checkDigest fails t unless rep, runner id's report at Quick scale and
// seed 1, matches its pinned digest.
func checkDigest(t *testing.T, id string, rep *Report) {
	t.Helper()
	want, ok := runnerDigests[id]
	if !ok {
		t.Fatalf("runner %q has no pinned digest", id)
	}
	if got := metricsDigest(rep.Metrics); got != want {
		t.Errorf("runner %q: metrics digest %#016x, pinned %#016x", id, got, want)
	}
}

// Every registered runner has a pinned digest, and every pinned digest
// names a registered runner.
func TestRunnerDigestsComplete(t *testing.T) {
	ids := make(map[string]bool)
	for _, r := range Runners() {
		ids[r.ID] = true
		if _, ok := runnerDigests[r.ID]; !ok {
			t.Errorf("runner %q has no pinned digest", r.ID)
		}
	}
	for id := range runnerDigests {
		if !ids[id] {
			t.Errorf("pinned digest for unregistered runner %q", id)
		}
	}
}

// The runners no other test runs at Quick scale and seed 1.
func TestUncoveredRunnerDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runners skipped in -short mode")
	}
	for _, id := range []string{"fig2", "fig8", "fig15", "fig16", "thm6", "crossval", "hybridwarm", "hybridbg"} {
		t.Run(id, func(t *testing.T) {
			if _, err := mustRun(t, id, Options{Scale: Quick, Seed: 1}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
