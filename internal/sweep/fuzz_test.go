package sweep

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpenSweepJSONL throws arbitrary bytes at the checkpoint parser.
// Contract: OpenJSONL(path, resume=true) returns a usable sink or an
// error — it never panics, whatever a crashed or corrupted run left in
// the file — and the reopened sink still accepts new rows.
//
// Run the seed corpus with go test; explore with:
//
//	go test ./internal/sweep -fuzz FuzzOpenSweepJSONL -fuzztime 30s
func FuzzOpenSweepJSONL(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(`{"job":"a","index":0,"seed":1,"metrics":{"x":1}}` + "\n"))
	f.Add([]byte(`{"job":"a","err":"boom"}` + "\n"))
	// Torn trailing line from a killed run.
	f.Add([]byte(`{"job":"a","index":0}` + "\n" + `{"job":"b","ind`))
	// Not JSON at all.
	f.Add([]byte("PK\x03\x04 this is a zip, not a checkpoint"))
	// JSON of the wrong shape.
	f.Add([]byte(`[1,2,3]` + "\n" + `"just a string"` + "\n" + `{"job":17}`))
	// Huge numbers, null fields, duplicate keys.
	f.Add([]byte(`{"job":"x","index":1e309,"metrics":null,"job":"y"}`))
	// Valid row among garbage: its job must count as completed.
	f.Add([]byte("garbage\n" + `{"job":"ok","index":2,"seed":3,"metrics":{}}` + "\n" + "\xff\xfe"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "ckpt.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenJSONL(path, true)
		if err != nil {
			return // rejecting the file is fine; panicking is not
		}
		s.Completed("ok")
		// The sink must still function: append a row and close.
		if err := s.Write(Result{JobID: "post-fuzz", Index: 99}); err != nil {
			t.Errorf("Write after resume failed: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Errorf("Close failed: %v", err)
		}
		// Reopening must see the appended success, whatever preceded it.
		s2, err := OpenJSONL(path, true)
		if err != nil {
			t.Fatalf("reopen failed: %v", err)
		}
		if !s2.Completed("post-fuzz") {
			t.Error("appended row lost on reopen")
		}
		s2.Close()
	})
}
