package cli

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStartBothProfiles exercises the real path: start CPU profiling, burn
// a little work, stop, and check both files landed non-empty. The pprof
// format details belong to the runtime; what this package owes callers is
// that the files exist and hold data.
func TestStartBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")

	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	// Give the CPU profiler something to sample and the heap something to hold.
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 4096))
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	_ = sink

	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", filepath.Base(path))
		}
	}
}

// TestStartEmptyPathsIsNoOp pins the documented contract: both paths empty
// means no files, no error, and a stop function that is still safe to call.
func TestStartEmptyPathsIsNoOp(t *testing.T) {
	stop, err := Start("", "")
	if err != nil {
		t.Fatal(err)
	}
	if stop == nil {
		t.Fatal("stop function is nil")
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// TestStartMemOnly writes a heap profile without CPU profiling.
func TestStartMemOnly(t *testing.T) {
	mem := filepath.Join(t.TempDir(), "mem.pprof")
	stop, err := Start("", mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(mem)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Error("heap profile is empty")
	}
}

// TestStartBadCPUPath: an uncreatable CPU path fails up front, before any
// profiling starts, so the caller never gets a half-armed stop function.
func TestStartBadCPUPath(t *testing.T) {
	if _, err := Start(filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.pprof"), ""); err == nil {
		t.Fatal("expected an error for an uncreatable cpu profile path")
	}
}

// TestStartBadMemPath: an uncreatable heap path surfaces from stop, the
// first moment the file is needed.
func TestStartBadMemPath(t *testing.T) {
	stop, err := Start("", filepath.Join(t.TempDir(), "no", "such", "dir", "mem.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil {
		t.Fatal("expected an error for an uncreatable heap profile path")
	}
}

// TestStartWhileProfilerBusy: the runtime allows one CPU profile at a
// time; a second Start must fail cleanly and close its half-opened file
// rather than leaking it.
func TestStartWhileProfilerBusy(t *testing.T) {
	dir := t.TempDir()
	stop, err := Start(filepath.Join(dir, "cpu1.pprof"), "")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if _, err := Start(filepath.Join(dir, "cpu2.pprof"), ""); err == nil {
		t.Fatal("second concurrent CPU profile should fail")
	}
}
