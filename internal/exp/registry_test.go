package exp

import (
	"reflect"
	"strings"
	"testing"

	"ecndelay/internal/sweep"
)

// Registration is append-only at init time; these tests pin its
// invariants: unique IDs, Get round-trips every runner, and duplicate
// or incomplete registrations panic before touching the registry.
func TestRegistryUniqueAndRoundTrips(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range Runners() {
		if seen[r.ID] {
			t.Errorf("duplicate runner id %q", r.ID)
		}
		seen[r.ID] = true
		got, ok := Get(r.ID)
		if !ok {
			t.Errorf("Get(%q) not found", r.ID)
			continue
		}
		if got.ID != r.ID || got.Title != r.Title || got.Figure != r.Figure {
			t.Errorf("Get(%q) returned %q/%q, want %q/%q", r.ID, got.Title, got.Figure, r.Title, r.Figure)
		}
		if got.Run == nil {
			t.Errorf("Get(%q) has nil Run", r.ID)
		}
	}
}

func TestRegisterPanicsOnDuplicate(t *testing.T) {
	before := len(Runners())
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("registering a duplicate id did not panic")
		}
		if !strings.Contains(r.(string), "duplicate runner id") {
			t.Fatalf("unexpected panic %v", r)
		}
		if len(Runners()) != before {
			t.Fatal("failed registration mutated the registry")
		}
	}()
	register(Runner{ID: "fig2", Title: "dup", Figure: "x",
		Run: func(Options) (*Report, error) { return &Report{}, nil }})
}

func TestRegisterPanicsOnIncomplete(t *testing.T) {
	for _, r := range []Runner{
		{ID: "", Run: func(Options) (*Report, error) { return nil, nil }},
		{ID: "newid"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("registering %+v did not panic", r)
				}
			}()
			register(r)
		}()
	}
}

// Runners must return a copy: callers mutating the slice cannot corrupt
// the registry.
func TestRunnersReturnsCopy(t *testing.T) {
	rs := Runners()
	if len(rs) == 0 {
		t.Fatal("empty registry")
	}
	rs[0].ID = "clobbered"
	if _, ok := Get("clobbered"); ok {
		t.Fatal("mutating Runners() result leaked into the registry")
	}
}

// SweepJobs names each job and runs it at its own seed: one job per
// experiment at opts.Seed without seeds, one per listed seed with them;
// the engine-derived seed goes unused either way. Each success leaves
// its report.
func TestSweepJobsGrid(t *testing.T) {
	ids := []string{"fig5", "eq14"}
	run := func(opts Options, seeds []int64) []sweep.Result {
		t.Helper()
		jobs, reports, err := SweepJobs(ids, opts, seeds)
		if err != nil {
			t.Fatal(err)
		}
		sink := &sweep.MemorySink{}
		if _, err := sweep.Run(sweep.Config{Workers: 2, BaseSeed: 9}, jobs, sink); err != nil {
			t.Fatal(err)
		}
		rows := sink.Results()
		for i, r := range rows {
			if r.Err != "" || reports[i] == nil || !reflect.DeepEqual(reports[i].Metrics, r.Metrics) {
				t.Fatalf("job %s: err %q, report %v", r.JobID, r.Err, reports[i])
			}
		}
		return rows
	}
	seeded := run(Options{Scale: Quick}, []int64{1, 2})
	var got []string
	for _, r := range seeded {
		got = append(got, r.JobID)
	}
	if strings.Join(got, " ") != "fig5/seed1 fig5/seed2 eq14/seed1 eq14/seed2" {
		t.Errorf("seeded job ids %v", got)
	}
	if want := map[string]string{"exp": "fig5", "figure": "Figure 5", "seed": "2"}; !reflect.DeepEqual(seeded[1].Meta, want) {
		t.Errorf("fig5/seed2 meta %v, want %v", seeded[1].Meta, want)
	}
	if reflect.DeepEqual(seeded[0].Metrics, seeded[1].Metrics) {
		t.Error("fig5 reports the same metrics at seeds 1 and 2: the listed seed never reached it")
	}

	plain := run(Options{Scale: Quick, Seed: 2}, nil)
	if plain[0].JobID != "fig5" || plain[1].JobID != "eq14" {
		t.Errorf("unseeded job ids %s, %s", plain[0].JobID, plain[1].JobID)
	}
	if want := map[string]string{"exp": "fig5", "figure": "Figure 5"}; !reflect.DeepEqual(plain[0].Meta, want) {
		t.Errorf("fig5 meta %v, want %v", plain[0].Meta, want)
	}
	if !reflect.DeepEqual(plain[0].Metrics, seeded[1].Metrics) {
		t.Error("without seeds, fig5 did not run at opts.Seed")
	}

	if _, _, err := SweepJobs([]string{"fig5", "nope"}, Options{}, nil); err == nil {
		t.Error("an unknown experiment id was accepted")
	}
}
