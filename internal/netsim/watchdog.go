package netsim

import (
	"sync"

	"ecndelay/internal/des"
)

// PauseStorm is one sustained-pause event recorded by the PFC watchdog: a
// port that stayed PAUSEd continuously for at least the watchdog threshold.
type PauseStorm struct {
	Port     *Port
	Start    des.Time
	Duration des.Duration
	// OpenAtFinish marks a pause still held when Finish was called — the
	// fabric never released it, the signature of a pause deadlock rather
	// than a transient storm.
	OpenAtFinish bool
}

// PFCWatchdog detects PFC pause storms: it watches registered ports and
// records an event whenever one stays paused continuously for at least the
// threshold (the paper's motivating failure mode — congestion control
// exists precisely to keep PAUSE from firing, let alone persisting).
// Detection rides the pooled handler event path, so a watchdog adds no
// steady-state allocations; a network without a watchdog attached behaves
// bit-identically to one built before watchdogs existed.
type PFCWatchdog struct {
	sim       *des.Simulator
	threshold des.Duration
	ports     []*watchedPort

	// mu guards storms and events.
	mu     sync.Mutex
	storms int
	events []PauseStorm
}

// watchedPort is the per-port pause bookkeeping; it is the des.Handler for
// the storm-threshold check events.
type watchedPort struct {
	wd        *PFCWatchdog
	p         *Port
	pausedAt  des.Time
	stormOpen bool
	check     des.EventRef
	pauses    int
	total     des.Duration // cumulative paused time over closed pauses
}

// NewPFCWatchdog builds a watchdog that flags any continuous pause lasting
// at least threshold. Attach ports with Watch (or WatchHost/WatchSwitch).
func NewPFCWatchdog(sim *des.Simulator, threshold des.Duration) *PFCWatchdog {
	if threshold <= 0 {
		panic("netsim: PFC watchdog threshold must be positive")
	}
	return &PFCWatchdog{sim: sim, threshold: threshold}
}

// Watch registers a port. A port already paused at registration is treated
// as pausing now. Watching the same port twice replaces the previous
// watcher: its counts, open storm and pending storm check are dropped, and
// the port's record restarts as if first watched now.
func (wd *PFCWatchdog) Watch(p *Port) {
	w := &watchedPort{wd: wd, p: p}
	if old := p.watch; old != nil && old.wd == wd {
		old.check.Cancel()
		if old.stormOpen {
			wd.mu.Lock()
			wd.storms--
			wd.mu.Unlock()
		}
		for i, o := range wd.ports {
			if o == old {
				wd.ports[i] = w
				break
			}
		}
	} else {
		wd.ports = append(wd.ports, w)
	}
	p.watch = w
	if p.paused {
		w.onPause()
	}
}

// WatchHost registers the host's NIC port.
func (wd *PFCWatchdog) WatchHost(h *Host) { wd.Watch(h.Port()) }

// WatchSwitch registers every port of the switch.
func (wd *PFCWatchdog) WatchSwitch(sw *Switch) {
	for _, p := range sw.ports {
		wd.Watch(p)
	}
}

// OnEvent implements des.Handler on the per-port state: the check fires
// threshold after a pause began; the check is cancelled at unpause, so
// firing means that same pause is still held — a storm.
func (w *watchedPort) OnEvent(any) {
	if w.p.paused && !w.stormOpen {
		w.stormOpen = true
		w.wd.mu.Lock()
		w.wd.storms++
		w.wd.mu.Unlock()
	}
}

// onPause schedules the storm check with the port owner's sequence key.
func (w *watchedPort) onPause() {
	w.pausedAt = w.p.net.Sim.Now()
	w.pauses++
	w.check = w.p.schedule(w.wd.threshold, w, nil)
}

func (w *watchedPort) onUnpause() {
	now := w.p.net.Sim.Now()
	w.total += now.Sub(w.pausedAt)
	w.check.Cancel()
	if w.stormOpen {
		w.stormOpen = false
		w.wd.mu.Lock()
		w.wd.events = append(w.wd.events, PauseStorm{
			Port: w.p, Start: w.pausedAt, Duration: now.Sub(w.pausedAt),
		})
		w.wd.mu.Unlock()
	}
}

// Storms reports the number of sustained-pause events detected so far,
// including ones still open.
func (wd *PFCWatchdog) Storms() int { return wd.storms }

// Events returns the closed storm records; call Finish first to also close
// out pauses still held at the end of a run.
func (wd *PFCWatchdog) Events() []PauseStorm {
	return append([]PauseStorm(nil), wd.events...)
}

// Pauses reports the total number of pause episodes (of any duration) seen
// across all watched ports.
func (wd *PFCWatchdog) Pauses() int {
	n := 0
	for _, w := range wd.ports {
		n += w.pauses
	}
	return n
}

// PausedTotal reports cumulative paused time across all watched ports,
// counting still-open pauses up to the current simulation time.
func (wd *PFCWatchdog) PausedTotal() des.Duration {
	t := des.Duration(0)
	now := wd.sim.Now()
	for _, w := range wd.ports {
		t += w.total
		if w.p.paused {
			t += now.Sub(w.pausedAt)
		}
	}
	return t
}

// Finish closes out storms still open at the end of a run: any port whose
// storm never released gets an event flagged OpenAtFinish (a suspected
// deadlock). Call once after the simulation horizon.
func (wd *PFCWatchdog) Finish() {
	now := wd.sim.Now()
	for _, w := range wd.ports {
		if w.stormOpen {
			w.stormOpen = false
			wd.events = append(wd.events, PauseStorm{
				Port: w.p, Start: w.pausedAt, Duration: now.Sub(w.pausedAt),
				OpenAtFinish: true,
			})
		}
	}
}
