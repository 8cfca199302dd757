package workload

import "errors"

// This file holds the datacenter workload suite beyond the paper's §5.1
// Poisson/web-search mix: the synchronized patterns (partition-aggregate
// incast, all-to-all shuffle) that stress a Clos fabric in ways
// independent Poisson arrivals do not — correlated bursts converging on
// one egress, which is where DCQCN's PFC storms and TIMELY's delay
// inflation actually bite.

// IncastConfig drives Incast: the partition-aggregate pattern where a query
// fans out and every worker's response shard converges on the aggregator at
// once.
type IncastConfig struct {
	// Fanin is the number of synchronized senders (worker shards).
	Fanin int
	// Size is the bytes each sender contributes per round.
	Size int64
	// Start is the first round's arrival time in seconds.
	Start float64
	// Rounds is the number of query rounds; zero means one.
	Rounds int
	// Interval is the gap between rounds in seconds (required when
	// Rounds > 1).
	Interval float64
}

// Incast generates Fanin synchronized flows per round, all toward receiver
// index 0. Sender indexes are 0..Fanin-1; wire them to distinct hosts.
func Incast(cfg IncastConfig) ([]Flow, error) {
	rounds := cfg.Rounds
	if rounds == 0 {
		rounds = 1
	}
	switch {
	case cfg.Fanin <= 0:
		return nil, errors.New("workload: incast Fanin must be positive")
	case cfg.Size <= 0:
		return nil, errors.New("workload: incast Size must be positive")
	case cfg.Start < 0:
		return nil, errors.New("workload: incast Start must be non-negative")
	case rounds > 1 && cfg.Interval <= 0:
		return nil, errors.New("workload: incast with multiple Rounds needs a positive Interval")
	}
	flows := make([]Flow, 0, rounds*cfg.Fanin)
	for r := 0; r < rounds; r++ {
		at := cfg.Start + float64(r)*cfg.Interval
		for s := 0; s < cfg.Fanin; s++ {
			flows = append(flows, Flow{
				ID: len(flows), Start: at, Size: cfg.Size, Sender: s, Recv: 0,
			})
		}
	}
	return flows, nil
}

// ShuffleConfig drives Shuffle: the map→reduce exchange where every host
// sends a partition to every other host.
type ShuffleConfig struct {
	// Hosts is the number of participants; each is both sender and
	// receiver.
	Hosts int
	// Size is the bytes per ordered pair.
	Size int64
	// Start is when the shuffle begins, in seconds.
	Start float64
}

// Shuffle generates the all-to-all exchange: one flow per ordered pair
// (s, r), s ≠ r, all starting together — Hosts×(Hosts−1) flows. Sender and
// receiver indexes both range over 0..Hosts-1.
func Shuffle(cfg ShuffleConfig) ([]Flow, error) {
	switch {
	case cfg.Hosts < 2:
		return nil, errors.New("workload: shuffle needs at least 2 hosts")
	case cfg.Size <= 0:
		return nil, errors.New("workload: shuffle Size must be positive")
	case cfg.Start < 0:
		return nil, errors.New("workload: shuffle Start must be non-negative")
	}
	flows := make([]Flow, 0, cfg.Hosts*(cfg.Hosts-1))
	for s := 0; s < cfg.Hosts; s++ {
		for r := 0; r < cfg.Hosts; r++ {
			if s == r {
				continue
			}
			flows = append(flows, Flow{
				ID: len(flows), Start: cfg.Start, Size: cfg.Size, Sender: s, Recv: r,
			})
		}
	}
	return flows, nil
}
