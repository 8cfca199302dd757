// Command runreport reads a run's exports and prints its control-loop
// report, its histogram comparison against a baseline, or both; see
// internal/report for the sections, the gates and the exit status.
//
//	runreport -audit audit.jsonl
//	runreport -audit audit.jsonl -probe probes.jsonl -rates rates.jsonl
//	runreport -audit audit.jsonl -require-attributed   # attribution gate
//	runreport -hist hist.jsonl -base golden.jsonl      # percentile gate
package main

import (
	"os"

	"ecndelay/internal/report"
)

func main() { os.Exit(report.Run(os.Args[1:], os.Stdout, os.Stderr)) }
