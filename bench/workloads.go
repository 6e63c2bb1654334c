package main

import (
	"fmt"
	"time"

	"repro/internal/simnet"
)

// workload is one named benchmark input. Study workloads set the study
// fields; serve-zipf sets serve.
type workload struct {
	name string

	// Study shape: sites × perSite URLs, landing pages fetched `fetches`
	// times (cold) or revisited after `revisit` (warm).
	sites, perSite, fetches int
	warm                    bool
	revisit                 time.Duration
	faults                  simnet.FaultConfig
	dnsFail                 float64
	// replaySites is how many leading sites the traced run replays.
	replaySites int

	serve *serveShape
}

// workers is the study parallelism and the serving client count: the
// load is sized for a 2-core machine.
const workers = 2

func workloads() []workload {
	return []workload{
		{name: "h1k-cold", sites: 1000, perSite: 20, fetches: 10, replaySites: 100},
		{name: "h500-warm", sites: 500, perSite: 20, warm: true, revisit: 30 * time.Minute, replaySites: 50},
		{
			name: "h500-faults", sites: 500, perSite: 20, fetches: 10, replaySites: 100,
			faults:  simnet.FaultConfig{Rates: simnet.FaultRates{Timeout: .05, Truncate: .05, Loss: .10}},
			dnsFail: .05,
		},
		{name: "serve-zipf", serve: &serveShape{sites: 1000, perSite: 20, requests: 1_000_000}},
	}
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// faulty reports whether the workload injects faults, so that dropped
// pages are expected output rather than failures.
func (w workload) faulty() bool {
	return w.faults.Enabled() || w.dnsFail > 0
}
