package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// referenceJSON holds the stored output digests and exact reference cycles.
// It changes only through --regen.
//
//go:embed reference.json
var referenceJSON []byte

// reference is the stored-values file: per campaign workload, one entry per
// selectable seed subset.
type reference struct {
	Workloads map[string][]subsetRef `json:"workloads"`
}

// subsetRef is one selectable input set of a campaign workload and the
// values its outputs are checked against.
type subsetRef struct {
	Seeds        []uint64 `json:"seeds"`
	Instructions int      `json:"instructions"`
	// CSVSHA256 is the SHA-256 of the campaign's CSV export.
	CSVSHA256 string `json:"csv_sha256"`
	// ExactCycles holds, for sampled workloads, each point's cycles from
	// the exact simulator, keyed by config/benchmark/seed.
	ExactCycles map[string]uint64 `json:"exact_cycles,omitempty"`
}

func loadReference() (*reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("decoding stored reference: %w", err)
	}
	return &ref, nil
}

// regenerate recomputes every stored value from the current simulator and
// writes the reference file to path. The digests it records are what later
// runs are checked against, so regenerating hides any change in simulated
// results: it is an explicit flag, never automatic.
func regenerate(r *run, path string) error {
	ref := reference{Workloads: map[string][]subsetRef{}}
	for _, c := range []*campaignWorkload{fig4Exact, sweepSampled} {
		for k := 0; k < c.subsets; k++ {
			seeds := c.seeds(k)
			rr, err := c.round(r, c.spec(seeds, c.instructions), nil)
			if err != nil {
				return fmt.Errorf("%s subset %d: %w", c.name, k, err)
			}
			sub := subsetRef{Seeds: seeds, Instructions: c.instructions}
			sub.CSVSHA256 = sha256Hex(rr.csv)
			if c.sampled {
				exact := c.spec(seeds, c.instructions)
				exact.Configs = c.configs(false)
				er, err := c.round(r, exact, nil)
				if err != nil {
					return fmt.Errorf("%s subset %d exact: %w", c.name, k, err)
				}
				sub.ExactCycles = map[string]uint64{}
				for _, jr := range er.camp.Results {
					sub.ExactCycles[pointID(jr.ConfigName, jr.Benchmark, jr.Seed)] = jr.Result.Cycles
				}
			}
			ref.Workloads[c.name] = append(ref.Workloads[c.name], sub)
			fmt.Fprintf(os.Stderr, "perfbench: regenerated %s subset %d (seeds %v)\n", c.name, k, seeds)
		}
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
