package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"fasttrack/internal/sim"
)

// defaultSeed is the seed the pinned digests were recorded at; every other
// seed checks only the seed-independent properties.
const defaultSeed = 1

//go:embed reference/digests.json
var digestsJSON []byte

//go:embed reference/paper.json
var paperJSON []byte

// digestFile is reference/digests.json: per workload, simulation name →
// result digest, all at defaultSeed.
type digestFile struct {
	Seed      uint64                       `json:"seed"`
	Workloads map[string]map[string]string `json:"workloads"`
}

// paperClaim is one ratio the paper quotes. reference/paper.json also gives
// each claim's wording and its EXPERIMENTS.md line, for readers.
type paperClaim struct {
	Figure string  `json:"figure"`
	Case   string  `json:"case"`
	Paper  float64 `json:"paper"`
}

func loadDigests() (digestFile, error) {
	var d digestFile
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return d, fmt.Errorf("reference/digests.json: %w", err)
	}
	return d, nil
}

func loadPaper(figure string) ([]paperClaim, error) {
	var all []paperClaim
	if err := json.Unmarshal(paperJSON, &all); err != nil {
		return nil, fmt.Errorf("reference/paper.json: %w", err)
	}
	var out []paperClaim
	for _, c := range all {
		if c.Figure == figure {
			out = append(out, c)
		}
	}
	return out, nil
}

// paperErr is the mean |ln(ours/paper)| over the claims; ours maps a claim's
// Case to the reproduced ratio.
func paperErr(claims []paperClaim, ours map[string]float64) (float64, error) {
	if len(claims) == 0 {
		return 0, fmt.Errorf("no paper claims")
	}
	var sum float64
	for _, c := range claims {
		v, ok := ours[c.Case]
		if !ok || !(v > 0) {
			return 0, fmt.Errorf("no reproduced ratio for %s", c.Case)
		}
		sum += math.Abs(math.Log(v / c.Paper))
	}
	return sum / float64(len(claims)), nil
}

// digest fingerprints every field of a Result. Floats print in shortest
// round-trip form, so equal digests mean bit-identical results.
func digest(r sim.Result) string {
	h := sha256.New()
	lat := r.Latency
	r.Latency = nil
	fmt.Fprintf(h, "%+v|", r)
	if lat != nil {
		fmt.Fprintf(h, "n=%d max=%d", lat.Count(), lat.Max())
		lat.Buckets(func(upper, count int64) { fmt.Fprintf(h, " %d:%d", upper, count) })
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// digestChecker compares results against the pinned digests at the default
// seed, or records them when pinning.
type digestChecker struct {
	want   map[string]string // nil: nothing to compare at this seed
	pinned map[string]string // non-nil when -pin is recording
}

func newDigestChecker(b *bench, workload string) (*digestChecker, error) {
	c := &digestChecker{}
	if b.pin != "" {
		c.pinned = map[string]string{}
		return c, nil
	}
	if b.seed != defaultSeed {
		return c, nil
	}
	d, err := loadDigests()
	if err != nil {
		return nil, err
	}
	if d.Seed != defaultSeed || len(d.Workloads[workload]) == 0 {
		return nil, fmt.Errorf("reference/digests.json has no %s digests at seed %d", workload, defaultSeed)
	}
	c.want = d.Workloads[workload]
	return c, nil
}

// check verifies (or records) the digest of the named simulation.
func (c *digestChecker) check(b *bench, name string, r sim.Result) {
	got := digest(r)
	if c.pinned != nil {
		c.pinned[name] = got
		return
	}
	if c.want == nil {
		return
	}
	want, ok := c.want[name]
	b.check(ok && want == got, "digest %s: got %s, pinned %q", name, got, want)
}

// finish checks every pinned simulation was seen, or writes the pin file.
func (c *digestChecker) finish(b *bench, workload string, seen int) error {
	if c.pinned != nil {
		return writePin(b.pin, workload, c.pinned)
	}
	if c.want != nil {
		b.check(seen == len(c.want), "%d simulations digested, %d pinned", seen, len(c.want))
	}
	return nil
}

// writePin merges one workload's digests into the pin file at path.
func writePin(path, workload string, digests map[string]string) error {
	d := digestFile{Seed: defaultSeed, Workloads: map[string]map[string]string{}}
	if old, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(old, &d); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	d.Seed = defaultSeed
	d.Workloads[workload] = digests
	out, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
