package analysis

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/inject"
)

// SchemaVersion is the on-disk result-set schema; Load reads no other.
// Version 2 added Result.LatencyValid and version 3 added Quarantined.
const SchemaVersion = 3

// ResultSet is a persisted collection of injection results, keyed by
// campaign, with the metadata needed to re-analyze later.
type ResultSet struct {
	Version int
	Seed    int64
	Scale   int
	// FaultModel names the fault model the study ran under ("" =
	// bitflip). The field is omitted when empty, so bitflip sets remain
	// byte-identical to files written before fault models existed — no
	// schema bump needed.
	FaultModel string                     `json:",omitempty"`
	Results    map[string][]inject.Result // "A", "B", "C"
	// Quarantined lists, per campaign key, the target ordinals
	// abandoned after exhausted harness-fault retries. Those targets
	// have no entry in Results and are excluded from every table and
	// figure; reports state the count explicitly.
	Quarantined map[string][]int `json:",omitempty"`
}

// QuarantinedCount is the number of quarantined targets across
// campaigns.
func (rs *ResultSet) QuarantinedCount() int {
	n := 0
	for _, ords := range rs.Quarantined {
		n += len(ords)
	}
	return n
}

// CampaignKey renders a campaign as a stable map key.
func CampaignKey(c inject.Campaign) string {
	switch c {
	case inject.CampaignA:
		return "A"
	case inject.CampaignB:
		return "B"
	case inject.CampaignC:
		return "C"
	}
	return "?"
}

// ParseCampaigns decodes a campaign selection string ("ABC") into
// campaign values. Every component that derives a target list from a
// study spec — kinject, the worker backend, kampaignd — shares it, so
// all ends of the wire protocol decode the same list from the same
// spec string.
func ParseCampaigns(s string) ([]inject.Campaign, error) {
	var out []inject.Campaign
	for _, ch := range strings.ToUpper(s) {
		c, ok := CampaignFromKey(string(ch))
		if !ok {
			return nil, fmt.Errorf("unknown campaign %q", string(ch))
		}
		out = append(out, c)
	}
	return out, nil
}

// CampaignFromKey is the inverse of CampaignKey.
func CampaignFromKey(key string) (inject.Campaign, bool) {
	switch key {
	case "A":
		return inject.CampaignA, true
	case "B":
		return inject.CampaignB, true
	case "C":
		return inject.CampaignC, true
	}
	return 0, false
}

// All returns every result across campaigns.
func (rs *ResultSet) All() []inject.Result {
	var out []inject.Result
	for _, key := range []string{"A", "B", "C"} {
		out = append(out, rs.Results[key]...)
	}
	return out
}

// Save writes the result set as gzipped JSON at the current schema
// version.
func (rs *ResultSet) Save(path string) error {
	rs.Version = SchemaVersion
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("analysis: save: %w", err)
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	enc := json.NewEncoder(zw)
	if err := enc.Encode(rs); err != nil {
		return fmt.Errorf("analysis: encode: %w", err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("analysis: flush: %w", err)
	}
	return nil
}

// Load reads a result set saved by Save. A set of any schema version
// but SchemaVersion is refused.
func Load(path string) (*ResultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("analysis: load: %w", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("analysis: gunzip: %w", err)
	}
	defer zr.Close()
	var rs ResultSet
	if err := json.NewDecoder(zr).Decode(&rs); err != nil {
		return nil, fmt.Errorf("analysis: decode: %w", err)
	}
	if rs.Version != SchemaVersion {
		return nil, fmt.Errorf("analysis: %s: result-set schema version %d, want %d", path, rs.Version, SchemaVersion)
	}
	return &rs, nil
}
