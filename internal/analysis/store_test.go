package analysis

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/dump"
	"repro/internal/inject"
)

func TestSaveLoadRoundTripLatencyValid(t *testing.T) {
	rs := &ResultSet{
		Seed:  7,
		Scale: 1,
		Results: map[string][]inject.Result{
			"A": {
				mkResult("fs", "sys_read", inject.CampaignA, inject.OutcomeCrash, dump.CauseNullPointer, 12, "fs"),
				mkResult("fs", "sys_read", inject.CampaignA, inject.OutcomeCrash, dump.CauseGPF, 0, "fs"),
			},
		},
	}
	rs.Results["A"][1].LatencyValid = false

	path := t.TempDir() + "/r.json.gz"
	if err := rs.Save(path); err != nil {
		t.Fatal(err)
	}
	if rs.Version != SchemaVersion {
		t.Fatalf("Save left Version = %d", rs.Version)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != SchemaVersion {
		t.Fatalf("loaded Version = %d", got.Version)
	}
	// Current-schema files keep their LatencyValid flags verbatim.
	if !got.Results["A"][0].LatencyValid || got.Results["A"][1].LatencyValid {
		t.Fatalf("LatencyValid not preserved: %+v", got.Results["A"])
	}
}

// Load reads only the current schema. A file without a Version field
// (version 0) predates Result.LatencyValid, and a newer schema may
// carry fields this build would drop, so both are refused.
func TestLoadSchemaVersion(t *testing.T) {
	crash := mkResult("mm", "rmqueue", inject.CampaignC, inject.OutcomeCrash, dump.CauseInvalidOpcode, 3, "mm")
	for _, version := range []int{0, SchemaVersion, SchemaVersion + 1} {
		path := t.TempDir() + "/rs.json.gz"
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		zw := gzip.NewWriter(f)
		rs := ResultSet{Version: version, Seed: 2003, Scale: 1, Results: map[string][]inject.Result{"C": {crash}}}
		if err := json.NewEncoder(zw).Encode(&rs); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		f.Close()

		got, err := Load(path)
		if version != SchemaVersion {
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", version)) {
				t.Fatalf("schema version %d: Load returned %v, want an error naming the version", version, err)
			}
			continue
		}
		if err != nil || len(got.Results["C"]) != 1 || !got.Results["C"][0].LatencyValid {
			t.Fatalf("schema version %d: Load returned %+v, %v", version, got, err)
		}
	}
}
