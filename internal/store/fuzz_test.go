package store

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"oagrid/internal/diet"
)

// fuzzSeedJournal builds a small valid journal covering every record kind.
func fuzzSeedJournal() []byte {
	recs := []Record{
		{Kind: KindAdmitted, ID: 1, Scenarios: 4, Months: 12, Heuristic: "knapsack",
			Priority: 3, Labels: map[string]string{"team": "ocean"}},
		{Kind: KindPlanned, ID: 1, Round: 0, Planned: []diet.PlannedChunk{{Cluster: "capricorne", Scenarios: 4}}},
		{Kind: KindChunk, ID: 1, Chunk: &diet.ExecResponse{Cluster: "capricorne", Makespan: 42.5, Scenarios: 4}, IDs: []int{0, 1, 2, 3}},
		{Kind: KindDone, ID: 1, Status: diet.CampaignDone, Makespan: 42.5},
		{Kind: KindAdmitted, ID: 2, Scenarios: 2, Months: 6, Heuristic: "gqap"},
		{Kind: KindCancelled, ID: 2, Err: "operator cancel"},
		{Kind: KindAdmitted, ID: 3, Scenarios: 8, Months: 24, Heuristic: "knapsack"},
		{Kind: KindRequeue, ID: 3, Requeued: 8},
	}
	var out []byte
	for i := range recs {
		line, _ := json.Marshal(&recs[i])
		out = append(out, line...)
		out = append(out, '\n')
	}
	return out
}

// FuzzOpen throws arbitrary bytes at the journal replay path — Open's
// replay + torn-tail truncation and the read-only ReplayFile — and demands
// it never panics, fails only with the package's typed corruption error,
// and leaves a journal that a second Open accepts (truncation must repair,
// not merely tolerate, a torn tail).
func FuzzOpen(f *testing.F) {
	valid := fuzzSeedJournal()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("\n\n\n"))
	f.Add([]byte("{\n"))
	f.Add([]byte("not json at all\n{\"kind\":\"admitted\",\"id\":1}\n"))
	f.Add(valid[:len(valid)-7])                                // torn tail
	f.Add(append(append([]byte{}, valid...), "{\"kind\":"...)) // torn tail after valid records
	mid := append([]byte{}, valid...)
	mid[len(valid)/2] = 0x00 // mid-file corruption
	f.Add(mid)
	f.Add([]byte("{\"kind\":\"chunk\",\"id\":9}\n")) // chunk without admission
	huge := append([]byte{}, valid...)
	huge = append(huge, []byte("{\"kind\":\"admitted\",\"id\":18446744073709551615,\"scenarios\":3}\n")...)
	f.Add(huge)
	// An admission no campaign can have: recovery would build it with make.
	f.Add(append(append([]byte{}, valid...), []byte("{\"kind\":\"admitted\",\"id\":4,\"scenarios\":-3,\"months\":12}\n")...))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, journalName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, campaigns, err := Open(dir)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open failed with an untyped error: %v", err)
			}
			// Corrupt journals must also be refused read-only.
			if _, rerr := ReplayFile(path); rerr == nil || !errors.Is(rerr, ErrCorrupt) {
				t.Fatalf("ReplayFile accepted a journal Open refused: %v", rerr)
			}
			return
		}
		n := len(campaigns)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		// Open truncated any torn tail: the journal on disk is now clean, so
		// a second Open and the read-only replay must both accept it and see
		// the same campaign set.
		st2, again, err := Open(dir)
		if err != nil {
			t.Fatalf("reopening a repaired journal: %v", err)
		}
		defer st2.Close()
		if len(again) != n {
			t.Fatalf("reopen recovered %d campaigns, first open %d", len(again), n)
		}
		ro, err := ReplayFile(path)
		if err != nil {
			t.Fatalf("ReplayFile on a repaired journal: %v", err)
		}
		if len(ro) != n {
			t.Fatalf("ReplayFile recovered %d campaigns, Open %d", len(ro), n)
		}
	})
}
