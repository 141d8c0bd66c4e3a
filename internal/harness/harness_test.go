package harness_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"gravel"
	"gravel/internal/ckpt"
	"gravel/internal/harness"
	"gravel/internal/rt"
)

// TestRegistryNames pins the registered app set: the union of what the
// three binaries used to accept, in Table 4 order for the bench subset.
func TestRegistryNames(t *testing.T) {
	want := []string{
		"gups", "gups-mod", "pagerank",
		"pagerank-1", "pagerank-2", "sssp-1", "sssp-2",
		"color-1", "color-2", "kmeans", "mer", "mer-full",
		"bfs-dir", "histogram",
	}
	got := harness.AppNames()
	if len(got) != len(want) {
		t.Fatalf("registry has %d apps %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestBenchOrder(t *testing.T) {
	want := []string{"GUPS", "PR-1", "PR-2", "SSSP-1", "SSSP-2", "color-1", "color-2", "kmeans", "mer"}
	apps := harness.BenchApps()
	if len(apps) != len(want) {
		t.Fatalf("got %d bench apps, want %d", len(apps), len(want))
	}
	for i, a := range apps {
		if a.Bench != want[i] {
			t.Fatalf("bench[%d] = %q, want %q", i, a.Bench, want[i])
		}
	}
}

func TestLookupUnknownListsNames(t *testing.T) {
	_, err := harness.LookupApp("nope")
	if err == nil {
		t.Fatal("expected error for unknown app")
	}
	for _, name := range []string{"gups", "mer-full", "color-2"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

// TestModelsMatchPublicAPI keeps the harness model list in lockstep
// with what gravel.Config.Model accepts.
func TestModelsMatchPublicAPI(t *testing.T) {
	pub := gravel.Models()
	har := harness.Models()
	if len(pub) != len(har) {
		t.Fatalf("harness lists %d models, gravel.Models() has %d", len(har), len(pub))
	}
	for i := range pub {
		if har[i].Name != pub[i] {
			t.Errorf("model[%d] = %q, want %q", i, har[i].Name, pub[i])
		}
		if har[i].Desc == "" {
			t.Errorf("model %q has no description", har[i].Name)
		}
	}
}

// TestEveryAppRuns executes every registered app's full path on a small
// input and checks self-verification passes and the checksum is
// populated.
func TestEveryAppRuns(t *testing.T) {
	for _, app := range harness.Apps() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			sys, err := gravel.NewChecked(gravel.Config{Nodes: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			res := app.Run(sys, rt.Whole(), harness.Params{Scale: 0.02})
			if res.Err != nil {
				t.Fatalf("self-verification failed: %v", res.Err)
			}
			if res.Check == 0 {
				t.Fatalf("Check is zero (summary: %s)", res.Summary)
			}
			if res.Summary == "" {
				t.Fatal("empty summary")
			}
		})
	}
}

func TestListJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := harness.WriteListJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc harness.ListDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Apps) != len(harness.AppNames()) || len(doc.Models) != len(gravel.Models()) {
		t.Fatalf("list doc has %d apps, %d models", len(doc.Apps), len(doc.Models))
	}
	found := false
	for _, tr := range doc.Transports {
		if tr == "tcp" {
			found = true
		}
	}
	if !found {
		t.Fatalf("transports %v missing tcp", doc.Transports)
	}
}

// TestMalformedResumeIsAnError: a restore point comes from the
// coordinator's store, so for every elastic row a Ckpt.Resume that is
// cut short, misses this node's shard, or carries another node's range
// comes back as the row's Result.Err, never as a panic. Node 1 of a
// two-node cluster resumes from mutations of a one-node run's first cut
// (one node, because a lone shard of two would wait for its peer in the
// histogram's device collectives).
func TestMalformedResumeIsAnError(t *testing.T) {
	p := harness.Params{Scale: 0.02, Steps: 2}
	for _, app := range harness.Apps() {
		if !app.Elastic {
			continue
		}
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			run := func(nodes, node int, ck ckpt.Run) harness.Result {
				sys, err := gravel.NewChecked(gravel.Config{Nodes: nodes})
				if err != nil {
					t.Fatal(err)
				}
				defer sys.Close()
				return app.Run(sys, rt.Where{Node: node, Ckpt: ck}, p)
			}
			var cut []byte
			res := run(1, 0, ckpt.Run{Save: func(_ uint64, data []byte) error {
				if cut == nil {
					cut = bytes.Clone(data)
				}
				return nil
			}})
			if res.Err != nil || len(cut) < 16 {
				t.Fatalf("saving run: err %v, %d-byte cut", res.Err, len(cut))
			}
			// Every k-means shard saves the same centroid vector and no
			// range, so any one of them is a whole restore point; a
			// reshardable app gathers its range from however many shards
			// cover it.
			anyShard := app.Name == "kmeans"
			for _, tc := range []struct {
				name     string
				resume   [][]byte
				accepted bool
			}{
				{"short payload", [][]byte{cut, cut[:len(cut)-4]}, false},
				{"header cut off", [][]byte{cut[:8], cut[:8]}, false},
				{"wrong shard count", [][]byte{cut}, anyShard || app.Reshardable},
				{"wrong range", [][]byte{cut, cut}, anyShard},
			} {
				res := run(2, 1, ckpt.Run{Resume: tc.resume})
				if tc.accepted != (res.Err == nil) {
					t.Errorf("%s: Err = %v, want accepted=%t", tc.name, res.Err, tc.accepted)
				}
			}
		})
	}
}
