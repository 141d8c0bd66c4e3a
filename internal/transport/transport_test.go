package transport

import (
	"slices"
	"strings"
	"testing"

	"gravel/internal/fabric"
	"gravel/internal/timemodel"
)

// TestNewBuildsEveryName builds each of Names() and closes it: the
// in-process transports over 2 nodes, tcp over 1 node, which needs no
// coordinator.
func TestNewBuildsEveryName(t *testing.T) {
	nodes := map[string]int{"chan": 2, "loopback": 2, "tcp": 1}
	names := Names()
	if !slices.IsSorted(names) || len(names) != len(nodes) {
		t.Fatalf("Names() = %v, want the %d sorted names %v", names, len(nodes), nodes)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			n, ok := nodes[name]
			if !ok {
				t.Fatalf("no node count for transport %q", name)
			}
			f, err := New(name, timemodel.Default(), newClocks(n), fabric.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if f.Nodes() != n || !f.Hosts(n-1) {
				t.Fatalf("%s: %d nodes, hosts node %d: %v", name, f.Nodes(), n-1, f.Hosts(n-1))
			}
			f.Close()
		})
	}
}

func TestNewUnknownNameListsNames(t *testing.T) {
	_, err := New("no-such-transport", timemodel.Default(), newClocks(2), fabric.Options{})
	if err == nil {
		t.Fatal("unknown transport did not error")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}
