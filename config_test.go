package gravel_test

import (
	"errors"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"gravel"
	"gravel/internal/core"
	"gravel/internal/models"
	"gravel/internal/transport"
)

// TestConfigValidate exercises the single validation funnel: each bad
// configuration must come back as a *ConfigError naming the offending
// field.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name  string
		cfg   interface{ Validate() error }
		field string // "" means valid
	}{
		{"ok-minimal", gravel.Config{Nodes: 1}, ""},
		{"ok-full", gravel.Config{Nodes: 8, WGSize: 256, Transport: "loopback"}, ""},
		{"zero-nodes", gravel.Config{}, "Nodes"},
		{"negative-nodes", gravel.Config{Nodes: -3}, "Nodes"},
		{"wgsize-not-multiple", gravel.Config{Nodes: 2, WGSize: 100}, "WGSize"},
		{"wgsize-negative", gravel.Config{Nodes: 2, WGSize: -64}, "WGSize"},
		{"unknown-transport", gravel.Config{Nodes: 2, Transport: "rdma"}, "Transport"},
		{"chan-alias-ok", gravel.Config{Nodes: 2, Transport: "chan"}, ""},
		{"resolver-shards-ok", gravel.Config{Nodes: 2, ResolverShards: 4}, ""},
		{"resolver-shards-not-pow2", gravel.Config{Nodes: 2, ResolverShards: 3}, "ResolverShards"},
		{"resolver-shards-too-many", gravel.Config{Nodes: 2, ResolverShards: 128}, "ResolverShards"},
		{"resolver-shards-negative", gravel.Config{Nodes: 2, ResolverShards: -2}, "ResolverShards"},
		{"unknown-model", gravel.Config{Nodes: 2, Model: "warp-drive"}, "Model"},
		{"tcp-no-coordinator", gravel.Config{Nodes: 2, Transport: "tcp"}, "TransportOpts.Coord"},
		{"tcp-self-out-of-range", gravel.Config{Nodes: 1, Transport: "tcp", TransportOpts: gravel.TransportOptions{Self: 1}}, "TransportOpts.Self"},
		{"tcp-single-node-ok", gravel.Config{Nodes: 1, Transport: "tcp"}, ""},
		// What the public Config cannot express, on the struct it maps onto.
		{"unknown-strategy", core.Config{Nodes: 2, Send: core.SendOwn + 1}, "Send"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.field == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			var ce *gravel.ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("Validate() = %v (%T), want *ConfigError", err, err)
			}
			if ce.Field != tc.field {
				t.Errorf("ConfigError.Field = %q, want %q", ce.Field, tc.field)
			}
			if !strings.Contains(ce.Error(), "invalid "+tc.field) {
				t.Errorf("Error() = %q, want it to name the field", ce.Error())
			}
		})
	}
}

// TestEveryConstructorPanicsTheSameError: the three ways in share one
// rule set, so an empty description fails identically through each.
func TestEveryConstructorPanicsTheSameError(t *testing.T) {
	want := core.Config{}.Validate()
	for name, construct := range map[string]func(){
		"core.New":         func() { core.New(core.Config{}) },
		"models.NewSystem": func() { models.NewSystem(gravel.ModelCoprocessor, core.Config{}) },
		"gravel.New":       func() { gravel.New(gravel.Config{}) },
	} {
		func() {
			defer func() {
				if r := recover(); !reflect.DeepEqual(r, want) {
					t.Errorf("%s panicked %v (%T), want %v (%T)", name, r, r, want, want)
				}
			}()
			construct()
		}()
	}
}

// TestModelTable: every public model constant is a row of the one
// table, in its order, and every row builds over both in-process
// fabrics as the system it says it is.
func TestModelTable(t *testing.T) {
	consts := []string{
		gravel.ModelCoprocessor, gravel.ModelCoprocessorBuf, gravel.ModelMsgPerLane, gravel.ModelCoalesced,
		gravel.ModelCoalescedAgg, gravel.ModelGravel, gravel.ModelGravelArchive, gravel.ModelCPUOnly,
	}
	if got := gravel.Models(); !reflect.DeepEqual(got, consts) {
		t.Fatalf("gravel.Models() = %v, want the Model* constants %v", got, consts)
	}
	if got, want := models.Names(), consts[:len(consts)-1]; !reflect.DeepEqual(got, want) {
		t.Errorf("models.Names() = %v, want the Figure 15 bars %v", got, want)
	}
	for _, m := range models.Table {
		for _, fab := range []string{"chan", "loopback"} {
			sys, err := m.New(core.Config{Nodes: 2, Transport: fab})
			if err != nil {
				t.Errorf("%s over %s: %v", m.Name, fab, err)
				continue
			}
			if sys.Name() != m.Name || sys.Stats().Model != m.Name {
				t.Errorf("%s over %s is Name() %q, Stats().Model %q", m.Name, fab, sys.Name(), sys.Stats().Model)
			}
			sys.Close()
		}
	}
}

// TestNewCheckedNeverPanics: a construction failure — the description
// alone being wrong, or the fabric failing to come up — is NewChecked's
// error and New's panic value, and leaves nothing running.
func TestNewCheckedNeverPanics(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	gone, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gone.Close() // nothing listens here any more

	for _, tc := range []struct {
		name string
		cfg  gravel.Config
		is   func(error) bool
	}{
		{"tcp-no-coordinator", gravel.Config{Nodes: 2, Transport: "tcp"},
			func(err error) bool { var e *gravel.ConfigError; return errors.As(err, &e) }},
		{"tcp-unreachable-coordinator", gravel.Config{Nodes: 2, Transport: "tcp", TransportOpts: gravel.TransportOptions{
			Coord: gone.Addr().String(), CoordDialTimeout: 50 * time.Millisecond}},
			func(err error) bool { var e *transport.CoordDownError; return errors.As(err, &e) }},
		{"tcp-unbindable-listen", gravel.Config{Nodes: 1, Transport: "tcp", TransportOpts: gravel.TransportOptions{
			Listen: held.Addr().String()}},
			func(err error) bool { var e *net.OpError; return errors.As(err, &e) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			sys, err := gravel.NewChecked(tc.cfg)
			if err == nil || sys != nil {
				t.Fatalf("NewChecked() = %v, %v; want no system and an error", sys, err)
			}
			if !tc.is(err) {
				t.Errorf("NewChecked() error = %v (%T), not the expected type", err, err)
			}
			func() {
				defer func() {
					r, _ := recover().(error)
					if r == nil || reflect.TypeOf(r) != reflect.TypeOf(err) || r.Error() != err.Error() {
						t.Errorf("New panicked %v, want NewChecked's %v", r, err)
					}
				}()
				gravel.New(tc.cfg)
			}()
			waitGoroutines(t, base)
		})
	}
}

// TestNewCheckedRejects verifies the error-returning constructor and
// that the panicking one throws the same typed value.
func TestNewCheckedRejects(t *testing.T) {
	if _, err := gravel.NewChecked(gravel.Config{Nodes: 0}); err == nil {
		t.Fatal("NewChecked accepted Nodes=0")
	}
	sys, err := gravel.NewChecked(gravel.Config{Nodes: 2})
	if err != nil {
		t.Fatalf("NewChecked rejected a valid config: %v", err)
	}
	sys.Close()

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("New(Nodes=0) did not panic")
		}
		if _, ok := r.(*gravel.ConfigError); !ok {
			t.Fatalf("New panicked with %T, want *ConfigError", r)
		}
	}()
	gravel.New(gravel.Config{})
}

// TestNewModelChecked verifies model-name and cluster-size validation,
// and that every advertised model still constructs.
func TestNewModelChecked(t *testing.T) {
	if _, err := gravel.NewModelChecked("warp-drive", 2, nil); err == nil {
		t.Fatal("NewModelChecked accepted an unknown model")
	} else {
		var ce *gravel.ConfigError
		if !errors.As(err, &ce) || ce.Field != "Model" {
			t.Fatalf("unknown model error = %v, want *ConfigError{Field: Model}", err)
		}
	}
	if _, err := gravel.NewModelChecked(gravel.ModelGravel, 0, nil); err == nil {
		t.Fatal("NewModelChecked accepted 0 nodes")
	}
	for _, name := range gravel.Models() {
		sys, err := gravel.NewModelChecked(name, 2, nil)
		if err != nil {
			t.Errorf("NewModelChecked(%q) = %v", name, err)
			continue
		}
		sys.Close()
	}
}
