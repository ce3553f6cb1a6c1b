package harness

import (
	"context"
	"strings"
	"testing"
	"time"

	"partialtor/internal/sig"
	"partialtor/internal/vote"
)

func TestDriverRegistryBuiltins(t *testing.T) {
	for _, p := range []Protocol{Current, Synchronous, ICPS} {
		d, err := DriverFor(p)
		if err != nil {
			t.Fatalf("builtin %v has no driver: %v", p, err)
		}
		if d.Name() != p.String() {
			t.Fatalf("driver name %q != protocol name %q", d.Name(), p)
		}
	}
	if _, err := DriverFor(Protocol(1234)); err == nil || !strings.Contains(err.Error(), "no driver registered") {
		t.Fatalf("unknown protocol error %v", err)
	}
	if got := Protocol(1234).String(); !strings.Contains(got, "1234") {
		t.Fatalf("unregistered protocol renders as %q", got)
	}
}

// renamedDriver wraps another driver under a new display name — the
// smallest possible out-of-tree protocol variant.
type renamedDriver struct {
	name string
	Driver
}

func (d renamedDriver) Name() string { return d.name }

// TestNewProtocolPluggability is the registry's end-to-end promise: a
// protocol variant registered at runtime works everywhere a builtin does —
// RunE, String, sweeps — with no switch to grow.
func TestNewProtocolPluggability(t *testing.T) {
	base, err := DriverFor(Current)
	if err != nil {
		t.Fatal(err)
	}
	custom := NewProtocol(renamedDriver{name: "CurrentClone", Driver: base})
	if custom.String() != "CurrentClone" {
		t.Fatalf("custom protocol renders as %q", custom)
	}
	run, err := RunE(context.Background(), Scenario{
		Protocol:     custom,
		Relays:       100,
		EntryPadding: 0,
		Round:        10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !run.Success {
		t.Fatal("custom-registered driver failed a healthy run")
	}
	if run.Consensus() == nil {
		t.Fatal("custom driver's outcome lost the consensus document")
	}

	// The clone must agree with the protocol it delegates to.
	ref, err := RunE(context.Background(), Scenario{
		Protocol:     Current,
		Relays:       100,
		EntryPadding: 0,
		Round:        10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.Consensus().Digest() != ref.Consensus().Digest() {
		t.Fatal("delegating driver diverged from its base protocol")
	}
}

// brokenDriver builds the wrong number of nodes.
type brokenDriver struct{}

func (brokenDriver) Name() string { return "Broken" }
func (brokenDriver) Build(s Scenario, _ []*sig.KeyPair, _ []*vote.Document) (ProtocolRun, error) {
	return ProtocolRun{}, nil
}

func TestDriverNodeCountMismatchIsError(t *testing.T) {
	p := NewProtocol(brokenDriver{})
	_, err := RunE(context.Background(), Scenario{Protocol: p, Relays: 100, EntryPadding: 0})
	if err == nil || !strings.Contains(err.Error(), "built 0 nodes for 9 authorities") {
		t.Fatalf("node-count mismatch error %v", err)
	}
}

// TestRunEContextCancelled: a context dead on arrival aborts before the
// protocol phase with a wrapped context error.
func TestRunEContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunE(ctx, Scenario{Protocol: Current, Relays: 100, EntryPadding: 0})
	if err == nil || res != nil {
		t.Fatalf("cancelled RunE returned res=%v err=%v", res, err)
	}
	if !strings.Contains(err.Error(), "cancelled") {
		t.Fatalf("error %v does not mention cancellation", err)
	}
}
