package harness

import (
	"fmt"
	"sync"
	"time"

	"partialtor/internal/sig"
	"partialtor/internal/simnet"
	"partialtor/internal/vote"
)

// Outcome is the protocol-independent result a Driver hands back after the
// network has run: the success verdict, the paper's latency metric, and —
// crucially for the downstream phases — the consensus document itself, so
// no caller ever has to type-switch on the protocol-specific Detail.
type Outcome struct {
	// Success reports whether the run produced a valid consensus.
	Success bool
	// Latency is the §6.2 metric: network time to a consensus document
	// (simnet.Never on failure).
	Latency time.Duration
	// DoneAt is the absolute completion instant for protocols that report
	// one (ICPS); simnet.Never otherwise.
	DoneAt time.Duration
	// Consensus is the agreed document (nil on failure).
	Consensus *vote.Consensus
	// Detail is the protocol-specific result for deep inspection.
	Detail any
}

// ProtocolRun is one prepared protocol instance, ready to be placed on a
// network: the per-authority nodes, the default simulation horizon, and the
// collector that extracts the outcome once the network has run.
type ProtocolRun struct {
	// Nodes are the authority protocol nodes, index-aligned with the
	// scenario's authorities; the harness wires node i to authority i's
	// bandwidth profiles. len(Nodes) must equal Scenario.N.
	Nodes []simnet.Handler
	// EndTime is the simulation limit.
	EndTime time.Duration
	// Collect extracts the outcome after the network has run past EndTime.
	Collect func() Outcome
}

// Driver builds runnable instances of one directory protocol. The three
// paper protocols (Current, Synchronous, ICPS) are registered drivers, and a
// new protocol variant plugs into every scenario, sweep and figure generator
// by registering its own driver — typically from an init function via
// NewProtocol — instead of growing a switch inside the harness.
type Driver interface {
	// Name is the protocol's display name (it becomes Protocol.String()).
	Name() string
	// Build assembles a protocol instance for the scenario from the shared
	// inputs (authority keys and sealed vote documents). It must not
	// touch the network; the harness owns node placement and bandwidth.
	Build(s Scenario, keys []*sig.KeyPair, docs []*vote.Document) (ProtocolRun, error)
}

// registry maps Protocol values to their drivers. The three builtins are
// installed by init in drivers.go; out-of-tree variants join via
// RegisterDriver or NewProtocol.
var registry = struct {
	mu   sync.RWMutex
	m    map[Protocol]Driver
	next Protocol
}{m: make(map[Protocol]Driver), next: ICPS + 1}

// RegisterDriver installs d as the driver for p, replacing any existing
// registration (which lets tests or experiments shadow a builtin protocol).
func RegisterDriver(p Protocol, d Driver) {
	if d == nil {
		panic("harness: RegisterDriver with nil driver")
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	registry.m[p] = d
	if p >= registry.next {
		registry.next = p + 1
	}
}

// NewProtocol allocates a fresh Protocol value for d and registers it — the
// one-call way for an out-of-tree protocol variant to join the harness: the
// returned value works everywhere a builtin Protocol does (scenarios,
// sweeps, figure grids).
func NewProtocol(d Driver) Protocol {
	if d == nil {
		panic("harness: NewProtocol with nil driver")
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	p := registry.next
	registry.next++
	registry.m[p] = d
	return p
}

// DriverFor returns the registered driver for p, or an error naming the
// protocol when none is registered — a mistyped or stale Protocol value is
// an input condition, not a crash.
func DriverFor(p Protocol) (Driver, error) {
	registry.mu.RLock()
	d, ok := registry.m[p]
	registry.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("harness: no driver registered for protocol %d", int(p))
	}
	return d, nil
}

// driverName resolves a registered protocol's display name, or "".
func driverName(p Protocol) string {
	registry.mu.RLock()
	d, ok := registry.m[p]
	registry.mu.RUnlock()
	if !ok {
		return ""
	}
	return d.Name()
}
