// Package cluster is the multi-node sharding layer of oicd (DESIGN.md
// §11): a membership registry over static configuration, consistent-hash
// shard placement keyed on the canonical engine-config fingerprint, an
// HTTP front end (cmd/oicd-router) that proxies the full /v1/* API while
// pinning every session and fleet to its shard through an ownership
// table, and trace-based live migration — the drain protocol freezes a
// session on its source node, ships its recorded episode, replays it to
// head on the target with bit-exact verification, and atomically
// repoints ownership. Failover on node death reuses the same landing
// path from the router's shadow recordings, so a SIGKILLed node's
// sessions resume on a survivor byte-identical to an uninterrupted run.
package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// Node is one oicd serving process in the cluster.
type Node struct {
	Name string `json:"name"`
	Addr string `json:"addr"` // base URL, e.g. http://10.0.0.7:8080
}

// Membership is the cluster's node registry. The static JSON file is the
// bootstrap implementation; the Router only consumes the resolved node
// list, so a gossip- or service-discovery-backed registry can replace
// LoadMembership without touching placement or migration.
type Membership struct {
	Nodes []Node `json:"nodes"`
}

// LoadMembership reads and validates a membership file:
//
//	{"nodes": [{"name": "a", "addr": "http://127.0.0.1:8081"}, ...]}
func LoadMembership(path string) (*Membership, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: reading membership: %w", err)
	}
	return ParseMembership(b)
}

// ParseMembership parses and validates membership JSON.
func ParseMembership(b []byte) (*Membership, error) {
	var m Membership
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("cluster: parsing membership: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// Validate checks the structural invariants of a membership: at least
// one node, unique non-empty names, non-empty addresses.
func (m *Membership) Validate() error {
	if len(m.Nodes) == 0 {
		return errors.New("cluster: membership has no nodes")
	}
	seen := make(map[string]bool, len(m.Nodes))
	for i, n := range m.Nodes {
		if n.Name == "" {
			return fmt.Errorf("cluster: node %d has no name", i)
		}
		if n.Addr == "" {
			return fmt.Errorf("cluster: node %q has no addr", n.Name)
		}
		if seen[n.Name] {
			return fmt.Errorf("cluster: duplicate node name %q", n.Name)
		}
		seen[n.Name] = true
	}
	return nil
}

// Sentinel errors of the cluster layer.
var (
	// ErrNoShard: no ready node can take the placement (all down, not
	// ready, or out of forced-compute headroom).
	ErrNoShard = errors.New("cluster: no ready shard for placement")
	// ErrShardDown: the shard owning the object is unreachable.
	ErrShardDown = errors.New("cluster: shard down")
	// ErrUnknownNode: a named node is not in the membership.
	ErrUnknownNode = errors.New("cluster: unknown node")
	// ErrNotFound: no live shard holds a session/fleet under the given ID.
	ErrNotFound = errors.New("cluster: not found")
	// ErrNoShadow: the router holds no (or an overflowed) shadow episode
	// for the session, so it cannot fail over without the source node.
	ErrNoShadow = errors.New("cluster: no shadow episode for session")
	// ErrMigrateMismatch: the migrated session's replayed successor state
	// did not verify bit-exactly against the source — the migration was
	// rolled back rather than repointing ownership at divergent state.
	ErrMigrateMismatch = errors.New("cluster: migrated session state does not match source")
)

// NodeStatus is one node's row in a cluster status snapshot.
type NodeStatus struct {
	Name  string `json:"name"`
	Addr  string `json:"addr"`
	Live  bool   `json:"live"`           // /readyz answers 200 or 503
	Ready bool   `json:"ready"`          // /readyz answers 200
	Dead  bool   `json:"dead,omitempty"` // liveness failed DeathThreshold consecutive probes

	// Load signals from the node's /readyz body (oic.ReadyzResponse),
	// the values of the gauges named here.
	Sessions       int     `json:"sessions"`        // oicd_sessions_active
	Fleets         int     `json:"fleets"`          // oicd_fleets_active
	Pressure       float64 `json:"pressure"`        // max oicd_fleet_pressure (forced computes / budget)
	ReclaimedRatio float64 `json:"reclaimed_ratio"` // mean oicd_fleet_reclaimed_ratio

	// Ownership counts from the router's table, which holds the objects
	// created or named in a request since the router started.
	OwnedSessions int `json:"owned_sessions"`
	OwnedFleets   int `json:"owned_fleets"`
}

// ClusterStatus is the GET /v1/cluster payload.
type ClusterStatus struct {
	Nodes    []NodeStatus `json:"nodes"`
	Sessions int          `json:"sessions"`       // sessions in the router's table
	Fleets   int          `json:"fleets"`         // fleets in the router's table
	Lost     int          `json:"lost,omitempty"` // sessions lost (no shadow at failover)
}

// MigrateRequest asks the router to live-migrate one session:
// POST /v1/cluster/migrate. Target may be empty to let placement choose
// (ring preference excluding the current owner).
type MigrateRequest struct {
	Session string `json:"session"`
	Target  string `json:"target,omitempty"`
}

// MigrateReport is the result of one live migration.
type MigrateReport struct {
	Session  string  `json:"session"`
	From     string  `json:"from"`
	To       string  `json:"to"`
	Steps    int     `json:"steps"`              // episode length shipped and replayed
	Failover bool    `json:"failover,omitempty"` // source unreachable; shadow episode used
	Millis   float64 `json:"ms"`                 // end-to-end migration latency
}

// DrainRequest asks the router to migrate every session off a node:
// POST /v1/cluster/drain.
type DrainRequest struct {
	Node string `json:"node"`
}

// DrainReport summarizes a drain.
type DrainReport struct {
	Node          string   `json:"node"`
	Migrated      int      `json:"migrated"`
	Failed        int      `json:"failed"`
	FleetsSkipped int      `json:"fleets_skipped,omitempty"` // fleets stay pinned; they recover via their node's journal
	Errors        []string `json:"errors,omitempty"`
}
