package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ring is a consistent-hash ring over node names. Placement keys are the
// canonical engine-config fingerprints (pkg/oic Canonical().Fingerprint()),
// so every session of one configuration prefers the same node and its
// compiled artifact set is shared instead of rebuilt per shard — the
// cluster analogue of the single-node engine cache. Virtual nodes smooth
// the key distribution; lookups walk the ring clockwise and report nodes
// in preference order so callers can apply health and load filters
// without re-hashing.
type ring struct {
	hashes []uint64          // sorted vnode hashes
	owner  map[uint64]string // vnode hash → node name
	nodes  []string
}

// hashKey is FNV-1a with a splitmix64 avalanche finalizer: stable across
// processes and platforms (ownership must not depend on which router
// computed it), and well-mixed even for near-identical inputs — raw
// FNV-1a places "a#0".."a#63" in tight clusters, which would collapse
// the ring onto one node.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// vnodes is the virtual nodes per member on the ring.
const vnodes = 64

// newRing builds a ring over names.
func newRing(names []string) *ring {
	r := &ring{
		owner: make(map[uint64]string, len(names)*vnodes),
		nodes: append([]string(nil), names...),
	}
	for _, n := range names {
		for v := 0; v < vnodes; v++ {
			h := hashKey(fmt.Sprintf("%s#%d", n, v))
			// A (vanishingly unlikely) vnode hash collision: first owner wins,
			// deterministic because names iterate in membership order.
			if _, taken := r.owner[h]; taken {
				continue
			}
			r.owner[h] = n
			r.hashes = append(r.hashes, h)
		}
	}
	sort.Slice(r.hashes, func(i, j int) bool { return r.hashes[i] < r.hashes[j] })
	return r
}

// order returns every node name in preference order for key: the ring
// walk clockwise from the key's hash, keeping the first occurrence of
// each node. The caller takes the first acceptable (ready, under
// pressure cap) entry; the tail is the failover order.
func (r *ring) order(key string) []string {
	if len(r.hashes) == 0 {
		return nil
	}
	h := hashKey(key)
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	out := make([]string, 0, len(r.nodes))
	seen := make(map[string]bool, len(r.nodes))
	for i := 0; i < len(r.hashes) && len(out) < len(r.nodes); i++ {
		name := r.owner[r.hashes[(start+i)%len(r.hashes)]]
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	return out
}
