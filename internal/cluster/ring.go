// Package cluster shards the scheduling service across many pimserve
// backends: a consistent-hash ring keyed on trace fingerprints, an HTTP
// router that pins every trace to one shard (so each residence table is
// built once fleet-wide), and a peer cache-fill client that lets a
// shard inheriting a key after ring churn adopt the previous owner's
// table instead of rebuilding it.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// DefaultReplicas is the virtual-node count per backend when NewRing is
// given zero. 128 points per backend keeps the expected load imbalance
// across a handful of shards within a few percent, while membership
// changes stay O(replicas log points).
const DefaultReplicas = 128

// Ring is a consistent-hash ring with virtual nodes. Hashing is
// SHA-256-derived, so ownership is a pure function of (members,
// replicas, key): every router instance, and every future process,
// computes the same owner for the same view of the fleet. All methods
// are safe for concurrent use.
type Ring struct {
	mu       sync.RWMutex
	replicas int
	members  map[string]struct{}
	points   []ringPoint // sorted by hash, ties broken by backend
}

type ringPoint struct {
	hash    uint64
	backend string
}

// NewRing returns an empty ring; replicas <= 0 means DefaultReplicas.
func NewRing(replicas int) *Ring {
	return &Ring{replicas: orDefault(replicas, DefaultReplicas), members: make(map[string]struct{})}
}

// ringHash maps a byte string onto the ring's key space. SHA-256
// truncated to 64 bits: stable across processes and Go versions (unlike
// maphash), uniform enough that vnode placement needs no balancing.
func ringHash(data []byte) uint64 {
	sum := sha256.Sum256(data)
	return binary.BigEndian.Uint64(sum[:8])
}

// Add inserts a backend's virtual nodes. Adding a present member is a
// no-op, so health-check readmission needs no separate bookkeeping.
func (r *Ring) Add(backend string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[backend]; ok {
		return
	}
	r.members[backend] = struct{}{}
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, ringPoint{
			hash:    ringHash(fmt.Appendf(nil, "%s#%d", backend, i)),
			backend: backend,
		})
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].backend < r.points[b].backend
	})
}

// Remove ejects a backend. Keys it owned move to each arc's next
// backend; everything else keeps its owner — that bounded movement is
// the whole point of consistent hashing.
func (r *Ring) Remove(backend string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[backend]; !ok {
		return
	}
	delete(r.members, backend)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.backend != backend {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Has reports current membership.
func (r *Ring) Has(backend string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.members[backend]
	return ok
}

// Len returns the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// Members returns the backends in sorted order.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.members))
	for b := range r.members {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

// Owner returns the backend owning key: the member whose first virtual
// node sits at or clockwise-after the key's hash. ok is false on an
// empty ring.
func (r *Ring) Owner(key []byte) (backend string, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ownerLocked(key, "")
}

// Owners returns up to n distinct backends for key in ownership order:
// the primary first (identical to Owner), then the next distinct
// backends clockwise around the ring. This is the replication walk —
// with a replication factor R, Owners(key, R)[1:] are the replicas
// that hold a copy of the key's table so the primary's death is a
// failover, not a rebuild. Fewer than n members yields all of them;
// an empty ring yields nil. The returned slice is freshly allocated.
func (r *Ring) Owners(key []byte, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if n <= 0 || len(r.points) == 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	out := make([]string, 0, n)
	h := ringHash(key)
	pts := len(r.points)
	start := sort.Search(pts, func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < pts && len(out) < n; i++ {
		p := r.points[(start+i)%pts]
		if !contains(out, p.backend) {
			out = append(out, p.backend)
		}
	}
	return out
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// OwnerExcluding returns who would own key if exclude were not a
// member. For a key owned by exclude, that is both the owner before
// exclude joined and the inheritor after it leaves — which makes it the
// peer most likely to hold the key's table already, and therefore the
// peer cache-fill target. ok is false when no other member exists.
func (r *Ring) OwnerExcluding(key []byte, exclude string) (backend string, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ownerLocked(key, exclude)
}

func (r *Ring) ownerLocked(key []byte, exclude string) (string, bool) {
	n := len(r.points)
	if n == 0 {
		return "", false
	}
	h := ringHash(key)
	start := sort.Search(n, func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < n; i++ {
		p := r.points[(start+i)%n]
		if p.backend != exclude {
			return p.backend, true
		}
	}
	return "", false
}
