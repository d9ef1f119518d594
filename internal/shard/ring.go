// Package shard partitions the conference-ID space across N control-plane
// shards and runs the per-shard leadership races that decide which controller
// process owns each slice. A Ring maps a conference ID onto a shard via
// consistent hashing with virtual nodes; a Manager races one
// controller.Elector per shard over its own lease key (shard/<i>/leader),
// reusing the store's epoch fencing so a deposed shard leader's straggling
// writes are rejected per shard. The HTTP surface resolves the owning shard
// for every call-control request and either serves it locally, proxies it to
// the owner, or redirects with a leader hint (see internal/httpapi).
package shard

import (
	"fmt"
	"sort"
	"strconv"
)

// DefaultVirtualNodes is the per-shard virtual-node count. More points smooth
// the key distribution; 64 keeps the worst shard within a few percent of fair
// share while the ring stays a few KB.
const DefaultVirtualNodes = 64

// LeaseKey returns the store key shard i's leadership race runs on.
func LeaseKey(shard int) string {
	return "shard/" + strconv.Itoa(shard) + "/leader"
}

// KeyPrefix returns the store-key namespace for shard i's call state, fed to
// controller.Config.KeyPrefix so shard state never collides.
func KeyPrefix(shard int) string {
	return "shard/" + strconv.Itoa(shard) + "/"
}

// ringPoint is one virtual node: a position on the hash circle and the shard
// that owns the arc ending there.
type ringPoint struct {
	hash  uint64
	shard int
}

// Ring is a consistent-hash ring over a fixed shard count. It is immutable
// after construction and safe for concurrent use without locking. Every node
// in a fleet must build the ring with the same (shards, virtualNodes) pair —
// the mapping is a pure function of those two numbers, so agreement needs no
// coordination.
type Ring struct {
	shards int
	points []ringPoint // sorted by hash; immutable after NewRing
}

// NewRing builds a ring with the given shard count and virtual nodes per
// shard (DefaultVirtualNodes when vnodes <= 0).
func NewRing(shards, vnodes int) (*Ring, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("shard: ring needs at least 1 shard, got %d", shards)
	}
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	r := &Ring{shards: shards, points: make([]ringPoint, 0, shards*vnodes)}
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			h := mix64(uint64(s)<<32 | uint64(v) | 1<<63)
			r.points = append(r.points, ringPoint{hash: h, shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A hash collision between shards would make the mapping depend on
		// sort stability; break it by shard so every node agrees.
		return r.points[i].shard < r.points[j].shard
	})
	return r, nil
}

// Shards returns the shard count.
func (r *Ring) Shards() int { return r.shards }

// Lookup maps a conference ID onto its owning shard: hash the ID onto the
// circle and walk clockwise to the first virtual node.
func (r *Ring) Lookup(conf uint64) int {
	h := mix64(conf)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the last point back to the first
	}
	return r.points[i].shard
}

// mix64 is the splitmix64 finalizer — the same mixer the span tracer uses for
// trace IDs: cheap, stateless, and avalanche-complete, so sequential
// conference IDs spread uniformly over the circle.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
