package main

import (
	"hash"
	"hash/fnv"
	"strconv"

	"switchboard/internal/model"
	"switchboard/internal/trace"
)

// hashRecord folds the fields of a call record the workloads consume into h,
// so two set-ups can show they generated identical inputs.
func hashRecord(h hash.Hash64, r *model.CallRecord) {
	var b []byte
	b = strconv.AppendUint(b, r.ID, 10)
	b = strconv.AppendInt(b, r.Start.UnixNano(), 10)
	b = strconv.AppendInt(b, int64(r.Duration), 10)
	b = strconv.AppendUint(b, r.SeriesID, 10)
	for _, l := range r.Legs {
		b = append(b, l.Country...)
		b = strconv.AppendInt(b, int64(l.JoinOffset), 10)
		b = strconv.AppendInt(b, int64(l.Media), 10)
	}
	_, _ = h.Write(b)
}

// traceDigest hashes a small trace, for the seed check: the same seed must
// regenerate it and another seed must change it.
func traceDigest(seed int64) (uint64, error) {
	tc := trace.DefaultConfig()
	tc.Days, tc.CallsPerDay, tc.Seed = 1, 200, seed
	gen, err := trace.NewGenerator(tc)
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	gen.EachCall(func(r *model.CallRecord) bool { hashRecord(h, r); return true })
	return h.Sum64(), nil
}

// checkSeeds records whether the seed fully determines the inputs.
func checkSeeds(r *run, digests []uint64) {
	for _, d := range digests[1:] {
		r.check(d == digests[0], "set-ups from seed %d generated different inputs", r.seed)
	}
	a, err := traceDigest(r.seed)
	b, err2 := traceDigest(r.seed + 1)
	r.check(err == nil && err2 == nil && a != b, "seeds %d and %d generated the same trace", r.seed, r.seed+1)
}
