// Package des is Switchboard's deterministic discrete-event simulation
// engine: a shared virtual clock, pending events in three typed sources (the
// one pending arrival, a monotone radix queue of departures, a short
// fleet-event list) merged by (time, class, push order) for stable
// tie-breaking, and seeded splitmix64 RNG streams per entity, so the same
// seed and workload replay to the byte — across runs, machines, and
// map-iteration shuffles.
//
// It is the repo's one replay engine. As a fleet laboratory it models the
// 12-DC world of internal/geo with per-(config, DC) latency and link loads
// precomputed from internal/model, exposes pluggable policy interfaces for
// placement, admission, and failover timing, injects DC failure/recovery
// events mid-run, and sustains millions of calls per second of simulated
// traffic on one dispatch goroutine, with the workload drawn on a second
// (Engine.Run). As a plan checker it replays recorded calls
// (RecordSource) against a provisioning plan's capacities on a fleet built
// from the plan's load model (NewPlanFleet), under the plan-quota or
// greedy-local policy; Engine.RunUntil splits a DC-failure drill's books at
// the failure instant. The provisioning results in Table 4 of the paper come
// from exactly this kind of trace-against-policy replay at production scale.
//
// The engine emits the same decision-trace record format as the live
// controller — internal/obs/span JSONL with the controller's leg names
// (controller.start, controller.persist, kv.HSET, controller.faildc) — so
// cmd/sbtrace renders percentiles, waterfalls, and critical paths from a
// simulated run without modification. Each sampled decision also carries
// counterfactual "what if this call had been placed at DC j" child spans
// with the candidate's ACL and headroom at decision time.
//
// Determinism contract (enforced by the sblint determinism analyzer): no
// wall-clock reads, no global math/rand, no map-iteration-ordered output.
// Virtual time is int64 nanoseconds from a caller-supplied origin; all
// randomness flows from Stream values derived from the run seed.
package des
