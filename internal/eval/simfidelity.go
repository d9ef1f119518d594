package eval

import (
	"fmt"
	"time"

	"switchboard/internal/des"
	"switchboard/internal/model"
	"switchboard/internal/provision"
	"switchboard/internal/records"
)

// SimFidelityResult validates the fractional LP plan against integral,
// call-level replay: the provisioning LP reasons in per-slot averages, while
// the replay admits whole calls with real start times and durations.
type SimFidelityResult struct {
	// PlanACL is the allocation plan's (fractional) mean ACL; the two
	// realized ACLs come from the call-level replay.
	PlanACL float64
	Plan    *Replay
	Greedy  *Replay
}

// Replay is one call-level replay of records against a plan's capacities:
// the des run's books plus the plan-relative figures des leaves to callers.
// Overflow is compute overflow; WAN beyond the provisioned peak is cost the
// plan would have had to pay for, not a failed call.
type Replay struct {
	des.Result
	// MaxLinkUtil is the worst peak/capacity ratio over links with at
	// least 10 Mbps provisioned.
	MaxLinkUtil float64
	// StrandedCores / StrandedGbps are the largest peaks that landed on
	// DCs / links with no provisioned capacity: traffic of configs outside
	// the plan placed by the §5.4 nearest-DC rule.
	StrandedCores float64
	StrandedGbps  float64
	// Unplanned counts calls whose config is outside the plan's universe.
	Unplanned int
}

// SimFidelity provisions Switchboard-with-backup from the evaluation
// window's demand, then replays the window call by call under the
// plan-following and greedy-local policies.
func SimFidelity(env *Env) (*SimFidelityResult, error) {
	if env.EvalRecords == nil {
		return nil, fmt.Errorf("eval: SimFidelity needs KeepEvalRecords")
	}
	lm, plan, alloc, err := env.SBWithBackup()
	if err != nil {
		return nil, err
	}
	planRig, err := newReplayRig(lm, env.Est, env.EvalRecords, plan.Cores, plan.LinkGbps)
	if err != nil {
		return nil, err
	}
	planRes, err := planRig.run(des.NewPlanQuota(alloc.Alloc, env.EvalStart, planRig.src.Origin()))
	if err != nil {
		return nil, err
	}
	greedyRig, err := newReplayRig(lm, env.Est, env.EvalRecords, plan.Cores, plan.LinkGbps)
	if err != nil {
		return nil, err
	}
	greedyRes, err := greedyRig.run(des.GreedyLocal{})
	if err != nil {
		return nil, err
	}
	return &SimFidelityResult{PlanACL: alloc.MeanACL, Plan: planRes, Greedy: greedyRes}, nil
}

// replayRig is one replay's record source and plan fleet. A source is
// consumed by its run, so each replay builds its own.
type replayRig struct {
	src   *des.RecordSource
	fleet *des.Fleet
}

func newReplayRig(lm *provision.LoadModel, est *records.LatencyEstimator, recs []*model.CallRecord, capCores, capGbps []float64) (*replayRig, error) {
	src, err := des.NewRecordSource(recs)
	if err != nil {
		return nil, err
	}
	fleet, err := des.NewPlanFleet(lm, est, src.Configs())
	if err != nil {
		return nil, err
	}
	if err := fleet.SetCapacity(capCores, capGbps); err != nil {
		return nil, err
	}
	return &replayRig{src: src, fleet: fleet}, nil
}

// run replays every record under pol.
func (r *replayRig) run(pol des.PlacementPolicy) (*Replay, error) {
	e, err := des.NewEngine(des.Config{Fleet: r.fleet, Source: r.src, Placement: pol})
	if err != nil {
		return nil, err
	}
	res, err := e.Run()
	if err != nil {
		return nil, err
	}
	out := &Replay{Result: res}
	peakCores, peakGbps := e.Peaks()
	for x, peak := range peakCores {
		if r.fleet.CapCores[x] <= 1e-9 {
			out.StrandedCores = max(out.StrandedCores, peak)
		}
	}
	for l, peak := range peakGbps {
		if capacity := r.fleet.CapGbps[l]; capacity >= 0.01 {
			out.MaxLinkUtil = max(out.MaxLinkUtil, peak/capacity)
		} else if capacity <= 1e-9 {
			out.StrandedGbps = max(out.StrandedGbps, peak)
		}
	}
	for c := range r.src.Configs() {
		if !r.fleet.Planned(int32(c)) {
			out.Unplanned += r.src.Calls(int32(c))
		}
	}
	return out, nil
}

// DrillResult compares a DC-failure drill under the backup-provisioned plan
// versus a serving-only plan — the system-level payoff of Eq 7-8's failure
// scenarios.
type DrillResult struct {
	FailedDC      string
	WithBackup    *DrillRun
	WithoutBackup *DrillRun
}

// DrillRun is one plan's DC-failure drill: calls replay normally until the
// failure instant, when the DC dies and is detected at once — every call it
// hosts moves to a surviving DC, and later arrivals avoid it.
type DrillRun struct {
	// Replaced counts calls live on the failed DC that had to move;
	// PostCalls counts arrivals at or after the failure.
	Replaced  uint64
	PostCalls uint64
	// Overflowed counts replaced calls and post-failure arrivals that
	// landed without compute headroom.
	Overflowed uint64
	// MeanACLBefore and MeanACLAfter are realized ACLs for calls placed
	// before and after the failure instant (replaced calls count in
	// "after" with their new DC).
	MeanACLBefore, MeanACLAfter float64
}

// OverflowRateAfter returns the post-failure overflow fraction, counting
// both forced re-placements and new arrivals.
func (r *DrillRun) OverflowRateAfter() float64 {
	total := r.Replaced + r.PostCalls
	if total == 0 {
		return 0
	}
	return float64(r.Overflowed) / float64(total)
}

// Drill fails the busiest DC at the middle of the evaluation window's first
// day and replays calls under both plans.
func Drill(env *Env) (*DrillResult, error) {
	if env.EvalRecords == nil {
		return nil, fmt.Errorf("eval: Drill needs KeepEvalRecords")
	}
	lm, backupPlan, _, err := env.SBWithBackup()
	if err != nil {
		return nil, err
	}
	servingIn := &provision.Inputs{
		World:              env.World,
		Latency:            env.Est,
		Demand:             env.EvalDB.PeakEnvelope(env.Cfg.TopConfigs),
		LatencyThresholdMs: env.Cfg.LatencyThresholdMs,
		WithBackup:         false,
		SlotStride:         env.Cfg.SlotStride,
	}
	servingPlan, err := provision.Switchboard(servingIn)
	if err != nil {
		return nil, err
	}
	failed := 0
	for x, cores := range backupPlan.Cores {
		if cores > backupPlan.Cores[failed] {
			failed = x
		}
	}
	failAt := env.EvalStart.Add(9 * time.Hour)
	withBackup, err := drillRun(lm, env.Est, env.EvalRecords, backupPlan, failed, failAt)
	if err != nil {
		return nil, err
	}
	withoutBackup, err := drillRun(lm, env.Est, env.EvalRecords, servingPlan, failed, failAt)
	if err != nil {
		return nil, err
	}
	return &DrillResult{
		FailedDC:      env.World.DCs()[failed].Name,
		WithBackup:    withBackup,
		WithoutBackup: withoutBackup,
	}, nil
}

// drillRun replays recs on plan's capacities under greedy-local with DC
// failed dying, and being detected, at failAt.
func drillRun(lm *provision.LoadModel, est *records.LatencyEstimator, recs []*model.CallRecord, plan *provision.Plan, failed int, failAt time.Time) (*DrillRun, error) {
	rig, err := newReplayRig(lm, est, recs, plan.Cores, plan.LinkGbps)
	if err != nil {
		return nil, err
	}
	at := failAt.Sub(rig.src.Origin())
	e, err := des.NewEngine(des.Config{
		Fleet:     rig.fleet,
		Source:    rig.src,
		Placement: des.GreedyLocal{},
		Failover:  des.FixedDetection{},
		Failures:  []des.DCFailure{{DC: int32(failed), At: at}},
	})
	if err != nil {
		return nil, err
	}
	before := e.RunUntil(at)
	after, err := e.Run()
	if err != nil {
		return nil, err
	}
	if after.Calls == before.Calls {
		return nil, fmt.Errorf("eval: drill failure at %v follows the last call", failAt)
	}
	post := after.Placed - before.Placed
	aclAfter := float64(after.Placed)*after.MeanACLms - float64(before.Placed)*before.MeanACLms +
		float64(after.Migrated)*after.MigratedACLms
	return &DrillRun{
		Replaced:      after.Migrated,
		PostCalls:     post,
		Overflowed:    after.Overflowed - before.Overflowed,
		MeanACLBefore: before.MeanACLms,
		MeanACLAfter:  aclAfter / float64(post+after.Migrated),
	}, nil
}
