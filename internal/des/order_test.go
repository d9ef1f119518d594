package des

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"switchboard/internal/geo"
	"switchboard/internal/model"
)

// orderCase is one pinned run, returning its Result and, for the record
// replay, its full decision trace.
type orderCase struct {
	name string
	run  func(t *testing.T) (Result, []byte)
}

// synthOrderRun runs 20k synthetic calls under policy p with the busiest DC
// failing 09:00-11:00, detected after detect. Capacity sits at 1.1x the
// expected peak so failover migrations overflow and placements compete.
func synthOrderRun(seed int64, p PlacementPolicy, detect time.Duration) func(t *testing.T) (Result, []byte) {
	return func(t *testing.T) (Result, []byte) {
		f, src := testRig(t, seed, 20000, 1.1)
		busiest := int32(0)
		for x := 1; x < f.NumDCs(); x++ {
			if f.CapCores[x] > f.CapCores[busiest] {
				busiest = int32(x)
			}
		}
		res, err := Run(Config{
			Fleet: f, Source: src, Placement: p, Seed: seed,
			Failover: FixedDetection{Delay: detect},
			Failures: []DCFailure{{DC: busiest, At: 9 * time.Hour, Recover: 11 * time.Hour}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, nil
	}
}

// tieOrderRun replays records built so that departures, fleet events and
// arrivals share instants: calls end exactly when others start, some last
// zero seconds, several start together, and DC failure, detection (zero
// delay) and recovery land on those same instants. Every call is traced, so
// the trace records each decision's view of usage at its instant.
func tieOrderRun(t *testing.T) (Result, []byte) {
	w := geo.DefaultWorld()
	origin := time.Date(2022, 9, 5, 0, 0, 0, 0, time.UTC)
	countries := []geo.CountryCode{"DE", "FR", "GB", "US", "JP", "IN"}
	var recs []*model.CallRecord
	for i := 0; i < 144; i++ {
		c := countries[i%len(countries)]
		start := time.Duration(i/12) * 5 * time.Minute // twelve calls per instant
		dur := time.Duration(i%4) * 5 * time.Minute    // 0 to 15 minutes: ends on later starts
		recs = append(recs, &model.CallRecord{
			ID: uint64(i + 1), Start: origin.Add(start), Duration: dur,
			Legs: []model.LegRecord{{Country: c, Media: model.Video}, {Country: countries[(i+1)%len(countries)], Media: model.Audio}},
		})
	}
	src, err := NewRecordSource(recs)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet(w, src.Configs(), 120)
	if err != nil {
		t.Fatal(err)
	}
	cores := make([]float64, f.NumDCs())
	for i := range cores {
		cores[i] = 1
	}
	if err := f.SetCapacity(cores, make([]float64, len(f.CapGbps))); err != nil {
		t.Fatal(err)
	}
	a, b := f.Candidates(0), f.Candidates(1)
	var buf bytes.Buffer
	res, err := Run(Config{
		Fleet: f, Source: src, Placement: PowerOfTwo{}, Seed: 41,
		Failover: FixedDetection{},
		Failures: []DCFailure{
			{DC: a[0], At: 15 * time.Minute, Recover: 30 * time.Minute},
			{DC: a[1], At: 15 * time.Minute, Recover: 45 * time.Minute},
			{DC: b[0], At: 30 * time.Minute, Recover: 45 * time.Minute},
		},
		Trace: NewTrace(&buf, 41, origin, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// TestDispatchOrderPinned pins whole Results for runs whose outcome depends
// on the order of events at an equal instant: power-of-two draws the policy
// stream per decision, a zero detection delay puts the sweep on the
// failure's instant, and the record replay ties departures, fleet events and
// arrivals outright. Any change to the dispatch order, to a float summation
// order or to an RNG draw moves a field here.
func TestDispatchOrderPinned(t *testing.T) {
	var cases []orderCase
	policies := []PlacementPolicy{LowestACL{}, PowerOfTwo{}, LeastLoaded{}, BestFit{}}
	for _, seed := range []int64{3, 37} {
		for _, p := range policies {
			for _, detect := range []time.Duration{30 * time.Second, 0} {
				cases = append(cases, orderCase{
					name: fmt.Sprintf("seed%d/%s/detect%v", seed, p.Name(), detect),
					run:  synthOrderRun(seed, p, detect),
				})
			}
		}
	}
	cases = append(cases, orderCase{name: "ties", run: tieOrderRun})
	if len(cases) != len(pinnedOrder) {
		t.Fatalf("%d cases, %d pinned results", len(cases), len(pinnedOrder))
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, ok := pinnedOrder[c.name]
			if !ok {
				t.Fatal("no pinned result")
			}
			res, trace := c.run(t)
			if got := fmt.Sprintf("%+v", res); got != want.result {
				t.Errorf("Result moved:\n got:  %s\n want: %s", got, want.result)
			}
			if trace != nil {
				h := fnv.New64a()
				_, _ = h.Write(trace)
				if got := h.Sum64(); got != want.trace {
					t.Errorf("decision trace hash = %#x, want %#x", got, want.trace)
				}
			}
		})
	}
}

// pinnedOrder holds each case's Result printed with %+v (floats via %v, so
// every bit counts) and, for the record replay, the FNV-64a of its decision
// trace.
var pinnedOrder = map[string]struct {
	result string
	trace  uint64
}{
	"seed3/lowest-acl/detect30s": {
		"{Calls:20000 Placed:20000 Rejected:0 Migrated:29 Overflowed:593 Events:40003 DroppedEvents:0 MaxQueueLen:246 PeakConcurrent:245 MeanACLms:35.324065894724136 RegretMeanMs:3.6211734532299653 MigratedACLms:79.36661083110627 MaxCoreUtil:1.6836676975789528 OverflowShare:0.02965 DisruptedCallSeconds:870 TraceLines:0}",
		0x0,
	},
	"seed3/lowest-acl/detect0s": {
		"{Calls:20000 Placed:20000 Rejected:0 Migrated:33 Overflowed:593 Events:40003 DroppedEvents:0 MaxQueueLen:246 PeakConcurrent:245 MeanACLms:35.328168025578215 RegretMeanMs:3.6252755840840503 MigratedACLms:79.59079373219788 MaxCoreUtil:1.6836676975789528 OverflowShare:0.02965 DisruptedCallSeconds:0 TraceLines:0}",
		0x0,
	},
	"seed3/power-of-two/detect30s": {
		"{Calls:20000 Placed:20000 Rejected:0 Migrated:24 Overflowed:616 Events:40003 DroppedEvents:0 MaxQueueLen:246 PeakConcurrent:245 MeanACLms:63.683181827775854 RegretMeanMs:31.98028938628313 MigratedACLms:59.506895955051846 MaxCoreUtil:1.6657211148184141 OverflowShare:0.0308 DisruptedCallSeconds:713.040310378 TraceLines:0}",
		0x0,
	},
	"seed3/power-of-two/detect0s": {
		"{Calls:20000 Placed:20000 Rejected:0 Migrated:28 Overflowed:612 Events:40003 DroppedEvents:0 MaxQueueLen:246 PeakConcurrent:245 MeanACLms:63.55070777253127 RegretMeanMs:31.84781533103809 MigratedACLms:65.86386411912638 MaxCoreUtil:1.7050137222709214 OverflowShare:0.0306 DisruptedCallSeconds:0 TraceLines:0}",
		0x0,
	},
	"seed3/least-loaded/detect30s": {
		"{Calls:20000 Placed:20000 Rejected:0 Migrated:54 Overflowed:751 Events:40003 DroppedEvents:0 MaxQueueLen:246 PeakConcurrent:245 MeanACLms:64.21162084344925 RegretMeanMs:32.50872840195511 MigratedACLms:78.22382474627001 MaxCoreUtil:1.585766501307133 OverflowShare:0.03755 DisruptedCallSeconds:1611.880391819 TraceLines:0}",
		0x0,
	},
	"seed3/least-loaded/detect0s": {
		"{Calls:20000 Placed:20000 Rejected:0 Migrated:57 Overflowed:795 Events:40003 DroppedEvents:0 MaxQueueLen:246 PeakConcurrent:245 MeanACLms:64.17652180431593 RegretMeanMs:32.473629362821505 MigratedACLms:79.47954220140788 MaxCoreUtil:1.5857665013071325 OverflowShare:0.03975 DisruptedCallSeconds:0 TraceLines:0}",
		0x0,
	},
	"seed3/best-fit/detect30s": {
		"{Calls:20000 Placed:20000 Rejected:0 Migrated:0 Overflowed:1205 Events:40003 DroppedEvents:0 MaxQueueLen:246 PeakConcurrent:245 MeanACLms:69.65170865293891 RegretMeanMs:37.94881621144468 MigratedACLms:0 MaxCoreUtil:1.712361306033332 OverflowShare:0.06025 DisruptedCallSeconds:0 TraceLines:0}",
		0x0,
	},
	"seed3/best-fit/detect0s": {
		"{Calls:20000 Placed:20000 Rejected:0 Migrated:0 Overflowed:1205 Events:40003 DroppedEvents:0 MaxQueueLen:246 PeakConcurrent:245 MeanACLms:69.65170865293891 RegretMeanMs:37.94881621144468 MigratedACLms:0 MaxCoreUtil:1.712361306033332 OverflowShare:0.06025 DisruptedCallSeconds:0 TraceLines:0}",
		0x0,
	},
	"seed37/lowest-acl/detect30s": {
		"{Calls:20000 Placed:20000 Rejected:0 Migrated:27 Overflowed:345 Events:40003 DroppedEvents:0 MaxQueueLen:250 PeakConcurrent:249 MeanACLms:33.050688540692164 RegretMeanMs:4.0292559986150085 MigratedACLms:68.21612818632447 MaxCoreUtil:4.174859622524317 OverflowShare:0.01725 DisruptedCallSeconds:793.131302226 TraceLines:0}",
		0x0,
	},
	"seed37/lowest-acl/detect0s": {
		"{Calls:20000 Placed:20000 Rejected:0 Migrated:26 Overflowed:348 Events:40003 DroppedEvents:0 MaxQueueLen:250 PeakConcurrent:249 MeanACLms:33.02942173560916 RegretMeanMs:4.007438858765037 MigratedACLms:66.01299990435506 MaxCoreUtil:4.312333336264288 OverflowShare:0.0174 DisruptedCallSeconds:0 TraceLines:0}",
		0x0,
	},
	"seed37/power-of-two/detect30s": {
		"{Calls:20000 Placed:20000 Rejected:0 Migrated:27 Overflowed:342 Events:40003 DroppedEvents:0 MaxQueueLen:250 PeakConcurrent:249 MeanACLms:62.87999980941793 RegretMeanMs:33.858567267340355 MigratedACLms:66.83813908411514 MaxCoreUtil:4.920111860167311 OverflowShare:0.0171 DisruptedCallSeconds:754.527071443 TraceLines:0}",
		0x0,
	},
	"seed37/power-of-two/detect0s": {
		"{Calls:20000 Placed:20000 Rejected:0 Migrated:25 Overflowed:335 Events:40003 DroppedEvents:0 MaxQueueLen:250 PeakConcurrent:249 MeanACLms:62.63956626370003 RegretMeanMs:33.617583386855955 MigratedACLms:75.17113818725711 MaxCoreUtil:4.3412751707358606 OverflowShare:0.01675 DisruptedCallSeconds:0 TraceLines:0}",
		0x0,
	},
	"seed37/least-loaded/detect30s": {
		"{Calls:20000 Placed:20000 Rejected:0 Migrated:51 Overflowed:484 Events:40003 DroppedEvents:0 MaxQueueLen:250 PeakConcurrent:249 MeanACLms:65.02574927037831 RegretMeanMs:36.0043167282983 MigratedACLms:86.70133296387928 MaxCoreUtil:1.519446309757552 OverflowShare:0.0242 DisruptedCallSeconds:1445.163973776 TraceLines:0}",
		0x0,
	},
	"seed37/least-loaded/detect0s": {
		"{Calls:20000 Placed:20000 Rejected:0 Migrated:48 Overflowed:472 Events:40003 DroppedEvents:0 MaxQueueLen:250 PeakConcurrent:249 MeanACLms:64.95507163261138 RegretMeanMs:35.933088755764594 MigratedACLms:82.43406526902864 MaxCoreUtil:1.3964435132533684 OverflowShare:0.0236 DisruptedCallSeconds:0 TraceLines:0}",
		0x0,
	},
	"seed37/best-fit/detect30s": {
		"{Calls:20000 Placed:20000 Rejected:0 Migrated:0 Overflowed:573 Events:40003 DroppedEvents:0 MaxQueueLen:250 PeakConcurrent:249 MeanACLms:69.34993177591835 RegretMeanMs:40.328499233841654 MigratedACLms:0 MaxCoreUtil:5.050350115289386 OverflowShare:0.02865 DisruptedCallSeconds:0 TraceLines:0}",
		0x0,
	},
	"seed37/best-fit/detect0s": {
		"{Calls:20000 Placed:20000 Rejected:0 Migrated:0 Overflowed:573 Events:40003 DroppedEvents:0 MaxQueueLen:250 PeakConcurrent:249 MeanACLms:69.34993177591835 RegretMeanMs:40.327948899074705 MigratedACLms:0 MaxCoreUtil:5.050350115289386 OverflowShare:0.02865 DisruptedCallSeconds:0 TraceLines:0}",
		0x0,
	},
	"ties": {
		"{Calls:144 Placed:144 Rejected:0 Migrated:1 Overflowed:0 Events:296 DroppedEvents:0 MaxQueueLen:25 PeakConcurrent:18 MeanACLms:73.99797624440237 RegretMeanMs:36.586341158205954 MigratedACLms:15.120220565475584 MaxCoreUtil:0.24 OverflowShare:0 DisruptedCallSeconds:0 TraceLines:1490}",
		0x183d365232f784e0,
	},
}
