package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runFixture materializes files (module-relative path -> source) as a
// throwaway module, loads it, and runs the single named analyzer. Expected
// findings are declared in the fixture sources themselves with analysistest
// style comments: `// want "substring"` on the offending line (several
// quoted substrings may follow one want). The test fails on any missed or
// unexpected finding.
func runFixture(t *testing.T, analyzer *Analyzer, files map[string]string) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module fixture\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for rel, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			t.Errorf("fixture does not typecheck: %v", terr)
		}
	}

	type key struct {
		file string
		line int
	}
	want := make(map[key][]string)
	wantRe := regexp.MustCompile(`//\s*want\s+(.*)$`)
	quoted := regexp.MustCompile(`"([^"]*)"`)
	for rel, src := range files {
		for i, line := range strings.Split(src, "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			k := key{filepath.Join(dir, filepath.FromSlash(rel)), i + 1}
			for _, q := range quoted.FindAllStringSubmatch(m[1], -1) {
				want[k] = append(want[k], q[1])
			}
		}
	}

	got := Run(pkgs, []*Analyzer{analyzer})
	for _, f := range got {
		k := key{f.Pos.Filename, f.Pos.Line}
		subs := want[k]
		matched := -1
		for i, s := range subs {
			if strings.Contains(f.Message, s) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		want[k] = append(subs[:matched], subs[matched+1:]...)
		if len(want[k]) == 0 {
			delete(want, k)
		}
	}
	for k, subs := range want {
		for _, s := range subs {
			t.Errorf("missing finding at %s:%d matching %q", filepath.Base(k.file), k.line, s)
		}
	}
}

func TestDeterminismAnalyzer(t *testing.T) {
	runFixture(t, DeterminismAnalyzer(), map[string]string{
		"internal/trace/fixture.go": `package trace

import (
	"math/rand"
	"sort"
	"time"
)

func clock() int64 {
	t := time.Now()          // want "wall-clock read time.Now"
	d := time.Since(t)       // want "wall-clock read time.Since"
	_ = time.Until(t)        // want "wall-clock read time.Until"
	return d.Nanoseconds()
}

func allowed() time.Time {
	//sblint:allow nondeterminism -- test fixture justification
	return time.Now()
}

func globalRand() (int, float64) {
	return rand.Intn(10), rand.Float64() // want "global math/rand.Intn" "global math/rand.Float64"
}

func seeded(seed int64) *rand.Rand { // rand.Rand is a type, not a global read
	return rand.New(rand.NewSource(seed)) // constructors are fine
}

func mapOrder(m map[string]int) ([]string, []string) {
	var leak []string
	for k := range m { // iteration order is randomized
		leak = append(leak, k) // want "append to leak while ranging over a map"
	}
	var sorted []string
	for k := range m {
		sorted = append(sorted, k) // collect-then-sort is the blessed idiom
	}
	sort.Strings(sorted)
	return leak, sorted
}
`,
		"internal/web/fixture.go": `package web

import "time"

// Not a deterministic package: wall clock is fine here.
func Uptime(start time.Time) time.Duration { return time.Since(start) }
`,
	})
}

func TestLockDisciplineAnalyzer(t *testing.T) {
	runFixture(t, LockDisciplineAnalyzer(), map[string]string{
		"internal/controller/fixture.go": `package controller

import "sync"

type counter struct {
	mu sync.Mutex
	n  int // guarded by mu
	hi int // guarded by mu

	free int // unannotated fields are not checked
}

func (c *counter) Inc() {
	c.mu.Lock()
	c.n++ // held: fine
	if c.n > c.hi {
		c.hi = c.n
	}
	c.mu.Unlock()
	c.free++
}

func (c *counter) Racy() int {
	return c.n // want "without holding mu"
}

func (c *counter) UnlockedAfter() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	c.n++ // want "without holding mu"
}

func (c *counter) Deferred() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n // deferred unlock keeps the lock held to the end
}

//sblint:holds mu
func (c *counter) bumpLocked() {
	c.n++ // caller holds mu by contract
}

func (c *counter) Escapes() {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() {
		c.n++ // want "without holding mu"
	}()
}
`,
	})
}

func TestLockDisciplineLeaseRenewalGoroutine(t *testing.T) {
	// The shape of controller.Elector: leadership state guarded by a mutex,
	// mutated from a renewal goroutine. The analyzer must follow the guarded
	// fields into the goroutine body — a renewal loop that forgets the lock
	// is exactly the race the fencing machinery cannot survive.
	runFixture(t, LockDisciplineAnalyzer(), map[string]string{
		"internal/controller/lease_fixture.go": `package controller

import (
	"sync"
	"time"
)

type elector struct {
	mu      sync.Mutex
	leading bool  // guarded by mu
	epoch   int64 // guarded by mu

	stopCh chan struct{}
}

func (e *elector) renewLoop(renew time.Duration) {
	t := time.NewTicker(renew)
	defer t.Stop()
	go func() {
		for {
			select {
			case <-e.stopCh:
				return
			case <-t.C:
				e.mu.Lock()
				was := e.leading // held: fine
				e.mu.Unlock()
				if !was {
					continue
				}
				e.epoch++ // want "without holding mu"
			}
		}
	}()
}

func (e *elector) observe() (bool, int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.leading, e.epoch // deferred unlock holds to the end
}

func (e *elector) hintRace() bool {
	return e.leading // want "without holding mu"
}

//sblint:holds mu
func (e *elector) wonLocked(epoch int64) {
	e.leading = true // caller holds mu by contract
	e.epoch = epoch
}
`,
	})
}

func TestLockDisciplineGuardedShardMap(t *testing.T) {
	// The shape of shard.Manager: an ownership map guarded by a mutex,
	// flipped by per-shard election callbacks and timer bodies, read by
	// routing accessors that must copy under the lock. Timer/goroutine
	// bodies start unlocked even when armed under the lock, and locked
	// helpers declare their contract with //sblint:holds.
	runFixture(t, LockDisciplineAnalyzer(), map[string]string{
		"internal/shard/fixture.go": `package shard

import (
	"sync"
	"time"
)

type manager struct {
	mu      sync.Mutex
	owned   map[int]bool // guarded by mu
	stopped bool         // guarded by mu
}

func (m *manager) lead(sh int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped {
		return
	}
	m.owned[sh] = true // held: fine
}

func (m *manager) Owns(sh int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.owned[sh] // deferred unlock holds to the end
}

func (m *manager) Owned() []int {
	var out []int
	for sh := range m.owned { // want "without holding mu"
		out = append(out, sh)
	}
	return out
}

func (m *manager) takeoverLater(sh int, after time.Duration) {
	time.AfterFunc(after, func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.stopped {
			return
		}
		m.owned[sh] = true // timer body re-locks: fine
	})
}

func (m *manager) handoff(sh int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	go func() {
		delete(m.owned, sh) // want "without holding mu"
	}()
}

//sblint:holds mu
func (m *manager) dropLocked(sh int) {
	delete(m.owned, sh) // caller holds mu by contract
}

func (m *manager) lose(sh int) {
	m.mu.Lock()
	m.dropLocked(sh)
	m.mu.Unlock()
}
`,
	})
}

func TestFloatCompareAnalyzer(t *testing.T) {
	runFixture(t, FloatCompareAnalyzer(), map[string]string{
		"internal/lp/fixture.go": `package lp

const pivotEps = 1e-9

func compare(a, b float64) bool {
	if a == b { // want "float == comparison"
		return true
	}
	if a != b { // want "float != comparison"
		return false
	}
	if a == 0 { // constant-zero sentinel is allowed
		return true
	}
	if b == pivotEps { // named epsilon is allowed
		return true
	}
	return a < b // ordering comparisons are fine
}
`,
		"internal/model/fixture.go": `package model

// Not a numeric package: exact compares are not flagged here.
func Same(a, b float64) bool { return a == b }
`,
	})
}

func TestErrorSinkAnalyzer(t *testing.T) {
	runFixture(t, ErrorSinkAnalyzer(), map[string]string{
		"internal/web/fixture.go": `package web

import (
	"fmt"
	"os"
	"strings"
)

func open(name string) error {
	f, err := os.Open(name)
	if err != nil {
		return err
	}
	f.Close()                   // want "error result dropped"
	defer f.Close()             // want "deferred call drops its error"
	go f.Close()                // want "goroutine call drops its error"
	_ = f.Close()               // explicit discard is a decision
	fmt.Println("checked:", f)  // terminal output is exempt
	fmt.Fprintln(os.Stderr, "") // std streams are exempt
	var b strings.Builder
	b.WriteString("x")    // sticky writers are exempt
	fmt.Fprintf(&b, "%d", 1)
	return nil
}

func fine() { println("no error in the tuple") }
`,
	})
}

// TestErrorSinkObsExemption pins the telemetry-sink carve-out: Inc/Add/
// Observe/Set on internal/obs types are fire-and-forget even when a sink
// variant returns an error, while non-sink obs methods and same-named
// methods on other packages' types stay flagged.
func TestErrorSinkObsExemption(t *testing.T) {
	runFixture(t, ErrorSinkAnalyzer(), map[string]string{
		"internal/obs/fixture.go": `package obs

// A hypothetical remote-write sink whose methods report transport errors;
// the sink contract says call sites still fire and forget.
type Counter struct{}

func (c *Counter) Inc() error            { return nil }
func (c *Counter) Add(n uint64) error    { return nil }
func (c *Counter) Flush() error          { return nil }

type Gauge struct{}

func (g Gauge) Set(v float64) error     { return nil }
func (g Gauge) Observe(v float64) error { return nil }
`,
		"internal/web/fixture.go": `package web

import "fixture/internal/obs"

type impostor struct{}

func (impostor) Inc() error { return nil }

func instrument(c *obs.Counter, g obs.Gauge) {
	c.Inc()             // obs sink: exempt
	c.Add(2)            // obs sink: exempt
	g.Set(1.5)          // obs sink: exempt
	g.Observe(0.1)      // obs sink: exempt
	defer c.Inc()       // sinks stay exempt under defer
	go c.Add(1)         // ... and in goroutines
	c.Flush()           // want "error result dropped"
	impostor{}.Inc()    // want "error result dropped"
}
`,
	})
}

// TestErrorSinkSpanAndSlogExemption pins the tracing/logging half of the
// telemetry carve-out: span lifecycle methods (End/SetStatus/SetAttr/
// SetError/ExportSpan) on internal/obs/span types and log/slog calls are
// fire-and-forget even when they return an error, while non-sink span
// methods stay flagged.
func TestErrorSinkSpanAndSlogExemption(t *testing.T) {
	runFixture(t, ErrorSinkAnalyzer(), map[string]string{
		"internal/obs/span/fixture.go": `package span

// A hypothetical exporter-backed span whose lifecycle methods surface
// transport errors; the sink contract says call sites fire and forget.
type Span struct{}

func (s *Span) End() error                   { return nil }
func (s *Span) SetStatus(st string) error    { return nil }
func (s *Span) SetAttr(k, v string) error    { return nil }
func (s *Span) SetError(err error) error     { return nil }
func (s *Span) Flush() error                 { return nil }

type Exporter struct{}

func (e *Exporter) ExportSpan(s *Span) error { return nil }
`,
		"internal/web/fixture.go": `package web

import (
	"context"
	"log/slog"

	"fixture/internal/obs/span"
)

func traced(sp *span.Span, exp *span.Exporter, h slog.Handler) {
	defer sp.End()                      // span sink: exempt
	sp.SetAttr("k", "v")                // span sink: exempt
	sp.SetStatus("error")               // span sink: exempt
	sp.SetError(nil)                    // span sink: exempt
	exp.ExportSpan(sp)                  // span sink: exempt
	slog.Info("placed", "dc", 3)        // slog package call: exempt
	h.Handle(context.Background(), slog.Record{}) // slog method: exempt
	sp.Flush()                          // want "error result dropped"
}
`,
	})
}

// TestFindingString pins the canonical output format the Makefile gate and
// editors parse.
func TestFindingString(t *testing.T) {
	f := Finding{Analyzer: "errorsink", Message: "boom"}
	f.Pos.Filename = "a/b.go"
	f.Pos.Line = 3
	f.Pos.Column = 7
	if got, want := f.String(), "a/b.go:3:7: [errorsink] boom"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// TestSeededViolationFails proves the gate property end to end: a package
// with a seeded violation must produce at least one finding through the
// same Load/Run path `sblint ./...` uses.
func TestSeededViolationFails(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module fixture\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := "package trace\n\nimport \"time\"\n\nfunc Stamp() int64 { return time.Now().UnixNano() }\n"
	if err := os.MkdirAll(filepath.Join(dir, "internal", "trace"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "internal", "trace", "stamp.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(Select(pkgs, []string{"./..."}), Analyzers())
	if len(findings) == 0 {
		t.Fatal("seeded time.Now violation produced no findings")
	}
	for _, f := range findings {
		if f.Analyzer == "determinism" && strings.Contains(f.Message, "time.Now") {
			return
		}
	}
	t.Fatalf("no determinism finding among %v", findings)
}

// TestAllowRequiresMatchingKey ensures an allow for one analyzer does not
// silence another.
func TestAllowRequiresMatchingKey(t *testing.T) {
	runFixture(t, DeterminismAnalyzer(), map[string]string{
		"internal/des/fixture.go": `package des

import "time"

func wrongKey() time.Time {
	//sblint:allow errorsink -- wrong key must not suppress determinism
	return time.Now() // want "wall-clock read time.Now"
}
`,
	})
}
