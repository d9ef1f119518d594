package lint

import (
	"strings"
	"testing"
)

func TestHotPathAllocAnalyzer(t *testing.T) {
	runFixture(t, HotPathAllocAnalyzer(), map[string]string{
		"internal/hot/fixture.go": `package hot

import (
	"errors"
	"io"
)

// Root is the annotated entry point; everything reachable from it is in the
// zero-allocation closure.
//
//sblint:hotpath
func Root(w io.Writer, n int, s string) error {
	if n < 0 {
		return errors.New("negative") // want "calls errors.New"
	}
	b := make([]byte, n) // want "make allocates"
	_, _ = w.Write(b)    // want "dynamic call through"
	return helper(n, s)
}

func helper(n int, s string) error {
	m := map[int]bool{} // want "map literal allocates"
	m[n] = true         // want "map insert may allocate"
	var xs []int
	xs = append(xs, n) // want "append may grow its backing array"
	_ = xs
	_ = key(s, "suffix")
	sink(n)        // want "argument boxes int into any"
	variadic(1, n) // want "variadic call materializes an argument slice"
	justified()
	docExempt()
	return nil
}

func key(a, b string) string {
	return a + b // want "string concatenation allocates"
}

func sink(v any) {}

func variadic(vs ...int) {}

func justified() {
	_ = make([]byte, 8) //sblint:allowalloc(fixture-justified allocation)
}

// docExempt's whole body is justified at the doc level.
//
//sblint:allowalloc(fixture-justified body)
func docExempt() {
	_ = make([]byte, 8)
	_ = []byte("copy")
}

func cold() {
	_ = make([]byte, 1) // unreachable from any hotpath root: unflagged
}
`})
}

// TestHotPathAllocGenerics pins the generics contract: instantiated calls to
// generic functions and methods on generic receivers resolve to the checked
// generic body — they are neither skipped nor degraded to horizon edges.
func TestHotPathAllocGenerics(t *testing.T) {
	runFixture(t, HotPathAllocAnalyzer(), map[string]string{
		"internal/ghot/fixture.go": `package ghot

// Root exercises generic instantiation inside a hot-path closure.
//
//sblint:hotpath
func Root() {
	_ = box[int](1)
	_ = box(2.5)
	var c Cache[string]
	c.put("k")
}

func box[T any](v T) []T {
	return []T{v} // want "slice literal allocates"
}

type Cache[K comparable] struct{ m map[K]bool }

func (c *Cache[K]) put(k K) {
	c.m[k] = true // want "map insert may allocate"
}
`})
}

func TestFenceFlowAnalyzer(t *testing.T) {
	runFixture(t, FenceFlowAnalyzer(), map[string]string{
		"internal/kv/client.go": `package kv

import "context"

// Client is a minimal fence-capable store client: it declares SetFence, so
// the analyzer treats its raw command methods as fencing-relevant.
type Client struct {
	fenceKey   string
	fenceEpoch int64
}

func (c *Client) SetFence(key string, epoch int64) { c.fenceKey, c.fenceEpoch = key, epoch }

// Do is the raw escape hatch; inside the defining package it is the blessed
// implementation surface for the typed wrappers.
func (c *Client) Do(args ...string) (any, error) { return nil, nil }

func (c *Client) DoContext(ctx context.Context, args ...string) (any, error) {
	return c.Do(args...)
}

func (c *Client) HSet(key, field, value string) error {
	_, err := c.Do("HSET", key, field, value)
	return err
}

func (c *Client) Del(key string) error {
	_, err := c.Do("DEL", key)
	return err
}
`,
		"internal/ctrl/ctrl.go": `package ctrl

import (
	"context"

	"fixture/internal/kv"
)

type C struct{ store *kv.Client }

// Persist is a fencing entry point: all store mutations below it must ride
// the typed wrappers.
//
//sblint:fencepath
func (c *C) Persist(ctx context.Context, key, field, value string) error {
	if err := c.store.HSet(key, field, value); err != nil { // typed wrapper: fine
		return err
	}
	if _, err := c.store.DoContext(ctx, "DEL", key); err != nil { // want "bypasses the fence-arming"
		return err
	}
	c.drain("HSET")
	_, err := c.store.Do("HSET", key, field, value) // want "bypasses the fence-arming"
	return err
}

func (c *C) drain(cmd string) {
	_, _ = c.store.Do(cmd, "k", "v") // want "cannot be proven fenced"
}

// Sideline is outside the Persist closure; the package-wide check still
// catches literal mutations in a package that declares a fencepath.
func (c *C) Sideline(key string) error {
	_, err := c.store.Do("DEL", key) // want "bypasses the fence-arming"
	return err
}

func (c *C) Read(key string) (any, error) {
	return c.store.Do("GET", key) // read verb: fencing does not apply
}
`})
}

func TestCtxFlowAnalyzer(t *testing.T) {
	runFixture(t, CtxFlowAnalyzer(), map[string]string{
		"internal/web/fixture.go": `package web

import "context"

type store struct{}

func (s *store) Keys() []string                           { return nil }
func (s *store) KeysContext(ctx context.Context) []string { return nil }
func (s *store) Ping() error                              { return nil }

func work(ctx context.Context) {}

func handle(ctx context.Context, s *store) {
	_ = s.Keys()               // want "Keys drops the context; use KeysContext"
	work(context.Background()) // want "drops the caller's context"
	_ = s.Ping()               // no Context sibling: fine
	work(ctx)
}

func rebase(ctx context.Context) {
	ctx = context.TODO() // want "discards the received context"
	work(ctx)
}

func detached(s *store) {
	_ = s.Keys() // no context received: exempt
	work(context.Background())
}

func escaped(ctx context.Context) {
	//sblint:allow ctxflow -- fixture-justified detachment
	work(context.Background())
	work(ctx)
}
`})
}

func TestAtomicDisciplineAnalyzer(t *testing.T) {
	runFixture(t, AtomicDisciplineAnalyzer(), map[string]string{
		"internal/stats/fixture.go": `package stats

import "sync/atomic"

type counters struct {
	hits  int64
	total atomic.Int64
}

func (c *counters) hit() {
	atomic.AddInt64(&c.hits, 1)
	c.total.Add(1)
}

func (c *counters) load() int64 {
	return atomic.LoadInt64(&c.hits)
}

func (c *counters) snapshot() int64 {
	return c.hits // want "plain access to hits"
}

func (c *counters) reset() {
	c.hits = 0 // want "plain access to hits"
}

func (c *counters) copyTotal() atomic.Int64 {
	return c.total // want "copy or reassignment races"
}

func (c *counters) readTotal() int64 {
	return c.total.Load()
}

func fresh() *counters {
	return &counters{} // zero-value construction: fine
}

var gen uint64

func next() uint64 { return atomic.AddUint64(&gen, 1) }

func peek() uint64 {
	return gen // want "plain access to gen"
}
`})
}

// TestFindingOrderIsTotal pins the canonical sort key (file, line, col,
// analyzer, message) CI diffs depend on.
func TestFindingOrderIsTotal(t *testing.T) {
	mk := func(file string, line, col int, analyzer, msg string) Finding {
		f := Finding{Analyzer: analyzer, Message: msg}
		f.Pos.Filename, f.Pos.Line, f.Pos.Column = file, line, col
		return f
	}
	ordered := []Finding{
		mk("a.go", 1, 1, "ctxflow", "m"),
		mk("a.go", 1, 1, "fenceflow", "m"),
		mk("a.go", 1, 1, "fenceflow", "n"),
		mk("a.go", 1, 2, "ctxflow", "m"),
		mk("a.go", 2, 1, "ctxflow", "m"),
		mk("b.go", 1, 1, "ctxflow", "m"),
	}
	for i := 0; i < len(ordered)-1; i++ {
		if !less(ordered[i], ordered[i+1]) {
			t.Errorf("ordered[%d] not < ordered[%d]", i, i+1)
		}
		if less(ordered[i+1], ordered[i]) {
			t.Errorf("comparator not asymmetric at %d", i)
		}
	}
}

func TestMarshalFindings(t *testing.T) {
	f := Finding{Analyzer: "atomicdiscipline", Message: "plain access"}
	f.Pos.Filename, f.Pos.Line, f.Pos.Column = "internal/x/x.go", 7, 3
	out, err := MarshalFindings([]Finding{f})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"analyzer": "atomicdiscipline"`, `"line": 7`, `"file": "internal/x/x.go"`} {
		if !strings.Contains(string(out), want) {
			t.Errorf("JSON output missing %s:\n%s", want, out)
		}
	}
	empty, err := MarshalFindings(nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(empty)) != "[]" {
		t.Errorf("MarshalFindings(nil) = %q, want []", empty)
	}
}
