package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Op: 1, Start: 0, End: 100},
		// Two overlapping children cover [10, 50): 40.
		{Name: "a", Op: 1, Parent: "op", Start: 10, End: 40},
		{Name: "b", Op: 1, Parent: "op", Start: 30, End: 50},
		// A child running past its parent counts only inside it: [90, 100).
		{Name: "c", Op: 1, Parent: "op", Start: 90, End: 130},
		// A grandchild is subtracted from its parent, not the root.
		{Name: "d", Op: 1, Parent: "a", Start: 15, End: 25},
		// Same names under another op do not interfere.
		{Name: "op", Op: 2, Start: 0, End: 10},
		{Name: "a", Op: 2, Parent: "op", Start: 0, End: 10},
	}
	want := []int64{50, 20, 20, 40, 10, 0, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s op %d) = %d, want %d", i, spans[i].Name, spans[i].Op, got[i], want[i])
		}
	}
}

func TestCovered(t *testing.T) {
	for _, c := range []struct {
		iv   [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}}, 10},
		{[][2]int64{{5, 10}, {0, 3}}, 8},
		{[][2]int64{{0, 10}, {2, 4}}, 10},
		{[][2]int64{{0, 5}, {5, 8}}, 8},
		{[][2]int64{{3, 6}, {0, 4}, {10, 11}}, 7},
	} {
		if got := covered(c.iv); got != c.want {
			t.Errorf("covered(%v) = %d, want %d", c.iv, got, c.want)
		}
	}
}

func TestRecorderWritesJSONL(t *testing.T) {
	rec := newRecorder(4)
	rec.add(span{Name: "op", Op: 7, Start: 1, End: 3})
	rec.add(span{Name: "httpapi.handler", Op: 7, Parent: "op", Start: 2, End: 3})
	dir := t.TempDir()
	if stride, err := rec.writeJSONL(dir, "s.jsonl"); err != nil || stride != 1 {
		t.Fatalf("writeJSONL: stride %d, %v", stride, err)
	}
	f, err := os.Open(filepath.Join(dir, "s.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	if len(got) != 2 || got[1].Parent != "op" || got[1].Op != 7 {
		t.Errorf("read back %+v", got)
	}
}
