package des

import (
	"runtime"
	"sync"
)

// The arrival feed: Run pulls its Source on a second goroutine, up to two
// chunks ahead of the dispatch loop, so the workload's draws overlap the
// engine's own work. Next is still called once per arrival, in order, from
// one goroutine, so the stream and everything downstream of it replay
// unchanged; only the goroutine differs.

const (
	// feedChunk is how many arrivals one hand-off carries. A 200k-call day
	// makes about 50 hand-offs, each of which may wake the producer, and a
	// feed's three chunks hold 384 KB while the pool keeps them.
	feedChunk = 4096
	// feedChunks is how many chunks a feed owns: the one being read and up
	// to two filled, or filling, ahead of it.
	feedChunks = 3
)

// chunk is one hand-off: a[:n] in stream order. end reports that the stream
// stops after a[:n], because Next returned false, panicked (fault holds the
// recovered value) or called runtime.Goexit (fault is goexit{}).
type chunk struct {
	a     []Arrival
	n     int
	end   bool
	fault any
}

// goexit is the fault of a chunk whose Next called runtime.Goexit.
type goexit struct{}

// feed is one Run's producer. Feeds are pooled: the chunk buffers and the
// channels outlive the run, the goroutine does not.
type feed struct {
	bufs   [feedChunks]chunk
	full   chan *chunk   // filled chunks, in stream order
	empty  chan *chunk   // chunks to refill; a nil stops the producer
	exited chan struct{} // the producer's last send
	cur    *chunk        // the chunk being read
	pos    int           // cur's next unread arrival
}

var feeds = sync.Pool{New: func() any {
	// Both channels hold every chunk at once, and empty the stop nil too,
	// so no send blocks; the producer always sends its last chunk, so the
	// reader never waits on a producer that has returned.
	f := &feed{
		full:   make(chan *chunk, feedChunks),
		empty:  make(chan *chunk, feedChunks+1),
		exited: make(chan struct{}, 1),
	}
	for i := range f.bufs {
		f.bufs[i].a = make([]Arrival, feedChunk)
	}
	return f
}}

// startFeed starts a producer pulling src from its current position.
func startFeed(src Source) *feed {
	f := feeds.Get().(*feed)
	// cur starts as an empty chunk, handed to the producer by the first read.
	f.cur, f.pos = &f.bufs[0], 0
	for i := 1; i < feedChunks; i++ {
		f.empty <- &f.bufs[i]
	}
	go f.produce(src)
	return f
}

// produce fills chunks until the stream ends or stop sends a nil. A panic or
// runtime.Goexit in Next ends the stream where it was raised: the chunk
// carries the arrivals before it and the fault, which next re-raises on the
// reader's goroutine once it has read them.
func (f *feed) produce(src Source) {
	var c *chunk
	clean := false
	defer func() {
		if !clean {
			c.end, c.fault = true, recover()
			if c.fault == nil {
				c.fault = goexit{}
			}
			f.full <- c
		}
		f.exited <- struct{}{}
	}()
	for {
		if c = <-f.empty; c == nil {
			break
		}
		c.n = 0
		for c.n < len(c.a) && !c.end {
			if src.Next(&c.a[c.n]) {
				c.n++
			} else {
				c.end = true
			}
		}
		f.full <- c
		if c.end {
			break
		}
	}
	clean = true
}

// next copies the stream's next arrival into a, or reports its end.
func (f *feed) next(a *Arrival) bool {
	for f.pos == f.cur.n {
		if f.cur.end {
			if f.cur.fault != nil {
				f.cur.raise()
			}
			return false
		}
		f.empty <- f.cur
		f.cur, f.pos = <-f.full, 0
	}
	*a = f.cur.a[f.pos]
	f.pos++
	return true
}

// raise re-raises the producer's fault on the calling goroutine.
func (c *chunk) raise() {
	if _, ok := c.fault.(goexit); ok {
		runtime.Goexit()
	}
	panic(c.fault)
}

// stop ends the producer, waits for it to exit and returns the feed to the
// pool. The producer calls Next no more once stop returns.
func (f *feed) stop() {
	f.empty <- nil
	<-f.exited
	for len(f.full) > 0 {
		<-f.full
	}
	for len(f.empty) > 0 {
		<-f.empty
	}
	for i := range f.bufs {
		f.bufs[i].n, f.bufs[i].end, f.bufs[i].fault = 0, false, nil
	}
	f.cur = nil
	feeds.Put(f)
}
