package kvstore

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"strings"
	"testing"
)

// FuzzReadCommand: arbitrary bytes must never panic the RESP parser; they
// either yield a command or an error.
func FuzzReadCommand(f *testing.F) {
	f.Add("PING\r\n")
	f.Add("*2\r\n$3\r\nGET\r\n$1\r\nk\r\n")
	f.Add("*1\r\n$-1\r\n")
	f.Add("*999999\r\n")
	f.Add("$5\r\nhello\r\n")
	f.Add("\r\n")
	f.Add("*2\r\n$3\r\nGET\r\n$100\r\nshort\r\n")
	// Truncated frames: headers promising bytes that never arrive.
	f.Add("*2\r\n$3\r\nGE")
	f.Add("*3\r\n$4\r\nHSET\r\n$2\r\nab")
	f.Add("$10\r\nabc")
	// Oversized frames: headers beyond the sanity caps must be rejected,
	// not allocated.
	f.Add("*1048577\r\n")
	f.Add("*2\r\n$3\r\nSET\r\n$999999999\r\n")
	f.Add("$8388609\r\n")
	f.Add("*-100\r\n")
	f.Add("$-100\r\n")
	f.Fuzz(func(t *testing.T, input string) {
		r := bufio.NewReader(strings.NewReader(input))
		for i := 0; i < 4; i++ {
			args, err := readCommand(r)
			if err != nil {
				return
			}
			if args == nil {
				t.Fatal("nil args without error")
			}
		}
	})
}

// FuzzReadReply: the client-side RESP parser must never panic or allocate
// unboundedly on hostile or truncated reply streams.
func FuzzReadReply(f *testing.F) {
	f.Add("+OK\r\n")
	f.Add("-ERR boom\r\n")
	f.Add(":42\r\n")
	f.Add("$-1\r\n")
	f.Add("$5\r\nhello\r\n")
	f.Add("*2\r\n+a\r\n:1\r\n")
	f.Add("*-1\r\n")
	// Truncated and oversized frames.
	f.Add("$10\r\nabc")
	f.Add("*3\r\n+a\r\n")
	f.Add("$999999999\r\n")
	f.Add("*999999999\r\n")
	f.Add(":not-a-number\r\n")
	f.Add("?what\r\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		c := &Client{r: bufio.NewReader(strings.NewReader(input))}
		for i := 0; i < 4; i++ {
			if _, err := c.readReply(); err != nil {
				return
			}
		}
	})
}

// FuzzReplyRoundTrip closes the protocol loop: whatever commands the fuzzer
// invents (one per line, space-separated, the inline command form), the
// server's reply stream must parse cleanly through the client's readReply —
// one reply per command, no leftover bytes, and no transport-level error.
// Server-reported errors (-ERR ...) and nil replies are valid outcomes; a
// parser error or a desynchronized stream is a bug in whichever side framed
// it.
func FuzzReplyRoundTrip(f *testing.F) {
	// Seed with the server's full command corpus, exercising every reply
	// shape it can emit (simple, integer, bulk, nil, array, error).
	for _, cmds := range [][]string{
		{"PING"},
		{"SET k v", "GET k", "DEL k", "GET k"},
		{"SET a 1", "SET b 2", "DEL a b c"},
		{"SETLEASE l o 1000", "GETLEASE l", "DELLEASE l o", "GETLEASE l"},
		{"HSET h f v", "HGET h f", "HGETALL h", "HSET h f w"},
		{"HSET h a 1", "HSET h b 2", "KEYS *", "KEYS h*"},
		{"HSET a f v", "HCOPY a b", "HGETALL b", "HCOPY nope b"},
		{"FLUSHALL", "KEYS *"},
		{"GET"},                              // arity error
		{"NOSUCHCOMMAND x"},                  // unknown command error
		{"KEYS c*ll:*", "FENCE l 1 SET k v"}, // pattern and fence errors
		{"HGET h missing", "GET missing"},
	} {
		f.Add(strings.Join(cmds, "\n"))
	}
	f.Fuzz(func(t *testing.T, input string) {
		var cmds [][]string
		for _, line := range strings.Split(input, "\n") {
			args := strings.Fields(line)
			if len(args) == 0 {
				continue
			}
			// SHUTDOWN-style meta commands do not exist; every parsed
			// line goes straight to execute, exactly as handle() would
			// after readCommand.
			cmds = append(cmds, args)
		}
		if len(cmds) == 0 {
			return
		}
		srv := NewServer()
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		for _, args := range cmds {
			srv.execute(args, w)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		c := &Client{r: bufio.NewReader(bytes.NewReader(buf.Bytes()))}
		for i, args := range cmds {
			_, err := c.readReply()
			if err != nil && !errors.Is(err, ErrNil) && !IsServerError(err) {
				t.Fatalf("reply %d to %q: transport error %v\nstream: %q", i, args, err, buf.String())
			}
		}
		if n := c.r.Buffered(); n != 0 {
			rest, _ := c.r.Peek(n)
			t.Fatalf("%d leftover bytes after %d replies: %q", n, len(cmds), rest)
		}
	})
}

// FuzzPipelinedTracedFrames drives the real connection handler with a
// pipelined batch of properly-framed RESP commands written in one burst —
// the frames a client writes whether or not its commands are traced
// (TestTracedDoContext pins that the two are byte-identical). Whatever verbs
// the fuzzer invents, the handler must answer exactly one reply per frame
// and keep the stream in sync.
func FuzzPipelinedTracedFrames(f *testing.F) {
	f.Add("SET k v\nGET k\nDEL k")
	f.Add("HSET h f v\nHGET h f\nHGETALL h")
	f.Add("SETLEASE leader ctrl-A 1000\nGETLEASE leader\nDELLEASE leader ctrl-A")
	f.Add("FENCE leader 1 SET k v\nGET k")
	f.Add("HSET a f v\nHCOPY a b\nKEYS *\nPING")
	f.Add("HSET h a 1\nHSET h b 2\nDEL h\nHGETALL h")
	f.Add("GET\nNOSUCH x\nFLUSHALL")
	f.Fuzz(func(t *testing.T, input string) {
		var cmds [][]string
		for _, line := range strings.Split(input, "\n") {
			args := strings.Fields(line)
			if len(args) == 0 {
				continue
			}
			// REPLSYNC hijacks the connection into a replication stream and
			// never returns to command dispatch; everything else must answer.
			if strings.EqualFold(args[0], "REPLSYNC") {
				continue
			}
			cmds = append(cmds, args)
			if len(cmds) == 64 {
				break
			}
		}
		if len(cmds) == 0 {
			return
		}
		srv := NewServer()
		clientEnd, serverEnd := net.Pipe()
		defer clientEnd.Close()
		done := make(chan struct{})
		go func() { srv.handle(serverEnd); close(done) }()
		go func() {
			w := bufio.NewWriter(clientEnd)
			for _, args := range cmds {
				if err := WriteWireCommand(w, args); err != nil {
					return
				}
			}
			_ = w.Flush()
		}()
		c := &Client{r: bufio.NewReader(clientEnd)}
		for i, args := range cmds {
			_, err := c.readReply()
			if err != nil && !errors.Is(err, ErrNil) && !IsServerError(err) {
				t.Fatalf("reply %d to %q: transport error %v", i, args, err)
			}
		}
		_ = clientEnd.Close()
		<-done
	})
}
