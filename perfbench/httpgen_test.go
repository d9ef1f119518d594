package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

func reader(s string) *bufio.Reader { return bufio.NewReader(strings.NewReader(s)) }

func TestReadResponse(t *testing.T) {
	buf := make([]byte, 64)
	two := "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 9\r\n\r\n{\"dc\":12}" +
		"HTTP/1.1 404 Not Found\r\ncontent-LENGTH:  2 \r\nDate: x\r\n\r\nno"
	br := reader(two)
	status, body, err := readResponse(br, buf)
	if err != nil || status != 200 || string(body) != `{"dc":12}` {
		t.Fatalf("first response: %d %q %v", status, body, err)
	}
	if dc, ok := replyDC(body); !ok || dc != 12 {
		t.Errorf("replyDC = %d %v, want 12", dc, ok)
	}
	status, body, err = readResponse(br, buf)
	if err != nil || status != 404 || string(body) != "no" {
		t.Fatalf("second response (case-folded header, padded value): %d %q %v", status, body, err)
	}
	if _, _, err := readResponse(br, buf); !errors.Is(err, io.EOF) {
		t.Errorf("read past the stream: %v, want EOF", err)
	}
}

func TestReadResponseRejects(t *testing.T) {
	for name, c := range map[string]struct {
		in   string
		want error
	}{
		"chunked":    {"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n", errChunked},
		"no length":  {"HTTP/1.1 200 OK\r\nDate: x\r\n\r\n", errNoLength},
		"too large":  {"HTTP/1.1 200 OK\r\nContent-Length: 999\r\n\r\n", errTooLarge},
		"bad status": {"HTTP/1.1 2x0 OK\r\nContent-Length: 0\r\n\r\n", errMalformed},
		"not http":   {"SSH-2.0-OpenSSH_9.0 hello\r\n", errMalformed},
		"bad length": {"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n", errMalformed},
	} {
		if _, _, err := readResponse(reader(c.in), make([]byte, 64)); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", name, err, c.want)
		}
	}
	if _, _, err := readResponse(reader("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nab"), make([]byte, 64)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("short body: %v, want ErrUnexpectedEOF", err)
	}
}

func TestReplyDC(t *testing.T) {
	for body, want := range map[string]int{
		`{"dc":8,"dc_name":"tokyo"}`:                     8,
		`{"dc":0,"dc_name":"a","migrated":false}` + "\n": 0,
		`{"ok":true}`: -1,
		`{"dc":"x"}`:  -1,
	} {
		dc, ok := replyDC([]byte(body))
		if (want < 0 && ok) || (want >= 0 && (!ok || dc != want)) {
			t.Errorf("replyDC(%s) = %d %v, want %d", body, dc, ok, want)
		}
	}
}

func TestPutField(t *testing.T) {
	b := []byte("xxxxxxxxxxxxxxxxxxxxyy")
	putField(b, 42)
	if got := string(b); got != strings.Repeat(" ", 18)+"42yy" {
		t.Errorf("putField(42) = %q", got)
	}
	putField(b, 0)
	if got := string(b[:fieldWidth]); strings.TrimSpace(got) != "0" || len(got) != fieldWidth {
		t.Errorf("putField(0) = %q", got)
	}
	putField(b, ^uint64(0))
	if got := string(b[:fieldWidth]); got != strconv.FormatUint(^uint64(0), 10) {
		t.Errorf("putField(max) = %q", got)
	}
}

// TestRequestIsValidHTTP parses a patched request with net/http, the server
// the generator drives.
func TestRequestIsValidHTTP(t *testing.T) {
	req := newRequest("/v1/call/start", `{"id":$ID,"country":"JP","series_id":7}`)
	out := append([]byte(nil), req.buf...)
	putField(out[req.idAt:], 123456)
	putField(out[req.opAt:], 98)
	hr, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(out)))
	if err != nil {
		t.Fatal(err)
	}
	if hr.Method != "POST" || hr.URL.Path != "/v1/call/start" || hr.Header.Get(opHeader) != "98" {
		t.Errorf("parsed %s %s op=%q", hr.Method, hr.URL.Path, hr.Header.Get(opHeader))
	}
	var body struct {
		ID       uint64 `json:"id"`
		Country  string `json:"country"`
		SeriesID uint64 `json:"series_id"`
	}
	dec := json.NewDecoder(hr.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.ID != 123456 || body.Country != "JP" || body.SeriesID != 7 {
		t.Errorf("body = %+v", body)
	}
}

func TestGeneratorAllocatesNothing(t *testing.T) {
	resp := "HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\n{\"dc\":3}\n"
	g := newGenConn(&cannedConn{resp: []byte(resp)})
	req := newRequest("/v1/call/end", `{"id":$ID}`)
	var id uint64
	allocs := testing.AllocsPerRun(1000, func() {
		id++
		status, body, err := g.do(&req, id, id)
		if err != nil || status != 200 || len(body) != 9 {
			t.Fatalf("do: %d %q %v", status, body, err)
		}
	})
	if allocs != 0 {
		t.Errorf("generator allocates %.1f times per request, want 0", allocs)
	}
}
