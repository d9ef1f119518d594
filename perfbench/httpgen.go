package main

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"strconv"
)

// The load generator writes pre-encoded HTTP/1.1 requests on raw
// connections and parses only the status line and Content-Length of each
// reply. A net/http client would cost about as much per request as the
// server under test; this one allocates nothing per request.

// fieldWidth is the width of a patchable decimal field: any uint64 fits.
const fieldWidth = 20

// opHeader carries the op ID to the server-side span wrapper.
const opHeader = "X-Bench-Op"

// request is one pre-encoded request with two fixed-width decimal fields
// patched per send: the call ID in the JSON body and the op ID header.
type request struct {
	buf  []byte
	idAt int
	opAt int
}

// newRequest encodes a POST of body to path. body must contain the call ID
// as the placeholder string idMark, which is replaced by a space-padded
// field (JSON allows whitespace before a number).
func newRequest(path, body string) request {
	const idMark = "$ID"
	pad := string(bytes.Repeat([]byte{' '}, fieldWidth))
	i := bytes.Index([]byte(body), []byte(idMark))
	if i < 0 {
		panic("newRequest: body without " + idMark)
	}
	body = body[:i] + pad + body[i+len(idMark):]
	head := "POST " + path + " HTTP/1.1\r\nHost: bench\r\n" + opHeader + ": "
	tail := "\r\nContent-Type: application/json\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n"
	buf := []byte(head + pad + tail + body)
	return request{
		buf:  buf,
		opAt: len(head),
		idAt: len(head) + fieldWidth + len(tail) + i,
	}
}

// putField writes v right-aligned and space-padded into b[:fieldWidth].
func putField(b []byte, v uint64) {
	b = b[:fieldWidth]
	i := fieldWidth
	for {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	for i > 0 {
		i--
		b[i] = ' '
	}
}

var (
	errMalformed = errors.New("malformed HTTP response")
	errChunked   = errors.New("chunked HTTP response not supported")
	errNoLength  = errors.New("HTTP response without Content-Length")
	errTooLarge  = errors.New("HTTP response body larger than the buffer")

	httpPrefix   = []byte("HTTP/1.")
	lengthPrefix = []byte("content-length:")
	chunkPrefix  = []byte("transfer-encoding:")
)

// readResponse reads one HTTP/1.1 response from br into buf and returns the
// status code and body. It understands only Content-Length framing.
func readResponse(br *bufio.Reader, buf []byte) (int, []byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, httpPrefix) || line[8] != ' ' {
		return 0, nil, errMalformed
	}
	status, ok := atoi(line[9:12])
	if !ok {
		return 0, nil, errMalformed
	}
	n := -1
	for {
		line, err = br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(bytes.TrimRight(line, "\r\n")) == 0 {
			break
		}
		switch {
		case hasPrefixFold(line, lengthPrefix):
			v, ok := atoi(bytes.TrimSpace(line[len(lengthPrefix):]))
			if !ok {
				return 0, nil, errMalformed
			}
			n = v
		case hasPrefixFold(line, chunkPrefix):
			return 0, nil, errChunked
		}
	}
	if n < 0 {
		return 0, nil, errNoLength
	}
	if n > len(buf) {
		return 0, nil, errTooLarge
	}
	if _, err := io.ReadFull(br, buf[:n]); err != nil {
		return 0, nil, err
	}
	return status, buf[:n], nil
}

// atoi parses a non-empty run of ASCII digits.
func atoi(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// hasPrefixFold reports whether b starts with the lower-case ASCII prefix,
// ignoring case.
func hasPrefixFold(b, lower []byte) bool {
	if len(b) < len(lower) {
		return false
	}
	for i, c := range lower {
		d := b[i]
		if 'A' <= d && d <= 'Z' {
			d += 'a' - 'A'
		}
		if d != c {
			return false
		}
	}
	return true
}

var dcKey = []byte(`"dc":`)

// replyDC extracts the "dc" field of a start or config reply.
func replyDC(body []byte) (int, bool) {
	i := bytes.Index(body, dcKey)
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(dcKey):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	return atoi(rest[:j])
}

// genConn is one closed-loop client connection.
type genConn struct {
	rw   io.ReadWriter
	br   *bufio.Reader
	out  []byte // the request being sent, patched from a template
	body []byte // reply body buffer
}

func newGenConn(rw io.ReadWriter) *genConn {
	return &genConn{rw: rw, br: bufio.NewReaderSize(rw, 4096), out: make([]byte, 0, 1024), body: make([]byte, 4096)}
}

func dialGen(addr string) (*genConn, net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	return newGenConn(c), c, nil
}

// do sends req with the given call and op IDs and waits for the reply.
func (g *genConn) do(req *request, id, op uint64) (int, []byte, error) {
	g.out = append(g.out[:0], req.buf...)
	putField(g.out[req.idAt:], id)
	putField(g.out[req.opAt:], op)
	if _, err := g.rw.Write(g.out); err != nil {
		return 0, nil, err
	}
	return readResponse(g.br, g.body)
}
