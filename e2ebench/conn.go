package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"

	"cool/internal/controlplane"
)

// frameHeader is the wire protocol's fixed header: version, type,
// big-endian uint32 payload length.
const frameHeader = 6

// conn is the generator's side of one coold connection. Unlike
// controlplane.Client it sends pre-encoded frames and reads answers
// into a reused buffer, so the generator does no JSON work on the
// timed path.
type conn struct {
	nc  net.Conn
	r   *bufio.Reader
	buf []byte
}

func dial(addr string) (*conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return handshake(nc)
}

// handshake opens a protocol session over an established connection
// (a TCP socket, or a net.Pipe end served in-process).
func handshake(nc net.Conn) (*conn, error) {
	c := &conn{nc: nc, r: bufio.NewReaderSize(nc, 64<<10)}
	hello, err := json.Marshal(&controlplane.Hello{MaxVersion: controlplane.MaxVersion, Client: "e2ebench"})
	if err != nil {
		nc.Close()
		return nil, err
	}
	if _, err := nc.Write(encodeFrame(controlplane.FrameHello, hello)); err != nil {
		nc.Close()
		return nil, err
	}
	t, _, err := c.readFrame()
	if err != nil || t != controlplane.FrameHelloAck {
		nc.Close()
		return nil, fmt.Errorf("handshake: frame type %d: %v", t, err)
	}
	return c, nil
}

func (c *conn) close() { c.nc.Close() }

func encodeFrame(t controlplane.FrameType, payload []byte) []byte {
	return controlplane.AppendFrame(nil, controlplane.Frame{
		Version: controlplane.Version1, Type: t, Payload: payload})
}

// encodeRequest marshals a request envelope into a complete frame.
func encodeRequest(req *controlplane.Request) ([]byte, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return encodeFrame(controlplane.FrameRequest, payload), nil
}

// readFrame reads one frame into the connection's buffer; the payload
// is valid until the next call.
func (c *conn) readFrame() (controlplane.FrameType, []byte, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[2:]))
	if n > controlplane.MaxFrameBytes {
		return 0, nil, fmt.Errorf("frame of %d bytes", n)
	}
	if cap(c.buf) < n {
		c.buf = make([]byte, n)
	}
	c.buf = c.buf[:n]
	if _, err := io.ReadFull(c.r, c.buf); err != nil {
		return 0, nil, err
	}
	return controlplane.FrameType(hdr[1]), c.buf, nil
}

// roundTrip sends one frame and decodes its answer. It is for set-up
// and verification, never for the timed path.
func (c *conn) roundTrip(frame []byte) (*controlplane.Response, []byte, error) {
	if _, err := c.nc.Write(frame); err != nil {
		return nil, nil, err
	}
	t, payload, err := c.readFrame()
	if err != nil {
		return nil, nil, err
	}
	raw := append([]byte(nil), payload...)
	switch t {
	case controlplane.FrameResponse:
		resp, err := controlplane.DecodeResponse(raw)
		return resp, raw, err
	case controlplane.FrameError:
		return nil, raw, controlplane.DecodeWireError(raw)
	}
	return nil, raw, fmt.Errorf("answered with frame type %d", t)
}

// errorCode names a failed answer: the typed wire code, or a transport
// failure.
func errorCode(t controlplane.FrameType, payload []byte) string {
	switch t {
	case controlplane.FrameResponse, controlplane.FramePush:
		return ""
	case controlplane.FrameError:
		return string(controlplane.DecodeWireError(payload).Code)
	}
	return "frame-" + strconv.Itoa(int(t))
}

// pushPrefix extracts the fingerprint and Seq from the head of a
// WatchEvent payload ({"fingerprint":"…","seq":N,…}) without decoding
// the schedule behind them.
func pushPrefix(payload []byte) (string, uint64, bool) {
	const fpKey = `{"fingerprint":"`
	if !bytes.HasPrefix(payload, []byte(fpKey)) {
		return "", 0, false
	}
	rest := payload[len(fpKey):]
	end := bytes.IndexByte(rest, '"')
	if end < 0 {
		return "", 0, false
	}
	fp := string(rest[:end])
	rest = rest[end+1:]
	const seqKey = `,"seq":`
	if !bytes.HasPrefix(rest, []byte(seqKey)) {
		return "", 0, false
	}
	rest = rest[len(seqKey):]
	var seq uint64
	i := 0
	for ; i < len(rest) && rest[i] >= '0' && rest[i] <= '9'; i++ {
		seq = seq*10 + uint64(rest[i]-'0')
	}
	return fp, seq, i > 0
}

// setDeadline bounds every blocking read and write on the connection.
func (c *conn) setDeadline(d time.Duration) { c.nc.SetDeadline(time.Now().Add(d)) }
