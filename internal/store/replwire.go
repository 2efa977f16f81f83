package store

import (
	"errors"
	"fmt"

	"snmpv3fp/internal/wire"
)

// Replication wire protocol: a primary ships sealed segment files and
// manifest commits to read replicas over one TCP stream per replica. The
// frames are internal/wire's, shared with the vantage protocol (DESIGN.md
// §14), so the stream needs no other synchronization; this file holds the
// frame types and the body codec of each.
//
// The session: the replica opens with Hello, naming the protocol version,
// its applied manifest seq horizon and every complete segment file it
// already holds. The primary then loops over published states: for each
// state it ships every listed segment the replica lacks (Seg header, Chunk
// bodies, SegDone), then a Commit carrying the rendered manifest and the
// primary's Stats JSON. A Commit only ever follows the segments it lists,
// so the replica can apply it atomically; everything before an applied
// Commit is recoverable, everything after is re-shipped on reconnect. The
// replica sends Ack frames after each apply, which is what the primary's
// lag accounting reads.

// Frame types. The numbering is part of the protocol; append, never
// renumber.
const (
	replFrameHello   byte = 1 // replica -> primary: version, seq horizon, held segments
	replFrameSeg     byte = 2 // primary -> replica: segment file header (name, size, crc)
	replFrameChunk   byte = 3 // primary -> replica: segment file bytes
	replFrameSegDone byte = 4 // primary -> replica: segment file complete
	replFrameCommit  byte = 5 // primary -> replica: manifest + stats, apply point
	replFrameAck     byte = 6 // replica -> primary: applied seq horizon
)

// replProtoVersion is echoed in Hello so a primary can reject replicas
// built against an incompatible codec.
const replProtoVersion = 1

// replChunkSize is how many segment-file bytes travel per Chunk frame,
// which keeps well-formed frames far below wire.MaxFrame.
const replChunkSize = 1 << 20

// errReplFrame reports a frame out of protocol order.
var errReplFrame = errors.New("store: replication frame out of order")

// replHello is the replica's opening frame.
type replHello struct {
	Version    uint32
	AppliedSeq uint64
	Held       []string
}

// replSeg announces one segment file about to be streamed.
type replSeg struct {
	Name string
	Size uint64
	CRC  uint32
}

// replCommit is the apply point: the rendered manifest file bytes and the
// primary's Stats JSON captured at the same publish.
type replCommit struct {
	Manifest []byte
	Stats    []byte
}

func appendReplHello(b []byte, h replHello) []byte {
	b = wire.AppendU32(b, h.Version)
	b = wire.AppendU64(b, h.AppliedSeq)
	b = wire.AppendU32(b, uint32(len(h.Held)))
	for _, name := range h.Held {
		b = wire.AppendU16(b, uint16(len(name)))
		b = append(b, name...)
	}
	return b
}

func parseReplHello(body []byte) (replHello, error) {
	r := wire.NewReader(body)
	var h replHello
	h.Version = r.U32()
	h.AppliedSeq = r.U64()
	n := int(r.U32())
	// Each held entry costs at least 2 bytes; reject counts the body
	// cannot hold before allocating for them.
	if n > r.Len()/2 {
		return replHello{}, wire.ErrTruncatedFrame
	}
	for i := 0; i < n; i++ {
		h.Held = append(h.Held, r.Str16())
	}
	return h, r.Done()
}

func appendReplSeg(b []byte, s replSeg) []byte {
	b = wire.AppendU16(b, uint16(len(s.Name)))
	b = append(b, s.Name...)
	b = wire.AppendU64(b, s.Size)
	return wire.AppendU32(b, s.CRC)
}

// parseReplSeg also validates the name: the replica writes the file under
// it, so only a plain numbered segment file name may pass, never a path.
func parseReplSeg(body []byte) (replSeg, error) {
	r := wire.NewReader(body)
	var s replSeg
	s.Name = r.Str16()
	s.Size = r.U64()
	s.CRC = r.U32()
	if err := r.Done(); err != nil {
		return replSeg{}, err
	}
	if err := checkSegName(s.Name); err != nil {
		return replSeg{}, err
	}
	return s, nil
}

// checkSegName accepts only the names the store gives its segment files.
func checkSegName(name string) error {
	if _, ok := fileNumber(name, ".seg"); !ok {
		return fmt.Errorf("store: replication: bad segment name %q", name)
	}
	return nil
}

func appendReplCommit(b []byte, c replCommit) []byte {
	b = wire.AppendU32(b, uint32(len(c.Manifest)))
	b = append(b, c.Manifest...)
	b = wire.AppendU32(b, uint32(len(c.Stats)))
	return append(b, c.Stats...)
}

func parseReplCommit(body []byte) (replCommit, error) {
	r := wire.NewReader(body)
	var c replCommit
	c.Manifest = r.Bytes32()
	c.Stats = r.Bytes32()
	return c, r.Done()
}
